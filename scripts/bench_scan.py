#!/usr/bin/env python3
"""Per-layer times and machine-independent counts of exact 2-SDS solves, for
a BENCH_<topic>.json file.

    python3 scripts/bench_scan.py LABEL SRC OUT

Imports secdom from SRC, the `src` directory of a checkout, builds its
`_kernel.c` into a temporary directory, and measures each instance of
`INSTANCES` on both backends:

- `level_scan_ms`: best of 5 runs of `kernel.least_set`, the level scan;
- `certificate_ms`: best of 5 runs of `secure._scan_2sds` on the witness.

One more pure solve, with the pure kernel's module functions wrapped to count
their calls, gives the counts that carry over to other machines: the
`subsets_examined` of the scan, the `_is_2sds` calls (dominating leaves
tested), and the `first_undefended` and `defenders` calls, those of the
certificate included.

The run is stored under LABEL in OUT's "runs".  Runs under other labels and
OUT's other keys, such as a note on where the runs were made, are kept, so a
before/after file is two calls on two checkouts.  Run them one
after the other, not side by side, since they time wall clock.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import sys
import tempfile
from time import perf_counter

REPEATS = 5
COUNTED = ("_is_2sds", "first_undefended", "defenders")

# The instances of the ROADMAP's baseline table: name -> graph of secdom.
INSTANCES = {
    "gs(K3)": lambda s: s.gs_graph(s.generate("complete", (3,))).graph,
    "gs(P4)": lambda s: s.gs_graph(s.generate("path", (4,))).graph,
    "comb10": lambda s: s.generate("comb", (10,)),
    "cycle20": lambda s: s.generate("cycle", (20,)),
    "random n=24 p=0.15 seed 5": lambda s: s.generate(
        "random-connected", (24, 0.15), seed=5
    ),
    "comb12": lambda s: s.generate("comb", (12,)),
    "cycle26": lambda s: s.generate("cycle", (26,)),
    "random-split n=64 p=0.3 seed 1": lambda s: s.generate(
        "random-split", (64, 0.3), seed=1
    ),
}


def build_kernel(src, out):
    """The `_kernel` extension of the checkout at `src`, built into `out`."""
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext

    kernel_c = os.path.join(src, "secdom", "_kernel.c")
    dist = Distribution({"ext_modules": [Extension("secdom._kernel", [kernel_c])]})
    cmd = build_ext(dist)
    cmd.build_lib = out
    cmd.build_temp = os.path.join(out, "tmp")
    cmd.ensure_finalized()
    cmd.run()
    spec = importlib.util.spec_from_file_location(
        "secdom._kernel", cmd.get_ext_fullpath("secdom._kernel")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def best_ms(fn):
    best = float("inf")
    for _ in range(REPEATS):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return round(best * 1e3, 3)


def measure(secdom, compiled):
    from secdom import _pykernel, kernel, secure

    instances = {}
    for name, build in INSTANCES.items():
        G = build(secdom)
        masks = G.closed_masks()
        row = {"n": G.n}
        answers = set()
        for backend, module in (("compiled", compiled), ("pure", None)):
            kernel._kernel = module
            witness, examined = kernel.least_set(masks, kernel.TWO_SDS)
            answers.add((witness, examined))
            row[f"{backend}_ms"] = {
                "level_scan": best_ms(
                    lambda: kernel.least_set(masks, kernel.TWO_SDS)
                ),
                "certificate": best_ms(
                    lambda: secure._scan_2sds(G, witness, True)
                ),
            }
        if len(answers) != 1:
            sys.exit(f"{name}: the backends disagree: {sorted(answers)}")
        calls = dict.fromkeys(COUNTED, 0)
        originals = {f: getattr(_pykernel, f) for f in COUNTED}

        def counting(f):
            def counted(*args):
                calls[f] += 1
                return originals[f](*args)

            return counted

        try:
            for f in COUNTED:
                setattr(_pykernel, f, counting(f))
            witness, examined = kernel.least_set(masks, kernel.TWO_SDS)
            secure._scan_2sds(G, witness, True)
        finally:
            for f, fn in originals.items():
                setattr(_pykernel, f, fn)
        row.update(
            value=len(witness),
            witness=list(witness),
            subsets_examined=examined,
            calls=calls,
        )
        instances[name] = row
        print(name, json.dumps(row), flush=True)
    return instances


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    label, src, out = argv
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    import secdom

    with tempfile.TemporaryDirectory() as tmp:
        compiled = build_kernel(src, tmp)
        instances = measure(secdom, compiled)
    cpus = len(os.sched_getaffinity(0))
    run = {
        "python": platform.python_version(),
        "cpus": cpus,
        "note": f"times in ms, best of {REPEATS}, wall clock on a {cpus}-CPU "
        "machine; only the counts carry over to other machines",
        "instances": instances,
    }
    doc = {"runs": {}}
    if os.path.exists(out):
        with open(out) as fh:
            doc = json.load(fh)
    doc["runs"][label] = run
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])

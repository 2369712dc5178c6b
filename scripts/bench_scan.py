#!/usr/bin/env python3
"""Per-layer times and machine-independent counts of exact 2-SDS solves, of
full defence scans and of the class enumeration, for a BENCH_<topic>.json
file.

    python3 scripts/bench_scan.py LABEL SRC OUT [SET]

Imports secdom from SRC, the `src` directory of a checkout, and measures the
instance set SET, `solve` (the default), `defence` or `enum`.

`solve` builds the checkout's `_kernel.c` into a temporary directory, and
measures each instance of `INSTANCES` on both backends:

- `level_scan_ms`: best of 5 runs of `kernel.least_set`, the level scan;
- `certificate_ms`: best of 5 runs of `secure._scan_2sds` on the witness.

One more pure solve, with the pure kernel's module functions wrapped to count
their calls, gives the counts that carry over to other machines: the
`subsets_examined` of the scan, the `_is_2sds` calls (dominating leaves
tested), and the `first_undefended` and `defenders` calls, those of the
certificate included.

`defence` times full defence scans, the layer of certificates, `secdom
verify` and the check of `secdom approx`: `_pykernel.first_undefended` on the
`approx_2sds` set of `DEFENCE_GRAPHS` seeded random-connected graphs of mean
degree `DEFENCE_DEGREE` at each size of `DEFENCE_SIZES`, all of them 2-SDS,
so each scan covers every attack pair.  Per size it stores the best of 5
runs over the graphs with a table (`table`) and without one (`bare`), the
attack pairs, the `defenders` calls of one scan of each graph with a table,
and the sha256 of those tables, which must match between runs.

`enum` times the generator of the test corpus: for each n of `ENUM_SIZES`,
the best of `ENUM_REPEATS` runs of `list(connected_graphs(n,
up_to_iso=True))`, the number of classes, the `_canonical_code` calls of one
`_classes(n)` and the labellings those calls return, and the sha256 of its
code list, which must match between runs.  The row `walk` records the
same, but the hash, for `connected_graphs(n, up_to_iso=True)` called for
each n of `WALK_SIZES` in turn, as the iso-corpus workload and the test
fixtures call it; each call rebuilds the smaller sizes.

The run is stored under LABEL in OUT's "runs", with the set's results under
its name.  Runs under other labels, the other set of the same label and
OUT's other keys, such as a note on where the runs were made, are kept, so
a before/after file is two calls on two checkouts.  Run them one after the
other, not side by side, since they time wall clock.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import platform
import random
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


# The defence-scan graphs: DEFENCE_GRAPHS per size, drawn from one seeded
# generator in the order of DEFENCE_SIZES.
DEFENCE_SIZES = (24, 40, 56)
DEFENCE_GRAPHS = 4
DEFENCE_DEGREE = 6
DEFENCE_SEED = 5

ENUM_SIZES = range(5, 9)
ENUM_REPEATS = 3
# the sizes that the iso-corpus workload and the test fixtures walk in turn
WALK_SIZES = range(1, 8)


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


def best_ms(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return round(best * 1e3, 3)


def count_calls(module, names, run):
    """`run()`, and the calls it made of each function `names` of `module`."""
    calls = dict.fromkeys(names, 0)
    originals = {f: getattr(module, f) for f in names}

    def counting(f):
        def counted(*args):
            calls[f] += 1
            return originals[f](*args)

        return counted

    try:
        for f in names:
            setattr(module, f, counting(f))
        result = run()
    finally:
        for f, fn in originals.items():
            setattr(module, f, fn)
    return result, calls


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

        def solve():
            witness, examined = kernel.least_set(masks, kernel.TWO_SDS)
            secure._scan_2sds(G, witness, True)
            return witness, examined

        (witness, examined), calls = count_calls(_pykernel, COUNTED, solve)
        row.update(
            value=len(witness),
            witness=list(witness),
            subsets_examined=examined,
            calls=calls,
        )
        instances[name] = row
        print(name, json.dumps(row), flush=True)
    return instances


def measure_defence(secdom):
    from secdom import _pykernel

    rng = random.Random(DEFENCE_SEED)
    sizes = {}
    for n in DEFENCE_SIZES:
        sets = []
        for _ in range(DEFENCE_GRAPHS):
            G = secdom.generate(
                "random-connected",
                (n, DEFENCE_DEGREE / (n - 1)),
                seed=rng.randrange(2**31),
            )
            masks = G.closed_masks()
            smask = sum(1 << v for v in secdom.approx_2sds(G))
            sets.append((masks, smask, _pykernel.layers(masks, smask, (1 << n) - 1)))

        def scan_all(table):
            tables = []
            for masks, smask, layered in sets:
                tables.append({} if table else None)
                if _pykernel.first_undefended(masks, smask, layered, tables[-1]):
                    sys.exit(f"n={n}: an approx_2sds set fails its defence scan")
            return tables

        tables, calls = count_calls(_pykernel, ("defenders",), lambda: scan_all(True))
        row = {
            "set_sizes": [smask.bit_count() for _, smask, _ in sets],
            "pairs": DEFENCE_GRAPHS * n * (n - 1) // 2,
            "scan_ms": {
                "table": best_ms(lambda: scan_all(True)),
                "bare": best_ms(lambda: scan_all(False)),
            },
            "calls": calls,
            "table_sha256": hashlib.sha256(
                repr([list(t.items()) for t in tables]).encode()
            ).hexdigest(),
        }
        sizes[f"n={n}"] = row
        print(f"n={n}", json.dumps(row), flush=True)
    return sizes


def measure_enum(secdom):
    from secdom import enumgraphs

    def counted(run):
        """`run()`, the `_canonical_code` calls it made and the labellings
        they returned."""
        search = enumgraphs._canonical_code
        calls = labellings = 0

        def counting(*args):
            nonlocal calls, labellings
            calls += 1
            code, found = search(*args)
            labellings += len(found)
            return code, found

        enumgraphs._canonical_code = counting
        try:
            result = run()
        finally:
            enumgraphs._canonical_code = search
        return result, {"_canonical_code": calls}, labellings

    def walk():
        return [
            G for n in WALK_SIZES for G in enumgraphs.connected_graphs(n, up_to_iso=True)
        ]

    sizes = {}
    for n in ENUM_SIZES:
        codes, calls, labellings = counted(lambda: enumgraphs._classes(n))
        sizes[f"n={n}"] = {
            "classes": len(codes),
            "enum_ms": best_ms(
                lambda: list(enumgraphs.connected_graphs(n, up_to_iso=True)),
                ENUM_REPEATS,
            ),
            "calls": calls,
            "labellings": labellings,
            "codes_sha256": hashlib.sha256(repr(codes).encode()).hexdigest(),
        }
    reps, calls, labellings = counted(walk)
    sizes["walk"] = {
        "classes": len(reps),
        "enum_ms": best_ms(walk, ENUM_REPEATS),
        "calls": calls,
        "labellings": labellings,
    }
    for name, row in sizes.items():
        print(name, json.dumps(row), flush=True)
    return sizes


def main(argv):
    if len(argv) not in (3, 4):
        sys.exit(__doc__)
    label, src, out = argv[:3]
    which = argv[3] if len(argv) == 4 else "solve"
    if which not in ("solve", "defence", "enum"):
        sys.exit(f"unknown set {which!r}: choose solve, defence or enum")
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    import secdom

    repeats = REPEATS
    if which == "solve":
        with tempfile.TemporaryDirectory() as tmp:
            compiled = build_kernel(src, tmp)
            results = {"instances": measure(secdom, compiled)}
    elif which == "defence":
        results = {"defence": measure_defence(secdom)}
    else:
        results = {"enum": measure_enum(secdom)}
        repeats = ENUM_REPEATS
    cpus = len(os.sched_getaffinity(0))
    doc = {"runs": {}}
    if os.path.exists(out):
        with open(out) as fh:
            doc = json.load(fh)
    run = doc["runs"].setdefault(label, {})
    run.update(
        python=platform.python_version(),
        cpus=cpus,
        note=f"times in ms, best of {repeats}, wall clock on a {cpus}-CPU "
        "machine; only the counts carry over to other machines",
        **results,
    )
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])

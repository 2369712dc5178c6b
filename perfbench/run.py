#!/usr/bin/env python3
"""Closed-loop benchmark for secdom.

    python3 perfbench/run.py --workload exact-solve --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: secdom is imported from ./src, never
from an installed copy, and whichever kernel backend that import selects is
the one measured (it is stamped, never built or forced here).  One caller
sends each item and waits for its answer; a pass sends the workload's whole
item list, and passes repeat while another one fits in --seconds.  Every answer
is checked after timing, by the benchmark's own code (checks.py).

With --trace 0 the last line of stdout holds the end-to-end metrics; with
--trace 1 one untraced pass is followed by traced passes, and the last line
holds the per-layer metrics (see tracing.py).  The line before it stamps the
run: backend, Python, CPUs, commit, seed and the exact counters.  Spans of a
traced run go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 9

import tracing  # noqa: E402
import workloads  # noqa: E402


def import_secdom():
    """Import secdom afresh from ./src, so that each set-up pays the import.

    Compiled extension modules stay loaded: they cannot be initialised twice
    in one process.
    """
    for name in [m for m in sys.modules if m == "secdom" or m.startswith("secdom.")]:
        origin = getattr(sys.modules[name].__spec__, "origin", "") or ""
        if origin.endswith(".py"):
            del sys.modules[name]
    secdom = importlib.import_module("secdom")
    importlib.import_module("secdom.cli")
    importlib.import_module("secdom.enumgraphs")
    return secdom


def set_up(workload_cls, seed, workdir, tracer):
    """Import, instance generation, gadget construction and graph files,
    repeated; returns the last workload and the set-up times."""
    times, gadget_times = [], []
    for rep in range(SETUP_REPEATS):
        repdir = os.path.join(workdir, f"setup{rep}")
        os.mkdir(repdir)
        first = len(tracer.spans) if tracer else 0
        t0 = perf_counter()
        secdom = import_secdom()
        if tracer:
            tracer.install_gadgets()
        workload = workload_cls(secdom, seed, repdir)
        times.append(perf_counter() - t0)
        if tracer:
            gadget_times.append(tracer.busy_layer(first, len(tracer.spans), "gadgets"))
    return workload, times, gadget_times


class Ledger:
    """What the passes of one mode (traced or untraced) produced.

    Each distinct answer is kept once with a count, so memory does not grow
    with the number of passes and peak RSS stays the program's own."""

    def __init__(self, workload):
        self.workload = workload
        self.walls = []
        self.latencies = {}  # item id -> seconds, one per pass
        self.answers = {}  # item id -> [[answer, passes that gave it]]
        self.pass_checks = []  # None or a mismatch, per whole-pass check
        self.counters = []  # exact counters, one dict per pass
        self.layers = []  # per-layer metrics, one dict per traced pass

    def add(self, wall, results, layers=None):
        self.walls.append(wall)
        for item_id, latency, answer in results:
            if latency is not None:
                self.latencies.setdefault(item_id, []).append(latency)
            seen = self.answers.setdefault(item_id, [])
            for entry in seen:
                if entry[0] == answer:
                    entry[1] += 1
                    break
            else:
                seen.append([answer, 1])
        self.pass_checks += self.workload.extra_checks(results)
        if layers is None:
            self.counters.append(self.workload.counters(results))
        else:
            self.counters.append({k: layers[k] for k in tracing.EXACT})
            self.layers.append(layers)


def run_pass(workload, ledger, tracer=None):
    def call(item_id, fn, *args):
        if tracer:
            tracer.item = item_id
            tracer.begin("bench.item", "bench")
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a crash is a wrong answer, not the end of the run
            result = ("exception", repr(exc))
        finally:
            latency = perf_counter() - t0
            if tracer:
                tracer.end()
                tracer.item = None
        return latency, result

    if tracer is None:
        t0 = perf_counter()
        results = workload.run(call)
        wall = perf_counter() - t0
        ledger.add(wall, results)
        return wall
    tracer.counts.clear()
    tracer.defender_s = 0.0
    first = len(tracer.spans)
    tracer.begin("bench.pass", "bench")
    t0 = perf_counter()
    results = workload.run(call)
    wall = perf_counter() - t0
    tracer.end()
    ledger.add(wall, results, tracer.layer_metrics(first, len(tracer.spans), wall))
    return wall


def check(ledgers):
    """Check every distinct answer once; returns (attempted, mismatches)."""
    attempted, failures, verdicts = 0, [], {}
    for ledger in ledgers:
        for item_id, seen in ledger.answers.items():
            for answer, count in seen:
                attempted += count
                key = (item_id, answer)
                if key not in verdicts:
                    verdicts[key] = _verdict(ledger.workload, item_id, answer)
                if verdicts[key] is not None:
                    failures += [f"{item_id}: {verdicts[key]}"] * count
        attempted += len(ledger.pass_checks)
        failures += [bad for bad in ledger.pass_checks if bad is not None]
        attempted += 1
        if any(c != ledger.counters[0] for c in ledger.counters):
            failures.append("exact counters differ between passes")
    return attempted, failures


def _verdict(workload, item_id, answer):
    if answer[:1] == ("exception",):
        return f"raised {answer[1]}"
    try:
        return workload.check(item_id, answer)
    except Exception as exc:  # an answer the check cannot parse is wrong
        return f"unreadable answer: {exc!r}"


def end_to_end(ledger, setup_times, attempted, failed):
    """Latency figures are taken over items, each item's latency being its
    median over the passes; on a list of mixed-size instances a percentile
    over pooled samples would jump between neighbouring instances."""
    items_ms = [statistics.median(lats) * 1000 for lats in ledger.latencies.values()]
    return {
        "wall_s": (statistics.median(ledger.walls), "s"),
        "item_ms.geomean": (math.exp(statistics.fmean(math.log(x) for x in items_ms)), "ms"),
        "item_ms.p50": (statistics.median(items_ms), "ms"),
        "item_ms.p90": (statistics.quantiles(items_ms, n=10)[-1], "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "correct_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(untraced, traced, gadget_times):
    metrics = {
        name: (statistics.median(p[name] for p in traced.layers), tracing.UNITS[name])
        for name in traced.layers[0]
    }
    metrics["gadgets.build_s"] = (statistics.median(gadget_times), "s")
    overhead = statistics.median(traced.walls) / statistics.median(untraced.walls) - 1
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    return None


def source_digest():
    """sha256 over the package's files, which identifies the code measured
    in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "secdom")
    for name in sorted(os.listdir(pkg)):
        path = os.path.join(pkg, name)
        if os.path.isfile(path):
            digest.update(name.encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "secdom", "__init__.py")):
        print(f"error: no secdom sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        tracer = tracing.Tracer() if args.trace else None
        workload, setup_times, gadget_times = set_up(
            workloads.WORKLOADS[args.workload], args.seed, workdir, tracer
        )
        secdom = workload.secdom
        if os.path.dirname(os.path.dirname(os.path.abspath(secdom.__file__))) != SRC:
            print(f"error: secdom imported from {secdom.__file__}", file=sys.stderr)
            return 2

        untraced = Ledger(workload)
        traced = Ledger(workload) if tracer else None
        t_start = perf_counter()
        if tracer:
            run_pass(workload, untraced)
            tracer.install()
        while True:
            wall = run_pass(workload, traced, tracer) if tracer else run_pass(workload, untraced)
            # stop when one more pass would overrun --seconds
            if perf_counter() - t_start + wall > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    measured = traced or untraced
    attempted, failures = check([untraced] + ([traced] if traced else []))
    for line in failures[:20]:
        print(f"mismatch: {line}")
    if tracer:
        metrics = per_layer(untraced, traced, gadget_times)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-s{args.seed}.jsonl"))
    else:
        metrics = end_to_end(untraced, setup_times, attempted, len(failures))
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "kernel_backend": secdom.KERNEL_BACKEND,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "passes": len(measured.walls),
        "item_samples": sum(len(v) for v in measured.latencies.values()),
        "counters": measured.counters[0],
    }
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

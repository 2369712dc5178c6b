#!/usr/bin/env python3
"""Time the minimum-2-SDS level scan of the search kernels.

Runs the full level scan on a few representative instances with the
pure-Python kernel and prints a timing table.  When the compiled kernel is
built, the table adds its column and the speedup over the pure one.

Usage: python3 benchmarks/bench_kernel.py
"""

import time

from secdom import _pykernel, kernel
from secdom.gadgets import generate, gs_graph, inapprox_gadget
from secdom.graphs import build_graph


def full_scan(solve_level, G):
    """Size-increasing scan from level 2, as in the exact solver."""
    masks = list(G.closed_masks())
    for k in range(2, G.n + 1):
        witness, _ = solve_level(masks, k)
        if witness is not None:
            return k
    raise AssertionError("V is always a 2-SDS")


def main():
    k3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    instances = [
        ("gs(K3), 15 vertices", gs_graph(k3).graph),
        ("inapprox(C6), 11 vertices", inapprox_gadget(generate("cycle", (6,))).graph),
        ("random n=13 p=0.25", generate("random-connected", (13, 0.25), seed=42)),
    ]
    compiled = kernel.BACKEND == "compiled"
    header = f"{'instance':30} {'pure':>12}"
    if compiled:
        header += f" {'compiled':>12} {'speedup':>8}"
    print(header)
    for name, G in instances:
        t0 = time.perf_counter()
        value = full_scan(_pykernel.solve_level, G)
        tp = time.perf_counter() - t0
        row = f"{name:30} {tp * 1000:10.1f}ms"
        if compiled:
            t0 = time.perf_counter()
            value_c = full_scan(kernel._kernel.solve_level, G)
            tc = time.perf_counter() - t0
            assert value == value_c, f"backends disagree on {name}"
            row += f" {tc * 1000:10.1f}ms {tp / tc:7.1f}x"
        print(row)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Benchmark the compiled search kernel against the pure-Python fallback.

Runs the full minimum-2-SDS level scan on a few representative instances
with both backends and prints a timing table plus the speedup.

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
    if kernel.BACKEND != "compiled":
        print("compiled kernel not available; nothing to compare")
        return
    print(f"{'instance':30} {'compiled':>12} {'pure':>12} {'speedup':>8}")
    for name, G in instances:
        t0 = time.perf_counter()
        v1 = full_scan(kernel._kernel.solve_level, G)
        tc = time.perf_counter() - t0
        t0 = time.perf_counter()
        v2 = full_scan(_pykernel.solve_level, G)
        tp = time.perf_counter() - t0
        assert v1 == v2, f"backends disagree on {name}: {v1} vs {v2}"
        print(f"{name:30} {tc * 1000:10.1f}ms {tp * 1000:10.1f}ms {tp / tc:7.1f}x")


if __name__ == "__main__":
    main()

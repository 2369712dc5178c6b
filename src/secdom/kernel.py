"""Kernel backend selection: the compiled extension `_kernel` when it was
built, else the pure-Python `_pykernel`.

Both run one algorithm, `_pykernel.solve_level`.  `BACKEND` names the active
backend ("compiled" or "pure-python").  The extension holds masks in uint64,
so graphs with more than 64 vertices always take the pure kernel.
"""

from __future__ import annotations

from math import comb
from typing import Optional, Sequence

from . import _pykernel

try:
    from . import _kernel  # type: ignore[attr-defined]

    BACKEND = "compiled"
except ImportError:  # extension not built; pure fallback
    _kernel = None
    BACKEND = "pure-python"

_COMPILED_MAX_N = 64


def solve_level(
    masks: Sequence[int], k: int
) -> tuple[Optional[tuple[int, ...]], int]:
    """First k-subset (lex order) that is a 2-SDS, plus the k-combinations
    a flat lex-order scan examines up to it (all C(n, k) when there is none).
    A level k <= 0 examines nothing."""
    if k <= 0:
        return None, 0
    n = len(masks)
    if _kernel is not None and n <= _COMPILED_MAX_N:
        w = _kernel.witness(masks, k)
        return w, _pykernel._lex_position(n, w) if w else comb(n, k)
    return _pykernel.solve_level(masks, k)

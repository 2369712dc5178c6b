"""The one level scan of the exact solvers, for each kind of set (`DOM`,
`TWO_DOM`, `TWO_SDS`): the compiled extension `_kernel` when it was built,
else the pure-Python `_pykernel`.

Both run one algorithm, `_pykernel.solve_level`.  `BACKEND` names the active
backend ("compiled" or "pure-python").  The extension holds masks in uint64,
so graphs with more than 64 vertices always take the pure kernel.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import _pykernel
from ._pykernel import DOM, TWO_DOM, TWO_SDS  # noqa: F401  (the kinds)

try:
    from . import _kernel  # type: ignore[attr-defined]

    BACKEND = "compiled"
except ImportError:  # extension not built; pure fallback
    _kernel = None
    BACKEND = "pure-python"

_COMPILED_MAX_N = 64


def solve_level(
    masks: Sequence[int], k: int, kind: int
) -> tuple[Optional[tuple[int, ...]], int]:
    """First k-subset (lex order) of `kind`, plus the k-combinations a flat
    lex-order scan examines up to it (`_pykernel.examined`)."""
    n = len(masks)
    if _kernel is not None and n <= _COMPILED_MAX_N:
        w = _kernel.witness(masks, k, kind)
        return w, _pykernel.examined(n, k, w)
    return _pykernel.solve_level(masks, k, kind)


def least_set(
    masks: Sequence[int], kind: int, start: int
) -> tuple[tuple[int, ...], int]:
    """Lex-least smallest set of `kind` with at least `start` members, and
    the k-combinations examined on the levels from `start` to its size.  V
    is of every kind (for 2-SDS, each attacked pair defends itself)."""
    examined = 0
    for k in range(start, len(masks) + 1):
        witness, count = solve_level(masks, k, kind)
        examined += count
        if witness is not None:
            return witness, examined
    raise AssertionError("V itself is a set of every kind")  # pragma: no cover

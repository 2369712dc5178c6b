"""The one level scan of the exact solvers, for each kind of set (`DOM`,
`TWO_DOM`, `TWO_SDS`): the compiled extension `_kernel` when it was built,
else the pure-Python `_pykernel`.

Both backends export one function, `least(masks, kind, first, last)`, and
run one algorithm; `solve_level` picks the module, makes one call per solve
and counts the combinations examined, so the count has one definition,
`examined`.  `BACKEND` names the active backend ("compiled" or
"pure-python").  The extension holds masks in uint64, so graphs with more
than 64 vertices always take the pure kernel.
"""

from __future__ import annotations

from math import comb
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


def examined(n: int, k: int, witness: Optional[Sequence[int]]) -> int:
    """The k-combinations a flat lex-order scan of range(n) examines up to
    `witness`: its 1-based lex position, where at each index i the
    combinations that agree before i and pick a smaller vertex at i come
    first; or all C(n, k) when there is none, which is 0 for k < 0.  So
    k = 0 examines the empty set once."""
    if witness is None:
        return comb(n, k) if k >= 0 else 0
    position = 1
    prev = -1
    for i, c in enumerate(witness):
        position += comb(n - 1 - prev, k - i) - comb(n - c, k - i)
        prev = c
    return position


def solve_level(
    masks: Sequence[int], kind: int, first: int, last: int
) -> tuple[Optional[tuple[int, ...]], int]:
    """Lex-least smallest set of `kind` whose size lies in first..last, or
    None, plus the combinations a flat lex-order scan examines up to it:
    every C(n, j) of each level j from `first` below the set's size (up to
    min(last, n) when there is none), then its lex position (`examined`)."""
    n = len(masks)
    last = min(last, n)
    backend = _kernel if _kernel is not None and n <= _COMPILED_MAX_N else _pykernel
    w = backend.least(masks, kind, first, last)
    size = last + 1 if w is None else len(w)
    count = sum(examined(n, j, None) for j in range(first, size))
    return w, count if w is None else count + examined(n, size, w)

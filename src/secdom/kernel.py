"""Kernel backend selection: compiled extension when available, else pure Python.

`BACKEND` names the active backend ("compiled" or "pure-python"); the compiled
path only handles graphs with at most 64 vertices, larger inputs transparently
fall back.
"""

from __future__ import annotations

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
    """First k-subset (lex order) that is a 2-SDS, plus subsets examined."""
    if _kernel is not None and len(masks) <= _COMPILED_MAX_N:
        return _kernel.solve_level(list(masks), k)
    return _pykernel.solve_level(masks, k)

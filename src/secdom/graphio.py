"""Flat-file graph format and the roles sidecar.

Format: a header line "n m", then m lines "u v" with 0-based endpoints.
Lines starting with '#' are comments.  The canonical written form sorts
edges with u < v, so parse(write(G)) round-trips bit-for-bit.
"""

from __future__ import annotations

import io
from typing import TextIO, Union

from .gadgets import GadgetResult
from .graphs import Graph, GraphError, _checked_graph


class GraphParseError(GraphError):
    """Malformed graph file; message carries the offending line number."""


def write_graph(G: Graph, out: Union[str, TextIO]) -> None:
    if isinstance(out, str):
        with open(out, "w") as fh:
            write_graph(G, fh)
        return
    out.write(f"{G.n} {G.m}\n")
    for u, v in G.edges:
        out.write(f"{u} {v}\n")


def graph_to_text(G: Graph) -> str:
    buf = io.StringIO()
    write_graph(G, buf)
    return buf.getvalue()


def parse_graph(src: Union[str, TextIO]) -> Graph:
    """Parse a graph file or file-like object.

    Rejects self-loops, duplicate edges, out-of-range endpoints, and
    header/body mismatches, always naming the line at fault.
    """
    if isinstance(src, str):
        with open(src) as fh:
            return parse_graph(fh)
    header = None
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(src, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise GraphParseError(f"line {lineno}: header must be 'n m'")
            try:
                header = (int(fields[0]), int(fields[1]))
            except ValueError:
                raise GraphParseError(f"line {lineno}: non-integer header") from None
            if header[0] < 0 or header[1] < 0:
                raise GraphParseError(f"line {lineno}: negative header field")
            continue
        if len(fields) != 2:
            raise GraphParseError(f"line {lineno}: edge line must be 'u v'")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: non-integer endpoint") from None
        n = header[0]
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(
                f"line {lineno}: endpoint outside 0..{n - 1} in ({u},{v})"
            )
        if u == v:
            raise GraphParseError(f"line {lineno}: self-loop ({u},{v})")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphParseError(f"line {lineno}: duplicate edge ({u},{v})")
        seen.add(key)
    if header is None:
        raise GraphParseError("line 1: missing header")
    if len(seen) != header[1]:
        raise GraphParseError(
            f"header announces {header[1]} edges but body has {len(seen)}"
        )
    # each edge is checked above, as Graph would check it
    return _checked_graph(header[0], seen)


def write_roles(result: GadgetResult, out: Union[str, TextIO]) -> None:
    """Roles sidecar: line-oriented key=value text."""
    if isinstance(out, str):
        with open(out, "w") as fh:
            write_roles(result, fh)
        return
    for v in sorted(result.roles):
        out.write(f"role.{v}={result.roles[v]}\n")
    for key in sorted(result.param_map):
        out.write(f"param.{key}={result.param_map[key]}\n")

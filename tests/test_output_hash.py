"""One sha256 over the exact and approximate answers on every connected
graph up to isomorphism with 2 to 7 vertices, on both kernel backends.

A change to the level scan that keeps its outputs keeps this digest: every
value, lex-least witness, count of subsets examined and certificate entry
(in the verifier's order) goes into it."""

import hashlib

from secdom import (
    DOMINATING,
    TWO_DOMINATING,
    dom_set_approx,
    exact_gamma_2s,
    exact_minimum,
    kernel,
)
from secdom.enumgraphs import connected_graphs

DIGEST = "a6f57184906bf05c67d638bfa127a6d6c91fb1ad7938686af946385bc1db07bd"


def outputs_digest():
    """(classes, sha256) over the classes of sizes 2..7."""
    h = hashlib.sha256()
    classes = 0
    for n in range(2, 8):
        for G in connected_graphs(n, up_to_iso=True):
            report = exact_gamma_2s(G)
            rows = [
                (
                    G.n,
                    G.edges,
                    report.value,
                    report.witness,
                    report.subsets_examined,
                    list(report.certificate.entries.items()),
                )
            ]
            for kind in (DOMINATING, TWO_DOMINATING):
                r = exact_minimum(G, kind)
                rows.append((kind, r.value, r.witness, r.subsets_examined))
            rows.append([dom_set_approx(G, k) for k in (1, 2, 3)])
            h.update(repr(rows).encode())
            classes += 1
    return classes, h.hexdigest()


def test_pure_outputs(monkeypatch):
    monkeypatch.setattr(kernel, "_kernel", None)
    assert outputs_digest() == (995, DIGEST)  # OEIS A001349


def test_compiled_outputs(compiled_kernel, monkeypatch):
    monkeypatch.setattr(kernel, "_kernel", compiled_kernel)
    assert outputs_digest() == (995, DIGEST)  # OEIS A001349


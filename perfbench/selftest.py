#!/usr/bin/env python3
"""Self-test of the benchmark's answer checks.

    python3 perfbench/selftest.py

Takes real answers from a few cheap items of each workload, requires the
checks to accept them, then corrupts each answer in several ways and
requires every corruption to be caught.  Exits 0 when all are caught.
"""

from __future__ import annotations

import re
import sys
import tempfile

import run
import workloads


def corrupt_text(text):
    """Wrong variants of a CLI answer's stdout."""
    out = []
    m = re.search(r"^(gamma2s|gamma|gamma2)=(\d+)$", text, re.M)
    if m:
        out.append(text.replace(m.group(0), f"{m.group(1)}={int(m.group(2)) + 1}"))
    m = re.search(r"^set=(\d+),(\d+),.*$", text, re.M)
    if m:
        two = text.replace(m.group(0), f"set={m.group(1)},{m.group(2)}")
        out.append(re.sub(r"^size=\d+$", "size=2", two, flags=re.M))
        out.append(text.replace(m.group(0), f"set={m.group(2)},{m.group(1)},{m.group(2)}"))
    lines = text.splitlines(keepends=True)
    defends = [i for i, line in enumerate(lines) if line.startswith("defend.")]
    if defends:
        i = defends[len(defends) // 2]
        out.append("".join(lines[:i] + lines[i + 1:]))
        key, value = lines[i].rstrip("\n").split("=")
        v1, v2 = value.split(",")
        out.append("".join(lines[:i] + [f"{key}={v2},{v1}\n"] + lines[i + 1:]))
    m = re.search(r"^reason=.*(\d+)$", text, re.M)
    if m:
        line = m.group(0)
        out.append(text.replace(line, line[:-1] + str((int(line[-1]) + 1) % 10)))
    if "verified=yes" in text:
        out.append(text.replace("verified=yes", "verified=no"))
    return out


def cases(workload, results):
    """(item id, real answer, corrupted answers) for each result."""
    for item_id, _, answer in results:
        if isinstance(answer[0], int) and len(answer) == 2 and isinstance(answer[1], str):
            code, text = answer
            bad = [(code, t) for t in corrupt_text(text)] + [(code ^ 1, text)]
        elif isinstance(answer[0], tuple):  # verify-large: (set, code, text)
            S, code, text = answer
            bad = [(S, code, t) for t in corrupt_text(text)] + [(S, code ^ 1, text)]
        else:  # iso-corpus
            if answer[0] < 2:
                continue
            n, edges, g2s, w2s, cert, gam, wgam, e2, e1 = answer
            bad = [
                (n, edges, g2s + 1, w2s, cert, gam, wgam, e2, e1),
                (n, edges, g2s, w2s[:-1] + ((w2s[-1] + 1) % n,), cert, gam, wgam, e2, e1),
                (n, edges, g2s, w2s, cert[1:], gam, wgam, e2, e1),
                (n, edges, g2s, w2s, cert, gam, tuple(sorted(set(wgam) ^ {0, n - 1})), e2, e1),
            ]
        yield item_id, answer, [b for b in bad if b != answer]


def main():
    sys.path.insert(0, run.SRC)
    secdom = run.import_secdom()
    missed, checked = [], 0
    with tempfile.TemporaryDirectory(dir=run.HERE) as workdir:
        for cls in workloads.WORKLOADS.values():
            workload = cls(secdom, 1, workdir)
            if cls is workloads.ExactSolve:
                workload.order = ["inapprox(C6)", "rand13", "split16", "cycle22.dom",
                                  "cycle16.2dom", "cycle18"]
            elif cls is workloads.VerifyLarge:
                workload.graphs = workload.graphs[:2]
            else:
                workload.MAX_N = 4
            results = workload.run(lambda item_id, fn, *args: (0.0, fn(*args)))
            for item_id, answer, bad in cases(workload, results):
                verdict = workload.check(item_id, answer)
                if verdict is not None:
                    missed.append(f"{cls.name} {item_id}: real answer rejected: {verdict}")
                for wrong in bad:
                    checked += 1
                    try:
                        caught = workload.check(item_id, wrong) is not None
                    except Exception:  # run.check_passes counts a crash as a mismatch
                        caught = True
                    if not caught:
                        missed.append(f"{cls.name} {item_id}: corrupted answer accepted")
            if cls is workloads.IsoCorpus:
                checked += 1
                if all(v is None for v in workload.extra_checks(results)):
                    missed.append("iso-corpus: class counts for n <= 4 passed the n <= 7 table")
    for line in missed:
        print(line)
    print(f"selftest: {checked} corrupted answers, {len(missed)} missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())

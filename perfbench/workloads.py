"""The three workloads: what each sends to secdom and how each answer is checked.

A workload is built once per set-up from the seed (instances, gadgets, graph
files), then `run(call)` makes one closed-loop pass: one caller sends each
item and waits for its answer before sending the next.  `call(item_id, fn,
*args)` times the item and returns (seconds, result).  `check(item_id,
answer)` returns None for a right answer, else what is wrong with it.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout

import checks

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def write_graph_file(path, n, edges):
    with open(path, "w") as fh:
        fh.write(f"{n} {len(edges)}\n")
        for u, v in sorted(edges):
            fh.write(f"{u} {v}\n")


def run_cli(secdom, argv):
    """secdom.cli.main in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = secdom.cli.main(argv)
    return code, out.getvalue()


def parse_output(text):
    """key=value lines into a dict, and defend.u1,u2=v1,v2 lines into a
    defence table."""
    fields, entries = {}, {}
    for line in text.splitlines():
        key, _, value = line.partition("=")
        if key.startswith("defend."):
            u1, u2 = map(int, key[len("defend."):].split(","))
            entries[(u1, u2)] = tuple(map(int, value.split(",")))
        else:
            fields[key] = value
    return fields, entries


def parse_set(text):
    return tuple(int(v) for v in text.split(",")) if text else ()


def replay_mismatch(secdom, n, edges, S, entries):
    """The certificate checked twice: literally, and by DefenseCertificate.replay."""
    masks = checks.closed_masks(n, edges)
    bad = checks.certificate_mismatch(masks, S, entries)
    if bad is not None:
        return bad
    cert = secdom.DefenseCertificate(entries=dict(entries))
    if not cert.replay(secdom.build_graph(n, edges), tuple(S)):
        return "DefenseCertificate.replay rejects the certificate"
    return None


class ExactSolve:
    """`secdom solve` on fixed instances; the seed sets the order they are sent in.

    The instances are fixed because the cost of one exact solve depends on
    where the least witness falls in lexicographic order: at one size and
    edge density, the time of a random instance varied up to 20x across
    graph seeds and up to 2.4x across vertex relabellings, which would swamp
    any change under test.
    """

    name = "exact-solve"

    def __init__(self, secdom, seed, workdir):
        g = secdom.generate
        K3, P3, P4 = g("complete", (3,)), g("path", (3,)), g("path", (4,))
        C6, C10 = g("cycle", (6,)), g("cycle", (10,))
        rand16 = g("random-connected", (16, 0.25), seed=16)
        # (id, graph, problem, budget, certificate, identity).  An identity
        # (op, base, c) states value op c + gamma(base), or value op c when
        # base is None: gs(G) = 3n for n >= 2, apx(G) = gamma + 2*ceil(n/2)
        # for max degree <= 3, inapprox(G) <= gamma + 3, gamma(comb_k) = k,
        # gamma(C_n) = gamma(P_n) = ceil(n/3) and gamma_2(C_n) = ceil(n/2).
        specs = [
            ("gs(K3)", secdom.gs_graph(K3).graph, "2sds", None, True, ("==", None, 9)),
            ("gs(P3)", secdom.gs_graph(P3).graph, "2sds", None, True, ("==", None, 9)),
            ("inapprox(C6)", secdom.inapprox_gadget(C6).graph, "2sds", None, True, ("<=", C6, 3)),
            ("inapprox(C10)", secdom.inapprox_gadget(C10).graph, "2sds", None, True, ("<=", C10, 3)),
            ("apx(C6)", secdom.apx_gadget(C6).graph, "2sds", None, True, ("==", C6, 6)),
            ("rand13", g("random-connected", (13, 0.25), seed=42), "2sds", None, True, None),
            ("rand14", g("random-connected", (14, 0.25), seed=14), "2sds", None, True, None),
            ("rand16", rand16, "2sds", None, True, None),
            ("cycle16", g("cycle", (16,)), "2sds", None, True, None),
            ("path16", g("path", (16,)), "2sds", None, True, None),
            ("comb8", g("comb", (8,)), "2sds", None, True, None),
            ("split16", g("random-split", (16, 0.3), seed=16), "2sds", None, True, None),
            ("cycle18", g("cycle", (18,)), "2sds", 18, False, None),
            ("gs(P4)", secdom.gs_graph(P4).graph, "2sds", 20, False, ("==", None, 12)),
            ("rand20", g("random-connected", (20, 0.2), seed=20), "2sds", 20, False, None),
            ("comb9", g("comb", (9,)), "2sds", 18, False, None),
            ("comb10.dom", g("comb", (10,)), "dom", None, False, ("==", None, 10)),
            ("comb11.dom", g("comb", (11,)), "dom", None, False, ("==", None, 11)),
            ("cycle22.dom", g("cycle", (22,)), "dom", None, False, ("==", None, 8)),
            ("path22.dom", g("path", (22,)), "dom", None, False, ("==", None, 8)),
            ("comb8.2dom", g("comb", (8,)), "2dom", None, False, None),
            ("cycle16.2dom", g("cycle", (16,)), "2dom", None, False, ("==", None, 8)),
            ("rand16.2dom", rand16, "2dom", None, False, None),
        ]
        self.secdom = secdom
        self.items = {}
        for i, (item_id, G, problem, budget, cert, identity) in enumerate(specs):
            path = os.path.join(workdir, f"exact{i}.txt")
            write_graph_file(path, G.n, G.edges)
            argv = ["solve", path, "--problem", problem]
            if budget is not None:
                argv += ["--budget", str(budget)]
            if cert:
                argv.append("--certificate")
            self.items[item_id] = {
                "argv": argv, "n": G.n, "edges": list(G.edges),
                "problem": problem, "identity": identity,
            }
        self.order = list(self.items)
        random.Random(seed).shuffle(self.order)
        with open(EXPECTED) as fh:
            self.expected = json.load(fh)[self.name]

    def run(self, call):
        return [
            (item_id, *call(item_id, run_cli, self.secdom, self.items[item_id]["argv"]))
            for item_id in self.order
        ]

    def check(self, item_id, answer):
        code, text = answer
        item = self.items[item_id]
        if code != 0:
            return f"exit code {code}, expected 0"
        fields, entries = parse_output(text)
        label = {"2sds": "gamma2s", "dom": "gamma", "2dom": "gamma2"}[item["problem"]]
        try:
            value = int(fields[label])
            witness = parse_set(fields["set"])
            int(fields["subsets_examined"])
        except (KeyError, ValueError) as exc:
            return f"malformed output ({exc!r})"
        expected = self.expected[item_id]
        if value != expected["value"] or list(witness) != expected["witness"]:
            return f"answer {value} {witness}, expected {expected['value']} {expected['witness']}"
        if len(witness) != value:
            return f"witness size {len(witness)} differs from value {value}"
        n, edges = item["n"], item["edges"]
        masks = checks.closed_masks(n, edges)
        literal = {
            "2sds": checks.is_2sds,
            "dom": checks.is_dominating_set,
            "2dom": checks.is_2dominating,
        }[item["problem"]]
        if not literal(masks, witness):
            return f"witness {witness} fails the {item['problem']} definition"
        if item["identity"] is not None:
            op, base, bound = item["identity"]
            if base is not None:
                bound += checks.gamma(checks.closed_masks(base.n, base.edges))
            if not (value == bound if op == "==" else value <= bound):
                return f"value {value} breaks the identity value {op} {bound}"
        if "--certificate" in item["argv"]:
            return replay_mismatch(self.secdom, n, edges, witness, entries)
        return None

    def counters(self, results):
        return {
            "subsets_examined": {
                item_id: int(parse_output(answer[1])[0].get("subsets_examined", -1))
                for item_id, _, answer in results
            }
        }

    def extra_checks(self, results):
        """Checks over a whole pass rather than one item: None or a mismatch each."""
        return []


class VerifyLarge:
    """`secdom approx` and `secdom verify --certificate` on seeded graphs
    with n = 24, 40 and 56, where no exact solve runs.

    Per graph: the greedy 2-SDS from `approx`, then `verify` of that set
    with and without its full C(n,2) certificate, of a superset of it, and
    of three sets that fail: a minimal dominating subset (an attack pair
    fails), the set minus a closed neighbourhood (a vertex is undominated)
    and a single vertex (too small).
    """

    name = "verify-large"
    # Six graphs at each of three sizes: the full scans then form one tight
    # latency group per size, and the item median and 90th percentile fall
    # inside a group instead of between graphs of different sizes.
    SIZES = (24, 40, 56) * 6
    DEGREE = 6

    def __init__(self, secdom, seed, workdir):
        self.secdom = secdom
        self.seed = seed
        rng = random.Random(seed)
        self.graphs = []
        for i, n in enumerate(self.SIZES):
            G = secdom.generate(
                "random-connected", (n, self.DEGREE / (n - 1)), seed=rng.randrange(2**31)
            )
            path = os.path.join(workdir, f"verify{i}.txt")
            write_graph_file(path, G.n, G.edges)
            self.graphs.append((path, G.n, list(G.edges)))
        self.masks = [checks.closed_masks(n, edges) for _, n, edges in self.graphs]

    def _variants(self, g, S):
        """(label, vertex set, --certificate) items verified after approx.

        Four are full C(n,2) scans (a superset of a 2-SDS is one) and three
        fail early, so the item median sits among the full scans rather than
        in the gap between the two kinds."""
        masks = self.masks[g]
        rng = random.Random(self.seed * 1000003 + g)
        outside = [v for v in range(len(masks)) if v not in S] or S
        minimal = set(S)
        for v in rng.sample(S, len(S)):
            if checks.dominates(masks, checks.to_mask(minimal - {v})):
                minimal.discard(v)
        w = rng.randrange(len(masks))
        return [
            ("greedy", S, True),
            ("greedy.bare", S, False),
            ("superset", sorted(set(S) | {rng.choice(outside)}), True),
            ("minimal-dominating", sorted(minimal), True),
            ("undominated", [v for v in S if not (masks[w] >> v) & 1], True),
            ("too-small", [rng.choice(S)], True),
        ]

    def run(self, call):
        results = []
        for g, (path, n, _) in enumerate(self.graphs):
            argv = ["approx", path, "--algorithm", "approx-2sds"]
            latency, (code, text) = call(f"g{g}.approx", run_cli, self.secdom, argv)
            results.append((f"g{g}.approx", latency, (code, text)))
            S = list(parse_set(parse_output(text)[0].get("set", ""))) or list(range(n))
            for label, vertices, cert in self._variants(g, S):
                item_id = f"g{g}.{label}"
                argv = ["verify", path, *map(str, vertices)] + ["--certificate"] * cert
                latency, (code, text) = call(item_id, run_cli, self.secdom, argv)
                results.append((item_id, latency, (tuple(vertices), code, text)))
        return results

    def check(self, item_id, answer):
        g = int(item_id[1:item_id.index(".")])
        _, n, edges = self.graphs[g]
        masks = self.masks[g]
        if item_id.endswith(".approx"):
            code, text = answer
            fields, _ = parse_output(text)
            if code != 0:
                return f"exit code {code}, expected 0"
            S = parse_set(fields.get("set", ""))
            if list(S) != sorted(set(S)):
                return f"approx set {S} is not a sorted vertex set"
            if fields.get("verified") != "yes" or fields.get("size") != str(len(S)):
                return "approx output lines disagree with its set"
            failure = checks.first_failure(masks, S)
            return None if failure is None else f"approx set fails: {failure}"
        S, code, text = answer
        fields, entries = parse_output(text)
        failure = checks.first_failure(masks, S)
        if failure is None:
            if code != 0 or fields.get("verified") != "yes":
                return f"a 2-SDS was rejected (exit {code})"
            if item_id.endswith(".bare"):
                return "certificate printed without --certificate" if entries else None
            return replay_mismatch(self.secdom, n, edges, sorted(set(S)), entries)
        kind, detail = failure
        if kind == "too-small":
            expected_reason = f"set-too-small size={detail}"
        elif kind == "undominated":
            expected_reason = f"undominated vertex={detail}"
        else:
            expected_reason = f"no-defenders failing_pair={detail[0]},{detail[1]}"
        if code != 1 or fields.get("verified") != "no":
            return f"a non-2-SDS was accepted (exit {code}), expected {failure}"
        if fields.get("reason") != expected_reason:
            return f"reported reason {fields.get('reason')!r}, expected {expected_reason!r}"
        if entries:
            return "certificate printed for a rejected set"
        return None

    def counters(self, results):
        return {}

    def extra_checks(self, results):
        return []


class IsoCorpus:
    """Every connected graph up to isomorphism for n <= 7 (996 classes) from
    enumgraphs.connected_graphs; each class with n >= 2 gets exact_gamma_2s
    and exact_minimum(DOMINATING).  The seed relabels each representative by
    a random permutation before the solves, which keeps the values and moves
    the witnesses."""

    name = "iso-corpus"
    MAX_N = 7

    def __init__(self, secdom, seed, workdir):
        self.secdom = secdom
        self.seed = seed

    def run(self, call):
        secdom = self.secdom
        rng = random.Random(self.seed)
        results = []
        for n in range(1, self.MAX_N + 1):
            for idx, G in enumerate(secdom.enumgraphs.connected_graphs(n, up_to_iso=True)):
                perm = rng.sample(range(n), n)
                edges = tuple(sorted(
                    (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in G.edges
                ))
                item_id = f"n{n}#{idx}"
                if n < 2:
                    results.append((item_id, None, (n, edges)))
                    continue
                H = secdom.build_graph(n, edges)
                latency, (r2, r1) = call(item_id, self._solve, H)
                results.append((item_id, latency, (
                    n, edges, r2.value, r2.witness,
                    tuple(sorted(r2.certificate.entries.items())),
                    r1.value, r1.witness, r2.subsets_examined, r1.subsets_examined,
                )))
        return results

    def _solve(self, H):
        secdom = self.secdom
        return secdom.exact_gamma_2s(H), secdom.exact_minimum(H, secdom.DOMINATING)

    def check(self, item_id, answer):
        if answer[0] < 2:
            return None if answer == (1, ()) else f"single-vertex class reads {answer}"
        n, edges, g2s, w2s, cert, gam, wgam, _, _ = answer
        masks = checks.closed_masks(n, edges)
        if g2s != len(w2s) or gam != len(wgam):
            return "value differs from witness size"
        bad = checks.lex_least_minimum(masks, wgam, checks.is_dominating_set)
        if bad is not None:
            return f"dominating set: {bad}"
        bad = checks.lex_least_minimum(masks, w2s, checks.is_2sds)
        if bad is not None:
            return f"2-SDS: {bad}"
        return replay_mismatch(self.secdom, n, edges, w2s, dict(cert))

    def counters(self, results):
        return {
            "subsets_examined.2sds": sum(a[7] for _, _, a in results if a[0] >= 2),
            "subsets_examined.dom": sum(a[8] for _, _, a in results if a[0] >= 2),
        }

    def extra_checks(self, results):
        """Class counts per n against OEIS A001349."""
        counts = {}
        for _, _, answer in results:
            counts[answer[0]] = counts.get(answer[0], 0) + 1
        return [
            None if counts.get(n, 0) == expected
            else f"{counts.get(n, 0)} classes on {n} vertices, expected {expected}"
            for n, expected in checks.A001349.items()
        ]


WORKLOADS = {w.name: w for w in (ExactSolve, VerifyLarge, IsoCorpus)}

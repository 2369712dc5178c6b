"""Command-line surface.

Exit codes: 0 success/verified, 1 semantic negative (not a 2-SDS, identity
FAIL), 2 input error, 3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import experiments
from .domination import (
    DEFAULT_DOMINATION_BUDGET,
    BudgetExceededError,
    DOMINATING,
    TWO_DOMINATING,
    exact_minimum,
    greedy_2dominating,
    greedy_dominating,
)
from .gadgets import apx_gadget, generate, gs_graph, inapprox_gadget
from .graphio import GraphParseError, parse_graph, write_graph, write_roles
from .graphs import GraphError
from .secure import (
    DEFAULT_2SDS_BUDGET,
    DisconnectedGraphError,
    PatchInsufficientError,
    _scan_2sds,
    approx_2sds,
    dom_set_approx,
    exact_gamma_2s,
    first_failure,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _fmt_set(S) -> str:
    return ",".join(str(v) for v in S)


def _print_certificate(cert) -> None:
    # one write; a certificate covers all C(n, 2) >= 1 attack pairs
    print("\n".join(
        f"defend.{u1},{u2}={v1},{v2}"
        for (u1, u2), (v1, v2) in sorted(cert.entries.items())
    ))


def _cmd_gen(args) -> int:
    G = generate(args.family, args.params, seed=args.seed)
    if args.out:
        write_graph(G, args.out)
    else:
        write_graph(G, sys.stdout)
    return EXIT_OK


def _cmd_verify(args) -> int:
    G = parse_graph(args.graph)
    S = [int(v) for v in args.vertices]
    cert, failure = _scan_2sds(G, S, build_certificate=args.certificate)
    if failure is None:
        print("verified=yes")
        if args.certificate:
            _print_certificate(cert)
        return EXIT_OK
    print("verified=no")
    kind, detail = failure
    if kind == "too-small":
        print(f"reason=set-too-small size={detail}")
    elif kind == "undominated":
        print(f"reason=undominated vertex={detail}")
    else:
        print(f"reason=no-defenders failing_pair={detail[0]},{detail[1]}")
    return EXIT_NEGATIVE


def _cmd_solve(args) -> int:
    G = parse_graph(args.graph)
    if args.problem == "2sds":
        budget = DEFAULT_2SDS_BUDGET if args.budget is None else args.budget
        report = exact_gamma_2s(G, budget=budget)
        print(f"gamma2s={report.value}")
    else:
        kind = DOMINATING if args.problem == "dom" else TWO_DOMINATING
        budget = DEFAULT_DOMINATION_BUDGET if args.budget is None else args.budget
        report = exact_minimum(G, kind, budget=budget)
        label = "gamma" if args.problem == "dom" else "gamma2"
        print(f"{label}={report.value}")
    print(f"set={_fmt_set(report.witness)}")
    print(f"subsets_examined={report.subsets_examined}")
    if args.certificate and report.certificate is not None:
        _print_certificate(report.certificate)
    return EXIT_OK


def _cmd_approx(args) -> int:
    G = parse_graph(args.graph)
    if args.algorithm == "greedy-dom":
        result = greedy_dominating(G)
    elif args.algorithm == "greedy-2dom":
        result = greedy_2dominating(G)
    elif args.algorithm == "approx-2sds":
        result = approx_2sds(G)
    else:
        if args.k is None:
            raise GraphError("dom-set-approx needs -k")
        result = dom_set_approx(G, args.k)
    print(f"algorithm={args.algorithm}")
    print(f"set={_fmt_set(result)}")
    print(f"size={len(result)}")
    if args.algorithm == "approx-2sds":
        ok = first_failure(G, result) is None
        print(f"verified={'yes' if ok else 'no'}")
        if not ok:  # the pipeline guarantees this never happens
            return EXIT_NEGATIVE
    return EXIT_OK


def _cmd_gadget(args) -> int:
    G = parse_graph(args.graph)
    builder = {"inapprox": inapprox_gadget, "apx": apx_gadget, "gs": gs_graph}[
        args.kind
    ]
    result = builder(G)
    write_graph(result.graph, args.out)
    write_roles(result, args.out + ".roles")
    print(f"vertices={result.graph.n}")
    print(f"edges={result.graph.m}")
    print(f"roles={args.out}.roles")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    if args.suite == "identities":
        _, failed = experiments.run_identities(max_n=args.max_n)
        return EXIT_OK if failed == 0 else EXIT_NEGATIVE
    csv_fh = open(args.csv, "w", newline="") if args.csv else None
    try:
        _, violations = experiments.run_ratios(
            family=args.family,
            n=args.n,
            trials=args.trials,
            seed=args.seed,
            p=args.p,
            csv_out=csv_fh if csv_fh else sys.stdout,
        )
    finally:
        if csv_fh:
            csv_fh.close()
    return EXIT_OK if violations == 0 else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secdom",
        description="2-secure domination toolkit: solvers, verifiers, "
        "gadget constructions, and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph family to a file")
    p.add_argument("family")
    p.add_argument("params", nargs="+", type=float)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="check a vertex set for 2-secure domination")
    p.add_argument("graph")
    p.add_argument("vertices", nargs="+")
    p.add_argument("--certificate", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("solve", help="exact minimum for dom / 2dom / 2sds")
    p.add_argument("graph")
    p.add_argument("--problem", choices=["dom", "2dom", "2sds"], required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--certificate", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("approx", help="run an approximation algorithm")
    p.add_argument("graph")
    p.add_argument(
        "--algorithm",
        choices=["greedy-dom", "greedy-2dom", "approx-2sds", "dom-set-approx"],
        required=True,
    )
    p.add_argument("-k", type=int, default=None)
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("gadget", help="build a hardness gadget from a graph")
    p.add_argument("kind", choices=["inapprox", "apx", "gs"])
    p.add_argument("graph")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_gadget)

    p = sub.add_parser("experiment", help="identity replays and ratio tables")
    p.add_argument("suite", choices=["identities", "ratios"])
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--family", default="random-connected")
    p.add_argument("--n", type=int, default=9)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--p", type=float, default=0.4)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_experiment)
    return parser


# Parsing leaves the parser unchanged, so one serves every call.  It is built
# on the first call rather than at import, which stays cheap.
_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (GraphParseError, GraphError, DisconnectedGraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PatchInsufficientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: compute, construct, verify, oracle, table,
selfcheck.

Structured results are JSON on stdout; tables are aligned text.  Exit
codes: 0 success, 1 violated precondition or hypothesis (the message
names it), 2 I/O or parse error, 3 oracle budget exceeded (the query
would try more one-vertex extensions than the oracle's budget, whatever
--jobs is; the message names the budget).

Note the two spellings of the cycle parameter: `compute` and `table`
take the threshold parameter k of the formulas together with --parity
(forbidding cycles of length >= 2k+1 or >= 2k), while `verify` and
`oracle` take --k as the forbidden cycle length itself.  The first two
pick the formula by formulas.extremal_value; `table` prints n/a only for
an n below the witness's order and otherwise fails as `compute` does.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import selfcheck as _selfcheck_mod
from .constructors import (
    build_H,
    build_St1,
    build_St2,
    build_block_star,
    build_extremal_odd,
    build_multipartite_G,
    build_woodall_G0,
    parse_block_star_spec,
)
from .errors import (
    GraphFormatError,
    OracleSizeError,
    ParameterError,
    WitnessOrderError,
)
from .family import ForbiddenFamily, is_family_free
from .formulas import extremal_value
from .graphs import count_cliques
from .graph_io import read_graph, write_graph
from .matching import berge_tutte_certificate, max_matching
from .oracle import brute_force_ex


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genturan",
        description=(
            "Exact extremal clique counts for graphs with no long cycles "
            "and bounded matching number"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="evaluate an extremal value formula")
    p.add_argument("--parity", choices=["odd", "even"], required=True,
                   help="forbid cycles of length >= 2k+1 (odd) or >= 2k (even)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--edges-only", action="store_true",
                   help="use the closed-form edge count (requires r=2)")
    p.set_defaults(handler=_cmd_compute)

    p = sub.add_parser("construct", help="build a witness graph")
    p.add_argument("--witness", required=True, choices=list(_WITNESSES))
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--q", type=int)
    p.add_argument("--spec-file")
    p.add_argument("--format", choices=["graph6", "edgelist"], default="graph6")
    p.add_argument("--output", help="write to file instead of stdout")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("verify", help="check a graph against a family")
    p.add_argument("--graph", required=True, help="path to the graph file")
    p.add_argument("--format", choices=["graph6", "edgelist"], default="graph6")
    p.add_argument("--k", type=int, help="forbid cycles of length >= k")
    p.add_argument("--s", type=int, help="require matching number <= s")
    p.add_argument("--r", type=int, default=2, help="clique order to count")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive maximum at small n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, help="forbid cycles of length >= k")
    p.add_argument("--s", type=int, help="require matching number <= s")
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--stable", action="store_true",
                   help="omit volatile metadata (elapsed time) from output")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("table", help="formula values over a range of n")
    p.add_argument("--parity", choices=["odd", "even"], required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    p.add_argument("--edges-only", action="store_true")
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("selfcheck", help="run the embedded invariant suite")
    p.set_defaults(handler=lambda args: _selfcheck_mod.run_selfcheck())
    return parser


def _cmd_compute(args) -> int:
    value = extremal_value(args.parity, args.n, args.k, args.s, args.r,
                           args.edges_only)
    payload = value.to_json()
    payload["params"] = {
        "parity": args.parity, "n": args.n, "k": args.k, "s": args.s,
        "r": args.r,
    }
    print(json.dumps(payload, indent=2))
    return 0


def _spec_file_graph(args):
    with open(args.spec_file, "r", encoding="ascii") as fh:
        return build_block_star(parse_block_star_spec(fh.read()))


# --witness choice -> (required options, builder from the parsed arguments)
_WITNESSES = {
    "H": (("n", "k", "a"), lambda a: build_H(a.n, a.k, a.a)),
    "extremal-odd": (("n", "k", "s"),
                     lambda a: build_extremal_odd(a.n, a.k, a.s, a.r)),
    "st1": (("n", "k", "q"), lambda a: build_St1(a.n, a.k, a.q)),
    "st2": (("n", "k", "q"), lambda a: build_St2(a.n, a.k, a.q)),
    "g0": (("n", "k"), lambda a: build_woodall_G0(a.n, a.k)),
    "multipartite": (("n", "k", "s"),
                     lambda a: build_multipartite_G(a.n, a.k, a.s)),
    "block-star-spec-file": (("spec_file",), _spec_file_graph),
}


def _cmd_construct(args) -> int:
    required, build = _WITNESSES[args.witness]
    for name in required:
        if getattr(args, name) is None:
            raise ParameterError(
                f"witness {args.witness!r} requires --{name.replace('_', '-')}"
            )
    graph = build(args)
    text = write_graph(graph, args.format)
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    with open(args.graph, "r", encoding="ascii") as fh:
        graph = read_graph(fh.read(), args.format)
    family = ForbiddenFamily(
        cycle_min_len=args.k, matching_bound=args.s, clique_order=args.r
    )
    report = is_family_free(graph, family)
    payload = {
        "n": graph.n,
        "edges": graph.num_edges,
        "family": family.to_json(),
        "family_free": report.is_free,
        "violation": None,
        "clique_count": count_cliques(graph, args.r),
        "matching_number": max_matching(graph),
        "certificate": None,
        "certificate_skipped": None,
    }
    if not report.is_free:
        payload["violation"] = {
            "constraint": report.violated,
            "cycle": list(report.cycle) if report.cycle else None,
            "matching": [list(e) for e in report.matching] if report.matching else None,
        }
    # family-free implies nu <= s, so a certificate exists at every n; it is
    # skipped only with no bound to certify or a graph that is not family-free
    if args.s is None:
        payload["certificate_skipped"] = "no matching bound given (--s)"
    elif not report.is_free:
        payload["certificate_skipped"] = "the graph is not family-free"
    else:
        cert = berge_tutte_certificate(graph, args.s)
        payload["certificate"] = {
            "vertex_set": list(cert.vertex_set),
            "component_sizes": list(cert.component_sizes),
            "slack": cert.slack,
        }
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_oracle(args) -> int:
    family = ForbiddenFamily(
        cycle_min_len=args.k, matching_bound=args.s, clique_order=args.r
    )
    result = brute_force_ex(args.n, family, jobs=args.jobs)
    print(json.dumps(result.to_json(stable=args.stable), indent=2))
    return 0


def _cmd_table(args) -> int:
    if args.n_from > args.n_to:
        raise ParameterError("--n-from must be <= --n-to")
    rows = []
    for n in range(args.n_from, args.n_to + 1):
        try:
            value = extremal_value(args.parity, n, args.k, args.s, args.r,
                                   args.edges_only)
            rows.append((n, str(value.value), value.regime,
                         "yes" if value.asymptotic_warning else "no"))
        except WitnessOrderError:
            rows.append((n, "n/a", "-", "-"))
    headers = ("n", "value", "case", "below-threshold")
    table = [headers] + [tuple(str(c) for c in row) for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    for row in table:
        print("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return 0


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except OracleSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GraphFormatError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

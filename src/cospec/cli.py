"""Command-line interface.

Every subcommand is a thin adapter over the library: it parses tokens,
calls the corresponding function, and prints its serialized value, so the
output is byte-identical to serializing the library call directly.

Exit codes: 0 success, 1 domain/input errors and unreadable files
(one-line diagnostic on stderr), 2 usage errors. diff-paper exits 1 when
any expected cell mismatches.
"""

from __future__ import annotations

import argparse
import json
import sys

from .census import CensusSpec, Domain, diff_paper, run_census
from .closed_forms import TreeData, multipartite_snf, star_snf, tree_snf
from .errors import CospecError
from .graphs import _read_lines, iter_graph6_lines, parse_graph6
from .intlinalg import charpoly, cof_polynomial, smith_normal_form
from .invariants import (
    Flavor,
    describe_fingerprint,
    fingerprint,
    is_codeterminantal_Qx,
    related,
)
from .matrices import MatrixKind, build_matrix


def format_matrix(m):
    return "\n".join(" ".join(str(v) for v in row) for row in m)


def format_factors(factors):
    return " ".join(str(v) for v in factors)


def format_bool(value):
    return "true" if value else "false"


def format_census_row_csv(row):
    return (
        f"{row.kind.value},{row.flavor.value},{row.n},{row.domain_size},"
        f"{row.with_mate},{row.uncertainty}"
    )


def census_rows_to_csv(rows):
    header = "kind,flavor,n,domain_size,with_mate,uncertainty"
    return "\n".join([header] + [format_census_row_csv(r) for r in rows])


def census_rows_to_json(rows):
    return json.dumps(
        {
            "rows": [
                {
                    "kind": r.kind.value,
                    "flavor": r.flavor.value,
                    "n": r.n,
                    "domain_size": r.domain_size,
                    "with_mate": r.with_mate,
                    "uncertainty": str(r.uncertainty),
                }
                for r in rows
            ]
        }
    )


def _kind(token):
    return MatrixKind.from_token(token)


def _flavor(token):
    return Flavor.from_token(token)


def _input_graphs(args, parser):
    literal = getattr(args, "graph", None)
    source = getattr(args, "input", None)
    if literal is not None and source:
        parser.error("give a graph6 literal or --input, not both")
    if literal is not None:
        return [(None, parse_graph6(literal))]
    if source:
        return list(iter_graph6_lines(_read_lines(source)))
    parser.error("a graph6 literal or --input FILE is required")


def _cmd_matrix(args, parser):
    for _, g in _input_graphs(args, parser):
        print(format_matrix(build_matrix(g, args.kind)))
    return 0


def _cmd_polynomial(args, parser):
    for _, g in _input_graphs(args, parser):
        p = args.polynomial(build_matrix(g, args.kind))
        if args.format == "json":
            print(json.dumps({"coeffs": list(p.coeffs)}))
        else:
            print(str(p))
    return 0


def _cmd_snf(args, parser):
    for _, g in _input_graphs(args, parser):
        print(format_factors(smith_normal_form(build_matrix(g, args.kind))))
    return 0


def _cmd_fingerprint(args, parser):
    for _, g in _input_graphs(args, parser):
        if args.describe:
            print(describe_fingerprint(g, args.kind, args.flavor))
        else:
            print(fingerprint(g, args.kind, args.flavor).hex())
    return 0


def _cmd_relate(args, parser):
    print(
        format_bool(
            related(
                parse_graph6(args.graph_a),
                parse_graph6(args.graph_b),
                args.kind,
                args.flavor,
            )
        )
    )
    return 0


def _cmd_codet(args, parser):
    print(
        format_bool(
            is_codeterminantal_Qx(
                parse_graph6(args.graph_a), parse_graph6(args.graph_b), args.kind
            )
        )
    )
    return 0


def _cmd_closed_form(args, parser):
    if args.shape == "star":
        print(format_factors(star_snf(args.leaves)))
    elif args.shape == "multipartite":
        print(format_factors(multipartite_snf(args.parts, args.size, args.signless)))
    else:
        for _, g in _input_graphs(args, parser):
            print(format_factors(tree_snf(TreeData.from_graph(g))))
    return 0


def _cmd_census(args, parser):
    kinds = []
    for chunk in args.kind:
        kinds.extend(_kind(tok) for tok in chunk.split(","))
    spec = CensusSpec(
        n=args.n,
        domain=Domain.from_token(args.domain),
        kinds=tuple(kinds),
        flavor=args.flavor,
        source=args.input,
    )
    rows = run_census(spec, jobs=args.jobs)
    if args.format == "json":
        print(census_rows_to_json(rows))
    elif args.format == "text":
        for r in rows:
            print(
                f"kind={r.kind.value} flavor={r.flavor.value} n={r.n} "
                f"domain_size={r.domain_size} with_mate={r.with_mate} "
                f"uncertainty={r.uncertainty}"
            )
    else:
        print(census_rows_to_csv(rows))
    return 0


def _cmd_diff_paper(args, parser):
    sources = {}
    for item in args.graphs or []:
        n_text, _, pathname = item.partition("=")
        if not pathname or not n_text.strip().isdecimal():
            parser.error("--graphs expects N=FILE")
        sources[int(n_text)] = pathname
    results = diff_paper(max_n=args.max_n, sources=sources, jobs=args.jobs)
    failures = 0
    for r in results:
        c = r.cell
        status = "PASS" if r.ok else "FAIL"
        failures += not r.ok
        kind = c.kind.value if c.kind else "-"
        print(
            f"{status} table={c.table} row={c.row} kind={kind} "
            f"domain={c.domain.value} n={c.n} expected={c.value} got={r.actual}"
        )
    print(f"{len(results)} cells, {failures} mismatches")
    return 1 if failures else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cospec",
        description="Exact spectral and Smith-normal-form invariants of graph "
        "matrices, with cospectrality and coinvariance censuses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_input(p):
        p.add_argument("graph", nargs="?", help="graph6 literal")
        p.add_argument("--input", help="graph6 file, or - for stdin")

    p = sub.add_parser("matrix", help="print a graph matrix")
    p.add_argument("--kind", type=_kind, required=True)
    add_graph_input(p)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("charpoly", help="characteristic polynomial det(xI - M)")
    p.add_argument("--kind", type=_kind, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    add_graph_input(p)
    p.set_defaults(func=_cmd_polynomial, polynomial=charpoly)

    p = sub.add_parser("cof", help="cofactor-sum polynomial of xI - M")
    p.add_argument("--kind", type=_kind, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    add_graph_input(p)
    p.set_defaults(func=_cmd_polynomial, polynomial=cof_polynomial)

    p = sub.add_parser("snf", help="Smith normal form invariant factors")
    p.add_argument("--kind", type=_kind, required=True)
    add_graph_input(p)
    p.set_defaults(func=_cmd_snf)

    p = sub.add_parser("fingerprint", help="canonical equivalence-class key")
    p.add_argument("--kind", type=_kind, required=True)
    p.add_argument("--flavor", type=_flavor, required=True)
    p.add_argument("--describe", action="store_true", help="human-readable form")
    add_graph_input(p)
    p.set_defaults(func=_cmd_fingerprint)

    p = sub.add_parser("relate", help="test a pairwise relation")
    p.add_argument("--kind", type=_kind, required=True)
    p.add_argument("--flavor", type=_flavor, required=True)
    p.add_argument("graph_a")
    p.add_argument("graph_b")
    p.set_defaults(func=_cmd_relate)

    p = sub.add_parser("codet", help="Q[x] codeterminantality of xI - M")
    p.add_argument("--kind", type=_kind, required=True)
    p.add_argument("graph_a")
    p.add_argument("graph_b")
    p.set_defaults(func=_cmd_codet)

    p = sub.add_parser("closed-form", help="closed-form SNF chains")
    shapes = p.add_subparsers(dest="shape", required=True)
    ps = shapes.add_parser("star", help="star with given leaf count")
    ps.add_argument("--leaves", type=int, required=True)
    ps.set_defaults(func=_cmd_closed_form)
    pm = shapes.add_parser("multipartite", help="complete multipartite, equal parts")
    pm.add_argument("--parts", "-m", type=int, required=True)
    pm.add_argument("--size", "-s", type=int, required=True)
    pm.add_argument("--signless", action="store_true")
    pm.set_defaults(func=_cmd_closed_form)
    pt = shapes.add_parser("tree", help="tree SNF via 2-matching minors")
    add_graph_input(pt)
    pt.set_defaults(func=_cmd_closed_form)

    p = sub.add_parser("census", help="bucket graphs by fingerprint and count mates")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--kind", action="append", required=True, help="repeatable, comma-separable")
    p.add_argument("--flavor", type=_flavor, required=True)
    p.add_argument(
        "--input", help="graph6 file, or - for stdin (default: bundled generator)"
    )
    p.add_argument("--format", choices=("csv", "json", "text"), default="csv")
    p.add_argument("--jobs", type=int, default=None)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("diff-paper", help="recompute and diff the published tables")
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--graphs", action="append", metavar="N=FILE",
                   help="external graph6 file for vertex count N, - for stdin (repeatable)")
    p.add_argument("--jobs", type=int, default=None)
    p.set_defaults(func=_cmd_diff_paper)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except CospecError as exc:
        print(f"cospec: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"cospec: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"cospec: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

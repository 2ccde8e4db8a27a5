"""Command-line interface.

Every subcommand is a thin adapter over the library: it parses tokens,
calls the corresponding function, and prints its serialized value, so the
output is byte-identical to serializing the library call directly.

Exit codes: 0 success, 1 domain/input errors and unreadable files
(one-line diagnostic on stderr), among them a job count (--jobs or
COSPEC_JOBS) below 1; 2 usage errors, among them an unknown matrix kind,
flavor or domain, whose message lists the accepted tokens. diff-paper exits
1 when any expected cell mismatches, when --max-n selects no cell and when
a --graphs N names an n that no selected cell has; a repeated --graphs N is
a usage error.
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


_ROW_FIELDS = ("kind", "flavor", "n", "domain_size", "with_mate", "uncertainty")


def _row_values(row):
    """The _ROW_FIELDS of one census row, by name, as JSON values."""
    values = (row.kind.value, row.flavor.value, row.n, row.domain_size,
              row.with_mate, str(row.uncertainty))
    return dict(zip(_ROW_FIELDS, values))


def census_rows_to_csv(rows):
    lines = [",".join(_ROW_FIELDS)]
    lines += [",".join(str(v) for v in _row_values(r).values()) for r in rows]
    return "\n".join(lines)


def census_rows_to_json(rows):
    return json.dumps({"rows": [_row_values(r) for r in rows]})


def census_rows_to_text(rows):
    return "\n".join(" ".join(f"{k}={v}" for k, v in _row_values(r).items()) for r in rows)


_CENSUS_FORMATS = {"csv": census_rows_to_csv, "json": census_rows_to_json,
                   "text": census_rows_to_text}


def _token(enum, comma_list=False):
    """argparse type for an enum token, or for a comma-separated list of
    them; an unknown token is a usage error."""

    def parse(text):
        try:
            if comma_list:
                return [enum.from_token(t) for t in text.split(",")]
            return enum.from_token(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


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
    spec = CensusSpec(
        n=args.n,
        domain=args.domain,
        kinds=tuple(args.kind),
        flavor=args.flavor,
        source=args.input,
    )
    print(_CENSUS_FORMATS[args.format](run_census(spec, jobs=args.jobs)))
    return 0


def _cmd_diff_paper(args, parser):
    sources = {}
    for item in args.graphs or []:
        n_text, _, pathname = item.partition("=")
        if not pathname or not n_text.strip().isdecimal():
            parser.error("--graphs expects N=FILE")
        n = int(n_text)
        if n in sources:
            parser.error(f"--graphs names n = {n} more than once")
        sources[n] = pathname
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
    kind, flavor = _token(MatrixKind), _token(Flavor)

    def add_graph_input(p):
        p.add_argument("graph", nargs="?", help="graph6 literal")
        p.add_argument("--input", help="graph6 file, or - for stdin")

    p = sub.add_parser("matrix", help="print a graph matrix")
    p.add_argument("--kind", type=kind, required=True)
    add_graph_input(p)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("charpoly", help="characteristic polynomial det(xI - M)")
    p.add_argument("--kind", type=kind, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    add_graph_input(p)
    p.set_defaults(func=_cmd_polynomial, polynomial=charpoly)

    p = sub.add_parser("cof", help="cofactor-sum polynomial of xI - M")
    p.add_argument("--kind", type=kind, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    add_graph_input(p)
    p.set_defaults(func=_cmd_polynomial, polynomial=cof_polynomial)

    p = sub.add_parser("snf", help="Smith normal form invariant factors")
    p.add_argument("--kind", type=kind, required=True)
    add_graph_input(p)
    p.set_defaults(func=_cmd_snf)

    p = sub.add_parser("fingerprint", help="canonical equivalence-class key")
    p.add_argument("--kind", type=kind, required=True)
    p.add_argument("--flavor", type=flavor, required=True)
    p.add_argument("--describe", action="store_true", help="human-readable form")
    add_graph_input(p)
    p.set_defaults(func=_cmd_fingerprint)

    p = sub.add_parser("relate", help="test a pairwise relation")
    p.add_argument("--kind", type=kind, required=True)
    p.add_argument("--flavor", type=flavor, required=True)
    p.add_argument("graph_a")
    p.add_argument("graph_b")
    p.set_defaults(func=_cmd_relate)

    p = sub.add_parser("codet", help="Q[x] codeterminantality of xI - M")
    p.add_argument("--kind", type=kind, required=True)
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
    p.add_argument("--domain", type=_token(Domain), required=True)
    p.add_argument("--kind", type=_token(MatrixKind, comma_list=True), action="extend",
                   required=True, help="repeatable, comma-separable")
    p.add_argument("--flavor", type=flavor, required=True)
    p.add_argument(
        "--input", help="graph6 file, or - for stdin (default: bundled generator)"
    )
    p.add_argument("--format", choices=tuple(_CENSUS_FORMATS), default="csv")
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
    except (CospecError, ValueError) as exc:
        print(f"cospec: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"cospec: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

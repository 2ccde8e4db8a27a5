"""Command-line interface.

Every subcommand is a thin adapter over the library: it parses tokens,
calls the corresponding function, and prints its serialized value, so the
output is byte-identical to serializing the library call directly.

Each subcommand's parser stores what it prints as data, and one function
runs every subcommand of a shape. The per-graph commands (matrix,
charpoly, cof, snf, fingerprint, closed-form tree) store a renderer
text(args, g); _cmd_each_graph prints it for a graph6 literal, or for each
graph of --input FILE or --input - (stdin), after parsing every line of
the input. The pair commands (relate, codet) take two graph6 literals and
store a relation(args, g, h), a call of invariants.related or
invariants.is_codeterminantal_Qx; _cmd_pair parses the two literals,
naming the first or second graph in an error as the relation does, and
prints the relation's value as true or false.

Exit codes: 0 success, 1 domain/input errors and unreadable files
(one-line diagnostic on stderr), among them a --jobs below 1, a census
--n outside [2, 64] and a closed form of more than 64 vertices; census and
diff-paper name the first bad line of their input at any --jobs. 2 usage
errors, among them an unknown matrix kind, flavor or domain, whose message
lists the accepted tokens, and an empty --input; a usage error prints the
usage of its subcommand and names it.
diff-paper exits 1 when any expected cell mismatches, when --max-n selects
no cell, when a --graphs N names an n that no selected cell has, when a
selected n above the bundled generator's bound has no --graphs N and when
more than one --graphs N reads stdin; a repeated --graphs N is a usage
error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .census import CensusSpec, Domain, diff_paper, run_census
from .closed_forms import TreeData, multipartite_snf, star_snf, tree_snf
from .errors import CospecError, at_line, pair_map
from .graphs import _read_lines, iter_graph6_lines, parse_graph6
from .intlinalg import charpoly_coeffs, cof_coeffs, format_factors, smith_normal_form
from .invariants import (Flavor, describe_fingerprint, fingerprint, is_codeterminantal_Qx,
                          related)
from .matrices import MatrixKind, build_matrix
from .polynomials import pstr


def format_matrix(m):
    return "\n".join(" ".join(str(v) for v in row) for row in m)


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


def _cmd_each_graph(args):
    """Print args.text(args, g) for the graph6 literal, or for each graph of
    --input.

    Every line of --input is parsed before anything is printed. An error
    that text raises for a graph of --input names its line, as parse errors
    do, and keeps its type.
    """
    if args.graph is not None and args.input:
        args.usage_error("give a graph6 literal or --input, not both")
    if args.graph is not None:
        print(args.text(args, parse_graph6(args.graph)))
        return 0
    if not args.input:
        args.usage_error("a graph6 literal or --input FILE is required")
    for lineno, g in list(iter_graph6_lines(_read_lines(args.input))):
        try:
            out = args.text(args, g)
        except (CospecError, ValueError) as exc:
            raise at_line(exc, lineno) from exc
        print(out)
    return 0


def _polynomial_text(args, g):
    coeffs = args.polynomial(build_matrix(g, args.kind))
    return json.dumps({"coeffs": list(coeffs)}) if args.format == "json" else pstr(coeffs)


def _fingerprint_text(args, g):
    if args.describe:
        return describe_fingerprint(g, args.kind, args.flavor)
    return fingerprint(g, args.kind, args.flavor).hex()


def _cmd_pair(args):
    """Print whether the two graph6 literals stand in args.relation(args, g, h).

    A literal that does not parse is named as the first or second graph,
    as the relation names a graph whose value raises."""
    g, h = pair_map(parse_graph6, args.graph_a, args.graph_b)
    print(format_bool(args.relation(args, g, h)))
    return 0


def _cmd_closed_form(args):
    print(format_factors(args.factors(args)))
    return 0


def _cmd_census(args):
    if args.input == "":
        args.usage_error("--input needs a graph6 file, or - for stdin")
    spec = CensusSpec(
        n=args.n,
        domain=args.domain,
        kinds=tuple(args.kind),
        flavor=args.flavor,
        source=args.input,
    )
    print(_CENSUS_FORMATS[args.format](run_census(spec, jobs=args.jobs)))
    return 0


def _cmd_diff_paper(args):
    sources = {}
    for item in args.graphs or []:
        n_text, _, pathname = item.partition("=")
        if not pathname or not n_text.strip().isdecimal():
            args.usage_error("--graphs expects N=FILE")
        n = int(n_text)
        if n in sources:
            args.usage_error(f"--graphs names n = {n} more than once")
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

    def add_kind(name, summary, with_flavor=False):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--kind", type=kind, required=True)
        if with_flavor:
            p.add_argument("--flavor", type=flavor, required=True)
        return p

    def add_graph_input(p, text):
        p.add_argument("graph", nargs="?", help="graph6 literal")
        p.add_argument("--input", help="graph6 file, or - for stdin")
        p.set_defaults(func=_cmd_each_graph, text=text, usage_error=p.error)

    def add_pair(p, relation):
        p.add_argument("graph_a")
        p.add_argument("graph_b")
        p.set_defaults(func=_cmd_pair, relation=relation)

    add_graph_input(add_kind("matrix", "print a graph matrix"),
                    lambda a, g: format_matrix(build_matrix(g, a.kind)))
    for name, summary, polynomial in (
        ("charpoly", "characteristic polynomial det(xI - M)", charpoly_coeffs),
        ("cof", "cofactor-sum polynomial of xI - M", cof_coeffs),
    ):
        p = add_kind(name, summary)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(polynomial=polynomial)
        add_graph_input(p, _polynomial_text)
    add_graph_input(add_kind("snf", "Smith normal form invariant factors"),
                    lambda a, g: format_factors(smith_normal_form(build_matrix(g, a.kind))))
    p = add_kind("fingerprint", "canonical equivalence-class key", with_flavor=True)
    p.add_argument("--describe", action="store_true", help="human-readable form")
    add_graph_input(p, _fingerprint_text)
    add_pair(add_kind("relate", "test a pairwise relation", with_flavor=True),
             lambda a, g, h: related(g, h, a.kind, a.flavor))
    add_pair(add_kind("codet", "Q[x] codeterminantality of xI - M"),
             lambda a, g, h: is_codeterminantal_Qx(g, h, a.kind))

    p = sub.add_parser("closed-form", help="closed-form SNF chains")
    shapes = p.add_subparsers(dest="shape", required=True)
    ps = shapes.add_parser("star", help="star with given leaf count")
    ps.add_argument("--leaves", type=int, required=True)
    ps.set_defaults(func=_cmd_closed_form, factors=lambda a: star_snf(a.leaves))
    pm = shapes.add_parser("multipartite", help="complete multipartite, equal parts")
    pm.add_argument("--parts", "-m", type=int, required=True)
    pm.add_argument("--size", "-s", type=int, required=True)
    pm.add_argument("--signless", action="store_true")
    pm.set_defaults(func=_cmd_closed_form,
                    factors=lambda a: multipartite_snf(a.parts, a.size, a.signless))
    add_graph_input(shapes.add_parser("tree", help="tree SNF via 2-matching minors"),
                    lambda a, g: format_factors(tree_snf(TreeData.from_graph(g))))

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
    p.set_defaults(func=_cmd_census, usage_error=p.error)

    p = sub.add_parser("diff-paper", help="recompute and diff the published tables")
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--graphs", action="append", metavar="N=FILE",
                   help="external graph6 file for vertex count N, - for stdin "
                   "(repeatable; stdin for one N only)")
    p.add_argument("--jobs", type=int, default=None)
    p.set_defaults(func=_cmd_diff_paper, usage_error=p.error)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CospecError, ValueError) as exc:
        print(f"cospec: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"cospec: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

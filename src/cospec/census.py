"""Streaming census engine over graph6 sources.

Graphs are bucketed by exact fingerprint byte keys; a graph "has a mate"
when its bucket holds at least two graphs, so with_mate is the sum of the
sizes of all buckets of size >= 2. Buckets store counts only, never whole
graphs or line numbers, and merging count maps is commutative, so results
do not depend on input order or worker count.
"""

from __future__ import annotations

import os
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import islice
from multiprocessing import Pool

from .errors import CensusInputError, ConsistencyError, Graph6ParseError
from .graphs import (
    GENERATOR_MAX_N,
    _data_lines,
    _open_source,
    _read_lines,
    complement,
    connected_graph6_lines,
    distance_data,
    parse_graph6,
)
# cof_coeffs stays a census attribute for tools that patch the block
# functions here, though the sweep builds the cof block from its charpoly
from .intlinalg import charpoly_coeffs, cof_coeffs, snf_diagonal
from .invariants import Flavor, _Blocks, compose_key
from .matrices import MatrixKind, TokenEnum, build_matrix


class Domain(TokenEnum):
    CONNECTED = "connected"
    CONNECTED_COMPLEMENT = "connected-with-connected-complement"
    DIAM2_PAIR = "diam2-pair"


@dataclass(frozen=True)
class CensusTask:
    kind: MatrixKind
    flavor: Flavor
    domain: Domain

    def __post_init__(self):
        if (
            self.kind.requires_connected
            and self.flavor.uses_complement
            and self.domain is Domain.CONNECTED
        ):
            raise ValueError(
                f"generalized {self.kind.value!r} fingerprints need connected "
                f"complements; use domain {Domain.CONNECTED_COMPLEMENT.value!r} or "
                f"{Domain.DIAM2_PAIR.value!r}"
            )


@dataclass(frozen=True)
class CensusSpec:
    """One census request: bucket the domain graphs of every listed kind
    under the given flavor."""

    n: int
    domain: Domain
    kinds: tuple
    flavor: Flavor
    source: str = None  # graph6 file path, '-' = stdin; None = bundled generator

    def __post_init__(self):
        object.__setattr__(self, "kinds", tuple(self.kinds))
        if self.n < 2:
            raise ValueError(f"census needs n >= 2 (got {self.n})")
        if not self.kinds:
            raise ValueError("census needs at least one matrix kind")
        self.tasks()  # each CensusTask checks its (kind, flavor, domain)

    def tasks(self):
        return [CensusTask(kind, self.flavor, self.domain) for kind in self.kinds]


@dataclass(frozen=True)
class CensusRow:
    """Bucket counts of one (kind, flavor, domain) task over the n-vertex
    graphs of its domain; with_mate and uncertainty derive from them."""

    task: CensusTask
    n: int
    domain_size: int
    buckets: Counter = field(repr=False, hash=False)

    @property
    def kind(self):
        return self.task.kind

    @property
    def flavor(self):
        return self.task.flavor

    @property
    def with_mate(self):
        return sum(c for c in self.buckets.values() if c >= 2)

    @property
    def uncertainty(self):
        return Fraction(self.with_mate, self.domain_size or 1)


# ---------------------------------------------------------------------------
# per-graph fingerprint computation shared by all tasks of a sweep


def _graph_task_keys(n, tasks, fns, lineno, line):
    """(task_index, key) pairs plus domain membership flags for one line."""
    try:
        g = parse_graph6(line)
    except Graph6ParseError as exc:
        raise exc.at_line(lineno) from exc
    if g.n != n:
        raise CensusInputError(f"expected {n} vertices, got {g.n}", lineno=lineno)
    dd = distance_data(g)
    if not dd.connected:
        return None  # outside every census domain
    cg = complement(g)
    cdd = distance_data(cg)
    member = {
        Domain.CONNECTED: True,
        Domain.CONNECTED_COMPLEMENT: cdd.connected,
        Domain.DIAM2_PAIR: cdd.connected
        and dd.diameter == 2
        and cdd.diameter == 2,
    }
    blocks = _Blocks(((g, dd), (cg, cdd)), *fns)
    out = []
    for ti, task in enumerate(tasks):
        if member[task.domain]:
            kind = task.kind
            ints = [blocks.block(op, kind, side) for op, side in task.flavor.components]
            out.append((ti, compose_key(kind, task.flavor, ints)))
    return member, out


def _sweep_chunk(n, tasks, chunk):
    """Domain sizes and per-task key counts of one chunk of (lineno, line)."""
    # read from the module at call time, so that patched attributes apply
    fns = (build_matrix, charpoly_coeffs, snf_diagonal)
    counters = [Counter() for _ in tasks]
    sizes = {d: 0 for d in Domain}
    for lineno, line in chunk:
        res = _graph_task_keys(n, tasks, fns, lineno, line)
        if res is None:
            continue
        member, keys = res
        for d in Domain:
            if member[d]:
                sizes[d] += 1
        for ti, key in keys:
            counters[ti][key] += 1
    return sizes, counters


def default_jobs():
    env = os.environ.get("COSPEC_JOBS")
    if env:
        try:
            jobs = int(env)
        except ValueError:
            jobs = 0
        if jobs < 1:
            raise ValueError(f"COSPEC_JOBS must be a positive integer (got {env!r})")
        return jobs
    return os.cpu_count() or 1


def sweep(n, tasks, lines, jobs=None):
    """Run every task over a sequence of graph6 lines in one pass.

    Returns (list of CensusRow aligned with tasks, domain size dict).
    """
    tasks = list(tasks)
    if jobs is None:
        jobs = default_jobs()
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1 (got {jobs})")
    if jobs > 1:
        chunk_size = max(1, min(250, (len(lines) + 2 * jobs - 1) // (2 * jobs)))
    else:
        chunk_size = 250
    numbered = _data_lines(lines)
    chunks = iter(lambda: list(islice(numbered, chunk_size)), [])
    work = partial(_sweep_chunk, n, tasks)
    buckets = [Counter() for _ in tasks]
    sizes = {d: 0 for d in Domain}
    with Pool(jobs) if jobs > 1 and len(lines) > chunk_size else nullcontext() as pool:
        for chunk_sizes, counters in (
            pool.imap_unordered(work, chunks) if pool else map(work, chunks)
        ):
            for d, v in chunk_sizes.items():
                sizes[d] += v
            for total, counter in zip(buckets, counters):
                total.update(counter)
    rows = [CensusRow(t, n, sizes[t.domain], b) for t, b in zip(tasks, buckets)]
    for row in rows:
        bucketed = sum(row.buckets.values())
        if bucketed != row.domain_size:
            raise ConsistencyError(
                f"task {row.kind.value}/{row.flavor.value}: buckets hold "
                f"{bucketed} graphs, domain {row.task.domain.value} has {row.domain_size}"
            )
    return rows, sizes


def _source_lines(n, source):
    """The bundled generator's lines for source None, else the file's ('-' = stdin)."""
    return connected_graph6_lines(n) if source is None else _read_lines(source)


def source_lines(spec):
    """Resolve the graph6 lines for a census spec."""
    return _source_lines(spec.n, spec.source)


def run_census(spec, lines=None, jobs=None):
    """Execute a census and return one CensusRow per kind."""
    if lines is None:
        lines = source_lines(spec)
    return sweep(spec.n, spec.tasks(), lines, jobs=jobs)[0]


# ---------------------------------------------------------------------------
# the published reference tables


@dataclass(frozen=True)
class ExpectedCell:
    table: int
    row: str  # "domain-size" | "gin" | "gsp"
    kind: MatrixKind  # None for domain-size rows
    flavor: Flavor  # None for domain-size rows
    domain: Domain
    n: int
    value: int
    long_running: bool


_K = MatrixKind
_GENERAL_NS = (4, 5, 6, 7, 8, 9, 10)
_DIAM2_NS = (6, 7, 8, 9, 10, 11)

_SIZES_CONNECTED = (6, 21, 112, 853, 11117, 261080, 11716571)
_SIZES_CC = (1, 8, 68, 662, 9888, 247492, 11427974)
_SIZES_DIAM2 = (2, 18, 218, 6069, 364270, 44343606)

_TABLE1_GIN = {
    _K.ADJACENCY: (0, 12, 95, 830, 11079, 261021, 11716497),
    _K.LAPLACIAN: (0, 0, 0, 14, 886, 22124, 950291),
    _K.SIGNLESS_LAPLACIAN: (0, 2, 42, 122, 1000, 10467, 450816),
    _K.DISTANCE: (0, 0, 12, 340, 7467, 232611, 11316322),
    _K.DISTANCE_LAPLACIAN: (0, 0, 0, 0, 45, 2114, 185406),
    _K.SIGNLESS_DISTANCE_LAPLACIAN: (0, 0, 0, 0, 18, 891, 78208),
    _K.TRANSMISSION_ADJACENCY: (0, 0, 0, 0, 32, 616, 87841),
    _K.SIGNLESS_TRANSMISSION_ADJACENCY: (0, 0, 0, 0, 36, 2206, 179094),
    _K.DEGREE_DISTANCE: (0, 0, 0, 0, 48, 964, 98588),
    _K.SIGNLESS_DEGREE_DISTANCE: (0, 3, 4, 34, 500, 7915, 427394),
}

_TABLE2_GSP = {
    _K.ADJACENCY: (0, 0, 0, 32, 1042, 41212, 2338933),
    _K.LAPLACIAN: (0, 0, 4, 115, 1611, 40560, 1367215),
    _K.SIGNLESS_LAPLACIAN: (0, 2, 10, 80, 998, 17453, 613954),
    _K.DISTANCE: (0, 0, 0, 0, 48, 3480, 276328),
    _K.DISTANCE_LAPLACIAN: (0, 0, 0, 0, 105, 4118, 245140),
    _K.SIGNLESS_DISTANCE_LAPLACIAN: (0, 0, 0, 4, 86, 1519, 95296),
    _K.TRANSMISSION_ADJACENCY: (0, 0, 0, 4, 56, 1212, 75364),
    _K.SIGNLESS_TRANSMISSION_ADJACENCY: (0, 0, 0, 0, 105, 3624, 232962),
    _K.DEGREE_DISTANCE: (0, 0, 0, 4, 76, 2370, 124866),
    _K.SIGNLESS_DEGREE_DISTANCE: (0, 0, 0, 24, 413, 11536, 445738),
}

_TABLE3_GSP = {
    _K.ADJACENCY: (0, 0, 0, 420, 48992, 6935002),
    _K.LAPLACIAN: (0, 0, 23, 952, 60884, 4849676),
    _K.SIGNLESS_LAPLACIAN: (0, 0, 2, 212, 20710, 1918758),
}

_TABLE3_GIN = {
    _K.ADJACENCY: (0, 10, 163, 5918, 363834, 44342414),
    _K.LAPLACIAN: (0, 0, 9, 382, 45250, 2466748),
    _K.SIGNLESS_LAPLACIAN: (0, 0, 0, 84, 18760, 902038),
}

_TABLE4_GIN = {
    _K.DISTANCE: (0, 4, 126, 5206, 353826, 44245420),
    _K.DISTANCE_LAPLACIAN: (0, 0, 9, 428, 45186, 2615994),
    _K.SIGNLESS_DISTANCE_LAPLACIAN: (0, 0, 0, 84, 19048, 932632),
    _K.DEGREE_DISTANCE: (0, 0, 0, 96, 19280, 953406),
    _K.SIGNLESS_DEGREE_DISTANCE: (0, 0, 110, 1523, 116854, 3495822),
    _K.TRANSMISSION_ADJACENCY: (0, 0, 0, 84, 18872, 945612),
    _K.SIGNLESS_TRANSMISSION_ADJACENCY: (0, 0, 8, 492, 45544, 2463526),
}


def _general_domain(kind):
    return Domain.CONNECTED_COMPLEMENT if kind.requires_connected else Domain.CONNECTED


def expected_tables():
    """Every published table cell as a machine-readable record."""
    cells = []

    def add(table, row, kind, flavor, domain, n, value, long_n):
        cells.append(
            ExpectedCell(table, row, kind, flavor, domain, n, value, n >= long_n)
        )

    for i, n in enumerate(_GENERAL_NS):
        for table in (1, 2):
            add(table, "domain-size", None, None, Domain.CONNECTED, n, _SIZES_CONNECTED[i], 9)
            add(table, "domain-size", None, None, Domain.CONNECTED_COMPLEMENT, n, _SIZES_CC[i], 9)
        for kind, values in _TABLE1_GIN.items():
            add(1, "gin", kind, Flavor.GEN_INVARIANT, _general_domain(kind), n, values[i], 9)
        for kind, values in _TABLE2_GSP.items():
            add(2, "gsp", kind, Flavor.GEN_SPECTRAL, _general_domain(kind), n, values[i], 9)
    for i, n in enumerate(_DIAM2_NS):
        add(3, "domain-size", None, None, Domain.DIAM2_PAIR, n, _SIZES_DIAM2[i], 10)
        for kind, values in _TABLE3_GSP.items():
            add(3, "gsp", kind, Flavor.GEN_SPECTRAL, Domain.DIAM2_PAIR, n, values[i], 10)
        for kind, values in _TABLE3_GIN.items():
            add(3, "gin", kind, Flavor.GEN_INVARIANT, Domain.DIAM2_PAIR, n, values[i], 10)
        for kind, values in _TABLE4_GIN.items():
            add(4, "gin", kind, Flavor.GEN_INVARIANT, Domain.DIAM2_PAIR, n, values[i], 10)
    return tuple(cells)


@dataclass(frozen=True)
class DiffResult:
    cell: ExpectedCell
    actual: int
    ok: bool


def diff_paper(max_n=8, sources=None, jobs=None):
    """Recompute every runnable expected cell and diff it against the
    published reference value.

    Cells with n above the bundled generator bound run only when sources
    maps that n to a graph6 file path ('-' = stdin). Raises ValueError when
    no cell has n <= max_n, or when sources names an n that no such cell
    has, so a bound or a source that checks nothing is never a pass.
    """
    sources = sources or {}
    cells = [c for c in expected_tables() if c.n <= max_n]
    if not cells:
        raise ValueError(f"no table cell has n <= {max_n} (the smallest is n = {_GENERAL_NS[0]})")
    unused = sorted(sources.keys() - {c.n for c in cells})
    if unused:
        raise ValueError(f"no table cell with n <= {max_n} uses the source for n = {unused[0]}")
    by_n = {}
    for cell in cells:
        if cell.n <= GENERATOR_MAX_N or cell.n in sources:
            by_n.setdefault(cell.n, []).append(cell)
    for pathname in sources.values():
        with _open_source(pathname):  # fail now, not after the smaller n
            pass
    out = []
    for n in sorted(by_n):
        group = by_n[n]
        tasks = dict.fromkeys(
            CensusTask(c.kind, c.flavor, c.domain) for c in group if c.row != "domain-size"
        )
        rows, sizes = sweep(n, tasks, _source_lines(n, sources.get(n)), jobs=jobs)
        by_task = {r.task: r for r in rows}
        for cell in group:
            if cell.row == "domain-size":
                actual = sizes[cell.domain]
            else:
                actual = by_task[CensusTask(cell.kind, cell.flavor, cell.domain)].with_mate
            out.append(DiffResult(cell, actual, actual == cell.value))
    return out

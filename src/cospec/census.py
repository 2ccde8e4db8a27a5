"""Census engine over graph6 sources.

Each data line is one unit of work, sent to the workers in batches, at
most two per worker in flight, so that a bad line stops the sweep soon
after it is read; the main process adds each line's domain flags and keys
to the totals once, taking the line results in input order. Graphs are
bucketed by exact fingerprint byte keys; a graph "has a mate" when its
bucket holds at least two graphs, so with_mate is the sum of the sizes of
all buckets of size >= 2. Merging count maps is commutative, so rows do
not depend on input order or worker count; neither does a diagnostic,
which names the first bad line of the input at any worker count.

A sweep makes two passes over the input through one worker Pool and one
worker function, _line_keys. An SNF task is deferred when, for each of its
SNF sides, a task of the same kind computes that side's charpoly block, on
any domain. In the first pass a deferred task keys each graph by
snf_prefix, read off those charpoly blocks, and the merge keeps one
pending line number per prefix, not a bucket. Equal SNF keys have equal
prefixes, so a graph alone in its prefix class is alone in its SNF bucket,
and keeps the prefix as its key: when the first pass ends, each prefix
still held by one line enters the buckets with count 1, and the pending
line numbers are released. When a second graph brings a prefix, both
lines are marked with it, and a third or later graph marks its own line;
the marks are all that the second pass reads of the first. It parses each
marked line once more, computes the SNF blocks its marked tasks need,
reads the prefix off them again, raises ConsistencyError if it is not the
marked one, and buckets the full keys; there a distance kind's matrix
computes the distance data. In either pass an SNF block that is not a
divisibility chain d_1 | d_2 | ... is a ConsistencyError too. Buckets hold
counts only, never whole graphs; the marks are dropped when the sweep
returns.

The first pass also derives some charpoly blocks from others instead of
computing them from their matrix (invariants._Blocks): side 1's l block
from side 0's, and a distance kind's block on a side of diameter <= 2,
where the matrix is alpha*I + beta*J + sign*B for B = a, l or q
(matrices.diameter2_form). A block is derived exactly when the line has
already computed its base blocks, so a census never computes a block only
to derive another; the tasks of the base kinds are keyed first, in an
order the sweep fixes once. Each derived block must pass the charpoly
trace identities, or the line fails with a ConsistencyError; rows are the
same with derivation on and off.

This module builds no key bytes: invariants.compose_key builds the full
keys and invariants.snf_prefix the prefix keys, with one encoder. A prefix
starts with "P", which no full key holds, so the two never meet in a
bucket.

The records here are typing.NamedTuples; CensusTask and CensusSpec check
their fields in __new__, which _replace and unpickling go through too.
multiprocessing is imported by Pool, at the first sweep with two or more
workers, and fractions by CensusRow.uncertainty, so that importing this
module loads neither.
"""

from __future__ import annotations

import os
from collections import Counter, deque
from contextlib import nullcontext
from functools import partial
from itertools import islice
from typing import NamedTuple

from .errors import CensusInputError, ConsistencyError, CospecError, _prefixed, at_line
from .graphs import (
    GENERATOR_MAX_N,
    MAX_VERTICES,
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
from .invariants import (Flavor, _Blocks, _charpoly_side, _snf_side, check_snf_chains,
                         compose_key, snf_prefix)
from .matrices import DISTANCE_KINDS, MatrixKind, TokenEnum, build_matrix


class Domain(TokenEnum):
    CONNECTED = "connected"
    CONNECTED_COMPLEMENT = "connected-with-connected-complement"
    DIAM2_PAIR = "diam2-pair"


class _TaskFields(NamedTuple):
    kind: MatrixKind
    flavor: Flavor
    domain: Domain


class CensusTask(_TaskFields):
    """One (kind, flavor, domain) census cell; checked in __new__, which
    _make, _replace and unpickling go through too."""

    __slots__ = ()

    def __new__(cls, kind, flavor, domain):
        if kind.requires_connected and flavor.uses_complement and domain is Domain.CONNECTED:
            raise ValueError(
                f"generalized {kind.value!r} fingerprints need connected "
                f"complements; use domain {Domain.CONNECTED_COMPLEMENT.value!r} or "
                f"{Domain.DIAM2_PAIR.value!r}"
            )
        return super().__new__(cls, kind, flavor, domain)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _SpecFields(NamedTuple):
    n: int
    domain: Domain
    kinds: tuple
    flavor: Flavor
    source: str = None  # graph6 file path, '-' = stdin; None = bundled generator


class CensusSpec(_SpecFields):
    """One census request: bucket the domain graphs of every listed kind
    under the given flavor. Checked in __new__, like CensusTask."""

    __slots__ = ()

    def __new__(cls, n, domain, kinds, flavor, source=None):
        self = super().__new__(cls, n, domain, tuple(kinds), flavor, source)
        if not 2 <= n <= MAX_VERTICES:
            raise ValueError(f"census needs 2 <= n <= {MAX_VERTICES} (got {n})")
        if not self.kinds:
            raise ValueError("census needs at least one matrix kind")
        self.tasks()  # each CensusTask checks its (kind, flavor, domain)
        for i, kind in enumerate(self.kinds):
            if kind in self.kinds[:i]:
                raise ValueError(f"census names kind {kind.value!r} more than once")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def tasks(self):
        return [CensusTask(kind, self.flavor, self.domain) for kind in self.kinds]


class CensusRow(NamedTuple):
    """Bucket counts of one (kind, flavor, domain) task over the n-vertex
    graphs of its domain; with_mate and uncertainty derive from them.

    buckets counts the graphs per full fingerprint, except that a graph
    alone in its prefix class of a deferred SNF task (see sweep) is counted
    under its prefix key, b"P...", which enters the buckets when the first
    pass ends; such a graph is alone in its fingerprint bucket too, so
    with_mate and len(buckets) are those of the full fingerprints.
    buckets is compared, but kept out of hash and repr."""

    task: CensusTask
    n: int
    domain_size: int
    buckets: Counter

    def __hash__(self):
        return hash(self[:3])

    def __repr__(self):
        return f"CensusRow(task={self.task!r}, n={self.n!r}, domain_size={self.domain_size!r})"

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
        from fractions import Fraction

        return Fraction(self.with_mate, self.domain_size or 1)


def Pool(processes):
    """multiprocessing.Pool(processes), imported at the first sweep with two
    or more workers, so that a serial run never loads multiprocessing."""
    import multiprocessing

    return multiprocessing.Pool(processes)


# ---------------------------------------------------------------------------
# per-graph fingerprint computation shared by all tasks of a sweep


def _deferred_tasks(tasks):
    """Indices of the SNF tasks whose first-pass key is snf_prefix: those
    where, for each SNF side, a task of the same kind computes that side's
    charpoly block. Only the task list is read; a deferred task computes
    those blocks itself for the graphs of its domain outside theirs."""
    charpoly = {(t.kind, side) for t in tasks for op, side in t.flavor.components
                if op == "charpoly"}
    out = set()
    for ti, t in enumerate(tasks):
        snf = {(t.kind, side) for op, side in t.flavor.components if op == "snf"}
        if snf and snf <= charpoly:
            out.add(ti)
    return frozenset(out)


def _line_keys(n, tasks, deferred, item):
    """The keys of one (lineno, line, indices) item, in either pass.

    First pass (indices None): None for a disconnected line, which is
    outside every domain, else the domain membership flags and the
    (task_index, key) pairs of the tasks whose domain holds the graph, the
    key of a deferred task being the snf_prefix read off its charpolys.
    The complement's BFS runs only for a connected line. tasks maps each
    task index to its task, in the order the first pass keys them.

    Second pass (indices the (task_index, prefix) pairs of the deferred
    tasks whose prefixes collided): the (task_index, full key) pairs, after
    the prefix read off the SNF blocks just computed is checked against the
    first pass's. No BFS runs here but a distance kind's, in build_matrix.
    In either pass each SNF block of a full key must be a divisibility
    chain, by the rule of intlinalg.chain_error (invariants.check_snf_chains).

    A CospecError raised for the line names it."""
    lineno, line, indices = item
    try:
        g = parse_graph6(line)
        if g.n != n:
            raise CensusInputError(f"expected {n} vertices, got {g.n}")
        cg = complement(g)
        member = None
        if indices is None:
            dd = distance_data(g)
            if not dd.connected:
                return None
            cdd = distance_data(cg)
            member = {
                Domain.CONNECTED: True,
                Domain.CONNECTED_COMPLEMENT: cdd.connected,
                Domain.DIAM2_PAIR: cdd.connected and dd.diameter == 2 and cdd.diameter == 2,
            }
            indices = [(ti, None) for ti, task in tasks.items() if member[task.domain]]
        # the block functions are read from this module per line, so that
        # patched attributes apply
        blocks = _Blocks((g, cg), build_matrix, charpoly_coeffs, snf_diagonal)
        keys = []
        for ti, prefix in indices:
            task = tasks[ti]
            kind = task.kind
            if member is not None and ti in deferred:
                sides = [_charpoly_side(blocks.block("charpoly", kind, side))
                         for _, side in task.flavor.components]
                keys.append((ti, snf_prefix(kind, sides)))
            else:
                ints = [blocks.block(op, kind, side) for op, side in task.flavor.components]
                if prefix is not None:
                    got = snf_prefix(kind, [_snf_side(d) for d in ints])
                    if got != prefix:
                        raise ConsistencyError(
                            f"task {kind.value}/{task.flavor.value}: invariant factors give "
                            f"prefix {got.decode()}, charpolys gave {prefix.decode()}"
                        )
                check_snf_chains(kind, task.flavor, ints)
                keys.append((ti, compose_key(kind, task.flavor, ints)))
        return keys if member is None else (member, keys)
    except CospecError as exc:
        raise at_line(exc, lineno) from exc


def _job_count(jobs):
    """os.cpu_count() for None; below 1 is a ValueError. Resolved before any input is read."""
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1 (got {jobs})")
    return jobs


def _chunk_size(count, jobs):
    """Batches of at most 250 items, about two or more per worker."""
    return max(1, min(250, (count + 2 * jobs - 1) // (2 * jobs)))


def _map_batch(fn, batch):
    return [fn(item) for item in batch]


def _imap(pool, fn, items, size, window):
    """(item, fn(item)) over items in order: serially for pool None, else in
    batches of size items through the pool, at most window batches in
    flight. Once a batch raises, no further batch is sent, and the batches
    in flight are waited for before the error is raised again (as on any
    other exit): leaving the Pool while its workers are busy can kill one
    that holds the lock of the result pipe, and Pool.terminate then waits
    forever for its task thread."""
    if pool is None:
        for item in items:
            yield item, fn(item)
        return
    items = iter(items)
    func = partial(_map_batch, fn)
    sent = deque()

    def send():
        batch = list(islice(items, size))
        if batch:
            sent.append((batch, pool.apply_async(func, (batch,))))

    try:
        for _ in range(window):
            send()
        while sent:
            batch, result = sent.popleft()
            results = result.get()
            send()
            yield from zip(batch, results)
    finally:
        for _, result in sent:
            result.wait()  # errors after the first are dropped


def sweep(n, tasks, lines, jobs=None):
    """Run every task over a sequence of graph6 lines: one pass over every
    line, then one over the lines whose deferred SNF prefixes collided.

    Returns (list of CensusRow aligned with tasks, domain size dict).
    """
    tasks = list(tasks)
    jobs = _job_count(jobs)
    chunk_size = _chunk_size(len(lines), jobs)
    # never more workers than batches
    workers = min(jobs, (len(lines) + chunk_size - 1) // chunk_size)
    window = 2 * workers  # batches in flight: enough to keep every worker busy
    deferred = _deferred_tasks(tasks)
    buckets = [Counter() for _ in tasks]
    sizes = {d: 0 for d in Domain}
    # per deferred task, prefix -> line number of its one graph so far, or
    # None once a second graph has brought it; the prefixes still held by
    # one line enter the buckets when the first pass ends
    pending = {ti: {} for ti in deferred}
    marked = {}  # line number -> (deferred task index, prefix) pairs to refine
    # the tasks of the base kinds a, l and q are keyed first, so that a
    # distance kind's charpoly block is derived from their blocks where an
    # identity applies (invariants._Blocks), whatever the order of tasks
    order = dict(sorted(enumerate(tasks), key=lambda item: item[1].kind in DISTANCE_KINDS))
    work = partial(_line_keys, n, order, deferred)
    with Pool(workers) if workers > 1 else nullcontext() as pool:
        first = ((lineno, line, None) for lineno, line in _data_lines(lines))
        for (lineno, _, _), res in _imap(pool, work, first, chunk_size, window):
            if res is None:
                continue
            member, keys = res
            for d in Domain:
                if member[d]:
                    sizes[d] += 1
            for ti, key in keys:
                seen = pending.get(ti)
                if seen is None:
                    buckets[ti][key] += 1
                    continue
                other = seen.setdefault(key, lineno)
                if other != lineno:
                    if other is not None:
                        seen[key] = None
                        marked.setdefault(other, []).append((ti, key))
                    marked.setdefault(lineno, []).append((ti, key))
        for ti, seen in pending.items():
            buckets[ti].update(key for key, lineno in seen.items() if lineno is not None)
        pending = seen = None  # the second pass reads only the marks
        todo = ((lineno, line, marked[lineno]) for lineno, line in _data_lines(lines)
                if lineno in marked)
        for _, keys in _imap(pool, work, todo, _chunk_size(len(marked), jobs), window):
            for ti, key in keys:
                buckets[ti][key] += 1
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


def run_census(spec, jobs=None):
    """Execute a census over spec.source and return one CensusRow per kind."""
    jobs = _job_count(jobs)
    return sweep(spec.n, spec.tasks(), source_lines(spec), jobs=jobs)[0]


# ---------------------------------------------------------------------------
# the published reference tables


class ExpectedCell(NamedTuple):
    table: int
    row: str  # "domain-size" | "gin" | "gsp"
    kind: MatrixKind  # None for domain-size rows
    flavor: Flavor  # None for domain-size rows
    domain: Domain
    n: int
    value: int


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

    def add(*fields):
        cells.append(ExpectedCell(*fields))

    for i, n in enumerate(_GENERAL_NS):
        for table in (1, 2):
            add(table, "domain-size", None, None, Domain.CONNECTED, n, _SIZES_CONNECTED[i])
            add(table, "domain-size", None, None, Domain.CONNECTED_COMPLEMENT, n, _SIZES_CC[i])
        for kind, values in _TABLE1_GIN.items():
            add(1, "gin", kind, Flavor.GEN_INVARIANT, _general_domain(kind), n, values[i])
        for kind, values in _TABLE2_GSP.items():
            add(2, "gsp", kind, Flavor.GEN_SPECTRAL, _general_domain(kind), n, values[i])
    for i, n in enumerate(_DIAM2_NS):
        add(3, "domain-size", None, None, Domain.DIAM2_PAIR, n, _SIZES_DIAM2[i])
        for kind, values in _TABLE3_GSP.items():
            add(3, "gsp", kind, Flavor.GEN_SPECTRAL, Domain.DIAM2_PAIR, n, values[i])
        for kind, values in _TABLE3_GIN.items():
            add(3, "gin", kind, Flavor.GEN_INVARIANT, Domain.DIAM2_PAIR, n, values[i])
        for kind, values in _TABLE4_GIN.items():
            add(4, "gin", kind, Flavor.GEN_INVARIANT, Domain.DIAM2_PAIR, n, values[i])
    return tuple(cells)


class DiffResult(NamedTuple):
    cell: ExpectedCell
    actual: int
    ok: bool


def diff_paper(max_n=8, sources=None, jobs=None):
    """Recompute every expected cell with n <= max_n and diff it against the
    published reference value.

    Cells with n above the bundled generator bound need sources to map
    that n to a graph6 file path ('-' = stdin). Raises ValueError before
    any input is read when no cell has n <= max_n, when sources names an n
    that no such cell has, when such a cell has no source, or when more
    than one n reads stdin, so a run that skips a cell, a source that
    checks nothing or a sweep over used-up stdin is never a pass. A
    CospecError from a sweep names its source first: the file, 'stdin' for
    '-', or 'generator n = N' for the bundled generator.
    """
    jobs = _job_count(jobs)
    sources = sources or {}
    cells = [c for c in expected_tables() if c.n <= max_n]
    if not cells:
        raise ValueError(f"no table cell has n <= {max_n} (the smallest is n = {_GENERAL_NS[0]})")
    unused = sorted(sources.keys() - {c.n for c in cells})
    if unused:
        raise ValueError(f"no table cell with n <= {max_n} uses the source for n = {unused[0]}")
    missing = sorted({c.n for c in cells if c.n > GENERATOR_MAX_N} - sources.keys())
    if missing:
        raise ValueError(f"no source for the n = {missing[0]} cells; "
                         f"the bundled generator stops at n = {GENERATOR_MAX_N}")
    stdin_ns = sorted(n for n, pathname in sources.items() if pathname == "-")
    if len(stdin_ns) > 1:
        raise ValueError("stdin (-) can be the source of one n only "
                         f"(got n = {', '.join(map(str, stdin_ns))})")
    by_n = {}
    for cell in cells:
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
        pathname = sources.get(n)
        name = (f"generator n = {n}" if pathname is None
                else "stdin" if pathname == "-" else pathname)
        try:
            rows, sizes = sweep(n, tasks, _source_lines(n, pathname), jobs=jobs)
        except CospecError as exc:
            raise _prefixed(exc, f"{name}: ") from exc
        by_task = {r.task: r for r in rows}
        for cell in group:
            if cell.row == "domain-size":
                actual = sizes[cell.domain]
            else:
                actual = by_task[CensusTask(cell.kind, cell.flavor, cell.domain)].with_mate
            out.append(DiffResult(cell, actual, actual == cell.value))
    return out

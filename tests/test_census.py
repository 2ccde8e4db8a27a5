import io
import random
import types
from collections import Counter
from fractions import Fraction

import pytest

from cospec.census import (
    CensusSpec,
    CensusTask,
    Domain,
    diff_paper,
    expected_tables,
    run_census,
    sweep,
)
from cospec.errors import CensusInputError, ConsistencyError, Graph6ParseError
from cospec.graphs import connected_graph6_lines
from cospec.invariants import Flavor
from cospec.matrices import MatrixKind

K = MatrixKind
F = Flavor
D = Domain


def test_spec_validation():
    with pytest.raises(ValueError):
        CensusSpec(5, D.CONNECTED, (K.TRANSMISSION_ADJACENCY,), F.GEN_SPECTRAL)
    with pytest.raises(ValueError):
        CensusSpec(5, D.CONNECTED, (), F.SPECTRAL)
    with pytest.raises(ValueError):
        CensusSpec(1, D.CONNECTED, (K.ADJACENCY,), F.SPECTRAL)
    # no graph6 line holds more than 64 vertices
    with pytest.raises(ValueError, match=r"^census needs 2 <= n <= 64 \(got 65\)$"):
        CensusSpec(65, D.CONNECTED, (K.ADJACENCY,), F.SPECTRAL)
    CensusSpec(64, D.CONNECTED, (K.ADJACENCY,), F.SPECTRAL)
    # plain flavors for distance kinds are fine on the connected domain
    CensusSpec(5, D.CONNECTED, (K.DISTANCE,), F.SPECTRAL)


def test_spec_refuses_a_repeated_kind():
    # a repeated kind would print the same row twice
    kinds = (K.ADJACENCY, K.LAPLACIAN, K.ADJACENCY)
    with pytest.raises(ValueError, match="^census names kind 'a' more than once$"):
        CensusSpec(5, D.CONNECTED, kinds, F.SPECTRAL)


def test_domain_tokens():
    assert D.from_token("connected") is D.CONNECTED
    assert D.from_token("diam2-pair") is D.DIAM2_PAIR
    with pytest.raises(ValueError):
        D.from_token("everything")


def test_small_census_values():
    rows = run_census(CensusSpec(5, D.CONNECTED, (K.SIGNLESS_LAPLACIAN,), F.GEN_SPECTRAL))
    assert rows[0].domain_size == 21
    assert rows[0].with_mate == 2
    assert rows[0].uncertainty == Fraction(2, 21)

    rows = run_census(
        CensusSpec(5, D.CONNECTED_COMPLEMENT, (K.SIGNLESS_DEGREE_DISTANCE,), F.GEN_INVARIANT)
    )
    assert rows[0].domain_size == 8
    assert rows[0].with_mate == 3

    rows = run_census(CensusSpec(6, D.CONNECTED, (K.LAPLACIAN,), F.GEN_INVARIANT))
    assert rows[0].with_mate == 0


def test_census_row_fields():
    rows = run_census(CensusSpec(4, D.CONNECTED, (K.ADJACENCY, K.LAPLACIAN), F.SPECTRAL))
    assert [r.kind for r in rows] == [K.ADJACENCY, K.LAPLACIAN]
    for r in rows:
        assert r.n == 4 and r.domain_size == 6
        assert r.with_mate != 1  # a mate needs a bucket of size >= 2


def test_determinism_under_shuffle_and_jobs():
    lines = list(connected_graph6_lines(5))
    spec = CensusSpec(5, D.CONNECTED_COMPLEMENT, (K.DISTANCE, K.ADJACENCY), F.GEN_INVARIANT)
    base = sweep(spec.n, spec.tasks(), lines, 1)[0]
    shuffled = lines[:]
    random.Random(9).shuffle(shuffled)
    assert sweep(spec.n, spec.tasks(), shuffled, 1)[0] == base
    assert sweep(spec.n, spec.tasks(), shuffled, 2)[0] == base


def test_worker_pool_matches_serial_diam2():
    spec = CensusSpec(
        6,
        D.DIAM2_PAIR,
        (K.SIGNLESS_LAPLACIAN, K.TRANSMISSION_ADJACENCY),
        F.GEN_SPECTRAL,
    )
    serial = run_census(spec, jobs=1)
    pooled = run_census(spec, jobs=2)
    assert serial == pooled
    assert serial[0].domain_size == 2


def test_pool_never_has_more_workers_than_batches(monkeypatch):
    # a fake Pool that records its process count and maps serially: jobs 64
    # on the 21 lines at n = 5 makes 21 one-line batches, so 21 processes
    import cospec.census as census

    asked = []

    class SerialPool:
        def __init__(self, processes):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def apply_async(self, func, args):
            value = func(*args)
            return types.SimpleNamespace(get=lambda: value, wait=lambda: None)

    monkeypatch.setattr(census, "Pool", SerialPool)
    spec = CensusSpec(5, D.CONNECTED, (K.ADJACENCY, K.SIGNLESS_LAPLACIAN), F.GEN_INVARIANT)
    serial = run_census(spec, jobs=1)
    assert asked == []
    assert run_census(spec, jobs=64) == serial
    assert run_census(spec, jobs=2) == serial
    assert asked == [21, 2]


def _fails_on_zero(x):
    if x == 0:
        raise CensusInputError("zero")
    return x


def test_pool_error_is_raised_after_the_sent_batches():
    # once a batch raises, no further batch is sent, and every batch in
    # flight is taken before the error is raised, so no worker is busy
    # when the Pool is left
    from multiprocessing import Pool

    import cospec.census as census

    with Pool(2) as pool:
        results = census._imap(pool, _fails_on_zero, range(100_000), 10, 4)
        with pytest.raises(CensusInputError, match="^zero$"):
            list(results)
        assert pool._cache == {}  # the Pool's table of unfinished results
    results = census._imap(None, _fails_on_zero, iter([2, 1, 0, 3]), 10, 4)
    assert [next(results), next(results)] == [(2, 2), (1, 1)]
    with pytest.raises(CensusInputError, match="^zero$"):
        next(results)


def test_pool_error_stops_reading_the_input():
    # at most window batches are in flight, so an error in the first batch
    # is raised once at most (window + 1) batches of the input have been read
    from multiprocessing import Pool

    import cospec.census as census

    read = []
    items = (read.append(x) or x for x in [1, 0] + [1] * 100_000)
    with Pool(2) as pool:
        with pytest.raises(CensusInputError, match="^zero$"):
            list(census._imap(pool, _fails_on_zero, items, 10, 4))
    assert len(read) <= (4 + 1) * 10


def test_worker_pool_on_mixed_input():
    # header, comment, blank and disconnected lines reach the Pool in more
    # than one batch (4 at jobs 2, 6 at jobs 3) and change nothing
    from cospec.graphs import cycle, disjoint_union, empty, path, write_graph6

    disconnected = [empty(6), disjoint_union(cycle(3), cycle(3)), disjoint_union(path(5), empty(1))]
    connected = list(connected_graph6_lines(6))
    lines = [">>graph6<<", "> six vertices", ""]
    lines += connected[:50] + [write_graph6(g) for g in disconnected] + ["  "] + connected[50:]
    cells = [c for c in expected_tables() if c.n == 6 and c.row != "domain-size"]
    tasks = list(dict.fromkeys(CensusTask(c.kind, c.flavor, c.domain) for c in cells))
    rows, sizes = sweep(6, tasks, lines, jobs=1)
    assert sizes == {D.CONNECTED: 112, D.CONNECTED_COMPLEMENT: 68, D.DIAM2_PAIR: 2}
    by_task = {r.task: r.with_mate for r in rows}
    for cell in cells:
        assert by_task[CensusTask(cell.kind, cell.flavor, cell.domain)] == cell.value
    for jobs in (2, 3):
        assert sweep(6, tasks, lines, jobs=jobs) == (rows, sizes)


def test_sweep_runs_one_bfs_per_side(monkeypatch):
    # the first pass computes the distance data of each side once (of the
    # graph alone for a disconnected line); the second pass refines a and q
    # keys, which need none
    import cospec.census as census
    from cospec import graphs
    from cospec.graphs import cycle, disjoint_union, empty, write_graph6

    bfs = graphs._bfs
    runs = []
    monkeypatch.setattr(graphs, "_bfs", lambda g: runs.append(g) or bfs(g))
    line_keys = census._line_keys
    reread = []

    def counted(*args):
        item = args[-1]
        if item[2] is not None:
            reread.append(item)
        return line_keys(*args)

    monkeypatch.setattr(census, "_line_keys", counted)
    lines = list(connected_graph6_lines(6))
    lines += [write_graph6(empty(6)), write_graph6(disjoint_union(cycle(3), cycle(3)))]
    tasks = [CensusTask(kind, flavor, D.CONNECTED)
             for kind in (K.ADJACENCY, K.SIGNLESS_LAPLACIAN)
             for flavor in (F.GEN_SPECTRAL, F.GEN_INVARIANT)]
    rows, sizes = sweep(6, tasks, lines, jobs=1)
    assert sizes[D.CONNECTED] == 112 and reread
    assert len(runs) == 2 * 112 + 2


def test_generalized_refines_plain():
    for kind, domain in [
        (K.ADJACENCY, D.CONNECTED),
        (K.SIGNLESS_LAPLACIAN, D.CONNECTED),
        (K.DISTANCE, D.CONNECTED_COMPLEMENT),
    ]:
        plain = run_census(CensusSpec(6, domain, (kind,), F.SPECTRAL))[0]
        gen = run_census(CensusSpec(6, domain, (kind,), F.GEN_SPECTRAL))[0]
        assert gen.with_mate <= plain.with_mate
        plain_inv = run_census(CensusSpec(6, domain, (kind,), F.INVARIANT))[0]
        gen_inv = run_census(CensusSpec(6, domain, (kind,), F.GEN_INVARIANT))[0]
        assert gen_inv.with_mate <= plain_inv.with_mate


def test_sweep_bucket_sanity():
    lines = connected_graph6_lines(5)
    tasks = [
        CensusTask(K.ADJACENCY, F.GEN_SPECTRAL, D.CONNECTED),
        CensusTask(K.DISTANCE, F.GEN_INVARIANT, D.CONNECTED_COMPLEMENT),
    ]
    results, sizes = sweep(5, tasks, lines)
    assert sizes[D.CONNECTED] == 21
    assert sizes[D.CONNECTED_COMPLEMENT] == 8
    for res in results:
        assert sum(res.buckets.values()) == res.domain_size
        assert all(v >= 1 for v in res.buckets.values())


def test_census_from_file(tmp_path, monkeypatch):
    src = tmp_path / "graphs5.g6"
    src.write_text(
        ">>graph6<<\n\n" + "\n".join(connected_graph6_lines(5)) + "\n", encoding="ascii"
    )
    kinds = (K.SIGNLESS_LAPLACIAN,)
    spec = CensusSpec(5, D.CONNECTED, kinds, F.GEN_SPECTRAL, source=str(src))
    rows = run_census(spec)
    assert rows[0].domain_size == 21 and rows[0].with_mate == 2
    # source '-' reads the same bytes from stdin
    stdin = io.TextIOWrapper(io.BytesIO(src.read_bytes()), encoding="ascii")
    monkeypatch.setattr("sys.stdin", stdin)
    assert run_census(CensusSpec(5, D.CONNECTED, kinds, F.GEN_SPECTRAL, source="-")) == rows
    assert not stdin.buffer.closed


def test_census_counts_networkx_graph6_file(tmp_path):
    # networkx writes the >>graph6<< header glued to each graph it writes;
    # every one of those graphs is data
    nx = pytest.importorskip("networkx")
    lines = connected_graph6_lines(5)
    src = tmp_path / "nx5.g6"
    with open(src, "wb") as handle:
        for line in lines:
            nx.write_graph6(nx.from_graph6_bytes(line.encode("ascii")), handle)
    assert src.read_bytes().startswith(b">>graph6<<" + lines[0].encode("ascii"))
    kinds = (K.SIGNLESS_LAPLACIAN,)
    rows = run_census(CensusSpec(5, D.CONNECTED, kinds, F.GEN_SPECTRAL, source=str(src)))
    assert rows[0].domain_size == 21 and rows[0].with_mate == 2


def test_census_errors_carry_line_numbers(tmp_path):
    spec = CensusSpec(5, D.CONNECTED, (K.ADJACENCY,), F.SPECTRAL)
    lines = list(connected_graph6_lines(5))
    bad = lines[:3] + ["C~"] + lines[3:]
    exc = pytest.raises(CensusInputError, sweep, spec.n, spec.tasks(), bad).value
    assert "line 4" in str(exc) and "expected 5" in str(exc)

    bad = lines[:2] + ["D!!!"] + lines[2:]
    exc = pytest.raises(Graph6ParseError, sweep, spec.n, spec.tasks(), bad).value
    assert "line 3" in str(exc)

    # the header and blank lines count, and the bad line lies past the
    # first chunk of a two-worker sweep
    bad = [">>graph6<<", ""] + lines[:15] + ["", "D!!!"] + lines[15:]
    exc = pytest.raises(Graph6ParseError, sweep, spec.n, spec.tasks(), bad, 2).value
    assert "line 19:" in str(exc)


def test_disconnected_lines_are_outside_domains():
    # a disconnected graph (C_4 + K_1 here) contributes to no census domain
    from cospec.graphs import complete, cycle, disjoint_union, write_graph6

    extra = write_graph6(disjoint_union(cycle(4), complete(1)))
    spec = CensusSpec(5, D.CONNECTED, (K.ADJACENCY,), F.SPECTRAL)
    rows = sweep(spec.n, spec.tasks(), [extra] + list(connected_graph6_lines(5)))[0]
    assert rows[0].domain_size == 21


def test_expected_tables_literals():
    cells = expected_tables()
    by = {
        (c.table, c.row, c.kind, c.n, c.domain): c
        for c in cells
    }
    assert by[(2, "gsp", K.SIGNLESS_DISTANCE_LAPLACIAN, 7, D.CONNECTED_COMPLEMENT)].value == 4
    assert by[(1, "gin", K.TRANSMISSION_ADJACENCY, 8, D.CONNECTED_COMPLEMENT)].value == 32
    # a second copy of the paper's n = 9 diameter-2 cells (Tables 3 and 4)
    n9_diam2 = {
        (3, "domain-size", None): 6069,
        (3, "gsp", K.ADJACENCY): 420,
        (3, "gsp", K.LAPLACIAN): 952,
        (3, "gsp", K.SIGNLESS_LAPLACIAN): 212,
        (3, "gin", K.ADJACENCY): 5918,
        (3, "gin", K.LAPLACIAN): 382,
        (3, "gin", K.SIGNLESS_LAPLACIAN): 84,
        (4, "gin", K.DISTANCE): 5206,
        (4, "gin", K.DISTANCE_LAPLACIAN): 428,
        (4, "gin", K.SIGNLESS_DISTANCE_LAPLACIAN): 84,
        (4, "gin", K.DEGREE_DISTANCE): 96,
        (4, "gin", K.SIGNLESS_DEGREE_DISTANCE): 1523,
        (4, "gin", K.TRANSMISSION_ADJACENCY): 84,
        (4, "gin", K.SIGNLESS_TRANSMISSION_ADJACENCY): 492,
    }
    assert {
        (c.table, c.row, c.kind): c.value for c in cells if c.n == 9 and c.domain is D.DIAM2_PAIR
    } == n9_diam2


def test_diff_paper_small():
    results = diff_paper(max_n=5)
    assert results and all(r.ok for r in results)
    ns = {r.cell.n for r in results}
    assert ns == {4, 5}


def test_bundled_generator_size_bound():
    from cospec.errors import UnsupportedSizeError

    spec = CensusSpec(10, D.CONNECTED, (K.ADJACENCY,), F.SPECTRAL)
    exc = pytest.raises(UnsupportedSizeError, run_census, spec).value
    assert "external graph6 file" in str(exc)


def test_census_buckets_match_pairwise_predicate():
    # the two graphs sharing a generalized Q-spectrum at n = 5 must also
    # satisfy the pairwise relation, and their complements must relate too
    from cospec.graphs import complement, parse_graph6
    from cospec.invariants import fingerprint, related

    lines = list(connected_graph6_lines(5))
    tasks = [CensusTask(K.SIGNLESS_LAPLACIAN, F.GEN_SPECTRAL, D.CONNECTED)]
    results, _ = sweep(5, tasks, lines)
    mate_keys = [key for key, c in results[0].buckets.items() if c >= 2]
    assert len(mate_keys) == 1
    key = mate_keys[0]
    pair = [
        parse_graph6(line)
        for line in lines
        if fingerprint(parse_graph6(line), K.SIGNLESS_LAPLACIAN, F.GEN_SPECTRAL) == key
    ]
    assert len(pair) == 2
    assert related(pair[0], pair[1], K.SIGNLESS_LAPLACIAN, F.GEN_SPECTRAL)
    assert related(pair[0], pair[1], K.SIGNLESS_LAPLACIAN, F.SPECTRAL)
    assert related(
        complement(pair[0]), complement(pair[1]), K.SIGNLESS_LAPLACIAN, F.SPECTRAL
    )


# A constant prefix puts every graph of a deferred task's domain into one
# prefix class, so every graph of a domain with two or more is refined.
FORCED_PREFIX = b"P"


def force_collisions(monkeypatch):
    import cospec.census as census

    monkeypatch.setattr(census, "snf_prefix", lambda kind, charpolys: FORCED_PREFIX)


def test_sweep_keys_equal_fingerprints_for_every_task(monkeypatch):
    # the sweep's cached blocks give the same key as fingerprint() for all
    # 50 kind x flavor tasks: exactly under forced collisions, and by bucket
    # sizes in the default mode, where a graph alone in its prefix class
    # keeps the prefix as its key
    from cospec.graphs import complement, parse_graph6
    from cospec.invariants import fingerprint

    lines = connected_graph6_lines(6)
    tasks = [CensusTask(kind, flavor, D.CONNECTED_COMPLEMENT) for kind in K for flavor in F]
    domain = [g for g in map(parse_graph6, lines) if complement(g).is_connected()]
    want = [Counter(fingerprint(g, t.kind, t.flavor) for g in domain) for t in tasks]
    results, sizes = sweep(6, tasks, lines, jobs=1)
    assert len(tasks) == 50 and sizes[D.CONNECTED_COMPLEMENT] == len(domain) == 68
    for res, buckets in zip(results, want):
        assert res.domain_size == 68
        assert res.with_mate == sum(c for c in buckets.values() if c >= 2)
        assert len(res.buckets) == len(buckets)
    force_collisions(monkeypatch)
    results, sizes = sweep(6, tasks, lines, jobs=1)
    assert sizes[D.CONNECTED_COMPLEMENT] == 68
    for res, buckets in zip(results, want):
        assert res.buckets == buckets


def all_tasks():
    """Every valid kind x flavor x domain task."""
    tasks = []
    for kind in K:
        for flavor in F:
            for domain in D:
                try:
                    tasks.append(CensusTask(kind, flavor, domain))
                except ValueError:
                    pass
    return tasks


def test_forced_collisions_give_exact_fingerprint_buckets(monkeypatch):
    # every SNF task of the full task list is deferred; with the prefix
    # forced to a constant every graph is refined, unless it is alone in
    # its domain, and the buckets are byte-identical to the fingerprints
    import cospec.census as census
    from cospec.graphs import complement, distance_data, parse_graph6
    from cospec.invariants import fingerprint

    tasks = all_tasks()
    deferred = census._deferred_tasks(tasks)
    snf_tasks = {i for i, t in enumerate(tasks) if t.flavor in (F.INVARIANT, F.GEN_INVARIANT)}
    assert len(tasks) == 136 and deferred == snf_tasks and len(deferred) == 53
    force_collisions(monkeypatch)
    for n in range(2, 7):
        lines = connected_graph6_lines(n)
        graphs = [parse_graph6(line) for line in lines]
        domains = {D.CONNECTED: graphs}
        domains[D.CONNECTED_COMPLEMENT] = [g for g in graphs if complement(g).is_connected()]
        domains[D.DIAM2_PAIR] = [
            g for g in domains[D.CONNECTED_COMPLEMENT]
            if distance_data(g).diameter == 2 == distance_data(complement(g)).diameter
        ]
        fps = {}
        want = []
        for ti, t in enumerate(tasks):
            domain = domains[t.domain]
            if ti in deferred and len(domain) == 1:
                want.append(Counter({FORCED_PREFIX: 1}))
                continue
            for g in domain:
                if (g, t.kind, t.flavor) not in fps:
                    fps[g, t.kind, t.flavor] = fingerprint(g, t.kind, t.flavor)
            want.append(Counter(fps[g, t.kind, t.flavor] for g in domain))
        for jobs in (1, 2):
            results, sizes = sweep(n, tasks, lines, jobs=jobs)
            assert sizes == {d: len(domains[d]) for d in D}
            for res, buckets in zip(results, want):
                assert res.buckets == buckets, (n, jobs, res.task)


def test_paper_task_lists_defer_their_gen_invariant_tasks():
    # the task list diff-paper sweeps for each n: a gen-invariant task is
    # deferred exactly when its kind has a gen-spectral task there
    import cospec.census as census

    want = {4: (10, 20), 5: (10, 20), 11: (3, 13)}
    for n in range(4, 12):
        tasks = list(dict.fromkeys(CensusTask(c.kind, c.flavor, c.domain)
                                   for c in expected_tables() if c.n == n and c.kind))
        deferred = census._deferred_tasks(tasks)
        assert (len(deferred), len(tasks)) == want.get(n, (20, 33)), n
        spectral = {t.kind for t in tasks if t.flavor is F.GEN_SPECTRAL}
        assert deferred == {i for i, t in enumerate(tasks)
                            if t.flavor is F.GEN_INVARIANT and t.kind in spectral}, n


def test_gen_invariant_alone_stays_eager(monkeypatch):
    # a sweep without a charpoly task computes no charpoly and keys every
    # graph by its full SNF fingerprint, as fingerprint() does
    import cospec.census as census
    from cospec.graphs import complement, parse_graph6
    from cospec.invariants import fingerprint

    calls = Counter()
    charpoly = census.charpoly_coeffs
    monkeypatch.setattr(census, "charpoly_coeffs",
                        lambda m: calls.update(["charpoly_coeffs"]) or charpoly(m))
    lines = connected_graph6_lines(6)
    domain = [g for g in map(parse_graph6, lines) if complement(g).is_connected()]
    for kind in K:
        task = CensusTask(kind, F.GEN_INVARIANT, D.CONNECTED_COMPLEMENT)
        assert census._deferred_tasks([task]) == frozenset()
        (row,), _ = sweep(6, [task], lines, jobs=1)
        assert row.buckets == Counter(fingerprint(g, kind, F.GEN_INVARIANT) for g in domain)
    assert calls == Counter()


def test_every_census_is_the_same_at_one_and_two_jobs(monkeypatch):
    # one sweep of every kind x flavor x domain task at n <= 7 gives the
    # same rows at jobs 1 and 2, with its SNF tasks deferred and with every
    # task eager, and both modes give the same domain sizes, with_mate and
    # distinct-key counts
    import cospec.census as census

    tasks = all_tasks()
    for n in range(2, 8):
        lines = connected_graph6_lines(n)
        rows, sizes = sweep(n, tasks, lines, jobs=1)
        assert sweep(n, tasks, lines, jobs=2) == (rows, sizes)
        with monkeypatch.context() as patch:
            patch.setattr(census, "_deferred_tasks", lambda tasks: frozenset())
            eager, eager_sizes = sweep(n, tasks, lines, jobs=1)
            assert sweep(n, tasks, lines, jobs=2) == (eager, eager_sizes)
        assert sizes == eager_sizes
        for row, want in zip(rows, eager):
            assert (row.domain_size, row.with_mate, len(row.buckets)) == (
                want.domain_size, want.with_mate, len(want.buckets)), (n, row.task)


def _charpoly_calls(monkeypatch, n, tasks, lines, derive=True):
    """(rows, sizes) of a jobs-1 sweep and its census.charpoly_coeffs call
    count, with charpoly blocks derived (by default) or all computed."""
    import cospec.census as census
    from cospec.invariants import _Blocks

    charpoly = census.charpoly_coeffs
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(census, "charpoly_coeffs", lambda m: calls.append(m) or charpoly(m))
        if not derive:
            patch.setattr(_Blocks, "derived_charpoly", lambda self, kind, side: None)
        return sweep(n, tasks, lines, jobs=1), len(calls)


def test_derivable_blocks_need_base_blocks_the_tasks_compute(monkeypatch):
    # a charpoly block is derived only from base blocks that the line has
    # computed anyway, so derivation never adds a charpoly call: a dl census
    # alone derives nothing (it would compute l only to derive dl), a d
    # block derives only where both sides' a blocks are computed, and the
    # order of the task list does not matter
    from cospec.graphs import complement, distance_data, parse_graph6

    lines = connected_graph6_lines(7)
    for flavor in F:
        tasks = [CensusTask(K.DISTANCE_LAPLACIAN, flavor, D.CONNECTED_COMPLEMENT)]
        _, calls = _charpoly_calls(monkeypatch, 7, tasks, lines)
        assert calls == _charpoly_calls(monkeypatch, 7, tasks, lines, derive=False)[1], flavor
    # gen-spectral d and a: both sides' a blocks on every line, and d
    # derived on each side of diameter <= 2, in either kind order
    pairs = [(g, complement(g)) for g in map(parse_graph6, lines)]
    small = sum(distance_data(h).diameter <= 2 for pair in pairs
                if distance_data(pair[1]).connected for h in pair)
    for kinds in ((K.DISTANCE, K.ADJACENCY), (K.ADJACENCY, K.DISTANCE)):
        tasks = CensusSpec(7, D.CONNECTED_COMPLEMENT, kinds, F.GEN_SPECTRAL).tasks()
        (_, sizes), calls = _charpoly_calls(monkeypatch, 7, tasks, lines)
        assert calls == 4 * sizes[D.CONNECTED_COMPLEMENT] - small
    # a base task on a smaller domain: d is derived on the diameter-2 pairs
    # and computed from its matrix on the other lines, which compute no a
    # block
    d01 = CensusTask(K.DISTANCE, F.GEN_SPECTRAL, D.CONNECTED_COMPLEMENT)
    a01 = CensusTask(K.ADJACENCY, F.GEN_SPECTRAL, D.DIAM2_PAIR)
    for tasks in ([d01, a01], [a01, d01]):
        (_, sizes), calls = _charpoly_calls(monkeypatch, 7, tasks, lines)
        assert calls == 2 * sizes[D.CONNECTED_COMPLEMENT]
    # side 0's d block needs side 1's a block, which an r-spectral a task
    # does not compute; with a gen-spectral a task on the diameter-2 pairs
    # it derives there
    d0 = CensusTask(K.DISTANCE, F.SPECTRAL, D.CONNECTED)
    a0 = CensusTask(K.ADJACENCY, F.R_SPECTRAL, D.CONNECTED)
    (_, sizes), calls = _charpoly_calls(monkeypatch, 7, [d0, a0], lines)
    assert calls == 3 * sizes[D.CONNECTED]
    (_, sizes), calls = _charpoly_calls(monkeypatch, 7, [d0, a0, a01], lines)
    assert calls == 3 * sizes[D.CONNECTED]
    assert _charpoly_calls(monkeypatch, 7, [d0, a0, a01], lines, derive=False)[1] == (
        3 * sizes[D.CONNECTED] + sizes[D.DIAM2_PAIR])
    # side 1's l block derives from side 0's on every line; an SNF task
    # of ddeg+, whose base is l, computes no charpoly
    lap = CensusTask(K.LAPLACIAN, F.GEN_SPECTRAL, D.CONNECTED)
    ddeg = CensusTask(K.SIGNLESS_DEGREE_DISTANCE, F.GEN_INVARIANT, D.DIAM2_PAIR)
    for tasks in ([lap], [lap, ddeg]):
        (_, sizes), calls = _charpoly_calls(monkeypatch, 7, tasks, lines)
        assert calls == sizes[D.CONNECTED]


def test_derivation_leaves_every_census_byte_identical(monkeypatch):
    # all 136 tasks at n <= 7 give equal rows, bucket by bucket, with the
    # derivable charpoly blocks derived and with every block computed from
    # its matrix; at n = 7 the sweep derives all 15 derivable blocks: each
    # distance kind on both sides, whatever its base, and side 1's l
    from cospec.invariants import _Blocks
    from cospec.matrices import DISTANCE_KINDS

    derive = _Blocks.derived_charpoly
    seen = set()

    def recorded(self, kind, side):
        p = derive(self, kind, side)
        if p is not None:
            seen.add((kind, side))
        return p

    tasks = all_tasks()
    assert len(tasks) == 136
    for n in range(2, 8):
        lines = connected_graph6_lines(n)
        seen.clear()
        with monkeypatch.context() as patch:
            patch.setattr(_Blocks, "derived_charpoly", recorded)
            derived = sweep(n, tasks, lines, jobs=1)
        with monkeypatch.context() as patch:
            patch.setattr(_Blocks, "derived_charpoly", lambda self, kind, side: None)
            assert sweep(n, tasks, lines, jobs=1) == derived, n
    assert seen == {(K.LAPLACIAN, 1)} | {(k, side) for k in DISTANCE_KINDS for side in (0, 1)}
    assert len(seen) == 15


def test_a_wrong_base_block_fails_the_derived_block_check(monkeypatch):
    # an adjacency charpoly whose x^(n-1) coefficient is off by one makes
    # the d block derived from it break the trace identities; the sweep
    # names the first line that derives it, the first of the diam-2 domain
    import cospec.census as census
    from cospec.graphs import complement, distance_data, parse_graph6

    charpoly = census.charpoly_coeffs

    def charpoly_coeffs(m):
        c = list(charpoly(m))
        if all(row[i] == 0 for i, row in enumerate(m)) and {v for row in m for v in row} <= {0, 1}:
            c[-2] += 1
        return tuple(c)

    monkeypatch.setattr(census, "charpoly_coeffs", charpoly_coeffs)
    tasks = [CensusTask(kind, F.GEN_SPECTRAL, D.DIAM2_PAIR)
             for kind in (K.ADJACENCY, K.DISTANCE)]
    lines = [">>graph6<<", *connected_graph6_lines(6)]
    first = next(i for i, line in enumerate(lines[1:], 2) if all(
        distance_data(h).diameter == 2 for h in (parse_graph6(line), complement(parse_graph6(line)))))
    for jobs in (1, 2):
        exc = pytest.raises(ConsistencyError, sweep, 6, tasks, lines, jobs).value
        assert (str(exc), exc.lineno) == (
            f"line {first}: d charpoly derived on side 0: degree-6 charpoly coefficients "
            "do not match the traces of M and M^2", first)


def test_shared_blocks_computed_once_per_graph(monkeypatch):
    # tasks sharing an (op, kind, side) block compute it once per graph, and
    # the sweep calls the block functions through the census module
    import cospec.census as census

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("parse_graph6", "build_matrix", "charpoly_coeffs", "snf_diagonal", "cof_coeffs"):
        monkeypatch.setattr(census, name, counted(name, getattr(census, name)))
    lines = connected_graph6_lines(5)

    def block_calls(kind, domain):
        calls.clear()
        _, sizes = sweep(5, [CensusTask(kind, flavor, domain) for flavor in F], lines, jobs=1)
        return sizes[domain], dict(calls)

    # the first pass parses every line and builds sides 0 and 1 once each
    # per graph of the domain; the cof block is charpoly(M - J) minus the
    # charpoly block of M, so cof_coeffs (which would compute charpoly(M)
    # again) is never called. The two SNF tasks are deferred: the second
    # pass parses each refined line once more, then builds and reduces
    # once each side that the tasks it is refined for need. At n = 5 every graph has
    # an adjacency invariant prefix in common with another, and 12 of them
    # also a gen-invariant one; no dl prefix is shared. Forced collisions
    # refine every graph for both tasks.
    for forced in (False, True):
        if forced:
            force_collisions(monkeypatch)
        graphs, got = block_calls(K.ADJACENCY, D.CONNECTED)
        snf = 2 * graphs if forced else graphs + 12
        assert graphs == 21
        assert got == dict(
            parse_graph6=2 * graphs,
            build_matrix=2 * graphs + snf,
            charpoly_coeffs=3 * graphs,
            snf_diagonal=snf,
        )
        graphs, got = block_calls(K.DISTANCE_LAPLACIAN, D.CONNECTED_COMPLEMENT)
        refined = graphs if forced else 0
        assert graphs == 8
        assert got == dict(
            parse_graph6=21 + refined,
            build_matrix=2 * graphs + 2 * refined,
            charpoly_coeffs=3 * graphs,
            **({"snf_diagonal": 2 * refined} if refined else {}),
        )


def test_bucket_count_mismatch_raises_consistency_error(monkeypatch):
    # a check that survives python -O: drop every key, so the domain counts
    # the graphs while the buckets do not
    import cospec.census as census
    from cospec.errors import ConsistencyError

    keys = census._line_keys
    monkeypatch.setattr(census, "_line_keys", lambda *args: (keys(*args)[0], []))
    task = CensusTask(K.ADJACENCY, F.SPECTRAL, D.CONNECTED)
    with pytest.raises(ConsistencyError, match="buckets hold 0 graphs"):
        sweep(4, [task], connected_graph6_lines(4), jobs=1)


def test_census_row_is_the_sweep_row():
    # run_census returns sweep's rows; with_mate and uncertainty derive
    # from the buckets, which stay out of repr and hash
    spec = CensusSpec(5, D.CONNECTED, (K.SIGNLESS_LAPLACIAN,), F.GEN_SPECTRAL)
    rows, _ = sweep(5, spec.tasks(), connected_graph6_lines(5), jobs=1)
    assert run_census(spec, jobs=1) == rows
    row = rows[0]
    assert (row.task, row.kind, row.flavor) == (spec.tasks()[0], K.SIGNLESS_LAPLACIAN, F.GEN_SPECTRAL)
    assert row.with_mate == sum(c for c in row.buckets.values() if c >= 2) == 2
    assert row.uncertainty == Fraction(2, 21)
    assert "buckets" not in repr(row) and hash(row) == hash(run_census(spec, jobs=1)[0])
    empty = sweep(spec.n, spec.tasks(), [], 1)[0][0]
    assert (empty.domain_size, empty.with_mate, empty.uncertainty) == (0, 0, Fraction(0))


def test_diff_paper_refuses_a_bound_that_selects_no_cell():
    for max_n in (3, 0, -1):
        with pytest.raises(ValueError, match=f"no table cell has n <= {max_n}"):
            diff_paper(max_n=max_n)


def test_diff_paper_refuses_an_unused_source(tmp_path, monkeypatch):
    # the n = 11 source is refused before any file is opened or swept
    import cospec.census as census

    swept = []
    monkeypatch.setattr(census, "sweep", lambda *args, **kw: swept.append(args))
    missing = tmp_path / "missing.g6"
    for sources in ({11: str(missing)}, {4: "-", 5: str(missing)}):
        with pytest.raises(ValueError, match="no table cell with n <= 4 uses the source for n ="):
            diff_paper(max_n=4, sources=sources)
    assert swept == []


def test_diff_paper_refuses_cells_without_a_source(tmp_path, monkeypatch):
    # a cell above the bundled generator's bound with no source is refused
    # before any file is opened or swept, not dropped from the run
    import cospec.census as census

    swept = []
    monkeypatch.setattr(census, "sweep", lambda *args, **kw: swept.append(args))
    missing = tmp_path / "missing.g6"
    for max_n, sources, n in ((10, None, 10), (11, {10: str(missing)}, 11), (11, {11: "-"}, 10)):
        with pytest.raises(ValueError) as exc:
            diff_paper(max_n=max_n, sources=sources)
        assert str(exc.value) == f"no source for the n = {n} cells; the bundled generator stops at n = 9"
    assert swept == []
    # with a source for every such n, every selected cell runs
    empty = tmp_path / "empty.g6"
    empty.write_bytes(b"")
    read = []
    monkeypatch.setattr(census, "_source_lines", lambda n, source: read.append((n, source)) or [])
    monkeypatch.setattr(census, "sweep", sweep)
    results = diff_paper(max_n=11, sources={10: str(empty), 11: str(empty)}, jobs=1)
    cells = [c for c in expected_tables() if c.n <= 11]
    assert len(results) == len(cells) == 252 and {r.cell for r in results} == set(cells)
    assert read == [(n, None) for n in range(4, 10)] + [(10, str(empty)), (11, str(empty))]


def test_job_count_is_checked_before_any_input(tmp_path, monkeypatch):
    import cospec.census as census

    def unread(n, source):
        raise AssertionError(f"input for n = {n} read before the job count was checked")

    monkeypatch.setattr(census, "_source_lines", unread)
    missing = str(tmp_path / "missing.g6")
    spec = CensusSpec(4, D.CONNECTED, (K.ADJACENCY,), F.SPECTRAL, source=missing)
    for call in (
        lambda: diff_paper(max_n=4, jobs=0),
        lambda: diff_paper(max_n=10, sources={10: missing}, jobs=0),
        lambda: run_census(spec, jobs=0),
    ):
        with pytest.raises(ValueError, match="jobs must be at least 1 \\(got 0\\)"):
            call()


def test_job_count_must_be_positive():
    lines = connected_graph6_lines(4)
    task = CensusTask(K.ADJACENCY, F.SPECTRAL, D.CONNECTED)
    for jobs in (0, -4):
        with pytest.raises(ValueError, match=f"jobs must be at least 1 \\(got {jobs}\\)"):
            sweep(4, [task], lines, jobs=jobs)


def test_census_parse_errors_keep_byte_offset():
    # the line number is added to the parser's error, which keeps its byte
    # offset, also when the error crosses the worker pickle at jobs = 2
    spec = CensusSpec(5, D.CONNECTED, (K.ADJACENCY,), F.SPECTRAL)
    lines = list(connected_graph6_lines(5))
    bad = lines[:15] + ["D?!"] + lines[15:]
    for jobs in (1, 2):
        exc = pytest.raises(Graph6ParseError, sweep, spec.n, spec.tasks(), bad, jobs).value
        assert (exc.lineno, exc.offset) == (16, 2)
        assert str(exc) == "line 16: data byte 33 outside [63, 126] (byte offset 2)"


def test_first_bad_line_is_named_at_every_job_count(tmp_path, capsys):
    # 602 lines with wrong-size graphs at lines 150 and 153: jobs 2 sends
    # them in batches of 151, so the second bad line's batch reaches its
    # error first; results are taken in input order, so line 150 is named
    from cospec.cli import main

    lines = list(connected_graph6_lines(7))[:600]
    lines[149:149] = ["C~"]
    lines[152:152] = ["C~"]
    assert len(lines) == 602 and [i + 1 for i, x in enumerate(lines) if x == "C~"] == [150, 153]
    src = tmp_path / "two-bad.g6"
    src.write_text("\n".join(lines) + "\n", encoding="ascii")
    spec = CensusSpec(7, D.CONNECTED, (K.ADJACENCY, K.LAPLACIAN, K.SIGNLESS_LAPLACIAN),
                      F.GEN_INVARIANT)
    argv = ["census", "--n", "7", "--domain", "connected", "--kind", "a,l,q",
            "--flavor", "gen-invariant", "--input", str(src)]
    for jobs in (1, 2, 3):
        exc = pytest.raises(CensusInputError, sweep, spec.n, spec.tasks(), lines, jobs).value
        assert (str(exc), exc.lineno) == ("line 150: expected 7 vertices, got 4", 150)
        assert main(argv + ["--jobs", str(jobs)]) == 1
        assert capsys.readouterr() == ("", "cospec: line 150: expected 7 vertices, got 4\n")
    # a parse error first keeps its type and byte offset across the Pool
    lines[149] = "F?!??"
    for jobs in (1, 2, 3):
        exc = pytest.raises(Graph6ParseError, sweep, spec.n, spec.tasks(), lines, jobs).value
        assert (exc.lineno, exc.offset) == (150, 2)


def test_census_names_the_line_of_a_kernel_error(monkeypatch):
    # any CospecError raised while a line is handled names that line and
    # keeps its type; here the third data line's charpoly fails
    calls = []

    def charpoly_coeffs(m):
        calls.append(m)
        if len(calls) == 3:
            raise ConsistencyError("charpoly digits do not decode")
        return (1,) * (len(m) + 1)

    monkeypatch.setattr("cospec.census.charpoly_coeffs", charpoly_coeffs)
    spec = CensusSpec(5, D.CONNECTED, (K.ADJACENCY,), F.SPECTRAL)
    lines = [">>graph6<<", *connected_graph6_lines(5)]
    exc = pytest.raises(ConsistencyError, sweep, spec.n, spec.tasks(), lines, 1).value
    assert (str(exc), exc.lineno) == ("line 4: charpoly digits do not decode", 4)


def drop_a_prime_from_the_snf(monkeypatch):
    # an SNF that drops a prime from its last nonzero factor changes the
    # top determinantal divisor that the charpoly gave in the first pass
    import cospec.census as census

    snf = census.snf_diagonal

    def snf_diagonal(m):
        d = list(snf(m))
        last = max(i for i, v in enumerate(d) if v)
        d[last] //= next((p for p in range(2, d[last] + 1) if d[last] % p == 0), 1)
        return tuple(d)

    monkeypatch.setattr(census, "snf_diagonal", snf_diagonal)


def test_second_pass_checks_the_first_pass_prefix(monkeypatch):
    # the second pass reads the prefix off the SNF again and names the line
    drop_a_prime_from_the_snf(monkeypatch)
    tasks = [CensusTask(K.ADJACENCY, flavor, D.CONNECTED) for flavor in (F.SPECTRAL, F.INVARIANT)]
    lines = [">>graph6<<", *connected_graph6_lines(6)]
    for jobs in (1, 2):
        exc = pytest.raises(ConsistencyError, sweep, 6, tasks, lines, jobs).value
        assert (str(exc), exc.lineno) == (
            "line 59: task a/invariant: invariant factors give prefix P6,2, charpolys gave P6,4", 59)


def test_sweep_checks_that_every_snf_is_a_divisor_chain(monkeypatch):
    # an SNF whose last two nonzero factors 1, 21 become 3, 7 keeps its
    # rank and product, so it passes the prefix check; the divisor chain
    # rule stops the sweep, in the second pass of a deferred task and in
    # the first of an eager one
    import cospec.census as census

    snf = census.snf_diagonal

    def snf_diagonal(m):
        d = list(snf(m))
        last = max(i for i, v in enumerate(d) if v)
        if d[last - 1:last + 1] == [1, 21]:
            d[last - 1:last + 1] = [3, 7]
        return tuple(d)

    monkeypatch.setattr(census, "snf_diagonal", snf_diagonal)
    lines = [">>graph6<<", *connected_graph6_lines(6)]
    for flavors, deferred in (((F.SPECTRAL, F.INVARIANT), {1}), ((F.INVARIANT,), set())):
        tasks = [CensusTask(K.LAPLACIAN, flavor, D.CONNECTED) for flavor in flavors]
        assert census._deferred_tasks(tasks) == deferred
        for jobs in (1, 2):
            exc = pytest.raises(ConsistencyError, sweep, 6, tasks, lines, jobs).value
            assert (str(exc), exc.lineno) == (
                "line 29: task l/invariant: d_4 = 3 does not divide d_5 = 7", 29)


def test_diff_paper_names_the_generator_n_of_a_failing_sweep(monkeypatch):
    # the n = 4 cells pass; the first n = 5 line that the second pass
    # refines for q/gen-invariant fails its prefix check
    drop_a_prime_from_the_snf(monkeypatch)
    want = ("generator n = 5: line 2: task q/gen-invariant: invariant factors give "
            "prefix P4;5,8, charpolys gave P4;5,16", 2)
    for jobs in (1, 2):
        exc = pytest.raises(ConsistencyError, diff_paper, max_n=6, jobs=jobs).value
        assert (str(exc), exc.lineno) == want


def test_census_names_the_line_of_a_second_pass_error(monkeypatch):
    # the invariant task is deferred behind the spectral task's charpoly,
    # so its SNF runs in the second pass only, first for the first data
    # line, whose prefix a later graph shares
    def snf_diagonal(m):
        raise ConsistencyError("snf diagonal does not divide")

    monkeypatch.setattr("cospec.census.snf_diagonal", snf_diagonal)
    tasks = [CensusTask(K.ADJACENCY, flavor, D.CONNECTED) for flavor in (F.SPECTRAL, F.INVARIANT)]
    lines = [">>graph6<<", *connected_graph6_lines(5)]
    for jobs in (1, 2):
        exc = pytest.raises(ConsistencyError, sweep, 5, tasks, lines, jobs).value
        assert (str(exc), exc.lineno) == ("line 2: snf diagonal does not divide", 2)

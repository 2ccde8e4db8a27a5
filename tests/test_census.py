import io
import random
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
from cospec.errors import CensusInputError, Graph6ParseError
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
    # plain flavors for distance kinds are fine on the connected domain
    CensusSpec(5, D.CONNECTED, (K.DISTANCE,), F.SPECTRAL)


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
    base = run_census(spec, lines=lines, jobs=1)
    shuffled = lines[:]
    random.Random(9).shuffle(shuffled)
    assert run_census(spec, lines=shuffled, jobs=1) == base
    assert run_census(spec, lines=shuffled, jobs=2) == base


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
    # source '-' reads the same bytes from stdin, with no lines= from the caller
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
    exc = pytest.raises(CensusInputError, run_census, spec, lines=bad).value
    assert "line 4" in str(exc) and "expected 5" in str(exc)

    bad = lines[:2] + ["D!!!"] + lines[2:]
    exc = pytest.raises(Graph6ParseError, run_census, spec, lines=bad).value
    assert "line 3" in str(exc)

    # the header and blank lines count, and the bad line lies past the
    # first chunk of a two-worker sweep
    bad = [">>graph6<<", ""] + lines[:15] + ["", "D!!!"] + lines[15:]
    exc = pytest.raises(Graph6ParseError, run_census, spec, lines=bad, jobs=2).value
    assert "line 19:" in str(exc)


def test_disconnected_lines_are_outside_domains():
    # a disconnected graph (C_4 + K_1 here) contributes to no census domain
    from cospec.graphs import complete, cycle, disjoint_union, write_graph6

    extra = write_graph6(disjoint_union(cycle(4), complete(1)))
    spec = CensusSpec(5, D.CONNECTED, (K.ADJACENCY,), F.SPECTRAL)
    rows = run_census(spec, lines=[extra] + list(connected_graph6_lines(5)))
    assert rows[0].domain_size == 21


def test_expected_tables_literals():
    cells = expected_tables()
    by = {
        (c.table, c.row, c.kind, c.n, c.domain): c
        for c in cells
    }
    assert by[(2, "gsp", K.SIGNLESS_DISTANCE_LAPLACIAN, 7, D.CONNECTED_COMPLEMENT)].value == 4
    assert by[(3, "domain-size", None, 9, D.DIAM2_PAIR)].value == 6069
    assert by[(3, "gin", K.SIGNLESS_LAPLACIAN, 9, D.DIAM2_PAIR)].value == 84
    assert by[(4, "gin", K.SIGNLESS_TRANSMISSION_ADJACENCY, 9, D.DIAM2_PAIR)].value == 492
    assert by[(1, "gin", K.TRANSMISSION_ADJACENCY, 8, D.CONNECTED_COMPLEMENT)].value == 32
    # long-running flags: n >= 9 general tables, n >= 10 diam-2 tables
    assert by[(1, "gin", K.ADJACENCY, 9, D.CONNECTED)].long_running
    assert not by[(1, "gin", K.ADJACENCY, 8, D.CONNECTED)].long_running
    assert not by[(3, "gin", K.LAPLACIAN, 9, D.DIAM2_PAIR)].long_running
    assert by[(3, "gin", K.LAPLACIAN, 10, D.DIAM2_PAIR)].long_running


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


def test_sweep_keys_equal_fingerprints_for_every_task():
    # the sweep's cached blocks give the same key as fingerprint() for all
    # 50 kind x flavor tasks
    from cospec.graphs import complement, parse_graph6
    from cospec.invariants import fingerprint

    lines = connected_graph6_lines(6)
    tasks = [CensusTask(kind, flavor, D.CONNECTED_COMPLEMENT) for kind in K for flavor in F]
    results, sizes = sweep(6, tasks, lines, jobs=1)
    domain = [g for g in map(parse_graph6, lines) if complement(g).is_connected()]
    assert len(tasks) == 50 and sizes[D.CONNECTED_COMPLEMENT] == len(domain) == 68
    for res in results:
        kind, flavor = res.task.kind, res.task.flavor
        assert res.buckets == Counter(fingerprint(g, kind, flavor) for g in domain)


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

    for name in ("build_matrix", "charpoly_coeffs", "snf_diagonal", "cof_coeffs"):
        monkeypatch.setattr(census, name, counted(name, getattr(census, name)))
    tasks = [CensusTask(K.ADJACENCY, flavor, D.CONNECTED) for flavor in F]
    _, sizes = sweep(5, tasks, connected_graph6_lines(5), jobs=1)
    graphs = sizes[D.CONNECTED]
    assert graphs == 21
    # sides 0 and 1 of kind a, once each per graph; the cof block is
    # charpoly(A - J) minus the charpoly block of A, so cof_coeffs (which
    # would compute charpoly(A) again) is never called
    assert calls == Counter(
        build_matrix=2 * graphs,
        charpoly_coeffs=3 * graphs,
        snf_diagonal=2 * graphs,
    )


def test_bucket_count_mismatch_raises_consistency_error(monkeypatch):
    # a check that survives python -O: drop every key, so the domain counts
    # the graphs while the buckets do not
    import cospec.census as census
    from cospec.errors import ConsistencyError

    keys = census._graph_task_keys
    monkeypatch.setattr(census, "_graph_task_keys", lambda *args: (keys(*args)[0], []))
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
    empty = run_census(spec, lines=[], jobs=1)[0]
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


def test_job_count_must_be_positive(monkeypatch):
    from cospec.census import default_jobs

    lines = connected_graph6_lines(4)
    task = CensusTask(K.ADJACENCY, F.SPECTRAL, D.CONNECTED)
    for jobs in (0, -4):
        with pytest.raises(ValueError, match=f"jobs must be at least 1 \\(got {jobs}\\)"):
            sweep(4, [task], lines, jobs=jobs)
    for env in ("0", "-2", "abc"):
        monkeypatch.setenv("COSPEC_JOBS", env)
        with pytest.raises(ValueError, match=f"COSPEC_JOBS must be a positive integer \\(got '{env}'\\)"):
            default_jobs()
        with pytest.raises(ValueError, match="COSPEC_JOBS"):
            sweep(4, [task], lines)
    monkeypatch.setenv("COSPEC_JOBS", "2")
    assert default_jobs() == 2


def test_census_parse_errors_keep_byte_offset():
    # the line number is added to the parser's error, which keeps its byte
    # offset, also when the error crosses the worker pickle at jobs = 2
    spec = CensusSpec(5, D.CONNECTED, (K.ADJACENCY,), F.SPECTRAL)
    lines = list(connected_graph6_lines(5))
    bad = lines[:15] + ["D?!"] + lines[15:]
    for jobs in (1, 2):
        exc = pytest.raises(Graph6ParseError, run_census, spec, lines=bad, jobs=jobs).value
        assert (exc.lineno, exc.offset) == (16, 2)
        assert str(exc) == "line 16: data byte 33 outside [63, 126] (byte offset 2)"

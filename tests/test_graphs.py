import hashlib
import random
from functools import lru_cache
from itertools import permutations

import pytest

from cospec import graphs
from cospec.errors import Graph6ParseError, UnsupportedSizeError
from cospec.graphs import (
    Graph,
    canonical_key,
    complement,
    complete,
    connected_graph6_lines,
    cycle,
    disjoint_union,
    distance_data,
    empty,
    from_edges,
    generate_connected,
    generate_trees,
    iter_graph6_lines,
    parse_graph6,
    path,
    star,
    tree_key,
    write_graph6,
)


# ---------------------------------------------------------------------------
# graph6 encoding


def test_write_examples():
    assert write_graph6(complete(4)) == "C~"
    assert write_graph6(path(4)) == "Ch"
    assert write_graph6(complete(1)) == "@"


def test_parse_examples():
    assert parse_graph6("C~") == complete(4)
    assert parse_graph6("Ch") == path(4)
    assert parse_graph6("@") == complete(1)


def test_round_trip_generated():
    for n in range(2, 7):
        for g in generate_connected(n):
            assert parse_graph6(write_graph6(g)) == g


def test_round_trip_string_side():
    # write(parse(s)) == s for canonical lines
    for line in connected_graph6_lines(6):
        assert write_graph6(parse_graph6(line)) == line


def test_round_trip_disconnected():
    g = disjoint_union(complete(3), path(2))
    assert parse_graph6(write_graph6(g)) == g


def test_parse_rejects_bad_header():
    with pytest.raises(Graph6ParseError):
        parse_graph6("\x1f")
    with pytest.raises(Graph6ParseError):
        parse_graph6("")


def test_parse_rejects_bad_data_byte():
    exc = pytest.raises(Graph6ParseError, parse_graph6, "C\x1f").value
    assert "offset 1" in str(exc)


def test_parse_rejects_truncation_and_garbage():
    with pytest.raises(Graph6ParseError):
        parse_graph6("C")  # needs one data byte
    with pytest.raises(Graph6ParseError):
        parse_graph6("C~~")  # one byte too many


def test_parse_rejects_nonzero_padding():
    # n=2 uses 1 bit; the remaining 5 bits must be zero
    with pytest.raises(Graph6ParseError):
        parse_graph6("A" + chr(63 + 1))
    assert parse_graph6("A" + chr(63 + 32)) == complete(2)


def test_write_size_bound():
    # the one-byte size stops at 62: header byte 126 ('~') starts the long
    # form, which covers the rest of Graph's 64 vertices
    assert write_graph6(empty(62))[0] == chr(62 + 63)
    assert write_graph6(empty(63))[:4] == "~??~"
    assert write_graph6(empty(64))[:4] == "~?@?"
    Graph(64, (0,) * 64)
    with pytest.raises(ValueError):
        Graph(65, (0,) * 65)


def _random_graph(n, seed):
    rng = random.Random(seed)
    return from_edges(
        n, [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.5]
    )


@pytest.mark.parametrize("n", [62, 63, 64])
def test_round_trip_long_form_boundary(n):
    for g in (empty(n), complete(n), path(n), _random_graph(n, n)):
        line = write_graph6(g)
        assert len(line) == (1 if n <= 62 else 4) + (n * (n - 1) // 2 + 5) // 6
        assert parse_graph6(line) == g


def test_parse_rejects_bad_long_form_size():
    body = write_graph6(empty(63))[4:]
    for bad, offset in (
        ("~??", 3),  # truncated size
        ("~?" + chr(31) + "~" + body, 2),  # size byte out of range
        ("~??}" + body, 1),  # 62 must use the one-byte form
        ("~?A?" + body, 1),  # 65 vertices
        ("~~??????" + body, 1),  # the 8-byte form, n >= 258048
    ):
        exc = pytest.raises(Graph6ParseError, parse_graph6, bad).value
        assert f"byte offset {offset})" in str(exc)


def test_long_form_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    for n in (62, 63, 64):
        g = _random_graph(n, 100 + n)
        line = write_graph6(g)
        h = nx.from_graph6_bytes(line.encode("ascii"))
        assert sorted(h.nodes) == list(range(n))
        assert sorted(tuple(sorted(e)) for e in h.edges) == sorted(g.edges())
        assert nx.to_graph6_bytes(h, header=False).rstrip(b"\n") == line.encode("ascii")


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, (1, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, (1 << 0, 1))  # loop at 0
    with pytest.raises(ValueError):
        Graph(0, ())


# ---------------------------------------------------------------------------
# complement


def test_complement_examples():
    assert complement(complete(4)) == empty(4)
    assert canonical_key(complement(cycle(5))) == canonical_key(cycle(5))
    assert canonical_key(complement(path(4))) == canonical_key(path(4))


def test_complement_involution():
    for g in generate_connected(5):
        assert complement(complement(g)) == g


# ---------------------------------------------------------------------------
# distance data


def test_distance_p3():
    dd = distance_data(path(3))
    assert dd.dist == ((0, 1, 2), (1, 0, 1), (2, 1, 0))
    assert dd.trs == (3, 2, 3)
    assert dd.diameter == 2
    assert dd.connected


def test_distance_star():
    dd = distance_data(star(3))  # hub is vertex 3
    assert dd.trs == (5, 5, 5, 3)
    assert dd.deg == (1, 1, 1, 3)
    assert dd.diameter == 2


def test_distance_disconnected():
    dd = distance_data(empty(2))
    assert not dd.connected
    assert dd.trs is None and dd.diameter is None
    assert dd.dist[0][1] == -1


def test_distance_one_iff_adjacent():
    for g in generate_connected(6):
        dd = distance_data(g)
        for u in range(6):
            for v in range(6):
                assert (dd.dist[u][v] == 1) == g.has_edge(u, v)
                assert dd.dist[u][v] == dd.dist[v][u]


def test_handshake():
    for g in generate_connected(6):
        assert sum(g.degrees()) % 2 == 0
        assert sum(g.degrees()) == 2 * g.edge_count


# ---------------------------------------------------------------------------
# canonical keys


def test_canonical_key_relabelings():
    a = from_edges(3, [(0, 1), (1, 2)])
    b = from_edges(3, [(1, 0), (0, 2)])
    assert canonical_key(a) == canonical_key(b)
    assert canonical_key(a) != canonical_key(complete(3))
    assert canonical_key(complete(4)) == b"C~"


def test_canonical_key_size_bound():
    with pytest.raises(UnsupportedSizeError):
        canonical_key(empty(9))


def _brute_force_key(g):
    best = None
    for perm in permutations(range(g.n)):
        relabeled = from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        s = write_graph6(relabeled)
        if best is None or s < best:
            best = s
    return best.encode("ascii")


def test_canonical_key_matches_brute_force():
    for n in (3, 4, 5):
        for g in generate_connected(n):
            assert canonical_key(g) == _brute_force_key(g)
            cg = complement(g)
            assert canonical_key(cg) == _brute_force_key(cg)


def test_canonical_key_matches_brute_force_random():
    import random

    rng = random.Random(17)
    for n, reps in ((6, 40), (7, 10)):
        for _ in range(reps):
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ]
            g = from_edges(n, edges)
            assert canonical_key(g) == _brute_force_key(g)


def test_canonical_key_matches_brute_force_symmetric_graphs():
    cube = from_edges(
        8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
            (0, 4), (1, 5), (2, 6), (3, 7)]
    )
    for g in (cycle(6), complete(6), star(5), cycle(8), cube):
        assert canonical_key(g) == _brute_force_key(g)


# ---------------------------------------------------------------------------
# generators


def test_generate_connected_counts():
    for n, want in [(4, 6), (5, 21), (6, 112), (7, 853)]:
        assert sum(1 for _ in generate_connected(n)) == want


def test_generate_connected_sorted_deduped():
    lines = connected_graph6_lines(6)
    assert list(lines) == sorted(lines)
    assert len(set(lines)) == len(lines)
    for g in generate_connected(6):
        assert g.is_connected()


def test_generate_connected_bounds():
    with pytest.raises(UnsupportedSizeError):
        next(generate_connected(10))
    with pytest.raises(UnsupportedSizeError):
        next(generate_connected(1))


def test_generator_bound_checked_before_any_work(monkeypatch):
    # out-of-range sizes fail at once: no recursion, no canonical form
    def no_canonical_form(n, rows):
        raise AssertionError(f"canonical form computed at n = {n}")

    monkeypatch.setattr(graphs, "_canonical_g6", no_canonical_form)
    cold = lru_cache(maxsize=None)(graphs.connected_graph6_lines.__wrapped__)
    monkeypatch.setattr(graphs, "connected_graph6_lines", cold)
    for n in (0, -1, 10):
        with pytest.raises(UnsupportedSizeError, match="external graph6 file"):
            graphs.connected_graph6_lines(n)
    assert graphs.connected_graph6_lines(1) == ("@",)


def test_generator_matches_networkx_atlas():
    # the atlas lists every graph on at most 7 vertices, built independently
    nx = pytest.importorskip("networkx")
    keys = {n: set() for n in range(1, 8)}
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if n and nx.is_connected(h):
            keys[n].add(canonical_key(from_edges(n, h.edges())).decode("ascii"))
    for n in range(1, 8):
        assert keys[n] == set(connected_graph6_lines(n))
    assert [len(keys[n]) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]


def test_generator_n8_digest():
    text = "\n".join(connected_graph6_lines(8)) + "\n"
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == (
        "370179f0d16fe7beee1c5b3baca8898cf6f0f9154058486f03031eec0611a145"
    )


def test_generator_prunes_canonical_forms(monkeypatch):
    # a cold n <= 7 build in a private cache, so the shared one is untouched;
    # extending every parent by every mask takes 7,815 canonical forms
    want = connected_graph6_lines(7)
    calls = []
    canonical = graphs._canonical_g6
    monkeypatch.setattr(
        graphs, "_canonical_g6", lambda n, rows: calls.append(n) or canonical(n, rows)
    )
    cold = lru_cache(maxsize=None)(graphs.connected_graph6_lines.__wrapped__)
    monkeypatch.setattr(graphs, "connected_graph6_lines", cold)
    assert graphs.connected_graph6_lines(7) == want
    assert cold.cache_info().currsize == 7
    assert len(calls) <= 1500


def test_canonical_key_in_generator_output():
    # any relabelling of any connected graph keys to one generated line
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def relabelled_connected(draw):
        n = draw(st.integers(2, 8))
        # a random tree, then random extra edges, under a random labelling
        edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
        pairs = [(u, v) for v in range(n) for u in range(v)]
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))
        perm = draw(st.permutations(range(n)))
        return from_edges(n, [(perm[u], perm[v]) for u, v in edges])

    levels = {n: set(connected_graph6_lines(n)) for n in range(2, 9)}

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(relabelled_connected())
    def check(g):
        assert canonical_key(g).decode("ascii") in levels[g.n]

    check()


def test_connected_complement_counts():
    for n, want in [(4, 1), (5, 8), (6, 68), (7, 662)]:
        got = sum(1 for g in generate_connected(n) if complement(g).is_connected())
        assert got == want


def test_diam2_pair_counts():
    for n, want in [(6, 2), (7, 18)]:
        got = 0
        for g in generate_connected(n):
            cg = complement(g)
            if not cg.is_connected():
                continue
            if distance_data(g).diameter == 2 and distance_data(cg).diameter == 2:
                got += 1
        assert got == want


def test_generate_trees():
    for n, want in [(1, 1), (4, 2), (7, 11), (9, 47), (10, 106)]:
        assert len(generate_trees(n)) == want
    for t in generate_trees(8):
        assert t.is_connected() and t.edge_count == t.n - 1
    a = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    b = from_edges(4, [(2, 0), (0, 3), (3, 1)])
    assert tree_key(a) == tree_key(b)
    with pytest.raises(UnsupportedSizeError):
        generate_trees(13)


# ---------------------------------------------------------------------------
# graph6 line streams


def test_iter_graph6_lines_skips_comments():
    lines = [">>graph6<<", "", "C~", "Ch"]
    got = list(iter_graph6_lines(lines))
    assert [lineno for lineno, _ in got] == [3, 4]
    assert got[0][1] == complete(4)
    # the optional header may run into the first graph with no line end
    got = list(iter_graph6_lines([">>graph6<<Ch", "Cl"]))
    assert [lineno for lineno, _ in got] == [1, 2]
    assert got[0][1] == parse_graph6("Ch") and got[1][1] == parse_graph6("Cl")


def test_iter_graph6_lines_reports_line_numbers():
    exc = pytest.raises(
        Graph6ParseError, lambda: list(iter_graph6_lines(["C~", "C!!"]))
    ).value
    assert "line 2" in str(exc)


def test_iter_graph6_lines_errors_keep_byte_offset():
    exc = pytest.raises(
        Graph6ParseError, lambda: list(iter_graph6_lines(["C~", "C!!"]))
    ).value
    assert (exc.lineno, exc.offset) == (2, 2)
    assert str(exc) == "line 2: trailing garbage after graph6 data (byte offset 2)"


def test_generate_connected_checks_bounds_at_call():
    # a plain function: the bounds fail at the call, with no next()
    for n in (0, 1, 10):
        with pytest.raises(UnsupportedSizeError):
            generate_connected(n)

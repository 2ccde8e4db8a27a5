import hashlib
import pickle
import random
from functools import lru_cache
from itertools import permutations
from pathlib import Path

import pytest

from cospec import graphs
from cospec.errors import ConnectivityError, Graph6ParseError, UnsupportedSizeError, at_line
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
from kernel_reference import reference_canonical_columns


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
    exc = pytest.raises(Graph6ParseError, parse_graph6, "?").value
    assert str(exc) == "graph6 encodes an empty vertex set (byte offset 0)"


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


def test_parse_padding_error_names_the_last_data_byte():
    # the padding bits all sit in the last data byte, so every nonzero one
    # is reported there; a bad data byte earlier in the line wins
    for n in (2, 7, 63):
        line = write_graph6(empty(n))
        start, last = (1 if n <= 62 else 4), len(line) - 1
        pad = (-(n * (n - 1) // 2)) % 6
        assert pad
        for i in range(pad):
            bad = line[:last] + chr(63 + (1 << i))
            exc = pytest.raises(Graph6ParseError, parse_graph6, bad).value
            assert (str(exc), exc.offset) == (f"nonzero padding bit (byte offset {last})", last)
            worse = bad[:start] + "!" + bad[start + 1:]
            exc = pytest.raises(Graph6ParseError, parse_graph6, worse).value
            assert (str(exc), exc.offset) == (f"data byte 33 outside [63, 126] (byte offset {start})", start)
    # n = 4 fills its one data byte exactly: the low bit is the pair (2, 3)
    assert parse_graph6("C" + chr(63 + 1)) == from_edges(4, [(2, 3)])


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
    for n, rows, message in [
        (2, (2, 0), "adjacency not symmetric at (0, 1)"),
        (2, (1 << 0, 1), "loop at vertex 0"),
        (2, (0,), "adjacency rows do not match the vertex count"),
        (2, (4, 0), "row 0 has bits beyond vertex 1"),
        (0, (), "vertex count 0 outside [1, 64]"),
    ]:
        with pytest.raises(ValueError) as exc:
            Graph(n, rows)
        assert str(exc.value) == message
    for edges, bad in [([(0, 3)], "(0, 3)"), ([(0, 1), (-1, 2)], "(-1, 2)")]:
        with pytest.raises(ValueError) as exc:
            from_edges(3, edges)
        assert str(exc.value) == f"edge {bad} has a vertex outside [0, 2]"


def test_parse_and_complement_build_valid_graphs():
    # parse_graph6 and complement skip Graph's checks; each graph they build
    # passes them all. A graph or its complement is connected, so the
    # connected classes and their complements cover every graph with n <= 7
    # up to isomorphism; random labelled graphs reach the long form.
    built = []
    for n in range(1, 8):
        for line in connected_graph6_lines(n):
            g = parse_graph6(line)
            cg = complement(g)
            built += [g, cg, parse_graph6(write_graph6(cg))]
    assert len(built) == 3 * 996
    rng = random.Random(5)
    for n in (8, 20, 62, 63, 64):
        pairs = [(u, v) for v in range(n) for u in range(v) if rng.getrandbits(1)]
        g = parse_graph6(write_graph6(from_edges(n, pairs)))
        built += [g, complement(g)]
    for h in built:
        assert type(h.rows) is tuple
        checked = Graph(h.n, h.rows)
        assert checked == h and hash(checked) == hash(h)


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
    assert star(3).degrees() == (1, 1, 1, 3)
    assert dd.diameter == 2


def test_distance_disconnected():
    dd = distance_data(empty(2))
    assert not dd.connected
    assert dd.trs is None and dd.diameter is None
    assert dd.dist[0][1] == -1


def test_distance_data_is_computed_once_per_graph(monkeypatch):
    runs = []
    bfs = graphs._bfs
    monkeypatch.setattr(graphs, "_bfs", lambda g: runs.append(g) or bfs(g))
    g = path(4)
    assert distance_data(g) is distance_data(g)
    assert runs == [g]
    # equal graphs built differently stay equal and hash equal, whether or
    # not their distance data has been computed, and they pickle
    h = parse_graph6(write_graph6(g))
    k = complement(complement(g))
    for _ in range(2):
        assert g == h == k and hash(g) == hash(h) == hash(k) and repr(g) == repr(h)
        for x in (g, h, k):
            back = pickle.loads(pickle.dumps(x))
            assert back == x and hash(back) == hash(x)
            assert distance_data(back) == distance_data(g)
        distance_data(h)
        distance_data(k)


def test_distance_one_iff_adjacent():
    for g in generate_connected(6):
        dd = distance_data(g)
        for u in range(6):
            for v in range(6):
                assert (dd.dist[u][v] == 1) == g.has_edge(u, v)
                assert dd.dist[u][v] == dd.dist[v][u]


def test_distance_data_matches_networkx():
    # every connected graph with n <= 7 and its complement, disconnected
    # ones included: an unreachable pair is -1, trs and diameter None
    nx = pytest.importorskip("networkx")
    disconnected = 0
    for n in range(1, 8):
        for line in connected_graph6_lines(n):
            g = parse_graph6(line)
            for h in (g, complement(g)):
                ref = nx.Graph()
                ref.add_nodes_from(range(n))
                ref.add_edges_from(h.edges())
                lengths = dict(nx.all_pairs_shortest_path_length(ref))
                dd = distance_data(h)
                assert dd.dist == tuple(
                    tuple(lengths[u].get(v, -1) for v in range(n)) for u in range(n)
                )
                assert h.degrees() == tuple(d for _, d in sorted(ref.degree()))
                assert dd.connected == nx.is_connected(ref)
                if dd.connected:
                    assert dd.trs == tuple(sum(lengths[u].values()) for u in range(n))
                    assert dd.diameter == nx.diameter(ref)
                else:
                    disconnected += 1
                    assert dd.trs is None and dd.diameter is None
    assert disconnected > 0


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


def test_canonical_columns_match_reference_search():
    # the search that scans only when every frontier is one vertex chooses
    # the same columns as the one that scans every extension
    def check(g):
        assert graphs._canonical_columns(g.n, g.rows) == reference_canonical_columns(g.n, g.rows)

    for n in range(1, 7):
        pairs = [(u, v) for v in range(n) for u in range(v)]
        for bits in range(1 << len(pairs)):
            check(from_edges(n, [e for k, e in enumerate(pairs) if bits >> k & 1]))
    rng = random.Random(32)
    n8 = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "n8.g6"
    lines = n8.read_text().split()
    perm = list(range(8))
    for line in rng.sample(lines, 2000):
        rng.shuffle(perm)
        g = from_edges(8, [(perm[u], perm[v]) for u, v in parse_graph6(line).edges()])
        check(g)
        check(complement(g))
    for n in range(9, 13):
        # 300 graphs G(n, p) per n, 100 at each edge probability p
        pairs = [(u, v) for v in range(n) for u in range(v)]
        for k in range(300):
            p = (0.2, 0.5, 0.8)[k % 3]
            check(from_edges(n, [e for e in pairs if rng.random() < p]))


def _pairwise_twins(n, rows):
    # u and v are twins when N(u) - {v} = N(v) - {u}
    return [
        sum(1 << u for u in range(n)
            if rows[u] & ~(1 << v) == rows[v] & ~(1 << u))
        for v in range(n)
    ]


def test_twin_classes_match_pairwise_definition():
    for n in range(1, 8):
        for line in connected_graph6_lines(n):
            g = parse_graph6(line)
            for h in (g, complement(g)):
                assert graphs._twin_classes(h.rows) == _pairwise_twins(n, h.rows), line
    rng = random.Random(20)
    for n in range(1, 15):
        for _ in range(40):
            p = rng.random()
            g = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                               if rng.random() < p])
            assert graphs._twin_classes(g.rows) == _pairwise_twins(n, g.rows)


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
    # extending every parent by every mask takes 7,815 canonical forms, and
    # the degree prefilter skips only masks that the inv rule rejects
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
    assert len(calls) == 1305


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


def test_tree_key_refuses_a_non_tree():
    # a cycle once stalled the leaf peeling forever; a forest with n - 1
    # edges or fewer is refused as well
    for g, why in [
        (cycle(4), "edge count"),
        (from_edges(4, [(0, 1), (2, 3)]), "edge count"),
        (from_edges(5, [(0, 1), (1, 2), (2, 0), (3, 4)]), "disconnected"),
        (disjoint_union(star(3), complete(1)), "edge count"),
        (disjoint_union(cycle(3), complete(1)), "disconnected"),
    ]:
        with pytest.raises(ValueError, match=f"not a tree: .*{why}"):
            tree_key(g)
    assert tree_key(complete(1)) == "()" and tree_key(path(2)) == "(())"


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


def test_at_line_keeps_type_and_attributes():
    # the copy names the line; the original error is left as it was
    for exc in (ConnectivityError("graph is disconnected"), ValueError("bad value")):
        exc.note = "kept"
        got = at_line(exc, 7)
        assert type(got) is type(exc)
        assert (str(got), got.lineno, got.note) == (f"line 7: {exc}", 7, "kept")
        assert not hasattr(exc, "lineno")
    # a parse error keeps its byte offset, also across pickle (the worker path)
    got = at_line(Graph6ParseError("nonzero padding bit", offset=3), 5)
    back = pickle.loads(pickle.dumps(got))
    assert type(back) is Graph6ParseError
    assert (str(back), back.lineno, back.offset) == (
        "line 5: nonzero padding bit (byte offset 3)", 5, 3)


def test_generate_connected_checks_bounds_at_call():
    # a plain function: the bounds fail at the call, with no next()
    for n in (0, 1, 10):
        with pytest.raises(UnsupportedSizeError):
            generate_connected(n)

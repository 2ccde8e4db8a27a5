import gc
import weakref
from itertools import combinations
from math import gcd

import pytest

from cospec.closed_forms import (
    TreeData,
    minimal_two_matchings,
    multipartite_snf,
    rho,
    star_snf,
    tree_delta_n,
    tree_snf,
)
from cospec.errors import ConsistencyError, UnsupportedSizeError
from cospec.graphs import (
    complete,
    complete_multipartite,
    cycle,
    disjoint_union,
    distance_data,
    from_edges,
    generate_trees,
    path,
    star,
    tree_key,
)
from cospec.intlinalg import determinant, smith_normal_form
from cospec.matrices import MatrixKind, build_matrix

K = MatrixKind


def test_star_snf_values():
    assert star_snf(3).d == (1, 1, 5, 60)
    assert star_snf(2).d == (1, 1, 12)
    assert star_snf(4).d == (1, 1, 7, 7, 168)
    with pytest.raises(ValueError):
        star_snf(1)


def test_star_snf_matches_direct():
    for k in range(2, 8):
        g = star(k)
        for kind in (K.TRANSMISSION_ADJACENCY, K.SIGNLESS_TRANSMISSION_ADJACENCY):
            assert smith_normal_form(build_matrix(g, kind)).d == star_snf(k).d


def test_tree_data_validation():
    with pytest.raises(ValueError):
        TreeData.from_graph(cycle(4))
    td = TreeData.from_graph(star(3))
    assert td.c == (4, 4, 4, 0)  # leaves carry 2k - 2 = 4, the hub 0
    # c(u) = 0 exactly for a dominating vertex
    assert [v for v, c in enumerate(td.c) if c == 0] == [3]


def test_tree_data_and_tree_key_refuse_the_same_non_trees():
    for g, why in [
        (cycle(4), "edge count differs from n - 1"),
        (disjoint_union(cycle(3), complete(1)), "graph is disconnected"),
    ]:
        for refuse in (TreeData.from_graph, tree_key):
            with pytest.raises(ValueError) as exc:
                refuse(g)
            assert str(exc.value) == f"not a tree: {why}"


def test_rho_keeps_no_tree_alive():
    # the edge sides rho reads are kept on the TreeData, outside its eq,
    # hash and repr, so the tree is freed with it
    tree = path(5)
    ref = weakref.ref(tree)
    t = TreeData.from_graph(tree)
    assert rho(t, (0, 4)) == 4
    same = TreeData(tree, t.c)
    assert (t == same, hash(t) == hash(same), repr(t) == repr(same)) == (True, True, True)
    del tree, t, same
    gc.collect()
    assert ref() is None


def test_minimal_two_matchings_examples():
    p2 = TreeData.from_graph(path(2))
    got = minimal_two_matchings(p2, 1)
    assert len(got) == 1 and got[0].edges == frozenset({(0, 1)}) and not got[0].loops

    k13 = TreeData.from_graph(star(3))
    got = minimal_two_matchings(k13, 2)
    assert len(got) == 3
    assert all(len(m.edges) == 2 and not m.loops for m in got)

    got = minimal_two_matchings(k13, 0)
    assert len(got) == 1 and got[0].size == 0

    with pytest.raises(UnsupportedSizeError):
        minimal_two_matchings(TreeData.from_graph(path(13)), 2)


def test_tree_snf_examples():
    assert tree_snf(TreeData.from_graph(star(3))).d == (1, 1, 5, 60)
    assert tree_snf(TreeData.from_graph(path(3))).d == (1, 1, 12)
    assert tree_snf(TreeData.from_graph(path(4))).d == (1, 1, 1, 493)
    with pytest.raises(ValueError):
        tree_snf(TreeData.from_graph(path(2)))


def test_tree_snf_count_minimal_counterexample():
    # the 5-vertex chair: count-minimal loop sets alone would give
    # Delta_4 = 8; the true value is 1
    chair = from_edges(5, [(0, 1), (0, 2), (0, 4), (1, 3)])
    td = TreeData.from_graph(chair)
    direct = smith_normal_form(build_matrix(chair, K.TRANSMISSION_ADJACENCY))
    assert direct.d == (1, 1, 1, 1, 15536)
    assert tree_snf(td).d == direct.d


def test_tree_theorem_small():
    for n in range(3, 8):
        for t in generate_trees(n):
            td = TreeData.from_graph(t)
            chain = tree_snf(td).d
            assert chain == smith_normal_form(build_matrix(t, K.TRANSMISSION_ADJACENCY)).d
            assert chain == smith_normal_form(
                build_matrix(t, K.SIGNLESS_TRANSMISSION_ADJACENCY)
            ).d


def test_rho_examples():
    p3 = TreeData.from_graph(path(3))
    assert rho(p3, (0,)) == 1
    assert rho(p3, (0, 2)) == 2
    k14 = TreeData.from_graph(star(4))  # hub is vertex 4
    for leaves in [(0, 1), (0, 1, 2), (0, 1, 2, 3)]:
        assert rho(k14, leaves) == len(leaves)
    with pytest.raises(ValueError):
        rho(p3, ())
    for U, bad in [((0, 7), 7), ((-1, 0), -1), ((3,), 3)]:
        with pytest.raises(ValueError) as exc:
            rho(p3, U)
        assert str(exc.value) == f"rho: vertex {bad} is not in the tree (n = 3)"


def test_rho_matches_its_definition():
    # every tree on at most 8 vertices and every nonempty vertex subset U:
    # count the (|U| - 1)-subsets of edges that meet every u-v path of U,
    # with edge (a, b) on the u-v path when it lies on a shortest walk
    for n in range(1, 9):
        for tree in generate_trees(n):
            t = TreeData.from_graph(tree)
            dist = distance_data(tree).dist
            edges = list(tree.edges())

            def on_path(e, u, v):
                a, b = e
                return (
                    dist[u][a] + 1 + dist[b][v] == dist[u][v]
                    or dist[u][b] + 1 + dist[a][v] == dist[u][v]
                )

            for size in range(1, n + 1):
                for U in combinations(range(n), size):
                    want = sum(
                        all(
                            any(on_path(e, u, v) for e in subset)
                            for u, v in combinations(U, 2)
                        )
                        for subset in combinations(edges, size - 1)
                    )
                    assert rho(t, U) == want, (tree, U)


def test_tree_delta_n_examples():
    assert tree_delta_n(TreeData.from_graph(star(3))) == 300
    assert tree_delta_n(TreeData.from_graph(path(3))) == 12
    assert tree_delta_n(TreeData.from_graph(path(4))) == 493


def test_tree_delta_n_names_the_routes_that_disagree(monkeypatch):
    import cospec.closed_forms as closed_forms

    det = closed_forms.determinant
    monkeypatch.setattr(closed_forms, "determinant", lambda m: det(m) + 1)
    with pytest.raises(ConsistencyError) as info:
        tree_delta_n(TreeData.from_graph(path(4)))
    assert str(info.value) == ("Delta_n routes disagree: determinant = 494, "
                               "invariant factor product = 493, rho sum = 493")


def test_star_delta_closed_form():
    # 2k(k-1)(2k-1)^(k-1) for the star with k leaves
    for k in range(2, 7):
        want = 2 * k * (k - 1) * (2 * k - 1) ** (k - 1)
        assert tree_delta_n(TreeData.from_graph(star(k))) == want


def test_star_delta_k_pattern():
    # Delta_k = (2n-1)^(k-2) for 3 <= k <= n, against brute-force minor gcds
    for leaves in (3, 4, 5):
        m = build_matrix(star(leaves), K.TRANSMISSION_ADJACENCY)
        size = leaves + 1
        for k in range(3, leaves + 1):
            g = 0
            for rows in combinations(range(size), k):
                for cols in combinations(range(size), k):
                    sub = [[m[i][j] for j in cols] for i in rows]
                    g = gcd(g, abs(determinant(sub)))
            assert g == (2 * leaves - 1) ** (k - 2)


def test_apex_identity():
    # transmission-adjacency = Laplacian + diag(c) for every tree
    for n in range(3, 8):
        for t in generate_trees(n):
            td = TreeData.from_graph(t)
            atrs = build_matrix(t, K.TRANSMISSION_ADJACENCY)
            lap = build_matrix(t, K.LAPLACIAN)
            for i in range(n):
                for j in range(n):
                    want = lap[i][j] + (td.c[i] if i == j else 0)
                    assert atrs[i][j] == want


def test_multipartite_examples():
    assert multipartite_snf(2, 2).d == (1, 1, 8, 24)
    import math
    assert math.prod(multipartite_snf(2, 2).d) == 192
    # oracle checks for the two spec examples
    g32 = complete_multipartite(3, 2)
    assert multipartite_snf(3, 2).d == smith_normal_form(
        build_matrix(g32, K.TRANSMISSION_ADJACENCY)
    ).d
    g23 = complete_multipartite(2, 3)
    assert multipartite_snf(2, 3, signless=True).d == smith_normal_form(
        build_matrix(g23, K.SIGNLESS_TRANSMISSION_ADJACENCY)
    ).d
    with pytest.raises(ValueError):
        multipartite_snf(1, 3)
    with pytest.raises(ValueError):
        multipartite_snf(3, 1)


def test_multipartite_transmission_regular():
    for m, s in [(2, 2), (3, 2), (2, 4)]:
        g = complete_multipartite(m, s)
        from cospec.graphs import distance_data

        data = distance_data(g)
        assert len(set(data.trs)) == 1
        assert data.trs[0] == m * s + s - 2

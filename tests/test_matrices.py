import pytest

from cospec.errors import ConnectivityError
from cospec.graphs import (
    complement,
    complete,
    cycle,
    distance_data,
    empty,
    from_edges,
    generate_connected,
    path,
)
from cospec.matrices import (
    ALL_KINDS,
    DISTANCE_KINDS,
    MatrixKind,
    build_matrix,
    complement_shift,
    diameter2_form,
    matrix_traces,
)
from kernel_reference import apply_shift

K = MatrixKind


def test_build_examples():
    assert build_matrix(complete(2), K.LAPLACIAN) == [[1, -1], [-1, 1]]
    assert build_matrix(path(3), K.TRANSMISSION_ADJACENCY) == [
        [3, -1, 0],
        [-1, 2, -1],
        [0, -1, 3],
    ]
    assert build_matrix(path(3), K.SIGNLESS_DEGREE_DISTANCE) == [
        [1, 1, 2],
        [1, 2, 1],
        [2, 1, 1],
    ]


def test_build_all_kinds_smoke():
    g = cycle(5)
    n = g.n
    for kind in ALL_KINDS:
        m = build_matrix(g, kind)
        assert len(m) == n and all(len(row) == n for row in m)
        assert all(m[i][j] == m[j][i] for i in range(n) for j in range(n))


def test_distance_kinds_need_connectivity():
    g = empty(3)
    for kind in DISTANCE_KINDS:
        with pytest.raises(ConnectivityError):
            build_matrix(g, kind)
    # also once g's distance data is memoized
    assert not distance_data(g).connected
    for kind in DISTANCE_KINDS:
        with pytest.raises(ConnectivityError):
            build_matrix(g, kind)
    # adjacency kinds are fine on disconnected graphs
    for kind in (K.ADJACENCY, K.LAPLACIAN, K.SIGNLESS_LAPLACIAN):
        build_matrix(g, kind)


def test_kind_tokens():
    assert MatrixKind.from_token("atrs+") is K.SIGNLESS_TRANSMISSION_ADJACENCY
    assert MatrixKind.from_token("DL") is K.DISTANCE_LAPLACIAN
    with pytest.raises(ValueError):
        MatrixKind.from_token("bogus")


def test_complement_shift_table():
    assert complement_shift(K.ADJACENCY, 5) == (-1, 1)
    assert complement_shift(K.ADJACENCY, 9) == (-1, 1)
    assert complement_shift(K.DISTANCE, 7) == (-3, 3)
    assert complement_shift(K.DISTANCE_LAPLACIAN, 5) == (15, -3)
    assert complement_shift(K.LAPLACIAN, 6) == (6, -1)
    assert complement_shift(K.SIGNLESS_LAPLACIAN, 6) == (4, 1)
    assert complement_shift(K.SIGNLESS_DISTANCE_LAPLACIAN, 6) == (12, 3)
    assert complement_shift(K.TRANSMISSION_ADJACENCY, 6) == (16, -1)
    assert complement_shift(K.SIGNLESS_TRANSMISSION_ADJACENCY, 6) == (14, 1)
    assert complement_shift(K.DEGREE_DISTANCE, 6) == (8, -3)
    assert complement_shift(K.SIGNLESS_DEGREE_DISTANCE, 6) == (2, 3)
    with pytest.raises(ValueError):
        complement_shift(K.ADJACENCY, 1)


def test_shift_identity_adjacency_kinds():
    # exhaustive n <= 6 over connected graphs with connected complement
    for n in range(4, 7):
        for g in generate_connected(n):
            cg = complement(g)
            if not cg.is_connected():
                continue
            for kind in (K.ADJACENCY, K.LAPLACIAN, K.SIGNLESS_LAPLACIAN):
                x, y = complement_shift(kind, n)
                assert build_matrix(cg, kind) == apply_shift(build_matrix(g, kind), x, y)


def _diam2_pairs(n):
    for g in generate_connected(n):
        cg = complement(g)
        if not cg.is_connected():
            continue
        if distance_data(g).diameter == 2 and distance_data(cg).diameter == 2:
            yield g, cg


def test_shift_identity_all_kinds_diam2():
    # exhaustive n <= 7 (the 218 diam-2 pairs at n = 8 run in acceptance)
    for n in (6, 7):
        for g, cg in _diam2_pairs(n):
            for kind in ALL_KINDS:
                x, y = complement_shift(kind, n)
                assert build_matrix(cg, kind) == apply_shift(build_matrix(g, kind), x, y)


def test_complement_shift_property_on_labelled_graphs():
    # random labelled connected graphs: the shift is unconditional for a, l
    # and q, and for the distance kinds (connected complement) it holds
    # exactly when both diameters are at most 2
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    pair_graphs = [g for n in (5, 6, 7) for g, _ in _diam2_pairs(n)]

    @st.composite
    def labelled_graphs(draw):
        # G(n, 1/2), or a graph of a diameter-2 pair, which G(n, 1/2) gives
        # about once in 70 draws; either relabelled at random
        if draw(st.booleans()):
            g = draw(st.sampled_from(pair_graphs))
            n, edges = g.n, list(g.edges())
        else:
            n = draw(st.integers(2, 7))
            rnd = draw(st.randoms(use_true_random=False))
            pairs = [(u, v) for v in range(n) for u in range(v)]
            edges = [p for p in pairs if rnd.random() < 0.5]
        perm = draw(st.permutations(range(n)))
        g = from_edges(n, [(perm[u], perm[v]) for u, v in edges])
        hypothesis.assume(g.is_connected())
        return g

    @hypothesis.settings(
        max_examples=100, deadline=None, derandomize=True, database=None
    )
    @hypothesis.given(labelled_graphs())
    def check(g):
        n = g.n
        cg = complement(g)
        for kind in (K.ADJACENCY, K.LAPLACIAN, K.SIGNLESS_LAPLACIAN):
            shifted = apply_shift(build_matrix(g, kind), *complement_shift(kind, n))
            assert build_matrix(cg, kind) == shifted
        if not cg.is_connected():
            return
        both_diam2 = distance_data(g).diameter <= 2 and distance_data(cg).diameter <= 2
        for kind in DISTANCE_KINDS:
            shifted = apply_shift(build_matrix(g, kind), *complement_shift(kind, n))
            assert (build_matrix(cg, kind) == shifted) == both_diam2

    check()


def _cube():
    from cospec.graphs import from_edges

    return from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7),
                          (7, 4), (0, 4), (1, 5), (2, 6), (3, 7)])


def test_regularity_relations():
    # trs + deg constant: diameter <= 2 graphs have s = 2(n-1), and
    # vertex-transitive graphs of larger diameter (C_6, C_7, the cube)
    # have s > 2(n-1); the relations hold for any constant s
    for g in (cycle(5), complete(4), cycle(4), complete(6), cycle(6), cycle(7), _cube()):
        data = distance_data(g)
        n = g.n
        s_values = {t + d for t, d in zip(data.trs, g.degrees())}
        assert len(s_values) == 1
        s = s_values.pop()
        assert s >= 2 * (n - 1)
        assert (s == 2 * (n - 1)) == (data.diameter <= 2)
        atrs = build_matrix(g, K.TRANSMISSION_ADJACENCY)
        q = build_matrix(g, K.SIGNLESS_LAPLACIAN)
        assert atrs == apply_shift(q, s, 0)  # s*I - Q
        atrsp = build_matrix(g, K.SIGNLESS_TRANSMISSION_ADJACENCY)
        lap = build_matrix(g, K.LAPLACIAN)
        assert atrsp == apply_shift(lap, s, 0)
        ddeg = build_matrix(g, K.DEGREE_DISTANCE)
        dq = build_matrix(g, K.SIGNLESS_DISTANCE_LAPLACIAN)
        assert ddeg == apply_shift(dq, s, 0)
        ddegp = build_matrix(g, K.SIGNLESS_DEGREE_DISTANCE)
        dl = build_matrix(g, K.DISTANCE_LAPLACIAN)
        assert ddegp == apply_shift(dl, s, 0)


def test_diameter2_identities():
    for n in (5, 6):
        for g in generate_connected(n):
            data = distance_data(g)
            if data.diameter > 2:
                continue
            a = build_matrix(g, K.ADJACENCY)
            d = build_matrix(g, K.DISTANCE)
            for i in range(n):
                for j in range(n):
                    assert a[i][j] + d[i][j] == (0 if i == j else 2)
            dl = build_matrix(g, K.DISTANCE_LAPLACIAN)
            lap = build_matrix(g, K.LAPLACIAN)
            for i in range(n):
                for j in range(n):
                    want = (2 * n if i == j else 0) - 2 - lap[i][j]
                    assert dl[i][j] == want


def test_diameter2_forms():
    # on a connected graph of diameter <= 2 each distance kind is
    # alpha*I + beta*J + sign*B for B = A, L or Q, as diameter2_form gives it
    for n in (2, 5, 6):
        for g in generate_connected(n):
            if distance_data(g).diameter > 2:
                continue
            for kind in DISTANCE_KINDS:
                alpha, beta, sign, base = diameter2_form(kind, n)
                assert base in (K.ADJACENCY, K.LAPLACIAN, K.SIGNLESS_LAPLACIAN)
                b = build_matrix(g, base)
                want = [[(alpha if i == j else 0) + beta + sign * v for j, v in enumerate(row)]
                        for i, row in enumerate(b)]
                assert build_matrix(g, kind) == want, (kind, g)


def test_matrix_traces():
    # tr M and ||M||_F^2 without building M, for every kind
    for g in [*generate_connected(5), complete(1)]:
        for kind in ALL_KINDS:
            m = build_matrix(g, kind)
            want = sum(m[i][i] for i in range(g.n)), sum(v * v for row in m for v in row)
            assert matrix_traces(g, kind) == want, (kind, g)
    for kind in DISTANCE_KINDS:
        with pytest.raises(ConnectivityError):
            matrix_traces(empty(3), kind)
    assert matrix_traces(empty(3), K.SIGNLESS_LAPLACIAN) == (0, 0)


def test_row_sums():
    for g in generate_connected(5):
        data = distance_data(g)
        lap = build_matrix(g, K.LAPLACIAN)
        assert all(sum(row) == 0 for row in lap)
        dl = build_matrix(g, K.DISTANCE_LAPLACIAN)
        assert all(sum(row) == 0 for row in dl)
        q = build_matrix(g, K.SIGNLESS_LAPLACIAN)
        assert [sum(row) for row in q] == [2 * d for d in g.degrees()]
        dq = build_matrix(g, K.SIGNLESS_DISTANCE_LAPLACIAN)
        assert [sum(row) for row in dq] == [2 * t for t in data.trs]

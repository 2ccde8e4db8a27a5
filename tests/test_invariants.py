import math

import pytest

from cospec.errors import ConnectivityError
from cospec.graphs import (
    complement,
    complete,
    connected_graph6_lines,
    cycle,
    disjoint_union,
    distance_data,
    empty,
    from_edges,
    generate_connected,
    parse_graph6,
    path,
    star,
)
from cospec.intlinalg import charpoly, charpoly_coeffs, determinant, snf_diagonal
from cospec.invariants import (
    Flavor,
    _charpoly_side,
    _snf_side,
    cokernel_group,
    compose_key,
    describe_fingerprint,
    fingerprint,
    fingerprint_blocks,
    is_codeterminantal_Qx,
    related,
    snf_prefix,
)
from cospec.matrices import MatrixKind, build_matrix
from cospec.polynomials import padd, pmul

K = MatrixKind
F = Flavor

SAWTOOTH_A = star(4)  # K_{1,4}
SAWTOOTH_B = disjoint_union(cycle(4), complete(1))  # C_4 + K_1


def test_sawtooth_pair_charpoly():
    # the classic cospectral pair on 5 vertices, both x^5 - 4x^3
    pa = charpoly(build_matrix(SAWTOOTH_A, K.ADJACENCY))
    pb = charpoly(build_matrix(SAWTOOTH_B, K.ADJACENCY))
    assert pa.coeffs == pb.coeffs == (0, 0, 0, -4, 0, 1)


def test_fingerprint_relabeling_invariance():
    a = cycle(5)
    b = from_edges(5, [(2, 0), (0, 3), (3, 1), (1, 4), (4, 2)])  # relabeled C_5
    for flavor in Flavor:
        for kind in (K.ADJACENCY, K.DISTANCE_LAPLACIAN):
            assert fingerprint(a, kind, flavor) == fingerprint(b, kind, flavor)


def test_related_examples():
    assert related(SAWTOOTH_A, SAWTOOTH_B, K.ADJACENCY, F.SPECTRAL)
    assert not related(SAWTOOTH_A, SAWTOOTH_B, K.ADJACENCY, F.GEN_SPECTRAL)
    for g in (path(4), cycle(5)):
        for kind in (K.ADJACENCY, K.TRANSMISSION_ADJACENCY):
            for flavor in Flavor:
                assert related(g, g, kind, flavor)


def test_related_size_mismatch():
    with pytest.raises(ValueError):
        related(path(3), path(4), K.ADJACENCY, F.SPECTRAL)


def test_relations_name_the_failing_graph():
    # a graph whose value raises is named by its position, with the error's
    # type kept; vertex counts that differ are refused before any value
    message = "graph: matrix kind 'd' needs a connected graph"
    relations = (
        lambda g, h: related(g, h, K.DISTANCE, F.SPECTRAL),
        lambda g, h: is_codeterminantal_Qx(g, h, K.DISTANCE),
    )
    for relation in relations:
        with pytest.raises(ConnectivityError) as exc:
            relation(path(3), empty(3))
        assert str(exc.value) == f"second {message}"
        with pytest.raises(ConnectivityError) as exc:
            relation(empty(3), path(3))
        assert str(exc.value) == f"first {message}"
        for pair in ((empty(3), path(4)), (path(3), empty(4))):
            with pytest.raises(ValueError) as exc:
                relation(*pair)
            assert type(exc.value) is ValueError
            assert str(exc.value) == f"vertex counts differ ({pair[0].n} vs {pair[1].n})"


def test_connectivity_requirements():
    disconnected = SAWTOOTH_B
    with pytest.raises(ConnectivityError):
        fingerprint(disconnected, K.DISTANCE, F.SPECTRAL)
    # star's complement is disconnected: generalized distance flavors refuse
    with pytest.raises(ConnectivityError):
        fingerprint(SAWTOOTH_A, K.TRANSMISSION_ADJACENCY, F.GEN_SPECTRAL)
    # ... but the plain flavor and adjacency kinds still work
    fingerprint(SAWTOOTH_A, K.TRANSMISSION_ADJACENCY, F.SPECTRAL)
    fingerprint(SAWTOOTH_A, K.ADJACENCY, F.GEN_SPECTRAL)


def test_fingerprint_byte_layout():
    # pinned serialization: ASCII decimal ints joined by ",", blocks by ";",
    # with no kind or flavor tag; the SNF of L(K2) is (1, 0)
    key = fingerprint(complete(2), K.LAPLACIAN, F.INVARIANT)
    assert key == b"1,0"


def test_fingerprint_negative_ints_roundtrip():
    key = fingerprint(complete(3), K.ADJACENCY, F.SPECTRAL)
    # charpoly x^3 - 3x - 2 ascending: (-2, -3, 0, 1)
    assert key == b"-2,-3,0,1"
    assert [int(v) for v in key.decode("ascii").split(",")] == [-2, -3, 0, 1]


def test_snf_prefix_byte_layout():
    # b"P", then the key encoding of each side's (rank, top) or (rank,)
    # part, read alike off the charpolys and off the SNF
    cases = [
        (path(4), K.ADJACENCY, b"P4,1;4,1"),  # both sides at full rank
        (cycle(4), K.LAPLACIAN, b"P3,4;2"),  # an l side of rank n - 1 keeps d_3
        (cycle(4), K.ADJACENCY, b"P2;4,1"),  # a rank-deficient a side keeps its rank only
    ]
    for g, kind, want in cases:
        charpolys = fingerprint_blocks(g, kind, F.GEN_SPECTRAL)
        factors = fingerprint_blocks(g, kind, F.GEN_INVARIANT)
        assert snf_prefix(kind, [_charpoly_side(c) for c in charpolys]) == want
        assert snf_prefix(kind, [_snf_side(d) for d in factors]) == want


def test_no_full_key_starts_with_a_prefix_mark():
    # a census keeps a lone prefix key next to full keys of the same task
    keys = 0
    for n in range(1, 7):
        for line in connected_graph6_lines(n):
            g = parse_graph6(line)
            for kind in K:
                for flavor in F:
                    try:
                        key = fingerprint(g, kind, flavor)
                    except ConnectivityError:
                        continue
                    assert not key.startswith(b"P"), (line, kind, flavor)
                    keys += 1
    assert keys == 6240


# Hypothesis properties: reproducible examples and no example database
_PROPERTY_SETTINGS = dict(deadline=None, derandomize=True, database=None)


def test_compose_key_is_injective():
    # equal keys exactly for equal block lists of the same block count,
    # with big ints, zeros, empty blocks and ints moved across the boundary
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ints = st.integers(-(2**700), 2**700) | st.integers(-10, 10)
    blocks = st.lists(ints, max_size=4)

    @st.composite
    def block_list_pairs(draw):
        k = draw(st.integers(1, 2))
        a = draw(st.lists(blocks, min_size=k, max_size=k))
        how = draw(st.sampled_from(["copy", "resplit", "fresh"]))
        if how == "copy":
            b = [list(block) for block in a]
        elif how == "resplit":
            flat = [v for block in a for v in block]
            cut = draw(st.integers(0, len(flat)))
            b = [flat[:cut], flat[cut:]] if k == 2 else [flat]
        else:
            b = draw(st.lists(blocks, min_size=k, max_size=k))
        return a, b

    @hypothesis.settings(max_examples=300, **_PROPERTY_SETTINGS)
    @hypothesis.given(block_list_pairs())
    def check(pair):
        a, b = pair
        flavor = F.SPECTRAL if len(a) == 1 else F.GEN_SPECTRAL
        key_a = compose_key(K.ADJACENCY, flavor, a)
        assert (key_a == compose_key(K.ADJACENCY, flavor, b)) == (a == b)

    check()


def _relabelled_pairs(hypothesis):
    """(g, g relabelled) for connected g on 4 to 7 vertices whose
    complement is connected too."""
    st = hypothesis.strategies

    @st.composite
    def draw_pair(draw):
        n = draw(st.integers(4, 7))
        # a random tree plus random extra edges
        edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
        pairs = [(u, v) for v in range(n) for u in range(v)]
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))
        g = from_edges(n, edges)
        hypothesis.assume(complement(g).is_connected())
        perm = draw(st.permutations(range(n)))
        return g, from_edges(n, [(perm[u], perm[v]) for u, v in edges])

    return draw_pair()


def test_every_fingerprint_is_relabelling_invariant():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=100, **_PROPERTY_SETTINGS)
    @hypothesis.given(_relabelled_pairs(hypothesis))
    def check(pair):
        g, h = pair
        for kind in K:
            for flavor in F:
                assert fingerprint(g, kind, flavor) == fingerprint(h, kind, flavor)

    check()


def test_snf_product_equals_charpoly_constant_and_determinant():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=150, **_PROPERTY_SETTINGS)
    @hypothesis.given(_relabelled_pairs(hypothesis))
    def check(pair):
        g, _ = pair
        for kind in K:
            m = build_matrix(g, kind)
            det = abs(determinant(m))
            assert math.prod(snf_diagonal(m)) == abs(charpoly_coeffs(m)[0]) == det

    check()


def test_complement_blocks_are_the_side_swapped_blocks():
    # the key of the complement is the key of g with each component's side
    # flipped, for both generalized flavors and every kind
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=100, **_PROPERTY_SETTINGS)
    @hypothesis.given(_relabelled_pairs(hypothesis))
    def check(pair):
        g, _ = pair
        cg = complement(g)
        for flavor in (F.GEN_SPECTRAL, F.GEN_INVARIANT):
            for kind in K:
                own = dict(zip(flavor.components, fingerprint_blocks(g, kind, flavor)))
                flipped = {
                    (op, 1 - side): ints
                    for (op, side), ints in zip(
                        flavor.components, fingerprint_blocks(cg, kind, flavor)
                    )
                }
                assert flipped == own

    check()


def test_describe_fingerprint():
    text = describe_fingerprint(complete(3), K.ADJACENCY, F.R_SPECTRAL)
    assert "x^3 - 3*x - 2" in text and "cof" in text
    text = describe_fingerprint(complete(2), K.LAPLACIAN, F.GEN_INVARIANT)
    assert "1 0" in text


def test_r_spectral_fingerprint_reuses_the_charpoly_block(monkeypatch):
    # the cof block is charpoly(A - J) minus the charpoly block of A, so one
    # r-spectral fingerprint computes two charpolys, not three
    import cospec.invariants as invariants

    calls = []
    real = invariants.charpoly_coeffs

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(invariants, "charpoly_coeffs", counted)
    key = fingerprint(path(4), K.ADJACENCY, F.R_SPECTRAL)
    assert len(calls) == 2
    monkeypatch.undo()
    assert key == fingerprint(path(4), K.ADJACENCY, F.R_SPECTRAL)


def test_cokernel_examples():
    got = cokernel_group(complete(3), K.LAPLACIAN)
    assert got.torsion == (3,) and got.free_rank == 1
    assert str(got) == "Z_3 + Z"
    got = cokernel_group(complete(2), K.LAPLACIAN)
    assert got.torsion == () and got.free_rank == 1
    got = cokernel_group(star(3), K.TRANSMISSION_ADJACENCY)
    assert got.torsion == (5, 60) and got.free_rank == 0


def test_codeterminantal_examples():
    assert is_codeterminantal_Qx(path(4), path(4), K.ADJACENCY)
    assert is_codeterminantal_Qx(SAWTOOTH_A, SAWTOOTH_B, K.ADJACENCY)
    assert not is_codeterminantal_Qx(path(3), complete(3), K.ADJACENCY)
    with pytest.raises(ValueError):
        is_codeterminantal_Qx(path(3), path(4), K.ADJACENCY)


def _partitions_equal(keys_a, keys_b):
    """Two labelings induce the same partition iff the key maps are
    bijective refinements of each other."""
    forward = {}
    backward = {}
    for ka, kb in zip(keys_a, keys_b):
        if forward.setdefault(ka, kb) != kb:
            return False
        if backward.setdefault(kb, ka) != ka:
            return False
    return True


def test_gen_spectral_equals_r_spectral_small():
    # generalized cospectrality coincides with the (charpoly, cof) pair
    # for the unconditional kinds, exhaustive n <= 6
    for n in (4, 5, 6):
        graphs = list(generate_connected(n))
        for kind in (K.ADJACENCY, K.LAPLACIAN, K.SIGNLESS_LAPLACIAN):
            gen_keys = [fingerprint(g, kind, F.GEN_SPECTRAL) for g in graphs]
            r_keys = [fingerprint(g, kind, F.R_SPECTRAL) for g in graphs]
            assert _partitions_equal(gen_keys, r_keys)


def _diam2_pair_graphs(n):
    graphs = []
    for g in generate_connected(n):
        cg = complement(g)
        if (
            cg.is_connected()
            and distance_data(g).diameter == 2
            and distance_data(cg).diameter == 2
        ):
            graphs.append(g)
    return graphs


@pytest.mark.parametrize("n,count", [(7, 18), (8, 218)])
def test_kind_group_partitions_diam2(n, count):
    # within diam-2 pairs: gen-A = gen-D partition,
    # gen-L = gen-{DL, DDEG+, ATRS+}, gen-Q = gen-{DQ, DDEG, ATRS}
    graphs = _diam2_pair_graphs(n)
    assert len(graphs) == count
    groups = [
        (K.ADJACENCY, (K.DISTANCE,)),
        (
            K.LAPLACIAN,
            (K.DISTANCE_LAPLACIAN, K.SIGNLESS_DEGREE_DISTANCE, K.SIGNLESS_TRANSMISSION_ADJACENCY),
        ),
        (
            K.SIGNLESS_LAPLACIAN,
            (K.SIGNLESS_DISTANCE_LAPLACIAN, K.DEGREE_DISTANCE, K.TRANSMISSION_ADJACENCY),
        ),
    ]
    for base, others in groups:
        base_keys = [fingerprint(g, base, F.GEN_SPECTRAL) for g in graphs]
        for other in others:
            other_keys = [fingerprint(g, other, F.GEN_SPECTRAL) for g in graphs]
            assert _partitions_equal(base_keys, other_keys)


def pscale(a, k):
    if k == 0:
        return ()
    return tuple(c * k for c in a)


def _compose_at_2n_minus_x(p, n):
    """p(2n - x) for an ascending integer coefficient tuple."""
    out = ()
    lin = (2 * n, -1)
    power = (1,)
    for c in p:
        out = padd(out, pscale(power, c))
        power = pmul(power, lin)
    return out


def _check_dl_vs_l(n):
    # (2n - x) * charpoly_DL(x) == (-1)^(n-1) * x * charpoly_L(2n - x)
    # for every connected graph of diameter <= 2
    for g in generate_connected(n):
        data = distance_data(g)
        if data.diameter > 2:
            continue
        p_dl = charpoly_coeffs(build_matrix(g, K.DISTANCE_LAPLACIAN))
        p_l = charpoly_coeffs(build_matrix(g, K.LAPLACIAN))
        lhs = pmul((2 * n, -1), p_dl)
        rhs = pscale(pmul((0, 1), _compose_at_2n_minus_x(p_l, n)), (-1) ** (n - 1))
        assert lhs == rhs, (n, g)


def test_distance_laplacian_vs_laplacian_diam2():
    for n in range(4, 8):
        _check_dl_vs_l(n)


def test_distance_laplacian_vs_laplacian_diam2_n8():
    _check_dl_vs_l(8)

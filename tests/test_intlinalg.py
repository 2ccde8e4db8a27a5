import random
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest

import cospec.intlinalg
from cospec import invariants
from cospec.cli import main
from cospec.errors import ConsistencyError
from cospec.graphs import (
    complement,
    complete,
    connected_graph6_lines,
    cycle,
    disjoint_union,
    from_edges,
    parse_graph6,
    path,
    star,
    write_graph6,
)
from cospec.intlinalg import (
    charpoly_coeffs,
    checked_chain,
    cof_coeffs,
    determinant,
    determinantal_gcds_Qx,
    smith_normal_form,
    snf_diagonal,
)
from cospec.invariants import is_codeterminantal_Qx
from cospec.matrices import ALL_KINDS, MatrixKind, build_matrix
from kernel_reference import (
    berkowitz_charpoly,
    identity_matrix,
    ones_matrix,
    peval,
    pmul,
    reference_determinantal_gcds,
    reference_snf,
)

ATRS_K13 = [[5, 0, 0, -1], [0, 5, 0, -1], [0, 0, 5, -1], [-1, -1, -1, 3]]


def naive_det(m):
    """Cofactor-expansion determinant; the independent oracle."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * naive_det(minor)
    return total


def random_symmetric(rng, n, lo=-5, hi=5):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rng.randint(lo, hi)
            m[i][j] = m[j][i] = v
    return m


# ---------------------------------------------------------------------------
# determinant


def test_determinant_examples():
    assert determinant(identity_matrix(3)) == 1
    assert determinant(ATRS_K13) == 300  # 5^3*3 - 3*5^2 by cofactor expansion
    assert determinant(build_matrix(complete(3), MatrixKind.LAPLACIAN)) == 0


def test_constructors():
    assert identity_matrix(2) == [[1, 0], [0, 1]]
    assert ones_matrix(2) == [[1, 1], [1, 1]]
    assert determinant(ones_matrix(3)) == 0


def test_determinant_against_naive():
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(n)]
        assert determinant(m) == naive_det(m)


# ---------------------------------------------------------------------------
# characteristic polynomial


def test_charpoly_examples():
    assert charpoly_coeffs(build_matrix(complete(2), MatrixKind.ADJACENCY)) == (-1, 0, 1)
    assert charpoly_coeffs(build_matrix(complete(3), MatrixKind.ADJACENCY)) == (-2, -3, 0, 1)
    assert charpoly_coeffs(build_matrix(complete(2), MatrixKind.LAPLACIAN)) == (0, -2, 1)


def test_charpoly_monic_and_constant_term():
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(1, 6)
        m = random_symmetric(rng, n)
        p = charpoly_coeffs(m)
        assert len(p) == n + 1 and p[-1] == 1
        assert p[0] == (-1) ** n * determinant(m)


def _interpolated_charpoly(m):
    """Lagrange interpolation of det(xI - m) from n+1 naive-determinant
    evaluations; independent of the production path."""
    n = len(m)
    xs = list(range(n + 1))
    ys = []
    for x in xs:
        shifted = [[(x if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)]
        ys.append(naive_det(shifted))
    coeffs = [Fraction(0)] * (n + 1)
    for i, xi in enumerate(xs):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                new[d] -= c * xj
                new[d + 1] += c
            basis = new
            denom *= xi - xj
        scale = Fraction(ys[i], 1) / denom
        for d, c in enumerate(basis):
            coeffs[d] += c * scale
    assert all(c.denominator == 1 for c in coeffs)
    return tuple(int(c) for c in coeffs)


def test_charpoly_against_interpolation_oracle():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 6)
        m = random_symmetric(rng, n)
        assert charpoly_coeffs(m) == _interpolated_charpoly(m)


def _generator_matrices(max_n):
    """Every matrix kind of every generated connected graph with n <= max_n
    and of its complement, where the kind is defined."""
    for n in range(1, max_n + 1):
        for line in connected_graph6_lines(n):
            g = parse_graph6(line)
            for h in (g, complement(g)):
                connected = h.is_connected()
                for kind in ALL_KINDS:
                    if connected or not kind.requires_connected:
                        yield build_matrix(h, kind)


def test_kernels_match_reference_on_generated_graphs():
    count = 0
    for m in _generator_matrices(7):
        assert charpoly_coeffs(m) == berkowitz_charpoly(m)
        assert snf_diagonal(m) == reference_snf(m)
        count += 1
    assert count == 18128


def test_snf_facts_read_off_the_charpoly():
    # d_1 is the gcd of the entries; the rank of a symmetric matrix is n
    # minus the multiplicity of the root 0; a zero-row-sum l or dl of a
    # connected graph has rank n - 1 and d_(n-1) = |c_1| / n, its cofactor
    count = 0
    for n in range(2, 8):
        for line in connected_graph6_lines(n):
            g = parse_graph6(line)
            for kind in ALL_KINDS:
                m = build_matrix(g, kind)
                d = snf_diagonal(m)
                c = charpoly_coeffs(m)
                rank = sum(1 for v in d if v)
                assert d[0] == gcd(*(v for row in m for v in row))
                assert rank == n - next(i for i, v in enumerate(c) if v)
                if kind in (MatrixKind.LAPLACIAN, MatrixKind.DISTANCE_LAPLACIAN):
                    assert rank == n - 1 and c[1] % n == 0
                    assert prod(d[:rank]) == abs(c[1]) // n
                count += 1
    assert count == 9950


def test_charpoly_matches_reference_on_large_entries():
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(1, 12)
        bound = rng.choice((1, 10, 10**3, 10**6))
        m = random_symmetric(rng, n, -bound, bound)
        assert charpoly_coeffs(m) == berkowitz_charpoly(m)


def test_charpoly_matches_reference_on_larger_matrices():
    # the two-pivot passes end with one pivot for odd n; every n from 13
    # to 20, twice each
    rng = random.Random(13)
    for n in [*range(13, 21)] * 2:
        bound = rng.choice((1, 10, 10**3))
        m = random_symmetric(rng, n, -bound, bound)
        assert charpoly_coeffs(m) == berkowitz_charpoly(m)


def test_charpoly_rejects_non_symmetric():
    with pytest.raises(ValueError):
        charpoly_coeffs([[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        cof_coeffs([[1, 2, 3], [2, 1, 0], [3, 1, 1]])


def test_determinant_and_snf_reject_non_square():
    # a 2 x 3 matrix once gave the determinant of its left 2 x 2 block, and
    # a 3 x 2 one three invariant factors; snf_diagonal gave (1,) for
    # [[1, 2, 3]] and (1, 0) for [[1, 2], [3]]
    for m in ([[1, 2, 3], [4, 5, 6]], [[1, 0], [0, 1], [0, 0]], [[1, 0], [0]], [[1, 2, 3]],
              [[1, 2], [3]]):
        with pytest.raises(ValueError, match="square"):
            determinant(m)
        with pytest.raises(ValueError, match="square"):
            smith_normal_form(m)
        # a ragged matrix once passed the symmetry test, which zips rows
        # against columns, and crashed the elimination with an IndexError
        for fn in (charpoly_coeffs, cof_coeffs, determinantal_gcds_Qx, snf_diagonal):
            with pytest.raises(ValueError, match="square"):
                fn(m)
    assert determinant([]) == 1 and smith_normal_form([]) == ()
    assert charpoly_coeffs([]) == (1,)


def test_charpoly_decode_check(monkeypatch):
    # a digit size too small for the coefficients must not decode silently
    monkeypatch.setattr(cospec.intlinalg, "isqrt", lambda v: 0)
    with pytest.raises(ConsistencyError):
        charpoly_coeffs([[100]])


def test_charpoly_trace_check(monkeypatch):
    # with digits too small, [[0, 5], [5, 0]] decodes to the monic
    # x^2 - 2x + 7 instead of x^2 - 25; its c_1 is not -tr M
    assert charpoly_coeffs([[0, 5], [5, 0]]) == (-25, 0, 1)
    monkeypatch.setattr(cospec.intlinalg, "isqrt", lambda v: 0)
    with pytest.raises(ConsistencyError, match="traces"):
        charpoly_coeffs([[0, 5], [5, 0]])


def test_kernels_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(10)
    for _ in range(25):
        n = rng.randint(1, 6)
        m = random_symmetric(rng, n, -9, 9)
        x = sympy.Symbol("x")
        want = sympy.Poly(sympy.Matrix(m).charpoly(x).as_expr(), x).all_coeffs()
        assert charpoly_coeffs(m) == tuple(int(c) for c in reversed(want))
        d = sympy_snf(sympy.Matrix(m), domain=sympy.ZZ)
        got = checked_chain(snf_diagonal(m))  # validates the divisor chain
        assert sorted(got) == sorted(abs(int(d[i, i])) for i in range(n))


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_examples():
    butterfly = from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)])
    assert smith_normal_form(build_matrix(complete(5), MatrixKind.ADJACENCY)) == (1, 1, 1, 1, 4)
    assert smith_normal_form(build_matrix(butterfly, MatrixKind.ADJACENCY)) == (1, 1, 1, 1, 4)
    assert smith_normal_form(build_matrix(complete(2), MatrixKind.LAPLACIAN)) == (1, 0)
    assert smith_normal_form(ATRS_K13) == (1, 1, 5, 60)


def gcd_of_minors_snf(m):
    """Delta_k / Delta_{k-1} oracle from brute-force minor gcds."""
    n = len(m)
    deltas = [1]
    for k in range(1, n + 1):
        g = 0
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                g = gcd(g, abs(naive_det([[m[i][j] for j in cols] for i in rows])))
            if g == 1:
                break
        deltas.append(g)
    d = []
    for k in range(1, n + 1):
        if deltas[k] == 0:
            d.extend([0] * (n - k + 1))
            break
        d.append(deltas[k] // deltas[k - 1])
    return tuple(d)


def test_snf_against_minor_oracle():
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randint(1, 6)
        m = random_symmetric(rng, n, -5, 5)
        assert smith_normal_form(m) == gcd_of_minors_snf(m)


def test_snf_singular_and_rank():
    m = [[2, 4], [4, 8]]
    assert smith_normal_form(m) == (2, 0)
    assert smith_normal_form([[0, 0], [0, 0]]) == (0, 0)
    assert invariants._snf_side(smith_normal_form(ATRS_K13)) == (4, 4, 300)


def test_snf_product_rule():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = random_symmetric(rng, n)
        det = determinant(m)
        if det:
            assert prod(v for v in smith_normal_form(m) if v) == abs(det)


def test_invariant_factors_validation():
    for bad, message in (((2, 3), "d_1 = 2 does not divide d_2 = 3"),
                         ((1, 0, 2), "zero invariant factors must form a trailing block"),
                         ((-1,), "invariant factor d_1 = -1 is negative")):
        with pytest.raises(ConsistencyError) as exc:
            checked_chain(bad)
        assert str(exc.value) == message
    assert checked_chain([1, 2, 0]) == (1, 2, 0)


def test_a_broken_snf_chain_is_a_consistency_error(monkeypatch, capsys):
    # an SNF whose trailing nonzero factors 1, 21 become 3, 7 (rank and
    # product kept) is a fault of the kernel, not of the input
    snf = cospec.intlinalg.snf_diagonal

    def snf_diagonal(m):
        d = list(snf(m))
        last = max(i for i, v in enumerate(d) if v)
        if d[last - 1:last + 1] == [1, 21]:
            d[last - 1:last + 1] = [3, 7]
        return tuple(d)

    m = build_matrix(parse_graph6("E@Vw"), MatrixKind.LAPLACIAN)
    assert smith_normal_form(m) == (1, 1, 1, 1, 21, 0)
    monkeypatch.setattr(cospec.intlinalg, "snf_diagonal", snf_diagonal)
    with pytest.raises(ConsistencyError) as exc:
        smith_normal_form(m)
    assert str(exc.value) == "d_4 = 3 does not divide d_5 = 7"
    assert main(["snf", "--kind", "l", "E@Vw"]) == 1
    assert capsys.readouterr() == ("", "cospec: d_4 = 3 does not divide d_5 = 7\n")


# ---------------------------------------------------------------------------
# cof polynomial


def test_cof_examples():
    a2 = build_matrix(complete(2), MatrixKind.ADJACENCY)
    assert cof_coeffs(a2) == (2, 2)
    assert cof_coeffs([[0]]) == (1,)
    # Matrix-Tree: every signed cofactor of -L(K_3) is the spanning-tree
    # count 3, and cof sums all nine of them
    l3 = build_matrix(complete(3), MatrixKind.LAPLACIAN)
    neg = [[-v for v in row] for row in l3]
    cof_sum = 0
    for i in range(3):
        for j in range(3):
            minor = [
                [neg[r][c] for c in range(3) if c != j] for r in range(3) if r != i
            ]
            cof_sum += (-1) ** (i + j) * naive_det(minor)
    assert cof_sum == 9 * 3
    assert cof_coeffs(l3)[0] == cof_sum


def test_cof_lemma_random():
    # det(xI - M + yJ) at x0 equals charpoly(x0) + y * cof(x0)
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(1, 6)
        m = random_symmetric(rng, n)
        p = charpoly_coeffs(m)
        c = cof_coeffs(m)
        for y in (-2, 1, 3):
            for x0 in (0, 1, 7):
                shifted = [
                    [(x0 if i == j else 0) + y - m[i][j] for j in range(n)]
                    for i in range(n)
                ]
                assert determinant(shifted) == peval(p, x0) + y * peval(c, x0)


def test_cof_degree_bound():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 6)
        c = cof_coeffs(random_symmetric(rng, n))
        assert len(c) <= n  # degree at most n - 1


# ---------------------------------------------------------------------------
# determinantal gcds over Q[x]


def test_determinantal_gcds_examples():
    a3 = build_matrix(complete(3), MatrixKind.ADJACENCY)
    assert determinantal_gcds_Qx(a3) == ((1,), (1, 1), (-2, -3, 0, 1))
    # g_k for k = 1..n: none for a 0 x 0 matrix, g_1 = det(xI - m) for 1 x 1
    assert determinantal_gcds_Qx([]) == ()
    assert determinantal_gcds_Qx([[0]]) == ((0, 1),)
    assert determinantal_gcds_Qx([[5]]) == ((-5, 1),)
    a2 = build_matrix(complete(2), MatrixKind.ADJACENCY)
    assert determinantal_gcds_Qx(a2) == ((1,), (-1, 0, 1))


def test_determinantal_gcds_quotient_chain_k3():
    a3 = build_matrix(complete(3), MatrixKind.ADJACENCY)
    g = determinantal_gcds_Qx(a3)
    # quotients 1, x+1, (x+1)(x-2)
    assert g[1] == (1, 1)
    q3_num = g[2]
    assert q3_num == (-2, -3, 0, 1)  # (x+1)^2 (x-2)


def _poly_divides(a, b):
    """a | b over Q[x] for int or Fraction coefficient tuples."""
    if not a:
        return not b
    b = list(b)
    da, la = len(a) - 1, a[-1]
    while len(b) - 1 >= da and any(b):
        while b and b[-1] == 0:
            b.pop()
        if len(b) - 1 < da:
            break
        q = Fraction(b[-1], la)
        shift = len(b) - 1 - da
        for i in range(da + 1):
            b[shift + i] -= q * a[i]
        b.pop()
    return not any(b)


def test_determinantal_gcds_properties(monkeypatch):
    rng = random.Random(8)
    for _ in range(10):
        n = rng.randint(1, 5)
        m = random_symmetric(rng, n, -3, 3)
        divisors = determinantal_gcds_Qx(m)
        assert divisors[-1] == charpoly_coeffs(m)
        for g in divisors:
            assert g[-1] == 1 and all(type(v) is int for v in g), g
        for a, b in zip(divisors, divisors[1:]):
            if a and b:
                assert _poly_divides(a, b)
    # a gcd that is not monic is a fault of the kernel, not normalised away
    pgcd = cospec.intlinalg.pgcd
    monkeypatch.setattr(cospec.intlinalg, "pgcd", lambda a, b: tuple(2 * c for c in pgcd(a, b)))
    with pytest.raises(ConsistencyError, match=r"^Q\[x\] determinantal gcd \(2, 2\) is not monic$"):
        determinantal_gcds_Qx(build_matrix(complete(3), MatrixKind.ADJACENCY))


def test_determinantal_gcds_have_no_size_bound(capsys):
    x_minus_1 = (-1, 1)
    power = (1,)
    for k, gk in enumerate(determinantal_gcds_Qx(identity_matrix(9)), 1):
        power = pmul(power, x_minus_1)
        assert gk == power, k
    # a 10-vertex A-cospectral pair, and a pair that is not cospectral
    g = disjoint_union(star(4), path(5))
    h = disjoint_union(disjoint_union(cycle(4), complete(1)), path(5))
    assert is_codeterminantal_Qx(g, h, MatrixKind.ADJACENCY)
    assert not is_codeterminantal_Qx(g, path(10), MatrixKind.ADJACENCY)
    assert main(["codet", "--kind", "a", write_graph6(g), write_graph6(h)]) == 0
    assert capsys.readouterr().out == "true\n"
    with pytest.raises(ValueError):
        determinantal_gcds_Qx([[0, 1], [0, 0]])


def _criterion_09_graphs():
    """The graphs whose adjacency matrices the acceptance criterion on
    codeterminantality compares: every A-cospectral mate, and the first
    graph of each of the first six charpoly buckets, at n = 4..7."""
    out = []
    for n in range(4, 8):
        buckets = {}
        for line in connected_graph6_lines(n):
            g = parse_graph6(line)
            buckets.setdefault(charpoly_coeffs(build_matrix(g, MatrixKind.ADJACENCY)), []).append(g)
        out += [g for group in buckets.values() if len(group) >= 2 for g in group]
        out += [group[0] for group in list(buckets.values())[:6]]
    return out


def _repeated_eigenvalue_matrix(rng):
    """B + B (+ [c]) conjugated by a random signed permutation: every
    eigenvalue of B is repeated."""
    k = rng.randint(1, 3)
    b = random_symmetric(rng, k, -3, 3)
    blocks = [b, b] + ([[[rng.randint(-3, 3)]]] if k < 3 else [])
    n = sum(map(len, blocks))
    m = [[0] * n for _ in range(n)]
    at = 0
    for blk in blocks:
        for i, row in enumerate(blk):
            m[at + i][at : at + len(row)] = row
        at += len(blk)
    perm = rng.sample(range(n), n)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return [[signs[i] * signs[j] * m[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def test_determinantal_gcds_match_raw_minor_reference():
    mats = [build_matrix(parse_graph6(line), kind)
            for n in range(1, 6) for line in connected_graph6_lines(n) for kind in ALL_KINDS]
    mats += [build_matrix(g, MatrixKind.ADJACENCY) for g in _criterion_09_graphs()]
    rng = random.Random(12)
    mats += [random_symmetric(rng, rng.randint(1, 6), -4, 4) for _ in range(30)]
    mats += [_repeated_eigenvalue_matrix(rng) for _ in range(30)]
    assert len(mats) == 310 + 89 + 60
    repeated = 0
    for m in mats:
        g = determinantal_gcds_Qx(m)
        assert g == reference_determinantal_gcds(m), m
        repeated += len(g) > 1 and g[-2] != (1,)
    assert repeated >= 30

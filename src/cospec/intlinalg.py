"""Exact integer linear algebra: determinants, characteristic polynomials,
Smith normal form over Z, the cofactor-sum polynomial, and determinantal
gcds of xI - M over Q[x], read off the characteristic polynomial.

Matrices are plain square lists of lists of Python ints (arbitrary
precision). Everything here is division-free or fraction-free; no floating
point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, prod
from operator import ne

from .errors import ConsistencyError
from .polynomials import IntPolynomial, pgcd, pmonic, psub


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def ones_matrix(n):
    return [[1] * n for _ in range(n)]


def determinant(m):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        rk = a[k]
        pk = rk[k]
        for i in range(k + 1, n):
            ri = a[i]
            aik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pk - aik * rk[j]) // prev
        prev = pk
    return sign * a[n - 1][n - 1]


def charpoly_coeffs(m):
    """Coefficients (ascending) of p(x) = det(xI - m) for a symmetric integer m.

    Kronecker substitution: one exact determinant det(m - X*I) =
    (-1)^n p(X) at X = 2^b, read back as balanced base-X digits. The
    eigenvalues are real and their squares sum to f = ||m||_F^2, so with
    r = isqrt(f // n) + 1 Maclaurin's inequality gives
    |c_k| <= C(n, k) * r^k < (1 + r)^n <= X / 2 for
    b = bitlen((1 + r)^n) + 1: every digit is one coefficient.

    The determinant is a fraction-free (Bareiss) elimination without
    pivoting. The k-th pivot is the leading principal minor
    (-1)^k p_k(X) != 0, since X > 1 + n*r > sqrt(f) bounds every eigenvalue
    of every principal submatrix. Diagonal pivots keep each Schur
    complement symmetric, so only its upper triangle is stored: row t holds
    the entries from the diagonal rightwards. Each step drops the pivot row
    and column.

    Digits that do not decode to a monic polynomial, or coefficients that
    break c_(n-1) = -tr m or 2 c_(n-2) = tr(m)^2 - f (f = tr m^2 for a
    symmetric m), raise ConsistencyError. A non-square or non-symmetric m
    is a ValueError.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("charpoly_coeffs needs a square matrix")
    if any(map(ne, map(tuple, m), zip(*m))):
        raise ValueError("charpoly_coeffs needs a symmetric matrix")
    if not n:
        return (1,)
    f = sum([v * v for row in m for v in row])
    r = isqrt(f // n) + 1
    b = ((1 + r) ** n).bit_length() + 1
    x = 1 << b
    tri = [[row[i] - x, *row[i + 1 :]] for i, row in enumerate(m)]
    prev = 1
    while len(tri) > 1:
        piv = tri.pop(0)
        p = piv.pop(0)
        for t, row in enumerate(tri):
            # piv now starts at row t's diagonal column
            c = piv[0]
            tri[t] = [(u * p - c * w) // prev for u, w in zip(row, piv)]
            del piv[0]
        prev = p
    det = -tri[0][0] if n & 1 else tri[0][0]
    mask = x - 1
    half = x >> 1
    coeffs = []
    for _ in range(n + 1):
        d = det & mask
        det >>= b
        if d >= half:
            d -= x
            det += 1
        coeffs.append(d)
    if det or coeffs[-1] != 1:
        raise ConsistencyError(
            f"charpoly digits of det(M - 2^{b} I) do not decode to a monic "
            f"degree-{n} polynomial"
        )
    tr = sum([row[i] for i, row in enumerate(m)])
    if coeffs[n - 1] != -tr or n > 1 and 2 * coeffs[n - 2] != tr * tr - f:
        raise ConsistencyError(
            f"degree-{n} charpoly coefficients do not match the traces of M and M^2"
        )
    return tuple(coeffs)


def charpoly(m):
    """Monic characteristic polynomial p(x) = det(xI - m)."""
    return IntPolynomial(charpoly_coeffs(m))


def cof_coeffs(m):
    """Coefficients (ascending) of cof(xI - m), the sum of all signed
    (n-1)-cofactors, computed as det(xI - m + J) - det(xI - m)."""
    shifted = [[v - 1 for v in row] for row in m]
    return psub(charpoly_coeffs(shifted), charpoly_coeffs(m))


def cof_polynomial(m):
    """c(x) with det(xI - m + yJ) = charpoly(m)(x) + y*c(x) for every y."""
    return IntPolynomial(cof_coeffs(m))


@dataclass(frozen=True)
class InvariantFactors:
    """SNF diagonal d_1 | d_2 | ... | d_n, nonnegative, zeros trailing."""

    d: tuple

    def __post_init__(self):
        d = tuple(self.d)
        object.__setattr__(self, "d", d)
        error = chain_error(d)
        if error:
            raise ValueError(error)

    @property
    def rank(self):
        return sum(1 for v in self.d if v)

    @property
    def nonzero_product(self):
        return prod(v for v in self.d if v)

    def __iter__(self):
        return iter(self.d)

    def __str__(self):
        return format_factors(self.d)


def chain_error(d):
    """Why d is not an SNF diagonal d_1 | d_2 | ..., nonnegative with its
    zeros trailing, or None when it is one."""
    prev = 1
    for i, v in enumerate(d):
        if v < 0:
            return f"invariant factor d_{i + 1} = {v} is negative"
        if v and not prev:
            return "zero invariant factors must form a trailing block"
        if v and v % prev:
            return f"d_{i} = {prev} does not divide d_{i + 1} = {v}"
        prev = v
    return None


def format_factors(factors):
    """Invariant factors as one line, space-separated."""
    return " ".join(map(str, factors))


def snf_diagonal(m):
    """Invariant factors of a square integer matrix as a raw tuple.

    Each stage takes a pivot, clears its column and row, then drops the
    pivot row and column, so no row or column is ever swapped. A unit
    pivot is found by scanning whole rows with `in`; otherwise the pivot is
    the nonzero entry of minimum absolute value, which keeps intermediate
    entries small. A non-unit pivot runs Euclid steps, each promoting a
    nonzero remainder to pivot, until it clears its column and row and
    divides every remaining entry. A unit pivot divides everything, so
    clearing its column ends the stage: the column operations that would
    clear its row change only the pivot row, which is dropped.
    """
    n = len(m)
    rows = [list(row) for row in m]
    out = []
    while rows:
        for i, row in enumerate(rows):
            if 1 in row:
                j = row.index(1)
                break
            if -1 in row:
                j = row.index(-1)
                break
        else:
            best = 0
            for t, row in enumerate(rows):
                sizes = set(map(abs, row))
                sizes.discard(0)
                if sizes:
                    v = min(sizes)
                    if not best or v < best:
                        best, i = v, t
            if not best:
                break
            row = rows[i]
            j = row.index(best) if best in row else row.index(-best)
        prow = rows.pop(i)
        p = prow[j]
        while p != 1 and p != -1:
            for t, row in enumerate(rows):
                if row[j]:
                    q = row[j] // p
                    row = rows[t] = [u - q * w for u, w in zip(row, prow)]
                    if row[j]:
                        rows[t], prow, p = prow, row, row[j]
                        break
            else:
                # column j is clear in every other row, so the column
                # operations clearing the pivot row change it alone
                for c, v in enumerate(prow):
                    if v and c != j:
                        v %= p
                        prow[c] = v
                        if v:
                            p, j = v, c
                            break
                else:
                    bad = next((row for row in rows if any(map(p.__rmod__, row))), None)
                    if bad is None:
                        break
                    prow = [u + w for u, w in zip(prow, bad)]
        del prow[j]
        for t, row in enumerate(rows):
            v = row.pop(j)
            if v:
                q = v // p
                rows[t] = [u - q * w for u, w in zip(row, prow)]
        out.append(abs(p))
    return tuple(out) + (0,) * (n - len(out))


def smith_normal_form(m):
    """Smith normal form of a square integer matrix, as its invariant
    factors."""
    if any(len(row) != len(m) for row in m):
        raise ValueError("smith_normal_form needs a square matrix")
    return InvariantFactors(snf_diagonal(m))


def determinantal_gcds_Qx(m):
    """For k = 1..n, the monic gcd g_k over Q[x] of all k x k minors of
    xI - m, for a symmetric integer m, as a tuple of n coefficient tuples
    of Fraction, each ascending and monic.

    The chain is read off the characteristic polynomial: g_n = det(xI - m)
    and g_(k-1) = gcd(g_k, g_k') for k = n .. 2. This is exact because a
    symmetric m is diagonalizable, so every invariant factor f_k of xI - m
    over Q[x] is squarefree, and f_1 | f_2 | ... | f_n. Then
    g_k = f_1 ... f_k has f_k as its squarefree part, and over a field of
    characteristic 0, g_(k-1) = g_k / f_k = gcd(g_k, g_k'). `pgcd` gives
    the primitive Z[x] gcd and `pmonic` the Q[x] one. Like charpoly_coeffs,
    raises ValueError for a non-symmetric m.
    """
    g = charpoly_coeffs(m)
    chain = [g]
    for _ in range(len(m) - 1):
        g = pgcd(g, [k * c for k, c in enumerate(g)][1:])
        chain.append(g)
    return tuple(map(pmonic, reversed(chain)))

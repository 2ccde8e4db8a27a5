"""Exact integer linear algebra: determinants, characteristic polynomials,
Smith normal form over Z, the cofactor-sum polynomial, and determinantal
gcds of xI - M over Q[x], read off the characteristic polynomial.

Matrices are plain square lists of lists of Python ints (arbitrary
precision). Everything here is division-free or fraction-free; no floating
point is used anywhere. Results are plain int tuples: a polynomial is its
ascending coefficient tuple, a Smith normal form its invariant factors.
The charpoly elimination of a matrix of at most GENERATED_MAX_N rows runs
as straight-line code, generated once per size on its first use.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from operator import ne

from .errors import ConsistencyError
from .polynomials import pgcd, psub


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
    pivoting that eliminates two pivots per pass (Bareiss's two-step
    method, Math. Comp. 22 (1968) 565-578). Let p_k be the k-th leading
    principal minor of m - X*I; it is (-1)^k times the charpoly of the
    leading k x k block at X, and nonzero, since X > 1 + n*r > sqrt(f)
    bounds every eigenvalue of every principal submatrix. After k
    eliminated pivots the entry (i, j) of the stored Schur complement is
    the bordered minor a_ij = det of rows 1..k, i and columns 1..k, j.
    With a, c, d the 2 x 2 pivot block [[a, c], [c, d]] and
    U_j = d*a_kj - c*a_(k+1)j, V_j = a*a_(k+1)j - c*a_kj, Sylvester's
    identity makes a_ij*D - a_ki*U_j - a_(k+1)i*V_j, the 3 x 3
    determinant of bordered minors, equal to p_k^2 times the entry after
    k + 2 pivots, and D = ad - c^2 equal to p_k * p_(k+2): both divisions
    are exact, and the next divisor is p_(k+2) = D / p_k. An odd n ends
    with one row, whose entry is p_n; an even n ends with p_n as the last
    divisor. Diagonal pivots keep each Schur complement symmetric, so only
    its upper triangle is stored: row t holds the entries from the
    diagonal rightwards. For n <= GENERATED_MAX_N the symmetry test, tr m,
    f, b and the elimination run as generated code (_generated_det) that
    performs the loop's arithmetic in the loop's order, so the argument
    above proves it too; larger matrices run the loop.

    Digits that do not decode to a monic polynomial, or coefficients that
    break c_(n-1) = -tr m or 2 c_(n-2) = tr(m)^2 - f (f = tr m^2 for a
    symmetric m), raise ConsistencyError. A non-square or non-symmetric m
    is a ValueError.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("charpoly_coeffs needs a square matrix")
    if not n:
        return (1,)
    if n <= GENERATED_MAX_N:
        det, b, tr, f = _generated_det(n)(m)
    else:
        if any(map(ne, map(tuple, m), zip(*m))):
            raise ValueError("charpoly_coeffs needs a symmetric matrix")
        tr = sum([row[i] for i, row in enumerate(m)])
        f = sum([v * v for row in m for v in row])
        r = isqrt(f // n) + 1
        b = ((1 + r) ** n).bit_length() + 1
        x = 1 << b
        tri = [[row[i] - x, *row[i + 1 :]] for i, row in enumerate(m)]
        prev = 1
        while len(tri) > 1:
            a, c, *col0 = tri.pop(0)
            d, *col1 = tri.pop(0)
            delta = a * d - c * c
            u = [d * s - c * t for s, t in zip(col0, col1)]
            v = [a * t - c * s for s, t in zip(col0, col1)]
            pp = prev * prev
            for t, row in enumerate(tri):
                # u and v now start at row t's diagonal column
                s, q = col0[t], col1[t]
                tri[t] = [(w * delta - s * y - q * z) // pp for w, y, z in zip(row, u, v)]
                del u[0], v[0]
            prev = delta // prev
        det = -tri[0][0] if n & 1 else prev
    x = 1 << b
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
    coeffs = tuple(coeffs)
    error = charpoly_trace_error(coeffs, tr, f)
    if error:
        raise ConsistencyError(error)
    return coeffs


# Sizes whose elimination runs as generated straight-line code. The code
# grows as n^3 (CPython 3.11, 2 vCPUs): building it takes 1.5-2.5 ms at
# n = 8, 2.5-4 ms at n = 10 and 4-6 ms (+0.4 MB RSS) at n = 12. At n = 20
# it would take 13-25 ms and +4 MB; at n = 32, 50-100 ms and +14-16 MB,
# and it runs no faster than the loop; at n = 64, +115 MB and a first call
# of 2.9 s against the loop's 2.3 s.
GENERATED_MAX_N = 12


@lru_cache(maxsize=None)
def _generated_det(n):
    """For 1 <= n <= GENERATED_MAX_N, a function of a square n x n m that
    returns (det(m - 2^b I), b, tr m, ||m||_F^2) as charpoly_coeffs defines
    them, or raises its ValueError for a non-symmetric m. It performs the
    loop's arithmetic in the loop's order, with entry (i, j) of the stored
    upper triangle held in the local a{i}_{j}. Built on the first call for
    each n; isqrt is a module global, looked up when the function runs."""
    a = [[f"a{i}_{j}" for j in range(n)] for i in range(n)]
    diag = [a[i][i] for i in range(n)]
    upper = [a[i][j] for i in range(n) for j in range(i + 1, n)]
    lower = [a[j][i] for i in range(n) for j in range(i + 1, n)]
    body = [
        "".join(f"({', '.join(row)},), " for row in a) + "= m",
        f"if ({''.join(v + ', ' for v in upper)}) != ({''.join(v + ', ' for v in lower)}):",
        ' raise ValueError("charpoly_coeffs needs a symmetric matrix")',
        f"tr = {' + '.join(diag)}",
        f"f = {' + '.join(f'{v} * {v}' for v in diag)}"
        f" + 2 * ({' + '.join(f'{v} * {v}' for v in upper) or 0})",
        f"r = isqrt(f // {n}) + 1",
        f"b = ((1 + r) ** {n}).bit_length() + 1",
        "x = 1 << b",
        *(f"{v} -= x" for v in diag),
        "p = 1",
    ]
    for k in range(0, n - 1, 2):
        pa, pc, pd = a[k][k], a[k][k + 1], a[k + 1][k + 1]
        body.append(f"d = {pa} * {pd} - {pc} * {pc}")
        for j in range(k + 2, n):
            s, t = a[k][j], a[k + 1][j]
            body += [f"u{j} = {pd} * {s} - {pc} * {t}", f"v{j} = {pa} * {t} - {pc} * {s}"]
        if k + 2 < n:
            body.append("pp = p * p")
        for i in range(k + 2, n):
            s, q = a[k][i], a[k + 1][i]
            body += [f"{a[i][j]} = ({a[i][j]} * d - {s} * u{j} - {q} * v{j}) // pp"
                     for j in range(i, n)]
        body.append("p = d // p")
    det = f"-{a[n - 1][n - 1]}" if n & 1 else "p"
    body.append(f"return {det}, b, tr, f")
    src = "def det(m):\n" + "".join(f" {line}\n" for line in body)
    scope = {}
    exec(compile(src, f"<charpoly n={n}>", "exec"), globals(), scope)
    return scope["det"]


def charpoly_trace_error(coeffs, tr, f):
    """Why coeffs (ascending) is not the charpoly of a symmetric n x n
    matrix M with tr M = tr and ||M||_F^2 = tr M^2 = f, as far as its top
    coefficients show it: monic of degree n, c_(n-1) = -tr and
    2 c_(n-2) = tr^2 - f; or None when they agree."""
    n = len(coeffs) - 1
    if n < 0 or coeffs[n] != 1:
        return f"charpoly {coeffs} is not monic"
    if n and coeffs[n - 1] != -tr or n > 1 and 2 * coeffs[n - 2] != tr * tr - f:
        return f"degree-{n} charpoly coefficients do not match the traces of M and M^2"
    return None


def cof_coeffs(m):
    """Coefficients (ascending) of c(x) = cof(xI - m), the sum of all signed
    (n-1)-cofactors, with det(xI - m + yJ) = p(x) + y*c(x) for every y,
    p = charpoly_coeffs(m); computed as det(xI - m + J) - det(xI - m)."""
    shifted = [[v - 1 for v in row] for row in m]
    return psub(charpoly_coeffs(shifted), charpoly_coeffs(m))


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


def checked_chain(d):
    """d as a tuple, when it is an SNF diagonal (chain_error); a broken
    chain is a ConsistencyError, a fault of the code that computed it."""
    d = tuple(d)
    error = chain_error(d)
    if error:
        raise ConsistencyError(error)
    return d


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
    clear its row change only the pivot row, which is dropped. A
    non-square m is a ValueError.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("snf_diagonal needs a square matrix")
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
    """Smith normal form of a square integer matrix, as the tuple of its
    invariant factors, checked by checked_chain; a non-square m is a
    ValueError (snf_diagonal)."""
    return checked_chain(snf_diagonal(m))


def determinantal_gcds_Qx(m):
    """For k = 1..n, the monic gcd g_k over Q[x] of all k x k minors of
    xI - m, for a symmetric integer m, as a tuple of n ascending int
    coefficient tuples, each monic.

    The chain is read off the characteristic polynomial: g_n = det(xI - m)
    and g_(k-1) = gcd(g_k, g_k') for k = n .. 2. This is exact because a
    symmetric m is diagonalizable, so every invariant factor f_k of xI - m
    over Q[x] is squarefree, and f_1 | f_2 | ... | f_n. Then
    g_k = f_1 ... f_k has f_k as its squarefree part, and over a field of
    characteristic 0, g_(k-1) = g_k / f_k = gcd(g_k, g_k'). `pgcd` gives
    the primitive Z[x] gcd, with a positive leading coefficient, and it is
    the monic Q[x] one: each g_k divides the monic integer charpoly, and by
    Gauss's lemma a monic divisor in Q[x] of a monic integer polynomial has
    integer coefficients. A g_k that is not monic is a ConsistencyError.
    Like charpoly_coeffs, raises ValueError for a non-symmetric m.
    """
    if not m:
        return ()
    g = charpoly_coeffs(m)
    chain = [g]
    for _ in range(len(m) - 1):
        g = pgcd(g, [k * c for k, c in enumerate(g)][1:])
        if g[-1] != 1:
            raise ConsistencyError(f"Q[x] determinantal gcd {g} is not monic")
        chain.append(g)
    return tuple(reversed(chain))

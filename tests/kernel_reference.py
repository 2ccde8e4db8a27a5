"""Reference kernels for the tests: the division-free Berkowitz
characteristic polynomial, the full-matrix min-|entry| Smith normal form
and the raw-minor enumeration of the Q[x] determinantal gcds that the
library used before its faster kernels, and the canonical level search
that scans every extension. The production kernels in cospec.intlinalg
and cospec.graphs must give identical results. Also the small matrix and
polynomial helpers that only the tests use."""

from fractions import Fraction
from itertools import combinations

from cospec.graphs import _twin_classes
from cospec.polynomials import padd, pgcd, pprimitive, psub, trim


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def ones_matrix(n):
    return [[1] * n for _ in range(n)]


def apply_shift(m, x, y):
    """x*I + y*J - m."""
    n = len(m)
    return [
        [(x if i == j else 0) + y - m[i][j] for j in range(n)] for i in range(n)
    ]


def pmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return trim(out)


def peval(a, x):
    """Horner evaluation; exact for int or Fraction x."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def berkowitz_charpoly(m):
    """Coefficients (ascending) of det(xI - m), via the division-free
    Berkowitz recurrence on leading principal blocks."""
    n = len(m)
    c = [1, -m[0][0]]
    for i in range(1, n):
        mi = m[i]
        row_left = mi[:i]
        v = [m[j][i] for j in range(i)]
        t = [1, -mi[i]]
        s = 0
        for j in range(i):
            s += row_left[j] * v[j]
        t.append(-s)
        for _ in range(i - 1):
            w = []
            for r in range(i):
                mr = m[r]
                acc = 0
                for j in range(i):
                    acc += mr[j] * v[j]
                w.append(acc)
            v = w
            s = 0
            for j in range(i):
                s += row_left[j] * v[j]
            t.append(-s)
        lc = len(c)
        cn = []
        for r in range(i + 2):
            acc = 0
            top = r if r < lc else lc - 1
            for j in range(top + 1):
                acc += t[r - j] * c[j]
            cn.append(acc)
        c = cn
    return tuple(reversed(c))


def reference_snf(m):
    """Invariant factors of an integer matrix as a raw tuple.

    Elimination picks the nonzero entry of minimum absolute value as pivot
    at every stage, which keeps intermediate entries small.
    """
    n = len(m)
    a = [row[:] for row in m]
    out = []
    for k in range(n):
        piv_i = -1
        piv_j = -1
        best = 0
        for i in range(k, n):
            row = a[i]
            for j in range(k, n):
                v = row[j]
                if v:
                    av = -v if v < 0 else v
                    if piv_i < 0 or av < best:
                        best = av
                        piv_i = i
                        piv_j = j
                        if av == 1:
                            break
            if best == 1 and piv_i >= 0:
                break
        if piv_i < 0:
            out.extend([0] * (n - k))
            break
        if piv_i != k:
            a[k], a[piv_i] = a[piv_i], a[k]
        if piv_j != k:
            for row in a:
                row[k], row[piv_j] = row[piv_j], row[k]
        while True:
            rk = a[k]
            p = rk[k]
            dirty = False
            for i in range(k + 1, n):
                ri = a[i]
                v = ri[k]
                if v:
                    q = v // p
                    if q:
                        for j in range(k, n):
                            ri[j] -= q * rk[j]
                    if ri[k]:
                        # Euclid step: the remainder is strictly smaller,
                        # promote it to pivot and start over.
                        a[k], a[i] = a[i], a[k]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(k + 1, n):
                v = rk[j]
                if v:
                    q = v // p
                    if q:
                        for i in range(k, n):
                            a[i][j] -= q * a[i][k]
                    if rk[j]:
                        for row in a:
                            row[k], row[j] = row[j], row[k]
                        dirty = True
                        break
            if dirty:
                continue
            # Row and column k are clear; enforce divisibility of the rest.
            viol = -1
            for i in range(k + 1, n):
                ri = a[i]
                for j in range(k + 1, n):
                    if ri[j] % p:
                        viol = i
                        break
                if viol >= 0:
                    break
            if viol < 0:
                break
            rv = a[viol]
            for j in range(k, n):
                rk[j] += rv[j]
        out.append(abs(a[k][k]))
    return tuple(out)



def _charmatrix_entries(m):
    n = len(m)
    ent = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(trim((-m[i][j], 1)))
            else:
                row.append(trim((-m[i][j],)))
        ent.append(row)
    return ent


def _gcd_of_polys(values):
    g = ()
    for p in values:
        if not p:
            continue
        g = pgcd(g, p) if g else pprimitive(p)
        if g == (1,):
            break
    return g


def reference_determinantal_gcds(m):
    """For k = 1..n, the monic gcd over Q[x] of all k x k minors of xI - m,
    as a tuple of Fraction coefficient tuples.

    Raw minor enumeration: level-k minors are expanded along their first
    row from the previously computed level-(k-1) minors, so every minor is
    built exactly once. There are C(2n, n) minors in all, so keep n small.
    """
    n = len(m)
    ent = _charmatrix_entries(m)
    idx = range(n)
    cur = {((i,), (j,)): ent[i][j] for i in idx for j in idx}
    gs = [_gcd_of_polys(cur.values())]
    for k in range(2, n + 1):
        nxt = {}
        for rows in combinations(idx, k):
            r0 = rows[0]
            rest = rows[1:]
            ent0 = ent[r0]
            for cols in combinations(idx, k):
                acc = ()
                sign = 1
                for pos, cj in enumerate(cols):
                    e = ent0[cj]
                    if e:
                        sub = cur[(rest, cols[:pos] + cols[pos + 1 :])]
                        if sub:
                            term = pmul(e, sub)
                            acc = padd(acc, term) if sign > 0 else psub(acc, term)
                    sign = -sign
                nxt[(rows, cols)] = acc
        cur = nxt
        gs.append(_gcd_of_polys(cur.values()))
    return tuple(tuple(Fraction(c, g[-1]) for c in g) for g in gs)


def reference_canonical_columns(n, rows):
    """Column codes of the lexicographically minimal graph6 labeling, by the
    greedy level search that scores every extension with a full scan.

    Each level extends every chosen partial labeling by the vertices of its
    frontier, those that give it its least next column, once per twin
    class. An extension's least next column and the frontier giving it
    come from one neighbourhood test per labeled vertex, most significant
    bit first. The extensions with the least column are the next level's
    chosen labelings.
    """
    full = (1 << n) - 1
    twins = _twin_classes(rows)
    chosen = [((), 0, full)]
    cols = []
    for _ in range(n - 1):
        best = None
        for p, used, frontier in chosen:
            while frontier:
                v = (frontier & -frontier).bit_length() - 1
                frontier &= ~twins[v]
                q = p + (v,)
                qused = used | 1 << v
                s = full ^ qused
                c = 0
                for u in q:
                    t = s & ~rows[u]
                    if t:
                        s = t
                        c <<= 1
                    else:
                        c = (c << 1) | 1
                if best is None or c < best:
                    best = c
                    extended = [(q, qused, s)]
                elif c == best:
                    extended.append((q, qused, s))
        cols.append(best)
        chosen = extended
    return cols

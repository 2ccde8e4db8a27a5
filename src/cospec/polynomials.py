"""Exact univariate polynomial arithmetic over the integers.

Coefficient tuples are ascending (index = degree) with no trailing zeros;
the zero polynomial is the empty tuple. Charpolys, cofactor polynomials
and Q[x] determinantal gcds are such int tuples everywhere, also in the
public API and the CLI; pstr renders one.
"""

from __future__ import annotations

from math import gcd


def trim(coeffs):
    """Drop trailing zero coefficients, canonicalizing the representation."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def padd(a, b):
    n = max(len(a), len(b))
    return trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def psub(a, b):
    n = max(len(a), len(b))
    return trim((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n))


def ptaylor(a, c, sign=1):
    """Coefficients of a(sign*x + c), sign = 1 or -1: the Taylor shift
    a(x + c) by repeated synthetic division, then x -> -x for sign -1."""
    out = list(a)
    n = len(out)
    if c:
        for i in range(n - 1):
            for j in range(n - 2, i - 1, -1):
                out[j] += c * out[j + 1]
    if sign < 0:
        out[1::2] = [-v for v in out[1::2]]
    return tuple(out)


def pcontent(a):
    g = 0
    for c in a:
        g = gcd(g, abs(c))
        if g == 1:
            return 1
    return g


def pprimitive(a):
    """Primitive part with positive leading coefficient; () for the zero polynomial."""
    a = trim(a)
    if not a:
        return ()
    g = pcontent(a)
    if a[-1] < 0:
        g = -g
    return tuple(c // g for c in a)


def pseudo_rem(a, b):
    """Pseudo-remainder of a by b: lc(b)^(deg a - deg b + 1) * a mod b."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db:
            break
        la = a[-1]
        shift = len(a) - 1 - db
        a = [c * lb for c in a]
        for i in range(db + 1):
            a[shift + i] -= la * b[i]
        a.pop()
    return trim(a)


def pgcd(a, b):
    """Primitive gcd over Z[x] via the primitive pseudo-remainder sequence.

    Content is stripped at every step, so the result generates the same
    ideal as gcd over Q[x] once made monic.
    """
    a, b = pprimitive(a), pprimitive(b)
    while b:
        a, b = b, pprimitive(pseudo_rem(a, b))
    return a


def pstr(a):
    """Human-readable rendering, highest degree first."""
    a = trim(a)
    if not a:
        return "0"
    parts = []
    for d in range(len(a) - 1, -1, -1):
        c = a[d]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if d == 0:
            body = str(mag)
        elif d == 1:
            body = "x" if mag == 1 else f"{mag}*x"
        else:
            body = f"x^{d}" if mag == 1 else f"{mag}*x^{d}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = (first_sign if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text

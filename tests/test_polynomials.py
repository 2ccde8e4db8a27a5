from cospec.polynomials import (
    padd,
    pgcd,
    pprimitive,
    pseudo_rem,
    pstr,
    psub,
    ptaylor,
    trim,
)
from kernel_reference import peval, pmul


def test_trim_canonicalizes():
    assert trim([1, 2, 0, 0]) == (1, 2)
    assert trim([0, 0]) == ()
    assert trim([]) == ()


def test_arithmetic():
    a = (1, 2)  # 1 + 2x
    b = (3, 0, 1)  # 3 + x^2
    assert padd(a, b) == (4, 2, 1)
    assert psub(b, a) == (2, -2, 1)
    assert pmul(a, b) == (3, 6, 1, 2)
    assert pmul(a, ()) == ()
    assert peval((1, 2, 3), 2) == 1 + 4 + 12


def test_psub_cancels_to_zero():
    assert psub((1, 2), (1, 2)) == ()


def test_pseudo_rem():
    # x^2 - 1 by x + 1 divides exactly
    assert pseudo_rem((-1, 0, 1), (1, 1)) == ()
    # x^2 + 1 by x + 1 leaves a constant
    r = pseudo_rem((1, 0, 1), (1, 1))
    assert len(r) == 1


def test_pgcd():
    assert pgcd((-1, 0, 1), (1, 1)) == (1, 1)  # gcd(x^2-1, x+1) = x+1
    assert pgcd((2, 2), (-4, 0, 4)) == (1, 1)  # content stripped
    assert pgcd((6,), (4,)) == (1,)  # nonzero constants are units in Q[x]
    assert pgcd((), (1, 1)) == (1, 1)


def test_pprimitive_sign():
    assert pprimitive((2, -4)) == (-1, 2)
    assert pprimitive((-2, -4)) == (1, 2)


def test_pstr():
    assert pstr((-2, -3, 0, 1)) == "x^3 - 3*x - 2"
    assert pstr((0, 2, 1)) == "x^2 + 2*x"
    assert pstr(()) == "0"
    assert pstr((5,)) == "5"
    assert pstr((0, -1)) == "-x"


def test_taylor_shift():
    # ptaylor(a, c, sign) agrees with a(sign*x + c) at many points
    a = (5, -3, 0, 2, 1)
    assert ptaylor((0, 1), 3) == (3, 1)
    assert ptaylor(a, 0) == a and ptaylor(a, 0, -1) == (5, 3, 0, -2, 1)
    assert ptaylor((), 4, -1) == ()
    for c in (-7, -1, 2, 10):
        for sign in (1, -1):
            shifted = ptaylor(a, c, sign)
            assert len(shifted) == len(a)
            assert all(peval(shifted, x) == peval(a, sign * x + c) for x in range(-6, 7))

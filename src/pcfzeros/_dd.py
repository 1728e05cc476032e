"""Minimal double-double arithmetic for phase-critical quantities.

A value is a pair (hi, lo) of doubles with hi + lo its unevaluated sum
and |lo| <= ulp(hi)/2.  Only the handful of operations needed to carry
a large Liouville-Green phase to ~1e-28 is provided.  Complex values
are pairs of complex doubles treated componentwise.
"""
from __future__ import annotations

import cmath
import math

_SPLITTER = 134217729.0  # 2**27 + 1


def two_sum(a: float, b: float):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def quick_two_sum(a: float, b: float):
    # requires |a| >= |b|
    s = a + b
    return s, b - (s - a)


def split(a: float):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def two_prod(a: float, b: float):
    p = a * b
    ah, al = split(a)
    bh, bl = split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def dd_add(x, y):
    s, e = two_sum(x[0], y[0])
    e += x[1] + y[1]
    return quick_two_sum(s, e)


def dd_mul(x, y):
    p, e = two_prod(x[0], y[0])
    e += x[0] * y[1] + x[1] * y[0]
    return quick_two_sum(p, e)


def dd_mul_d(x, d: float):
    p, e = two_prod(x[0], d)
    e += x[1] * d
    return quick_two_sum(p, e)


def dd_div(x, y):
    q1 = x[0] / y[0]
    r = dd_add(x, dd_mul_d(y, -q1))
    q2 = r[0] / y[0]
    return quick_two_sum(q1, q2)


def dd_sqrt(a):
    if a[0] == 0.0:
        return 0.0, 0.0
    x = math.sqrt(a[0])
    r = dd_add(a, dd_mul((-x, 0.0), (x, 0.0)))
    return quick_two_sum(x, r[0] / (2.0 * x))


# complex values: (hi: complex, lo: complex), componentwise double-double


def cdd_add(x, y):
    re = dd_add((x[0].real, x[1].real), (y[0].real, y[1].real))
    im = dd_add((x[0].imag, x[1].imag), (y[0].imag, y[1].imag))
    return complex(re[0], im[0]), complex(re[1], im[1])


def cdd_mul(x, y):
    xr = (x[0].real, x[1].real)
    xi = (x[0].imag, x[1].imag)
    yr = (y[0].real, y[1].real)
    yi = (y[0].imag, y[1].imag)
    re = dd_add(dd_mul(xr, yr), dd_mul_d(dd_mul(xi, yi), -1.0))
    im = dd_add(dd_mul(xr, yi), dd_mul(xi, yr))
    return complex(re[0], im[0]), complex(re[1], im[1])


def cdd_mul_d(x, d: float):
    re = dd_mul_d((x[0].real, x[1].real), d)
    im = dd_mul_d((x[0].imag, x[1].imag), d)
    return complex(re[0], im[0]), complex(re[1], im[1])


def cdd_div_dd(x, y):
    # complex double-double divided by a real double-double
    re = dd_div((x[0].real, x[1].real), y)
    im = dd_div((x[0].imag, x[1].imag), y)
    return complex(re[0], im[0]), complex(re[1], im[1])


def cdd_sqrt(x):
    """Principal branch, refined by one Newton step in dd arithmetic."""
    s = cmath.sqrt(x[0])
    if s == 0:
        return 0j, 0j
    # r = x - s^2, a small complex; correction r / (2 s)
    r = cdd_add(x, cdd_mul_d(cdd_mul((s, 0j), (s, 0j)), -1.0))
    corr = (r[0] + r[1]) / (2.0 * s)
    return s, corr


def cdd_log(x):
    """log(hi + lo) = log(hi) + lo/hi to first order, ample here."""
    return cmath.log(x[0]), x[1] / x[0]

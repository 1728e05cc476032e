"""Liouville-Green evaluation: phase functions, regions, gamma ratio."""
import cmath
import json
import math
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from scipy.special import gammaln

import pcfzeros.lgeval as lgeval
from pcfzeros import _dd, pcf
from pcfzeros._taylor_py import _compile
from pcfzeros.config import LG_ORDER, U_MIN, Z_MAX
from pcfzeros.lgcoef import build_tables, make_tables
from pcfzeros.lgeval import pair, parameter
from pcfzeros.scaled import ScaledValue

mpmath = pytest.importorskip("mpmath")

S = LG_ORDER
TABLES = make_tables(S)


def _eval(s, x, tilde):
    """F_s(x), the order-s polynomial of the base family or, with
    ``tilde``, the tilde family, in double precision by Horner's rule."""
    coeffs = TABLES[tilde][s - 1]
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _exact(s, x, tilde):
    """F_s(x) as an exact Fraction, from the integer polynomials."""
    nums, den = build_tables(S, tilde)[s - 1]
    return sum(Fraction(n) * x ** k for k, n in enumerate(nums)) / den


def _geometry(par, z):
    """The geometry of `lgeval.pair` at z, as the generated code computes
    it, in the layout of `_geometry_dd`: (beta, phi, quarter), phi = u*xi
    as a (hi, lo) complex pair."""
    beta, quarter, (pr, pr_lo, pi, pi_lo) = lgeval._geometry_dd(
        z, *par.s2u, par.u)
    return beta, (complex(pr, pi), complex(pr_lo, pi_lo)), quarter


def _geometry_at(u, zhat):
    """(beta, u*xi) at the scaled variable zhat, u*xi as one double."""
    beta, phi, _ = _geometry(parameter(u), math.sqrt(2.0 * u) * zhat)
    return beta, phi[0] + phi[1]


# The double-double routines that `lgeval._dd_code` writes out as
# straight-line code, as plain functions on (hi, lo) pairs of doubles and
# on pairs of complex doubles taken componentwise, and the geometry and
# the exponents of `pair` as they computed them: the oracle the generated
# code must match to the bit.  The oracle keeps the steps the generated
# code leaves out because they change no bit (its products by -1 and by
# 1/2, and hi + lo of a normalised pair).

def two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def quick_two_sum(a, b):
    # requires |a| >= |b|
    s = a + b
    return s, b - (s - a)


def split(a):
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def two_prod(a, b):
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


def dd_mul_d(x, d):
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


def cdd_mul_d(x, d):
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
    """log(hi + lo) = log(hi) + lo/hi to first order."""
    return cmath.log(x[0]), x[1] / x[0]


def _geometry_dd(par, z):
    """(beta, phi, quarter) at z = sqrt(2u)*zhat, phi = u*xi as a (hi, lo)
    complex pair."""
    zh = cdd_div_dd((complex(z), 0j), par.s2u)
    zhat = zh[0] + zh[1]
    w2 = cdd_add(cdd_mul(zh, zh), (1.0 + 0j, 0j))
    wdd = cdd_sqrt(w2)
    w = wdd[0] + wdd[1]
    beta = zhat / w
    asinh = cdd_log(cdd_add(zh, wdd))
    xi = cdd_mul_d(cdd_add(cdd_mul(zh, wdd), asinh), 0.5)
    phi = cdd_mul_d(xi, par.u)
    quarter = cmath.sqrt(w)
    return beta, phi, quarter


def _scaled_exp_pair(xr, xim):
    """e^{ix} and e^{-ix} as (cp, cm, m), e^{+-ix} = (cp, cm) * e^m, with
    x given as dd (real, imag)."""
    t, tl = xim
    m = abs(t)
    cp = (cmath.exp(1j * xr[0]) * cmath.exp(complex(-tl, xr[1]))
          * math.exp(-t - m))
    cm = (cmath.exp(-1j * xr[0]) * cmath.exp(complex(tl, -xr[1]))
          * math.exp(t - m))
    return cp, cm, m


def _pair_oracle(par, z, c):
    """`pair` from the routines above."""
    beta, phi, quarter = _geometry_dd(par, z)
    b2 = beta * beta
    forms = []
    for tilde, (even, odd) in zip((False, True), par.folds):
        s_odd = lgeval._folded_sum(odd, beta, b2)
        s_even = lgeval._folded_sum(even, beta, b2)
        if not tilde:
            s_odd = -s_odd
        xr = dd_add((-phi[0].imag, -phi[1].imag), (-s_odd.imag, 0.0))
        xim = dd_add((phi[0].real, phi[1].real), (s_odd.real, 0.0))
        cp, cm, scale = _scaled_exp_pair(xr, xim)
        if tilde:
            mant = -0.5 * (cp - c * cm) * quarter
        else:
            mant = (cp + c * cm) / quarter
        mant *= cmath.exp(1j * s_even.imag)
        e = (par.e[tilde], 0.0)
        for term in (s_even.real, par.anchors[tilde], scale):
            e = dd_add(e, (term, 0.0))
        forms.append(ScaledValue.make(mant * math.exp(e[1]), e[0]))
    return forms[0], forms[1]


def _outcome(f, *args):
    """repr of f(*args), or of the exception it raises."""
    try:
        return repr(f(*args))
    except (ArithmeticError, ValueError) as exc:
        return repr((type(exc), str(exc)))


@pytest.mark.filterwarnings("ignore::pcfzeros.errors.TruncationWarning")
def test_generated_code_matches_the_routines():
    # the generated geometry and `pair` repeat the routines' float
    # operations in their order, so each result is the same to the bit,
    # signed zeros included, as is each exception: a seeded corpus of z
    # up to Z_MAX in the closed second quadrant, taken as both routes take
    # it (z itself for a > 0, -i conj(z) for a < 0), at u from U_MIN to
    # 1e6, with z = 0, zhat = 1, zhat near the turning point i and, at
    # u = 50 where sqrt(2u) = 10 is exact, zhat = i, where w^2 = 0 and
    # both raise ZeroDivisionError
    rng = random.Random(20261020)
    n = 0
    for u in (U_MIN, 36.4, 40.0, 50.0, 60.4, 100.0, 1001.4, 4000.0, 1e6):
        par = parameter(u)
        s = math.sqrt(2.0 * u)
        zs = [0j, s + 0j, s * 1j, s * (1j + 1e-9), s * (1j - 1e-9j),
              s * (-1e-7 + 1j), s * (-0.3 + 1.0000001j)]
        for _ in range(150):
            r = Z_MAX * rng.random() ** 2
            zs.append(cmath.rect(r, 0.5 * math.pi * (1.0 + rng.random())))
        zs += [complex(z.real, 0.0) for z in zs[-10:]]
        zs += [complex(0.0, z.imag) for z in zs[-20:-10]]
        for z in zs:
            for w, c in ((z, par.ph2),
                         (complex(-z.imag, -z.real),
                          par.ph2 - par.ph2.conjugate())):
                assert _outcome(_geometry, par, w) == _outcome(
                    _geometry_dd, par, w), (u, w)
                assert _outcome(pair, par, w, c) == _outcome(
                    _pair_oracle, par, w, c), (u, w)
                n += 1
    assert _outcome(_geometry, parameter(50.0), 10j).startswith(
        "(<class 'ZeroDivisionError'>")
    assert n >= 3000


def test_neg_rounds_as_a_product_by_minus_one():
    # `_dd.Source.neg` writes no line, and its operands take the bits,
    # signed zeros included, of the product by -1.0 it replaces, whose
    # zero parts come out +0.0 (plain -x would give -0.0 for +0.0): a
    # seeded corpus of normalised pairs, two_sum outputs and pairs whose
    # low part is +-0.0, over hi of both signs, zero and 2^-60 to 2^60
    rng = random.Random(20261021)
    pairs = [(h, l) for h in (0.0, -0.0, 1.0, -1.0) for l in (0.0, -0.0)]
    for _ in range(3000):
        h = math.copysign(2.0 ** rng.uniform(-60.0, 60.0), rng.random() - 0.5)
        b = h * rng.uniform(-1.0, 1.0) * 2.0 ** -rng.randint(0, 60)
        pairs += [(h, 0.0), (h, -0.0),
                  (h, math.ulp(h) * rng.uniform(-0.5, 0.5)), two_sum(h, b)]
    src = _dd.Source()
    prod = src.mul_d(("h", "l"), "-1.0")
    lines = len(src.lines)
    neg = src.neg(("h", "l"))
    assert len(src.lines) == lines
    f = _compile("f", "h, l", src.lines + [
        f"return ({prod[0]}, {prod[1]}), ({neg[0]}, {neg[1]})"])
    seen = 0
    for h, l in pairs:
        assert h + l == h, (h, l)
        want, got = f(h, l)
        assert repr(got) == repr(want), (h, l)
        seen += repr(-l) != repr(want[1])
    assert seen >= 3000 and len(pairs) >= 12000


def test_xi_bar_anchors():
    # the LG variable xi = (1/2) zhat sqrt(zhat^2+1) + (1/2) asinh(zhat),
    # read from the phase u*xi
    u = 40.0
    assert _geometry_at(u, 0j)[1] == 0.0
    # closed form at zhat = 1: (1/2) sqrt(2) + (1/2) ln(1 + sqrt(2))
    want = 0.5 * math.sqrt(2.0) + 0.5 * math.log(1.0 + math.sqrt(2.0))
    assert abs(_geometry_at(u, 1.0 + 0j)[1] - u * want) < 1e-15 * u * want
    # approaching the turning point from inside the quadrant
    z = 1j * (1.0 - 1e-9)
    assert abs(_geometry_at(u, z)[1] - u * 1j * math.pi / 4.0) < 1e-4 * u


def test_beta_bar_values():
    assert abs(_geometry_at(40.0, 1.0 + 0j)[0] - 1.0 / math.sqrt(2.0)) < 1e-15
    assert abs(_geometry_at(40.0, 0j)[0]) == 0.0


def _method(a, z):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", lgeval.TruncationWarning)
        return pcf.evaluate(a, z).method


def test_cut_detection():
    # the negative-a route maps the negative real z axis beyond sqrt(2u)
    # onto the cut zhat = i y, y >= 1 (here y = 1.82), and declines it up
    # to rounding; the positive-a route never reaches the imaginary zhat
    # axis, which LG_GATE keeps at |Re z| > 15
    for z in (-20.0 + 0j, -20.0 + 1e-13j, -20.0 - 1e-13j):
        assert _method(-30.2, z) == "origin-series", z
    assert _method(-30.2, -20.0 + 1.5j) == "liouville-green"


def test_check_region_rejections():
    # each reason the LG region policy declines a point, on each sign of
    # a where it can decide: every other condition holds at these points,
    # save where noted
    declined = [
        (17.9, -20.0 + 20.0j),        # u = 35.8 below U_MIN
        (-17.9, -12.0 + 20.0j),
        (20.0, 16.0 + 16.0j),         # zhat in the first quadrant
        (-30.2, 20.0 + 5.0j),         # zhat in the fourth quadrant
        (20.0, -14.9 + 20.0j),        # |Re z| within LG_GATE
        (20.0, -20.0 + 14.9j),        # |Im z| within LG_GATE
        (1000.0, -16.0 + 63.25j),     # |zhat - i| = 0.25 < 0.35
        (-30.2, -10.0 + 4.5j),        # |zhat - i| = 0.42 < 0.5
        (-30.2, -4.0 + 0j),           # segment [0, i] (zhat = 0.36i,
                                      # inside |zhat| < 0.6 or the disk)
        (-30.2, -1.0 + 5.0j),         # |zhat| = 0.46 < 0.6
    ]
    for a, z in declined:
        assert not pcf._in_lg_region(a, z), (a, z)
        assert _method(a, z) == "origin-series", (a, z)
    # together, |zhat| < 0.6 and the disk of radius 0.5 decline the whole
    # strip |Re zhat| < 0.1, |Im zhat| < 1.2 below the turning point
    s = math.sqrt(2.0 * 60.4)
    for re in (0.0, 0.03, 0.0999):
        for im in range(0, 121, 5):
            zhat = complex(-re, 0.01 * im)
            assert not pcf._in_lg_region(-30.2, complex(-zhat.imag * s,
                                                        -zhat.real * s))
    # and points just across each boundary take the LG route
    for a, z in ((18.0, -20.0 + 20.0j), (-18.1, -12.0 + 20.0j),
                 (1000.0, -30.0 + 63.25j), (-30.2, -10.0 + 6.0j)):
        assert _method(a, z) == "liouville-green", (a, z)


def test_gamma_ratio_against_log_gamma():
    # the gamma factor of the a < 0 route is exp(2 * anchors[0]); oracle:
    # ln gr = 0.5 ln(2 pi) - lnGamma(u/2 + 1/2) + (u/2)(ln(u/2) - 1)
    for u in (36.0, 40.0, 80.0, 200.0):
        want = math.exp(0.5 * math.log(2.0 * math.pi)
                        - gammaln(u / 2.0 + 0.5)
                        + (u / 2.0) * (math.log(u / 2.0) - 1.0))
        anchors = parameter(u).anchors
        got = math.exp(2.0 * anchors[0])
        assert abs(got - want) < 1e-12 * want, f"u={u}"
        # the tilde-family anchor sum at +1 gives the same ratio
        got_t = math.exp(2.0 * anchors[1])
        assert abs(got - got_t) < 1e-12 * want, f"u={u} variants"


def test_anchor_sums_match_the_exact_rationals():
    # the anchor sums are the odd folds evaluated at the anchors, -1 for
    # the base family and +1 for the tilde family; they equal the exact
    # sum of F_s(anchor)/u^s over odd s <= S to 1e-15 relative, about
    # 1e-18 of U, whose exponent they enter
    for u in (36.0, 36.4, 40.0, 60.4, 100.0, 1e3, 4000.0, 1e6, 4e7):
        uf = Fraction(u)
        for tilde, x in ((False, -1), (True, 1)):
            want = sum(_exact(s, Fraction(x), tilde) / uf ** s
                       for s in range(1, S + 1, 2))
            got = Fraction(parameter(u).anchors[tilde])
            assert abs(got - want) <= Fraction(1e-15) * abs(want), (u, tilde)


def test_eval_U_matches_mpmath():
    # pair(par, z, ph^2)[0] computes U(u/2, z) in scaled form
    u = 40.0
    a = u / 2.0
    par = parameter(u)
    for zhat in (-0.8 + 0.9j, -1.5 + 0.3j, -0.3 + 1.6j):
        z = math.sqrt(2.0 * u) * zhat
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", lgeval.TruncationWarning)
            got = pair(par, z, par.ph2)[0].to_complex()
        want = complex(mpmath.pcfu(a, complex(z)))
        assert abs(got - want) < 1e-11 * abs(want), f"zhat={zhat}"


def test_eval_Uprime_matches_mpmath_derivative():
    u = 40.0
    a = u / 2.0
    zhat = -1.0 + 0.8j
    z = math.sqrt(2.0 * u) * zhat
    par = parameter(u)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", lgeval.TruncationWarning)
        got = pair(par, z, par.ph2)[1].to_complex()
    want = complex(mpmath.diff(lambda t: mpmath.pcfu(a, t), complex(z)))
    assert abs(got - want) < 1e-11 * abs(want)


@pytest.mark.filterwarnings("ignore::pcfzeros.errors.TruncationWarning")
def test_negated_argument_variant():
    # the a < 0 route at a = -u/2 takes the LG point w = sqrt(2u)*zhat,
    # with z = -i conj(w), and needs the e^{-ix} half there, the
    # companion solution U(u/2, -w) recessive in the opposite direction;
    # at |zhat| of a few the phase u*xi is in the thousands, which plain
    # doubles carry only to about 1e-13
    for u, zhat, tol in ((40.0, -1.0 + 1.0j, 1e-11),
                         (100.0, -2.0 + 2.0j, 5e-14),
                         (100.0, -4.0 + 4.0j, 5e-14)):
        a = -u / 2.0
        w = math.sqrt(2.0 * u) * zhat
        v = pcf._evaluate_lg_neg(a, -1j * w.conjugate())
        with mpmath.workdps(30):
            t = mpmath.mpc(-1j * w.conjugate())
            want = complex(mpmath.pcfu(a, t))
            # U'(a, t) = (t/2) U(a, t) - U(a-1, t)
            want_p = complex(t / 2 * mpmath.pcfu(a, t) - mpmath.pcfu(a - 1, t))
        err = abs(v.U.to_complex() - want) / abs(want)
        err_p = abs(v.Uprime.to_complex() - want_p) / abs(want_p)
        assert err < tol and err_p < tol, (u, zhat, err, err_p)


def _sums(u, z):
    """Per family, base then tilde, the three sums `pair` builds its
    forms from at z: the even-order sum, the odd-order sum (negated for
    the base family) and the odd-order anchor sum."""
    par = parameter(u)
    beta = _geometry(par, z)[0]
    b2 = beta * beta
    sums = []
    for tilde, (even, odd) in zip((False, True), par.folds):
        s_odd = lgeval._folded_sum(odd, beta, b2)
        sums.append((lgeval._folded_sum(even, beta, b2),
                     s_odd if tilde else -s_odd, par.anchors[tilde]))
    return sums


def _full_sum_loop(u, beta, tilde):
    """sum over s = 1..S of sgn^s (F_s(beta) - F_s(-1)) / u^s, sgn = -1
    for the base family and +1 for the tilde family, term by term."""
    sgn = 1.0 if tilde else -1.0
    total = 0j
    for s in range(1, S + 1):
        term = _eval(s, beta, tilde) - _eval(s, -1.0, tilde)
        total += sgn ** s * term / u ** s
    return total


@pytest.mark.filterwarnings("ignore::pcfzeros.errors.TruncationWarning")
def test_three_sums_add_to_the_full_order_sum():
    # the e^{-ix} half of the cosine and sine forms, which the a < 0
    # route needs, takes its full-order sums as the three sums of
    # `pair` added; this rests on the parities of the anchors
    for s in range(2, S + 1, 2):
        assert _exact(s, Fraction(-1), False) == 0
        assert _exact(s, Fraction(1), True) == 0
    for s, (nums, den) in enumerate(build_tables(S, tilde=True), start=1):
        if s % 2:
            p = [Fraction(n, den) for n in nums]
            assert sum(c * (-1) ** k for k, c in enumerate(p)) == -sum(p)
    # a corpus of beta, through the points they come from, at the zhat
    # the negative-a route admits (it evaluates at w = i conj(z))
    n = 0
    for u in (36.0, 60.2, 100.0, 400.0):
        for re in (-0.05, -0.3, -1.0, -2.5, -6.0):
            for im in (0.0, 0.4, 1.5, 3.0, 7.0):
                z = math.sqrt(2.0 * u) * complex(re, im)
                if not pcf._in_lg_region(-0.5 * u, complex(-z.imag, -z.real)):
                    continue
                sums = _sums(u, z)
                beta = _geometry(parameter(u), z)[0]
                for tilde in (False, True):
                    want = _full_sum_loop(u, beta, tilde)
                    size = sum(abs(x) for x in sums[tilde])
                    assert abs(sum(sums[tilde]) - want) <= 1e-15 * size, (
                        u, re, im, tilde)
                n += 1
    assert n >= 80


def test_coefficients_have_the_parity_of_their_order():
    # the folds of `parameter` keep every other coefficient of F_s, those
    # of the parity of s, and treat the rest as zero; they are exactly 0
    for tilde in (False, True):
        for s, (nums, _) in enumerate(build_tables(S, tilde), start=1):
            assert len(nums) == 3 * s + 1, (tilde, s)
            assert all(n == 0 for n in nums[1 - s % 2::2]), (tilde, s)


def _sum_oracle(u, beta, tilde, start):
    """The per-order loop the folds replaced: sum F_s(beta)/u^s over
    every other order s from ``start``, one Horner pass per order,
    stopping once a term is below 1e-16 of the partial sum.
    Returns the sum and whether the loop warned: its last retained term
    above 1e-13."""
    total = 0j
    last = 0.0
    upow = u ** start
    for s in range(start, S + 1, 2):
        term = _eval(s, beta, tilde) / upow
        total += term
        last = abs(term)
        if last < 1e-16 * max(abs(total), 1e-300):
            last = 0.0
            break
        upow *= u ** 2
    return total, last > 1e-13


def test_folded_sums_match_the_per_order_loop():
    # on LG points of both signs of a: a grid of zhat, and a ring around
    # the turning point just outside the excluded disks, where the sums
    # warn; each sum within 1e-15 of its family's sums' size, and as many
    # warnings at each point as the loop gives
    n = warned = 0
    for u in (36.0, 40.0, 60.4, 100.0):
        s2 = math.sqrt(2.0 * u)
        zhats = [complex(-0.3 * i, 0.3 * j)
                 for i in range(1, 11) for j in range(11)]
        zhats += [1j + r * cmath.exp(1j * math.pi * k / 16)
                  for r in (0.36, 0.4, 0.45, 0.52, 0.6) for k in range(8, 25)]
        for zhat in zhats:
            z = s2 * zhat
            if not (pcf._in_lg_region(0.5 * u, z) or pcf._in_lg_region(
                    -0.5 * u, complex(-z.imag, -z.real))):
                continue
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", lgeval.TruncationWarning)
                sums = _sums(u, z)
            beta = _geometry(parameter(u), z)[0]
            want_warnings = 0
            for tilde in (False, True):
                s_even, w_even = _sum_oracle(u, beta, tilde, 2)
                s_odd, w_odd = _sum_oracle(u, beta, tilde, 1)
                want_warnings += w_even + w_odd
                got = sums[tilde]
                size = sum(abs(x) for x in got)
                assert abs(got[0] - s_even) <= 1e-15 * size, (u, zhat, tilde)
                assert abs(got[1] - (s_odd if tilde else -s_odd)) <= (
                    1e-15 * size), (u, zhat, tilde)
            assert len(caught) == want_warnings, (u, zhat)
            n += 1
            warned += want_warnings > 0
    assert n >= 400 and warned >= 20, (n, warned)


@pytest.mark.filterwarnings("ignore::pcfzeros.errors.TruncationWarning")
def test_negative_route_takes_one_point(monkeypatch):
    # one geometry and one set of sums serve both expansions, and one
    # parameter record, with its anchor sums, serves every point at that u
    geometries = []
    sums = []
    geometry = lgeval._geometry_dd
    folded_sum = lgeval._folded_sum
    monkeypatch.setattr(lgeval, "_geometry_dd",
                        lambda *args: geometries.append(1) or geometry(*args))
    monkeypatch.setattr(lgeval, "_folded_sum",
                        lambda *args: sums.append(1) or folded_sum(*args))
    parameter.cache_clear()
    for i, z in enumerate((-12.0 + 20.0j, -25.0 + 5.0j, -3.0 + 28.0j)):
        geometries.clear()
        sums.clear()
        pcf._evaluate_lg_neg(-30.2, z)
        assert len(geometries) == 1
        # each family's even and odd sums, and at the first point the
        # parameter record's two anchor sums, which no later point repeats
        assert len(sums) == (6 if i == 0 else 4), i
    assert parameter.cache_info().misses == 1
    parameter.cache_clear()


def _parameter_oracle(u, S):
    """The constants of `parameter`, each written out as the expression
    the evaluators would compute at every point."""
    odd = [lgeval._fold(c, u, 1) for c in make_tables(S)]
    anchors = (lgeval._folded_sum(odd[0], -1.0, 1.0).real,
               lgeval._folded_sum(odd[1], 1.0, 1.0).real)
    qpi = dd_add(dd_mul_d((math.pi, lgeval._PI_LO), 0.25 * u),
                 (0.25 * math.pi, 0.25 * lgeval._PI_LO))
    ph = cmath.exp(-1j * qpi[0]) * cmath.exp(-1j * qpi[1])
    log_pref = 0.25 * u * (math.log(2.0) + 1.0 - math.log(u))
    lq = 0.25 * math.log(2.0 * u)
    gr = math.exp(2.0 * anchors[0])
    return lgeval.LGParameter(
        u=u,
        # no per-point expression to compare: the folds are held to the
        # per-order loop by test_folded_sums_match_the_per_order_loop
        folds=None,
        s2u=dd_sqrt((2.0 * u, 0.0)),
        anchors=anchors,
        ph2=ph * ph,
        e=(log_pref - lq, log_pref + lq),
        inv_gamma=ScaledValue.make(
            -1j * ph.conjugate() / gr,
            0.5 * u * (math.log(0.5 * u) - 1.0)))


def test_parameter_matches_the_per_point_expressions():
    # caching changes no bit of any constant
    for u in (36.0, 40.0, 60.4, 4000.0):
        assert parameter(u)._replace(folds=None) == _parameter_oracle(u, S), u
        assert parameter(u) is parameter(u)


def test_phases_come_from_one_double_double():
    # ph^2 = e^{-i(u+1)pi/2}, the connection formula's e^{-i pi u/2} =
    # i ph^2 and the gamma factor's phase -i e^{i(u+1)pi/4} = -i conj(ph)
    # all come from the one double-double (u+1)pi/4, so none loses
    # accuracy as u grows; each exponential taken in plain double from
    # u*pi would be off by about u*eps (1.1e-9 at u = 4e7), and a
    # double-double of (u+1)*pi/4 off by the rounding of u + 1 at
    # 1023.37 (1.8e-13)
    with mpmath.workdps(40):
        for u in (36.0, 36.4, 60.4, 1000.0, 1023.37, 4000.0, 1e6, 4e7):
            par = parameter(u)
            x = mpmath.mpf(u) * mpmath.pi
            for got, want in (
                    (par.ph2, mpmath.expj(-(x + mpmath.pi) / 2)),
                    (1j * par.ph2, mpmath.expj(-x / 2)),
                    (par.inv_gamma.mantissa,
                     -1j * mpmath.expj((x + mpmath.pi) / 4))):
                assert abs(got - want) <= 4.4e-16, (u, got, want)


def test_anchor_sums_never_warn():
    # `parameter` computes the odd-order anchor sums once per u, so a
    # warning from them would fire once per u instead of once per point;
    # they give none on the LG route.  Their terms |F_s(anchor)|/u^s fall
    # as u grows, and the last one, the only one the sums can warn on, is
    # 1.5e-17 at U_MIN (the one before it 2.1e-15), far below 1e-13
    last = S - 1 + S % 2
    for tilde, x in ((False, -1), (True, 1)):
        assert abs(_exact(last, Fraction(x), tilde)) / (
            Fraction(U_MIN) ** last) < Fraction(2e-17)
    parameter.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error", lgeval.TruncationWarning)
        for u in (U_MIN, 36.4, 40.0, 60.4, 100.0, 1e3, 4000.0, 1e6):
            parameter(u)


def test_scaled_output_survives_extreme_parameters():
    # the raw function value overflows doubles here; the scaled form must not
    u = 4000.0
    par = parameter(u)
    for sv in pair(par, math.sqrt(2.0 * u) * (-1.0 + 1.0j), par.ph2):
        assert math.isfinite(abs(sv.mantissa))
        assert math.isfinite(sv.exponent)
        assert not sv.is_zero


def test_truncated_sum_warning():
    # just outside the excluded disk around the turning point the series
    # degrades and must warn
    u = 36.0
    par = parameter(u)
    with pytest.warns(lgeval.TruncationWarning):
        pair(par, math.sqrt(2.0 * u) * (-0.3 + 1.2j), par.ph2)
    # the last retained terms reach 3e-10 here (the value is 2.4e-8 off);
    # they depend on the point, so a second call at the same a, which
    # finds its parameter record cached, warns again
    for _ in range(2):
        with pytest.warns(lgeval.TruncationWarning):
            pcf.evaluate(-18.2, -4.713 + 2.402j)


def test_truncation_warning_measures_the_last_term():
    # each sum enters U as an exponent or a phase, so the absolute size
    # of its last term is U's relative error; at these points that size
    # is below 1e-13 although it is up to 1.6e-10 of a small sum, and the
    # value is within 1.1e-14 of mpmath
    for z in (-10.2 + 6.8j, -16.2 + 7.1j):
        with warnings.catch_warnings():
            warnings.simplefilter("error", lgeval.TruncationWarning)
            v = pcf.evaluate(-30.2, z)
        assert v.method == "liouville-green"
        with mpmath.workdps(30):
            want = mpmath.pcfu(-30.2, z)
            got = mpmath.mpc(v.U.mantissa) * mpmath.exp(v.U.exponent)
            assert abs(got - want) < 1e-13 * abs(want), z


# log U(a, z) and log U'(a, z) at z = sqrt(4|a|) zhat to 40 digits, as
# (real, imaginary) pairs, from
#     mpmath.mp.dps = 40
#     z = mpmath.mpc(math.sqrt(4.0 * abs(a)) * zhat)
#     u = mpmath.pcfu(a, z)
#     refs = mpmath.log(u), mpmath.log(z / 2 * u - mpmath.pcfu(a - 1, z))
# with U'(a, z) = (z/2) U(a, z) - U(a-1, z); mpmath.pcfu takes up to
# tens of seconds per call at this |a|.  The a > 0 point at
# zhat = -0.3+1.6i is left out: Re z = -13.4 is within LG_GATE.
_LARGE_A_LOGS = [
    (500.7, -1.2 + 1.1j,
     ("-347.3462017194847591928819372295486190666",
      "1.110384969859916459796056434363176349882"),
     ("-343.7037906012990075045053836966988983731",
      "-2.598737442195478010740609733202383243479")),
    (500.7, -2.0 + 1.1j,
     ("1106.053020702812434989735373527363212685",
      "-0.8468239288510276430117599684938921937453"),
     ("1110.040519934087837689410132804065539446",
      "1.864840063859010360993157791461942272988")),
    (500.7, -2.0 + 1.7j,
     ("329.9260162535660735312053074319903939877",
      "2.722669757172040208278515406363053085449"),
     ("334.0154373667915801428021786775246134249",
      "-1.05394838553588496869276269474718172537")),
    (500.7, -1.0 + 0.8j,
     ("-393.8333689237702801273175373191887943052",
      "1.056125761779267795696410065304053501178"),
     ("-390.3545898612897430959953024243959598913",
      "-2.518740989646340668915812417408049295198")),
    (-500.7, -1.2 + 1.1j,
     ("2030.069548156304430938730061364143093739",
      "-2.031726009377341506495864007205067840172"),
     ("2033.683271617818887242850620216748111277",
      "-2.958862192799499527102936602707232150468")),
    (-500.7, -2.0 + 1.1j,
     ("1696.159235858031288291209697119266686237",
      "-1.979276075711686481953697159043330126377"),
     ("1700.046297260881579289228597088807647032",
      "0.5699982721035749733291234141406440578772")),
    (-500.7, -2.0 + 1.7j,
     ("1827.129697706379141662632031870424793462",
      "2.923551056817532150780659679043665223607"),
     ("1831.196223810653871351139071722652297101",
      "2.146314203261600370957002541385240930019")),
    (-500.7, -0.3 + 1.6j,
     ("3402.242127530676671735686520300782936889",
      "0.9269997811447062928597280000248238618305"),
     ("3405.990530088214959897929887616057242149",
      "-0.508817572948179993206920104499611079088")),
    (-500.7, -1.0 + 0.8j,
     ("1842.173557970727648901129350697720860752",
      "-1.188547301620593521539655147272233651955"),
     ("1845.553490290691585163861019681308394994",
      "-2.163978941822232957051307064500037856402")),
]


def test_large_a_error_is_the_exponent_resolution():
    # the LG route's error against mpmath grows with |a| past 1e-13,
    # since a ScaledValue carries |U| in its double exponent E alone
    # (the mantissa has modulus 1): half an ulp of E is 1.14e-13 of U
    # once |E| >= 1024.  The expansions are accurate beyond that: with
    # r the computed value over the reference, the phase error |arg r|
    # stays below 2.3e-14 and the modulus error |log|r|| within
    # 1.54 ulp(E) at |E| up to 3406
    with mpmath.workdps(40):
        for a, zhat, *refs in _LARGE_A_LOGS:
            v = pcf.evaluate(a, math.sqrt(4.0 * abs(a)) * zhat)
            assert v.method == "liouville-green", (a, zhat)
            for got, ref in zip((v.U, v.Uprime), refs):
                lr = (mpmath.log(got.mantissa) + got.exponent
                      - mpmath.mpc(*ref))
                arg = (lr.imag + mpmath.pi) % (2 * mpmath.pi) - mpmath.pi
                assert abs(arg) <= 3e-14, (a, zhat, arg)
                assert abs(lr.real) <= 2 * math.ulp(got.exponent) + 3e-14, (
                    a, zhat, lr.real)
        # no ScaledValue meets 1e-13 here: the double nearest the exact
        # log |U| is itself 1.7e-13 off it
        ref = mpmath.mpf(_LARGE_A_LOGS[-2][2][0])
        assert abs(ref - float(ref)) > 1e-13


# log U and log U' as in _LARGE_A_LOGS, by the same snippet (mpmath.pcfu
# took 8 s per call), at the a > 0 point left out there
_GATED_LOGS = (
    500.7, -0.3 + 1.6j,
    ("-888.7191593184760129955904805110015866307",
     "-1.615080131912492456666551178622548531056"),
    ("-885.3299916999943666673008310352786122294",
     "-2.896393712112693374034053324652871104043"))


@pytest.mark.xfail(strict=True, reason=(
    "LG_GATE (Re z < -15) sends z = -13.43+71.60i to the origin route, "
    "1.86e4 relative off mpmath: exponent -878.89 against the true "
    "log|U| -888.72; pcf._evaluate_lg is 5.0e-14 off there (ROADMAP "
    "item 2b)"))
def test_large_a_point_inside_the_gate_holds_the_exponent_resolution():
    # the value, whichever route serves it, to the modulus bound of
    # test_large_a_error_is_the_exponent_resolution; the phase to the
    # 1e-13 target, since the LG route's phase error here is 3.8e-14,
    # above that test's 3e-14
    a, zhat, *refs = _GATED_LOGS
    v = pcf.evaluate(a, math.sqrt(4.0 * abs(a)) * zhat)
    with mpmath.workdps(40):
        for got, ref in zip((v.U, v.Uprime), refs):
            lr = mpmath.log(got.mantissa) + got.exponent - mpmath.mpc(*ref)
            arg = (lr.imag + mpmath.pi) % (2 * mpmath.pi) - mpmath.pi
            assert abs(arg) <= 1e-13, arg
            assert abs(lr.real) <= 2 * math.ulp(got.exponent) + 3e-14, (
                lr.real)


_LAZY_BUILD = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
from pcfzeros import _taylor_py, evaluate
method = evaluate(-1.7, -3 + 2j).method
before = [m for m in ("pcfzeros.lgeval", "pcfzeros._dd") if m in sys.modules]
compiled, counts = [], []
compile_ = _taylor_py._compile
_taylor_py._compile = lambda name, *args: compiled.append(name) or compile_(
    name, *args)
methods = []
for a, z in ((20.0, -40 + 35j), (-30.2, -10 + 12j), (-30.2, -20 + 25j),
             (40.0, -30 + 30j)):
    methods.append(evaluate(a, z).method)
    counts.append(len(compiled))
print(json.dumps([method, before, methods, compiled, counts]))
"""


def test_generated_code_is_built_once_when_lgeval_loads():
    # compiling `_dd` and the double-double code generated from it takes
    # milliseconds, so neither the import nor the origin route loads or
    # builds them; the first LG evaluation loads `lgeval`, which builds
    # the code once for every a and every point
    src = Path(lgeval.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", _LAZY_BUILD, str(src)],
                          capture_output=True, text=True, check=True)
    method, before, methods, compiled, counts = json.loads(
        proc.stdout.splitlines()[-1])
    assert method == "origin-series" and before == []
    assert methods == ["liouville-green"] * 4
    assert compiled == ["parameter_dd", "geometry_dd", "exponents_dd"]
    assert counts == [3] * 4

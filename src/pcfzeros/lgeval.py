"""Liouville-Green asymptotic evaluation of U(u/2, z) for large u.

The parameter is u = 2|a|: `pcf` evaluates U(a, z) from these
expansions for a > 0, and for a < 0 from the two solutions at u = -2a
and the gamma factor of :func:`parameter` (`pcf._evaluate_lg_neg`).
`pcf` imports this module, and with it `lgcoef` and `_dd`, at its first
LG evaluation, not with the package.

Two steps, one per parameter and one per point, which returns the
pair (U, U') as :class:`ScaledValue` results, since the prefactors
overflow doubles long before the series lose accuracy:

- :func:`parameter` computes, once per u, every constant that does not
  depend on the point: sqrt(2u), the coefficient sums folded into even
  and odd polynomials (:func:`_fold`), the anchor sums as the odd folds
  at their anchors, ph^2 with ph = e^{-i(u+1)pi/4}, the log prefactor
  and the gamma factor of the a < 0 route;
- :func:`pair` maps z to zhat, computes the geometry in double-double
  precision and, for each coefficient family, the even-order and
  odd-order sums from their folds
  (:func:`_folded_sum`, the one sum of this module and the one place
  it warns of truncation), and from them and the anchor sum the cosine
  and sine forms of U(u/2, z) and U'(u/2, z), each written as two
  exponentials, e^{ix} + c e^{-ix}, with the scaling and the large
  phase carried in double-double precision.  Both signs of a take this
  one form and differ only in the coefficient c: ph^2 for a > 0, and
  ph^2 - conj(ph^2) for the connection formula of the a < 0 route.  It
  does not check the region, which is the caller's choice
  (`pcf._in_lg_region`).

Every double-double operation of both steps runs as straight-line code
(:func:`_dd_code`): `_dd` writes each operation out as source, and the
three functions composed from them are compiled once, when this module
loads, so that a point pays for its float operations and not for the
210 calls of small routines that would carry them, with every value the
same to the bit.

The forms work in the scaled variable ``zhat`` (the physical argument is
z = sqrt(2u)*zhat).  Branch conventions: the square root
w = sqrt(zhat^2 + 1) is principal, which has positive real part
everywhere off the cuts zhat = +/- i*y, 1 <= y < inf; the LG variable
uses the principal inverse hyperbolic sine, whose cuts coincide with
those.
"""
from __future__ import annotations

import cmath
import math
import warnings
from functools import lru_cache
from typing import NamedTuple

from . import _dd
from ._taylor_py import _compile
from .config import LG_ORDER
from .errors import TruncationWarning
from .lgcoef import Table, make_tables
from .scaled import ScaledValue

_PI_LO = 1.2246467991473532e-16  # pi - math.pi, the tail of the double


# one coefficient sum as (start, u^start, first, middle, last); see _fold
Fold = tuple[int, float, tuple[float, ...], tuple[float, ...],
             tuple[float, ...]]


def _fold(coeffs: Table, u: float, start: int) -> Fold:
    """The sum of F_s(beta)/u^s over s = start, start+2, ..., S' (S' the
    last order <= S = len(coeffs) of that parity), with F the family of
    ``coeffs``, one of the pair `lgcoef.make_tables` returns, in three parts:

    - the first order, all its coefficients, evaluated in beta at each
      point and divided by u^start: near beta = +-1 it carries the
      cancellation of the factor (beta^2 - 1)^2;
    - the middle orders, folded into one polynomial in beta^2 whose
      coefficients are the correctly rounded sums of c_{s,j}/u^s;
    - the last order alone, c_{S',j}/u^S', also in beta^2: its size is
      the sum's truncation estimate.

    F_s has the parity of s (its coefficients off that parity are
    exactly 0), so only every other coefficient of the middle and the
    last orders enters, and an odd sum multiplies both their polynomials
    by beta.  Returns (start, u^start, first, middle, last), each
    polynomial highest power first.
    """
    orders = range(start, len(coeffs) + 1, 2)
    rows = [(u ** s, coeffs[s - 1][start % 2::2]) for s in orders]
    middle = [math.fsum(c[k] / upow for upow, c in rows[1:-1] if k < len(c))
              for k in range(len(rows[-2][1]))]
    upow, c = rows[-1]
    return (start, rows[0][0], tuple(reversed(coeffs[start - 1])),
            tuple(reversed(middle)), tuple(x / upow for x in reversed(c)))


def _folded_sum(fold: Fold, beta: complex, b2: complex) -> complex:
    """The sum of `fold` at beta, with b2 = beta^2: the first order by a
    Horner pass in beta, divided by u^start, then the middle and the
    last orders by one Horner pass in b2 each.

    The last order's size is the truncation estimate.  Each sum enters
    U as an exponent or a phase, so that size is the relative error it
    leaves in U; warns if it exceeds 1e-13 (approaching the divergent
    tail of the asymptotic series).
    """
    start, upow, first, middle, last = fold
    f = m = t = 0j
    for c in first:
        f = f * beta + c
    for c in middle:
        m = m * b2 + c
    for c in last:
        t = t * b2 + c
    if start % 2:
        m *= beta
        t *= beta
    total = f / upow + m + t
    size = abs(t)
    if size > 1e-13:
        warnings.warn(f"asymptotic sum truncated at a term of size {size:.2e}",
                      TruncationWarning, stacklevel=2)
    return total


class LGParameter(NamedTuple):
    """What the expansions share at one parameter u, whatever the
    point; see :func:`parameter`."""
    u: float
    # per family, base then tilde: the even-order and the odd-order
    # sums of F_s(beta)/u^s as `_fold` makes them
    folds: tuple[tuple[Fold, Fold], tuple[Fold, Fold]]
    s2u: tuple[float, float]      # sqrt(2u) as a double-double
    anchors: tuple[float, float]  # odd sums at beta = -1 (base), +1 (tilde)
    ph2: complex                  # ph^2, with ph = e^{-i(u+1)pi/4}
    # log of (2e/u)^(u/4) / (2u)^(1/4), the prefactor of the U forms,
    # then of (2e/u)^(u/4) * (2u)^(1/4), that of the U' forms
    e: tuple[float, float]
    inv_gamma: ScaledValue        # the factor 1/gamma of the a < 0 route


@lru_cache(maxsize=64)
def parameter(u: float) -> LGParameter:
    """Every constant of the expansions that depends on u alone, at the
    truncation order `config.LG_ORDER`, computed once for all the points
    at that parameter.

    The anchor sums are the odd folds at the anchors: F_s has the
    parity of s, so there they are the sum of F_s(anchor)/u^s over odd
    s, rounding aside.  They never warn at that order: their last term
    is 1.5e-17 at u = U_MIN and falls as u grows, so caching them loses
    no TruncationWarning.  The gamma factor of the a < 0 route is
    sqrt(2 pi)/Gamma(u/2 + 1/2) * (u/2e)^(u/2) = exp(2 * anchors[0]).

    Every phase of both routes is a power of ph = e^{-i(u+1)pi/4}, taken
    once from the double-double (u+1)pi/4: ph^2, and conj(ph) in 1/gamma.
    """
    folds = tuple((_fold(c, u, 2), _fold(c, u, 1))
                  for c in make_tables(LG_ORDER))
    anchors = tuple(_folded_sum(odd, x, 1.0).real
                    for (_, odd), x in zip(folds, (-1.0, 1.0)))
    qpi, s2u = _parameter_dd(u)
    ph = cmath.exp(-1j * qpi[0]) * cmath.exp(-1j * qpi[1])
    lq = 0.25 * math.log(2.0 * u)
    log_pref = 0.25 * u * (math.log(2.0) + 1.0 - math.log(u))
    # 1/gamma = -i e^{(u/4+1/4) pi i} Gamma(u/2+1/2) / sqrt(2 pi), with
    # the Gamma expressed through its scaled asymptotic ratio
    inv_gamma = ScaledValue.make(
        -1j * ph.conjugate() / math.exp(2.0 * anchors[0]),
        0.5 * u * (math.log(0.5 * u) - 1.0))
    return LGParameter(
        u, folds, s2u, anchors, ph * ph,
        (log_pref - lq, log_pref + lq), inv_gamma)


def _dd_code():
    """The double-double arithmetic of :func:`parameter` and :func:`pair`
    as the functions (parameter, geometry, exponents), written out once
    from the operations of `_dd.Source` and compiled when this module
    loads, into `_parameter_dd`, `_geometry_dd` and `_exponents_dd`.  The
    float operations are those of the double-double routines composed in
    the order written here, so every result is identical to the bit to
    theirs (``tests/test_lgeval.py`` keeps the routines as the oracle).

    ``geometry(z, sh, sl, u)`` maps z = sqrt(2u)*zhat, with sqrt(2u) =
    sh + sl, to (beta, quarter, phi): beta = zhat/w and quarter = sqrt(w)
    with w = sqrt(zhat^2 + 1), and phi = u*xi as the double-doubles
    (Re hi, Re lo, Im hi, Im lo), with the LG variable
    xi = (zhat w + asinh zhat)/2.  The scaling, w and xi are carried in
    double-double: for |z| ~ 100 and u ~ 40 the phase reaches a few
    thousand, where plain double rounding of xi alone already costs
    ~3e-13 of relative accuracy in the oscillatory factors.  w is the
    principal root refined by one Newton step, and asinh zhat =
    log(zhat + w) is taken as log(hi) + lo/hi from the one double
    cmath.log(hi): phi's error is u/2 times the rounding of that log,
    which sets the phase error of U and U' at large u, 3.84e-14 at
    a = 500.7, zhat = -0.3+1.6i, 1.33e-14 at -1+0.8i and 1.32e-14 at
    -1.2+1.1i, and 2.24e-14 at a = -500.7, zhat = -1+0.8i.  A
    double-double log would lift that floor, but would move bits.

    ``parameter(u)`` returns the double-doubles (u+1)pi/4 and sqrt(2u).
    ``exponents(phi, s_odd, s_even, e0, anchor)`` gives, for one family,
    (cp, cm, e, e_lo): e^{ix} = cp e^m and e^{-ix} = cm e^m with
    x = i*phi + i*s_odd in double-double and m = |Im x|, safe for large
    |Im x|, and the exponent e0 + s_even + anchor + m as e + e_lo.
    """
    par = _dd.Source()
    u4 = par.let("0.25 * u")
    # (u+1)pi/4 as u*pi/4 + pi/4, since u + 1 itself may round
    qpi = par.add(par.mul_d((repr(math.pi), repr(_PI_LO)), u4),
                  (repr(0.25 * math.pi), repr(0.25 * _PI_LO)))
    s2u = par.sqrt((par.let("2.0 * u"), "0.0"))

    geo = _dd.Source()
    s2 = ("sh", "sl")
    zh = (geo.div((geo.let("z.real"), "0.0"), s2),
          geo.div((geo.let("z.imag"), "0.0"), s2))
    zhat = geo.let(f"complex({zh[0][0]} + {zh[0][1]}, "
                   f"{zh[1][0]} + {zh[1][1]})")
    w2 = geo.cadd(geo.cmul(zh, zh), (("1.0", "0.0"), ("0.0", "0.0")))
    # w = r + (w2 - r^2)/(2r), r the principal double root; at w2 = 0 the
    # quotient raises ZeroDivisionError, as beta = zhat/w would
    r = geo.let(f"cmath.sqrt(complex({w2[0][0]}, {w2[1][0]}))")
    rdd = (geo.let(f"{r}.real"), "0.0"), (geo.let(f"{r}.imag"), "0.0")
    res = geo.cadd(w2, geo.cmul_d(geo.cmul(rdd, rdd), "-1.0"))
    corr = geo.let(f"complex({res[0][0]} + {res[0][1]}, "
                   f"{res[1][0]} + {res[1][1]}) / (2.0 * {r})")
    w = geo.let(f"{r} + {corr}")
    wdd = ((rdd[0][0], geo.let(f"{corr}.real")),
           (rdd[1][0], geo.let(f"{corr}.imag")))
    beta = geo.let(f"{zhat} / {w}")
    zw = geo.cadd(zh, wdd)
    zw_hi = geo.let(f"complex({zw[0][0]}, {zw[1][0]})")
    log = geo.let(f"cmath.log({zw_hi})")
    log_lo = geo.let(f"complex({zw[0][1]}, {zw[1][1]}) / {zw_hi}")
    asinh = ((geo.let(f"{log}.real"), geo.let(f"{log_lo}.real")),
             (geo.let(f"{log}.imag"), geo.let(f"{log_lo}.imag")))
    xi = geo.cmul_d(geo.cadd(geo.cmul(zh, wdd), asinh), "0.5")
    phi = geo.cmul_d(xi, "u")
    quarter = geo.let(f"cmath.sqrt({w})")

    # x = i*phi + i*s_odd: Re x = -Im(phi) - Im(s_odd), Im x = Re(phi)
    # + Re(s_odd)
    ex = _dd.Source()
    so = ex.let("s_odd.imag"), ex.let("s_odd.real")
    xr = ex.add(("-pi", "-pil"), (f"-{so[0]}", "0.0"))
    xim = ex.add(("pr", "prl"), (so[1], "0.0"))
    m = ex.let(f"abs({xim[0]})")
    cp = ex.let(f"cmath.exp(1j * {xr[0]}) * cmath.exp(complex(-{xim[1]}, "
                f"{xr[1]})) * math.exp(-{xim[0]} - {m})")
    cm = ex.let(f"cmath.exp(-1j * {xr[0]}) * cmath.exp(complex({xim[1]}, "
                f"-{xr[1]})) * math.exp({xim[0]} - {m})")
    e = ("e0", "0.0")
    for term in ("s_even", "anchor", m):
        e = ex.add(e, (term, "0.0"))

    modules = {"cmath": cmath, "math": math}
    return (
        _compile("parameter_dd", "u",
                 par.lines + [f"return ({qpi[0]}, {qpi[1]}), "
                              f"({s2u[0]}, {s2u[1]})"], modules),
        _compile("geometry_dd", "z, sh, sl, u",
                 geo.lines + [f"return {beta}, {quarter}, ({phi[0][0]}, "
                              f"{phi[0][1]}, {phi[1][0]}, {phi[1][1]})"],
                 modules),
        _compile("exponents_dd",
                 "phi, s_odd, s_even, e0, anchor",
                 ["pr, prl, pi, pil = phi"] + ex.lines
                 + [f"return {cp}, {cm}, {e[0]}, {e[1]}"], modules))


_parameter_dd, _geometry_dd, _exponents_dd = _dd_code()


def pair(par: LGParameter, z: complex,
         c: complex) -> tuple[ScaledValue, ScaledValue]:
    """U(u/2, z) and U'(u/2, z) at z = sqrt(2u)*zhat, as the cosine and
    sine forms (e^{ix} + c e^{-ix})/quarter and
    -(e^{ix} - c e^{-ix})/2 * quarter times the common prefactor, with
    quarter = (1 + zhat^2)^(1/4), x = i*u*xi + i*s_odd, and per family
    (base for U, tilde for U') the even-order and odd-order sums of the
    folds of :func:`parameter` (:func:`_folded_sum`, each of which may
    warn; s_odd negated for the base family) and its anchor sum.  At
    c = ph^2 (`LGParameter.ph2`) they are U and U', since
    2 ph cos(x + (u+1)pi/4) = e^{ix} + ph^2 e^{-ix} and
    -i ph sin(x + (u+1)pi/4) = -(e^{ix} - ph^2 e^{-ix})/2;
    `pcf._evaluate_lg_neg` passes ph^2 - conj(ph^2).  Unchecked
    precondition: u >= U_MIN, and zhat in the closed second quadrant,
    off the imaginary axis and clear of the turning point i, as
    `pcf._in_lg_region` admits."""
    beta, quarter, phi = _geometry_dd(z, *par.s2u, par.u)
    b2 = beta * beta
    forms = []
    for tilde, (even, odd) in zip((False, True), par.folds):
        s_odd = _folded_sum(odd, beta, b2)
        s_even = _folded_sum(even, beta, b2)
        if not tilde:
            s_odd = -s_odd
        cp, cm, e, e_lo = _exponents_dd(phi, s_odd, s_even.real,
                                        par.e[tilde], par.anchors[tilde])
        if tilde:
            mant = -0.5 * (cp - c * cm) * quarter
        else:
            mant = (cp + c * cm) / quarter
        mant *= cmath.exp(1j * s_even.imag)
        forms.append(ScaledValue.make(mant * math.exp(e_lo), e))
    return forms[0], forms[1]

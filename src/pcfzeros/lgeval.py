"""Liouville-Green asymptotic evaluation for large positive parameter.

One evaluator per regime, each returning the pair (U, U') as
:class:`ScaledValue` results, since the prefactors overflow doubles long
before the series lose accuracy:

- :func:`eval_pair`, the oscillatory cosine/sine forms of U(u/2, z) and
  U'(u/2, z), with the scaling and the large phase carried in
  double-double precision;
- :func:`eval_pair_negarg`, the single-exponential forms at the negated
  argument -sqrt(2u)*zhat, where the solution is recessive.

Both work in the scaled variable ``zhat`` (the physical argument is
z = sqrt(2u)*zhat with u = 2a).  Branch conventions: the square root
w = sqrt(zhat^2 + 1) is principal, which has positive real part
everywhere off the cuts zhat = +/- i*y, 1 <= y < inf; the LG variable
uses the principal inverse hyperbolic sine, whose cuts coincide with
those.
"""
from __future__ import annotations

import cmath
import math
import warnings

from . import _dd
from .errors import CutError, RegionError, TruncationWarning
from .lgcoef import LGCoeffTables
from .scaled import ScaledValue

U_MIN = 36.0          # smallest parameter the expansions are trusted at
R_TURNING = 0.35      # excluded disk radius around the turning point zhat = i

_PI_LO = 1.2246467991473532e-16  # pi - math.pi, the tail of the double


def _check_cut(zhat: complex) -> None:
    if abs(zhat.real) < 1e-13 and abs(zhat.imag) >= 1.0:
        raise CutError(f"zhat={zhat} lies on a branch cut")


def _truncated_sum(coeffs, u: float, start: int, step: int) -> complex:
    """sum coeffs[s] / u^s over s = start, start+step, ...

    ``coeffs[s]`` is looked up through a callable (1-based order).  Stops
    early once a term is below 1e-16 of the partial sum; warns if the
    final retained term is still above 1e-12 of it (approaching the
    divergent tail of the asymptotic series).
    """
    total = 0j
    last = 0.0
    upow = u ** start
    ustep = u ** step
    s = start
    n = 0
    while True:
        c = coeffs(s)
        if c is None:
            break
        term = c / upow
        total += term
        last = abs(term)
        n += 1
        if last < 1e-16 * max(abs(total), 1e-300):
            last = 0.0
            break
        upow *= ustep
        s += step
    if n and last > 1e-12 * max(abs(total), 1e-300):
        warnings.warn(
            f"asymptotic sum truncated at relative size {last / max(abs(total), 1e-300):.2e}",
            TruncationWarning, stacklevel=3)
    return total


def _sum_beta(tables: LGCoeffTables, u: float, beta: complex, tilde: bool,
              start: int) -> complex:
    """sum F_s(beta) / u^s over every other order from ``start``, with F
    the base family or, with ``tilde``, the tilde family."""
    return _truncated_sum(
        lambda s: tables.eval(s, beta, tilde) if s <= tables.S else None,
        u, start, 2)


def _sum_anchor(tables: LGCoeffTables, u: float, tilde: bool) -> float:
    """sum F_s(anchor) / u^s over odd s, at the anchor -1 of the base
    family or +1 of the tilde family."""
    anchors = tables.Etilde_at_p1 if tilde else tables.E_at_m1
    return _truncated_sum(
        lambda s: anchors[s - 1] if s <= tables.S else None, u, 1, 2).real


def _sum_full(tables: LGCoeffTables, u: float, beta: complex,
              tilde: bool) -> complex:
    """sum sgn^s (F_s(beta) - F_s(anchor)) / u^s over all s, with
    sgn = -1 for the base family and +1 for the tilde family."""
    anchors = tables.Etilde_at_p1 if tilde else tables.E_at_m1

    def coeff(s):
        if s > tables.S:
            return None
        anchor = anchors[s - 1]
        if tilde:
            # Et_s(-1) = (-1)^s Et_s(1) by parity
            anchor = anchor if s % 2 == 0 else -anchor
        c = tables.eval(s, beta, tilde) - anchor
        return -c if (not tilde and s % 2 == 1) else c

    return _truncated_sum(coeff, u, 1, 1)


def check_region(u: float, zhat: complex) -> None:
    """Validity gate for the oscillatory-form expansions."""
    if u < U_MIN:
        raise RegionError(f"u={u} below the trusted minimum {U_MIN}")
    if zhat.real > 1e-12 or zhat.imag < -1e-12:
        raise RegionError(f"zhat={zhat} not in the closed second quadrant")
    if abs(zhat - 1j) < R_TURNING:
        raise RegionError(
            f"zhat={zhat} within {R_TURNING} of the turning point i")
    if abs(zhat.real) < 1e-13 and 0.0 <= zhat.imag <= 1.0:
        raise RegionError(f"zhat={zhat} on the excluded segment [0, i]")
    _check_cut(zhat)


def _geometry(u: float, zhat: complex):
    """(beta, xi, quarter, log2u_quarter) in plain doubles: beta =
    zhat/w, the LG variable xi = (1/2) zhat w + (1/2) asinh(zhat),
    quarter = (1 + zhat^2)^(1/4) and log2u_quarter = log(2u)/4."""
    w = cmath.sqrt(zhat * zhat + 1.0)
    beta = zhat / w
    xi = 0.5 * zhat * w + 0.5 * cmath.asinh(zhat)
    quarter = cmath.sqrt(w)
    log2u_quarter = 0.25 * math.log(2.0 * u)
    return beta, xi, quarter, log2u_quarter


def _geometry_dd(u: float, z: complex):
    """Geometry from the physical argument z = sqrt(2u)*zhat.

    The scaling, the LG variable xi and the phase u*xi are carried in
    double-double precision: for |z| ~ 100 and u ~ 40 the phase reaches
    a few thousand, where plain double rounding of xi alone already
    costs ~3e-13 of relative accuracy in the oscillatory factors.
    Returns (zhat, beta, phi, quarter, log2u_quarter) with phi = u*xi
    as a (hi, lo) complex pair and everything else plain doubles.
    """
    s2u = _dd.dd_sqrt((2.0 * u, 0.0))
    zh = _dd.cdd_div_dd((complex(z), 0j), s2u)
    zhat = zh[0] + zh[1]
    w2 = _dd.cdd_add(_dd.cdd_mul(zh, zh), (1.0 + 0j, 0j))
    wdd = _dd.cdd_sqrt(w2)
    w = wdd[0] + wdd[1]
    beta = zhat / w
    asinh = _dd.cdd_log(_dd.cdd_add(zh, wdd))
    xi = _dd.cdd_mul_d(_dd.cdd_add(_dd.cdd_mul(zh, wdd), asinh), 0.5)
    phi = _dd.cdd_mul_d(xi, u)
    quarter = cmath.sqrt(w)
    log2u_quarter = 0.25 * math.log(2.0 * u)
    return zhat, beta, phi, quarter, log2u_quarter


def _scaled_trig_dd(xr, xim, sine: bool):
    """cos(x), or sin(x) with ``sine``, as (mantissa, exponent) with x
    given as dd (real, imag); safe for large |Im x|."""
    t, tl = xim
    m = abs(t)
    cp = (cmath.exp(1j * xr[0]) * cmath.exp(complex(-tl, xr[1]))
          * math.exp(-t - m))
    cm = (cmath.exp(-1j * xr[0]) * cmath.exp(complex(tl, -xr[1]))
          * math.exp(t - m))
    mant = (cp - cm) / 2j if sine else 0.5 * (cp + cm)
    return mant, m


def _log_pref(u: float) -> float:
    # log of (2e/u)^(u/4)
    return 0.25 * u * (math.log(2.0) + 1.0 - math.log(u))


def _oscillatory(u: float, tables: LGCoeffTables, beta: complex, phi,
                 quarter: complex, lq: float, tilde: bool) -> ScaledValue:
    """U from the cosine form or, with ``tilde``, U' from the sine form,
    given the double-double geometry of :func:`_geometry_dd`."""
    s_even = _sum_beta(tables, u, beta, tilde, 2)
    s_anchor = _sum_anchor(tables, u, tilde)
    s_odd = _sum_beta(tables, u, beta, tilde, 1)
    if not tilde:
        s_odd = -s_odd
    qpi = _dd.dd_mul_d((math.pi, _PI_LO), 0.25 * (u + 1.0))
    # x = i*u*xi + (u+1)*pi/4 + i*s_odd, assembled in dd (s_odd carries
    # the sign of its family)
    xr = _dd.dd_add(_dd.dd_add((-phi[0].imag, -phi[1].imag), qpi),
                    (-s_odd.imag, 0.0))
    xim = _dd.dd_add((phi[0].real, phi[1].real), (s_odd.real, 0.0))
    trig_m, trig_e = _scaled_trig_dd(xr, xim, sine=tilde)
    if tilde:
        qpm = _dd.dd_mul_d((math.pi, _PI_LO), -0.25 * (u - 1.0))
        mant = -cmath.exp(1j * qpm[0]) * cmath.exp(1j * qpm[1]) * quarter
        e = (_log_pref(u) + lq, 0.0)
    else:
        mant = (2.0 * cmath.exp(-1j * qpi[0]) * cmath.exp(-1j * qpi[1])
                / quarter)
        e = (_log_pref(u) - lq, 0.0)
    mant *= cmath.exp(1j * s_even.imag) * trig_m
    for term in (s_even.real, s_anchor, trig_e):
        e = _dd.dd_add(e, (term, 0.0))
    return ScaledValue.make(mant * math.exp(e[1]), e[0])


def eval_pair(u: float, z: complex, tables: LGCoeffTables
              ) -> tuple[ScaledValue, ScaledValue]:
    """U(u/2, z) and U'(u/2, z) via the cosine- and sine-form expansions.

    The scaling z -> zhat = z/sqrt(2u) and the large phase u*xi are
    carried in double-double precision, which keeps the relative
    accuracy near 1e-14 even when the phase reaches a few thousand.
    Raises :class:`RegionError` unless zhat passes :func:`check_region`.
    """
    zhat, beta, phi, quarter, lq = _geometry_dd(u, z)
    check_region(u, zhat)
    return (_oscillatory(u, tables, beta, phi, quarter, lq, tilde=False),
            _oscillatory(u, tables, beta, phi, quarter, lq, tilde=True))


def eval_pair_negarg(u: float, zhat: complex, tables: LGCoeffTables
                     ) -> tuple[ScaledValue, ScaledValue]:
    """U(u/2, -sqrt(2u)*zhat) and U'(u/2, -sqrt(2u)*zhat), the solution
    recessive as zhat -> -inf."""
    if u < U_MIN:
        raise RegionError(f"u={u} below the trusted minimum {U_MIN}")
    if abs(zhat - 1j) < R_TURNING:
        raise RegionError("zhat too close to the turning point i")
    _check_cut(zhat)
    beta, xi, quarter, lq = _geometry(u, zhat)
    f = _sum_full(tables, u, beta, tilde=False)
    U = ScaledValue.make(cmath.exp(1j * (u * xi.imag + f.imag)) / quarter,
                         _log_pref(u) - lq + u * xi.real + f.real)
    f = _sum_full(tables, u, beta, tilde=True)
    Up = ScaledValue.make(
        -0.5 * quarter * cmath.exp(1j * (u * xi.imag + f.imag)),
        _log_pref(u) + lq + u * xi.real + f.real)
    return U, Up


def gamma_ratio(u: float, tables: LGCoeffTables,
                variant: str = "E") -> float:
    """Series approximation of sqrt(2 pi)/Gamma(u/2 + 1/2) * (u/2e)^(u/2).

    variant "E" uses the base-family odd anchors at -1, variant "Etilde"
    the tilde-family anchors at +1; both target the same ratio.
    """
    if variant not in ("E", "Etilde"):
        raise ValueError(f"unknown variant {variant!r}")
    return math.exp(2.0 * _sum_anchor(tables, u, variant == "Etilde"))

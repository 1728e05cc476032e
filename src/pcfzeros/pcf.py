"""Absolute evaluation of U(a,z) and U'(a,z) in the left half-plane.

Two routes: origin-anchored Taylor-ODE integration along a path that
follows the level lines of Re z^2 (where forward integration stays well
conditioned, see _path_waypoints), and the Liouville-Green expansions
for large |a| away from the axes.  At the Hermite parameters
a = -n - 1/2 both fail (U is recessive along the integration path and
the negative-parameter expansions degenerate), and the closed form
U = e^{-z^2/4} He_n(z) is used instead.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from scipy.special import gammaln, gammasgn

from . import lgeval, taylor
from .config import ChainConfig, DEFAULT_CONFIG
from .errors import PcfZerosError, RegionError
from .lgcoef import make_tables
from .scaled import ScaledValue

_LOG_SQRT_PI = 0.5 * math.log(math.pi)
_LN2 = math.log(2.0)
# He_n is rescaled past this modulus, into the log scale of its value
_HERMITE_RESCALE = 1e100
# |a| from which `evaluate` considers the LG expansions: u = 2|a| = U_MIN
A_LG = 0.5 * lgeval.U_MIN
LG_GATE = 15.0    # |Re z|, |Im z| gate for the positive-parameter LG route


@dataclass(frozen=True)
class PcfValue:
    """Function and derivative values with evaluation-route provenance."""
    U: ScaledValue
    Uprime: ScaledValue
    method: str  # "origin-series" | "liouville-green" | "hermite"


def is_hermite(a: float) -> bool:
    """True if a is -k + 1/2, to within 1e-12, for some integer k >= 1."""
    k = round(0.5 - a)
    return k >= 1 and abs(a - (0.5 - k)) < 1e-12


def origin_values_scaled(a: float) -> tuple[tuple[complex, complex], float]:
    """Origin data as mantissa pair + common log scale."""
    x0 = 0.75 + 0.5 * a
    x1 = 0.25 + 0.5 * a
    g0 = gammaln(x0)
    g1 = gammaln(x1)
    # gammasgn is nan at the poles, where the value is exactly zero
    s0 = gammasgn(x0) if math.isfinite(g0) else 0.0
    s1 = gammasgn(x1) if math.isfinite(g1) else 0.0
    # log |U(a,0)| and log |U'(a,0)|; -inf at Gamma poles
    l0 = _LOG_SQRT_PI - (0.5 * a + 0.25) * _LN2 - g0 if s0 else -math.inf
    l1 = _LOG_SQRT_PI - (0.5 * a - 0.25) * _LN2 - g1 if s1 else -math.inf
    e = max(l0, l1)
    m0 = s0 * math.exp(l0 - e) if s0 else 0.0
    m1 = -s1 * math.exp(l1 - e) if s1 else 0.0
    return (complex(m0), complex(m1)), e


def _path_waypoints(a: float, z: complex) -> list[complex]:
    """Integration path 0 -> axis -> z along the hyperbola Re w^2 = Re z^2.

    The first leg runs along the real or imaginary axis (whichever the
    hyperbola through z meets) and the second follows that hyperbola,
    i.e. a line of constant Im(i w^2/2).  Along such a line the growing
    and decaying solution branches both evolve monotonically toward
    their size at z, so forward integration picks up no contamination
    that later outgrows the target value.  A constant-modulus arc, by
    contrast, lets errors committed where |U| is large feed the other
    branch, which then outgrows U(z).
    """
    x, y = z.real, z.imag
    c = x * x - y * y          # Re z^2, conserved on the second leg
    s_end = 2.0 * x * y        # Im z^2, swept from 0 to its target value
    if c >= 0.0:
        p = complex(math.copysign(math.sqrt(c), x if x != 0.0 else 1.0), 0.0)
    else:
        p = complex(0.0, math.copysign(math.sqrt(-c), y if y != 0.0 else 1.0))
    pts: list[complex] = []
    if abs(p) > 1e-12:
        pts.append(p)
    if abs(s_end) > 1e-12:
        zc = p
        s = 0.0
        sgn = math.copysign(1.0, s_end)
        while True:
            # waypoint spacing chosen so chords stay within one step
            ds = 2.0 * abs(zc) * taylor.h_max(a, zc)
            s += sgn * max(1.0, ds)
            if (s_end - s) * sgn <= 0.0:
                break
            w = cmath.sqrt(complex(c, s))
            if x < 0.0:
                w = -w
            pts.append(w)
            zc = w
    pts.append(z)
    return pts


def evaluate(a: float, z: complex,
             cfg: ChainConfig = DEFAULT_CONFIG) -> PcfValue:
    """U(a,z) and U'(a,z) at a point of the closed left half-plane.

    The route follows from (a, z): the closed form at Hermite parameters
    (`is_hermite`), the LG expansions for a >= A_LG at points with
    |Re z| and |Im z| beyond LG_GATE and for a <= -A_LG where
    `_neg_lg_usable`, and otherwise, or where an LG evaluator raises a
    PcfZerosError, the origin-anchored Taylor route.  A non-finite a or
    z raises ValueError.
    """
    z = complex(z)
    if not (math.isfinite(a) and cmath.isfinite(z)):
        raise ValueError(f"a={a} and z={z} must be finite")
    if z.real > 1e-9 and abs(z) > 30.0:
        raise RegionError(f"z={z} outside the supported evaluation region")
    if is_hermite(a):
        return _evaluate_hermite(a, z)
    try:
        if a >= A_LG and abs(z.real) > LG_GATE and abs(z.imag) > LG_GATE:
            return _evaluate_lg(a, z, cfg)
        if a <= -A_LG and _neg_lg_usable(a, z):
            return _evaluate_lg_neg(a, z, cfg)
    except PcfZerosError:
        pass  # LG -> Taylor fallback, to be replaced by ROADMAP item 4
    return _evaluate_taylor(a, z, cfg)


def _evaluate_lg(a: float, z: complex, cfg: ChainConfig) -> PcfValue:
    u = 2.0 * a
    tables = make_tables(cfg.lg_order)
    conj = z.imag < 0.0
    if conj:
        z = z.conjugate()
    U, Up = lgeval.eval_pair(lgeval.point(u, z, tables))
    if conj:
        U = U.conjugate()
        Up = Up.conjugate()
    return PcfValue(U, Up, "liouville-green")


def _neg_lg_usable(a: float, z: complex) -> bool:
    """Geometric gate for the negative-parameter LG route: the mapped
    variable must keep clear of the turning point and the branch cut."""
    u = -2.0 * a
    s = math.sqrt(2.0 * u)
    w = z if z.imag >= 0 else z.conjugate()
    zhat = complex(-w.imag / s, -w.real / s)
    if abs(zhat - 1j) < 0.5:
        return False
    # near the origin the expansions lose accuracy at moderate u (1e-5
    # at a=-30.2 for |zhat| < 0.6), while the Taylor path there is short
    if abs(zhat) < 0.6:
        return False
    # near the imaginary zhat axis below the turning point the cut and
    # the oscillatory real-z segment take over; Taylor handles those
    if abs(zhat.real) < 0.1 and abs(zhat.imag) < 1.2:
        return False
    return True


def _evaluate_lg_neg(a: float, z: complex, cfg: ChainConfig) -> PcfValue:
    """U(a,z), U'(a,z) for large negative a from the positive-parameter
    expansions through the parameter-connection relation.

    With u = -2a, the relation expressing U(u/2, i w) through
    U(u/2, -i w) and U(-u/2, w) is solved for the last term; both
    right-hand values map to the same hatted variable in the second
    quadrant, where the oscillatory and single-exponential expansions
    apply respectively, from one `lgeval.point`.
    """
    u = -2.0 * a
    tables = make_tables(cfg.lg_order)
    conj = z.imag < 0.0
    w = z.conjugate() if conj else z
    pt = lgeval.point(u, complex(-w.imag, -w.real), tables)
    T1, D1 = (v.conjugate() for v in lgeval.eval_pair(pt))
    T2, D2 = (v.conjugate() for v in lgeval.eval_pair_negarg(pt))

    # 1/gamma = -i e^{(u/4+1/4) pi i} Gamma(u/2+1/2) / sqrt(2 pi), with
    # the Gamma expressed through its scaled asymptotic ratio
    gr = lgeval.gamma_ratio(u, tables)
    inv_gamma = ScaledValue.make(
        -1j * cmath.exp(0.25j * math.pi * (u + 1.0)) / gr,
        0.5 * u * (math.log(0.5 * u) - 1.0))
    phase = 1j * cmath.exp(-0.5j * math.pi * u)

    U = (T1 + T2 * phase) * inv_gamma
    Up = (D1 * 1j + D2 * cmath.exp(-0.5j * math.pi * u)) * inv_gamma
    if conj:
        U = U.conjugate()
        Up = Up.conjugate()
    return PcfValue(U, Up, "liouville-green")


def _evaluate_hermite(a: float, z: complex) -> PcfValue:
    """U(a,z) and U'(a,z) at a = -n - 1/2 from the closed form (DLMF
    12.7.2) U = e^{-z^2/4} He_n(z), U' = e^{-z^2/4} (n He_{n-1}(z)
    - (z/2) He_n(z)).  He_n comes from its three-term recurrence
    He_{k+1} = z He_k - k He_{k-1}, rescaled into a log scale before it
    can overflow."""
    n = round(-0.5 - a)
    prev, cur = 0j, 1.0 + 0j      # He_{-1} (any value: it is weighted 0), He_0
    logscale = 0.0
    for k in range(n):
        prev, cur = cur, z * cur - k * prev
        m = abs(cur)
        if m > _HERMITE_RESCALE:
            logscale += math.log(m)
            prev /= m
            cur /= m
    g = -0.25 * z * z
    phase = cmath.exp(complex(0.0, g.imag))
    e = logscale + g.real
    return PcfValue(ScaledValue.make(cur * phase, e),
                    ScaledValue.make((n * prev - 0.5 * z * cur) * phase, e),
                    "hermite")


def _evaluate_taylor(a: float, z: complex, cfg: ChainConfig) -> PcfValue:
    (m0, m1), e = origin_values_scaled(a)
    if abs(z) < 1e-300:
        return PcfValue(ScaledValue.make(m0, e), ScaledValue.make(m1, e),
                        "origin-series")
    y, yp, logscale = taylor.propagate(a, 0j, m0, m1,
                                       _path_waypoints(a, z),
                                       cfg.taylor_order)
    return PcfValue(ScaledValue.make(y, e + logscale),
                    ScaledValue.make(yp, e + logscale), "origin-series")


def relative_error_estimate(a: float, z: complex,
                            cfg: ChainConfig = DEFAULT_CONFIG) -> float:
    """Inverse condition number |U / (z U')| at z: the estimated relative
    error of z viewed as a computed zero of U(a, .)."""
    if z == 0:
        raise ValueError("z must be nonzero")
    v = evaluate(a, z, cfg)
    if v.U.is_zero:
        return 0.0
    return math.exp(v.U.exponent - v.Uprime.exponent) / abs(z)

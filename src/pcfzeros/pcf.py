"""Absolute evaluation of U(a,z) and U'(a,z) in the left half-plane
and, within |z| <= 30, on the right.

Two routes: origin-anchored Taylor-ODE integration along a path that
follows the level lines of Re z^2 (where forward integration stays well
conditioned, see _path_waypoints), and the Liouville-Green expansions
for large |a| away from the axes.  At the Hermite parameters
a = -n - 1/2 both fail, and the closed form U = e^{-z^2/4} He_n(z) is
used instead: U is recessive along the integration path, and the
negative-parameter expansions, which hold near a Hermite a, need there
a coefficient that is 0 but keeps about 1e-30 of rounding, against a
term e^92 times U at a = -20.5, z = -21+3i (5e27 off there).

The LG layer (`lgeval`, and with it `lgcoef` and `_dd`) loads with the
first evaluation `_in_lg_region` sends to it, not at import, and builds
its double-double code as it loads: the origin route never needs it,
and compiling it would add milliseconds to every start-up.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import taylor
from .config import A_MAX, U_MIN, Z_MAX
from .errors import RegionError
from .scaled import ScaledValue

_LOG_SQRT_PI = 0.5 * math.log(math.pi)
_LN2 = math.log(2.0)
# He_n is rescaled past this modulus, into the log scale of its value
_HERMITE_RESCALE = 1e100
LG_GATE = 15.0    # |Re z|, |Im z| gate for the positive-parameter LG route
# the LG layer, bound by the first LG evaluation; the later ones run no
# import statement, which would cost about 1% of an LG evaluation
lgeval = None


@dataclass(frozen=True)
class PcfValue:
    """Function and derivative values with evaluation-route provenance."""
    U: ScaledValue
    Uprime: ScaledValue
    method: str  # "origin-series" | "liouville-green" | "hermite"


def is_hermite(a: float) -> bool:
    """True if a is -k + 1/2, to within 1e-12, for some integer k >= 1.
    The distance is summed exactly: past 2^53 the half of 0.5 - k rounds
    away, and a would pass for a Hermite parameter."""
    k = round(0.5 - a)
    return k >= 1 and abs(math.fsum((a, k, -0.5))) < 1e-12


# Cephes lgam: ln(pi) and ln(sqrt(2 pi))
_LOGPI = 1.14472988584940017414
_LS2PI = 0.91893853320467274178


def log_gamma(x: float) -> float:
    """ln |Gamma(x)| for real x: the Cephes `lgam` algorithm, so that it
    rounds as scipy.special.gammaln does, save that it is finite, not inf,
    from Cephes' cut 2.556348e305 to the sum's overflow at 2.55634816e305.
    The poles are the one rule: +inf at every integer x <= 0, -0.0 too.
    Reflection below -34, the recurrence into [2, 3) and a rational there
    below 13, Stirling's five-term series above (Cephes' three from 1000
    gave the same doubles where sampled).  The Horner sums are written
    out, c*x - d rounding as c*x + (-d) does."""
    if not math.isfinite(x):
        return x
    if x <= 0.0 and x == math.floor(x):
        return math.inf
    if x < -34.0:
        q = -x
        w = log_gamma(q)
        p = math.floor(q)
        z = q - p
        if z > 0.5:
            p += 1.0
            z = p - q
        return _LOGPI - math.log(q * math.sin(math.pi * z)) - w
    if x < 13.0:
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        z = abs(z)
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        num = (((((-1.37825152569120859100E3 * x - 3.88016315134637840924E4)
                  * x - 3.31612992738871184744E5) * x
                 - 1.16237097492762307383E6) * x - 1.72173700820839662146E6)
               * x - 8.53555664245765465627E5)
        den = ((((((x - 3.51815701436523470549E2) * x
                   - 1.70642106651881159223E4) * x - 2.20528590553854454839E5)
                 * x - 1.13933444367982507207E6) * x
                - 2.53252307177582951285E6) * x - 2.01889141433532773231E6)
        return math.log(z) + x * num / den
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    p = 1.0 / (x * x)
    return q + ((((8.11614167470508450300E-4 * p - 5.95061904284301438324E-4)
                  * p + 7.93650340457716943945E-4) * p
                 - 2.77777777730099687205E-3) * p
                + 8.33333333333331927722E-2) / x


def gamma_sign(x: float) -> float:
    """Sign of Gamma(x) for real x: -1 where floor(x) is negative and
    odd, else +1 (also at the poles, where `log_gamma` is +inf)."""
    return -1.0 if x < 0.0 and math.floor(x) % 2 else 1.0


def origin_values_scaled(a: float) -> tuple[tuple[complex, complex], float]:
    """Origin data as mantissa pair + common log scale."""
    x0 = 0.75 + 0.5 * a
    x1 = 0.25 + 0.5 * a
    # log |U(a,0)| and log |U'(a,0)|; -inf at Gamma poles
    l0 = _LOG_SQRT_PI - (0.5 * a + 0.25) * _LN2 - log_gamma(x0)
    l1 = _LOG_SQRT_PI - (0.5 * a - 0.25) * _LN2 - log_gamma(x1)
    e = max(l0, l1)
    m0 = gamma_sign(x0) * math.exp(l0 - e)
    m1 = -gamma_sign(x1) * math.exp(l1 - e)
    return (complex(m0), complex(m1)), e


def _path_waypoints(a: float, z: complex) -> list[complex]:
    """Integration path 0 -> axis -> z along the hyperbola Re w^2 = Re z^2.

    The first leg runs along the real or positive imaginary axis (whichever
    the hyperbola through z meets) and the second follows that hyperbola,
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
        p = complex(math.copysign(math.sqrt(c), x), 0.0)
    else:
        p = complex(0.0, math.sqrt(-c))
    pts: list[complex] = []
    if abs(p) > 1e-12:
        pts.append(p)
    # |s| >= 1 at the first exit test: no waypoint for |s_end| <= 1
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


def evaluate(a: float, z: complex) -> PcfValue:
    """U(a,z) and U'(a,z) for |a| <= A_MAX at z with |z| <= Z_MAX in the
    closed left half-plane (Re z <= 1e-9), or with |z| <= 30 on the right.

    The lower half-plane comes by reflection, U(a, conj z) = conj U(a, z)
    for real a, so every route sees Im z >= 0: the closed form at Hermite
    parameters (`is_hermite`), the LG expansions where `_in_lg_region`
    (Re z <= 0 only), and otherwise the origin-anchored Taylor route.  A
    non-finite a or z raises ValueError, and an a or a point outside that
    region RegionError.
    """
    a, z = float(a), complex(z)
    if not (math.isfinite(a) and cmath.isfinite(z)):
        raise ValueError(f"a={a} and z={z} must be finite")
    if abs(a) > A_MAX:
        raise RegionError(f"|a|={abs(a)} exceeds A_MAX={A_MAX}")
    if abs(z) > Z_MAX or (z.real > 1e-9 and abs(z) > 30.0):
        raise RegionError(f"z={z} outside the supported evaluation region")
    conj = z.imag < 0.0
    if conj:
        z = z.conjugate()
    if is_hermite(a):
        v = _evaluate_hermite(a, z)
    elif _in_lg_region(a, z):
        v = (_evaluate_lg if a > 0.0 else _evaluate_lg_neg)(a, z)
    else:
        v = _evaluate_taylor(a, z)
    if conj:
        v = PcfValue(v.U.conjugate(), v.Uprime.conjugate(), v.method)
    return v


def _in_lg_region(a: float, z: complex) -> bool:
    """True where `evaluate` takes the LG route at z, Im z >= 0, for either
    sign of a: u = 2|a| >= `config.U_MIN`, and the zhat the route evaluates
    at (z/sqrt(2u) if a > 0 and -i conj(z)/sqrt(2u) if a < 0) in the
    closed second quadrant, off the imaginary axis (the segment [0, i]
    and the cut above i) and outside a disk around zhat = i.  For a > 0
    the gate Re z < -LG_GATE, Im z > LG_GATE puts zhat inside the open
    quadrant; for a < 0, Re zhat = -Im z/sqrt(2u) <= 0 holds already.
    It reads no LG module: a point it refuses never loads the LG layer."""
    u = 2.0 * abs(a)
    if u < U_MIN:
        return False
    s = math.sqrt(2.0 * u)
    y = z.imag
    if a > 0.0:
        return (z.real < -LG_GATE and y > LG_GATE
                and abs(complex(z.real / s, y / s) - 1j) >= 0.35)
    zhat = complex(-y / s, -z.real / s)
    # near the origin the expansions lose accuracy at moderate u (1e-5
    # at a=-30.2 for |zhat| < 0.6), while the Taylor path there is
    # short; with that, the wider disk also covers the imaginary zhat
    # axis up to 1.5i, where the oscillatory real-z segment takes over
    if abs(zhat) < 0.6:
        return False
    return (zhat.imag >= -1e-12 and abs(zhat.real) >= 1e-13
            and abs(zhat - 1j) >= 0.5)


def _evaluate_lg(a: float, z: complex) -> PcfValue:
    global lgeval
    if lgeval is None:
        from . import lgeval
    par = lgeval.parameter(2.0 * a)
    U, Up = lgeval.pair(par, z, par.ph2)
    return PcfValue(U, Up, "liouville-green")


def _evaluate_lg_neg(a: float, z: complex) -> PcfValue:
    """U(a,z), U'(a,z) for large negative a from the positive-parameter
    expansions through the connection formula (DLMF 12.2.18).

    With u = -2a and w = -i conj(z) it reads
    U(a, z) = conj(U(u/2, w) - conj(ph^2) U(u/2, -w)) / gamma, the
    factors of u alone from `lgeval.parameter`.  U(u/2, -w) is the
    e^{-ix} half Q of the cosine form U(u/2, w) = P + ph^2 Q (its
    expansion sums sgn^s (F_s(beta) - F_s(-1))/u^s over all s, which by
    the parities of F_s at +-1 is the even, odd and anchor sums of
    `lgeval.pair` added), so U(a, z) = conj(P + c Q)/gamma with
    c = ph^2 - conj(ph^2), and U'(a, z) = i conj(P' + c Q')/gamma from
    the sine form.  Near a Hermite a, c is small and comes from one
    exact subtraction: two terms of size |Q| that cancel to |c Q| would
    leave their rounding, about 1e-16 |Q|, in a U much smaller than Q.
    """
    global lgeval
    if lgeval is None:
        from . import lgeval
    par = lgeval.parameter(-2.0 * a)
    U, Up = (v.conjugate() * par.inv_gamma
             for v in lgeval.pair(par, complex(-z.imag, -z.real),
                                  par.ph2 - par.ph2.conjugate()))
    return PcfValue(U, Up * 1j, "liouville-green")


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


def _evaluate_taylor(a: float, z: complex) -> PcfValue:
    (m0, m1), e = origin_values_scaled(a)
    y, yp, logscale = taylor.propagate(a, 0j, m0, m1, _path_waypoints(a, z))
    return PcfValue(ScaledValue.make(y, e + logscale),
                    ScaledValue.make(yp, e + logscale), "origin-series")

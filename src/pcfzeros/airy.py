"""Complex Airy function Ai, its derivative, negative real zeros, and the
phase-weighted Airy combination whose zeros seed parabolic-cylinder zero
strings at negative parameter.

Ai is evaluated by Maclaurin series inside |z| <= R0 and by the Poincare
asymptotic expansion outside; arguments too close to the negative axis
are routed through the rotation identity
    Ai(z) = -e^{2 pi i/3} Ai(z e^{2 pi i/3}) - e^{-2 pi i/3} Ai(z e^{-2 pi i/3})
so the asymptotic series is only ever summed in well-behaved sectors.
"""
from __future__ import annotations

import cmath
import math
import warnings

from .errors import ConvergenceError

R0 = 5.5                      # series/asymptotic switchover radius
_ANNULUS = 0.5                # cross-check band around R0
_TWO_THIRDS_PI = 2.0 * math.pi / 3.0

AI0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)    # Ai(0)
AIP0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)  # Ai'(0)

# First negative zeros of Ai, refined to double precision.
AIRY_ZEROS = (
    -2.3381074104597674,
    -4.0879494441309703,
    -5.5205598280955153,
    -6.7867080900719117,
    -7.9441335871127814,
    -9.0226508533409788,
    -10.040174341558087,
    -11.008524303733262,
    -11.936015563236262,
    -12.828776752865757,
)
M0 = len(AIRY_ZEROS)

# t^{-2k} coefficients of the large-index zero expansion a_m = -T(3 pi (4m-1)/8)
_T_COEFFS = (
    1.0,
    5.0 / 48.0,
    -5.0 / 36.0,
    77125.0 / 82944.0,
    -108056875.0 / 6967296.0,
    162375596875.0 / 334430208.0,
)


def _ai_series(z: complex) -> tuple[complex, complex]:
    """(Ai, Ai') by the Maclaurin series; reliable for |z| <= ~6."""
    z3 = z * z * z
    # f = sum t_k z^{3k},           t_k = t_{k-1} z^3 / (3k (3k-1))
    # g = sum s_k z^{3k+1},         s_k = s_{k-1} z^3 / (3k (3k+1))
    f, fp = 1.0 + 0j, 0j
    g, gp = z, 1.0 + 0j
    t = 1.0 + 0j
    s = z
    k = 1
    while True:
        t = t * z3 / ((3 * k) * (3 * k - 1))
        s = s * z3 / ((3 * k) * (3 * k + 1))
        f += t
        g += s
        fp += t * (3 * k) / z if z != 0 else 0j
        gp += s * (3 * k + 1) / z if z != 0 else 0j
        if abs(t) + abs(s) < 1e-18 * (abs(f) + abs(g)) or k > 200:
            break
        k += 1
    ai = AI0 * f + AIP0 * g
    aip = AI0 * fp + AIP0 * gp
    return ai, aip


def _ai_asymptotic(z: complex) -> tuple[complex, complex]:
    """(Ai, Ai') by the Poincare expansion; |arg z| <= 2*pi/3 assumed."""
    zeta = (2.0 / 3.0) * z * cmath.sqrt(z)
    z14 = cmath.sqrt(cmath.sqrt(z))
    pre = cmath.exp(-zeta) / (2.0 * math.sqrt(math.pi))
    su, sv = 1.0 + 0j, 1.0 + 0j
    u = 1.0
    term = 1.0 + 0j
    k = 1
    prev = math.inf
    while k < 60:
        u *= (6.0 * k - 1.0) * (6.0 * k - 3.0) * (6.0 * k - 5.0) / (216.0 * k * (2.0 * k - 1.0))
        term = (-1.0) ** k * u / zeta ** k
        mag = abs(term)
        if mag > prev:                 # past the optimal truncation point
            break
        su += term
        sv += term * (6.0 * k + 1.0) / (1.0 - 6.0 * k)
        if mag < 1e-18:
            break
        prev = mag
        k += 1
    ai = pre * su / z14
    aip = -pre * z14 * sv
    return ai, aip


def _ai_large(z: complex) -> tuple[complex, complex]:
    if abs(cmath.phase(z)) <= _TWO_THIRDS_PI:
        return _ai_asymptotic(z)
    wp = z * cmath.exp(2j * math.pi / 3.0)
    wm = z * cmath.exp(-2j * math.pi / 3.0)
    ap, app = _ai_asymptotic(wp)
    am, amp = _ai_asymptotic(wm)
    ai = -cmath.exp(2j * math.pi / 3.0) * ap - cmath.exp(-2j * math.pi / 3.0) * am
    aip = (-cmath.exp(4j * math.pi / 3.0) * app
           - cmath.exp(-4j * math.pi / 3.0) * amp)
    return ai, aip


def _ai_pair(z: complex) -> tuple[complex, complex]:
    z = complex(z)
    r = abs(z)
    if r <= R0 - _ANNULUS:
        return _ai_series(z)
    if r >= R0 + _ANNULUS:
        return _ai_large(z)
    s = _ai_series(z)
    l = _ai_large(z)
    scale = max(abs(s[0]), abs(l[0]), 1e-300)
    if abs(s[0] - l[0]) > 1e-10 * scale:
        warnings.warn(
            f"Airy series/asymptotic mismatch {abs(s[0] - l[0]) / scale:.2e} "
            f"at |z|={r:.3f}", stacklevel=3)
    return s if r <= R0 else l


def ai(z: complex) -> complex:
    """Airy function Ai(z)."""
    return _ai_pair(z)[0]


def ai_prime(z: complex) -> complex:
    """Derivative Ai'(z)."""
    return _ai_pair(z)[1]


def airy_zero(m: int) -> float:
    """m-th negative real zero of Ai (m >= 1), a_1 ~ -2.338."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m <= M0:
        return AIRY_ZEROS[m - 1]
    t = 0.375 * math.pi * (4 * m - 1)
    acc = 0.0
    for k, c in enumerate(_T_COEFFS):
        acc += c * t ** (-2 * k)
    return -(t ** (2.0 / 3.0)) * acc


def combo_ai(a: float, z: complex) -> complex:
    """2 e^{-i pi/6} cos(a pi) Ai(z e^{-2 pi i/3}) + i e^{i a pi} Ai(z)."""
    w = z * cmath.exp(-2j * math.pi / 3.0)
    return (2.0 * cmath.exp(-1j * math.pi / 6.0) * math.cos(a * math.pi) * ai(w)
            + 1j * cmath.exp(1j * a * math.pi) * ai(z))


def combo_ai_prime(a: float, z: complex) -> complex:
    rot = cmath.exp(-2j * math.pi / 3.0)
    w = z * rot
    return (2.0 * cmath.exp(-1j * math.pi / 6.0) * math.cos(a * math.pi)
            * rot * ai_prime(w)
            + 1j * cmath.exp(1j * a * math.pi) * ai_prime(z))


def combo_zero_refine(a: float, guess: complex, max_iters: int = 30) -> complex:
    """Newton refinement of a zero of the Airy combination from a seed."""
    z = complex(guess)
    for _ in range(max_iters):
        f = combo_ai(a, z)
        fp = combo_ai_prime(a, z)
        if fp == 0:
            raise ConvergenceError("vanishing derivative in Newton step")
        dz = f / fp
        z -= dz
        if abs(combo_ai(a, z)) < 1e-12 * abs(combo_ai_prime(a, z) * z):
            return z
    raise ConvergenceError(
        f"Airy-combination Newton did not converge from {guess}")

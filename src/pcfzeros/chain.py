"""Zero chains: first-zero estimation, fixed-point refinement,
displacement stepping and per-zero error estimation.

Zeros of U(a,z) in the second quadrant are computed as a chain: an
asymptotic estimate seeds the zero nearest the domain corner -L+iL, and
the half-period displacement z + pi/sqrt(A) each further zero.  One
fourth-order fixed-point loop, `_refine`, refines every seed with U/U'
from absolute values for the first zero (`_absolute_quotient`), and
for the others from a Taylor expansion at the previous zero, where the
values are (0, 1) (`_propagated_quotient`); `verify_zeros` checks the
zeros through the same two quotients.  A hop from the displacement
seed mostly takes one quotient: its first step already puts the
method's own error term, |z| d^4/24 for a step d, below the unit
roundoff, and the loop stops there without a confirming step.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import pcf, taylor
from .config import DELTA, EPS, MAX_ZEROS
from .errors import (ConvergenceError, HermiteParameterError,
                     PcfZerosError, StepFailureError, TurningPointError)
from .pcf import is_hermite, log_gamma

_RAY = cmath.exp(0.75j * math.pi)
FIRST_ZERO_ITERS = 80       # iteration budget of the first-zero refinement
MAX_INNER_ITERS = 20        # iteration budget of one chain hop


@dataclass(slots=True)
class ZeroRecord:
    """One computed zero of U(a, .); slotted, not frozen, to be cheap to
    build, and never mutated by the package once returned."""
    index: int
    z: complex
    est_rel_error: float = math.nan
    inner_iterations: int = 0


def sqrt_A(a: float, z: complex) -> complex:
    """Principal square root of A(z) = -z^2/4 - a, the coefficient of the
    normal form y'' + A(z) y = 0 of the defining ODE; errors out at
    turning points."""
    A = -0.25 * z * z - a
    if abs(A) < 1e-20:
        raise TurningPointError(f"A(z) vanishes at z={z}")
    return cmath.sqrt(A)


def displace(a: float, z: complex, direction: int = 1) -> complex:
    """Half-period displacement z + direction pi/sqrt(A) toward the next
    zero of the chain, inward (direction 1) or outward (-1)."""
    return z + direction * math.pi / sqrt_A(a, z)


def fixed_point_T(a: float, z: complex, Q: complex) -> complex:
    """One application of the fourth-order iteration z - atan(w Q)/w,
    w = sqrt(A); Q is the quotient U/U' supplied by the caller."""
    w = sqrt_A(a, z)
    arg = w * Q
    if abs(arg - 1j) < 1e-12 or abs(arg + 1j) < 1e-12:
        raise ConvergenceError(f"arctan singularity at z={z}")
    return z - cmath.atan(arg) / w


def _string_index(a: float, L: float) -> float:
    """Real index x of the string zero at the corner -L + iL, from the
    first-term zero asymptotics i z^2/2 = (2x + 1/2 - |a|) pi: the
    corner gives i z^2/2 = L^2, so x = (L^2/pi - 1/2 + |a|)/2.  Raises
    the zero cap's ValueError for a box whose `max_zero_index`, floor(x),
    would exceed MAX_ZEROS, that is where x >= MAX_ZEROS + 1; this takes
    in an x that overflows to inf, as L*L does for a large finite L."""
    x = (L * L / math.pi - 0.5 + abs(a)) / 2.0
    if x >= MAX_ZEROS + 1:
        raise ValueError(f"a={a}, L={L} holds more than {MAX_ZEROS} zeros")
    return x


def first_zero_estimate(a: float, L: float) -> tuple[int, complex]:
    """Leading-order estimate of the zero nearest the corner -L + iL.

    Rounds the corner's string index to pick the index m, then maps the
    phase tau_m of that zero back to the z-plane, z ~ e^{3 pi i/4}
    sqrt(2 tau_m).  Raises ValueError for L <= 2 and then, from
    `_string_index`, for a box past the zero cap.
    """
    if L <= 2.0:
        raise ValueError("L must exceed 2")
    aa = abs(a)
    m = max(0, round(_string_index(a, L)))
    tau_m = complex(
        (2.0 * m + 0.5 - aa) * math.pi,
        -0.5 * math.log(math.pi) - (aa + 0.5) * math.log(2.0)
        + log_gamma(0.5 + aa))
    return m, _RAY * cmath.sqrt(2.0 * tau_m)


def _refine(a: float, z0: complex, quotient, budget: int, what: str,
            floor: float):
    """The fourth-order fixed-point loop: apply `fixed_point_T` with
    U/U' from quotient(z) until the relative step is at most EPS, or has
    stalled on the quotient's rounding-noise floor (below floor and above
    a quarter of the step before), within budget iterations.

    A quotient without noise (floor 0) may also stop after its first
    step, of size d = |z1 - z0|, on the method's own error term: to
    leading order that step leaves z1 off the zero by |A'(z1)| d^4/12 =
    |z1| d^4/24, and the next term is smaller by a factor of order
    (|sqrt(A(z1))| d)^2.  So z1 is returned when d^4/24 <= 2^-53, the
    unit roundoff, and |sqrt(A(z1))| d <= 1/8.  Only the first step
    qualifies: an iterate that has wandered can take one tiny step
    without converging.  Returns (z, iterations, deltas)."""
    z = complex(z0)
    deltas: list[float] = []
    for it in range(1, budget + 1):
        znew = fixed_point_T(a, z, quotient(z))
        d = abs(znew - z)
        delta = d / abs(z)
        deltas.append(delta)
        z = znew
        if (delta <= EPS
                or (it == 1 and not floor and d ** 4 <= 24.0 * 2.0 ** -53
                    and abs(-0.25 * z * z - a) * d * d <= 1.0 / 64.0)
                or (delta < floor and it >= 2
                    and delta > 0.25 * deltas[-2])):
            return z, it, tuple(deltas)
    raise ConvergenceError(f"{what} did not converge from {z0} (a={a})")


def _absolute_quotient(a: float):
    """U/U' at z from absolute values, `pcf.evaluate`."""
    def quotient(z: complex) -> complex:
        v = pcf.evaluate(a, z)
        if v.Uprime.is_zero:
            raise ConvergenceError(f"U' vanished near z={z}")
        return (v.U / v.Uprime).to_complex()
    return quotient


def _propagated_quotient(a: float, anchor: complex):
    """U/U' at z from one Taylor expansion c at a zero anchor, (U, U')
    normalized to (0, 1) there: the kernel's `taylor_eval` of c, or, for
    a try its tail test rejects, `taylor.step` from c, which subdivides
    and expands afresh only the pieces past the first."""
    c = taylor.derivatives_at(a, anchor, 0j, 1.0 + 0j)
    taylor_eval = taylor.kernel.taylor_eval

    def quotient(z: complex) -> complex:
        h = z - anchor
        y, yp, ok = taylor_eval(c, h)
        if not ok:
            y, yp = taylor.step(a, anchor, c, h)
        if yp == 0:
            raise ConvergenceError(f"U' vanished near z={z}")
        return y / yp
    return quotient


def refine_first_zero(a: float, z0: complex):
    """Refine the first-zero estimate against absolute values; returns
    (z, iterations, deltas).  A seed that lands mid-gap walks the string
    before it locks on, hence the larger budget, and the values' rounding
    noise (worst at moderate negative a) ends the loop by the stall exit;
    the chain's propagated values restore self-consistency at EPS."""
    return _refine(a, z0, _absolute_quotient(a), FIRST_ZERO_ITERS,
                   "first-zero refinement", 3e-8)


def refine_from_previous(a: float, z_prev: complex, seed: complex):
    """One hop of the chain: refine seed with U/U' propagated from the
    previous zero z_prev (`_propagated_quotient`), within
    MAX_INNER_ITERS iterations and with no stall exit.  The quotient
    carries no noise floor, so the hop stops after its first step where
    that step's error term is below the unit roundoff, and otherwise at
    a step of at most EPS; a hop that reaches neither raises.  Returns
    (z, iterations, deltas)."""
    return _refine(a, seed, _propagated_quotient(a, z_prev),
                   MAX_INNER_ITERS, "inner iteration", 0.0)


def _in_domain(a: float, L: float, z: complex) -> bool:
    # terminal zeros sit on the bounding axis up to rounding, keep them
    tol = 1e-9
    if a < 0:
        return -tol <= z.imag <= L and z.real < 0.0
    return -L <= z.real <= tol and z.imag > 0.0


def max_zero_index(a: float, L: float) -> int:
    """Largest string-zero index consistent with the corner -L + iL, the
    corner's string index rounded down.

    At most this many zeros are reported, the innermost ones, even when
    the box admits a few more beyond the corner.  An index past
    MAX_ZEROS raises the zero cap's ValueError (`_string_index`).
    """
    return max(0, math.floor(_string_index(a, L)))


def _near_turning_point(a: float, z: complex) -> bool:
    """Whether z lies within one local half-period pi/|sqrt(A(z))| of the
    turning point -2 conj(sqrt(-a)) (2i sqrt(a) for a > 0, -2 sqrt(-a)
    for a < 0), next to which the string of zeros ends."""
    z_t = -2.0 * cmath.sqrt(-a).conjugate()
    return abs(z - z_t) * math.sqrt(abs(-0.25 * z * z - a)) < math.pi


def _walk(a: float, z0: complex, direction: int, done):
    """Zeros reached from z0 along the string, inward (direction 1) or
    outward (-1), as (z, iterations) pairs, up to the first one for which
    done(z) holds.

    Each hop seeds `displace(a, z, direction)` and refines it with
    `refine_from_previous`; the new zero must advance along the hop by
    more than the stall tolerance.  A hop that fails, stalls or reverses
    ends the walk if its seed is next to the turning point, where the
    string ends (`_near_turning_point`), and raises otherwise.
    """
    zeros: list[tuple[complex, int]] = []
    z_prev = z0
    while not done(z_prev):
        if len(zeros) >= MAX_ZEROS:
            raise ConvergenceError("zero cap exceeded")
        seed = z_prev   # judged by the end rule if A(z_prev) = 0 gives none
        try:
            seed = displace(a, z_prev, direction)
            znew, iters, _ = refine_from_previous(a, z_prev, seed)
            hop = seed - z_prev
            advance = ((znew - z_prev) * hop.conjugate()).real / abs(hop)
            if advance < 10.0 * EPS * abs(z_prev):
                raise ConvergenceError(
                    f"chain stalled or reversed at z={z_prev} (a={a})")
        except (ConvergenceError, StepFailureError, TurningPointError):
            if _near_turning_point(a, seed):
                break
            raise
        zeros.append((znew, iters))
        z_prev = znew
    return zeros


def run_chain(a: float, L: float) -> list[ZeroRecord]:
    """The zeros of U(a,z) on the string through the domain (Im z in
    [0,L], Re z < 0 for a < 0; Re z in [-L,0], Im z > 0 for a > 0), the
    innermost `max_zero_index` of them, ordered along the chain inward
    to the string's end: its first zero within DELTA of the terminal
    axis, or its last one next to the turning point.  Real zeros inward
    of that end (a < 0) lie in the domain but are not reported.
    A non-finite a or L raises ValueError and a Hermite a
    HermiteParameterError; then `first_zero_estimate` raises ValueError
    for L <= 2 and for a domain past the zero cap, and the first
    `evaluate` RegionError where its estimate lies past `evaluate`'s
    region, as at a = 1e7.  All of these come before any zero is computed."""
    if not (math.isfinite(a) and math.isfinite(L)):
        raise ValueError(f"a={a} and L={L} must be finite")
    if is_hermite(a):
        raise HermiteParameterError(
            f"a={a} is a Hermite case -k+1/2; the zero strings degenerate")

    _, z_est = first_zero_estimate(a, L)
    z0, first_iters, _ = refine_first_zero(a, z_est)
    # a real zero (a < 0) can come out with a tiny negative imaginary
    # part; its conjugate is a zero too, and the walks start from that
    # one so that they follow the string above the real axis
    if z0.imag < 0:
        z0 = z0.conjugate()

    # outward in case the refined first zero is not the outermost one
    # inside the domain; inward until the terminal axis, the real one
    # for a < 0 and the imaginary one otherwise
    def on_axis(z):
        return (z.imag if a < 0 else -z.real) <= DELTA

    outward = _walk(a, z0, -1, lambda z: not _in_domain(a, L, z))
    inward = _walk(a, z0, 1, on_axis)
    entries = outward[::-1] + [(z0, first_iters)] + inward
    # the string ends at its first zero on the terminal axis; a first
    # zero refined onto a real zero inward of that end is not on it
    end = next((i + 1 for i, (z, _) in enumerate(entries) if on_axis(z)),
               len(entries))
    entries = [e for e in entries[:end] if _in_domain(a, L, e[0])]
    # keep the innermost max_zero_index records; the box near the corner
    # can hold a few zeros beyond the one the index estimate starts at
    entries = entries[max(0, len(entries) - max_zero_index(a, L)):]
    return [ZeroRecord(i, z, math.nan, iters)
            for i, (z, iters) in enumerate(entries)]


def verify_zeros(a: float, zeros: list[ZeroRecord]) -> list[ZeroRecord]:
    """Fill est_rel_error = |U / (z U')|, the inverse condition number of
    each zero, from the hop's quotient (`_propagated_quotient`) at a
    neighboring zero (the previous one; the second for the first zero),
    where the values are normalized to (0, 1) and stay well conditioned
    arbitrarily far from the origin.  The estimate thus measures the
    chain's self-consistency: an error carried along the chain from the
    first zero moves both neighbors alike and does not show in it.  All
    zeros take the kernel's first try at once (`taylor.step_batch`); the
    few it rejects, typically near the ends of a chain, go through the
    quotient one by one, which hands them to `taylor.step`.  A lone zero
    has no neighbor: its quotient is the first-zero refinement's, from
    absolute values (`_absolute_quotient`).  An estimate that fails with
    a `PcfZerosError` is NaN; any other error propagates.  The records
    given are left as they are.
    """
    if len(zeros) < 2:
        ests = [_estimate(_absolute_quotient(a), rec.z) for rec in zeros]
    else:
        import numpy as np   # here only: run_chain and evaluate never need it
        z = np.array([rec.z for rec in zeros], dtype=complex)
        anchor = np.concatenate((z[1:2], z[:-1]))
        y, yp, ok = taylor.step_batch(a, anchor, 0j, 1.0 + 0j, z - anchor)
        ok &= yp != 0
        with np.errstate(divide="ignore", invalid="ignore"):
            ests = (np.abs(y / yp) / np.abs(z)).tolist()
        for i in np.flatnonzero(~ok).tolist():
            ests[i] = _estimate(_propagated_quotient(a, complex(anchor[i])),
                                zeros[i].z)
    return [ZeroRecord(rec.index, rec.z, est, rec.inner_iterations)
            for rec, est in zip(zeros, ests)]


def _estimate(quotient, z: complex) -> float:
    """|quotient(z)| / |z|, or NaN where quotient raises a PcfZerosError."""
    try:
        return abs(quotient(z)) / abs(z)
    except PcfZerosError:
        return math.nan

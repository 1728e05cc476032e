"""Zero chains: first-zero estimation, fixed-point refinement,
displacement stepping and per-zero error estimation.

Zeros of U(a,z) in the second quadrant are computed as a chain: an
asymptotic estimate seeds the zero nearest the domain corner -L+iL, a
fourth-order fixed-point iteration refines it against absolute function
values, and every further zero is reached by the half-period
displacement z + pi/sqrt(A) followed by the same iteration with the
quotient U/U' propagated by Taylor steps from the previous zero (where
the values can be normalized to (0, 1)).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from . import pcf, taylor
from .config import ChainConfig, DEFAULT_CONFIG
from .errors import (ConvergenceError, HermiteParameterError,
                     PcfZerosError, StepFailureError, TurningPointError)
from .pcf import is_hermite

_RAY = cmath.exp(0.75j * math.pi)
MAX_INNER_ITERS = 20        # iteration budget of one chain hop
MAX_ZEROS = 10_000_000      # cap on the zeros of one chain


@dataclass(frozen=True)
class ZeroRecord:
    """One computed zero of U(a, .)."""
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


def displace(a: float, z: complex) -> complex:
    """Half-period displacement toward the next zero of the chain."""
    return z + math.pi / sqrt_A(a, z)


def fixed_point_T(a: float, z: complex, Q: complex) -> complex:
    """One application of the fourth-order iteration z - atan(w Q)/w,
    w = sqrt(A); Q is the quotient U/U' supplied by the caller."""
    w = sqrt_A(a, z)
    arg = w * Q
    if abs(arg - 1j) < 1e-12 or abs(arg + 1j) < 1e-12:
        raise ConvergenceError(f"arctan singularity at z={z}")
    return z - cmath.atan(arg) / w


def first_zero_estimate(a: float, L: float) -> tuple[int, complex]:
    """Leading-order estimate of the zero nearest the corner -L + iL.

    Inverts the large-index zero asymptotics z ~ e^{3 pi i/4} sqrt(2 tau_m)
    to pick the index m, then maps tau_m back to the z-plane.
    """
    if L <= 2.0:
        raise ValueError("L must exceed 2")
    z = complex(-L, L)
    tau = 0.5j * z * z
    aa = abs(a)
    m = max(0, round((tau.real / math.pi - 0.5 + aa) / 2.0))
    tau_m = complex(
        (2.0 * m + 0.5 - aa) * math.pi,
        -0.5 * math.log(math.pi) - (aa + 0.5) * math.log(2.0)
        + gammaln(0.5 + aa))
    return m, _RAY * cmath.sqrt(2.0 * tau_m)


def refine_first_zero(a: float, z0: complex,
                      cfg: ChainConfig = DEFAULT_CONFIG):
    """Fixed-point refinement of the first-zero estimate against absolute
    function values.  Returns (z, iterations, deltas)."""
    z = complex(z0)
    deltas: list[float] = []
    # a first-term seed can land mid-gap, in which case the iteration
    # walks zero by zero along the string before it locks on; allow for
    # that with a larger iteration budget than the inner loops need
    for it in range(1, 80 + 1):
        v = pcf.evaluate(a, z, cfg)
        Q = (v.U / v.Uprime).to_complex()
        znew = fixed_point_T(a, z, Q)
        delta = abs(znew - z) / abs(z)
        deltas.append(delta)
        z = znew
        # the absolute evaluation carries its own rounding noise (worst
        # around moderate negative a, where the integration path is long
        # and ill conditioned), so once the step is small and no longer
        # shrinking the noise floor is reached; the chain refines every
        # later zero against Taylor-propagated values, which restores
        # self-consistency at the eps level
        stalled = (it >= 2 and delta < 3e-8
                   and delta > 0.25 * deltas[-2])
        if delta <= cfg.eps or stalled:
            return z, it, tuple(deltas)
    raise ConvergenceError(
        f"first-zero refinement did not converge from {z0} (a={a})")


def refine_from_previous(a: float, z_prev: complex, seed: complex,
                         cfg: ChainConfig = DEFAULT_CONFIG):
    """Inner fixed-point loop with U/U' Taylor-propagated from the
    previous zero, where (U, U') is normalized to (0, 1).

    One hop of the chain: the expansion at z_prev is built once, and
    each iteration evaluates it at the current point and applies
    `fixed_point_T`; a try the kernel's tail test rejects goes through
    `taylor.step`, which subdivides.

    Returns (z, iterations, deltas).
    """
    state = taylor.derivatives_at(a, z_prev, 0j, 1.0 + 0j, cfg.taylor_order)
    c = state.derivs
    taylor_eval = taylor.kernel.taylor_eval
    z = complex(seed)
    deltas: list[float] = []
    for it in range(1, MAX_INNER_ITERS + 1):
        h = z - z_prev
        y, yp, ok = taylor_eval(c, h)
        if not ok:
            y, yp = taylor.step(state, h)
        if yp == 0:
            raise ConvergenceError(f"U' vanished near z={z}")
        znew = fixed_point_T(a, z, y / yp)
        delta = abs(znew - z) / abs(z)
        deltas.append(delta)
        z = znew
        if delta <= cfg.eps:
            return z, it, tuple(deltas)
    raise ConvergenceError(
        f"inner iteration did not converge near z={seed} (a={a})")


def _in_domain(a: float, L: float, z: complex) -> bool:
    # terminal zeros sit on the bounding axis up to rounding, keep them
    tol = 1e-9
    if a < 0:
        return -tol <= z.imag <= L and z.real < 0.0
    return -L <= z.real <= tol and z.imag > 0.0


def max_zero_index(a: float, L: float) -> int:
    """Largest string-zero index consistent with the corner -L + iL.

    The chain starts from the zero whose first-term index estimate fits
    the corner and proceeds inward only, so at most this many zeros are
    reported even when the box admits a few more beyond the corner.
    """
    return max(0, math.floor((L * L / math.pi - 0.5 + abs(a)) / 2.0))


def run_chain(a: float, L: float,
              cfg: ChainConfig = DEFAULT_CONFIG) -> list[ZeroRecord]:
    """All zeros of U(a,z) in the domain (Im z in [0,L], Re z < 0 for
    a < 0; Re z in [-L,0], Im z > 0 for a > 0), ordered along the chain.
    A non-finite a or L, or a domain whose `max_zero_index` exceeds
    MAX_ZEROS, raises ValueError before any zero is computed."""
    if not (math.isfinite(a) and math.isfinite(L)):
        raise ValueError(f"a={a} and L={L} must be finite")
    if is_hermite(a):
        raise HermiteParameterError(
            f"a={a} is a Hermite case -k+1/2; the zero strings degenerate")
    if L <= 0:
        raise ValueError("L must be positive")
    if max_zero_index(a, L) > MAX_ZEROS:
        raise ValueError(f"a={a}, L={L} holds more than {MAX_ZEROS} zeros")
    neg = a < 0

    _, z_est = first_zero_estimate(a, L)
    z0, first_iters, _ = refine_first_zero(a, z_est, cfg)

    def towards_terminal(z: complex) -> float:
        # signed coordinate that decreases along the inward chain
        return z.imag if neg else -z.real

    entries: list[tuple[complex, int]] = []

    # Walk outward (against the chain direction) in case the refined
    # first zero is not the outermost one inside the domain.
    z_prev = z0
    outward: list[tuple[complex, int]] = []
    while _in_domain(a, L, z_prev) and len(outward) < MAX_ZEROS:
        try:
            seed = z_prev - math.pi / sqrt_A(a, z_prev)
            znew, iters, _ = refine_from_previous(a, z_prev, seed, cfg)
        except (ConvergenceError, StepFailureError, TurningPointError):
            break
        if towards_terminal(znew) <= towards_terminal(z_prev):
            break  # not making outward progress
        if abs(znew - z_prev) < 10.0 * cfg.eps * abs(z_prev):
            break
        outward.append((znew, iters))
        z_prev = znew
        if not _in_domain(a, L, znew):
            break
    entries.extend(reversed(outward))
    entries.append((z0, first_iters))

    # Main inward chain, terminating past the delta strip.  For a > 0
    # the string ends at a zero of O(1) distance from the turning point
    # 2i sqrt(a) with no zeros beyond it, so a failing step whose seed
    # falls next to the turning point also terminates the chain.
    z_turn = 2j * math.sqrt(a) if a > 0 else None
    stall_tol = 10.0 * cfg.eps
    z_prev = z0
    t_prev = towards_terminal(z0)
    while t_prev > cfg.delta:
        if len(entries) >= MAX_ZEROS:
            raise ConvergenceError("zero cap exceeded")
        near_end = t_prev < 0.5
        try:
            seed = displace(a, z_prev)
            if z_turn is not None and abs(seed - z_turn) < 1.0:
                near_end = True
            znew, iters, _ = refine_from_previous(a, z_prev, seed, cfg)
        except (ConvergenceError, StepFailureError, TurningPointError):
            if near_end:
                break
            raise
        if abs(znew - z_prev) < stall_tol * abs(z_prev):
            if near_end:
                break
            raise ConvergenceError(f"chain stalled at z={z_prev} (a={a})")
        t_new = towards_terminal(znew)
        if t_new >= t_prev:
            if near_end:
                break
            raise ConvergenceError(f"chain reversed at z={z_prev} (a={a})")
        entries.append((znew, iters))
        z_prev, t_prev = znew, t_new

    entries = [e for e in entries if _in_domain(a, L, e[0])]
    # keep the innermost max_zero_index records; the box near the corner
    # can hold a few zeros beyond the one the index estimate starts at
    cap = max_zero_index(a, L)
    if len(entries) > cap:
        entries = entries[len(entries) - cap:]
    return [ZeroRecord(i, z, math.nan, iters)
            for i, (z, iters) in enumerate(entries)]


def verify_zeros(a: float, zeros: list[ZeroRecord],
                 cfg: ChainConfig = DEFAULT_CONFIG) -> list[ZeroRecord]:
    """Fill est_rel_error = |U / (z U')|, the inverse condition number of
    each zero.

    The quotient is obtained by a fresh Taylor step anchored at a
    neighboring zero (the previous one; the second for the first zero),
    where the values are normalized to (0, 1), which stays well
    conditioned arbitrarily far from the origin.  The estimate thus
    measures the chain's self-consistency, how well each zero agrees
    with its neighbor; an error carried along the chain from the first
    zero moves both alike and does not show in it.  All zeros take that
    step at once, as one batched first try (`taylor.step_batch`).  The
    few whose try fails the tail test, typically near the ends of a
    chain, fall back to a scalar `taylor.propagate` with subdivision, as
    does a list of one zero, which has no neighbor and is checked by
    absolute evaluation.  An estimate that fails with a `PcfZerosError`
    is NaN; any other error propagates.
    """
    if len(zeros) < 2:
        ests = [_estimate(a, rec.z, None, cfg) for rec in zeros]
    else:
        z = np.array([rec.z for rec in zeros], dtype=complex)
        anchor = np.concatenate((z[1:2], z[:-1]))
        y, yp, ok = taylor.step_batch(a, anchor, 0j, 1.0 + 0j, z - anchor,
                                      cfg.taylor_order)
        ok &= yp != 0
        with np.errstate(divide="ignore", invalid="ignore"):
            ests = (np.abs(y / yp) / np.abs(z)).tolist()
        for i in np.flatnonzero(~ok).tolist():
            ests[i] = _estimate(a, zeros[i].z, complex(anchor[i]), cfg)
    return [ZeroRecord(rec.index, rec.z, est, rec.inner_iterations)
            for rec, est in zip(zeros, ests)]


def _estimate(a: float, z: complex, anchor: complex | None,
              cfg: ChainConfig) -> float:
    """Estimate for one zero: Taylor propagation from a neighboring zero
    anchor, or absolute evaluation when there is none."""
    try:
        if anchor is None:
            return pcf.relative_error_estimate(a, z, cfg)
        y, yp, _ = taylor.propagate(a, anchor, 0j, 1.0 + 0j, [z],
                                    cfg.taylor_order)
    except PcfZerosError:
        return math.nan
    if yp == 0:
        return math.nan
    return abs(y / yp) / abs(z)

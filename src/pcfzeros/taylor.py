"""Taylor-series propagation of solutions of y'' = (z^2/4 + a) y.

Thin, typed API over the stepping kernel.  The compiled kernel is used
when available; set the environment variable ``PCFZEROS_PURE=1`` before
import to force the pure-Python twin.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import StepFailureError

if os.environ.get("PCFZEROS_PURE") == "1":
    from . import _taylor_py as kernel
else:
    try:
        from . import _taylor_c as kernel  # type: ignore[attr-defined]
    except ImportError:
        from . import _taylor_py as kernel

KERNEL = kernel.KERNEL
h_max = kernel.h_max

DEFAULT_ORDER = 30
TAIL_TOL = 1e-15


@dataclass(frozen=True)
class TaylorState:
    """Expansion of a solution at z0: derivs[k] = y^(k)(z0)/k!.

    derivs has N+2 entries (orders 0..N+1) so that both the value and
    the derivative sums carry N+1 terms.
    """
    a: float
    z0: complex
    derivs: tuple[complex, ...]
    N: int


def derivatives_at(a: float, z0: complex, y0: complex, y1: complex,
                   N: int = DEFAULT_ORDER) -> TaylorState:
    """Generate scaled derivatives from (y, y') data at z0."""
    if N < 4:
        raise ValueError("N must be >= 4")
    c = kernel.scaled_derivs(a, z0, y0, y1, N + 1)
    return TaylorState(a=a, z0=z0, derivs=tuple(c), N=N)


def step(state: TaylorState, h: complex) -> tuple[complex, complex]:
    """Advance (y, y') by h, re-expanding and subdividing as needed."""
    if h == 0:
        return state.derivs[0], state.derivs[1]
    y, yp, tail = kernel.taylor_eval(state.derivs, h)
    scale = max(abs(y), abs(h) * abs(yp), 1e-300)
    if tail <= TAIL_TOL * scale and abs(h) <= kernel.h_max(state.a, state.z0):
        return y, yp
    y, yp, ok = kernel.step_once(state.a, state.z0, state.derivs[0],
                                 state.derivs[1], h, state.N)
    if not ok:
        raise StepFailureError(
            f"step of size {abs(h):.3g} at z0={state.z0} failed the tail "
            "criterion after maximal subdivision")
    return y, yp


def _cabs(x):
    """|x| elementwise, rounded as Python's abs(complex) is: np.abs can
    differ from it in the last bit, which would move the h_max test."""
    return np.hypot(x.real, x.imag)


def step_batch(a: float, z0, y0, y1, h, order: int = DEFAULT_ORDER):
    """First try of many independent steps at once, vectorised over numpy
    arrays: expand (y0, y1) at each point of z0 and evaluate at z0 + h.

    z0 and h are arrays of one shape; y0 and y1 are scalars or arrays of
    that shape.  Returns complex arrays (y, yprime) and a boolean array ok.  The
    arithmetic and the acceptance test are those of the kernel's first
    try in `step_once`: ok is true where the tail criterion holds and
    |h| <= h_max(a, z0).  Where ok is false `step` would subdivide or
    `propagate` take several steps, and (y, yprime) are not to be used.
    """
    z0 = np.asarray(z0, dtype=complex)
    h = np.asarray(h, dtype=complex)
    n = order + 1
    q = 0.25 * z0 * z0 + a
    hz = 0.5 * z0
    # rejected entries may overflow; the tail test turns them down
    with np.errstate(over="ignore", invalid="ignore"):
        c = [np.broadcast_to(y0, z0.shape), np.broadcast_to(y1, z0.shape)]
        for k in range(n - 1):
            t = q * c[k]
            if k >= 1:
                t += hz * c[k - 1]
            if k >= 2:
                t += 0.25 * c[k - 2]
            t /= (k + 1) * (k + 2)
            c.append(t)
        y = c[n]
        for k in range(n - 1, -1, -1):
            y = y * h + c[k]
        yp = n * c[n]
        for k in range(n - 1, 0, -1):
            yp = yp * h + k * c[k]
        ah = _cabs(h)
        tail = np.maximum(_cabs(c[n]) * ah ** n,
                          _cabs(c[n - 1]) * ah ** (n - 1))
        scale = np.maximum(np.maximum(_cabs(y), ah * _cabs(yp)), 1e-300)
        # kernel.h_max, vectorised over z0
        hm = 6.0 / np.maximum(_cabs(z0) * 0.5, max(math.sqrt(abs(a)), 1.0))
        ok = (tail <= TAIL_TOL * scale) & (ah <= hm)
    return y, yp, ok


def propagate(a: float, z0: complex, y0: complex, y1: complex,
              waypoints, order: int = DEFAULT_ORDER):
    """Propagate (y, y') along a polyline; returns (y, yprime, logscale)."""
    y, yp, logscale, ok = kernel.propagate_polyline(
        a, z0, y0, y1, list(waypoints), order)
    if not ok:
        raise StepFailureError(
            f"propagation from {z0} failed the tail criterion")
    return y, yp, logscale

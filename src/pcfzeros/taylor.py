"""Taylor-series propagation of solutions of y'' = (z^2/4 + a) y.

Thin, typed API over the stepping kernel: the compiled `_taylor_c` (C,
built by setup.py) when it has been built, otherwise its pure-Python
twin `_taylor_py`; both give the same results to the bit.
"""
from __future__ import annotations

from typing import NamedTuple

from . import _taylor_py
from .errors import StepFailureError

try:
    from . import _taylor_c as kernel  # type: ignore[attr-defined]
except ImportError:
    kernel = _taylor_py

KERNEL = kernel.KERNEL
h_max = kernel.h_max


class TaylorState(NamedTuple):
    """Expansion of a solution at z0: derivs[k] = y^(k)(z0)/k!.

    derivs has N+2 entries (orders 0..N+1) so that both the value and
    the derivative sums carry N+1 terms.  Immutable; a named tuple
    rather than a frozen dataclass because the zero chain builds one per
    zero and the dataclass constructor costs microseconds.
    """
    a: float
    z0: complex
    derivs: tuple[complex, ...]
    N: int


def derivatives_at(a: float, z0: complex, y0: complex, y1: complex,
                   N: int) -> TaylorState:
    """Generate scaled derivatives from (y, y') data at z0."""
    if N < 4:
        raise ValueError("N must be >= 4")
    c = kernel.scaled_derivs(a, z0, y0, y1, N + 1)
    return TaylorState(a, z0, tuple(c), N)


def step(state: TaylorState, h: complex) -> tuple[complex, complex]:
    """Advance (y, y') by h, re-expanding and subdividing as needed."""
    y, yp, ok = kernel.step_once(state.a, state.z0, state.derivs[0],
                                 state.derivs[1], h, state.N)
    if not ok:
        raise StepFailureError(
            f"step h={h:.3g} at z0={state.z0} failed the tail criterion "
            "after maximal subdivision")
    return y, yp


def _cabs(x):
    """|x| elementwise, rounded as Python's abs(complex) is: np.abs can
    differ from it in the last bit, which would move the tail test."""
    import numpy as np
    return np.hypot(x.real, x.imag)


def step_batch(a: float, z0, y0, y1, h, order: int):
    """First try of many independent steps at once, vectorised over numpy
    arrays: expand (y0, y1) at each point of z0 and evaluate at z0 + h.

    z0 and h are arrays of one shape; y0 and y1 are scalars or arrays of
    that shape.  Returns complex arrays (y, yprime) and a boolean array
    ok.  The expansion is the pure-Python kernel's `scaled_derivs`, and
    the sums and the acceptance test are those of the kernel's first try
    in `step_once`: ok is true where the tail criterion holds on a
    finite scale, at any |h|.  Where ok is false `step` would subdivide
    or `propagate` take several steps, and (y, yprime) are not to be
    used.
    """
    import numpy as np   # the batched step is the package's one numpy user
    z0 = np.asarray(z0, dtype=complex)
    h = np.asarray(h, dtype=complex)
    n = order + 1
    # rejected entries may overflow; the tail test turns them down
    with np.errstate(over="ignore", invalid="ignore"):
        c = _taylor_py.scaled_derivs(a, z0, y0, y1, n)
        y = c[n]
        for k in range(n - 1, -1, -1):
            y = y * h + c[k]
        yp = n * c[n]
        for k in range(n - 1, 0, -1):
            yp = yp * h + k * c[k]
        ah = _cabs(h)
        tail = np.maximum(_cabs(c[n]) * ah ** n,
                          _cabs(c[n - 1]) * ah ** (n - 1))
        bound = _taylor_py.TAIL_TOL * np.maximum(
            np.maximum(_cabs(y), ah * _cabs(yp)), 1e-300)
        ok = (tail <= bound) & (bound < np.inf)
    return y, yp, ok


def propagate(a: float, z0: complex, y0: complex, y1: complex,
              waypoints, order: int):
    """Propagate (y, y') along a polyline; returns (y, yprime, logscale)."""
    y, yp, logscale, ok = kernel.propagate_polyline(
        a, z0, y0, y1, list(waypoints), order)
    if not ok:
        raise StepFailureError(
            f"propagation from {z0} failed the tail criterion")
    return y, yp, logscale

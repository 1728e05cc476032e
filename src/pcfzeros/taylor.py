"""Taylor-series propagation of solutions of y'' = (z^2/4 + a) y.

Thin, typed API over the stepping kernel: the compiled `_taylor_c` (C,
built by setup.py) when it has been built, otherwise its pure-Python
twin `_taylor_py`; both give the same results to the bit.  An expansion
is a tuple of scaled derivatives (`derivatives_at`), and `step` steps
from the one its caller holds.  Every expansion here is truncated at
`config.TAYLOR_ORDER`.
"""
from __future__ import annotations

from . import _taylor_py
from .config import TAYLOR_ORDER
from .errors import StepFailureError

try:
    from . import _taylor_c as kernel  # type: ignore[attr-defined]
except ImportError:
    kernel = _taylor_py

KERNEL = kernel.KERNEL
# the compiled kernel keeps its own copy for its polyline loop and
# exports only the entry points a loop calls; both round alike
h_max = _taylor_py.h_max


def derivatives_at(a: float, z0: complex, y0: complex,
                   y1: complex) -> tuple[complex, ...]:
    """Expansion c_0..c_{N+1}, c_k = y^(k)(z0)/k! and N = TAYLOR_ORDER,
    of the solution with (y, y') = (y0, y1) at z0: N+1 terms for y and
    for y', as the tuple the kernel returns."""
    return kernel.scaled_derivs(a, z0, y0, y1, TAYLOR_ORDER + 1)


def step(a: float, z0: complex, c, h: complex) -> tuple[complex, complex]:
    """Advance (y, y') = (c[0], c[1]) at z0 by h from the expansion c
    there (`derivatives_at`), subdividing as needed."""
    y, yp, ok = kernel.step_once(a, z0, c, h)
    if not ok:
        raise StepFailureError(
            f"step h={h:.3g} at z0={z0} failed the tail criterion "
            "after maximal subdivision")
    return y, yp


def step_batch(a: float, z0, y0, y1, h):
    """First try of many independent steps at once, vectorised over numpy
    arrays: expand (y0, y1) at each point of z0 and evaluate at z0 + h.

    z0 and h are arrays of one shape; y0 and y1 are scalars or arrays of
    that shape.  Returns complex arrays (y, yprime) and a boolean array
    ok.  The expansion and the Horner sums are the pure-Python kernel's
    generated code (`scaled_derivs`, `_horner`) run on arrays, and the
    acceptance test is `taylor_eval`'s, operation for operation; but
    numpy may round complex products, complex/float quotients and moduli
    differently from CPython, so the values match the kernel's first try
    to rounding (the tests hold them to 1e-13), not bit for bit.  ok is
    true where the tail criterion holds on a finite scale, at any |h|.
    Where ok is false `step` would subdivide or `propagate` take several
    steps, and (y, yprime) are not to be used.
    """
    import numpy as np   # the batched step is the package's one numpy user
    z0 = np.asarray(z0, dtype=complex)
    h = np.asarray(h, dtype=complex)
    n = TAYLOR_ORDER + 1
    # rejected entries may overflow; the tail test turns them down
    with np.errstate(over="ignore", invalid="ignore"):
        c = _taylor_py.scaled_derivs(a, z0, y0, y1, n)
        y, yp = _taylor_py._horner(n)(c, h)
        ah = abs(h)
        tail = np.maximum(abs(c[n]) * ah ** n, abs(c[n - 1]) * ah ** (n - 1))
        bound = _taylor_py.TAIL_TOL * np.maximum(
            np.maximum(abs(y), ah * abs(yp)), 1e-300)
        ok = (tail <= bound) & (bound < np.inf)
    return y, yp, ok


def propagate(a: float, z0: complex, y0: complex, y1: complex, waypoints):
    """Propagate (y, y') along a polyline; returns (y, yprime, logscale)."""
    y, yp, logscale, ok = kernel.propagate_polyline(
        a, z0, y0, y1, waypoints, TAYLOR_ORDER)
    if not ok:
        raise StepFailureError(
            f"propagation from {z0} failed the tail criterion")
    return y, yp, logscale

"""Pure-Python Taylor stepping kernel.

Reference implementation of the hot loops; `pcfzeros._taylor_c` is the
compiled twin with identical semantics.  Selection happens in
`pcfzeros.taylor` at import time.

The ODE is y'' = (z^2/4 + a) y.  Derivatives are stored scaled,
c_k = y^(k)(z0)/k!, so a step is a plain polynomial in h and the
recurrence keeps magnitudes balanced:

    c_{k+2} = [ (z0^2/4 + a) c_k + (z0/2) c_{k-1} + c_{k-2}/4 ]
              / ((k+1)(k+2)),   k >= 0,  c_{-1} = c_{-2} = 0.
"""
from __future__ import annotations

import math

TAIL_TOL = 1e-15
MAX_SPLIT_DEPTH = 6
RESCALE_LIMIT = 1e130

KERNEL = "python"


def h_max(a: float, z: complex) -> float:
    """Largest trusted step size at expansion point z."""
    return 6.0 / max(abs(z) * 0.5, math.sqrt(abs(a)), 1.0)


def scaled_derivs(a: float, z0: complex, y0: complex, y1: complex, n: int):
    """Scaled derivatives c_0..c_n at z0 (n+1 entries, n >= 3)."""
    c = [0j] * (n + 1)
    c[0] = y0
    c[1] = y1
    q = 0.25 * z0 * z0 + a
    hz = 0.5 * z0
    for k in range(n - 1):
        t = q * c[k]
        if k >= 1:
            t += hz * c[k - 1]
        if k >= 2:
            t += 0.25 * c[k - 2]
        c[k + 2] = t / ((k + 1) * (k + 2))
    return c


def taylor_eval(c, h: complex):
    """Evaluate (y, y') of the expansion at displacement h.

    Returns (y, yprime, tail) where tail is the magnitude of the last
    retained term of the y-sum, the caller's truncation measure.
    """
    n = len(c) - 1
    y = c[n]
    for k in range(n - 1, -1, -1):
        y = y * h + c[k]
    yp = n * c[n]
    for k in range(n - 1, 0, -1):
        yp = yp * h + k * c[k]
    # last two terms: a single term can vanish by parity at symmetric
    # expansion points
    ah = abs(h)
    tail = max(abs(c[n]) * ah ** n, abs(c[n - 1]) * ah ** (n - 1))
    return y, yp, tail


def _step_ok(y, yp, h, tail) -> bool:
    scale = max(abs(y), abs(h) * abs(yp), 1e-300)
    return tail <= TAIL_TOL * scale


def step_once(a: float, z0: complex, y0: complex, y1: complex,
              h: complex, order: int):
    """One re-expanding step of size h, bisecting up to h/64 on demand.

    Returns (y, yprime, ok); ok is False if the tail criterion still
    fails at the smallest subdivision.
    """
    c0 = scaled_derivs(a, z0, y0, y1, order + 1)
    y, yp, tail = taylor_eval(c0, h)
    if _step_ok(y, yp, h, tail):
        return y, yp, True
    depth = 0
    zc, yc, ypc = z0, y0, y1
    pieces = 1
    while depth < MAX_SPLIT_DEPTH:
        depth += 1
        pieces *= 2
        hh = h / pieces
        zc, yc, ypc = z0, y0, y1
        ok = True
        for piece in range(pieces):
            # every subdivision starts at (z0, y0, y1), expanded above
            c = c0 if piece == 0 else scaled_derivs(a, zc, yc, ypc,
                                                    order + 1)
            y, yp, tail = taylor_eval(c, hh)
            if not _step_ok(y, yp, hh, tail):
                ok = False
                break
            zc += hh
            yc, ypc = y, yp
        if ok:
            return yc, ypc, True
    return yc, ypc, False


def propagate_polyline(a: float, z0: complex, y0: complex, y1: complex,
                       waypoints, order: int):
    """Propagate (y, y') along straight segments z0 -> waypoints[0] -> ...

    Steps within each segment are capped by h_max at the running point.
    Returns (y, yprime, logscale, ok); the true values are the returned
    pair times exp(logscale).
    """
    zc, yc, ypc = z0, y0, y1
    logscale = 0.0
    for target in waypoints:
        while True:
            rem = target - zc
            d = abs(rem)
            if d == 0.0:
                break
            hm = h_max(a, zc)
            h = rem if d <= hm else rem * (hm / d)
            y, yp, ok = step_once(a, zc, yc, ypc, h, order)
            if not ok:
                return y, yp, logscale, False
            zc += h
            yc, ypc = y, yp
            m = max(abs(yc), abs(ypc))
            if m > RESCALE_LIMIT:
                logscale += math.log(m)
                yc /= m
                ypc /= m
            if d <= hm:
                break
        zc = target
    return yc, ypc, logscale, True

"""Taylor-series ODE stepping for y'' = (z^2/4 + a) y."""
import cmath
import math
from collections import Counter

import numpy as np
import pytest

from pcfzeros import _taylor_py, taylor
from pcfzeros._taylor_py import TAIL_TOL
from pcfzeros.config import DEFAULT_CONFIG
from pcfzeros.errors import StepFailureError
from pcfzeros.taylor import (derivatives_at, h_max, propagate, step,
                             step_batch)

N = DEFAULT_CONFIG.taylor_order


def gauss_pair(a, z):
    """Closed forms for the two elementary parameter values."""
    if a == -0.5:
        y = cmath.exp(-z * z / 4.0)
        return y, -0.5 * z * y
    if a == -1.5:
        g = cmath.exp(-z * z / 4.0)
        return z * g, (1.0 - 0.5 * z * z) * g
    raise ValueError(a)


def test_closed_form_minus_half():
    # the solution exp(-z^2/4), started from z0 = 0
    st = derivatives_at(-0.5, 0.0 + 0.0j, 1.0, 0.0, N)
    for z in (0.5 + 0.5j, -1.0 + 2.0j, -3.0 + 3.0j):
        y, yp = step(st, z)
        ref, refp = gauss_pair(-0.5, z)
        assert abs(y - ref) < 1e-13 * abs(ref)
        assert abs(yp - refp) < 1e-13 * abs(refp)


def test_closed_form_minus_three_halves():
    st = derivatives_at(-1.5, 0.0 + 0.0j, 0.0, 1.0, N)
    z = -1.0 + 1.5j
    y, yp = step(st, z)
    ref, refp = gauss_pair(-1.5, z)
    assert abs(y - ref) < 1e-13 * abs(ref)
    assert abs(yp - refp) < 1e-13 * abs(refp)


def test_zero_step_is_identity():
    st = derivatives_at(2.0, 1.0 - 1.0j, 0.3 + 0.1j, -0.2j, N)
    y, yp = step(st, 0.0)
    assert y == st.derivs[0]
    assert yp == st.derivs[1]


def test_state_satisfies_ode_at_expansion_point():
    a, z0 = 1.7, -2.0 + 3.0j
    y0, y1 = 0.4 - 0.3j, 1.1 + 0.2j
    st = derivatives_at(a, z0, y0, y1, N)
    c = 0.25 * z0 * z0 + a
    # y'' = c y  and  y''' = c y' + (z/2) y, in scaled-derivative form
    assert abs(st.derivs[2] * 2.0 - c * y0) < 1e-14 * max(1.0, abs(c * y0))
    want3 = c * y1 + 0.5 * z0 * y0
    assert abs(st.derivs[3] * 6.0 - want3) < 1e-14 * max(1.0, abs(want3))


def test_derivatives_against_finite_differences():
    a, z0 = -3.3, -4.0 + 2.0j
    st = derivatives_at(a, z0, 1.0 + 0.0j, 0.2 - 0.5j, N)
    h = 1e-3
    # second derivative by central difference of the evaluated series
    yp1 = step(st, h)[0]
    ym1 = step(st, -h)[0]
    y0 = st.derivs[0]
    d2 = (yp1 - 2.0 * y0 + ym1) / (h * h)
    # central difference truncation is O(h^2 y''''/12), about 1e-6 here
    assert abs(d2 - 2.0 * st.derivs[2]) < 1e-5 * max(1.0, abs(st.derivs[2]))


def test_round_trip_corpus():
    # 500 random (a, z0, h) cases: step out, rebuild, step back.  Cases
    # where one mode grows by more than about 1e6 over the step are
    # skipped: the return leg would have to recover the data from a
    # cancellation no double-precision integrator can win.
    rng = np.random.default_rng(20260826)
    worst = 0.0
    n = 0
    while n < 500:
        a = rng.uniform(-40.0, 40.0)
        z0 = complex(rng.uniform(-60.0, 60.0), rng.uniform(-60.0, 60.0))
        h = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        if abs(h) > 1.0:
            continue
        mu = max(abs(z0) / 2.0, math.sqrt(abs(a)), 1.0)
        if abs(h) * mu > 3.0:
            continue
        y0 = complex(rng.normal(), rng.normal())
        y1 = complex(rng.normal(), rng.normal())
        if abs(y0) < 0.1 or abs(y1) < 0.1:
            continue
        n += 1
        fwd = derivatives_at(a, z0, y0, y1, N)
        # the scaled-derivative sequence must stay balanced within h_max
        hm = h_max(a, z0)
        growth = max(abs(d) * hm ** k for k, d in enumerate(fwd.derivs))
        assert growth < 1e6 * abs(fwd.derivs[0])
        ya, ypa = step(fwd, h)
        back = derivatives_at(a, z0 + h, ya, ypa, N)
        yb, ypb = step(back, -h)
        # relative to the data vector norm, the standard backward measure
        d = max(abs(y0), abs(y1))
        worst = max(worst, abs(yb - y0) / d, abs(ypb - y1) / d)
    assert worst < 1e-12, worst


def test_wronskian_conservation():
    # two independent solutions keep y1 y2' - y2 y1' constant
    a, z0 = 5.0, -10.0 + 8.0j
    s1 = derivatives_at(a, z0, 1.0, 0.0, N)
    s2 = derivatives_at(a, z0, 0.0, 1.0, N)
    w0 = 1.0  # value at z0
    z = z0
    for h in (0.6 - 0.2j, -0.3 + 0.7j, 0.5 + 0.5j):
        y1, yp1 = step(s1, h)
        y2, yp2 = step(s2, h)
        w = y1 * yp2 - y2 * yp1
        # the products cancel, so scale the tolerance by their size
        assert abs(w - w0) < 1e-13 * (abs(y1 * yp2) + abs(y2 * yp1))
        z = z + h
        s1 = derivatives_at(a, z, y1, yp1, N)
        s2 = derivatives_at(a, z, y2, yp2, N)


def test_h_max_bounds_series_growth():
    a, z0 = 30.0, -50.0 + 40.0j
    st = derivatives_at(a, z0, 1.0, 0.5, N)
    hm = h_max(a, z0)
    growth = max(abs(d) * hm ** k for k, d in enumerate(st.derivs))
    assert growth / abs(st.derivs[0]) < 1e6


def test_unreasonable_step_raises():
    a, z0 = 30.0, -50.0 + 40.0j
    st = derivatives_at(a, z0, 1.0, 0.5, N)
    with pytest.raises(StepFailureError):
        step(st, 1e5)


def test_subdivided_step_matches_many_small_steps():
    # one large step (internally subdivided) vs an explicit fine walk
    a, z0 = 3.0, -6.0 + 5.0j
    y0, y1 = 1.0 + 0.0j, 0.0 + 1.0j
    target = -2.0 + 9.0j
    st = derivatives_at(a, z0, y0, y1, N)
    y, yp = step(st, target - z0)
    n = 200
    z = z0
    cy, cyp = y0, y1
    for k in range(1, n + 1):
        zn = z0 + (target - z0) * (k / n)
        cy, cyp = step(derivatives_at(a, z, cy, cyp, N), zn - z)
        z = zn
    assert abs(y - cy) < 1e-11 * abs(cy)
    assert abs(yp - cyp) < 1e-11 * abs(cyp)


def test_propagate_polyline():
    a, z0 = 3.0, -6.0 + 5.0j
    y0, y1 = 1.0 + 0.0j, 0.0 + 1.0j
    mid = -4.0 + 7.0j
    target = -2.0 + 9.0j
    y, yp, logscale = propagate(a, z0, y0, y1, [mid, target], N)
    yd, ypd = step(derivatives_at(a, z0, y0, y1, N), target - z0)
    scale = math.exp(logscale)
    assert abs(y * scale - yd) < 1e-11 * abs(yd)
    assert abs(yp * scale - ypd) < 1e-11 * abs(ypd)


def _step_corpus(rng, m):
    """m random (z0, y0, y1, h) over the ranges of the round-trip corpus,
    with |h| up to 1.25 h_max(a, z0), so that some steps pass the first
    try, some are subdivided and some exceed h_max."""
    a = rng.uniform(-40.0, 40.0)
    z0 = rng.uniform(-60.0, 60.0, m) + 1j * rng.uniform(-60.0, 60.0, m)
    hm = np.array([h_max(a, z) for z in z0.tolist()])
    h = hm * rng.uniform(0.0, 1.25, m) * np.exp(2j * np.pi * rng.random(m))
    y0 = rng.normal(size=m) + 1j * rng.normal(size=m)
    y1 = rng.normal(size=m) + 1j * rng.normal(size=m)
    return a, z0.tolist(), y0.tolist(), y1.tolist(), h.tolist()


def test_step_batch_matches_step():
    rng = np.random.default_rng(20261018)
    seen = {"ok": 0, "ok_over_h_max": 0, "subdivided": 0}
    # no random try past h_max passes the tail test; these do, as the
    # last two terms vanish: a = 0 expanded at the origin from (1, 0),
    # where only c_{4k} are nonzero
    vanishing_tail = (0.0, [0j] * 3, [1.0 + 0j] * 3, [0j] * 3,
                      [10.0 + 0j, -8j, 5.0 - 5.0j])
    for a, z0, y0, y1, h in [*(_step_corpus(rng, 40) for _ in range(20)),
                             vanishing_tail]:
        yb, ypb, ok = step_batch(a, np.array(z0), np.array(y0),
                                 np.array(y1), np.array(h), N)
        for i, (z, u, up, d) in enumerate(zip(z0, y0, y1, h)):
            st = derivatives_at(a, z, u, up, N)
            # the first try of step_once, on the plain-loop oracle
            y, yp, tail = _loop_taylor_eval(st.derivs, d)
            scale = max(abs(y), abs(d) * abs(yp), 1e-300)
            if tail > 2.0 * TAIL_TOL * scale:
                assert not ok[i]
            if not ok[i]:
                seen["subdivided"] += 1
                continue
            # like step_once's first try, an accepted try past h_max is
            # the step's result
            seen["ok_over_h_max" if abs(d) > h_max(a, z) else "ok"] += 1
            y, yp = step(st, d)
            assert abs(yb[i] - y) <= 1e-13 * abs(y)
            assert abs(ypb[i] - yp) <= 1e-13 * abs(yp)
    assert seen["ok"] >= 50 and seen["subdivided"] >= 50, seen
    assert seen["ok_over_h_max"] == len(vanishing_tail[4]), seen


def test_step_batch_broadcasts_scalar_data():
    # the chain's use: many anchors with normalized data (0, 1)
    a = 2.3
    z0 = np.array([-5.0 + 4.0j, -20.0 + 30.0j, -1.0 + 0.5j])
    h = np.array([0.1 - 0.2j, 0.05j, 0.0])
    y, yp, ok = step_batch(a, z0, 0j, 1.0 + 0j, h, N)
    assert ok.all()
    assert y[2] == 0 and yp[2] == 1
    for i in range(2):
        ys, yps = step(derivatives_at(a, complex(z0[i]), 0j, 1.0 + 0j, N),
                       complex(h[i]))
        assert abs(y[i] - ys) <= 1e-13 * abs(ys)
        assert abs(yp[i] - yps) <= 1e-13 * abs(yps)


def test_step_batch_accepts_steps_over_h_max():
    # zero data passes any tail test, and the step size alone rejects
    # nothing, as in step_once's first try
    a = -7.0
    z0 = np.array([-10.0 + 10.0j, 0.5j, -30.0 + 2.0j])
    hm = np.array([h_max(a, z) for z in z0.tolist()])
    h = np.concatenate((hm, hm * (1.0 + 1e-12), 3.0 * hm)) * 1j
    y, yp, ok = step_batch(a, np.tile(z0, 3), 0j, 0j, h, N)
    assert ok.all()
    for i, z in enumerate(np.tile(z0, 3).tolist()):
        st = derivatives_at(a, z, 0j, 0j, N)
        assert (y[i], yp[i]) == step(st, complex(h[i])) == (0j, 0j)


# The kernel's loops as first written, kept as the oracle of the
# pure-Python kernel: its rewrite changed how the loops run, not the
# arithmetic, so its results must be identical to the last bit.

def _loop_scaled_derivs(a, z0, y0, y1, n):
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


def _loop_taylor_eval(c, h):
    n = len(c) - 1
    y = c[n]
    for k in range(n - 1, -1, -1):
        y = y * h + c[k]
    yp = n * c[n]
    for k in range(n - 1, 0, -1):
        yp = yp * h + k * c[k]
    ah = abs(h)
    tail = max(abs(c[n]) * ah ** n, abs(c[n - 1]) * ah ** (n - 1))
    return y, yp, tail


def _loop_step_ok(y, yp, h, tail):
    # a scale that is not finite fails the test
    scale = max(abs(y), abs(h) * abs(yp), 1e-300)
    return tail <= TAIL_TOL * scale < math.inf


def _loop_verdict(c, h):
    """(y, yprime, ok) of the kernel's `taylor_eval` on the oracle loops:
    the values at h and the verdict of the tail test on them."""
    y, yp, tail = _loop_taylor_eval(c, h)
    return y, yp, _loop_step_ok(y, yp, h, tail)


def _bisecting_step(a, z0, y0, y1, h, order):
    """step_once as a plain bisection on the oracle loops: every piece of
    every subdivision expands afresh.  Returns (y, yprime, ok, depth),
    depth the number of halvings of the accepted or last attempt."""
    c = _loop_scaled_derivs(a, z0, y0, y1, order + 1)
    y, yp, ok = _loop_verdict(c, h)
    if ok:
        return y, yp, True, 0
    for depth in range(1, _taylor_py.MAX_SPLIT_DEPTH + 1):
        pieces = 2 ** depth
        hh = h / pieces
        zc, yc, ypc = z0, y0, y1
        for _ in range(pieces):
            c = _loop_scaled_derivs(a, zc, yc, ypc, order + 1)
            y, yp, ok = _loop_verdict(c, hh)
            if not ok:
                break
            zc += hh
            yc, ypc = y, yp
        else:
            return yc, ypc, True, depth
    return yc, ypc, False, _taylor_py.MAX_SPLIT_DEPTH


def _kernel_corpus(seed, m):
    """m random (a, z0, y0, y1, h) over the ranges of the round-trip
    corpus; every fourth case starts from the chain's normalized data
    (0, 1), and |h| spans 0 to 2^9 h_max(a, z0) on a log scale, so that
    every subdivision depth is reached and some steps fail at the last."""
    rng = np.random.default_rng(seed)
    for i in range(m):
        a = rng.uniform(-40.0, 40.0)
        z0 = complex(rng.uniform(-60.0, 60.0), rng.uniform(-60.0, 60.0))
        if i % 4 == 0:
            y0, y1 = 0j, 1.0 + 0j
        else:
            y0 = complex(rng.normal(), rng.normal())
            y1 = complex(rng.normal(), rng.normal())
        h = (h_max(a, z0) * 2.0 ** rng.uniform(-3.0, 9.0)
             * cmath.exp(2j * math.pi * rng.random()))
        yield a, z0, y0, y1, h


def test_scaled_derivs_and_taylor_eval_match_loop_oracle():
    # repr compares bits: signed zeros, and nan where a step overflows
    for a, z0, y0, y1, h in _kernel_corpus(20261020, 400):
        for n in (3, 4, 5, 17, 31, 41):
            c = _taylor_py.scaled_derivs(a, z0, y0, y1, n)
            assert repr(c) == repr(_loop_scaled_derivs(a, z0, y0, y1, n))
            for d in (h, h / 2, 0j):
                got = _taylor_py.taylor_eval(c, d)
                assert repr(got) == repr(_loop_verdict(c, d))


def test_step_once_is_plain_bisection():
    # the fast paths (shared first expansion, first two evaluations in
    # one pass) must not change a single bit
    depths = Counter()
    for a, z0, y0, y1, h in _kernel_corpus(20261019, 600):
        *want, depth = _bisecting_step(a, z0, y0, y1, h, 30)
        got = _taylor_py.step_once(a, z0, y0, y1, h, 30)
        assert repr(got) == repr(tuple(want))
        depths[depth, want[2]] += 1
    # every depth 0..6 accepts somewhere, and some steps fail at depth 6
    for depth in range(_taylor_py.MAX_SPLIT_DEPTH + 1):
        assert depths[depth, True] >= 5, depths
    assert depths[_taylor_py.MAX_SPLIT_DEPTH, False] >= 5, depths


def test_order_validation():
    with pytest.raises(ValueError):
        derivatives_at(1.0, 0.0, 1.0, 0.0, 2)


def test_kernel_selected():
    assert taylor.KERNEL in ("c", "python")

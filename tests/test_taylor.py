"""Taylor-series ODE stepping for y'' = (z^2/4 + a) y."""
import cmath
import math
from collections import Counter

import numpy as np
import pytest

from pcfzeros import _taylor_py, pcf, taylor
from pcfzeros._taylor_py import TAIL_TOL
from pcfzeros.chain import run_chain
from pcfzeros.config import TAYLOR_ORDER
from pcfzeros.errors import StepFailureError
from pcfzeros.taylor import (derivatives_at, h_max, propagate, step,
                             step_batch)


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
    c = derivatives_at(-0.5, 0.0 + 0.0j, 1.0, 0.0)
    for z in (0.5 + 0.5j, -1.0 + 2.0j, -3.0 + 3.0j):
        y, yp = step(-0.5, 0.0 + 0.0j, c, z)
        ref, refp = gauss_pair(-0.5, z)
        assert abs(y - ref) < 1e-13 * abs(ref)
        assert abs(yp - refp) < 1e-13 * abs(refp)


def test_closed_form_minus_three_halves():
    c = derivatives_at(-1.5, 0.0 + 0.0j, 0.0, 1.0)
    z = -1.0 + 1.5j
    y, yp = step(-1.5, 0.0 + 0.0j, c, z)
    ref, refp = gauss_pair(-1.5, z)
    assert abs(y - ref) < 1e-13 * abs(ref)
    assert abs(yp - refp) < 1e-13 * abs(refp)


def test_zero_step_is_identity():
    c = derivatives_at(2.0, 1.0 - 1.0j, 0.3 + 0.1j, -0.2j)
    y, yp = step(2.0, 1.0 - 1.0j, c, 0.0)
    assert y == c[0]
    assert yp == c[1]


def test_state_satisfies_ode_at_expansion_point():
    a, z0 = 1.7, -2.0 + 3.0j
    y0, y1 = 0.4 - 0.3j, 1.1 + 0.2j
    d = derivatives_at(a, z0, y0, y1)
    c = 0.25 * z0 * z0 + a
    # y'' = c y  and  y''' = c y' + (z/2) y, in scaled-derivative form
    assert abs(d[2] * 2.0 - c * y0) < 1e-14 * max(1.0, abs(c * y0))
    want3 = c * y1 + 0.5 * z0 * y0
    assert abs(d[3] * 6.0 - want3) < 1e-14 * max(1.0, abs(want3))


def test_derivatives_against_finite_differences():
    a, z0 = -3.3, -4.0 + 2.0j
    c = derivatives_at(a, z0, 1.0 + 0.0j, 0.2 - 0.5j)
    h = 1e-3
    # second derivative by central difference of the evaluated series
    yp1 = step(a, z0, c, h)[0]
    ym1 = step(a, z0, c, -h)[0]
    y0 = c[0]
    d2 = (yp1 - 2.0 * y0 + ym1) / (h * h)
    # central difference truncation is O(h^2 y''''/12), about 1e-6 here
    assert abs(d2 - 2.0 * c[2]) < 1e-5 * max(1.0, abs(c[2]))


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
        fwd = derivatives_at(a, z0, y0, y1)
        # the scaled-derivative sequence must stay balanced within h_max
        hm = h_max(a, z0)
        growth = max(abs(d) * hm ** k for k, d in enumerate(fwd))
        assert growth < 1e6 * abs(fwd[0])
        ya, ypa = step(a, z0, fwd, h)
        back = derivatives_at(a, z0 + h, ya, ypa)
        yb, ypb = step(a, z0 + h, back, -h)
        # relative to the data vector norm, the standard backward measure
        d = max(abs(y0), abs(y1))
        worst = max(worst, abs(yb - y0) / d, abs(ypb - y1) / d)
    assert worst < 1e-12, worst


def test_wronskian_conservation():
    # two independent solutions keep y1 y2' - y2 y1' constant
    a, z0 = 5.0, -10.0 + 8.0j
    s1 = derivatives_at(a, z0, 1.0, 0.0)
    s2 = derivatives_at(a, z0, 0.0, 1.0)
    w0 = 1.0  # value at z0
    z = z0
    for h in (0.6 - 0.2j, -0.3 + 0.7j, 0.5 + 0.5j):
        y1, yp1 = step(a, z, s1, h)
        y2, yp2 = step(a, z, s2, h)
        w = y1 * yp2 - y2 * yp1
        # the products cancel, so scale the tolerance by their size
        assert abs(w - w0) < 1e-13 * (abs(y1 * yp2) + abs(y2 * yp1))
        z = z + h
        s1 = derivatives_at(a, z, y1, yp1)
        s2 = derivatives_at(a, z, y2, yp2)


def test_h_max_bounds_series_growth():
    a, z0 = 30.0, -50.0 + 40.0j
    c = derivatives_at(a, z0, 1.0, 0.5)
    hm = h_max(a, z0)
    growth = max(abs(d) * hm ** k for k, d in enumerate(c))
    assert growth / abs(c[0]) < 1e6


def test_unreasonable_step_raises():
    a, z0 = 30.0, -50.0 + 40.0j
    c = derivatives_at(a, z0, 1.0, 0.5)
    with pytest.raises(StepFailureError):
        step(a, z0, c, 1e5)


def test_step_expands_only_past_its_first_piece(monkeypatch):
    # every try from z0 uses the caller's expansion; a subdivided step
    # expands afresh only where its later pieces start
    monkeypatch.setattr(taylor, "kernel", _taylor_py)
    build = _taylor_py.scaled_derivs
    at = []

    def spy(a, z, *args):
        at.append(z)
        return build(a, z, *args)
    monkeypatch.setattr(_taylor_py, "scaled_derivs", spy)
    rebuilt = 0
    for a, z0, y0, y1, h in _kernel_corpus(20261022, 100):
        c = derivatives_at(a, z0, y0, y1)
        at.clear()
        try:
            step(a, z0, c, h)
        except StepFailureError:
            pass
        assert z0 not in at
        rebuilt += bool(at)
    assert rebuilt >= 50


def test_polyline_builds_every_step_through_the_module_name(monkeypatch):
    # each step's expansion is built by a call through the module name
    # `scaled_derivs`, which the benchmark's tracer replaces to count
    # builds, and the counting changes no result; a real polyline from
    # real data takes the same names on floats, so a refactor that drops
    # the float steps or takes them around the names fails here
    build, step_once = _taylor_py.scaled_derivs, _taylor_py.step_once
    built, steps = [], []

    def build_spy(*args):
        built.append(build(*args))
        return built[-1]

    def step_spy(a, z0, c, h):
        steps.append((any(c is b for b in built), type(z0), type(h)))
        return step_once(a, z0, c, h)
    for i, (a, z0, y0, y1, h) in enumerate(_kernel_corpus(20261023, 80)):
        kind = complex
        if i % 2:
            # the same steps along the real axis, from real data
            kind = float
            z0, h = complex(z0.real), complex(h.real)
            y0, y1 = complex(y0.real), complex(y1.real or 1.0)
        args = (a, z0, y0, y1, [z0 + h / 4, z0 + h], TAYLOR_ORDER)
        want = _taylor_py.propagate_polyline(*args)
        with monkeypatch.context() as m:
            m.setattr(_taylor_py, "scaled_derivs", build_spy)
            m.setattr(_taylor_py, "step_once", step_spy)
            built.clear()
            steps.clear()
            got = _taylor_py.propagate_polyline(*args)
        assert repr(got) == repr(want)
        assert steps and all(built_here for built_here, _, _ in steps)
        assert {s[1:] for s in steps} == {(kind, kind)}, args
        assert len(built) >= len(steps)


def test_subdivided_step_matches_many_small_steps():
    # one large step (internally subdivided) vs an explicit fine walk
    a, z0 = 3.0, -6.0 + 5.0j
    y0, y1 = 1.0 + 0.0j, 0.0 + 1.0j
    target = -2.0 + 9.0j
    c = derivatives_at(a, z0, y0, y1)
    y, yp = step(a, z0, c, target - z0)
    n = 200
    z = z0
    cy, cyp = y0, y1
    for k in range(1, n + 1):
        zn = z0 + (target - z0) * (k / n)
        cy, cyp = step(a, z, derivatives_at(a, z, cy, cyp), zn - z)
        z = zn
    assert abs(y - cy) < 1e-11 * abs(cy)
    assert abs(yp - cyp) < 1e-11 * abs(cyp)


def test_propagate_polyline():
    a, z0 = 3.0, -6.0 + 5.0j
    y0, y1 = 1.0 + 0.0j, 0.0 + 1.0j
    mid = -4.0 + 7.0j
    target = -2.0 + 9.0j
    y, yp, logscale = propagate(a, z0, y0, y1, [mid, target])
    yd, ypd = step(a, z0, derivatives_at(a, z0, y0, y1), target - z0)
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
                                 np.array(y1), np.array(h))
        for i, (z, u, up, d) in enumerate(zip(z0, y0, y1, h)):
            c = derivatives_at(a, z, u, up)
            # the first try of step_once, on the plain-loop oracle
            y, yp, tail = _loop_taylor_eval(c, d)
            scale = max(abs(y), abs(d) * abs(yp), 1e-300)
            if tail > 2.0 * TAIL_TOL * scale:
                assert not ok[i]
            if not ok[i]:
                seen["subdivided"] += 1
                continue
            # like step_once's first try, an accepted try past h_max is
            # the step's result
            seen["ok_over_h_max" if abs(d) > h_max(a, z) else "ok"] += 1
            y, yp = step(a, z, c, d)
            assert abs(yb[i] - y) <= 1e-13 * abs(y)
            assert abs(ypb[i] - yp) <= 1e-13 * abs(yp)
    assert seen["ok"] >= 50 and seen["subdivided"] >= 50, seen
    assert seen["ok_over_h_max"] == len(vanishing_tail[4]), seen


def test_step_batch_broadcasts_scalar_data():
    # the chain's use: many anchors with normalized data (0, 1)
    a = 2.3
    z0 = np.array([-5.0 + 4.0j, -20.0 + 30.0j, -1.0 + 0.5j])
    h = np.array([0.1 - 0.2j, 0.05j, 0.0])
    y, yp, ok = step_batch(a, z0, 0j, 1.0 + 0j, h)
    assert ok.all()
    assert y[2] == 0 and yp[2] == 1
    for i in range(2):
        z = complex(z0[i])
        ys, yps = step(a, z, derivatives_at(a, z, 0j, 1.0 + 0j),
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
    y, yp, ok = step_batch(a, np.tile(z0, 3), 0j, 0j, h)
    assert ok.all()
    for i, z in enumerate(np.tile(z0, 3).tolist()):
        c = derivatives_at(a, z, 0j, 0j)
        assert (y[i], yp[i]) == step(a, z, c, complex(h[i])) == (0j, 0j)


def _hypot(x):
    return np.hypot(x.real, x.imag)


def _out_of_place_step_batch(a, z0, y0, y1, h):
    """step_batch with its Horner sums as plain loops, a new array per
    term: the ufunc calls of the kernel's generated sums in the same
    order, so the results must be identical to the bit; the moduli are
    exact, as Python's abs(complex) rounds them."""
    n = TAYLOR_ORDER + 1
    with np.errstate(over="ignore", invalid="ignore"):
        c = _taylor_py.scaled_derivs(a, z0, y0, y1, n)
        y = c[n]
        for k in range(n - 1, -1, -1):
            y = y * h + c[k]
        yp = n * c[n]
        for k in range(n - 1, 0, -1):
            yp = yp * h + k * c[k]
        ah = _hypot(h)
        tail = np.maximum(_hypot(c[n]) * ah ** n,
                          _hypot(c[n - 1]) * ah ** (n - 1))
        bound = TAIL_TOL * np.maximum(
            np.maximum(_hypot(y), ah * _hypot(yp)), 1e-300)
        ok = (tail <= bound) & (bound < np.inf)
    return y, yp, ok


@pytest.mark.parametrize("a, L", [(-30.2, 60.0), (20.5, 50.0)])
def test_step_batch_in_place_matches_out_of_place(a, L):
    # verify_zeros' batch, entries the tail test rejects included: the
    # kernel's generated Horner sums run on arrays give the bits of plain
    # out-of-place loops, and numpy's moduli the verdicts of exact ones
    z = np.array([r.z for r in run_chain(a, L)])
    anchor = np.concatenate((z[1:2], z[:-1]))
    got = step_batch(a, anchor, 0j, 1.0 + 0j, z - anchor)
    want = _out_of_place_step_batch(a, anchor, 0j, 1.0 + 0j, z - anchor)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w, strict=True)
    assert 1 <= np.count_nonzero(~got[2]) < len(z)


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
            want = tuple(_loop_scaled_derivs(a, z0, y0, y1, n))
            assert repr(c) == repr(want)
            for d in (h, h / 2, 0j):
                got = _taylor_py.taylor_eval(c, d)
                assert repr(got) == repr(_loop_verdict(c, d))


def test_step_once_is_plain_bisection():
    # the fast paths (shared first expansion, a first try skipped where
    # the majorant proves it fails) must not change a single bit
    depths = Counter()
    for a, z0, y0, y1, h in _kernel_corpus(20261019, 600):
        *want, depth = _bisecting_step(a, z0, y0, y1, h, 30)
        c = _taylor_py.scaled_derivs(a, z0, y0, y1, 31)
        got = _taylor_py.step_once(a, z0, c, h)
        assert repr(got) == repr(tuple(want))
        depths[depth, want[2]] += 1
    # every depth 0..6 accepts somewhere, and some steps fail at depth 6
    for depth in range(_taylor_py.MAX_SPLIT_DEPTH + 1):
        assert depths[depth, True] >= 5, depths
    assert depths[_taylor_py.MAX_SPLIT_DEPTH, False] >= 5, depths


def _complex_polyline(a, z0, y0, y1, waypoints, order):
    """`propagate_polyline` as it was before real segments stepped on
    floats, kept as its oracle: every operand complex, through the
    kernel's `scaled_derivs` and `step_once`."""
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
            c0 = _taylor_py.scaled_derivs(a, zc, yc, ypc, order + 1)
            y, yp, ok = _taylor_py.step_once(a, zc, c0, h)
            if not ok:
                return y, yp, logscale, False
            zc += h
            yc, ypc = y, yp
            m = max(abs(yc), abs(ypc))
            if m > _taylor_py.RESCALE_LIMIT:
                logscale += math.log(m)
                yc /= m
                ypc /= m
            if d <= hm:
                break
        zc = target
    return yc, ypc, logscale, True


def _real_axis_corpus(seed, m):
    """m random (a, z0, y0, y1, waypoints) whose first segment lies on the
    real axis: starts of either sign, 0.0 and -0.0 among them; imaginary
    parts +0.0 and -0.0 of the points, and of the data in every fourth
    case; data with a zero of either sign, and zero data; every other a
    in (-1, 1), where h_max = 6 near the origin and steps bisect deepest;
    every fifth leg long enough to pass RESCALE_LIMIT; and every third
    polyline turning off the axis."""
    rng = np.random.default_rng(seed)

    def zero():
        return rng.choice([0.0, -0.0])

    def real(scale):
        return complex(rng.uniform(-scale, scale), zero())
    for i in range(m):
        a = rng.uniform(-1.0, 1.0) if i % 2 else rng.uniform(-20.0, 20.0)
        z0 = complex((zero(), zero(), rng.uniform(-12.0, 12.0))[i % 3],
                     zero())
        y0, y1 = real(2.0), real(2.0)
        if i % 4:
            y0, y1 = complex(y0.real), complex(y1.real)
        if i % 7 == 3:
            y0 = complex(zero(), zero())
        if i % 11 == 5:
            y0, y1 = complex(zero()), complex(zero())
        if i % 5 == 4:
            target = complex(math.copysign(rng.uniform(36.0, 38.0),
                                           rng.uniform(-1.0, 1.0)), zero())
        else:
            target = z0 + real(8.0)
        waypoints = [target]
        if i % 3 == 1:
            waypoints.append(target + complex(rng.uniform(-3.0, 3.0),
                                              rng.uniform(0.5, 3.0)))
        yield a, z0, y0, y1, waypoints


def test_real_segments_match_the_complex_loop(monkeypatch):
    # a real segment from nonzero data whose imaginary parts are +0.0
    # steps on floats, every other one on complex numbers: both give the
    # bits of the all-complex loop, signed zeros included
    step_once, build = _taylor_py.step_once, _taylor_py.scaled_derivs
    float_steps, rebuilds = [], [0]

    def step_spy(a, z0, c, h):
        rebuilds[0] = 0
        got = step_once(a, z0, c, h)
        if isinstance(z0, float):
            float_steps.append(rebuilds[0])
        return got

    def build_spy(*args):
        rebuilds[0] += 1
        return build(*args)
    seen = Counter()
    for a, z0, y0, y1, waypoints in _real_axis_corpus(20261025, 200):
        args = (a, z0, y0, y1, waypoints, TAYLOR_ORDER)
        want = _complex_polyline(*args)
        with monkeypatch.context() as m:
            m.setattr(_taylor_py, "step_once", step_spy)
            m.setattr(_taylor_py, "scaled_derivs", build_spy)
            float_steps.clear()
            got = _taylor_py.propagate_polyline(*args)
        assert repr(got) == repr(want), args
        seen["float"] += bool(float_steps)
        seen["complex"] += not float_steps
        seen["rescaled"] += bool(float_steps) and got[2] > 0.0
        seen["deep"] += max(float_steps, default=0) >= 7
        seen["turned"] += bool(float_steps) and len(waypoints) > 1
    assert seen["float"] >= 100 and seen["complex"] >= 40, seen
    assert min(seen["rescaled"], seen["deep"], seen["turned"]) >= 15, seen


def _origin_path_steps(monkeypatch, a, z):
    """(z0, c0, h) of every `step_once` call of the origin route's
    propagation to z, on the pure-Python kernel."""
    step_once, steps = _taylor_py.step_once, []

    def spy(a, z0, c, h):
        steps.append((z0, c, h))
        return step_once(a, z0, c, h)
    (m0, m1), _ = pcf.origin_values_scaled(a)
    with monkeypatch.context() as m:
        m.setattr(_taylor_py, "step_once", spy)
        ok = _taylor_py.propagate_polyline(
            a, 0j, m0, m1, pcf._path_waypoints(a, z), TAYLOR_ORDER)[3]
    assert ok
    return steps


def test_first_try_certificate_is_sound(monkeypatch):
    # wherever the majorant proves that a try fails, it fails: over the
    # corpus at orders 3-41 and truncations of their expansions, at every
    # subdivision depth, and over every step of two long origin paths
    fails = _taylor_py._first_try_fails
    seen = Counter()
    for a, z0, y0, y1, h in _kernel_corpus(20261024, 200):
        for n in (3, 4, 5, 17, 31, 41):
            c = _taylor_py.scaled_derivs(a, z0, y0, y1, n)
            for k in sorted({2, 3, 4, max(2, n // 2), n + 1}):
                for j in range(0, 12, 2):
                    d = h * 2.0 ** -j
                    ok = _taylor_py.taylor_eval(c[:k], d)[2]
                    proven = fails(a, z0, c[:k], d)
                    assert not (ok and proven), (a, z0, k, d)
                    seen["ok" if ok else "proven" if proven else "open"] += 1
    assert seen["ok"] >= 1000 and seen["proven"] >= 10000, seen
    # a step of h_max on the origin route almost never passes its first
    # try, and the majorant proves nearly every such failure: on a path
    # whose first leg runs up the imaginary axis, and on one whose first
    # leg runs along the real axis on floats
    a = -1.7
    for z, real_steps in ((-150.0 + 200.0j, 0), (-200.0 + 150.0j, 500)):
        full = Counter()
        for z0, c, h in _origin_path_steps(monkeypatch, a, z):
            ok = _taylor_py.taylor_eval(c, h)[2]
            proven = fails(a, z0, c, h)
            assert not (ok and proven), (z0, h)
            if abs(h) >= 0.999 * h_max(a, z0):
                full["ok" if ok else "proven" if proven else "open"] += 1
                full["float"] += isinstance(z0, float)
        assert full["proven"] >= 0.95 * (full["proven"] + full["open"]) \
            > 2000, (z, full)
        assert full["float"] >= real_steps, (z, full)


def test_kernel_selected():
    assert taylor.KERNEL in ("c", "python")

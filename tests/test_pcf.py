"""Function evaluation: origin data, route dispatch, recurrence checks."""
import cmath
import math
import time

import numpy as np
import pytest

from pcfzeros import lgeval, pcf, taylor
from pcfzeros.chain import max_zero_index
from pcfzeros.config import A_MAX, MAX_ZEROS, Z_MAX
from pcfzeros.errors import RegionError
from pcfzeros.pcf import LG_GATE, evaluate, origin_values_scaled

mpmath = pytest.importorskip("mpmath")


def _rel_diff(x, y):
    """|x - y| / |y| for ScaledValues, in scaled arithmetic."""
    return math.exp((x - y).log_abs() - y.log_abs())


def _origin_plain(a):
    (m0, m1), e = origin_values_scaled(a)
    return (m0 * math.exp(e)).real, (m1 * math.exp(e)).real


def test_origin_values_closed_form():
    # U(a, 0) = sqrt(pi) / (2^(a/2 + 1/4) Gamma(3/4 + a/2))
    a = 2.3
    u0, up0 = _origin_plain(a)
    assert abs(u0 - 0.69833466111617388) < 1e-15
    want_up = -math.sqrt(math.pi) / (
        2.0 ** (a / 2.0 - 0.25) * math.gamma(0.25 + a / 2.0))
    assert abs(up0 - want_up) < 1e-15 * abs(want_up)


def test_origin_values_match_mpmath():
    for a in (-4.2, -0.9, 0.3, 7.7, 40.0):
        u0, up0 = _origin_plain(a)
        assert abs(u0 - float(mpmath.pcfu(a, 0))) < 1e-14 * abs(u0)
        ref = float(mpmath.diff(lambda t: mpmath.pcfu(a, t), 0))
        assert abs(up0 - ref) < 1e-13 * abs(ref)


def test_origin_values_at_gamma_poles():
    # Gamma(3/4 + a/2) has a pole at a = -3/2 and Gamma(1/4 + a/2) at
    # a = -1/2, so U(a, 0) and U'(a, 0) vanish there, each with a finite
    # partner and scale
    (m0, m1), e = origin_values_scaled(-1.5)
    assert m0 == 0 and abs(m1) == 1.0 and math.isfinite(e)
    (m0, m1), e = origin_values_scaled(-0.5)
    assert m1 == 0 and abs(m0) == 1.0 and math.isfinite(e)


def test_origin_series_exponent_is_a_builtin_float():
    for a in (2.3, np.float64(2.3)):
        v = evaluate(a, -5 + 5j)
        assert v.method == "origin-series"
        assert type(v.U.exponent) is float
        assert type(v.Uprime.exponent) is float


def test_evaluate_against_mpmath_moderate():
    cases = [(-1.7, -2.0 + 3.0j), (2.3, -1.0 + 4.0j), (-5.5, -6.0 + 1.0j)]
    for a, z in cases:
        v = evaluate(a, z)
        u = v.U.to_complex()
        up = v.Uprime.to_complex()
        ru = complex(mpmath.pcfu(a, complex(z)))
        rup = complex(mpmath.diff(lambda t: mpmath.pcfu(a, t), complex(z)))
        assert abs(u - ru) < 1e-11 * abs(ru), (a, z)
        assert abs(up - rup) < 1e-11 * abs(rup), (a, z)


# Points where `evaluate` answers, without raising, with a value error
# over 1e-13: route, and the error measured against mpmath
_KNOWN_WRONG = [
    *[(a, -28.0 + 31.0j, "origin", err) for a, err in (
        (17.5, 5.8e-2), (14.02, 1.9e-1), (10.0, 2.0e-5), (5.0, 1.0e-10),
        (2.3, 2.4e-13))],
    *[(a, -31.0 + 28.0j, "origin", err) for a, err in (
        (-5.3, 3.5e-10), (-11.1, 1.5e-4), (-14.02, 1.2e-1))],
    (-1.7, -37.0 + 10.0j, "origin", 3.4e-13),
    (18.5, -15.0 + 21.0j, "origin", 2.0e-6),
    (20.5, -15.0 + 21.0j, "origin", 6.7e-5),
    (31.78, -15.0 + 23.0j, "origin", 3.6e-2),
    (39.92, -15.0 + 23.0j, "origin", 6.8),
    (39.92, -9.0 + 19.0j, "origin", 5.3e-6),
    (-18.2, -7.0 + 4.0j, "LG", 2.0e-10),
    (-30.2, -7.0 + 4.0j, "LG", 1.6e-13),
    (-18.2, -4.713 + 2.402j, "LG", 2.4e-8),
    # at a = -n - 1/2 + d, U = -sin(pi a) U(a, -z) + pi V(a, -z)/Gamma(1/2
    # + a) (DLMF 12.2.15), and the V term, of order d, dominates U here:
    # the origin route loses it, and the closed form, which is_hermite
    # takes for |d| < 1e-12, drops it
    (-2.499999999, -15.0 + 3.0j, "origin", 2.1e-8),
    (-4.499999999, -15.0 + 3.0j, "origin", 7.7e-8),
    (-2.4999999999995, -15.0 + 3.0j, "Hermite", 1.0),
    (-2.4999999999995, -6.0 + 5.0j, "Hermite", 1.6e-12),
]
# LG points off a Hermite a by more than is_hermite's 1e-12
_NEAR_HERMITE = [(-20.4999, -21.0 + 9.0j), (-30.499999, -21.0 + 3.0j),
                 (-20.499999999998, -21.0 + 3.0j)]
_RIGHT = [(20.0, -40.0 + 35.0j), (-30.2, -20.0 + 12.0j),   # LG
          *_NEAR_HERMITE,
          (2.3, -5.0 + 5.0j), (-1.7, -10.0 + 8.0j),         # origin
          (0.3, -3.0 + 0.5j),
          (-2.5, -3.0 + 4.0j), (-100.5, -10.0 + 5.0j)]      # Hermite


@pytest.mark.parametrize("a, z", [*_RIGHT, *(
    pytest.param(a, z, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason=f"{route} route, value error {err:.1e}"))
    for a, z, route, err in _KNOWN_WRONG)])
@pytest.mark.filterwarnings("ignore::pcfzeros.errors.TruncationWarning")
def test_value_error_against_mpmath(a, z):
    # value error max(|U - U*|, |U' - U'*|/|z|) / max(|U*|, |U'*|/|z|),
    # with U* = mpmath.pcfu and U'* its mpmath.diff at 30 digits; a
    # typed refusal is an answer too
    if (a, z) in _NEAR_HERMITE:
        assert pcf._in_lg_region(a, z) and not pcf.is_hermite(a)
    try:
        v = evaluate(a, z)
    except RegionError:
        return
    with mpmath.workdps(30):
        w = mpmath.mpc(z)
        ru = mpmath.pcfu(a, w)
        rup = mpmath.diff(lambda t: mpmath.pcfu(a, t), w)
        got = [mpmath.mpc(s.mantissa) * mpmath.exp(s.exponent)
               for s in (v.U, v.Uprime)]
        err = (max(abs(got[0] - ru), abs(got[1] - rup) / abs(w))
               / max(abs(ru), abs(rup) / abs(w)))
    assert err <= 1e-13, (a, z, v.method, float(err))


def test_taylor_and_lg_routes_agree():
    a, z = 20.0, -20.0 + 20.0j
    vt = pcf._evaluate_taylor(a, z)
    vl = pcf._evaluate_lg(a, z)
    assert vt.method != vl.method
    assert _rel_diff(vt.U, vl.U) < 1e-11
    assert _rel_diff(vt.Uprime, vl.Uprime) < 1e-11


def test_neg_parameter_lg_route_agrees_with_taylor():
    a, z = -20.0, -12.0 + 10.0j
    vt = pcf._evaluate_taylor(a, z)
    vl = pcf._evaluate_lg_neg(a, z)
    assert vt.method != vl.method
    assert _rel_diff(vt.U, vl.U) < 1e-11
    assert _rel_diff(vt.Uprime, vl.Uprime) < 1e-11


def test_neg_parameter_lg_route_carries_the_recessive_term():
    # at this point the recessive term of the connection formula, the
    # e^{-ix} half of the cosine and sine forms, is as large as the
    # oscillatory one for U and for U' (about 1e-21 of it at the point
    # of the test above)
    a, z = -30.2, -25.0 + 6.0j
    v = evaluate(a, z)
    assert v.method == "liouville-green"
    with mpmath.workdps(30):
        ru = mpmath.pcfu(a, z)
        # U'(a, z) = (z/2) U(a, z) - U(a-1, z)
        rup = z / 2 * ru - mpmath.pcfu(a - 1, z)
        for got, ref in ((v.U, ru), (v.Uprime, rup)):
            val = mpmath.mpc(got.mantissa) * mpmath.exp(got.exponent)
            assert abs(val - ref) < 1e-11 * abs(ref)


def test_lg_route_has_no_fallback(monkeypatch):
    # a point the region policy admits is evaluated by LG or not at all
    def refuse(*args):
        raise RegionError("refused")
    monkeypatch.setattr(lgeval, "pair", refuse)
    for a, z in ((20.0, -20.0 + 20.0j), (-30.2, -25.0 + 6.0j)):
        with pytest.raises(RegionError, match="refused"):
            evaluate(a, z)


def test_modulus_bound(monkeypatch):
    # beyond Z_MAX the Taylor route would run for hours (-1e5+1e5j: about
    # 10 h); within it, the route is reached.  The bound holds the corner
    # -L+iL of every box run_chain accepts (a = 0 allows the largest L).
    monkeypatch.setattr(pcf, "_evaluate_taylor", lambda *args: "taylor")
    for z in (-1e5 + 1e5j, complex(0.0, -1.0000001 * Z_MAX),
              cmath.rect(Z_MAX * (1.0 + 1e-12), 3.0)):
        with pytest.raises(RegionError):
            evaluate(1.0, z)
    assert evaluate(1.0, cmath.rect(Z_MAX * (1.0 - 1e-12), 3.0)) == "taylor"
    with pytest.raises(ValueError, match=str(MAX_ZEROS)):
        max_zero_index(0.0, Z_MAX / math.sqrt(2.0))


def test_neg_parameter_near_origin_takes_taylor():
    # the negative-a LG route loses accuracy for |zhat| < 0.6 (1e-5 at
    # the first point, 1e-4 at the second), so those points go to Taylor
    for a, z in ((-30.2, -1.354 + 1.104j), (-24.7, -4.0 + 1.0j)):
        v = evaluate(a, z)
        assert v.method == "origin-series", (a, z)
        ru = complex(mpmath.pcfu(a, z))
        rup = complex(mpmath.diff(lambda t: mpmath.pcfu(a, t), z))
        assert abs(v.U.to_complex() - ru) < 1e-12 * abs(ru), (a, z)
        assert abs(v.Uprime.to_complex() - rup) < 1e-12 * abs(rup), (a, z)


def test_recurrence_residuals():
    # z U(a,z) - U(a-1,z) + (a + 1/2) U(a+1,z) = 0
    a, z = 20.0, -25.0 + 25.0j
    u_m = pcf._evaluate_lg(a - 1.0, z).U
    v0 = pcf._evaluate_lg(a, z)
    u_p = pcf._evaluate_lg(a + 1.0, z).U
    res = v0.U * z - u_m + u_p * (a + 0.5)
    scale = max(abs(z) * math.exp(v0.U.log_abs()), math.exp(u_m.log_abs()))
    assert math.exp(res.log_abs()) < 5e-13 * scale
    # U'(a,z) - (z/2) U(a,z) + U(a-1,z) = 0
    res2 = v0.Uprime - v0.U * (0.5 * z) + u_m
    scale2 = max(math.exp(v0.Uprime.log_abs()), math.exp(u_m.log_abs()))
    assert math.exp(res2.log_abs()) < 5e-13 * scale2


def test_conjugate_symmetry(monkeypatch):
    # U(a, conj z) = conj U(a, z) for real a
    for a, z in ((3.1, -4.0 + 5.0j), (-7.7, -3.0 + 2.0j)):
        u1 = evaluate(a, z).U.to_complex()
        u2 = evaluate(a, z.conjugate()).U.to_complex()
        assert abs(u2 - u1.conjugate()) < 1e-12 * abs(u1)
    # evaluate reflects Im z < 0 itself, on every route, and no route
    # sees the lower half-plane
    seen = []
    for name in ("_evaluate_hermite", "_evaluate_lg", "_evaluate_lg_neg",
                 "_evaluate_taylor"):
        monkeypatch.setattr(pcf, name, lambda a, z, f=getattr(pcf, name):
                            seen.append((f.__name__, z)) or f(a, z))
    cases = [(-18.5, -16.6 + 1.9j, "hermite"),
             (3.1, -4.0 + 5.0j, "origin-series"),
             (20.0, -20.0 + 20.0j, "liouville-green"),
             (-30.2, -25.0 + 6.0j, "liouville-green")]
    for a, z, method in cases:
        v = evaluate(a, z)
        w = evaluate(a, z.conjugate())
        assert v.method == w.method == method, (a, z)
        assert (w.U, w.Uprime) == (v.U.conjugate(), v.Uprime.conjugate())
    assert [f for f, _ in seen[::2]] == [
        "_evaluate_hermite", "_evaluate_taylor", "_evaluate_lg",
        "_evaluate_lg_neg"]
    assert [z for _, z in seen] == [z for _, z, _ in cases for _ in "ab"]


def test_path_independence():
    # straight path vs a dog-leg through a different waypoint
    a = 2.0
    z = -3.0 + 4.0j
    y1, yp1, ls1 = taylor.propagate(a, 0.0, 1.0, 0.0, [z])
    y2, yp2, ls2 = taylor.propagate(a, 0.0, 1.0, 0.0, [-3.0 + 0.0j, z])
    v1 = y1 * cmath.exp(ls1)
    v2 = y2 * cmath.exp(ls2)
    assert abs(v1 - v2) < 1e-10 * abs(v1)


@pytest.mark.parametrize("a", [-30.2, -1.7, 2.3, 20.5])
def test_path_waypoints_on_and_near_the_axes(a):
    # where |Im z^2| <= 1 the path is the axis point p that the hyperbola
    # Re w^2 = Re z^2 meets, kept if |p| > 1e-12, and then z: on the real
    # axis of both signs, the positive imaginary axis, at z = 0, off the
    # axes with |Im z^2| < 1e-12, and at Im z^2 = -0.6
    cases = [
        (complex(5.0, 0.0), [complex(5.0, 0.0)]),
        (complex(-5.0, 0.0), [complex(-5.0, 0.0)]),
        (complex(-150.0, 0.0), [complex(-150.0, 0.0)]),
        (complex(5.0, -0.0), [complex(5.0, 0.0)]),
        (complex(0.0, 7.0), [complex(0.0, 7.0)]),
        (complex(-0.0, 7.0), [complex(0.0, 7.0)]),
        (complex(0.0, 0.0), []),
        (complex(-0.0, 0.0), []),
        (complex(-3.0, 1e-14), [complex(-3.0, 0.0)]),
        (complex(1e-14, 4.0), [complex(0.0, 4.0)]),
        (complex(-4.0, 1e-13), [complex(-4.0, 0.0)]),
        (complex(-1e-13, 1e-13), []),
        (complex(-3.0, 0.1), [complex(-math.sqrt(9.0 - 0.1 * 0.1), 0.0)]),
    ]
    for z, axis in cases:
        assert repr(pcf._path_waypoints(a, z)) == repr(axis + [z]), (a, z)


def test_dispatch_continuity_near_gate():
    # crossing the automatic Taylor/LG boundary must not jump the value
    a = 25.0
    # Im chosen so neither sample point sits near a zero of U
    z_in = complex(-LG_GATE - 0.2, LG_GATE + 4.0)
    z_out = complex(-LG_GATE + 0.2, LG_GATE + 4.0)
    for z in (z_in, z_out):
        u = evaluate(a, z).U.to_complex()
        ref = complex(mpmath.pcfu(a, complex(z)))
        assert abs(u - ref) < 1e-10 * abs(ref), z


def test_region_rejection():
    with pytest.raises(RegionError):
        evaluate(1.0, 40.0 + 5.0j)
    # non-finite input, before the Hermite test rounds a and before a
    # Taylor step fails on it
    for a, z in [(math.inf, -1.0 + 1.0j), (-math.inf, -1.0 + 1.0j),
                 (math.nan, -1.0 + 1.0j), (1.0, complex(math.nan, 1.0)),
                 (1.0, complex(-1.0, math.inf))]:
        with pytest.raises(ValueError, match="finite"):
            evaluate(a, z)


@pytest.mark.parametrize("a, z", [(-1e18, -2.0 + 2.0j),
                                  (-1e300, -20.0 + 20.0j),
                                  (-1e12, -2.0 + 2.0j),
                                  (math.nextafter(A_MAX, math.inf), -1.0j)])
def test_parameter_past_a_max_is_rejected_at_once(a, z):
    # the Hermite recurrence would run |a| times, and the origin route
    # takes about |z| sqrt|a| / 6 steps
    t0 = time.perf_counter()
    with pytest.raises(RegionError, match="A_MAX"):
        evaluate(a, z)
    assert time.perf_counter() - t0 < 1.0


def test_hermite_parameters_take_the_closed_form():
    # at a = -n - 1/2 the Taylor route integrates a recessive solution
    # and the negative-parameter LG route degenerates (4e13 and 4e15
    # relative error at the first point); U = e^{-z^2/4} He_n(z)
    for a, z in ((-18.5, -16.6 + 1.9j), (-30.5, -20.0 + 10.0j),
                 (-2.5, -1.0 + 1.0j)):
        v = evaluate(a, z)
        assert v.method == "hermite"
        with mpmath.workdps(30):
            ru = mpmath.pcfu(a, z)
            rup = mpmath.diff(lambda t: mpmath.pcfu(a, t), z)
            for got, ref in ((v.U, ru), (v.Uprime, rup)):
                val = mpmath.mpc(got.mantissa) * mpmath.exp(got.exponent)
                assert abs(val - ref) < 1e-13 * abs(ref), (a, z)

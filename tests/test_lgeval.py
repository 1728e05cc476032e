"""Liouville-Green evaluation: phase functions, regions, gamma ratio."""
import math
import warnings

import pytest
from scipy.special import gammaln

import pcfzeros.lgeval as lgeval
from pcfzeros import pcf
from pcfzeros.config import DEFAULT_CONFIG
from pcfzeros.errors import CutError, RegionError
from pcfzeros.lgcoef import (LGCoeffTables, build_tables, make_tables,
                             poly_eval_exact)
from pcfzeros.lgeval import (_geometry_dd, check_region, eval_pair,
                             eval_pair_negarg, gamma_ratio, point)

mpmath = pytest.importorskip("mpmath")

TABLES = make_tables(DEFAULT_CONFIG.lg_order)


def _geometry_at(u, zhat):
    """(beta, u*xi) at the scaled variable zhat, u*xi as one double."""
    _, beta, phi, _, _ = _geometry_dd(u, math.sqrt(2.0 * u) * zhat)
    return beta, phi[0] + phi[1]


def test_xi_bar_anchors():
    # the LG variable xi = (1/2) zhat sqrt(zhat^2+1) + (1/2) asinh(zhat),
    # read from the phase u*xi
    u = 40.0
    assert _geometry_at(u, 0j)[1] == 0.0
    # closed form at zhat = 1: (1/2) sqrt(2) + (1/2) ln(1 + sqrt(2))
    want = 0.5 * math.sqrt(2.0) + 0.5 * math.log(1.0 + math.sqrt(2.0))
    assert abs(_geometry_at(u, 1.0 + 0j)[1] - u * want) < 1e-15 * u * want
    # approaching the turning point from inside the quadrant
    z = 1j * (1.0 - 1e-9)
    assert abs(_geometry_at(u, z)[1] - u * 1j * math.pi / 4.0) < 1e-4 * u


def test_beta_bar_values():
    assert abs(_geometry_at(40.0, 1.0 + 0j)[0] - 1.0 / math.sqrt(2.0)) < 1e-15
    assert abs(_geometry_at(40.0, 0j)[0]) == 0.0


def test_cut_detection():
    with pytest.raises(CutError):
        check_region(40.0, 2.0j)
    with pytest.raises(CutError):
        point(40.0, math.sqrt(80.0) * 2.0j, TABLES)


def test_check_region_rejections():
    with pytest.raises(RegionError):
        check_region(10.0, -1.0 + 1.0j)  # u too small
    with pytest.raises(RegionError):
        check_region(40.0, 1.0 + 1.0j)  # wrong quadrant
    with pytest.raises(RegionError):
        check_region(40.0, -0.01 + 1.0j)  # too close to turning point
    with pytest.raises(RegionError):
        check_region(40.0, 0.5j)  # on the segment [0, i]
    # a comfortably interior point passes
    check_region(40.0, -1.0 + 1.0j)


def test_gamma_ratio_against_log_gamma():
    # oracle: ln gr = 0.5 ln(2 pi) - lnGamma(u/2 + 1/2) + (u/2)(ln(u/2) - 1)
    for u in (36.0, 40.0, 80.0, 200.0):
        want = math.exp(0.5 * math.log(2.0 * math.pi)
                        - gammaln(u / 2.0 + 0.5)
                        + (u / 2.0) * (math.log(u / 2.0) - 1.0))
        got = gamma_ratio(u, TABLES)
        assert abs(got - want) < 1e-12 * want, f"u={u}"
        # both table variants agree
        got_t = gamma_ratio(u, TABLES, variant="Etilde")
        assert abs(got - got_t) < 1e-12 * want, f"u={u} variants"


def test_eval_U_matches_mpmath():
    # eval_pair(u, z)[0] computes U(u/2, z) in scaled form
    u = 40.0
    a = u / 2.0
    for zhat in (-0.8 + 0.9j, -1.5 + 0.3j, -0.3 + 1.6j):
        z = math.sqrt(2.0 * u) * zhat
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", lgeval.TruncationWarning)
            got = eval_pair(point(u, z, TABLES))[0].to_complex()
        want = complex(mpmath.pcfu(a, complex(z)))
        assert abs(got - want) < 1e-11 * abs(want), f"zhat={zhat}"


def test_eval_Uprime_matches_mpmath_derivative():
    u = 40.0
    a = u / 2.0
    zhat = -1.0 + 0.8j
    z = math.sqrt(2.0 * u) * zhat
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", lgeval.TruncationWarning)
        got = eval_pair(point(u, z, TABLES))[1].to_complex()
    want = complex(mpmath.diff(lambda t: mpmath.pcfu(a, t), complex(z)))
    assert abs(got - want) < 1e-11 * abs(want)


@pytest.mark.filterwarnings("ignore::pcfzeros.errors.TruncationWarning")
def test_negated_argument_variant():
    # the companion solution, recessive in the opposite direction; at
    # |zhat| of a few the phase u*xi is in the thousands, which plain
    # doubles carry only to about 1e-13
    for u, zhat, tol in ((40.0, -1.0 + 1.0j, 1e-11),
                         (100.0, -2.0 + 2.0j, 5e-14),
                         (100.0, -4.0 + 4.0j, 5e-14)):
        a = u / 2.0
        z = math.sqrt(2.0 * u) * zhat
        U, Up = eval_pair_negarg(point(u, z, TABLES))
        with mpmath.workdps(30):
            t = mpmath.mpc(-z.real, -z.imag)
            want = complex(mpmath.pcfu(a, t))
            # U'(a, t) = (t/2) U(a, t) - U(a-1, t)
            want_p = complex(t / 2 * mpmath.pcfu(a, t) - mpmath.pcfu(a - 1, t))
        err = abs(U.to_complex() - want) / abs(want)
        err_p = abs(Up.to_complex() - want_p) / abs(want_p)
        assert err < tol and err_p < tol, (u, zhat, err, err_p)


def _full_sum_loop(tables, u, beta, tilde):
    """sum over s = 1..S of sgn^s (F_s(beta) - F_s(-1)) / u^s, sgn = -1
    for the base family and +1 for the tilde family, term by term."""
    sgn = 1.0 if tilde else -1.0
    total = 0j
    for s in range(1, tables.S + 1):
        term = tables.eval(s, beta, tilde) - tables.eval(s, -1.0, tilde)
        total += sgn ** s * term / u ** s
    return total


@pytest.mark.filterwarnings("ignore::pcfzeros.errors.TruncationWarning")
def test_three_sums_add_to_the_full_order_sum():
    # eval_pair_negarg takes its full-order sums as the three sums of
    # `point` added; this rests on the parities of the anchors
    for s in range(2, TABLES.S + 1, 2):
        assert TABLES.E_at_m1[s - 1] == 0.0
        assert TABLES.Etilde_at_p1[s - 1] == 0.0
    for s, p in enumerate(build_tables(TABLES.S, tilde=True), start=1):
        if s % 2:
            assert poly_eval_exact(p, -1) == -poly_eval_exact(p, 1)
    # a corpus of beta, through the points they come from
    n = 0
    for u in (36.0, 60.2, 100.0, 400.0):
        for re in (-0.05, -0.3, -1.0, -2.5, -6.0):
            for im in (0.0, 0.4, 1.5, 3.0, 7.0):
                z = math.sqrt(2.0 * u) * complex(re, im)
                try:
                    pt = point(u, z, TABLES)
                except RegionError:
                    continue
                beta = _geometry_dd(u, z)[1]
                for tilde in (False, True):
                    want = _full_sum_loop(TABLES, u, beta, tilde)
                    size = sum(abs(x) for x in pt.sums[tilde])
                    assert abs(sum(pt.sums[tilde]) - want) <= 1e-15 * size, (
                        u, re, im, tilde)
                n += 1
    assert n >= 80


@pytest.mark.filterwarnings("ignore::pcfzeros.errors.TruncationWarning")
def test_negative_route_takes_one_point(monkeypatch):
    # one geometry and one set of sums serve both expansions
    geometries = []
    evals = []
    geometry = lgeval._geometry_dd
    table_eval = LGCoeffTables.eval
    monkeypatch.setattr(lgeval, "_geometry_dd",
                        lambda *args: geometries.append(1) or geometry(*args))
    monkeypatch.setattr(LGCoeffTables, "eval",
                        lambda *args: evals.append(1) or table_eval(*args))
    for z in (-12.0 + 20.0j, -25.0 + 5.0j, -3.0 + 28.0j):
        geometries.clear()
        evals.clear()
        pcf._evaluate_lg_neg(-30.2, z, DEFAULT_CONFIG)
        assert len(geometries) == 1
        assert len(evals) <= 2 * TABLES.S


def test_scaled_output_survives_extreme_parameters():
    # the raw function value overflows doubles here; the scaled form must not
    u = 4000.0
    for sv in eval_pair(point(u, math.sqrt(2.0 * u) * (-1.0 + 1.0j), TABLES)):
        assert math.isfinite(abs(sv.mantissa))
        assert math.isfinite(sv.exponent)
        assert not sv.is_zero


def test_truncated_sum_warning():
    # just outside the excluded disk around the turning point the series
    # degrades and must warn
    u = 36.0
    with pytest.warns(lgeval.TruncationWarning):
        point(u, math.sqrt(2.0 * u) * (-0.3 + 1.2j), TABLES)

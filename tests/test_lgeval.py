"""Liouville-Green evaluation: phase functions, regions, gamma ratio."""
import math
import warnings

import pytest
from scipy.special import gammaln

import pcfzeros.lgeval as lgeval
from pcfzeros.config import DEFAULT_CONFIG
from pcfzeros.errors import CutError, RegionError
from pcfzeros.lgcoef import make_tables
from pcfzeros.lgeval import (_geometry, check_region, eval_pair,
                             eval_pair_negarg, gamma_ratio)

mpmath = pytest.importorskip("mpmath")

TABLES = make_tables(DEFAULT_CONFIG.lg_order)


def test_xi_bar_anchors():
    # the LG variable xi = (1/2) zhat sqrt(zhat^2+1) + (1/2) asinh(zhat)
    assert _geometry(40.0, 0j)[1] == 0.0
    # closed form at zhat = 1: (1/2) sqrt(2) + (1/2) ln(1 + sqrt(2))
    want = 0.5 * math.sqrt(2.0) + 0.5 * math.log(1.0 + math.sqrt(2.0))
    assert abs(_geometry(40.0, 1.0 + 0j)[1] - want) < 1e-15
    # approaching the turning point from inside the quadrant
    z = 1j * (1.0 - 1e-9)
    assert abs(_geometry(40.0, z)[1] - 1j * math.pi / 4.0) < 1e-4


def test_beta_bar_values():
    assert abs(_geometry(40.0, 1.0 + 0j)[0] - 1.0 / math.sqrt(2.0)) < 1e-15
    assert abs(_geometry(40.0, 0j)[0]) == 0.0


def test_cut_detection():
    with pytest.raises(CutError):
        check_region(40.0, 2.0j)
    with pytest.raises(CutError):
        eval_pair_negarg(40.0, 2.0j, TABLES)


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
            got = eval_pair(u, z, TABLES)[0].to_complex()
        want = complex(mpmath.pcfu(a, complex(z)))
        assert abs(got - want) < 1e-11 * abs(want), f"zhat={zhat}"


def test_eval_Uprime_matches_mpmath_derivative():
    u = 40.0
    a = u / 2.0
    zhat = -1.0 + 0.8j
    z = math.sqrt(2.0 * u) * zhat
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", lgeval.TruncationWarning)
        got = eval_pair(u, z, TABLES)[1].to_complex()
    want = complex(mpmath.diff(lambda t: mpmath.pcfu(a, t), complex(z)))
    assert abs(got - want) < 1e-11 * abs(want)


def test_negated_argument_variant():
    # the companion solution, recessive in the opposite direction
    u = 40.0
    a = u / 2.0
    zhat = -1.0 + 1.0j
    z = math.sqrt(2.0 * u) * zhat
    U, Up = eval_pair_negarg(u, zhat, TABLES)
    want = complex(mpmath.pcfu(a, complex(-z)))
    assert abs(U.to_complex() - want) < 1e-11 * abs(want)
    want = complex(mpmath.diff(lambda t: mpmath.pcfu(a, t), complex(-z)))
    assert abs(Up.to_complex() - want) < 1e-11 * abs(want)


def test_scaled_output_survives_extreme_parameters():
    # the raw function value overflows doubles here; the scaled form must not
    u = 4000.0
    for sv in eval_pair(u, math.sqrt(2.0 * u) * (-1.0 + 1.0j), TABLES):
        assert math.isfinite(abs(sv.mantissa))
        assert math.isfinite(sv.exponent)
        assert not sv.is_zero


def test_truncated_sum_warning():
    # just outside the excluded disk around the turning point the series
    # degrades and must warn
    u = 36.0
    with pytest.warns(lgeval.TruncationWarning):
        eval_pair(u, math.sqrt(2.0 * u) * (-0.3 + 1.2j), TABLES)

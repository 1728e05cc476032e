"""Zero chains: seeding, refinement, walking, verification."""
import cmath
import math

import pytest

from pcfzeros import taylor
from pcfzeros.chain import (ZeroRecord, coefficient_A, displace,
                            first_zero_estimate, fixed_point_T, is_hermite,
                            max_zero_index, refine_from_previous, run_chain,
                            sqrt_A, verify_zeros)
from pcfzeros.config import ChainConfig
from pcfzeros.errors import HermiteParameterError, StepFailureError


def test_sqrt_A_branch():
    # on the anti-Stokes direction the root lands in the first quadrant
    s = sqrt_A(0.0, 10.0 * cmath.exp(0.75j * math.pi))
    want = 5.0 * cmath.exp(0.25j * math.pi)
    assert abs(s - want) < 1e-12 * abs(want)
    # beyond the turning point of a = -1 the coefficient is negative
    s2 = sqrt_A(-1.0, -4.0 + 0.0j)
    assert abs(s2 - 1j * math.sqrt(3.0)) < 1e-14
    assert abs(coefficient_A(-1.0, -4.0) - (-3.0)) < 1e-14
    # between the turning points of a = -5 it is positive: real root
    s3 = sqrt_A(-5.0, -1.0 + 0.0j)
    assert abs(s3 - math.sqrt(4.75)) < 1e-14


def test_displace_real_axis():
    # next zero lies one half-period away, below the axis for this branch
    z = displace(-1.0, -4.0 + 0.0j)
    want = -4.0 - 1j * math.pi / math.sqrt(3.0)
    assert abs(z - want) < 1e-12


def test_fixed_point_identity_at_zero():
    # Q = U/U' = 0 at a zero, so T(z) = z
    a, z = -1.0, -4.0 + 0.0j
    t = fixed_point_T(a, z, 0.0 + 0.0j)
    assert t == z


def test_fixed_point_newton_limit():
    # for small Q, T(z) - z = -Q + A Q^3/3 - A^2 Q^5/5 + O(Q^7)
    a, z = 2.0, -5.0 + 5.0j
    q = 1e-3 + 0.5e-3j
    t = fixed_point_T(a, z, q)
    A = coefficient_A(a, z)
    resid = (t - z) + q - A * q ** 3 / 3.0 + A * A * q ** 5 / 5.0
    assert abs(resid) < 1e-12 * abs(q)


def test_is_hermite():
    assert is_hermite(-0.5)
    assert is_hermite(-2.5)
    assert is_hermite(-1.5 + 1e-13)
    assert not is_hermite(0.5)  # k = 0 is not an excluded case
    assert not is_hermite(-2.5 + 1e-6)
    assert not is_hermite(1.5)


def test_first_zero_estimate_consistency():
    # the seed satisfies its defining phase relation i z^2/2 = tau
    for a, L in ((-1.7, 12.0), (2.3, 10.0), (20.5, 50.0)):
        m, z = first_zero_estimate(a, L)
        tau = (2 * m + 0.5 - abs(a)) * math.pi + 1j * (
            -0.5 * math.log(math.pi) - (abs(a) + 0.5) * math.log(2.0)
            + math.lgamma(0.5 + abs(a)))
        assert abs(0.5j * z * z - tau) < 1e-13 * abs(tau)
        assert z.real < 0.0 and z.imag > 0.0


def test_first_zero_estimate_requires_l():
    with pytest.raises(ValueError):
        first_zero_estimate(1.0, 1.5)


def test_max_zero_index():
    assert max_zero_index(0.0, 2.0) == 0
    assert max_zero_index(-1.7, 12.0) > 20


def test_run_chain_counts():
    assert len(run_chain(-1.7, 12.0)) == 23
    assert len(run_chain(2.3, 10.0)) == 16


def test_run_chain_large():
    zeros = run_chain(20.5, 50.0)
    assert len(zeros) == 407


def test_chain_geometry_invariants():
    zeros = run_chain(-3.2, 15.0)
    pts = [r.z for r in zeros]
    # all in the second quadrant (closed at the axes)
    assert all(p.real < 0.0 and p.imag >= -1e-9 for p in pts)
    # no duplicates and monotone progress along the string
    for p, q in zip(pts, pts[1:]):
        gap = abs(q - p)
        assert gap > 1e-6
        # consecutive spacing tracks the local half-period 2 pi / |z|
        assert 0.3 * 2.0 * math.pi / abs(p) < gap < 3.0 * 2.0 * math.pi / abs(p)
    # indices are contiguous
    assert [r.index for r in zeros] == list(range(len(zeros)))


def test_run_chain_rejects_hermite():
    with pytest.raises(HermiteParameterError):
        run_chain(-2.5, 10.0)


def test_run_chain_rejects_bad_l():
    with pytest.raises(ValueError):
        run_chain(1.0, 0.0)


def test_count_stable_under_config():
    base = len(run_chain(-1.7, 12.0))
    tight = len(run_chain(-1.7, 12.0,
                          ChainConfig(eps=1e-15, taylor_order=40)))
    assert base == tight


def test_verify_zeros_estimates():
    zeros = run_chain(2.3, 10.0)
    checked = verify_zeros(2.3, zeros)
    ests = [r.est_rel_error for r in checked]
    assert all(math.isfinite(e) for e in ests)
    assert max(ests) < 1e-11


@pytest.mark.parametrize("a, L", [(-1.7, 60.0), (20.5, 50.0)])
def test_verify_zeros_matches_per_zero_propagation(a, L, monkeypatch):
    zeros = run_chain(a, L)
    want = []
    for i, rec in enumerate(zeros):
        anchor = zeros[i - 1 if i else 1].z
        y, yp, _ = taylor.propagate(a, anchor, 0j, 1.0 + 0j, [rec.z])
        want.append(abs(y / yp) / abs(rec.z))
    fallbacks = []
    propagate = taylor.propagate

    def spy(a, z0, y0, y1, waypoints, order=taylor.DEFAULT_ORDER):
        fallbacks.append(waypoints[0])
        return propagate(a, z0, y0, y1, waypoints, order)
    monkeypatch.setattr(taylor, "propagate", spy)
    checked = verify_zeros(a, zeros)
    # the batch takes almost every zero; the rest go the scalar way
    assert 1 <= len(fallbacks) <= 10
    assert [r.z for r in checked] == [r.z for r in zeros]
    assert [r.index for r in checked] == [r.index for r in zeros]
    for rec, est in zip(checked, want):
        assert abs(rec.est_rel_error - est) <= 1e-15


def test_verify_zeros_short_lists():
    # a lone zero has no neighbor to anchor at: absolute evaluation
    zeros = run_chain(2.3, 10.0)
    (rec,) = verify_zeros(2.3, zeros[:1])
    assert rec.est_rel_error < 1e-11
    assert verify_zeros(2.3, []) == []


def test_verify_zeros_step_failure_is_nan(monkeypatch):
    zeros = run_chain(2.3, 10.0)

    def failing(*args, **kwargs):
        raise StepFailureError("forced")
    monkeypatch.setattr(taylor, "propagate", failing)
    ests = [r.est_rel_error for r in verify_zeros(2.3, zeros)]
    # only the zeros the batch rejects are propagated one by one
    assert 1 <= sum(map(math.isnan, ests)) < len(ests)


@pytest.mark.parametrize("n", [1, 5])
def test_verify_zeros_malformed_record_raises(n):
    zeros = run_chain(2.3, 10.0)[:n]
    zeros[-1] = ZeroRecord(index=n - 1, z=None)
    with pytest.raises(TypeError):
        verify_zeros(2.3, zeros)


def test_refine_from_previous_is_fast():
    # seeding from the displacement of a converged zero takes few steps
    cfg = ChainConfig()
    zeros = run_chain(-3.2, 15.0)
    anchor = zeros[1]
    seed = displace(-3.2, anchor.z)
    z, iters, deltas = refine_from_previous(-3.2, anchor.z, seed, cfg)
    assert iters <= 6
    assert deltas[-1] <= cfg.eps
    # it converged to the neighboring zero, one half-period inward
    assert abs(z - zeros[2].z) < 1e-10 or abs(z - zeros[0].z) < 1e-10


def test_deltas_shrink_quartically_fast():
    zeros = run_chain(-3.2, 15.0, ChainConfig(), collect_deltas=True)
    seen = 0
    for r in zeros:
        if r.deltas is None or len(r.deltas) < 2:
            continue
        d = [x for x in r.deltas if x > 0]
        if len(d) >= 2 and d[0] > 1e-10:
            seen += 1
            assert d[1] < d[0]
    assert seen > 0

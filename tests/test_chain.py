"""Zero chains: seeding, refinement, walking, verification."""
import cmath
import math

import pytest

from pcfzeros import chain, taylor
from pcfzeros.chain import (MAX_INNER_ITERS, MAX_ZEROS, ZeroRecord, displace,
                            first_zero_estimate, fixed_point_T, is_hermite,
                            max_zero_index, refine_from_previous, run_chain,
                            sqrt_A, verify_zeros)
from pcfzeros.config import DEFAULT_CONFIG, ChainConfig
from pcfzeros.errors import (ConvergenceError, HermiteParameterError,
                             PcfZerosError, StepFailureError)
from test_taylor import _loop_verdict


def test_sqrt_A_branch():
    # on the anti-Stokes direction the root lands in the first quadrant
    s = sqrt_A(0.0, 10.0 * cmath.exp(0.75j * math.pi))
    want = 5.0 * cmath.exp(0.25j * math.pi)
    assert abs(s - want) < 1e-12 * abs(want)
    # beyond the turning point of a = -1 the coefficient is negative
    s2 = sqrt_A(-1.0, -4.0 + 0.0j)
    assert abs(s2 - 1j * math.sqrt(3.0)) < 1e-14
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
    A = -0.25 * z * z - a
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


@pytest.mark.parametrize("a, L", [(math.inf, 10.0), (-math.inf, 10.0),
                                  (math.nan, 10.0), (2.3, math.inf),
                                  (2.3, math.nan)])
def test_run_chain_rejects_non_finite_input(a, L):
    with pytest.raises(ValueError, match="finite"):
        run_chain(a, L)


def _refinement_must_not_run(*args):
    raise AssertionError("refine_first_zero ran")


def test_run_chain_rejects_domain_over_zero_cap(monkeypatch):
    # checked before any zero is refined: at L = 1e5 the first-zero
    # refinement alone would integrate out to |z| ~ 1.4e5
    monkeypatch.setattr(chain, "refine_first_zero", _refinement_must_not_run)
    for a, L in ((1.0, 1e5), (-1.7, 1e5), (20.5, 7927.0)):
        assert max_zero_index(a, L) > MAX_ZEROS
        with pytest.raises(ValueError, match=str(MAX_ZEROS)):
            run_chain(a, L)
    # a domain at the cap gets past the check
    assert max_zero_index(1.0, 7926.0) <= MAX_ZEROS
    with pytest.raises(AssertionError, match="refine_first_zero ran"):
        run_chain(1.0, 7926.0)


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
        y, yp, _ = taylor.propagate(a, anchor, 0j, 1.0 + 0j, [rec.z],
                                    DEFAULT_CONFIG.taylor_order)
        want.append(abs(y / yp) / abs(rec.z))
    fallbacks = []
    propagate = taylor.propagate

    def spy(a, z0, y0, y1, waypoints, order):
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


def _hop_oracle(a, z_prev, seed, cfg, handed_off):
    """refine_from_previous as first written, on the public pieces: one
    `taylor.step` and one `fixed_point_T` per iteration.  Appends to
    handed_off the step of each iteration whose first try the hop must
    hand to `taylor.step`: one failing the tail test of the plain-loop
    kernel oracle."""
    state = taylor.derivatives_at(a, z_prev, 0j, 1.0 + 0j, cfg.taylor_order)
    z = complex(seed)
    deltas = []
    for it in range(1, MAX_INNER_ITERS + 1):
        h = z - z_prev
        if not _loop_verdict(state.derivs, h)[2]:
            handed_off.append(h)
        y, yp = taylor.step(state, h)
        if yp == 0:
            raise ConvergenceError(f"U' vanished near z={z}")
        znew = fixed_point_T(a, z, y / yp)
        delta = abs(znew - z) / abs(z)
        deltas.append(delta)
        z = znew
        if delta <= cfg.eps:
            return z, it, tuple(deltas)
    raise ConvergenceError(
        f"inner iteration did not converge near z={seed} (a={a})")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PcfZerosError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("a, L", [(-30.2, 60.0), (20.5, 50.0), (-1.7, 60.0)])
def test_refine_from_previous_matches_step_oracle(a, L, monkeypatch):
    # the hop takes the kernel's first try when its tail test passes:
    # z, iterations and deltas must be identical, and it must hand to
    # taylor.step exactly the steps whose first try the oracle rejects
    cfg = ChainConfig()
    zeros = [r.z for r in run_chain(a, L)]
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(args)
            return fn(*args)
        return wrapper
    rejected = 0
    for i, z_prev in enumerate(zeros):
        seed = displace(a, z_prev)
        # every fifth hop also from a seed beyond h_max, whose first try
        # fails the tail test: it goes through taylor.step
        far = z_prev + 1.5 * taylor.h_max(a, z_prev) * (
            (seed - z_prev) / abs(seed - z_prev))
        for s in ((seed, far) if i % 5 == 0 else (seed,)):
            handed_off = []
            want = _outcome(_hop_oracle, a, z_prev, s, cfg, handed_off)
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(taylor, "step", counted(taylor.step))
                got = _outcome(refine_from_previous, a, z_prev, s, cfg)
            assert got == want, (z_prev, s)
            assert [h for _, h in calls] == handed_off, (z_prev, s)
            assert handed_off or s is not far
            rejected += len(handed_off)
    assert rejected >= len(zeros) // 5


def test_deltas_shrink_quartically_fast():
    # the hops of the chain: from each zero to the next one inward
    cfg = ChainConfig()
    zeros = [r.z for r in run_chain(-3.2, 15.0, cfg)]
    seen = 0
    for z_prev, z_next in zip(zeros, zeros[1:]):
        z, _, deltas = refine_from_previous(-3.2, z_prev,
                                            displace(-3.2, z_prev), cfg)
        assert z == z_next
        d = [x for x in deltas if x > 0]
        if len(d) >= 2 and d[0] > 1e-10:
            seen += 1
            assert d[1] < d[0]
    assert seen > 0

"""Zero chains: seeding, refinement, walking, verification."""
import cmath
import dataclasses
import functools
import math
import pickle

import pytest

import pcfzeros
from pcfzeros import chain, cli, pcf, taylor
from pcfzeros.chain import (FIRST_ZERO_ITERS, MAX_INNER_ITERS, MAX_ZEROS,
                            ZeroRecord, displace, first_zero_estimate,
                            fixed_point_T, is_hermite, max_zero_index,
                            refine_first_zero, refine_from_previous,
                            run_chain, sqrt_A, verify_zeros)
from pcfzeros.config import (DEFAULT_CONFIG, DELTA, EPS, LG_ORDER,
                             TAYLOR_ORDER, Z_MAX)
from pcfzeros.errors import (ConvergenceError, HermiteParameterError,
                             PcfZerosError, RegionError,
                             StepFailureError, TurningPointError)
from pcfzeros.scaled import ScaledValue
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


def test_sqrt_A_raises_at_a_turning_point():
    # A = -(-2)^2/4 + 1 is exactly 0
    with pytest.raises(TurningPointError):
        sqrt_A(-1.0, -2.0 + 0.0j)


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


def test_fixed_point_arctan_singularity():
    # w Q = i, where atan has its pole
    a, z = 2.3, -5.0 + 5.0j
    with pytest.raises(ConvergenceError, match="arctan singularity"):
        fixed_point_T(a, z, 1j / sqrt_A(a, z))


def test_is_hermite():
    assert is_hermite(-0.5)
    assert is_hermite(-2.5)
    assert is_hermite(-9.5)
    assert is_hermite(-1.5 + 1e-13)
    assert is_hermite(-(2.0 ** 51 + 0.5))
    assert not is_hermite(0.5)  # k = 0 is not an excluded case
    assert not is_hermite(-2.5 + 1e-6)
    assert not is_hermite(1.5)
    # past 2^53 no double is a half-integer; 0.5 - k rounds the half away
    assert not is_hermite(-2.0 ** 53)
    assert not is_hermite(-1e18)


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


# the first double L at a = 0 whose corner string index reaches
# MAX_ZEROS + 1, so that floor of it exceeds the cap
_L_PAST_CAP = 7926.655090627919


@pytest.mark.parametrize("a, L", [
    pytest.param(-1.7, 1e200, id="1e+200"),
    pytest.param(-1.7, math.inf, id="inf"),
    pytest.param(0.0, _L_PAST_CAP, id="first-past-cap")])
def test_index_overflow_raises_the_cap_error(a, L):
    # each entry point raises run_chain's ValueError, also where L*L
    # overflows to inf, instead of an OverflowError from round or floor
    for f in (first_zero_estimate, max_zero_index):
        with pytest.raises(ValueError, match=str(MAX_ZEROS)):
            f(a, L)
    if L == _L_PAST_CAP:
        # the L just below is at the cap and gets through both
        below = math.nextafter(L, 0.0)
        assert max_zero_index(a, below) == MAX_ZEROS
        assert first_zero_estimate(a, below)[0] == MAX_ZEROS + 1


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
    for L in (0.0, 2.0):
        with pytest.raises(ValueError, match="L must exceed 2"):
            run_chain(1.0, L)


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
    for a, L in ((1.0, 1e5), (-1.7, 1e5), (20.5, 7927.0), (-1e18, 10.0)):
        with pytest.raises(ValueError, match=str(MAX_ZEROS)):
            max_zero_index(a, L)
        with pytest.raises(ValueError, match=str(MAX_ZEROS)):
            run_chain(a, L)
    # L*L overflows to inf here; the check still raises its ValueError
    with pytest.raises(ValueError, match=str(MAX_ZEROS)):
        run_chain(-1.7, 1e200)
    # a domain at the cap gets past the check
    assert max_zero_index(1.0, 7926.0) <= MAX_ZEROS
    with pytest.raises(AssertionError, match="refine_first_zero ran"):
        run_chain(1.0, 7926.0)


@pytest.mark.parametrize("a, L, exc, message", [
    (math.nan, 10.0, ValueError, "a=nan and L=10.0 must be finite"),
    (-2.5, 10.0, HermiteParameterError,
     "a=-2.5 is a Hermite case -k+1/2; the zero strings degenerate"),
    (1.0, 2.0, ValueError, "L must exceed 2"),
    # past the zero cap too, but L is checked first
    (1e8, 1.5, ValueError, "L must exceed 2"),
    (0.0, 8000.0, ValueError,
     f"a=0.0, L=8000.0 holds more than {MAX_ZEROS} zeros"),
    (-1.7, 1e200, ValueError,
     f"a=-1.7, L=1e+200 holds more than {MAX_ZEROS} zeros")])
def test_run_chain_input_errors(a, L, exc, message, monkeypatch):
    # each invalid input raises its own type and message, in this order
    # of checks, before any zero is refined
    monkeypatch.setattr(chain, "refine_first_zero", _refinement_must_not_run)
    with pytest.raises(exc) as info:
        run_chain(a, L)
    assert type(info.value) is exc
    assert str(info.value) == message


def test_run_chain_large_a_first_estimate_leaves_the_region():
    # at a = 1e7 the first-zero estimate lies at z ~ -16985+0.0005i, past
    # Z_MAX; the first evaluate of the first-zero refinement raises, before
    # any zero is computed.  ROADMAP item 5 may define an empty result for
    # such a box instead
    _, z_est = first_zero_estimate(1e7, 3.0)
    assert abs(z_est) > Z_MAX
    with pytest.raises(RegionError, match="evaluation region"):
        run_chain(1e7, 3.0)


class _Stepped(Exception):
    pass


def test_accepted_box_reaches_the_origin_route(monkeypatch):
    # a box past the count table that the zero cap admits: its first-zero
    # refinement evaluates at |z| ~ sqrt(2) L by the origin route, about
    # 1.3M Taylor steps, inside the evaluation region; the first
    # evaluation gets as far as stepping (stubbed), not to a RegionError
    def stepped(*args):
        raise _Stepped
    monkeypatch.setattr(taylor, "propagate", stepped)
    assert max_zero_index(2.3, 2000.0) <= MAX_ZEROS
    with pytest.raises(_Stepped):
        run_chain(2.3, 2000.0)


def test_walk_stops_at_the_zero_cap(monkeypatch):
    # a walk whose end rule never holds raises once it holds MAX_ZEROS
    z0 = run_chain(-1.7, 12.0)[0].z
    monkeypatch.setattr(chain, "MAX_ZEROS", 3)
    with pytest.raises(ConvergenceError, match="zero cap exceeded"):
        chain._walk(-1.7, z0, -1, lambda z: False)


@pytest.mark.parametrize("a", [0.0, -0.05, -0.3])
def test_run_chain_small_a_ends_at_the_turning_point(a):
    # these strings end off the real axis, next to the turning point
    # -2 sqrt(-a); the inward walk ends there, not by the delta strip
    mpmath = pytest.importorskip("mpmath")
    zeros = run_chain(a, 9.0)
    assert len(zeros) == 12
    with mpmath.workdps(40):
        for rec in zeros:
            want = complex(mpmath.findroot(lambda t: mpmath.pcfu(a, t),
                                           mpmath.mpc(rec.z)))
            assert abs(rec.z - want) <= 1e-13 * abs(want), (a, rec)


@pytest.mark.parametrize("a", [-30.2, -20.0, -13.1])
def test_count_never_drops_as_the_box_grows(a):
    # near L = 2 the first zero refines onto a real zero, whose imaginary
    # part is rounding noise of either sign, or onto a real zero inward
    # of the string's end; neither may change which zeros are reported
    counts = [len(run_chain(a, 2.01 + 0.25 * k)) for k in range(16)]
    assert counts == sorted(counts), counts
    mpmath = pytest.importorskip("mpmath")
    zeros = run_chain(a, 2.5)
    assert zeros
    with mpmath.workdps(40):
        for rec in zeros:
            want = complex(mpmath.findroot(lambda t: mpmath.pcfu(a, t),
                                           mpmath.mpc(rec.z)))
            assert abs(rec.z - want) <= 1e-13 * abs(want), (a, rec)


# the first, middle and last three zeros of four table rows are held to
# 1e-13 of their mpmath polish; the chain's count of each row fixes
# which zeros those are
_GATE_ROWS = {(-1.7, 60.0): 573, (2.3, 50.0): 398, (20.5, 10.0): 21,
              (-30.2, 12.0): 32}
# mpmath distances of the zeros over the bound: all of 20.5/10, whose
# first zero refines on wrong origin-route values and carries its error
# down the chain, and the last three of two long rows, from error that
# builds up hop by hop toward the string's end
_GATE_OVER = {
    (20.5, 10.0, 0): 5.0e-12, (20.5, 10.0, 1): 5.2e-12,
    (20.5, 10.0, 2): 5.4e-12, (20.5, 10.0, 9): 7.7e-12,
    (20.5, 10.0, 10): 8.2e-12, (20.5, 10.0, 11): 8.8e-12,
    (20.5, 10.0, 18): 1.8e-11, (20.5, 10.0, 19): 2.3e-11,
    (20.5, 10.0, 20): 3.2e-11,
    (2.3, 50.0, 395): 8.7e-13, (2.3, 50.0, 396): 1.2e-12,
    (2.3, 50.0, 397): 2.2e-12,
    (-1.7, 60.0, 570): 3.7e-13, (-1.7, 60.0, 571): 6.5e-13,
    (-1.7, 60.0, 572): 3.5e-12}


def _gate_params():
    for (a, L), n in _GATE_ROWS.items():
        m = n // 2
        for k in (0, 1, 2, m - 1, m, m + 1, n - 3, n - 2, n - 1):
            dist = _GATE_OVER.get((a, L, k))
            marks = () if dist is None else pytest.mark.xfail(
                strict=True, raises=AssertionError,
                reason=f"mpmath distance {dist:.1e}")
            yield pytest.param(a, L, k, marks=marks, id=f"{a}/{L:g}-{k}")


@functools.lru_cache(maxsize=len(_GATE_ROWS))
def _row_zeros(a, L):
    return tuple(rec.z for rec in run_chain(a, L))


@pytest.mark.parametrize("a, L, k", list(_gate_params()))
def test_zeros_against_mpmath(a, L, k):
    # relative distance to mpmath.findroot on mpmath.pcfu at 30 digits
    mpmath = pytest.importorskip("mpmath")
    z = _row_zeros(a, L)[k]
    with mpmath.workdps(30):
        want = complex(mpmath.findroot(lambda t: mpmath.pcfu(a, t),
                                       mpmath.mpc(z)))
    assert abs(z - want) <= 1e-13 * abs(want), (z, want)


# the string's real terminal zero, mpmath.findroot on mpmath.pcfu at 30
# digits, and where the inward walk computes it, below the real axis by
# more than `_in_domain`'s 1e-9, which drops it (42 and 104 zeros)
_REAL_ENDS = {(-13.1, 15.0): (-6.289975328817268,
                              "-6.289975303920777-5.5e-8i"),
              (-9.66, 25.0): (-6.239646371085284,
                              "-6.2396491281664375-5.3e-6i")}


@pytest.mark.parametrize("a, L", [
    pytest.param(a, L, id=f"{a}/{L:g}", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason=f"the walk ends at {walk}, against {x}, and it is dropped"))
    for (a, L), (x, walk) in _REAL_ENDS.items()])
def test_real_string_end_is_reported(a, L):
    x = _REAL_ENDS[a, L][0]
    assert min(abs(rec.z - x) for rec in run_chain(a, L)) <= 1e-13 * abs(x)


@pytest.mark.parametrize("a", [2.3, 0.0, -1.7, -30.2])
def test_near_turning_point(a):
    # the turning point itself, where A vanishes, counts as near; a seed
    # several half-periods up the string does not
    z_t = -2.0 * cmath.sqrt(-a).conjugate()
    assert -0.25 * z_t * z_t - a == pytest.approx(0.0, abs=1e-12)
    assert chain._near_turning_point(a, z_t)
    assert not chain._near_turning_point(a, z_t - 5.0 + 5.0j)


def test_failing_outward_hop_raises(monkeypatch):
    # a hop that fails away from the turning point is not the end of the
    # string, in either direction of the walk
    refine = chain.refine_from_previous

    def failing_outward(a, z_prev, seed):
        if abs(seed - displace(a, z_prev)) > abs(seed - z_prev):
            raise StepFailureError(f"forced at {seed}")
        return refine(a, z_prev, seed)
    monkeypatch.setattr(chain, "refine_from_previous", failing_outward)
    with pytest.raises(StepFailureError, match="forced"):
        run_chain(2.3, 10.0)


def test_hop_that_does_not_advance_raises(monkeypatch):
    # a hop back onto the zero it started from is no progress, and away
    # from the turning point it is not the end of the string either
    monkeypatch.setattr(chain, "refine_from_previous",
                        lambda a, z_prev, seed: (z_prev, 1, ()))
    with pytest.raises(ConvergenceError, match="stalled or reversed"):
        run_chain(2.3, 10.0)


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
    step = taylor.step

    def spy(*args):
        fallbacks.append(args[-1])
        return step(*args)
    monkeypatch.setattr(taylor, "step", spy)
    checked = verify_zeros(a, zeros)
    # the batch takes almost every zero; the rest go the hop's way, whose
    # first try fails as the batch's did and is handed to taylor.step
    assert 1 <= len(fallbacks) <= 10
    assert [r.z for r in checked] == [r.z for r in zeros]
    assert [r.index for r in checked] == [r.index for r in zeros]
    for rec, est in zip(checked, want):
        assert abs(rec.est_rel_error - est) <= 1e-15


def test_zero_record_contract():
    rec = ZeroRecord(3, -4.5 + 2.25j, 1e-15, 2)
    assert rec == ZeroRecord(3, -4.5 + 2.25j, 1e-15, 2)
    assert rec != dataclasses.replace(rec, est_rel_error=2e-15)
    moved = dataclasses.replace(rec, z=rec.z * (1.0 + 1e-12))
    assert (moved.index, moved.est_rel_error, moved.inner_iterations) == (
        3, 1e-15, 2) and moved.z != rec.z
    assert pickle.loads(pickle.dumps(rec)) == rec
    # a record holds its four fields and nothing else
    with pytest.raises(AttributeError):
        rec.note = "x"


def test_verify_zeros_returns_new_records():
    for zeros in (run_chain(2.3, 10.0), run_chain(2.3, 10.0)[:1]):
        before = [repr(r) for r in zeros]
        checked = verify_zeros(2.3, zeros)
        assert [repr(r) for r in zeros] == before
        assert not any(c is r for c, r in zip(checked, zeros))
        assert all(math.isfinite(r.est_rel_error) for r in checked)


def test_verify_zeros_short_lists():
    # a lone zero has no neighbor to anchor at: absolute evaluation
    zeros = run_chain(2.3, 10.0)
    (rec,) = verify_zeros(2.3, zeros[:1])
    assert rec.est_rel_error < 1e-11
    assert verify_zeros(2.3, []) == []


def test_lone_zero_u_prime_zero_is_nan(monkeypatch):
    # the lone zero is checked through the first-zero refinement's
    # quotient, whose vanishing U' is a failure, not a finite estimate
    zeros = run_chain(2.3, 10.0)[:1]
    evaluate = pcf.evaluate

    def flat(a, z):
        return dataclasses.replace(evaluate(a, z),
                                   Uprime=ScaledValue(0j, 0.0))
    monkeypatch.setattr(pcf, "evaluate", flat)
    (rec,) = verify_zeros(2.3, zeros)
    assert math.isnan(rec.est_rel_error)


def test_propagated_quotient_u_prime_zero_is_convergence_error(monkeypatch):
    # data (U, U') = (1, 0) at the anchor instead of (0, 1)
    derivatives_at = taylor.derivatives_at
    monkeypatch.setattr(taylor, "derivatives_at",
                        lambda a, z0, y0, y1: derivatives_at(a, z0, y1, y0))
    anchor = -5.0 + 5.0j
    quotient = chain._propagated_quotient(2.3, anchor)
    with pytest.raises(ConvergenceError, match="U' vanished"):
        quotient(anchor)


def test_verify_zeros_step_failure_is_nan(monkeypatch):
    zeros = run_chain(2.3, 10.0)

    def failing(*args, **kwargs):
        raise StepFailureError("forced")
    monkeypatch.setattr(taylor, "step", failing)
    ests = [r.est_rel_error for r in verify_zeros(2.3, zeros)]
    # only the zeros the batch rejects are stepped one by one
    assert 1 <= sum(map(math.isnan, ests)) < len(ests)


@pytest.mark.parametrize("n", [1, 5])
def test_verify_zeros_malformed_record_raises(n):
    zeros = run_chain(2.3, 10.0)[:n]
    zeros[-1] = ZeroRecord(index=n - 1, z=None)
    with pytest.raises(TypeError):
        verify_zeros(2.3, zeros)


def test_first_zero_u_prime_zero_is_convergence_error(monkeypatch, capsys):
    # a vanishing U' is a typed failure of the refinement, not the bare
    # ZeroDivisionError of the ScaledValue quotient, so the command line
    # reports it with status 2 instead of a traceback
    evaluate = pcf.evaluate

    def flat(a, z):
        return dataclasses.replace(evaluate(a, z),
                                   Uprime=ScaledValue(0j, 0.0))
    monkeypatch.setattr(pcf, "evaluate", flat)
    _, z_est = first_zero_estimate(2.3, 10.0)
    with pytest.raises(ConvergenceError, match="U' vanished"):
        refine_first_zero(2.3, z_est)
    assert cli.main(["--a", "2.3", "--L", "10"]) == 2
    assert "U' vanished" in capsys.readouterr().err


def test_first_zero_stall_exit():
    # at 20.5/10 the absolute values reach their noise floor before EPS:
    # the loop ends on the stall exit, with a last step above EPS
    _, z_est = first_zero_estimate(20.5, 10.0)
    z, iters, deltas = refine_first_zero(20.5, z_est)
    assert iters == len(deltas) == 20
    assert EPS < deltas[-1] < 3e-8
    assert deltas[-1] > 0.25 * deltas[-2]
    assert all(d > EPS for d in deltas)


def test_first_zero_budget_exit(monkeypatch):
    # at 14.02/25 the seed lands mid-gap and the iterate walks the string
    # for the whole budget
    calls = []
    evaluate = pcf.evaluate

    def counted(a, z):
        calls.append(z)
        return evaluate(a, z)
    monkeypatch.setattr(pcf, "evaluate", counted)
    _, z_est = first_zero_estimate(14.02, 25.0)
    with pytest.raises(ConvergenceError,
                       match="first-zero refinement did not converge"):
        refine_first_zero(14.02, z_est)
    assert len(calls) == FIRST_ZERO_ITERS == 80


def test_hop_has_no_stall_exit():
    # past the last zero of 20.5/10 the hop's iterate leaves the string
    # and its steps stop shrinking: the hop raises, and the walk ends at
    # the turning point; under the first-zero floor it would stop on a
    # point outside the box, which only the domain filter drops
    a = 20.5
    z_prev = run_chain(a, 10.0)[-1].z
    seed = displace(a, z_prev)
    with pytest.raises(ConvergenceError,
                       match="inner iteration did not converge from"):
        refine_from_previous(a, z_prev, seed)
    z, iters, deltas = chain._refine(a, seed,
                                     chain._propagated_quotient(a, z_prev),
                                     MAX_INNER_ITERS, "hop", 3e-8)
    assert iters < MAX_INNER_ITERS and deltas[-1] > EPS
    assert z.real > 0.0


def _one_step_rule(a, z1, d):
    """The hop's stop rule after its first step, of size d, to z1: the
    fourth-order method's error term |A'(z1)| d^4/12, A' = -z/2, within
    the unit roundoff of z1, and the phase step |sqrt(A(z1))| d at most
    1/8, so that the terms after it are negligible."""
    return (abs(z1) / 2.0 * d ** 4 / 12.0 <= 2.0 ** -53 * abs(z1)
            and abs(sqrt_A(a, z1)) * d <= 0.125)


def test_refine_from_previous_is_fast():
    # seeding from the displacement of a converged zero takes few steps,
    # and the hop ends on a step of at most EPS or, after its first step,
    # on that step's error term
    zeros = run_chain(-3.2, 15.0)
    anchor = zeros[1]
    seed = displace(-3.2, anchor.z)
    z, iters, deltas = refine_from_previous(-3.2, anchor.z, seed)
    assert iters <= 6
    assert deltas[-1] <= EPS or (
        iters == 1 and _one_step_rule(-3.2, z, deltas[0] * abs(seed)))
    # it converged to the neighboring zero, one half-period inward
    assert abs(z - zeros[2].z) < 1e-10 or abs(z - zeros[0].z) < 1e-10


def _hop_oracle(a, z_prev, seed, handed_off):
    """refine_from_previous on the public pieces: one `taylor.step` and
    one `fixed_point_T` per iteration, until a step of at most EPS or a
    first step that meets `_one_step_rule`.  Appends to handed_off the
    step of each iteration whose first try the hop must hand to
    `taylor.step`: one failing the tail test of the plain-loop kernel
    oracle."""
    c = taylor.derivatives_at(a, z_prev, 0j, 1.0 + 0j)
    z = complex(seed)
    deltas = []
    for it in range(1, MAX_INNER_ITERS + 1):
        h = z - z_prev
        if not _loop_verdict(c, h)[2]:
            handed_off.append(h)
        y, yp = taylor.step(a, z_prev, c, h)
        if yp == 0:
            raise ConvergenceError(f"U' vanished near z={z}")
        znew = fixed_point_T(a, z, y / yp)
        delta = abs(znew - z) / abs(z)
        deltas.append(delta)
        if delta <= EPS or (it == 1 and _one_step_rule(a, znew,
                                                      abs(znew - z))):
            return znew, it, tuple(deltas)
        z = znew
    raise ConvergenceError(
        f"inner iteration did not converge from {seed} (a={a})")


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
    zeros = [r.z for r in run_chain(a, L)]
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(args)
            return fn(*args)
        return wrapper
    rejected = 0
    one_step = 0
    for i, z_prev in enumerate(zeros):
        seed = displace(a, z_prev)
        # every fifth hop also from a seed beyond h_max, whose first try
        # fails the tail test: it goes through taylor.step
        far = z_prev + 1.5 * taylor.h_max(a, z_prev) * (
            (seed - z_prev) / abs(seed - z_prev))
        for s in ((seed, far) if i % 5 == 0 else (seed,)):
            handed_off = []
            want = _outcome(_hop_oracle, a, z_prev, s, handed_off)
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(taylor, "step", counted(taylor.step))
                got = _outcome(refine_from_previous, a, z_prev, s)
            assert got == want, (z_prev, s)
            assert [args[-1] for args in calls] == handed_off, (z_prev, s)
            assert handed_off or s is not far
            rejected += len(handed_off)
            if len(got) == 3 and got[1] == 1 and got[2][0] > EPS:
                one_step += 1
    assert rejected >= len(zeros) // 5
    # the first-step rule, not the EPS test, ends most of these hops
    assert one_step >= len(zeros) // 2


def test_deltas_shrink_quartically_fast():
    # the hops of the chain, from each zero to the next one inward: the
    # step after a step of size d is that step's error term, |z| d^4/24,
    # or d^4/24 relative; a hop stops after its first step where that
    # term is below the unit roundoff, and otherwise iterates to EPS
    one_step = quartic = 0
    for a, L in [(-3.2, 15.0), (-1.7, 60.0)]:
        zeros = [r.z for r in run_chain(a, L)]
        for z_prev, z_next in zip(zeros, zeros[1:]):
            seed = displace(a, z_prev)
            z, iters, deltas = refine_from_previous(a, z_prev, seed)
            assert z == z_next
            assert iters == len(deltas)
            d = deltas[0] * abs(seed)
            if iters == 1:
                one_step += deltas[0] > EPS
                assert deltas[0] <= EPS or _one_step_rule(a, z, d)
                continue
            assert deltas[-1] <= EPS
            predicted = d ** 4 / 24.0
            if 1e-13 < predicted < 1e-3:
                quartic += 1
                assert deltas[1] == pytest.approx(predicted, rel=0.02)
    assert quartic > 0 and one_step > 0


def test_hop_error_constant():
    # e_1 = C e_0^4 at seeds offset from known zeros, C = |A'(z)|/12 =
    # |z|/24: offsets d with |sqrt(A)| d = 1/20, away from the string's
    # end, where the next term of the error series is about 0.25% of it
    fits = 0
    for a, L in [(-3.2, 15.0), (20.5, 10.0), (-30.2, 12.0)]:
        zeros = [r.z for r in run_chain(a, L)]
        for i in range(1, len(zeros) - 2, 3):
            z_prev, z = zeros[i - 1], zeros[i]
            quotient = chain._propagated_quotient(a, z_prev)
            d = 0.05 / abs(sqrt_A(a, z))
            for direction in (0.6 + 0.8j, 1j, -1.0):
                seed = z + d * direction
                z1 = fixed_point_T(a, seed, quotient(seed))
                C = abs(z1 - z) / d ** 4
                assert C == pytest.approx(abs(z) / 24.0, rel=0.02), (a, L, i)
                fits += 1
    assert fits >= 30


def test_one_step_rule_needs_a_small_phase_step():
    # the stop decision alone, on a quotient U/U' = z - zs: its first
    # step is about the seed's offset, 2e-4, whose d^4/24 is below
    # 2^-53, and the loop stops after it where |sqrt(A)| d <= 1/8
    # (|zs| = 200) but not where the phase step is larger (|zs| = 2000,
    # inside Z_MAX), and never for a quotient with a noise floor, as the
    # first zero's is
    for r, floor, one_step in ((200.0, 0.0, True), (2000.0, 0.0, False),
                               (200.0, 3e-8, False)):
        zs = r * cmath.exp(0.75j * math.pi)
        _, iters, deltas = chain._refine(2.3, zs + 2e-4, lambda z: z - zs,
                                         MAX_INNER_ITERS, "test", floor)
        assert (iters == 1) == one_step, (r, floor, deltas)


@pytest.mark.parametrize("a, L", [(-3.2, 15.0), (-1.7, 60.0), (20.5, 50.0),
                                  (-30.2, 60.0)])
def test_one_step_hop_is_within_its_error_term(a, L):
    # each hop's zero against the zero reached by iterating on to a step
    # of at most EPS: apart by at most the error term |z| d^4/24 of the
    # hop's last step d, or by rounding
    zeros = [r.z for r in run_chain(a, L)]
    for z_prev in zeros[:-1]:
        seed = displace(a, z_prev)
        z, iters, deltas = refine_from_previous(a, z_prev, seed)
        quotient = chain._propagated_quotient(a, z_prev)
        z_on = z
        for _ in range(MAX_INNER_ITERS):
            znew = fixed_point_T(a, z_on, quotient(z_on))
            delta = abs(znew - z_on) / abs(z_on)
            z_on = znew
            if delta <= EPS:
                break
        else:
            pytest.fail(f"no convergence past {z}")
        d = deltas[-1] * abs(z)
        bound = max(abs(z) * d ** 4 / 24.0, 4.0 * math.ulp(abs(z)))
        assert abs(z - z_on) <= bound, (z_prev, iters, abs(z - z_on), bound)


@pytest.mark.parametrize("a, L", [(2.3, 20.0), (2.3, 50.0), (2.3, 140.0),
                                  (20.5, 10.0), (20.5, 50.0), (20.5, 140.0),
                                  (31.78, 10.0)])
def test_end_of_string_hop_still_raises(a, L):
    # past the last zero the hop's iterate wanders over several steps of
    # 0.1 to 1, then takes one tiny step without converging; the one-step
    # rule looks at the first step only, so the hop raises and the walk
    # ends at the turning point
    z_prev = run_chain(a, L)[-1].z
    seed = displace(a, z_prev)
    assert chain._near_turning_point(a, seed)
    with pytest.raises(ConvergenceError,
                       match="inner iteration did not converge from"):
        refine_from_previous(a, z_prev, seed)


def test_default_config_records_the_constants():
    # a read-only record of the four constants, kept for the benchmark
    assert pcfzeros.DEFAULT_CONFIG is DEFAULT_CONFIG
    assert DEFAULT_CONFIG._asdict() == {"eps": EPS, "delta": DELTA,
                                        "taylor_order": TAYLOR_ORDER,
                                        "lg_order": LG_ORDER}
    with pytest.raises(AttributeError):
        DEFAULT_CONFIG.eps = 1e-15

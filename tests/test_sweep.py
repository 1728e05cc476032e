"""Parameter sweeps of `run_chain` as a correctness gate.

Every fourth a of the sweep a = -40 + 0.37 i, i = 0..216, none of them a
Hermite a, at L = 6, 13 and 25: each run must raise nothing, report at
most `max_zero_index` zeros, and check every zero to 1e-13.  Past
|a| = 40, a = +-50.3, 100.3, 200.3, 500.3 and 1000.3 at L = 20, 60 and
150 must do the same, and their first, middle and last zeros must lie
within 1e-13 relative Newton distance of mpmath's `pcfu`.
"""
import math

import pytest

from pcfzeros.chain import max_zero_index, run_chain, verify_zeros
from pcfzeros.errors import ConvergenceError

SWEEP_A = [round(-40 + 0.37 * i, 10) for i in range(0, 217, 4)]
SWEEP_L = (6.0, 13.0, 25.0)
# runs whose first-zero refinement does not converge: at L = 25 with
# |a| = 11.9-17.8 and at L = 13 with a >= 34, its iterates reach the
# band of a and |z| where the origin route's values are wrong; at L = 6
# and a = 39.92 the seed lies at Re z > 0
NO_FIRST_ZERO = (
    {(a, 25.0) for a in (-17.8, -16.32, -14.84, -13.36, -11.88,
                         11.8, 13.28, 14.76, 16.24, 17.72)}
    | {(a, 13.0) for a in (34.0, 36.96, 38.44, 39.92)}
    | {(39.92, 6.0)})


def _params():
    for L in SWEEP_L:
        for a in SWEEP_A:
            marks = pytest.mark.xfail(
                strict=True, raises=ConvergenceError,
                reason="first-zero refinement did not converge"
            ) if (a, L) in NO_FIRST_ZERO else ()
            yield pytest.param(a, L, marks=marks)


@pytest.mark.parametrize("a, L", list(_params()))
@pytest.mark.filterwarnings("ignore::pcfzeros.errors.TruncationWarning")
def test_sweep_run(a, L):
    zeros = verify_zeros(a, run_chain(a, L))
    assert len(zeros) <= max_zero_index(a, L)
    ests = [rec.est_rel_error for rec in zeros]
    assert all(math.isfinite(e) and e <= 1e-13 for e in ests), max(ests)


LARGE_A = [sign * m for sign in (1, -1)
           for m in (50.3, 100.3, 200.3, 500.3, 1000.3)]
LARGE_L = (20.0, 60.0, 150.0)
# runs whose first-zero refinement does not converge: the estimate sits
# tens of zeros from the index it claims, mid-gap, and each iteration
# moves about one zero spacing (ROADMAP items 3 and 13)
LARGE_NO_FIRST_ZERO = (
    {(a, L) for a in (100.3, 200.3, 500.3, 1000.3) for L in LARGE_L}
    | {(-500.3, 20.0), (-1000.3, 20.0), (-1000.3, 60.0)})
# runs whose last zero, carried inward hop by hop, drifts off mpmath past
# 1e-13 (the distance given) while `verify_zeros`, which measures the
# chain's self-consistency, reads about 1e-16; `pcf.evaluate` there agrees
# with mpmath, so the drift is the hop's (ROADMAP item 3)
LARGE_DRIFT = {(50.3, 60.0): 1.5e-13, (50.3, 150.0): 1.0e-12,
               (-50.3, 60.0): 1.2e-13, (-50.3, 150.0): 6.5e-13,
               (-100.3, 150.0): 8.5e-13, (-200.3, 150.0): 2.2e-13,
               (-500.3, 150.0): 1.7e-13}


def _large_params():
    for a in LARGE_A:
        for L in LARGE_L:
            if (a, L) in LARGE_NO_FIRST_ZERO:
                marks = pytest.mark.xfail(
                    strict=True, raises=ConvergenceError,
                    reason="first-zero refinement did not converge")
            elif (a, L) in LARGE_DRIFT:
                marks = pytest.mark.xfail(
                    strict=True, raises=AssertionError,
                    reason=f"last zero {LARGE_DRIFT[a, L]:.1e} off mpmath")
            else:
                marks = ()
            yield pytest.param(a, L, marks=marks)


@pytest.mark.parametrize("a, L", list(_large_params()))
@pytest.mark.filterwarnings("ignore::pcfzeros.errors.TruncationWarning")
def test_large_a_sweep_run(a, L):
    mpmath = pytest.importorskip("mpmath")
    zeros = verify_zeros(a, run_chain(a, L))
    assert zeros and len(zeros) <= max_zero_index(a, L)
    ests = [rec.est_rel_error for rec in zeros]
    assert all(math.isfinite(e) and e <= 1e-13 for e in ests), max(ests)
    # |U/U'|/|z| at 30 digits, with U'(a, z) = z U(a, z)/2 - U(a-1, z)
    with mpmath.workdps(30):
        for rec in (zeros[0], zeros[len(zeros) // 2], zeros[-1]):
            z = mpmath.mpc(rec.z)
            u = mpmath.pcfu(a, z)
            dist = abs(u / (z * u / 2 - mpmath.pcfu(a - 1, z))) / abs(z)
            assert dist <= 1e-13, (rec.index, float(dist))

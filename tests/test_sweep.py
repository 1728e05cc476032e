"""A thinned parameter sweep of `run_chain` as a correctness gate.

Every fourth a of the sweep a = -40 + 0.37 i, i = 0..216, none of them a
Hermite a, at L = 6, 13 and 25: each run must raise nothing, report at
most `max_zero_index` zeros, and check every zero to 1e-13.
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

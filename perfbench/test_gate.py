"""The benchmark's correctness gate marks wrong results as failed.

    python3 -m pytest perfbench -q
"""
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gate  # noqa: E402
from pcfzeros import chain, pcf  # noqa: E402


def verified(a, L):
    return chain.verify_zeros(a, chain.run_chain(a, L))


def test_truncated_zero_list_fails():
    a, L, want = gate.TABLE[0]
    ref = gate.load_reference()[gate.row_key(a, L)]
    zeros = verified(a, L)
    assert gate.check_row(want, zeros, ref) == ([], False)

    # one zero short: failed, but within criterion 1's tolerance
    reasons, hard = gate.check_row(want, zeros[:-1], ref)
    assert reasons == [f"count {want - 1} != paper {want}"] and not hard
    # half the list: reference zeros go missing as well
    reasons, hard = gate.check_row(want, zeros[:want // 2], ref)
    assert len(reasons) == 2 and hard


def test_moved_zero_fails():
    a, L, want = gate.TABLE[0]
    ref = gate.load_reference()[gate.row_key(a, L)]
    zeros = verified(a, L)
    i = next(k for k, r in enumerate(zeros) if r.z == ref[0])
    zeros[i] = replace(zeros[i], z=zeros[i].z * (1.0 + 1e-12))
    reasons, hard = gate.check_row(want, zeros, ref)
    assert reasons == ["1 reference zeros not matched to 1e-13"] and hard


def test_known_table_miss_is_a_soft_failure():
    a, L, want = next(r for r in gate.TABLE if r[:2] == (-30.2, 12.0))
    ref = gate.load_reference()[gate.row_key(a, L)]
    reasons, hard = gate.check_row(want, verified(a, L), ref)
    assert reasons == [f"count {want + 1} != paper {want}"] and not hard


@pytest.mark.parametrize("a, z", [(20.0, -30.0 + 40.0j),
                                  (-30.2, -10.0 + 12.0j),
                                  (1.3, -5.0 + 7.0j)])
def test_value_off_by_a_factor_fails(a, z):
    v = pcf.evaluate(a, z)
    um = pcf.evaluate(a - 1.0, z).U
    up = pcf.evaluate(a + 1.0, z).U
    assert not gate.point_fails(gate.recurrence_residual(a, z, v, um, up))
    for wrong in (replace(v, U=v.U * 1.0001),
                  replace(v, Uprime=v.Uprime * 1.0001)):
        assert gate.point_fails(gate.recurrence_residual(a, z, wrong, um, up))


def test_run_correct_tolerates_only_soft_failures():
    assert gate.run_correct(600, 6, 0, gate.SOFT_SHARE_EVAL)
    assert not gate.run_correct(600, 7, 0, gate.SOFT_SHARE_EVAL)
    assert gate.run_correct(12, 2, 0, gate.SOFT_SHARE_CHAIN)
    assert not gate.run_correct(12, 1, 1, gate.SOFT_SHARE_CHAIN)


def test_failures_count_operations_not_passes():
    import run
    from workloads import PassResult

    runner = run.Runner("eval-map", 1)
    passes = iter([{7: ("residual", False)},
                   {7: ("residual", False), 9: ("raise", True)},
                   {}])
    runner._run = lambda tracer: PassResult(attempted=1200,
                                            failures=next(passes))
    for _ in range(3):
        runner.run_pass()
    assert (runner.passes, runner.attempted, runner.failed) == (3, 1200, 2)
    assert runner.failures[9][1] and not runner.correct

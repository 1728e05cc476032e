"""Every row of the count table passes the benchmark's correctness gate.

The gate (perfbench/gate.py) matches each row's zeros against the
committed reference zeros to 1e-13 and bounds the verified estimates;
the benchmark applies it on every pass, and this runs it once per row.
"""
import importlib.util
from pathlib import Path

import pytest

from pcfzeros.chain import run_chain, verify_zeros

_GATE = Path(__file__).resolve().parent.parent / "perfbench" / "gate.py"
_spec = importlib.util.spec_from_file_location("perfbench_gate", _GATE)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

REFERENCE = gate.load_reference()
# the one known table miss: 32 zeros against the paper's 31
KNOWN_MISS = (-30.2, 12.0)


@pytest.mark.parametrize("a, L, want", gate.TABLE)
def test_row_passes_the_gate(a, L, want):
    zeros = verify_zeros(a, run_chain(a, L))
    reasons, hard = gate.check_row(want, zeros,
                                   REFERENCE[gate.row_key(a, L)])
    assert not hard, reasons
    if (a, L) == KNOWN_MISS:
        assert reasons == [f"count {want + 1} != paper {want}"]
    else:
        assert reasons == []

"""Correctness gate: decides whether each operation's output is right.

An operation fails when it misses the strict per-operation bar below.
A run is reported as incorrect when its failures exceed what the
acceptance criteria tolerate: any *hard* failure (a raise, a count off by
more than one, an estimate above the bound, a reference zero not
matched), or more soft failures than criterion 1 allows rows off by one
(2 of 12) or criterion 3 allows points above the residual bound (1%).
The one known table miss, a=-30.2 L=12 (32 zeros against the paper's
31), is therefore a failed operation on every pass of ``long-chain``
while the run stays correct.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# the paper's count table, as in tests/test_acceptance.py: (a, L, zeros)
TABLE = [
    (-1.7, 12.0, 23), (-1.7, 60.0, 573), (-1.7, 180.0, 5157),
    (-30.2, 12.0, 31), (-30.2, 60.0, 587), (-30.2, 180.0, 5171),
    (2.3, 10.0, 16), (2.3, 50.0, 398), (2.3, 140.0, 3120),
    (20.5, 10.0, 21), (20.5, 50.0, 407), (20.5, 140.0, 3129),
]

EST_BOUND = 1e-11         # worst verified estimate, criterion 2
ZERO_RTOL = 1e-13         # match against the committed reference zeros
RESIDUAL_BOUND = 5e-13    # recurrence residual, criterion 3
SOFT_SHARE_CHAIN = 2 / 12
SOFT_SHARE_EVAL = 0.01

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def row_key(a: float, L: float) -> str:
    return f"{a}/{L}"


def load_reference(path: Path = REFERENCE_PATH) -> dict[str, np.ndarray]:
    """Reference zeros per row, as complex arrays."""
    raw = json.loads(path.read_text())
    return {key: np.array([complex(re, im) for re, im in zs])
            for key, zs in raw["zeros"].items()}


def check_row(want: int, zeros, reference: np.ndarray):
    """Gate one chain row on its verified ZeroRecords.

    Returns (reasons, hard): the row failed if ``reasons`` is non-empty.
    """
    reasons = []
    hard = False
    if len(zeros) != want:
        reasons.append(f"count {len(zeros)} != paper {want}")
        hard = abs(len(zeros) - want) > 1
    bad = sum(not r.est_rel_error <= EST_BOUND for r in zeros)
    if bad:
        reasons.append(f"{bad} estimates non-finite or above {EST_BOUND:g}")
        hard = True
    got = np.array([r.z for r in zeros])
    unmatched = sum(
        got.size == 0 or np.min(np.abs(got - zr)) > ZERO_RTOL * abs(zr)
        for zr in reference)
    if unmatched:
        reasons.append(f"{unmatched} reference zeros not matched to "
                       f"{ZERO_RTOL:g}")
        hard = True
    return reasons, hard


def recurrence_residual(a: float, z: complex, v, um, up) -> float:
    """Largest relative residual of the parameter relations

        z U(a) - U(a-1) + (a+1/2) U(a+1) = 0
        U'(a) + (z/2) U(a) + (a+1/2) U(a+1) = 0
        U'(a) - (z/2) U(a) + U(a-1) = 0

    each taken relative to its largest term.  ``v`` is the PcfValue at
    a, ``um`` and ``up`` the ScaledValues U(a-1, z) and U(a+1, z).  At
    positive a the largest term is one of the two criterion 3 scales by;
    at negative a the (a+1/2) U(a+1) term can dominate.
    """
    half_zu = v.U * (0.5 * z)
    t_up = up * (a + 0.5)
    worst = -math.inf
    for terms in ((v.U * z, -um, t_up),
                  (v.Uprime, half_zu, t_up),
                  (v.Uprime, -half_zu, um)):
        r = terms[0] + terms[1] + terms[2]
        worst = max(worst, r.log_abs() - max(t.log_abs() for t in terms))
    return math.exp(worst)


def point_fails(residual: float) -> bool:
    return not residual <= RESIDUAL_BOUND


def run_correct(attempted: int, failed: int, hard: int,
                soft_share: float) -> bool:
    return hard == 0 and failed <= soft_share * attempted

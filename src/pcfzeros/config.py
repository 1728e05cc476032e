"""Tolerances and truncation orders shared by the evaluator and the zero
chain, and the size limits they share."""
from __future__ import annotations

import math
from typing import NamedTuple

EPS = 1e-14             # fixed-point relative tolerance
DELTA = 1e-4            # termination distance from the terminal axis
TAYLOR_ORDER = 30       # truncation order of the Taylor steps
LG_ORDER = 12           # truncation order of the LG coefficient tables
U_MIN = 36.0            # smallest u = 2|a| the LG expansions are trusted at

MAX_ZEROS = 10_000_000      # cap on the zeros of one chain
# |a| beyond which `pcf.evaluate` raises RegionError: the zero index
# estimate (L^2/pi - 1/2 + |a|)/2 of `chain.run_chain` exceeds MAX_ZEROS
# past it for every L, so that no box of such an a is accepted
A_MAX = 2 * MAX_ZEROS + 2.5
# |z| beyond which `pcf.evaluate` raises RegionError: the corner modulus
# sqrt(2) L of the largest box `chain.run_chain` accepts (its zero index
# estimate stays within MAX_ZEROS while L^2 < pi A_MAX, at a = 0), with
# 1% to spare for the iterates of the first-zero refinement
Z_MAX = 1.01 * math.sqrt(2.0 * math.pi * A_MAX)


class Settings(NamedTuple):
    """Read-only record of the four constants above."""
    eps: float
    delta: float
    taylor_order: int
    lg_order: int


DEFAULT_CONFIG = Settings(EPS, DELTA, TAYLOR_ORDER, LG_ORDER)

"""Run configuration shared by the evaluator, the zero chain and the CLI,
and the size limits they share."""
from __future__ import annotations

import math
from dataclasses import dataclass

MAX_ZEROS = 10_000_000      # cap on the zeros of one chain
# |z| beyond which `pcf.evaluate` raises RegionError: the corner modulus
# sqrt(2) L of the largest box `chain.run_chain` accepts (its zero index
# estimate stays within MAX_ZEROS while L^2 < pi (2 MAX_ZEROS + 2.5), at
# a = 0), with 1% to spare for the iterates of the first-zero refinement
Z_MAX = 1.01 * math.sqrt(2.0 * math.pi * (2 * MAX_ZEROS + 2.5))


@dataclass(frozen=True)
class ChainConfig:
    """Tolerances and truncation orders for a run."""
    eps: float = 1e-14          # fixed-point relative tolerance
    delta: float = 1e-4         # termination distance from the terminal axis
    taylor_order: int = 30
    lg_order: int = 12          # truncation order of the LG coefficient tables

    def __post_init__(self):
        if not 0.0 < self.eps <= 1e-8:
            raise ValueError("eps must lie in (0, 1e-8]")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.taylor_order < 4:
            raise ValueError("taylor_order must be >= 4")
        if self.lg_order < 1:
            raise ValueError("lg_order must be >= 1")


DEFAULT_CONFIG = ChainConfig()

"""The three workloads and one gated pass over each.

Every workload is a closed loop: one caller, and each call waits for the
previous one.  A pass splits its time into *solve* (the call whose result
a user wants) and *verify* (the independent check of that result):

- chain workloads: ``run_chain`` per row, then ``verify_zeros``;
- ``eval-map``: ``evaluate(a, z)`` per point, then ``evaluate`` at a-1
  and a+1 for the recurrence check.
"""
from __future__ import annotations

import cmath
import math
import statistics
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import gate
from calibrate import Calibrator
from pcfzeros import chain, pcf
from pcfzeros.errors import TruncationWarning

# Small |a|: refine_first_zero evaluates absolute values by integrating
# the ODE from the origin, which dominates the long rows.
ORIGIN_WALK = [row for row in gate.TABLE if row[0] in (-1.7, 2.3)]
# Large |a|: the first zero comes from the LG route in milliseconds and
# the chain hop dominates.  Holds the known miss a=-30.2, L=12.
LONG_CHAIN = [row for row in gate.TABLE if row[0] in (-30.2, 20.5)]

EVAL_POINTS_PER_REGIME = 400
EVAL_BLOCK = 100            # points per calibrated block, about 0.3 s


@dataclass
class PassResult:
    """Timings and gate outcome of one pass.  Times are nominal-machine
    seconds (see calibrate.py); ``scale`` is the pass's median factor
    from raw seconds."""
    scale: float = 1.0
    raw_solve_s: float = 0.0
    solve_s: float = 0.0
    verify_s: float = 0.0
    results: int = 0             # zeros returned, or values evaluated
    op_s: dict[int, float] = field(default_factory=dict)  # solve s per op
    attempted: int = 0
    # failed operations: job -> (reason, hard), hard if outside the
    # acceptance tolerance
    failures: dict[int, tuple[str, bool]] = field(default_factory=dict)
    max_rel_error: float = 0.0   # est_rel_error, or recurrence residual
    routes: Counter = field(default_factory=Counter)


class TruncationCounter:
    """While active, counts every TruncationWarning instead of printing
    it; other warnings are shown as usual."""

    def __init__(self):
        self.count = 0
        self._guard = warnings.catch_warnings()

    def __enter__(self):
        self._guard.__enter__()
        warnings.simplefilter("always", TruncationWarning)
        show = warnings.showwarning

        def showwarning(message, category, *args, **kwargs):
            if issubclass(category, TruncationWarning):
                self.count += 1
            else:
                show(message, category, *args, **kwargs)
        warnings.showwarning = showwarning
        return self

    def __exit__(self, *exc):
        return self._guard.__exit__(*exc)


def chain_rows(name: str, seed: int):
    rows = ORIGIN_WALK if name == "origin-walk" else LONG_CHAIN
    order = np.random.default_rng(seed).permutation(len(rows))
    return [rows[i] for i in order]


def _latin_hypercube(rng, n: int, dims: int) -> np.ndarray:
    """n points in [0,1)^dims with one point in each of n strata of every
    coordinate, so the cost of a point set varies little between seeds."""
    strata = rng.permuted(np.tile(np.arange(n), (dims, 1)), axis=1).T
    return (strata + rng.random((n, dims))) / n


def eval_points(seed: int, n: int = EVAL_POINTS_PER_REGIME):
    """Seeded (a, z) points in three regimes, in a seeded random order.

    - a=20, |Re z| and |Im z| in (15, 70): positive-a LG, as in criterion 3;
    - a=-30.2, Re z in (-30, 0), Im z in (0, 30): negative-a LG, including
      the points where its sums truncate early and the LG->Taylor
      fallback;
    - a in (-3, 3), |z| <= 30 in the second quadrant: the origin Taylor
      route, uniform in area.
    """
    rng = np.random.default_rng(seed)
    pts = [(20.0, complex(-15.0 - 55.0 * x, 15.0 + 55.0 * y))
           for x, y in _latin_hypercube(rng, n, 2)]
    pts += [(-30.2, complex(-30.0 * x, 30.0 * y))
            for x, y in _latin_hypercube(rng, n, 2)]
    pts += [(-3.0 + 6.0 * s,
             cmath.rect(30.0 * math.sqrt(r2), 0.5 * math.pi * (1.0 + t)))
            for r2, t, s in _latin_hypercube(rng, n, 3)]
    return [pts[i] for i in rng.permutation(len(pts))]


def chain_pass(rows, reference, tracer=None) -> PassResult:
    res = PassResult()
    cal = Calibrator()
    for job, (a, L, want) in enumerate(rows):
        if tracer is not None:
            tracer.job = job
        res.attempted += 1
        try:
            with cal.block() as solve:
                zeros = chain.run_chain(a, L)
            with cal.block() as verify:
                checked = chain.verify_zeros(a, zeros)
        except Exception as exc:  # any raise is a failed operation
            res.failures[job] = (
                f"a={a} L={L}: {type(exc).__name__}: {exc}", True)
            continue
        res.solve_s += solve.seconds
        res.raw_solve_s += solve.raw
        res.verify_s += verify.seconds
        res.op_s[job] = solve.seconds
        res.results += len(zeros)
        reasons, hard = gate.check_row(want, checked,
                                       reference[gate.row_key(a, L)])
        if reasons:
            res.failures[job] = (f"a={a} L={L}: " + "; ".join(reasons),
                                 hard)
        res.max_rel_error = max([res.max_rel_error, *(
            r.est_rel_error for r in checked
            if math.isfinite(r.est_rel_error))])
    res.scale = statistics.median(cal.scales)
    return res


def eval_pass(points, tracer=None) -> PassResult:
    res = PassResult()
    cal = Calibrator()
    clock = time.perf_counter
    for start in range(0, len(points), EVAL_BLOCK):
        solve, verify = {}, {}
        with cal.block() as blk:
            for job in range(start, min(start + EVAL_BLOCK, len(points))):
                a, z = points[job]
                if tracer is not None:
                    tracer.job = job
                res.attempted += 1
                try:
                    t0 = clock()
                    v = pcf.evaluate(a, z)
                    t1 = clock()
                    um = pcf.evaluate(a - 1.0, z).U
                    up = pcf.evaluate(a + 1.0, z).U
                    t2 = clock()
                except Exception as exc:  # any raise is a failed operation
                    res.failures[job] = (
                        f"a={a} z={z}: {type(exc).__name__}: {exc}", True)
                    continue
                solve[job] = t1 - t0
                verify[job] = t2 - t1
                res.routes[v.method] += 1
                r = gate.recurrence_residual(a, z, v, um, up)
                res.max_rel_error = max(res.max_rel_error, r)
                if gate.point_fails(r):
                    res.failures[job] = (f"a={a} z={z}: residual {r:.2e}",
                                         not math.isfinite(r))
        for job, t in solve.items():
            res.op_s[job] = t * blk.scale
        res.solve_s += sum(solve.values()) * blk.scale
        res.raw_solve_s += sum(solve.values())
        res.verify_s += sum(verify.values()) * blk.scale
        res.results += len(solve)
    res.scale = statistics.median(cal.scales)
    return res

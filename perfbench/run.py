"""End-to-end and per-layer benchmark of pcfzeros.

    python3 perfbench/run.py --workload origin-walk|long-chain|eval-map \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src/`` directory and nothing is built.  One process, one thread, a
closed loop of calls (see workloads.py).  Every pass is checked by the
correctness gate (gate.py).  Times are reported in nominal-machine
seconds: each short block of work is scaled by a calibration loop timed
just before and after it (calibrate.py), which removes the drift in the
host's speed; the report also prints the raw solve time.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, with the
tracing overhead; the spans of the last traced pass are written to
``.bench_out/``.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
try:
    import pcfzeros
except ImportError as exc:
    sys.exit(f"perfbench: cannot import pcfzeros from {SRC}: {exc}")
if not Path(pcfzeros.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"perfbench: pcfzeros imported from {pcfzeros.__file__}, "
             f"not from {SRC}")

import gate  # noqa: E402
from calibrate import Calibrator  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pcfzeros import DEFAULT_CONFIG, _taylor_py, taylor  # noqa: E402
from pcfzeros.lgcoef import make_tables  # noqa: E402

WORKLOADS = ("origin-walk", "long-chain", "eval-map")
MIN_PASSES = 3
SETUP_RUNS = 11

# A fresh interpreter: import the package, then build the LG coefficient
# tables, the only lazy set-up the library does.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import pcfzeros
t1 = time.perf_counter()
from pcfzeros.lgcoef import make_tables
make_tables(pcfzeros.DEFAULT_CONFIG.lg_order)
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""

# the inputs bench_taylor.py times the kernel entry points on
MICRO_A = -3.2
MICRO_Z0 = -4.0 + 2.0j
MICRO_Y = (0.7 - 0.4j, -0.1 + 1.1j)
MICRO_N = 30
MICRO_WAYPOINTS = [-4.0 + 2.0j, -2.5 + 3.5j, -1.0 + 5.0j, 1.5 + 5.0j]


def pin_to_one_cpu():
    """Keep this process and its children on one CPU.  The host's vCPUs
    run at different speeds, so a calibration only describes the work
    around it when both run on the same one."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def measure_setup(runs: int = SETUP_RUNS) -> tuple[float, float, float]:
    """Median set-up, import and table-build seconds over fresh
    interpreters, after one discarded run that warms the file cache."""
    cal = Calibrator()
    samples = []
    for _ in range(runs + 1):
        with cal.block(waits=True) as blk:
            out = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                capture_output=True, text=True, timeout=120, check=True)
        t_import, t_tables = (float(t) * blk.scale
                              for t in out.stdout.split())
        samples.append((t_import + t_tables, t_import, t_tables))
    return tuple(statistics.median(col) for col in zip(*samples[1:]))


def percentile(values, q: int) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    s = sorted(values)
    return s[max(0, math.ceil(len(s) * q / 100) - 1)]


def micro_kernel(kernel, budget: float = 0.3) -> dict[str, float]:
    """Microseconds per call of the three kernel entry points timed by
    benchmarks/bench_taylor.py: median over five batches each."""
    derivs = kernel.scaled_derivs(MICRO_A, MICRO_Z0, *MICRO_Y, MICRO_N + 1)
    calls = {
        "scaled_derivs": lambda: kernel.scaled_derivs(
            MICRO_A, MICRO_Z0, *MICRO_Y, MICRO_N + 1),
        "taylor_eval": lambda: kernel.taylor_eval(derivs, 0.3 + 0.2j),
        "propagate_polyline": lambda: kernel.propagate_polyline(
            MICRO_A, 0j, 1.0 + 0j, 0j, MICRO_WAYPOINTS, MICRO_N),
    }
    clock = time.perf_counter
    out = {}
    for name, call in calls.items():
        t0 = clock()
        call()
        reps = max(1, int(budget / 5 / max(clock() - t0, 1e-7)))
        cal = Calibrator()
        batches = []
        for _ in range(5):
            with cal.block() as blk:
                for _ in range(reps):
                    call()
            batches.append(blk.seconds / reps)
        out[name] = statistics.median(batches) * 1e6
    return out


class Runner:
    """Runs the passes of one workload and keeps the gate totals."""

    def __init__(self, workload: str, seed: int):
        if workload != "eval-map":
            rows = workloads.chain_rows(workload, seed)
            reference = gate.load_reference()
            self._run = lambda tracer: workloads.chain_pass(
                rows, reference, tracer)
            self.soft_share = gate.SOFT_SHARE_CHAIN
            self.ops = f"{len(rows)} rows"
        else:
            points = workloads.eval_points(seed)
            self._run = lambda tracer: workloads.eval_pass(points, tracer)
            self.soft_share = gate.SOFT_SHARE_EVAL
            self.ops = f"{len(points)} points"
        self.warnings = workloads.TruncationCounter()
        self.passes = self.attempted = 0
        # every pass repeats the same operations, and how many passes fit
        # in a run depends on the machine's speed; so an operation is
        # counted once, and fails if it failed on any pass
        self.failures: dict[int, tuple[str, bool]] = {}
        self.max_rel_error = 0.0

    def run_pass(self, tracer=None):
        """One gated pass; returns (PassResult, truncation warnings)."""
        gc.collect()
        before = self.warnings.count
        res = self._run(tracer)
        self.passes += 1
        self.attempted = max(self.attempted, res.attempted)
        for job, (reason, hard) in res.failures.items():
            seen = self.failures.get(job, (reason, False))[1]
            self.failures[job] = (reason, hard or seen)
        self.max_rel_error = max(self.max_rel_error, res.max_rel_error)
        return res, self.warnings.count - before

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        hard = sum(h for _, h in self.failures.values())
        return gate.run_correct(self.attempted, self.failed, hard,
                                self.soft_share)


def end_to_end(runner: Runner, seconds: float):
    setup = measure_setup()
    make_tables(DEFAULT_CONFIG.lg_order)
    passes = []
    t_end = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < t_end:
        passes.append(runner.run_pass()[0])
    # an operation's latency is its median over the passes
    per_op: dict[int, list[float]] = {}
    for p in passes:
        for job, t in p.op_s.items():
            per_op.setdefault(job, []).append(t)
    latency = [statistics.median(ts) for ts in per_op.values()]
    scale = statistics.median(p.scale for p in passes)
    values = {
        "setup_s": setup[0],
        "solve_s": statistics.median(p.solve_s for p in passes),
        "verify_s": statistics.median(p.verify_s for p in passes),
        "results_per_s": statistics.median(p.results / p.solve_s
                                           for p in passes),
        "op_ms_p50": percentile(latency, 50) * 1e3,
        "op_ms_p99": percentile(latency, 99) * 1e3,
    }
    notes = [
        f"passes {len(passes)}, {runner.ops} each; op latency percentiles "
        f"over {len(latency)} operations x {len(passes)} passes",
        f"setup_s median of {SETUP_RUNS} fresh interpreters; medians of "
        f"its parts: import {setup[1]:.4f} s, make_tables {setup[2]:.4f} s",
        f"results per pass {passes[-1].results}",
        f"machine speed scale {scale:.4f} (times below are raw x scale); "
        f"raw solve_s "
        f"{statistics.median(p.raw_solve_s for p in passes):.4f} s",
    ]
    rate = values["results_per_s"]
    if passes[-1].routes:
        notes.append("routes per pass " + ", ".join(
            f"{k} {v}" for k, v in sorted(passes[-1].routes.items())))
        notes.append(f"eval_per_s {rate:.6g}, eval_us_p50 "
                     f"{values['op_ms_p50'] * 1e3:.6g}, eval_us_p99 "
                     f"{values['op_ms_p99'] * 1e3:.6g}")
    else:
        notes.append(f"zeros_per_s {rate:.6g}")
    return values, notes


def per_layer(runner: Runner, workload: str, seed: int, seconds: float):
    make_tables(DEFAULT_CONFIG.lg_order)
    plain, traced = [], []
    t_end = time.perf_counter() + seconds
    while (min(len(plain), len(traced)) < 2
           or time.perf_counter() < t_end):
        plain.append(runner.run_pass()[0].solve_s)
        tracer = tracing.Tracer()
        with tracing.instrumented(tracer):
            res, truncations = runner.run_pass(tracer)
        traced.append((res.solve_s, tracer.layer_metrics(
            res.results, truncations, res.scale)))

    values = {name: statistics.median(layers[name] for _, layers in traced)
              for name in traced[0][1]}
    values["gate.max_rel_error"] = runner.max_rel_error
    base = statistics.median(plain)
    with_trace = statistics.median(solve for solve, _ in traced)
    values["trace.overhead_s"] = with_trace - base
    values["trace.overhead_frac"] = (with_trace - base) / base
    for entry, us in micro_kernel(_taylor_py).items():
        values[f"kernel_py.{entry}_us"] = us

    notes = [
        f"passes {len(plain)} untraced + {len(traced)} traced, "
        f"{runner.ops} each",
        f"solve_s untraced {base:.4f} s, traced {with_trace:.4f} s",
    ]
    try:
        from pcfzeros import _taylor_c
    except ImportError:
        notes.append("compiled kernel _taylor_c not importable; "
                     "only the pure-Python kernel is timed")
    else:
        for entry, us in micro_kernel(_taylor_c).items():
            notes.append(f"kernel_c.{entry}_us {us:.4f} us")
    notes.append("spans of the last traced pass written to "
                 + str(write_trace(tracer, workload, seed)))
    return values, notes


def write_trace(tracer, workload: str, seed: int) -> Path:
    out = ROOT / ".bench_out" / f"trace-{workload}-seed{seed}.jsonl"
    out.parent.mkdir(exist_ok=True)
    with out.open("w") as f:
        f.write(json.dumps({"workload": workload, "seed": seed,
                            "kernel": taylor.KERNEL,
                            "fields": ["name", "start_s", "end_s", "parent",
                                       "job"]}) + "\n")
        t0 = tracer.spans[0][1] if tracer.spans else 0.0
        for name, start, end, parent, job in tracer.spans:
            f.write(json.dumps([name, round(start - t0, 9),
                                round(end - t0, 9), parent, job]) + "\n")
    return out.relative_to(ROOT)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    pin_to_one_cpu()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in
             spec["per_layer" if args.trace else "end_to_end"]}

    runner = Runner(args.workload, args.seed)
    with runner.warnings:
        if args.trace:
            values, notes = per_layer(runner, args.workload, args.seed,
                                      args.seconds)
        else:
            values, notes = end_to_end(runner, args.seconds)
    if set(values) != set(units):
        sys.exit("perfbench: metrics do not match BENCHMARK.json: "
                 f"{sorted(set(values) ^ set(units))}")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"kernel {taylor.KERNEL}  trace {args.trace}")
    for note in notes:
        print(note)
    for name, value in values.items():
        print(f"  {name:34s} {value:16.6g} {units[name]}")
    print(f"failed {runner.failed} of {runner.attempted} operations, "
          f"each run {runner.passes} times "
          f"(failed_frac {runner.failed / runner.attempted:.4f}); "
          f"max relative error {runner.max_rel_error:.3e}; "
          f"truncation warnings {runner.warnings.count}")
    for job, (reason, _) in sorted(runner.failures.items()):
        print(f"  failed: {reason}")
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

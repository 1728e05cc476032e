"""Command-line front end: run a zero chain and emit CSV or JSON."""
from __future__ import annotations

import argparse
import json
import sys
import time

from .chain import run_chain, verify_zeros
from .errors import HermiteParameterError, PcfZerosError

CSV_HEADER = "index,re,im,est_rel_error,iterations"


class _Parser(argparse.ArgumentParser):
    # argument errors must map to exit code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(x: float) -> str:
    return format(x, ".17g")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="pcfzeros",
                description="Complex zeros of the parabolic cylinder "
                            "function U(a,z) in the second quadrant.")
    p.add_argument("--a", type=float, help="parameter a (real)")
    p.add_argument("--L", type=float, help="domain size L")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--verify", action="store_true",
                   help="fill est_rel_error with each zero's self-consistency "
                        "estimate |U/(z U')| from its neighbouring zero "
                        "(does not see error carried along the chain)")
    p.add_argument("--out", type=str, default=None,
                   help="output path (default: stdout)")
    p.add_argument("--table", type=str, default=None,
                   help="batch mode: file of 'a L' lines, one count row each")
    return p


def _emit(text: str, out_path: str | None) -> int:
    """Write text to out_path, or to stdout when it is None.  Returns 0,
    or 1 after reporting on stderr that out_path cannot be written."""
    if out_path is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"pcfzeros: cannot write {out_path}: {exc}", file=sys.stderr)
        return 1
    return 0


def _csv_report(zeros) -> str:
    lines = [CSV_HEADER]
    for r in zeros:
        lines.append(",".join([
            str(r.index), _fmt(r.z.real), _fmt(r.z.imag),
            _fmt(r.est_rel_error), str(r.inner_iterations)]))
    return "\n".join(lines) + "\n"


def _json_report(a, L, zeros) -> str:
    doc = {
        "a": a,
        "L": L,
        "zeros": [
            {"index": r.index,
             "re": r.z.real, "im": r.z.imag,
             "est_rel_error": None if r.est_rel_error != r.est_rel_error
             else r.est_rel_error,
             "iterations": r.inner_iterations}
            for r in zeros
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _exit_status(exc: Exception) -> int:
    """Exit status for a failed run: 1 for a Hermite parameter or another
    ValueError, 2 for any other error of this package."""
    if isinstance(exc, (HermiteParameterError, ValueError)):
        return 1
    return 2


def table_mode(path: str, out_path: str | None) -> int:
    """One count row per 'a L' line.  A line that fails is reported on
    stderr with its line number and left out of the CSV; the exit status
    is the worst over all lines (1 for a malformed line, a Hermite
    parameter or another ValueError, 2 for any other error of this
    package, and 1 when out_path cannot be written)."""
    try:
        with open(path) as fh:
            raw = fh.readlines()
    except OSError as exc:
        print(f"pcfzeros: cannot read table file: {exc}", file=sys.stderr)
        return 1
    lines = ["a,L,n_zeros,wall_time_seconds"]
    status = 0
    for lineno, line in enumerate(raw, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        t0 = time.perf_counter()
        try:
            if len(parts) != 2:
                raise ValueError("expected two fields 'a L'")
            a, L = float(parts[0]), float(parts[1])
            zeros = run_chain(a, L)
        except (PcfZerosError, ValueError) as exc:
            print(f"pcfzeros: {path}:{lineno}: {exc}", file=sys.stderr)
            status = max(status, _exit_status(exc))
            continue
        wall = time.perf_counter() - t0
        lines.append(f"{_fmt(a)},{_fmt(L)},{len(zeros)},{wall:.6f}")
    return max(status, _emit("\n".join(lines) + "\n", out_path))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1

    if args.table is not None:
        # a table line gives its own a and L, and the mode writes counts
        # as CSV, so these flags would be ignored
        ignored = [flag for flag, given in (
            ("--a", args.a is not None), ("--L", args.L is not None),
            ("--verify", args.verify), ("--format", args.format != "csv"))
            if given]
        if ignored:
            print(f"pcfzeros: --table does not take {', '.join(ignored)}",
                  file=sys.stderr)
            return 1
        return table_mode(args.table, args.out)

    if args.a is None or args.L is None:
        print("pcfzeros: --a and --L are required", file=sys.stderr)
        return 1

    try:
        zeros = run_chain(args.a, args.L)
        if args.verify:
            zeros = verify_zeros(args.a, zeros)
    except (PcfZerosError, ValueError) as exc:
        print(f"pcfzeros: {exc}", file=sys.stderr)
        return _exit_status(exc)

    if args.format == "csv":
        return _emit(_csv_report(zeros), args.out)
    return _emit(_json_report(args.a, args.L, zeros), args.out)


if __name__ == "__main__":
    sys.exit(main())

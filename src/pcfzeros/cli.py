"""Command-line front end: run a zero chain and emit CSV or JSON."""
from __future__ import annotations

import argparse
import json
import sys
import time

from .chain import run_chain, verify_zeros
from .errors import HermiteParameterError, PcfZerosError

CSV_HEADER = "index,re,im,est_rel_error,iterations"


def _fmt(x: float) -> str:
    return format(x, ".17g")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pcfzeros", description="Complex zeros of the parabolic "
        "cylinder function U(a,z) in the second quadrant.")
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


def _fail(exc: Exception, where: str = "") -> int:
    """Report a failure on stderr and return the exit status: 1 for invalid
    input or a file that cannot be read or written, 2 for any other error
    of this package."""
    print(f"pcfzeros: {where}{exc}", file=sys.stderr)
    if isinstance(exc, (ValueError, HermiteParameterError, OSError)):
        return 1
    return 2


def _emit(text: str, out_path: str | None) -> int:
    """Write text to out_path, or to stdout when it is None, and return
    the exit status."""
    if out_path is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        return _fail(exc, f"cannot write {out_path}: ")
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


def table_mode(path: str, out_path: str | None) -> int:
    """One count row per 'a L' line.  A line that fails is reported with
    its line number and left out of the CSV; the exit status is the worst
    over the lines and the output."""
    try:
        with open(path) as fh:
            raw = fh.readlines()
    except OSError as exc:
        return _fail(exc, "cannot read table file: ")
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
            status = max(status, _fail(exc, f"{path}:{lineno}: "))
            continue
        wall = time.perf_counter() - t0
        lines.append(f"{_fmt(a)},{_fmt(L)},{len(zeros)},{wall:.6f}")
    return max(status, _emit("\n".join(lines) + "\n", out_path))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help, and 2 on a usage error: here 1
        return 0 if exc.code == 0 else 1

    if args.table is not None:
        # a table line gives its own a and L, and the mode writes counts
        # as CSV, so a flag off its default would be ignored
        ignored = [f"--{name}" for name in ("a", "L", "verify", "format")
                   if getattr(args, name) != parser.get_default(name)]
        if ignored:
            return _fail(ValueError(
                f"--table does not take {', '.join(ignored)}"))
        return table_mode(args.table, args.out)

    try:
        if args.a is None or args.L is None:
            raise ValueError("--a and --L are required")
        zeros = run_chain(args.a, args.L)
        if args.verify:
            zeros = verify_zeros(args.a, zeros)
    except (PcfZerosError, ValueError) as exc:
        return _fail(exc)

    if args.format == "csv":
        return _emit(_csv_report(zeros), args.out)
    return _emit(_json_report(args.a, args.L, zeros), args.out)


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate reference.json: a subsample of zeros for every table row.

The gate matches each reference zero to the nearest computed zero, to
1e-13 relative.  The subsample holds eight interior zeros per row and
skips the first and last, which the outward and inward walks decide
(the a=-30.2, L=12 miss has its extra record at the start).

Run from the repository root; rerun only when a change is meant to move
the zeros:

    python3 perfbench/make_reference.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
from pcfzeros import taylor  # noqa: E402
from pcfzeros.chain import run_chain  # noqa: E402

PER_ROW = 8


def main():
    zeros = {}
    counts = {}
    for a, L, _ in gate.TABLE:
        zs = [r.z for r in run_chain(a, L)]
        n = len(zs)
        picks = sorted({round(k * (n - 1) / (PER_ROW + 1))
                        for k in range(1, PER_ROW + 1)})
        key = gate.row_key(a, L)
        counts[key] = n
        zeros[key] = [[zs[i].real, zs[i].imag] for i in picks]
    gate.REFERENCE_PATH.write_text(json.dumps(
        {"kernel": taylor.KERNEL, "counts": counts, "zeros": zeros},
        indent=1) + "\n")


if __name__ == "__main__":
    main()

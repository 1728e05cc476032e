"""The import set: `import pcfzeros`, `run_chain` and `evaluate` on every
route load the standard library alone; numpy comes in with the batched
step of `verify_zeros`, its one user."""
import json
import subprocess
import sys
from pathlib import Path

import pcfzeros

SCRIPT = r"""
import json, math, sys
sys.path.insert(0, sys.argv[1])
from pcfzeros import evaluate, run_chain, verify_zeros
zeros = run_chain(-1.7, 12.0)
# origin Taylor, positive-a LG, negative-a LG, Hermite closed form
points = ((-1.7, -3 + 2j), (20.0, -40 + 35j), (-30.2, -10 + 12j),
          (-2.5, -1 + 1j))
methods = [evaluate(a, z).method for a, z in points]
loaded = [m for m in ("numpy", "fractions") if m in sys.modules]
checked = verify_zeros(-1.7, zeros)
print(json.dumps({
    "zeros": len(zeros), "methods": methods, "loaded": loaded,
    "numpy_after_verify": "numpy" in sys.modules,
    "finite": all(math.isfinite(r.est_rel_error) for r in checked)}))
"""


def test_numpy_and_fractions_stay_out_until_verify_zeros():
    src = Path(pcfzeros.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(src)],
                          capture_output=True, text=True, check=True)
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["zeros"] == 23
    assert got["methods"] == ["origin-series", "liouville-green",
                              "liouville-green", "hermite"]
    assert got["loaded"] == []
    assert got["numpy_after_verify"]
    assert got["finite"]

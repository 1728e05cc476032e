"""The import set: `import pcfzeros`, `run_chain` and `evaluate` on every
route load the standard library alone; numpy comes in with the batched
step of `verify_zeros`, its one user.  The LG layer (`lgeval`, `lgcoef`
and `_dd`) comes in with the first LG evaluation: the origin route,
which a run with 2|a| < U_MIN takes for every zero, never loads it."""
import functools
import json
import subprocess
import sys
from pathlib import Path

import pcfzeros

SCRIPT = r"""
import json, math, sys
sys.path.insert(0, sys.argv[1])
from pcfzeros import evaluate, run_chain, verify_zeros
LG = ("pcfzeros.lgeval", "pcfzeros.lgcoef", "pcfzeros._dd")
zeros = run_chain(-1.7, 12.0)
# origin Taylor, positive-a LG, negative-a LG, Hermite closed form
points = ((-1.7, -3 + 2j), (20.0, -40 + 35j), (-30.2, -10 + 12j),
          (-2.5, -1 + 1j))
methods = [evaluate(*points[0]).method]
lg_before = [m for m in LG if m in sys.modules]
methods += [evaluate(a, z).method for a, z in points[1:]]
lg_after = [m for m in LG if m in sys.modules]
loaded = [m for m in ("numpy", "fractions") if m in sys.modules]
checked = verify_zeros(-1.7, zeros)
print(json.dumps({
    "zeros": len(zeros), "methods": methods, "loaded": loaded,
    "lg_before": lg_before, "lg_after": lg_after,
    "numpy_after_verify": "numpy" in sys.modules,
    "finite": all(math.isfinite(r.est_rel_error) for r in checked)}))
"""


@functools.cache
def _script_output():
    src = Path(pcfzeros.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(src)],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_numpy_and_fractions_stay_out_until_verify_zeros():
    got = _script_output()
    assert got["zeros"] == 23
    assert got["methods"] == ["origin-series", "liouville-green",
                              "liouville-green", "hermite"]
    assert got["loaded"] == []
    assert got["numpy_after_verify"]
    assert got["finite"]


def test_lg_layer_loads_with_the_first_lg_evaluation():
    # importing the LG layer costs milliseconds that run_chain(-1.7, 12)
    # and the origin route never need
    got = _script_output()
    assert got["lg_before"] == []
    assert "pcfzeros.lgeval" in got["lg_after"]

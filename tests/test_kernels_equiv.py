"""Compiled and pure-Python stepping kernels must agree.

The compiled kernel is built from the checked-in sources into a
temporary directory and swapped into `taylor` for the length of a test,
so the run never leaves a built extension in the source tree (where
`taylor` would select it at import).
"""
import importlib.machinery
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from pcfzeros import _taylor_py, taylor
from pcfzeros.chain import run_chain, verify_zeros

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "pcfzeros"


def _extensions(directory):
    return {p for suffix in importlib.machinery.EXTENSION_SUFFIXES
            for p in directory.glob("_taylor_c*" + suffix)}


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    out = tmp_path_factory.mktemp("taylor_c")
    before = _extensions(PKG)
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "tmp")],
        cwd=ROOT, capture_output=True, text=True)
    assert _extensions(PKG) == before, "the build wrote into src/pcfzeros"
    built = sorted(_extensions(out / "lib" / "pcfzeros"))
    if proc.returncode != 0 or not built:
        pytest.skip("compiled kernel did not build:\n"
                    + proc.stdout[-2000:] + proc.stderr[-2000:])
    spec = importlib.util.spec_from_file_location("pcfzeros._taylor_c",
                                                  built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def use_kernel(monkeypatch):
    """Route every kernel call in `taylor` (and through it in `chain` and
    `pcf`) to the given kernel module until the test ends."""
    def swap(kernel):
        monkeypatch.setattr(taylor, "kernel", kernel)
        monkeypatch.setattr(taylor, "h_max", kernel.h_max)
        monkeypatch.setattr(taylor, "KERNEL", kernel.KERNEL)
    return swap


def _step(kernel, use_kernel):
    use_kernel(kernel)
    st = taylor.derivatives_at(-3.3, -4.0 + 2.0j, 1.0 + 0.0j, 0.2 - 0.5j)
    return taylor.step(st, 0.4 - 0.3j)


def _records(a, L):
    return [(r.index, r.z, r.inner_iterations, r.est_rel_error)
            for r in verify_zeros(a, run_chain(a, L))]


def test_pure_kernel_importable(use_kernel):
    y, yp = _step(_taylor_py, use_kernel)
    assert taylor.KERNEL == "python"
    assert abs(y) > 0 and abs(yp) > 0
    assert len(run_chain(-3.2, 15.0)) > 0


def test_step_agreement(compiled, use_kernel):
    assert compiled.KERNEL == "cython"
    py, pyp = _step(_taylor_py, use_kernel)
    y, yp = _step(compiled, use_kernel)
    assert abs(y - py) < 1e-13 * abs(py)
    assert abs(yp - pyp) < 1e-13 * abs(pyp)


@pytest.mark.parametrize("a, L", [(-3.2, 15.0), (-30.2, 12.0), (20.5, 50.0)])
def test_chain_agreement(compiled, use_kernel, a, L):
    # index, zero, iterations and estimate, bit for bit
    use_kernel(_taylor_py)
    want = _records(a, L)
    use_kernel(compiled)
    assert _records(a, L) == want

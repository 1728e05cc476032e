"""Compiled and pure-Python stepping kernels must agree, bit for bit.

The compiled kernel is built from the checked-in source into a
temporary directory and swapped into `taylor` for the length of a test,
so the run never leaves a built extension in the source tree (where
`taylor` would select it at import).  Where a C compiler exists, a
kernel that does not build, or builds with a warning, fails the tests
instead of skipping them.
"""
import importlib.machinery
import importlib.util
import math
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from collections import Counter
from pathlib import Path

import pytest

from pcfzeros import _taylor_py, taylor
from pcfzeros.chain import run_chain, verify_zeros
from pcfzeros.errors import StepFailureError
from pcfzeros.pcf import PcfValue, evaluate, origin_values_scaled
from pcfzeros.scaled import ScaledValue
from test_taylor import _kernel_corpus, _loop_verdict, _real_axis_corpus

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "pcfzeros"


def _extensions(directory):
    return {p for suffix in importlib.machinery.EXTENSION_SUFFIXES
            for p in directory.glob("_taylor_c*" + suffix)}


def _have_compiler():
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC")
    return bool(cc) and shutil.which(shlex.split(cc)[0]) is not None


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    if not _have_compiler():
        pytest.skip("no C compiler to build the compiled kernel")
    out = tmp_path_factory.mktemp("taylor_c")
    before = _extensions(PKG)
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "tmp")],
        cwd=ROOT, capture_output=True, text=True,
        # -march=native lets the compiler fuse a multiply and an add
        # where the target has FMA, which setup.py's flags must forbid
        env={**os.environ, "CFLAGS": "-Wall -Werror -march=native"})
    assert _extensions(PKG) == before, "the build wrote into src/pcfzeros"
    built = sorted(_extensions(out / "lib" / "pcfzeros"))
    if proc.returncode != 0 or not built:
        pytest.fail("compiled kernel did not build:\n"
                    + proc.stdout[-4000:] + proc.stderr[-4000:])
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
        monkeypatch.setattr(taylor, "KERNEL", kernel.KERNEL)
    return swap


def _step(kernel, use_kernel):
    use_kernel(kernel)
    c = taylor.derivatives_at(-3.3, -4.0 + 2.0j, 1.0 + 0.0j, 0.2 - 0.5j)
    return taylor.step(-3.3, -4.0 + 2.0j, c, 0.4 - 0.3j)


def _records(a, L):
    return [(r.index, r.z, r.inner_iterations, r.est_rel_error)
            for r in verify_zeros(a, run_chain(a, L))]


def test_pure_kernel_importable(use_kernel):
    y, yp = _step(_taylor_py, use_kernel)
    assert taylor.KERNEL == "python"
    assert abs(y) > 0 and abs(yp) > 0
    assert len(run_chain(-3.2, 15.0)) > 0


def test_step_agreement(compiled, use_kernel):
    assert compiled.KERNEL == "c"
    assert _step(compiled, use_kernel) == _step(_taylor_py, use_kernel)


def test_entry_points_bit_for_bit(compiled):
    def same(name, *args):
        # repr compares bits: signed zeros, and nan where a step overflows
        got = getattr(compiled, name)(*args)
        assert repr(got) == repr(getattr(_taylor_py, name)(*args)), \
            (name, args)
        return got

    # the corpus of test_taylor's bisection test: every subdivision
    # depth 0..6 is reached, and some steps fail at depth 6
    for i, (a, z0, y0, y1, h) in enumerate(_kernel_corpus(20261019, 600)):
        c = same("scaled_derivs", a, z0, y0, y1, 31)
        for d in (h, h / 2, 0j):
            # values and the verdict of the tail test, as on the oracle
            got = same("taylor_eval", c, d)
            assert repr(got) == repr(_loop_verdict(c, d)), (c, d)
            same("taylor_eval", tuple(c[:4]), d)
        same("step_once", a, z0, c, h)
        if i % 20 == 0:
            same("propagate_polyline", a, z0, y0, y1,
                 [z0 + h / 4, z0 + h / 3], 30)
            # orders past 254: the coefficient buffers are sized per call
            same("propagate_polyline", a, z0, y0, y1, [z0 + h / 4], 300)
            same("scaled_derivs", a, z0, y0, y1, 300)
    # a single term can be nan; max() keeps the first argument then
    nan = complex(math.nan, 0.0)
    for c in ([1j, nan], [nan, 1j], [0j, -0.0j, nan, 2.0]):
        same("taylor_eval", c, 0.5 - 0.5j)
    # real segments from real data, which the pure-Python kernel steps on
    # floats and the compiled one on complex numbers
    for a, z0, y0, y1, waypoints in _real_axis_corpus(20261026, 200):
        same("propagate_polyline", a, z0, y0, y1, waypoints, 30)
    # values grow like exp(z^2/4) along the real axis, past RESCALE_LIMIT
    y, yp, logscale, ok = same("propagate_polyline", 0.3, 0j, 1.0 + 0j,
                               0j, [40.0 + 0j, 41.0 + 2.0j], 30)
    assert ok and logscale > math.log(_taylor_py.RESCALE_LIMIT)
    # |h|**n past the largest double: the first try fails its tail test
    # and a half-step passes
    c = same("scaled_derivs", 1.0, 0j, 1.0 + 0j, 0j, 301)
    y, yp, ok = same("step_once", 1.0, 0j, c, 20.0 + 0j)
    assert ok and math.isfinite(abs(y))
    same("taylor_eval", c, 20.0 + 0j)
    same("taylor_eval", [1e300 + 1e308j, 1e308 - 1e308j], 2.0 + 0j)
    same("taylor_eval", [1j, 1.0 + 0j], complex(1e308, 1e308))
    # a zero step whose |y'| passes the largest double: |h| |y'| is nan
    # and max() keeps |y|, so the tail test passes
    big = complex(1.5e308, 1.5e308)
    assert same("taylor_eval", [1j, big, 0j, 0j], 0j)[2]
    c = same("scaled_derivs", 1.0, 0j, 1j, big, 31)
    assert same("step_once", 1.0, 0j, c, 0j)[2]


def test_evaluate_on_the_real_axis_bit_for_bit(compiled, use_kernel):
    # at real z the origin route runs entirely on floats in the
    # pure-Python kernel; z = x - 0j takes the same path and ends on a
    # waypoint whose imaginary part is -0.0
    points = [(a, x) for a in (-30.2, -2.7, -1.7, -0.3, 0.0, 0.3, 2.3, 20.5)
              for x in (-41.0, -35.5, -20.25, -6.0, -1.5, -0.0, 0.75, 3.0,
                        12.5, 29.0)]
    got = {}
    for kernel in (_taylor_py, compiled):
        use_kernel(kernel)
        got[kernel.KERNEL] = [repr(evaluate(a, z)) for a, x in points
                              for z in (x, complex(x, -0.0))]
    assert got["python"] == got["c"]
    assert sum("origin-series" in v for v in got["python"]) == 2 * len(points)


def test_step_once_from_short_expansions(compiled):
    # the pieces past the first are expanded afresh to c_0..c_3 at least,
    # as scaled_derivs returns, however short the caller's expansion
    subdivided = Counter()
    # a two-term expansion passes the tail test only where its terms
    # fall below the floor TAIL_TOL * 1e-300, here from h/2 on
    tiny = [(1.0, -2.0 + 1.0j, 0j, 1e-300 + 0j, 1.5e-15 + 0j),
            (3.0, -5.0 + 2.0j, 0j, 1.0 + 0j, 1.5e-315 + 0j)]
    for a, z0, y0, y1, h in [*_kernel_corpus(20261022, 40), *tiny]:
        c = _taylor_py.scaled_derivs(a, z0, y0, y1, 31)
        for k in (2, 3, 4):
            for d in (h * 2.0 ** -j for j in range(0, 80, 4)):
                got = compiled.step_once(a, z0, c[:k], d)
                assert repr(got) == repr(
                    _taylor_py.step_once(a, z0, c[:k], d)), (a, z0, k, d)
                subdivided[k] += (got[2]
                                  and not _taylor_py.taylor_eval(c[:k], d)[2])
    assert min(subdivided[k] for k in (2, 3, 4)) > 0, subdivided


@pytest.mark.parametrize("kernel", ["python", "c"])
def test_too_short_expansions_raise(request, kernel):
    k = (request.getfixturevalue("compiled") if kernel == "c"
         else _taylor_py)
    for c in ([], [1j], (1j,)):
        with pytest.raises(ValueError, match="need at least two"):
            k.taylor_eval(c, 0.5)
        with pytest.raises(ValueError, match="need at least two"):
            k.step_once(1.0, 0j, c, 0.5)


@pytest.mark.parametrize("kernel", ["python", "c"])
def test_entry_point_arguments(request, kernel):
    # the compiled kernel's arguments go through PyArg_ParseTuple, the
    # twin's through Python's own call and arithmetic: both raise
    # TypeError for a missing argument and for a string in a number's
    # place, and return results of the same types
    k = (request.getfixturevalue("compiled") if kernel == "c"
         else _taylor_py)
    c = k.scaled_derivs(1.0, 0.5j, 1.0 + 0j, 0j, 31)
    assert type(c) is tuple and {type(v) for v in c} == {complex}
    calls = {"scaled_derivs": ((1.0, 0.5j, 1.0 + 0j, 0j, 31), None),
             "taylor_eval": ((c, 0.1 + 0j), (complex, complex, bool)),
             "step_once": ((1.0, 0.5j, c, 0.1 + 0j), (complex, complex, bool)),
             "propagate_polyline": ((1.0, 0j, 1.0 + 0j, 0j, [0.5j], 30),
                                    (complex, complex, float, bool))}
    for name, (args, types) in calls.items():
        f = getattr(k, name)
        if types:
            assert tuple(type(v) for v in f(*args)) == types, name
        with pytest.raises(TypeError):
            f(*args[:-1])
        with pytest.raises(TypeError):
            f(*args[:-1], "0.1")
    if kernel == "c":
        # the order is a C int; the twin would generate a function of
        # that many terms
        with pytest.raises(OverflowError):
            k.scaled_derivs(1.0, 0.5j, 1.0 + 0j, 0j, 2**40)
        with pytest.raises(OverflowError):
            k.propagate_polyline(1.0, 0j, 1.0 + 0j, 0j, [0.5j], 2**40)


@pytest.mark.parametrize("kernel", ["python", "c"])
def test_step_is_step_once(request, use_kernel, kernel):
    use_kernel(request.getfixturevalue("compiled") if kernel == "c"
               else _taylor_py)
    over_h_max = 0
    # no corpus try past h_max passes the tail test; these do, as the
    # last two terms vanish: zero data, and a = 0 expanded at the origin
    # from (1, 0), where only c_{4k} are nonzero
    vanishing_tail = [(-7.0, -10.0 + 10.0j, 0j, 0j, 3j),
                      (0.0, 0j, 1.0 + 0j, 0j, 10.0 + 0j),
                      (0.0, 0j, 1.0 + 0j, 0j, -8j)]
    for a, z0, y0, y1, h in [*_kernel_corpus(20261021, 300),
                             *vanishing_tail]:
        c = taylor.derivatives_at(a, z0, y0, y1)
        y, yp, ok = taylor.kernel.step_once(a, z0, c, h)
        if ok:
            assert repr(taylor.step(a, z0, c, h)) == repr((y, yp))
        else:
            with pytest.raises(StepFailureError):
                taylor.step(a, z0, c, h)
        # a try of the caller's expansion that passes the tail test is
        # what step returns, at any |h|: the chain hop relies on it
        y, yp, ok = taylor.kernel.taylor_eval(c, h)
        if ok:
            assert repr(taylor.step(a, z0, c, h)) == repr((y, yp))
            over_h_max += abs(h) > taylor.h_max(a, z0)
    assert over_h_max >= len(vanishing_tail)
    # a step whose every subdivision overflows fails, on either kernel
    c = taylor.derivatives_at(-3.2, -4.0 + 2.0j, 0j, 1.0 + 0j)
    for h in (1e12, complex(1.5e308, 1.5e308)):
        with pytest.raises(StepFailureError):
            taylor.step(-3.2, -4.0 + 2.0j, c, h)


@pytest.mark.parametrize("a, L", [(-3.2, 15.0), (-30.2, 12.0), (20.5, 50.0)])
def test_chain_agreement(compiled, use_kernel, a, L):
    # index, zero, iterations and estimate, bit for bit
    use_kernel(_taylor_py)
    want = _records(a, L)
    use_kernel(compiled)
    assert _records(a, L) == want


@pytest.mark.parametrize("kernel", ["python", "c"])
def test_evaluate_at_the_origin_is_the_origin_data(request, use_kernel,
                                                    kernel):
    # the origin route takes no step to z = 0 of either sign
    use_kernel(request.getfixturevalue("compiled") if kernel == "c"
               else _taylor_py)
    for a in (-30.2, -1.7, 0.3, 2.3, 20.5):
        (m0, m1), e = origin_values_scaled(a)
        want = PcfValue(ScaledValue.make(m0, e), ScaledValue.make(m1, e),
                        "origin-series")
        for z in (0, -0j):
            assert repr(evaluate(a, z)) == repr(want), (a, z)

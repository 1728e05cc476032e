"""Build script: compiles the optional stepping kernel `_taylor_c.c`.

The extension is optional: if it does not compile, the build warns and
goes on without it, and the package selects its pure-Python kernel at
import time.  The kernel's results are identical to the bit to the
pure-Python kernel's only if no multiply and add are fused into one
rounding: -ffp-contract=off forbids that, and -fno-tree-vectorize keeps
gcc 12's vectorizer from fusing anyway (vfmaddsub) where the target has
FMA, as with -march=native.
"""
from setuptools import Extension, setup

setup(ext_modules=[Extension(
    "pcfzeros._taylor_c", ["src/pcfzeros/_taylor_c.c"],
    extra_compile_args=["-ffp-contract=off", "-fno-tree-vectorize"],
    optional=True)])

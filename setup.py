"""Build script: compiles the optional stepping kernel extension.

With Cython installed the kernel is cythonized from `_taylor_c.pyx`;
without it the checked-in generated `_taylor_c.c` is compiled directly,
so only a C compiler is needed.  The package works without the
extension (a pure-Python fallback is selected at import time), so a
failed compile only costs speed.
"""
import os

from setuptools import Extension, setup

ext_modules = []
if os.environ.get("PCFZEROS_NO_EXT") != "1":
    try:
        from Cython.Build import cythonize
    except ImportError:
        ext_modules = [Extension("pcfzeros._taylor_c",
                                 ["src/pcfzeros/_taylor_c.c"])]
    else:
        ext_modules = cythonize(
            ["src/pcfzeros/_taylor_c.pyx"],
            language_level=3,
        )

setup(ext_modules=ext_modules)

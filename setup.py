"""Build script: compiles the optional stepping kernel extension.

With Cython installed the kernel is cythonized from `_taylor_c.pyx`;
without it the checked-in generated `_taylor_c.c` is compiled directly,
so only a C compiler is needed.  The extension is optional: if it does
not compile, the build warns and goes on without it, and the package
selects its pure-Python kernel at import time.
"""
from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    ext_modules = [Extension("pcfzeros._taylor_c",
                             ["src/pcfzeros/_taylor_c.c"], optional=True)]
else:
    ext_modules = cythonize(
        [Extension("pcfzeros._taylor_c", ["src/pcfzeros/_taylor_c.pyx"],
                   optional=True)],
        language_level=3,
    )

setup(ext_modules=ext_modules)

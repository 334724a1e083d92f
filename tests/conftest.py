"""Pins the OpenBLAS kernel that the byte oracles assume, and names in the test
report the kernel that numpy and scipy loaded.

OpenBLAS picks a kernel for the CPU when it loads, and the byte oracles (the golden
digests, ``SURROGATE_ORACLE``, ``FIT_ORACLE``, ``OPTIMIZER_ORACLE`` and the
acquisition ``ORACLE``) depend on it.  They were recorded under its Haswell kernel,
which needs AVX2 and FMA.  This file sets ``OPENBLAS_CORETYPE`` to that kernel before
numpy or scipy load, overriding any value exported in the shell, so the oracles hold
on any x86-64 CPU that has those instructions; what OpenBLAS does when forced to a
kernel the CPU lacks is untested.  ``test_openblas_core.py`` fails, naming both
kernels, when either library runs another one.

Every test log records which kernel each library runs: in the header, or under
``-q``, which hides the header, in the closing summary.  The reader prints
``unknown`` where a library or its symbol is missing.
"""

import ctypes
import os
from pathlib import Path

PINNED_CORE = "Haswell"
os.environ["OPENBLAS_CORETYPE"] = PINNED_CORE  # before any test module loads numpy or scipy


def _corename(package, pattern: str, symbol: str) -> str:
    """The core name that `package`'s bundled OpenBLAS reports, or "unknown"."""
    try:
        libs = sorted(Path(package.__file__).parents[1].joinpath(
            f"{package.__name__}.libs").glob(pattern))
        corename = getattr(ctypes.CDLL(str(libs[0])), symbol)
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    except (AttributeError, IndexError, OSError, TypeError, UnicodeDecodeError):
        return "unknown"


def kernels() -> dict:
    """{"numpy": core, "scipy": core}, the kernel each library's OpenBLAS runs."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's OpenBLAS, as the tests do

    return {"numpy": _corename(numpy, "libscipy_openblas64_*.so",
                               "scipy_openblas_get_corename64_"),
            "scipy": _corename(scipy, "libscipy_openblas*.so", "scipy_openblas_get_corename")}


def _report() -> str:
    return "OpenBLAS core: " + ", ".join(f"{lib} {core}" for lib, core in kernels().items())


def pytest_report_header(config):
    return _report()


def pytest_terminal_summary(terminalreporter):
    if terminalreporter.verbosity < 0:  # -q: the header was not shown
        terminalreporter.write_line(_report())

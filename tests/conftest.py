"""The test report's header names the OpenBLAS kernel that numpy and scipy loaded.

OpenBLAS picks a kernel for the CPU when it loads, and the byte oracles (the golden
digests, ``SURROGATE_ORACLE``, ``FIT_ORACLE``, ``OPTIMIZER_ORACLE`` and the
acquisition ``ORACLE``) were recorded under its SkylakeX kernel.  Under another
kernel they can fail with no change to the code, so every test log records which
kernel each library runs: in the header, or under ``-q``, which hides the header, in
the closing summary.  It only reads: it prints ``unknown`` where a library or its
symbol is missing, and it changes no test outcome.
"""

import ctypes
from pathlib import Path


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


def _kernels() -> str:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's OpenBLAS, as the tests do

    return ("OpenBLAS core: numpy "
            + _corename(numpy, "libscipy_openblas64_*.so", "scipy_openblas_get_corename64_")
            + ", scipy "
            + _corename(scipy, "libscipy_openblas*.so", "scipy_openblas_get_corename"))


def pytest_report_header(config):
    return _kernels()


def pytest_terminal_summary(terminalreporter):
    if terminalreporter.verbosity < 0:  # -q: the header was not shown
        terminalreporter.write_line(_kernels())

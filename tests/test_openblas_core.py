"""numpy and scipy run the OpenBLAS kernel that the byte oracles assume.

``conftest.py`` pins the kernel before either library loads.  If that did not take
effect, for example because something loaded numpy first, the oracles would fail
with no change to the code; this test names the cause.
"""

from conftest import PINNED_CORE, kernels


def test_numpy_and_scipy_run_the_pinned_kernel():
    loaded = kernels()
    assert set(loaded.values()) == {PINNED_CORE}, (
        f"the byte oracles assume OpenBLAS core {PINNED_CORE}, but numpy runs "
        f"{loaded['numpy']} and scipy runs {loaded['scipy']}")

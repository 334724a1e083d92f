"""The benchmark's span tracer still finds every name it patches in rootcal.

``perfbench/tracer.py`` wraps functions at the names that ``engine``,
``acquisition``, ``metamodel``, ``rss``, ``core`` and ``cli`` look up.  A
rename in ``src/`` that it no longer finds would break the traced benchmark,
so this installs the tracer on the current package, checks that each name was
replaced, and checks that restoring puts every original back.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_restore_round_trip():
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        patched = list(tracer._undo)
        assert patched
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original, f"{owner.__name__}.{attr}"
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"

#!/usr/bin/env python3
"""The start-up of a benchmark run, on its own, for ``run.py`` to time.

    python3 perfbench/startup.py WORKLOAD WORKDIR

Does what a run does before its first calibration, at a fixed seed: imports
``run`` (which pins BLAS) and rootcal, writes the workload's config into
WORKDIR and loads it through the CLI, and builds the observation model.
"""

import sys

import run

sys.path.insert(0, str(run.ROOT / "src"))

import rootcal  # noqa: E402,F401
from workloads import Runner  # noqa: E402

Runner(sys.argv[1], run.WARM_SEED, sys.argv[2])

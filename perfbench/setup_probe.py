"""Time one cold set-up in a fresh interpreter and print it in seconds.

Usage: ``setup_probe.py <workload> <config file> <data file>`` (an empty
argument for a file the workload does not use), with the package on
``PYTHONPATH``.  Set-up is what a ``bench`` invocation pays before its
grid: importing ``plbag``, ``parse_config`` and loading the source.  numpy
is imported before the clock starts: it is the package's only dependency
and no change to the package can make its import faster.
"""

import sys
import time
from pathlib import Path

import workloads  # imports numpy, not plbag

name, config, data = sys.argv[1:4]
inputs = workloads.Inputs(Path(config) if config else None, Path(data) if data else None)
started = time.perf_counter()
import plbag  # noqa: E402,F401

workloads.setup(name, inputs)
print(time.perf_counter() - started)

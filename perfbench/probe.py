"""Set-up time of one workload, from a cold interpreter.

``python3 perfbench/probe.py <cfg>...`` with ``src`` on ``PYTHONPATH``
imports hjgen and loads each config (parse, symbolic derivatives, compiled
closures): everything a workload does before its first sweep.  Prints the
elapsed seconds.
"""

import sys
import time

start = time.perf_counter()
from hjgen.config import load_config  # noqa: E402  (the import is what is timed)

for path in sys.argv[1:]:
    load_config(path)
print(repr(time.perf_counter() - start))

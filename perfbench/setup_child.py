"""Time the fixed cost of one CLI invocation inside a fresh interpreter:
importing means_lab.cli and computing sharp_constants().

    python3 perfbench/setup_child.py

Prints one JSON object: wall seconds and seconds at the reference speed.
Before the timed block only ``speed`` and what the interpreter loads at
start-up are imported, so the import is measured as a CLI invocation pays it.
"""

import os
import sys

from speed import Stopwatch

# an import takes tens of milliseconds, so speed is sampled more often
SAMPLE_PERIOD_S = 0.005

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
watch = Stopwatch(SAMPLE_PERIOD_S)
watch.start()
import means_lab.cli  # noqa: E402

means_lab.cli.sharp_constants()
wall, ref = watch.stop()

import json  # noqa: E402

print(json.dumps({"wall": wall, "ref": ref}))

"""Set-up probe: python3 perfbench/probe.py WORKLOAD SEED

Imports flatact from the checkout, builds the workload's inputs exactly as
a benchmark run does, and prints the monotonic clock at that moment.  The
caller took the same clock just before starting this process, so the
difference is the set-up time: interpreter, imports and inputs.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
print(repr(time.monotonic()))

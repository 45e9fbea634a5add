"""The helpers that the benchmark scripts share (`benchmarks/benchrun.py`)."""

import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc")
def test_a_child_reads_its_own_peak_not_its_parents():
    # Linux carries ru_maxrss across exec from the process that forks, so
    # a child of a large process reads at least that process's size
    held = np.ones(64 << 20, dtype=np.uint8)  # 64 MB with every page touched
    code = ("import json, resource, sys; sys.path.insert(0, sys.argv[1]); "
            "from benchrun import peak_rss_mb; "
            "print(json.dumps([peak_rss_mb(), "
            "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]))")
    proc = subprocess.run([sys.executable, "-c", code, str(BENCHMARKS)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    peak, maxrss = json.loads(proc.stdout)
    assert held[-1] == 1
    assert peak < 48
    assert maxrss >= 64

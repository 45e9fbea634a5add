"""What every `BENCH_*.json` run records besides its timings.

`start_run()` gives the commit, whether the checkout is dirty, and for a
checkout with uncommitted changes to `src/` or `benchmarks/` the SHA-256
of `git diff HEAD` over those two directories (`source_diff`, null for a
clean checkout), which names the tree that ran; then the machine and its
load average.  `finish_run()` adds the load average after the run and
appends the run to the `runs` list of the output file, so one file can
hold runs of several checkouts: copy a script together with this module
into another checkout and point `--out` at the same file.  A script's
child processes read their peak memory with `peak_rss_mb()`.
"""

import hashlib
import json
import os
import platform
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*args):
    try:
        return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                              capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None


def _source_diff():
    diff = _git("diff", "HEAD", "--", "src", "benchmarks")
    # the same digest as `git diff HEAD -- src benchmarks | sha256sum`
    return hashlib.sha256(diff.encode()).hexdigest() if diff else None


def _machine():
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"platform": platform.platform(), "cpu": model or platform.processor(),
            "cores": os.cpu_count(), "python": platform.python_version()}


def peak_rss_mb():
    """The peak resident set of this process since it started (VmHWM), in
    MB.  Not ru_maxrss, which Linux carries across exec from the process
    that forked this one, so that a child started by a large process reads
    at least that process's size.  Read from /proc, so Linux only."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return round(int(line.split()[1]) / 1024, 1)


def start_run(**fields):
    """The run record before any timing; `fields` go after the machine."""
    run = {"commit": (_git("rev-parse", "--short", "HEAD") or "").strip() or None,
           "dirty": bool((_git("status", "--porcelain", "--untracked-files=no")
                          or "").strip()),
           "source_diff": _source_diff(),
           "machine": _machine()}
    run.update(fields)
    run["load_before"] = list(os.getloadavg())
    return run


def finish_run(run, out):
    run["load_after"] = list(os.getloadavg())
    data = {"runs": []}
    if os.path.exists(out):
        with open(out) as fh:
            data = json.load(fh)
    data["runs"].append(run)
    with open(out, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")

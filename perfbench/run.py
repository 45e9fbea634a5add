"""Benchmark of flatact, run from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is one of chain-d7, coset-e7, h2-bar, small-queries (see README.md).
A run repeats whole rounds of the workload's operations until S seconds
have passed and the workload's minimum number of rounds is done, checks
every answer after the clock has stopped, and prints one JSON object as
the last line of standard output: {"correct", "attempted", "failed",
"metrics"}.

With --trace 0 the metrics are wall_s (median time of a round, queries
only), setup_s (median of several fresh processes from start to inputs
ready) and peak_rss_mb (peak resident set of this process up to the end of
the timed rounds).  With --trace 1 each round is run once with the layer
wrappers of tracing.py and once plain, and the metrics are the per-layer
figures of tracing.PER_LAYER; the spans go to perfbench/out/.

Everything is single-process, single-threaded Python; the set-up probes
run one at a time before the workload starts.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 7


def _fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def _setup_samples(workload, seed):
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "probe.py"),
                               workload, str(seed)],
                              cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            _fail("set-up probe failed:\n" + proc.stderr)
        out.append(float(proc.stdout.split()[-1]) - t0)
    return out


def _run_round(ops, tracer=None):
    """Run every operation once.  Returns (query seconds, [(digest,
    error)]); digests are made after each query's clock has stopped."""
    state = {}
    wall = 0.0
    results = []
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            t0 = time.perf_counter()
            try:
                answer, err = op.query(state), None
            except Exception as exc:  # a raising query is a failed operation
                answer, err = None, "%s: %s" % (type(exc).__name__, exc)
            wall += time.perf_counter() - t0
            digest = None
            if err is None:
                try:
                    digest = op.digest(answer)
                except Exception as exc:
                    err = "digest %s: %s" % (type(exc).__name__, exc)
            results.append((digest, err))
            del answer
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, results


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "flatact", "__init__.py")):
        _fail("no flatact sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import flatact
    if os.path.dirname(os.path.dirname(os.path.abspath(flatact.__file__))) != SRC:
        _fail("flatact was imported from %s, not from the checkout" % flatact.__file__)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        _fail("unknown workload %r; one of %s" % (args.workload, ", ".join(workloads.WORKLOADS)))

    setup = [] if args.trace else _setup_samples(args.workload, args.seed)
    from flatact import fpgroups
    ops = workloads.build(args.workload, args.seed)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    rounds = []          # (traced, wall, results)
    start = time.monotonic()
    # A traced run times each round traced first, then plain; the traced
    # round pays any first-round cost, so the overhead it reports is an
    # upper bound.
    modes = (True, False) if tracer is not None else (False,)
    min_rounds = workloads.MIN_ROUNDS.get(args.workload, 1) * len(modes)
    while len(rounds) < min_rounds or time.monotonic() - start < args.seconds:
        for traced in modes:
            gc.collect()
            wall, results = _run_round(ops, tracer if traced else None)
            rounds.append((traced, wall, results))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import reference
    refs = reference.References(ROOT)
    attempted = failed = 0
    correct = True
    known = set()
    for _, _, results in rounds:
        for op, (digest, err) in zip(ops, results):
            attempted += 1
            problems = [err] if err else reference.check(op, digest, refs)
            if not problems:
                continue
            failed += 1
            if op.known_fault is None:
                correct = False
                print("WRONG %s: %s" % (op.name, "; ".join(problems)), file=sys.stderr)
            elif op.name not in known:
                known.add(op.name)
                print("KNOWN FAULT %s: %s" % (op.name, op.known_fault), file=sys.stderr)
    for problem in reference.self_test(ops, rounds[0][2], refs):
        correct = False
        print("SELF-TEST " + problem, file=sys.stderr)

    walls = [w for traced, w, _ in rounds if not traced]
    print("workload %s seed %d: %d rounds, engine %s, round walls %s"
          % (args.workload, args.seed, len(rounds), fpgroups.ENGINE,
             ["%.3f" % w for w in walls]), file=sys.stderr)
    if tracer is None:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        traced = [w for t, w, _ in rounds if t]
        metrics = tracer.metrics(len(traced), traced, walls, fpgroups.ENGINE)
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, "trace-%s-seed%d.json" % (args.workload, args.seed)),
                     {"workload": args.workload, "seed": args.seed, "engine": fpgroups.ENGINE,
                      "traced_rounds": len(traced)})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()

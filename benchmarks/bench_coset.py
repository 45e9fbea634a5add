"""Time the pure-Python and the compiled C Todd-Coxeter engines.

The cases are the enumerations that carry the `coset-e7` workload's time:
the 241,920 cosets of <s1,s2,s3> in the Weyl group of E7 and the regular
tables of S5..S8, run on both engines, and the whole Weyl group of E7
(2,903,040 cosets, about 150 s on the pure engine) on the compiled one
only.  Each case times the engine call (`pure_s`, `compiled_s`) and,
apart, the table validation that `todd_coxeter` adds (`pure_validate_s`
for the numpy check after the pure engine, `compiled_validate_s` for the
check `todd_coxeter` runs on the compiled engine's table), and records
the coset count and the SHA-256 of the table; both engines must give
byte-identical tables.  The pure engine runs in this process.  Each
compiled case runs in a fresh child process, one at a time, which also
records the child's peak resident set (the interpreter and the imports
included, about 30 MB; read from /proc, so Linux only): `peak_rss_mb`
right after the engine, and `repeat_peak_rss_mb` after the table has
been validated, hashed and dropped and the enumeration and validation
run a second time, which shows whether a later enumeration in the same
process needs more memory than the first.  On a checkout without the
compiled engine the compiled fields are null and the full E7 case is
left out.

The run record also holds what `benchrun.start_run` records (machine,
load, commit, `source_diff`) and the engine `fpgroups` loaded; it is
appended to the output file.

Usage: python3 benchmarks/bench_coset.py [--out BENCH_coset.json]
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

from benchrun import ROOT, finish_run, peak_rss_mb, start_run

sys.path.insert(0, os.path.join(ROOT, "src"))

from flatact import fpgroups  # noqa: E402

E7 = fpgroups.e7_weyl_presentation()
CASES = [("E7/<s1,s2,s3>", E7, [(1,), (2,), (3,)], True)]
CASES += [("S%d" % n, fpgroups.symmetric_presentation(n), [], True) for n in range(5, 9)]
CASES += [("E7", E7, [], False)]
LIMIT = 10 ** 7


def _time(fn, g, sub):
    rels = [fpgroups.word_to_letters(w) for w in g.relators]
    subs = [fpgroups.word_to_letters(w) for w in sub]
    t0 = time.perf_counter()
    table = fn(g.ngens, rels, subs, LIMIT)
    return table, round(time.perf_counter() - t0, 5)


def _time_check(check, g, table):
    t0 = time.perf_counter()
    check(g, table)
    return round(time.perf_counter() - t0, 5)


def _sha(table):
    # hashed through the buffer, so the table is not copied
    return hashlib.sha256(table.data).hexdigest()


def child(name):
    """Run one case on the compiled engine in this process, twice, and
    print its record as JSON."""
    _, g, sub, _ = next(c for c in CASES if c[0] == name)
    # the check todd_coxeter runs, on checkouts with and without fa_validate
    check = getattr(fpgroups, "_validate", fpgroups._validate_table)
    table, seconds = _time(fpgroups._enumerate_compiled, g, sub)
    peak = peak_rss_mb()
    rec = {"compiled_s": seconds, "compiled_validate_s": _time_check(check, g, table),
           "cosets": table.shape[0], "table_sha256": _sha(table), "peak_rss_mb": peak}
    del table
    table, _ = _time(fpgroups._enumerate_compiled, g, sub)
    check(g, table)
    rec["repeat_peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(rec))


def run_compiled(name):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", name],
                          capture_output=True, text=True, check=True, env=env)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_coset.json"))
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        child(args.child)
        return

    compiled = fpgroups.ENGINE == "compiled"
    run = start_run(engine=fpgroups.ENGINE, cases=[])
    for name, g, sub, with_pure in CASES:
        if not (with_pure or compiled):
            continue
        rec = {"case": name, "pure_s": None, "pure_validate_s": None,
               "compiled_s": None, "compiled_validate_s": None,
               "peak_rss_mb": None, "repeat_peak_rss_mb": None}
        if with_pure:
            table, rec["pure_s"] = _time(fpgroups._enumerate_pure, g, sub)
            rec["pure_validate_s"] = _time_check(fpgroups._validate_table, g, table)
            rec["cosets"], rec["table_sha256"] = table.shape[0], _sha(table)
            del table
        if compiled:
            comp = run_compiled(name)
            sha = comp["table_sha256"]
            assert rec.get("table_sha256", sha) == sha, "engines disagree on %s" % name
            rec.update(comp)
        print(json.dumps(rec), flush=True)
        run["cases"].append(rec)
    finish_run(run, args.out)


if __name__ == "__main__":
    main()

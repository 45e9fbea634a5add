"""Time the pure-Python and the compiled C Todd-Coxeter engines.

The cases are the enumerations that carry the `coset-e7` workload's time:
the 241,920 cosets of <s1,s2,s3> in the Weyl group of E7 and the regular
tables of S5..S8, run on both engines, and the whole Weyl group of E7
(2,903,040 cosets, about 150 s on the pure engine) on the compiled one
only.  Each case times the engine call alone (not the table validation
that `todd_coxeter` adds), asserts that both engines give byte-identical
tables, and records the coset count, the seconds of each engine and the
SHA-256 of the table.  On a checkout without the compiled engine the
compiled fields are null and the full E7 case is left out.

The run record also holds what `benchrun.start_run` records (machine,
load, commit, `source_diff`) and the engine `fpgroups` loaded; it is
appended to the output file.

Usage: python3 benchmarks/bench_coset.py [--out BENCH_coset.json]
"""

import argparse
import hashlib
import json
import os
import sys
import time

from benchrun import ROOT, finish_run, start_run

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


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_coset.json"))
    args = ap.parse_args()

    compiled = fpgroups.ENGINE == "compiled"
    run = start_run(engine=fpgroups.ENGINE, cases=[])
    for name, g, sub, with_pure in CASES:
        if not (with_pure or compiled):
            continue
        rec = {"case": name, "pure_s": None, "compiled_s": None}
        tables = []
        if with_pure:
            table, rec["pure_s"] = _time(fpgroups._enumerate_pure, g, sub)
            tables.append(table)
        if compiled:
            table, rec["compiled_s"] = _time(fpgroups._enumerate_compiled, g, sub)
            tables.append(table)
        assert all(t.dtype == tables[0].dtype and t.tobytes() == tables[0].tobytes()
                   for t in tables), "engines disagree on %s" % name
        rec["cosets"] = tables[0].shape[0]
        rec["table_sha256"] = hashlib.sha256(tables[0].tobytes()).hexdigest()
        del table, tables
        print(json.dumps(rec), flush=True)
        run["cases"].append(rec)
    finish_run(run, args.out)


if __name__ == "__main__":
    main()

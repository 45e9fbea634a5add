"""Time the stabilizer chains and the epimorphism searches of the
dimension-7 chain onto A9.

First `chains`: for S4, A9, W(E7) on 56 points, W(E8) on its 240 roots,
C300 and C2000, the best of repeated `PermGroup` constructions from the
generators (`build_s`, at least 3 runs and about 0.5 s) and of
`_sorted_rows`, the sorted element rows, on freshly built groups
(`sorted_rows_s`; null for W(E8), which is over the enumeration limit),
with the order and the level count.  Then the stages before the
searches: `screen_s`, the order screening of dimensions 3..24, and
`low_index_s`, the low-index search of W(E7) to index 16, with its class
count, `fpgroups.ENGINE` and `workers`, the
threads the compiled search may split across (`fpgroups.workers()`; 1 on
checkouts whose search runs on one thread).  Then, for the
index-2 and the index-1 class of that search, build the subgroup exactly
as `screening.a9_chain` does, and time on a fresh A9 the
`epimorphism_search` call alone (`wall_s`), which is what one chain
search costs: the search builds the element index it reads.  With it
goes `indexed_rows`, the rows of that index: the elements of A9 whose
order divides the lcm of the orders of the search's generators, or all
of A9 on checkouts whose search indexes every element.

It then times the whole chain, `screening.a9_chain()`, with the node
counts and the verdict it reports, and the SHA-256 of the report as JSON
with sorted keys (`report_sha256`; the report holds no timings).  The
record also holds `nodes`, the surjections found, and what
`benchrun.start_run` records (machine, load, commit, `source_diff`); it
is appended to the output file.

Usage: python3 benchmarks/bench_epi.py [--out BENCH_epi.json]
"""

import argparse
import hashlib
import itertools
import json
import math
import os
import sys
import time

from benchrun import ROOT, finish_run, start_run

sys.path.insert(0, os.path.join(ROOT, "src"))

from flatact import fpgroups, screening  # noqa: E402
from flatact.groups import ElementIndex, Permutation, PermGroup  # noqa: E402


def class_subgroups(classes, indices):
    """(index, subgroup) for the low-index classes of W(E7) with the given
    indices, in that order, each subgroup built from its Schreier generators as
    `screening.a9_chain` builds it."""
    group, _ = screening.e7_weyl_permutation_group()
    gens = group.generators()
    out = {}
    for ct, words in classes:
        if ct.index not in indices or ct.index in out:
            continue
        if ct.index == 1:
            out[1] = group
            continue
        sub_gens = []
        for letters in (fpgroups.word_to_letters(w) for w in words):
            p = Permutation.identity(group.degree)
            for x in letters:
                q = gens[x // 2]
                p = p * (q if x % 2 == 0 else q.inverse())
            sub_gens.append(p)
        out[ct.index] = PermGroup(sub_gens, degree=group.degree)
    return [(i, out[i]) for i in indices if i in out]


def e8_weyl_generators():
    """The reflections in Bourbaki's simple roots of E8 as permutations of
    its 240 roots, in doubled coordinates: 2(+-e_i +- e_j), and the
    (+-1, ..., +-1) with an even number of minus signs."""
    roots = [signs for signs in itertools.product((1, -1), repeat=8)
             if signs.count(-1) % 2 == 0]
    for i, j in itertools.combinations(range(8), 2):
        for a, b in itertools.product((2, -2), repeat=2):
            v = [0] * 8
            v[i], v[j] = a, b
            roots.append(tuple(v))
    roots.sort()
    at = {v: k for k, v in enumerate(roots)}
    simple = [(1, -1, -1, -1, -1, -1, -1, 1), (2, 2, 0, 0, 0, 0, 0, 0)]
    simple += [tuple(-2 if k == i else 2 if k == i + 1 else 0 for k in range(8))
               for i in range(6)]

    def reflect(v, a):
        c = sum(x * y for x, y in zip(v, a)) // 4
        return tuple(x - c * y for x, y in zip(v, a))

    return [Permutation(tuple(at[reflect(v, a)] for v in roots)) for a in simple]


def chain_groups():
    """(name, generators) of the groups whose chains are timed."""
    return [("S4", PermGroup.symmetric(4).generators()),
            ("A9", PermGroup.alternating(9).generators()),
            ("W(E7)", screening.e7_weyl_permutation_group()[0].generators()),
            ("W(E8)", e8_weyl_generators()),
            ("C300", PermGroup.cyclic(300).generators()),
            ("C2000", PermGroup.cyclic(2000).generators())]


def best_time(fn, setup):
    """The least time of fn(setup()) over at least 3 runs and about 0.5 s,
    with the number of runs."""
    best, spent, runs = float("inf"), 0.0, 0
    while runs < 3 or spent < 0.5:
        arg = setup()
        t0 = time.perf_counter()
        fn(arg)
        t = time.perf_counter() - t0
        best, spent, runs = min(best, t), spent + t, runs + 1
    return best, runs


def time_chains():
    out = []
    for name, gens in chain_groups():
        degree = gens[0].degree
        group = PermGroup(gens, degree=degree)
        build, build_runs = best_time(lambda _: PermGroup(gens, degree=degree), lambda: None)
        rec = {"group": name, "degree": degree, "order": group.order(),
               "levels": len(group.chain.levels), "build_s": round(build, 6),
               "build_runs": build_runs, "sorted_rows_s": None, "sorted_rows_runs": None}
        if group.order() <= 4_000_000:
            rows, rows_runs = best_time(lambda g: g._sorted_rows(),
                                        lambda: PermGroup(gens, degree=degree))
            rec.update(sorted_rows_s=round(rows, 6), sorted_rows_runs=rows_runs)
        print(json.dumps(rec), flush=True)
        out.append(rec)
    return out


def indexed_rows(result, target):
    """The rows of the element index that the search read: the elements
    whose order divides the lcm of its generators' orders, or every
    element where `ElementIndex` takes no exponent."""
    exponent = math.lcm(*(g.order() for g in result.source_generators))
    try:
        return len(ElementIndex(target, exponent).rows)
    except TypeError:
        return target.order()


def time_search(sub):
    a9 = PermGroup.alternating(9)
    t0 = time.perf_counter()
    result = screening.epimorphism_search(sub, a9)
    t1 = time.perf_counter()
    return {"subgroup_order": sub.order(), "nodes": result.nodes,
            "epimorphisms": len(result.epimorphisms),
            "indexed_rows": indexed_rows(result, a9), "wall_s": round(t1 - t0, 3)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_epi.json"))
    args = ap.parse_args()

    run = start_run(searches=[])
    run["chains"] = time_chains()
    t0 = time.perf_counter()
    screening.screen_dimensions(screening.ImfCatalog.load())
    t1 = time.perf_counter()
    classes = fpgroups.low_index_subgroups(fpgroups.e7_weyl_presentation(), 16)
    t2 = time.perf_counter()
    run["stages"] = {"screen_s": round(t1 - t0, 3), "low_index_s": round(t2 - t1, 3),
                     "low_index_classes": len(classes), "engine": fpgroups.ENGINE,
                     "workers": getattr(fpgroups, "workers", lambda: 1)()}
    print(json.dumps(run["stages"]), flush=True)
    for index, sub in class_subgroups(classes, (2, 1)):
        rec = dict(index=index, **time_search(sub))
        print(json.dumps(rec), flush=True)
        run["searches"].append(rec)
    t0 = time.perf_counter()
    report = screening.a9_chain()
    run["a9_chain"] = {
        "wall_s": round(time.perf_counter() - t0, 3),
        "nodes": {s["index"]: s["nodes"] for s in report["epimorphism_searches"]},
        "no_a9_action_in_dimension_7": report["no_a9_action_in_dimension_7"],
        "report_sha256": hashlib.sha256(
            json.dumps(report, sort_keys=True).encode()).hexdigest()}
    print(json.dumps(run["a9_chain"]), flush=True)
    finish_run(run, args.out)


if __name__ == "__main__":
    main()

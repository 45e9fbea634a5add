"""Time the Hermite normal form (`zlinalg.hermite_normal_form`) and the
H^1 whose kernels run through it.

First, for each seeded suite of SUITE_SIZE matrices of 8 rows (see
SUITES), in this process:

* `hnf_s` -- `hermite_normal_form` over the whole suite, best of REPEATS;
* `u_max_bits` and `h_max_bits` -- the largest entry of the transforms u
  and of the forms h, in bits;
* `h_sha256` -- the SHA-256 of the forms h, which are unique, so every
  checkout must print the same.

Then H^1 (`cohomology.h1`) of C16 and C32 on Z^12 through a dense action
(the modules of `bench_h2.py`): `wall_s` for the `h1` call alone, module
built beforehand, and its `invariant_factors`.

The run record also holds what `benchrun.start_run` records (machine,
load, commit, `source_diff`); it is appended to the output file.

Usage: python3 benchmarks/bench_normal_forms.py [--out BENCH_hnf.json]
"""

import argparse
import hashlib
import json
import os
import random
import sys
import time

from benchrun import ROOT, finish_run, start_run

sys.path.insert(0, os.path.join(ROOT, "src"))

from bench_h2 import CASES  # noqa: E402
from flatact.cohomology import h1  # noqa: E402
from flatact.zlinalg import IntMatrix, hermite_normal_form  # noqa: E402

SUITE_SIZE = 200
REPEATS = 3
H1_CASES = ["C16 on Z^12, dense", "C32 on Z^12, dense"]


def _random(rows, cols, span, density=1.0):
    """rows x cols matrices with entries in [-span, span], each one nonzero
    with probability about `density`."""
    def make(rng):
        return [[rng.randint(-span, span) if rng.random() < density else 0
                 for _ in range(cols)] for _ in range(rows)]
    return make


def _rank_4(rng):
    """An 8 x 8 matrix of rank at most 4: an 8 x 4 by a 4 x 8 product."""
    a = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(8)]
    b = [[rng.randint(-5, 5) for _ in range(8)] for _ in range(4)]
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


# (name, seed, one matrix from a random.Random).  A matrix whose rows are
# independent has one transform; one of lower rank than its row count has
# many, and shows how large the transform a method picks can grow.
SUITES = [
    ("8x8 in [-20, 20]", 1, _random(8, 8, 20)),
    ("8x6 in [-20, 20]", 2, _random(8, 6, 20)),
    ("8x8 in [-5, 5], 30 % nonzero", 3, _random(8, 8, 5, 0.3)),
    ("8x8 of rank 4", 4, _rank_4),
]


def time_suite(seed, make):
    rng = random.Random(seed)
    mats = [IntMatrix.from_rows(make(rng)) for _ in range(SUITE_SIZE)]
    best = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        forms = [hermite_normal_form(m) for m in mats]
        wall = time.perf_counter() - t0
        best = wall if best is None else min(best, wall)

    def bits(part):
        return max(abs(x).bit_length() for f in forms for r in f[part].data for x in r)
    return {"matrices": SUITE_SIZE, "hnf_s": round(best, 4),
            "u_max_bits": bits(1), "h_max_bits": bits(0),
            "h_sha256": hashlib.sha256(
                repr([h.data for h, _ in forms]).encode()).hexdigest()}


def time_h1(name):
    module = dict(CASES)[name]()
    t0 = time.perf_counter()
    coh = h1(module, group_bound=module.group.order(), rank_bound=module.rank)
    return {"wall_s": round(time.perf_counter() - t0, 3),
            "invariant_factors": list(coh.group.invariant_factors)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_hnf.json"))
    args = ap.parse_args()

    run = start_run(suite_size=SUITE_SIZE, repeats=REPEATS, suites=[], h1=[])
    for name, seed, make in SUITES:
        rec = dict(suite=name, seed=seed, **time_suite(seed, make))
        print(json.dumps(rec), flush=True)
        run["suites"].append(rec)
    for name in H1_CASES:
        rec = dict(case=name, **time_h1(name))
        print(json.dumps(rec), flush=True)
        run["h1"].append(rec)
    finish_run(run, args.out)


if __name__ == "__main__":
    main()

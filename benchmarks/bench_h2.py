"""Time H^2 (`cohomology.h2`) over a fixed set of modules.

Every case runs in a fresh child process, one at a time, with an
address-space limit of MEMORY_MB and a wall-clock limit of TIMEOUT_S.
A case records:

* `wall_s` -- the `h2` call alone, module built beforehand;
* `peak_rss_mb` -- the child's peak resident set (the interpreter and
  the imports included, about 30 MB; read from /proc, so Linux only);
* `invariant_factors` of the H^2 it computed;
* `status` -- "ok", "timeout" (killed at TIMEOUT_S), "memory" (a
  MemoryError under MEMORY_MB) or "error".

The cases are the `h2` rows of the ROADMAP baseline (C8, C12, C16 and C24
on Z, C16 on Z^2, the dihedral group of order 8 on its permutation module
Z^4), A4 and S4 on their permutation modules Z^4, and envelope probes:
cyclic groups of order 32, 48 and 64 on Z, rank sweeps of C16 and C32,
C64 on Z^4, cyclic groups acting on Z^4, Z^8 and Z^12 through dense
matrices (a permutation conjugated by a dense unimodular matrix), and the
elementary abelian groups of order 16, 32 and 64, which have the most
generators a group of their order can need.  Then finite coefficients,
whose cocycle lattice has full rank, so that H^2 solves and reduces
dense square matrices of the cochain dimension: the finite module of the
A4 torus certificate (C3 on (Z/2)^2), C16 on Z/2, (Z/2)^4, (Z/4)^8 and
(Z/2)^8 (trivially and through a dense matrix), C2^4 on (Z/2)^8, and
outside the default bounds of `cohomology.h2` (order 16, rank 8) C32 on
Z/2 and (Z/2)^8.  Last, groups with more elements than the bar complex
could reach: the symmetric groups S5 and S6 on their permutation modules
Z^5 and Z^6, S5 on (Z/2)^5, and C2^6 on (Z/2)^8.

The run record also holds what `benchrun.start_run` records (machine,
load, commit, `source_diff`); it is appended to the output file.

Usage: python3 benchmarks/bench_h2.py [--out BENCH_h2.json]
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

from benchrun import ROOT, finish_run, peak_rss_mb, start_run

sys.path.insert(0, os.path.join(ROOT, "src"))

from flatact.certificates import (abelian_identification,  # noqa: E402
                                  build_a4_certificate)
from flatact.cohomology import ZQModule, extension_class, h2  # noqa: E402
from flatact.groups import PermGroup, TableGroup  # noqa: E402
from flatact.zlinalg import FinAbGroup, IntMatrix  # noqa: E402

TIMEOUT_S = 60
MEMORY_MB = 1536


def _module(group, mats, factors):
    """Z^n, or (Z/f_1 x ... x Z/f_n) for a tuple of factors."""
    if factors is None:
        return ZQModule.lattice(group, mats)
    return ZQModule.finite(group, FinAbGroup(factors), mats)


def _cyclic(order, rank, factors=None):
    return lambda: _module(TableGroup.cyclic(order), [IntMatrix.identity(rank)],
                           factors)


def _elementary_abelian(k, rank, factors=None):
    def build():
        els = [tuple((x >> i) & 1 for i in range(k)) for x in range(2 ** k)]
        group = TableGroup.from_function(
            els, lambda a, b: tuple((x + y) % 2 for x, y in zip(a, b)), els[0])
        return _module(group, [IntMatrix.identity(rank) for _ in group.generators()],
                       factors)
    return build


def _dense_cycles(order, lengths, factors=None):
    """C_order acting on Z^n (or on its quotient by `factors`),
    n = sum(lengths), by a permutation with the given cycle lengths (each
    dividing the order) conjugated by the dense unimodular matrix
    P = (upper unitriangular ones)(lower unitriangular ones), so that every
    action matrix is dense."""
    n = sum(lengths)
    images, start = [], 0
    for length in lengths:
        images += [start + (i + 1) % length for i in range(length)]
        start += length
    perm = IntMatrix.from_rows([[1 if images[j] == i else 0 for j in range(n)]
                                for i in range(n)])
    upper = IntMatrix.from_rows([[int(j >= i) for j in range(n)] for i in range(n)])
    upper_inv = IntMatrix.from_rows([[int(i == j) - int(j == i + 1) for j in range(n)]
                                     for i in range(n)])
    p, p_inv = upper * upper.transpose(), upper_inv.transpose() * upper_inv
    return lambda: _module(TableGroup.cyclic(order), [p_inv * perm * p], factors)


def _permutation_module(gens, factors=None):
    degree = len(gens[0])

    def build():
        mats = [IntMatrix.from_rows([[1 if g[j] == i else 0 for j in range(degree)]
                                     for i in range(degree)]) for g in gens]
        return _module(PermGroup(gens, degree=degree), mats, factors)
    return build


def _symmetric(n, factors=None):
    """S_n on its permutation module, generated by an n-cycle and a
    transposition."""
    return _permutation_module([tuple(range(1, n)) + (0,), (1, 0) + tuple(range(2, n))],
                               factors)


def _a4_certificate_finite():
    """The finite module A = (Z/2)^2 of the A4 torus certificate, over
    Q = A4/A = C3, as its verifier builds it."""
    cert = build_a4_certificate()
    a_els, a_group, ident = abelian_identification(cert.group, cert.a_generators)
    return extension_class(cert.group, a_els, ident, a_group).module


CASES = [
    ("C8 on Z", _cyclic(8, 1)),
    ("C12 on Z", _cyclic(12, 1)),
    ("C16 on Z", _cyclic(16, 1)),
    ("C24 on Z", _cyclic(24, 1)),
    ("C16 on Z^2", _cyclic(16, 2)),
    ("D4 on Z^4", _permutation_module([(1, 2, 3, 0), (2, 1, 0, 3)])),
    ("A4 on Z^4", _permutation_module([(1, 2, 0, 3), (0, 2, 3, 1)])),
    ("S4 on Z^4", _permutation_module([(1, 2, 3, 0), (1, 0, 2, 3)])),
    ("C32 on Z", _cyclic(32, 1)),
    ("C48 on Z", _cyclic(48, 1)),
    ("C64 on Z", _cyclic(64, 1)),
    ("C16 on Z^4", _cyclic(16, 4)),
    ("C16 on Z^8", _cyclic(16, 8)),
    ("C16 on Z^12", _cyclic(16, 12)),
    ("C32 on Z^4", _cyclic(32, 4)),
    ("C32 on Z^8", _cyclic(32, 8)),
    ("C64 on Z^4", _cyclic(64, 4)),
    ("C16 on Z^8, dense", _dense_cycles(16, [8])),
    ("C16 on Z^12, dense", _dense_cycles(16, [8, 4])),
    ("C24 on Z^8, dense", _dense_cycles(24, [8])),
    ("C32 on Z^4, dense", _dense_cycles(32, [4])),
    ("C32 on Z^8, dense", _dense_cycles(32, [8])),
    ("C2^4 on Z^8", _elementary_abelian(4, 8)),
    ("C2^5 on Z^4", _elementary_abelian(5, 4)),
    ("C2^5 on Z^8", _elementary_abelian(5, 8)),
    ("C32 on Z^12, dense", _dense_cycles(32, [8, 4])),
    ("C2^6 on Z^4", _elementary_abelian(6, 4)),
    ("A4 certificate, C3 on (Z/2)^2", _a4_certificate_finite),
    ("C16 on Z/2", _cyclic(16, 1, (2,))),
    ("C16 on (Z/2)^4", _cyclic(16, 4, (2,) * 4)),
    ("C16 on (Z/4)^8", _cyclic(16, 8, (4,) * 8)),
    ("C16 on (Z/2)^8", _cyclic(16, 8, (2,) * 8)),
    ("C16 on (Z/2)^8, dense", _dense_cycles(16, [8], (2,) * 8)),
    ("C2^4 on (Z/2)^8", _elementary_abelian(4, 8, (2,) * 8)),
    ("C32 on Z/2", _cyclic(32, 1, (2,))),
    ("C32 on (Z/2)^8", _cyclic(32, 8, (2,) * 8)),
    ("S5 on Z^5", _symmetric(5)),
    ("S6 on Z^6", _symmetric(6)),
    ("S5 on (Z/2)^5", _symmetric(5, (2,) * 5)),
    ("C2^6 on (Z/2)^8", _elementary_abelian(6, 8, (2,) * 8)),
]


def child(name):
    """Run one case in this process and print its record as JSON."""
    limit = MEMORY_MB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    module = dict(CASES)[name]()
    t0 = time.perf_counter()
    try:
        coh = h2(module, group_bound=module.group.order(), rank_bound=module.rank)
    except MemoryError:
        print(json.dumps({"status": "memory"}))
        return
    wall = time.perf_counter() - t0
    print(json.dumps({
        "status": "ok", "wall_s": round(wall, 3),
        "peak_rss_mb": peak_rss_mb(),
        "invariant_factors": list(coh.group.invariant_factors)}))


def run_case(name):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    rec = {"case": name, "status": "error", "wall_s": None, "peak_rss_mb": None,
           "invariant_factors": None}
    try:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", name],
            capture_output=True, text=True, timeout=TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        rec["status"] = "timeout"
        return rec
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        rec.update(json.loads(lines[-1]))
    else:
        rec["error"] = proc.stderr.strip().splitlines()[-1:] or None
    return rec


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_h2.json"))
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        child(args.child)
        return

    run = start_run(timeout_s=TIMEOUT_S, memory_mb=MEMORY_MB, cases=[])
    for name, _ in CASES:
        rec = run_case(name)
        print(json.dumps(rec), flush=True)
        run["cases"].append(rec)
    finish_run(run, args.out)


if __name__ == "__main__":
    main()

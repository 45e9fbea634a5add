"""Independent answer checks.

Nothing here calls flatact to obtain an expected value.  Group orders come
from `sympy.combinatorics` (Schreier-Sims) or from theory; the orders of
the E7 parabolic subgroups from the permutation action of the simple
reflections on the 126 roots of E7; the screening hits from a separate
enumeration of the shipped catalogue; Smith forms from
`sympy.matrices.normalforms`.  The one exception is the cross-check of
cyclic H^2 against flatact's periodic-resolution engine
`CyclicCohomology`, which shares no code with the bar complex.  Checks
that need the answer's own objects (a coset table, a torsion witness) run
on them with the code below, not with flatact's.

sympy is imported only when a check first needs it, after the timed
phase, so it is in neither the set-up time nor the peak memory.

`check(op, digest, refs)` returns a list of problems (empty when the
answer is right); `self_test` feeds every check a wrong answer.
"""

import copy
import itertools
import math
import os

import numpy as np


# ---------------------------------------------------------------------------
# helpers the workloads call while digesting an answer (no sympy)

def coset_table_properties(table, relators, subgroup_words):
    """Closedness, relators and subgroup generators of a coset table, from
    the table alone."""
    n, nl = table.shape
    ident = np.arange(n)

    def col(s):
        return 2 * (s - 1) if s > 0 else 2 * (-s - 1) + 1

    closed = bool(((table >= 0) & (table < n)).all()) and all(
        np.array_equal(table[table[:, x], x ^ 1], ident) for x in range(nl))
    relators_hold = closed
    for w in relators if closed else ():
        cur = ident
        for s in w:
            cur = table[cur, col(s)]
        relators_hold = relators_hold and bool(np.array_equal(cur, ident))
    fixes = True
    for w in subgroup_words if closed else ():
        c = 0
        for s in w:
            c = int(table[c, col(s)])
        fixes = fixes and c == 0
    return {"closed": closed, "relators_hold": relators_hold, "fixes_subgroup": fixes}


def power_is_identity(x, phi, group, act_matrix, cocycle_value):
    """Whether (x, phi) has prime order in the crystallographic group,
    multiplied out by hand: (v, g)(w, h) = (v + g.w + c(g, h), gh)."""
    e = group.identity()
    v, g = (0,) * len(x), e
    for k in range(1, 10 ** 4):
        a = act_matrix(g).data
        c = cocycle_value(g, phi)
        v = tuple(vi + sum(aij * xj for aij, xj in zip(row, x)) + ci
                  for vi, row, ci in zip(v, a, c))
        g = group.multiply(g, phi)
        if g == e:
            return _is_prime(k) and not any(v)
    return False


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


# ---------------------------------------------------------------------------
# reference values, computed on first use and kept for the run

E7_COXETER_DEGREES = (2, 6, 8, 10, 12, 14, 18)
# Bourbaki numbering: node 2 hangs off node 4 of the chain 1-3-4-5-6-7
E7_EDGES = [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)]


class References:
    def __init__(self, root):
        self.root = root
        self._orders = {}
        self._e7_reflections = None
        self._hits = None
        self._snf = {}
        self._cyclic = {}

    def order(self, gens):
        """Order of the permutation group generated by image lists."""
        key = tuple(tuple(g) for g in gens)
        if key not in self._orders:
            from sympy.combinatorics import Permutation, PermutationGroup
            self._orders[key] = int(PermutationGroup(
                [Permutation(list(g)) for g in key]).order())
        return self._orders[key]

    def e7_parabolic_order(self, subset):
        """|W_J| for J a set of E7 simple reflections (all seven: |W|)."""
        if self._e7_reflections is None:
            self._e7_reflections = _e7_root_reflections()
        return self.order([self._e7_reflections[i - 1] for i in sorted(subset)]) \
            if subset else 1

    def screening_hits(self):
        if self._hits is None:
            path = os.path.join(self.root, "src", "flatact", "data", "imf_orders.txt")
            with open(path) as fh:
                self._hits = _screen(fh.read(), range(3, 25))
        return self._hits

    def smith_diagonal(self, rows):
        key = tuple(tuple(r) for r in rows)
        if key not in self._snf:
            from sympy import Matrix
            from sympy.matrices.normalforms import smith_normal_form
            from sympy.polys.domains import ZZ
            d = smith_normal_form(Matrix(rows), domain=ZZ)
            self._snf[key] = [abs(int(d[i, i])) for i in range(min(d.shape))]
        return self._snf[key]

    def cyclic_h2(self, m, rank):
        """H^2 of C_m on Z^rank (trivial action) by the periodic resolution."""
        if (m, rank) not in self._cyclic:
            from flatact.cohomology import CyclicCohomology
            from flatact.zlinalg import IntMatrix
            self._cyclic[m, rank] = list(
                CyclicCohomology(m, IntMatrix.identity(rank)).group.invariant_factors)
        return self._cyclic[m, rank]

    def shapiro_h2(self, gens):
        """H^2(G; Z[G/H]) = H^2(H; Z) = the dual of H's abelianization, for
        G transitive on the points and H a point stabilizer; only cyclic H
        is used here, where that is Z/|H|."""
        from sympy.combinatorics import Permutation, PermutationGroup
        g = PermutationGroup([Permutation(list(x)) for x in gens])
        stab = g.stabilizer(0)
        if not g.is_transitive() or not stab.is_cyclic:
            return None
        return [int(stab.order())] if stab.order() > 1 else []


def _e7_root_reflections():
    """The simple reflections of E7 as permutations of its 126 roots, in
    simple-root coordinates: s_i(v) = v - <v, a_i> a_i."""
    n = 7
    cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for a, b in E7_EDGES:
        cartan[a - 1][b - 1] = cartan[b - 1][a - 1] = -1

    def reflect(v, i):
        c = sum(v[j] * cartan[j][i] for j in range(n))
        return tuple(v[j] - (c if j == i else 0) for j in range(n))

    roots = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    seen = set(roots)
    k = 0
    while k < len(roots):
        for i in range(n):
            w = reflect(roots[k], i)
            if w not in seen:
                seen.add(w)
                roots.append(w)
        k += 1
    index = {r: p for p, r in enumerate(roots)}
    return [[index[reflect(r, i)] for r in roots] for i in range(n)]


def _screen(text, dims):
    """Partition-wise order screening of a catalogue text, enumerated
    here: a hit is a choice of one order per part whose product is
    divisible by |A_{k+2}|."""
    orders = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            k, tail = line.split(":", 1)
            orders[int(k)] = [int(t) for t in tail.split()]
    hits = []
    for k in dims:
        target = math.factorial(k + 2) // 2
        for part in _partitions(k, k):
            for choice in itertools.product(*(orders[p] for p in part)):
                if math.prod(choice) % target == 0:
                    hits.append([k, list(part), list(choice)])
    return sorted(hits)


def _partitions(n, cap):
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# integer matrices, by hand

def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _det(m):
    """Determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def _unimodular(m):
    return len(m) == len(m[0]) and abs(_det(m)) == 1


def _is_hermite(h):
    """Row echelon form, positive pivots, entries above a pivot in
    [0, pivot), zero rows last."""
    last = -1
    zero_seen = False
    for i, row in enumerate(h):
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            zero_seen = True
            continue
        j = nz[0]
        if zero_seen or j <= last or row[j] <= 0:
            return False
        if any(not 0 <= h[r][j] < row[j] for r in range(i)):
            return False
        last = j
    return True


# ---------------------------------------------------------------------------
# the checks, one per operation kind

def _check_screening(p, d, ref):
    want = ref.screening_hits()
    return [] if d == want else ["screening hits %s, expected %s" % (d, want)]


def _check_e7_perm(p, d, ref):
    w = ref.e7_parabolic_order(range(1, 8))
    out = []
    if w != math.prod(E7_COXETER_DEGREES):
        out.append("|W(E7)| from the roots is %d, not the degree product" % w)
    if d["degree"] != 56 or d["index"] != w // ref.e7_parabolic_order(range(1, 7)):
        out.append("E7 acts on %d points, not on the 56 cosets of W(E6)" % d["degree"])
    if d["order"] != w or ref.order(d["gens"]) != w:
        out.append("order %d (sympy %d), expected %d" % (d["order"], ref.order(d["gens"]), w))
    return out


def _check_low_index(p, d, ref):
    # W(E7) = C2 x Sp(6,2) with Sp(6,2) simple of minimal index 28, so the
    # subgroups of index <= 16 are the whole group and Sp(6,2) alone.
    out = []
    if d["indices"] != [1, 2]:
        out.append("class indices %s, expected [1, 2]" % d["indices"])
    if d["filtered"] != [1, 2]:
        out.append("filtered indices %s, expected [1, 2]" % d["filtered"])
    return out


def _check_epi(p, d, ref):
    n = p["n"]
    target_order = math.factorial(n) // (2 if p["target"] == "A" else 1)
    source = p.get("source") or d["source"]
    source_order = ref.order(source)
    out = []
    if "source" in d and source_order != ref.e7_parabolic_order(range(1, 8)) // 2:
        out.append("index-2 subgroup has order %d" % source_order)
    if ref.order(d["source_gens"]) != source_order:
        out.append("the searched generators do not generate the source")
    if d["count"] != p["count"]:
        out.append("%d surjections up to automorphisms, expected %d"
                   % (d["count"], p["count"]))
    deg = len(d["source_gens"][0])
    for images in d["images"]:
        graph = [s + [deg + x for x in t] for s, t in zip(d["source_gens"], images)]
        if ref.order(graph) != source_order:
            out.append("generator images do not define a homomorphism")
        if ref.order(images) != target_order:
            out.append("image has order %d, not %d" % (ref.order(images), target_order))
    return out


def _check_coset_index(p, d, ref):
    if p["type"] == "E7":
        want = ref.e7_parabolic_order(range(1, 8)) // ref.e7_parabolic_order(p["J"])
    else:
        want = math.factorial(p["n"])
    out = [k for k in ("closed", "relators_hold", "fixes_subgroup") if not d[k]]
    if d["index"] != want:
        out.append("index %d, expected |W|/|W_J| = %d" % (d["index"], want))
    return out


def _check_h2(p, d, ref):
    if "cyclic" in p:
        want = [p["cyclic"]] * p["rank"]
        if ref.cyclic_h2(p["cyclic"], p["rank"]) != want:
            return ["CyclicCohomology gives %s, theory %s"
                    % (ref.cyclic_h2(p["cyclic"], p["rank"]), want)]
    else:
        want = ref.shapiro_h2(p["permutation"])
    return [] if d == want else ["H2 factors %s, expected %s" % (d, want)]


def _check_certificate(p, d, ref):
    want = (p["fails_at"] is None, p["fails_at"])
    got = (d["verdict"], d["failed"])
    return [] if got == want else ["verdict/failed item %s, expected %s" % (got, want)]


def _check_torsion(p, d, ref):
    out = []
    if d["linear_system"] != d["restriction"]:
        out.append("the two torsion engines disagree")
    if not d["linear_system"] and d["witness_ok"] is not True:
        out.append("the torsion witness does not have prime order")
    return out


def _check_section(p, d, ref):
    fs = d["factors"]
    classes = d["classes"]
    if any(len(c) != len(fs) or not all(0 <= x < f for x, f in zip(c, fs))
           for c in classes):
        return ["class coordinates outside H2 = %s" % fs]
    if any(c != classes[0] for c in classes):
        return ["extension class depends on the section: %s" % classes]
    return []


def _compose(a, b):
    return tuple(a[x] for x in b)


def _check_jordan(p, d, ref):
    if d["index"] != p["index"]:
        return ["minimal index %s, expected %s" % (d["index"], p["index"])]
    if d["index"] is None:
        return []
    out = []
    if d["size"] * d["index"] != p["order"] or len(d["sub"]) != d["size"]:
        out.append("|A| * index = %d, not |G| = %d" % (d["size"] * d["index"], p["order"]))
    if d["gens"] is None:
        return out   # abelian table groups: the whole group, by the check above
    if ref.order(d["gens"]) != p["order"]:
        out.append("generators give a group of order %d" % ref.order(d["gens"]))
    sub = {tuple(x) for x in d["sub"]}
    for a in sub:
        for b in sub:
            if _compose(a, b) != _compose(b, a) or _compose(a, b) not in sub:
                return out + ["witness is not an abelian subgroup"]
    for g in map(tuple, d["gens"]):
        ginv = tuple(sorted(range(len(g)), key=g.__getitem__))
        if any(_compose(_compose(g, a), ginv) not in sub for a in sub):
            return out + ["witness is not normal"]
    return out


def _check_normal_form(p, d, ref):
    m = p["m"]
    out = []
    if _matmul(_matmul(d["u"], m), d["v"]) != d["d"]:
        out.append("U M V != D")
    if not (_unimodular(d["u"]) and _unimodular(d["v"])):
        out.append("U or V not unimodular")
    dm = d["d"]
    diag = [dm[i][i] for i in range(min(len(dm), len(dm[0])))]
    if any(x and i != j for i, row in enumerate(dm) for j, x in enumerate(row)):
        out.append("D not diagonal")
    for a, b in zip(diag, diag[1:]):
        if a < 0 or (b and (a == 0 or b % a)):
            out.append("diagonal %s is not a divisibility chain" % diag)
            break
    if diag != ref.smith_diagonal(m):
        out.append("diagonal %s, sympy %s" % (diag, ref.smith_diagonal(m)))
    if _matmul(d["hu"], m) != d["h"] or not _unimodular(d["hu"]):
        out.append("HNF transform wrong")
    if not _is_hermite(d["h"]):
        out.append("H is not in Hermite normal form")
    return out


CHECKS = {
    "screening": _check_screening,
    "e7-perm": _check_e7_perm,
    "low-index": _check_low_index,
    "epi": _check_epi,
    "coset-index": _check_coset_index,
    "h2": _check_h2,
    "certificate": _check_certificate,
    "torsion": _check_torsion,
    "section": _check_section,
    "jordan": _check_jordan,
    "normal-form": _check_normal_form,
}


def check(op, digest, refs):
    return CHECKS[op.kind](op.params, digest, refs)


# ---------------------------------------------------------------------------
# self-test: every check must reject a deliberately wrong answer

def _wrong(kind, d):
    d = copy.deepcopy(d)
    if kind == "screening":
        d.append([7, [7], [1]])
    elif kind == "e7-perm":
        d["order"] //= 2
    elif kind == "low-index":
        d["indices"].append(4)
    elif kind == "epi":
        d["count"] += 1
    elif kind == "coset-index":
        d["index"] += 1
    elif kind == "h2":
        d = [f * 2 for f in d] or [2]
    elif kind == "certificate":
        d["verdict"] = not d["verdict"]
    elif kind == "torsion":
        d["restriction"] = not d["linear_system"]
    elif kind == "section":
        d["classes"][-1] = d["classes"][-1] + [1]
    elif kind == "jordan":
        d["index"] = 7 if d["index"] is None else d["index"] * 2
    elif kind == "normal-form":
        d["d"][0][0] += 1
    return d


def self_test(ops, digests, refs):
    """Problems found: each entry names a check that accepted a wrong
    answer."""
    out = []
    for op, (d, err) in zip(ops, digests):
        if err is None and not check(op, _wrong(op.kind, d), refs):
            out.append("check %r accepted a wrong answer for %r" % (op.kind, op.name))
    return out

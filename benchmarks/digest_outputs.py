"""Print one SHA-256 per family of outputs that must not change when the
code that computes them is simplified (ROADMAP aim 2).

Run it on two checkouts and compare the lines: equal digests show that a
change kept every output of a family byte for byte.  The families:

* `a9_chain` -- the `screening.a9_chain()` report as JSON with sorted keys;
* `screen` -- the text and `--format json` output, with the exit code, of
  `flatact screen --range 1..24` and `--range 3..24` on the shipped
  catalogue;
* `coset_tables` -- the tables of E7 over <s1..s6> and <s1,s2,s3>, the
  regular tables of S3..S7, and the tables the compiled engine renumbers
  during the run: E7 over its maximal parabolics without s2, s3, s4 and
  s5, and the regular table of S8 (dtype, shape and bytes);
* `low_index_e7` -- the E7 classes of index <= 16, as tables and words;
* `low_index` -- the classes, as tables and words, of Z to index 40, F2
  to 4, Z2*Z3 to 10, the trefoil group <x, y | x^2 y^-3> to 9, S4 to 24
  and S6 to 20;
* `bar_cohomology` -- H^1 and H^2 on the bar complex of
  `tests/bar_oracle.py`, the engine `cohomology.h1`/`h2` used before the
  relation module, of the `h2-bar` modules, the golden modules of
  `tests/test_cohomology.py` and a few finite modules: invariant factors,
  cocycle basis, projection, generator representatives, and
  `representative` / `class_of` / `coboundary_witness` on seeded
  cocycles;
* `relation_cohomology` -- the same records from `cohomology.h1`/`h2`,
  whose basis and projection are over the relation module;
* `cyclic_cohomology` -- `CyclicCohomology` on the cases the tier-1 tests
  cross-check against the bar complex: basis, group and projection;
* `kernel_basis` -- `zlinalg.kernel_basis` of 600 seeded maps into
  lattices and finite groups;
* `certificates` -- `to_dict()` of the verification reports of the A4
  torus certificate and its five `perfbench` mutations, of the Klein
  bottle flat certificate (and its zero cocycle), of the A4 flat
  certificate, and of these functions of `tests/test_certificates.py`:
  `section_certificate`, whose element of order 2 must satisfy
  alpha(v) = -b(t) modulo A, `a4_flat_certificate` built through the
  second isomorphism Q -> G/A, as it is and with a wrong witness value,
  and `hantzsche_wendt_certificate`, as shipped in
  `data/hantzsche_wendt.flat.json` and with its first translation zeroed;
* `jordan` -- the element keys and the index of `jordan_witness` on the
  `small-queries` Jordan queries, on `_jordan_corpus` of
  `tests/test_acceptance.py`, and on C2 wr C4, C2 wr C2^2, D4 x C2 and
  D4^3, which have several largest abelian normal subgroups;
* `element_index` -- `element_index_digest` of `tests/test_groups.py`:
  rows, orders, class labels and `lookup` of the element indices of
  A3..A9, S2..S8, C16, C300, 2^6, W(E6) on 27 points and W(D5) on 10
  points.

It uses only names that have been in the package since the sparse bar
complex, so the same file runs on older checkouts, copied there with
`tests/test_groups.py`, which holds `element_index_digest`,
`tests/test_certificates.py`, which holds the flat certificates, and
`tests/bar_oracle.py`.
A whole run takes about 8 s on a 2-core VM, most of it the A9 chain; on checkouts that
still filter the normal-subgroup lattice, `jordan` takes far longer
(D4^3 alone over an hour).

Usage: PYTHONPATH=src python3 benchmarks/digest_outputs.py [family ...]
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from flatact import certificates, cli, cohomology, fpgroups, screening  # noqa: E402
from flatact.groups import PermGroup, Permutation, TableGroup  # noqa: E402
from flatact.zlinalg import AbHom, FinAbGroup, IntMatrix, kernel_basis  # noqa: E402
import bar_oracle  # noqa: E402
from test_acceptance import _jordan_corpus  # noqa: E402
from test_certificates import (a4_flat_certificate, hantzsche_wendt_certificate,  # noqa: E402
                               section_certificate)
from test_groups import element_index_digest  # noqa: E402
from workloads import _a4_flat_query, _jordan_ops, _module_cases  # noqa: E402

M = IntMatrix.from_rows


def _sha(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _rows(mat):
    return [list(r) for r in mat.data]


def a9_chain():
    return _sha(screening.a9_chain())


def screen():
    out = []
    for dims in ("1..24", "3..24"):
        for fmt in ("text", "json"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["screen", "--range", dims, "--format", fmt])
            out.append([dims, fmt, code, buf.getvalue()])
    return _sha(out)


def _table(t):
    return [str(t.dtype), list(t.shape), hashlib.sha256(t.tobytes()).hexdigest()]


def coset_tables():
    e7 = fpgroups.e7_weyl_presentation()
    out = [_table(fpgroups.todd_coxeter(e7, [(i,) for i in sub]).table)
           for sub in (range(1, 7), range(1, 4))]
    out += [_table(fpgroups.todd_coxeter(fpgroups.symmetric_presentation(n)).table)
            for n in range(3, 8)]
    out += [_table(fpgroups.todd_coxeter(e7, [(i,) for i in range(1, 8) if i != drop]).table)
            for drop in range(2, 6)]
    out.append(_table(fpgroups.todd_coxeter(fpgroups.symmetric_presentation(8)).table))
    return _sha(out)


def _classes(g, max_index):
    return [[_table(ct.table), [list(w) for w in words]]
            for ct, words in fpgroups.low_index_subgroups(g, max_index)]


def low_index_e7():
    return _sha(_classes(fpgroups.e7_weyl_presentation(), 16))


def low_index():
    fp = fpgroups.FpGroup
    cases = [(fp(1, ()), 40), (fp(2, ()), 4), (fp(2, ((1, 1), (2, 2, 2))), 10),
             (fp(2, ((1, 1, -2, -2, -2),)), 9),
             (fpgroups.symmetric_presentation(4), 24),
             (fpgroups.symmetric_presentation(6), 20)]
    return _sha([_classes(g, k) for g, k in cases])


def _perm_mats(gens, degree):
    return [M([[1 if g[j] == i else 0 for j in range(degree)] for i in range(degree)])
            for g in gens]


def _klein():
    return TableGroup.from_function(
        [(i, j) for i in range(2) for j in range(2)],
        lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 2), (0, 0))


def _modules():
    """(name, group, coefficients, generator matrices): the `h2-bar`
    modules, which are the first four golden ones, the other golden
    modules, and finite ones."""
    cyc = TableGroup.cyclic
    s3 = [(1, 2, 0), (1, 0, 2)]
    c4 = [(1, 2, 3, 0)]
    out = [(name, build(), mats[0].rows, mats) for name, build, mats, _ in _module_cases()]
    out += [
        ("C2 by -1", cyc(2), 1, [M([[-1]])]),
        ("C2 swap", cyc(2), 2, [M([[0, 1], [1, 0]])]),
        ("C2 reflection", cyc(2), 2, [M([[1, 0], [0, -1]])]),
        ("C3 rotation", cyc(3), 2, [M([[0, -1], [1, -1]])]),
        ("C4 rotation", cyc(4), 2, [M([[0, -1], [1, 0]])]),
        ("C6 rotation", cyc(6), 2, [M([[0, -1], [1, 1]])]),
        ("C8 on Z^4", cyc(8), 4,
         [M([[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])]),
        ("Klein diagonal", _klein(), 2, [M([[-1, 0], [0, 1]]), M([[1, 0], [0, -1]])]),
        ("S3 on Z^3", PermGroup(s3, degree=3), 3, _perm_mats(s3, 3)),
        ("C4 on Z^4", PermGroup(c4, degree=4), 4, _perm_mats(c4, 4)),
        ("C2 on Z/2", cyc(2), FinAbGroup((2,)), [M([[1]])]),
        ("C3 on (Z/2)^2", cyc(3), FinAbGroup((2, 2)), [M([[0, 1], [1, 1]])]),
        ("C4 on Z/4 by -1", cyc(4), FinAbGroup((4,)), [M([[-1]])]),
        ("C6 on Z/2 x Z/4", cyc(6), FinAbGroup((2, 4)), [M([[1, 1], [0, -1]])]),
        ("Klein on Z/2 x Z/2", _klein(), FinAbGroup((2, 2)),
         [M([[1, 1], [0, 1]]), M([[1, 0], [0, 1]])]),
    ]
    return out


def _cochain_rows(coh, cochain, cells):
    zero = coh.module.zero()
    if coh.degree == 2:
        return [list(cochain.value(*c)) for c in cells]
    return [list(cochain.get(c, zero)) for c in cells]


def _seeded_cocycle(coh, rng, module, nt):
    """(a seeded coboundary, its sum with the representative of seeded
    class coordinates)."""
    coords = tuple(rng.randrange(1 << 20) for _ in coh.group.invariant_factors)
    rep = coh.representative(coords)
    if coh.degree == 2:
        b = {x: tuple(rng.randrange(-3, 4) for _ in range(module.rank)) for x in nt}
        cob = cohomology.Cocycle2.coboundary(module, b)
        return cob, rep.add(cob)
    v = tuple(rng.randrange(-3, 4) for _ in range(module.rank))
    cob = {x: module.sub(module.act(x, v), module.reduce(v)) for x in nt}
    return cob, {x: module.add(rep.get(x, module.zero()), cob[x]) for x in nt}


def _witness(coh, w, nt):
    if w is None:
        return None
    if coh.degree == 1:
        return list(w)
    return [list(w.get(x, coh.module.zero())) for x in nt]


def _cohomology_records(engine):
    """The `bar_cohomology` record of each module and degree, computed by
    engine(module, degree)."""
    out = []
    for name, group, coeff, mats in _modules():
        module = cohomology.ZQModule(group, coeff, mats)
        els = group.elements()
        nt = [x for x in els if x != group.identity()]
        cells = [(g, h) for g in els for h in els]
        for degree in (1, 2):
            coh = engine(module, degree)
            mid = cells if degree == 2 else els
            rec = {"module": name, "degree": degree,
                   "factors": list(coh.group.invariant_factors),
                   "basis": _rows(coh._basis), "proj": _rows(coh._proj),
                   "generators": [_cochain_rows(coh, r, mid)
                                  for r in coh.generator_representatives()],
                   "seeded": []}
            rng = random.Random(name + str(degree))
            for k in range(3):
                cob, coc = _seeded_cocycle(coh, rng, module, nt)
                seeded = {"class": list(coh.class_of(coc))}
                if k == 0:
                    # the witness of a coboundary, and of the class itself
                    seeded["witness"] = _witness(coh, coh.coboundary_witness(cob), nt)
                    seeded["class_witness"] = _witness(coh, coh.coboundary_witness(coc), nt)
                seeded["representative"] = _cochain_rows(
                    coh, coh.representative(seeded["class"]), mid)
                rec["seeded"].append(seeded)
            out.append(rec)
    return _sha(out)


def bar_cohomology():
    return _cohomology_records(bar_oracle.bar_cohomology)


def relation_cohomology():
    return _cohomology_records(
        lambda module, degree: (cohomology.h1, cohomology.h2)[degree - 1](module))


def _cyclic_cases():
    """(order, matrix, factors, degree), as the bar-vs-periodic tests use."""
    one, sign = IntMatrix.identity(1), M([[-1]])
    cases = []
    for m in [*range(2, 33), 48, 64]:
        cases.append((m, one, None, 2))
        if m % 2 == 0:
            cases += [(m, sign, None, 1), (m, sign, None, 2)]
    for m in range(2, 17):
        mats = [(one, (f,)) for f in (2, 3, 4, 6)]
        if m % 2 == 0:
            mats += [(sign, (4,)), (M([[1, 1], [0, 1]]), (2, 2)),
                     (M([[0, 1], [1, 0]]), (3, 3)), (M([[1, 1], [0, -1]]), (2, 4))]
        for mat, factors in mats:
            cases += [(m, mat, factors, 1), (m, mat, factors, 2)]
    return cases


def cyclic_cohomology():
    out = []
    for m, mat, factors, degree in _cyclic_cases():
        cc = cohomology.CyclicCohomology(m, mat, factors, degree=degree)
        out.append([m, _rows(mat), factors, degree, list(cc.group.invariant_factors),
                    _rows(cc.basis), _rows(cc.proj),
                    [list(cc.class_of_vector(r)) for r in cc.basis.data]])
    return _sha(out)


CHAINS = [(2,), (3,), (4,), (2, 2), (2, 4), (6,), (2, 6), (3, 9), (2, 2, 4)]


def kernel_basis_family():
    rng = random.Random(600)
    out = []
    for i in range(600):
        n = rng.randrange(1, 6)
        if i % 2:
            codomain = FinAbGroup(rng.choice(CHAINS))
            rows = codomain.rank
        else:
            codomain = rows = rng.randrange(1, 5)
        mat = M([[rng.randrange(-6, 7) for _ in range(n)] for _ in range(rows)])
        out.append(_rows(kernel_basis(AbHom(n, codomain, mat))))
    return _sha(out)


def certificates_family():
    base = certificates.build_a4_certificate().to_dict()
    mutations = [dict(alpha=[[0, 0], [0, 0]]), dict(alpha=[[1, 0], [0, 2]]),
                 dict(alpha=[[1, 1], [0, 1]]), dict(rho=[[[1, 0], [0, 1]]]),
                 dict(rho=[[[1, 1], [0, 1]]])]
    reports = [certificates.verify_torus_certificate(certificates.certificate_from_dict(d))
               for d in [base] + [dict(base, **m) for m in mutations]]
    for value in ((1, 0), (0, 0)):
        reports.append(certificates.verify_flat_certificate(certificates.FlatCertificate(
            TableGroup.cyclic(1), [], 2, [M([[1, 0], [0, -1]])], IntMatrix.zero(0, 2),
            [1], TableGroup.cyclic(2), {(1, 1): value}, {})))
    reports.append(_a4_flat_query({}))
    reports.append(certificates.verify_flat_certificate(section_certificate()))
    reports += [certificates.verify_flat_certificate(a4_flat_certificate(1, wrong))
                for wrong in (False, True)]
    reports += [certificates.verify_flat_certificate(hantzsche_wendt_certificate(zero_first))
                for zero_first in (False, True)]
    return _sha([r.to_dict() for r in reports])


def _on_disjoint_points(*gen_lists):
    """Permutation generators of the direct product of the groups given
    by image-tuple generator lists, each on its own points."""
    degree = sum(len(gens[0]) for gens in gen_lists)
    out, offset = [], 0
    for gens in gen_lists:
        for g in gens:
            images = list(range(degree))
            images[offset:offset + len(g)] = [offset + x for x in g]
            out.append(Permutation(tuple(images)))
        offset += len(gens[0])
    return PermGroup(out, degree=degree)


def _jordan_ties():
    """C2 wr C4 and C2 wr C2^2 on 8 points (point 2i + b is bit b of
    block i), D4 x C2 and D4^3."""
    flip = (1, 0, 2, 3, 4, 5, 6, 7)
    d4 = [(1, 2, 3, 0), (0, 3, 2, 1)]
    return [PermGroup([flip, (2, 3, 4, 5, 6, 7, 0, 1)]),
            PermGroup([flip, (2, 3, 0, 1, 6, 7, 4, 5), (4, 5, 6, 7, 0, 1, 2, 3)]),
            _on_disjoint_points(d4, [(1, 0)]),
            _on_disjoint_points(d4, d4, d4)]


def jordan():
    def record(res):
        if res is None:
            return None
        sub, index = res
        return [[list(x.images) if isinstance(x, Permutation) else x for x in sub], index]

    out = [record(op.query(None)[1]) for op in _jordan_ops()]
    out += [record(certificates.jordan_witness(certificates.JordanQuery(1, 200, g)))
            for g in _jordan_corpus()]
    out += [record(certificates.jordan_witness(certificates.JordanQuery(1, g.order(), g)))
            for g in _jordan_ties()]
    return _sha(out)


FAMILIES = {
    "a9_chain": a9_chain,
    "screen": screen,
    "coset_tables": coset_tables,
    "low_index_e7": low_index_e7,
    "low_index": low_index,
    "bar_cohomology": bar_cohomology,
    "relation_cohomology": relation_cohomology,
    "cyclic_cohomology": cyclic_cohomology,
    "kernel_basis": kernel_basis_family,
    "certificates": certificates_family,
    "jordan": jordan,
    "element_index": element_index_digest,
}


def main(names):
    for name in names or FAMILIES:
        print("%-18s %s" % (name, FAMILIES[name]()), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])

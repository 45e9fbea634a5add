"""The four workloads: their inputs and the queries of one round.

`build(name, seed)` is the set-up: it builds each workload's inputs from
their descriptions and returns the list of operations a round runs.  An
operation's `query` is the timed call into flatact; its `digest` turns the
answer into plain data after the clock has stopped; the check of kind
`kind` in `reference.py` then judges that data.  Package objects that cache
work lazily (such as `PermGroup.elements()`) are built inside the queries,
so every round pays for them as a user's query would.

Every call into flatact goes through a module or class attribute looked up
at call time, so that the traced run's wrappers see it.
"""

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from flatact import certificates, cohomology, fpgroups, groups, screening, zlinalg

from reference import coset_table_properties, power_is_identity


@dataclass
class Op:
    name: str
    kind: str
    query: Callable
    digest: Callable
    params: dict = field(default_factory=dict)
    known_fault: Optional[str] = None


# W(D5) -> S5 gives a wrong answer because of a fault in the program; the
# operation stays in the workload and is counted as failed on every round.
STABILIZER_CHAIN_FAULT = (
    "groups.StabilizerChain._complete re-completes only the level a residue "
    "lands on, so PermGroup.order() of W(D5) on 10 points is 160, not 1920, "
    "and epimorphism_search rejects the true surjection onto S5")


def _images(perms):
    return [list(p.images) for p in perms]


def _coxeter(n, edges):
    """Coxeter presentation from the edges (all labelled 3) of a diagram."""
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for a, b in edges:
        m[a - 1][b - 1] = m[b - 1][a - 1] = 3
    return fpgroups.coxeter_group(m)


# Bourbaki numbering: node 2 of E6 hangs off node 4 of the chain 1-3-4-5-6
E6_EDGES = [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]
D5_EDGES = [(1, 2), (2, 3), (3, 4), (3, 5)]


def _perm_matrices(gens, degree):
    """Permutation matrices (column j has its 1 in row g(j)) as IntMatrix."""
    return [zlinalg.IntMatrix.from_rows(
        [[1 if g[j] == i else 0 for j in range(degree)] for i in range(degree)])
        for g in gens]


def _cycle(n, *cycles):
    images = list(range(n))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a] = b
    return tuple(images)


# ---------------------------------------------------------------------------
# chain-d7

def chain_d7(seed):
    """The stages of screening.a9_chain except the index-1 epimorphism
    search; the seed changes nothing here."""
    catalog = screening.ImfCatalog.load()
    e7 = fpgroups.e7_weyl_presentation()

    def screen(st):
        return screening.screen_dimensions(catalog, range(3, 25))

    def e7_on_56(st):
        st["e7"] = screening.e7_weyl_permutation_group()
        return st["e7"]

    def low_index(st):
        classes = fpgroups.low_index_subgroups(e7, 16)
        st["filtered"] = [c for c in classes if c[0].index in (1, 2, 4, 8, 16)]
        return classes, st["filtered"]

    def epi_index2(st):
        group, table = st["e7"]
        gens = table.generator_permutations()
        sub_gens = []
        for ct, words in st["filtered"]:
            if ct.index != 2:
                continue
            for w in words:
                p = groups.Permutation.identity(group.degree)
                for s in w:
                    p = p * (gens[s - 1] if s > 0 else gens[-s - 1].inverse())
                sub_gens.append(p)
        sub = groups.PermGroup(sub_gens, degree=group.degree)
        return sub_gens, screening.epimorphism_search(
            sub, groups.PermGroup.alternating(9))

    def digest_screen(hits):
        return sorted([h.dimension, list(h.partition), list(h.orders)] for h in hits)

    def digest_e7(answer):
        group, table = answer
        return {"order": group.order(), "degree": group.degree,
                "index": table.index, "gens": _images(table.generator_permutations())}

    def digest_low_index(answer):
        classes, filtered = answer
        return {"indices": [ct.index for ct, _ in classes],
                "filtered": [ct.index for ct, _ in filtered]}

    return [
        Op("screen 3..24", "screening", screen, digest_screen),
        Op("E7 on 56 points", "e7-perm", e7_on_56, digest_e7),
        Op("low-index E7 <= 16", "low-index", low_index, digest_low_index),
        Op("epi index-2 class -> A9", "epi", epi_index2, _digest_epi_with_source,
           {"target": "A", "n": 9, "count": 0}),
    ]


# ---------------------------------------------------------------------------
# coset-e7

def coset_e7(seed):
    """One large enumeration and a sweep of small ones; the seed changes
    nothing here."""
    e7 = fpgroups.e7_weyl_presentation()
    cases = [("E7 / <s1,s2,s3>", e7, [1, 2, 3], {"type": "E7", "J": [1, 2, 3]})]
    for drop in range(1, 8):
        j = [i for i in range(1, 8) if i != drop]
        cases.append(("E7 / maximal parabolic without s%d" % drop, e7, j,
                      {"type": "E7", "J": j}))
    for n in range(5, 9):
        cases.append(("S%d / 1" % n, fpgroups.symmetric_presentation(n), [],
                      {"type": "S", "n": n}))

    def make(pres, j):
        words = [(i,) for i in j]

        def query(st):
            return fpgroups.todd_coxeter(pres, words)

        def digest(ct):
            return dict(coset_table_properties(ct.table, pres.relators, words),
                        index=ct.index)
        return query, digest

    return [Op(name, "coset-index", *make(pres, j), params)
            for name, pres, j, params in cases]


# ---------------------------------------------------------------------------
# h2-bar

def _module_cases():
    """(name, function making the group, generator matrices, description) of the
    large bar complexes."""
    a4 = [_cycle(4, (0, 1, 2)), _cycle(4, (1, 2, 3))]
    d4 = [_cycle(4, (0, 1, 2, 3)), _cycle(4, (0, 2))]
    ident = zlinalg.IntMatrix.identity
    return [
        ("C12 on Z^2", lambda: groups.TableGroup.cyclic(12), [ident(2)],
         {"cyclic": 12, "rank": 2}),
        ("C16 on Z", lambda: groups.TableGroup.cyclic(16), [ident(1)],
         {"cyclic": 16, "rank": 1}),
        ("A4 on Z^4", lambda: groups.PermGroup(a4), _perm_matrices(a4, 4),
         {"permutation": a4}),
        ("D4 on Z^4", lambda: groups.PermGroup(d4), _perm_matrices(d4, 4),
         {"permutation": d4}),
    ]


def h2_bar(seed):
    """H^2 on the bar complex of a few large modules; the seed changes
    nothing here."""
    def make(build_group, mats):
        def query(st):
            return cohomology.h2(cohomology.ZQModule.lattice(build_group(), mats))
        return query

    return [Op("H2 " + name, "h2", make(build, mats),
               lambda coh: list(coh.group.invariant_factors), params)
            for name, build, mats, params in _module_cases()]


# ---------------------------------------------------------------------------
# small-queries

SNF_MATRICES = 400
TORSION_INSTANCES = 33
SECTIONS_PER_EXTENSION = 3


def small_queries(seed):
    """Many short user-level queries.  The seed draws the random matrices,
    the random cocycles of the torsion checks and the random sections."""
    rng = random.Random(seed)
    ops = []
    ops += _epi_ops()
    ops += _certificate_ops()
    ops += _torsion_ops(rng)
    ops += _section_ops(rng)
    ops += _jordan_ops()
    ops += _normal_form_ops(rng)
    return ops


def _coset_action(pres, j):
    """Generator images of the action on the cosets of <s_i : i in j>."""
    return _images(fpgroups.todd_coxeter(pres, [(i,) for i in j])
                   .generator_permutations())


def _epi_ops():
    cases = [
        ("epi W(E6) on 27 points -> A7", _coset_action(_coxeter(6, E6_EDGES), range(2, 7)),
         "A", 7, 0, None),
        ("epi A5 -> A5", _images(groups.PermGroup.alternating(5).generators()),
         "A", 5, 1, None),
        ("epi A6 -> A6", _images(groups.PermGroup.alternating(6).generators()),
         "A", 6, 2, None),
        ("epi W(D5) on 10 points -> S5", _coset_action(_coxeter(5, D5_EDGES), range(2, 6)),
         "S", 5, 1, STABILIZER_CHAIN_FAULT),
    ]

    def make(source, kind, n):
        def query(st):
            target = (groups.PermGroup.alternating(n) if kind == "A"
                      else groups.PermGroup.symmetric(n))
            return screening.epimorphism_search(groups.PermGroup(source), target)
        return query

    return [Op(name, "epi", make(source, kind, n), _digest_epi,
               {"source": source, "target": kind, "n": n, "count": count}, fault)
            for name, source, kind, n, count, fault in cases]


def _digest_epi(result):
    return {"count": len(result.epimorphisms), "nodes": result.nodes,
            "source_gens": _images(result.source_generators),
            "images": [_images(t) for t in result.epimorphisms]}


def _digest_epi_with_source(answer):
    sub_gens, result = answer
    return dict(_digest_epi(result), source=_images(sub_gens))


def _certificate_ops():
    base = certificates.build_a4_certificate().to_dict()

    def mutate(**changes):
        d = dict(base)
        d.update(changes)
        return d

    # Each mutation breaks exactly one checklist item, named beside it.
    torus = [("A4 torus certificate", base, None),
             ("A4 torus, alpha zero", mutate(alpha=[[0, 0], [0, 0]]), "alpha-surjective"),
             ("A4 torus, alpha of index 2", mutate(alpha=[[1, 0], [0, 2]]), "alpha-surjective"),
             ("A4 torus, alpha not equivariant", mutate(alpha=[[1, 1], [0, 1]]),
              "alpha-equivariant"),
             ("A4 torus, rho trivial", mutate(rho=[[[1, 0], [0, 1]]]), "rho-faithful"),
             ("A4 torus, rho of infinite order", mutate(rho=[[[1, 1], [0, 1]]]),
              "rho-representation")]

    def torus_query(d):
        def query(st):
            return certificates.verify_torus_certificate(
                certificates.certificate_from_dict(d))
        return query

    def klein_query(value):
        # the trivial group acting on the Klein bottle, flat form
        def query(st):
            cert = certificates.FlatCertificate(
                groups.TableGroup.cyclic(1), [], 2,
                [zlinalg.IntMatrix.from_rows([[1, 0], [0, -1]])],
                zlinalg.IntMatrix.zero(0, 2), [1], groups.TableGroup.cyclic(2),
                {(1, 1): value}, {})
            return certificates.verify_flat_certificate(cert)
        return query

    ops = [Op(name, "certificate", torus_query(d), _digest_report, {"fails_at": item})
           for name, d, item in torus]
    ops.append(Op("Klein bottle flat certificate", "certificate", klein_query((1, 0)),
                  _digest_report, {"fails_at": None}))
    ops.append(Op("Klein bottle, zero cocycle", "certificate", klein_query((0, 0)),
                  _digest_report, {"fails_at": "torsion-free"}))
    ops.append(Op("A4 flat certificate", "certificate", _a4_flat_query,
                  _digest_report, {"fails_at": None}))
    return ops


def _digest_report(report):
    return {"verdict": report.verdict, "failed": report.failed_check()}


def _a4_flat_query(st):
    """Build the flat certificate of A4 on the 2-torus (trivial holonomy,
    phi_star = Q) from its extension class, then verify it."""
    IntMatrix = zlinalg.IntMatrix
    g = groups.PermGroup.alternating(4)
    gens = [groups.Permutation(_cycle(4, (0, 1), (2, 3))),
            groups.Permutation(_cycle(4, (0, 2), (1, 3)))]
    a_els, a_group, ident = certificates.abelian_identification(g, gens)
    ext = cohomology.extension_class(g, a_els, ident, a_group)
    phi_star = ext.quotient
    q_star, star_proj, _ = groups.quotient_group(phi_star, [phi_star.identity()])
    iso = next(groups.iter_isomorphisms(q_star, ext.quotient))

    def bar(x):
        return iso(star_proj(x))

    r = IntMatrix.from_rows([[0, -1], [1, -1]])
    rho = []
    for qg in phi_star.generators():
        m2 = ext.module.act_matrix(bar(qg))
        rho.append(next(c for c in (r, r * r)
                        if all((c[i, j] - m2[i, j]) % 2 == 0
                               for i in range(2) for j in range(2))))
    lat_mod = cohomology.ZQModule.lattice(phi_star, rho)
    fin_mod = cohomology.ZQModule.finite(
        phi_star, a_group, [ext.module.act_matrix(bar(qg)) for qg in phi_star.generators()])
    pulled = cohomology.Cocycle2(
        fin_mod, {(x, y): ext.cocycle.value(bar(x), bar(y))
                  for x in phi_star.elements() for y in phi_star.elements()})
    h_lat = cohomology.h2(lat_mod)
    h_fin = cohomology.h2(fin_mod)
    alpha = zlinalg.AbHom(2, a_group, IntMatrix.identity(2))
    induced = cohomology.induced_h2(alpha, h_lat, h_fin)
    pre = cohomology.is_in_image(h_fin.class_of(pulled), induced)
    cstar = h_lat.representative(pre)
    pushed = cohomology.Cocycle2(fin_mod, {k: alpha.apply(v) for k, v in cstar.values.items()})
    witness = h_fin.coboundary_witness(pushed.sub(pulled))
    cert = certificates.FlatCertificate(g, gens, 2, rho, IntMatrix.identity(2), [],
                                        phi_star, dict(cstar.values), witness)
    return certificates.verify_flat_certificate(cert)


def _torsion_modules():
    """Faithful lattice modules with |Q| <= 8 and rank <= 4, as
    (function making the group, generator matrices)."""
    M = zlinalg.IntMatrix.from_rows
    cyc = groups.TableGroup.cyclic

    def klein():
        return groups.TableGroup.from_function(
            [(i, j) for i in range(2) for j in range(2)],
            lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 2), (0, 0))

    def perm(gens, degree):
        return (lambda: groups.PermGroup(gens, degree=degree)), _perm_matrices(gens, degree)

    out = [(lambda: cyc(2), [M([[-1]])]),
           (lambda: cyc(2), [M([[0, 1], [1, 0]])]),
           (lambda: cyc(2), [M([[1, 0], [0, -1]])]),
           (lambda: cyc(3), [M([[0, -1], [1, -1]])]),
           (lambda: cyc(4), [M([[0, -1], [1, 0]])]),
           (lambda: cyc(6), [M([[0, -1], [1, 1]])]),
           (lambda: cyc(8), [M([[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])]),
           (klein, [M([[-1, 0], [0, 1]]), M([[1, 0], [0, -1]])])]
    out.append(perm([_cycle(3, (0, 1, 2)), _cycle(3, (0, 1))], 3))
    out.append(perm([_cycle(4, (0, 1, 2, 3))], 4))
    out.append(perm([_cycle(4, (0, 1, 2, 3)), _cycle(4, (0, 2))], 4))
    return out


def _torsion_ops(rng):
    modules = _torsion_modules()

    def make(k, raw_coords, raw_b):
        def query(st):
            cache = st.setdefault("torsion", {})
            if k not in cache:
                build, mats = modules[k]
                group = build()
                module = cohomology.ZQModule.lattice(group, mats)
                cache[k] = group, module, cohomology.h2(module)
            group, module, coh = cache[k]
            coords = tuple(c % f for c, f in zip(raw_coords, coh.group.invariant_factors))
            b = {x: raw_b[i][:module.rank] for i, x in enumerate(group.elements())
                 if x != group.identity()}
            coc = coh.representative(coords).add(cohomology.Cocycle2.coboundary(module, b))
            return (group, module, coc,
                    cohomology.torsion_free_check(group, module, coc),
                    cohomology.torsion_free_check_by_restriction(group, module, coc))
        return query

    def digest(answer):
        group, module, coc, (v1, witness), (v2, _) = answer
        ok = None
        if witness is not None:
            ok = power_is_identity(witness[0], witness[1], group, module.act_matrix,
                                   coc.value)
        return {"linear_system": v1, "restriction": v2, "witness_ok": ok}

    ops = []
    for i in range(TORSION_INSTANCES):
        k = i % len(modules)
        raw_coords = [rng.randrange(1 << 30) for _ in range(4)]
        raw_b = [[rng.randrange(-2, 3) for _ in range(4)] for _ in range(8)]
        ops.append(Op("torsion-free, module %d, instance %d" % (k, i), "torsion",
                      make(k, raw_coords, raw_b), digest))
    return ops


def _extension_cases():
    """(name, function making the group, A generators) of ten small extensions."""
    V = [_cycle(4, (0, 1), (2, 3)), _cycle(4, (0, 2), (1, 3))]
    P = groups.Permutation
    cyc = groups.TableGroup.cyclic
    return [
        ("A4 over V4", lambda: groups.PermGroup.alternating(4), [P(v) for v in V]),
        ("S4 over V4", lambda: groups.PermGroup.symmetric(4), [P(v) for v in V]),
        ("S3 over C3", lambda: groups.PermGroup.symmetric(3), [P(_cycle(3, (0, 1, 2)))]),
        ("D4 over C4", lambda: groups.PermGroup([_cycle(4, (0, 1, 2, 3)), _cycle(4, (0, 2))]),
         [P(_cycle(4, (0, 1, 2, 3)))]),
        ("C4 over C2", lambda: cyc(4), [2]),
        ("C6 over C2", lambda: cyc(6), [3]),
        ("C6 over C3", lambda: cyc(6), [2]),
        ("C8 over C4", lambda: cyc(8), [2]),
        ("C9 over C3", lambda: cyc(9), [3]),
        ("C12 over C3", lambda: cyc(12), [4]),
    ]


def _section_ops(rng):
    def make(build, a_gens, picks):
        def query(st):
            group = build()
            a_els, a_group, ident = certificates.abelian_identification(group, a_gens)
            ext = cohomology.extension_class(group, a_els, ident, a_group)
            coh = cohomology.h2(ext.module)
            classes = [coh.class_of(ext.cocycle)]
            cosets = {}
            for x in group.elements():
                cosets.setdefault(ext.projection(x), []).append(x)
            for pick in picks:
                section = {q: c[pick % len(c)] for q, c in cosets.items()}
                section[ext.quotient.identity()] = group.identity()
                ext2 = cohomology.extension_class(group, a_els, ident, a_group,
                                                  section=section)
                classes.append(coh.class_of(ext2.cocycle))
            return list(coh.group.invariant_factors), classes
        return query

    ops = []
    for name, build, a_gens in _extension_cases():
        picks = [rng.randrange(1 << 30) for _ in range(SECTIONS_PER_EXTENSION)]
        ops.append(Op("section independence, " + name, "section",
                      make(build, a_gens, picks),
                      lambda ans: {"factors": ans[0], "classes": [list(c) for c in ans[1]]}))
    return ops


def _jordan_ops():
    """Minimal index of an abelian normal subgroup, from theory: 1 for
    abelian groups, 2 for dihedral groups of order 2m with m >= 3, and the
    known values for small symmetric and alternating groups."""
    cases = []
    for n in (1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 25, 60):
        cases.append(("C%d" % n, lambda n=n: groups.TableGroup.cyclic(n), n, 1))
    for m in range(3, 13):
        gens = [tuple((i + 1) % m for i in range(m)), tuple((m - i) % m for i in range(m))]
        cases.append(("D%d" % m, lambda g=gens: groups.PermGroup(g), 2 * m, 2))
    cases += [("S3", lambda: groups.PermGroup.symmetric(3), 6, 2),
              ("S4", lambda: groups.PermGroup.symmetric(4), 24, 6),
              ("S5", lambda: groups.PermGroup.symmetric(5), 120, 120),
              ("A4", lambda: groups.PermGroup.alternating(4), 12, 3),
              ("A5", lambda: groups.PermGroup.alternating(5), 60, 60)]

    def make(build, bound):
        def query(st):
            group = build()
            return group, certificates.jordan_witness(
                certificates.JordanQuery(1, bound, group))
        return query

    def digest(answer):
        group, res = answer
        if res is None:
            return {"index": None}
        sub, index = res
        return {"index": index, "size": len(sub),
                "sub": [list(x.images) if isinstance(x, groups.Permutation) else x
                        for x in sub],
                "gens": [list(x.images) for x in group.generators()]
                if isinstance(group, groups.PermGroup) else None}

    ops = [Op("Jordan witness " + name, "jordan", make(build, 200), digest,
              {"order": order, "index": index})
           for name, build, order, index in cases]
    ops.append(Op("Jordan witness A5, bound 12", "jordan",
                  make(lambda: groups.PermGroup.alternating(5), 12), digest,
                  {"order": 60, "index": None}))
    return ops


def _normal_form_ops(rng):
    def make(rows):
        def query(st):
            m = zlinalg.IntMatrix.from_rows(rows)
            return zlinalg.smith_normal_form(m), zlinalg.hermite_normal_form(m)
        return query

    def digest(answer):
        snf, (h, u) = answer
        return {"d": [list(r) for r in snf.d.data], "u": [list(r) for r in snf.u.data],
                "v": [list(r) for r in snf.v.data], "h": [list(r) for r in h.data],
                "hu": [list(r) for r in u.data]}

    ops = []
    for i in range(SNF_MATRICES):
        r, c = rng.randrange(1, 9), rng.randrange(1, 9)
        rows = [[rng.randrange(-20, 21) for _ in range(c)] for _ in range(r)]
        ops.append(Op("SNF/HNF %d (%dx%d)" % (i, r, c), "normal-form", make(rows), digest,
                      {"m": rows}))
    return ops


WORKLOADS = {
    "chain-d7": chain_d7,
    "coset-e7": coset_e7,
    "h2-bar": h2_bar,
    "small-queries": small_queries,
}

# A small-queries round lasts a few seconds, short enough for the
# machine's second-to-second speed swings to move it by a fifth; the
# median of three rounds is steadier.  The other rounds last 10-25 s.
MIN_ROUNDS = {"small-queries": 3}


def build(name, seed):
    return WORKLOADS[name](seed)

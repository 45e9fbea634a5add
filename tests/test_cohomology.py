"""Group cohomology: the relation-module engine of `cohomology.h1`/`h2`
against the bar complex (`bar_oracle`) and against known answers, the bar
complex vs the periodic cyclic resolution, induced maps, extension
classes, torsion tests."""

import hashlib
import json
import pathlib
import random
import sys
import time

import pytest

from bar_oracle import bar_cohomology, cyclic_cocycle_from_invariant

from flatact.cohomology import (Cocycle2, CohomologyBoundExceeded,
                                CohomologyError, CyclicCohomology, InducedMap,
                                ZQModule, cocycle_from_text, cocycle_to_text,
                                extension_class, h1, h2, induced_h2,
                                is_equivariant, is_in_image, torsion_free_check,
                                torsion_free_check_by_restriction)
from flatact.certificates import (abelian_identification, build_a4_certificate,
                                  certificate_from_dict)
from flatact.groups import PermGroup, Permutation, TableGroup
from flatact.zlinalg import AbHom, FinAbGroup, IntMatrix


def trivial_lattice_module(group, rank=1):
    gens = group.generators()
    return ZQModule.lattice(group, [IntMatrix.identity(rank) for _ in gens],
                            rank=rank)


def cyclic_with_matrix(order, mat):
    group = TableGroup.cyclic(order)
    return group, ZQModule.lattice(group, [mat])


class TestModules:
    @pytest.mark.parametrize("coeff", [2, FinAbGroup((2, 2))], ids=["Z2", "(Z/2)2"])
    def test_matrices_that_are_not_an_action(self, coeff):
        # the swap has order 2, the generator of C3 order 3
        swap = IntMatrix.from_rows([[0, 1], [1, 0]])
        with pytest.raises(CohomologyError, match="do not define a group action"):
            ZQModule(TableGroup.cyclic(3), coeff, [swap])

    def test_action_extends_over_the_group(self):
        rot = IntMatrix.from_rows([[0, -1], [1, -1]])
        module = ZQModule.lattice(TableGroup.cyclic(3), [rot])
        assert module.act_matrix(0) == IntMatrix.identity(2)
        assert module.act_matrix(2) == rot * rot
        assert module.is_faithful()


class TestBarVsCyclicOracle:
    @pytest.mark.parametrize("m", range(2, 9))
    def test_h2_trivial_z_coefficients(self, m):
        group = TableGroup.cyclic(m)
        module = trivial_lattice_module(group)
        bar = bar_cohomology(module, 2)
        assert bar.group.invariant_factors == (m,)
        oracle = CyclicCohomology(m, IntMatrix.identity(1))
        assert oracle.group.invariant_factors == (m,)

    def test_h2_sign_action_vanishes(self):
        group, module = cyclic_with_matrix(2, IntMatrix.from_rows([[-1]]))
        assert bar_cohomology(module, 2).group.order == 1
        assert CyclicCohomology(2, IntMatrix.from_rows([[-1]])).group.order == 1

    def test_h1_sign_action(self):
        group, module = cyclic_with_matrix(2, IntMatrix.from_rows([[-1]]))
        assert bar_cohomology(module, 1).group.invariant_factors == (2,)
        cc = CyclicCohomology(2, IntMatrix.from_rows([[-1]]), degree=1)
        assert cc.group.invariant_factors == (2,)

    def test_bar_class_matches_cyclic_class(self):
        # rotation action of C4 on Z^2
        mat = IntMatrix.from_rows([[0, -1], [1, 0]])
        group, module = cyclic_with_matrix(4, mat)
        bar = bar_cohomology(module, 2)
        cc = CyclicCohomology(4, mat)
        assert bar.group.invariant_factors == cc.group.invariant_factors
        t = 1  # generator of the cyclic table group
        for rep in bar.generator_representatives():
            coords = cc.class_of_cocycle(rep, t)
            assert any(coords)

    def test_cyclic_cocycle_from_invariant_roundtrip(self):
        mat = IntMatrix.identity(1)
        group, module = cyclic_with_matrix(3, mat)
        coc = cyclic_cocycle_from_invariant(module, 1, (1,))
        assert coc.is_cocycle()
        cc = CyclicCohomology(3, mat)
        assert cc.class_of_cocycle(coc, 1) == (1,)

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("factors", [(4,), (3,)])
    def test_order_checked_modulo_factors(self, factors, degree):
        # -1 cubed is -1, which is not 1 modulo 4 or modulo 3
        with pytest.raises(CohomologyError, match="does not have the stated order"):
            CyclicCohomology(3, IntMatrix.from_rows([[-1]]), factors, degree=degree)


class TestKnownGroups:
    def test_h2_s3_trivial_z(self):
        # H^2(G; Z) is the dual of the abelianization: Z/2 for S3
        module = trivial_lattice_module(PermGroup.symmetric(3))
        assert h2(module).group.invariant_factors == (2,)

    def test_h2_klein_trivial_z(self):
        klein = TableGroup.from_function(
            [(i, j) for i in range(2) for j in range(2)],
            lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 2), (0, 0))
        factors = h2(trivial_lattice_module(klein)).group.invariant_factors
        assert factors == (2, 2)

    def test_h2_finite_coefficients(self):
        group = TableGroup.cyclic(2)
        module = ZQModule.finite(group, FinAbGroup.of(2),
                                 [IntMatrix.identity(1)])
        assert h2(module).group.invariant_factors == (2,)


class TestCocycles:
    def test_coboundary_is_cocycle_with_zero_class(self):
        mat = IntMatrix.from_rows([[0, -1], [1, -1]])
        group, module = cyclic_with_matrix(3, mat)
        rng = random.Random(7)
        coh = h2(module)
        for _ in range(5):
            b = {x: (rng.randrange(-3, 4), rng.randrange(-3, 4))
                 for x in group.elements() if x != group.identity()}
            cob = Cocycle2.coboundary(module, b)
            assert cob.is_cocycle()
            assert not any(coh.class_of(cob))
            witness = coh.coboundary_witness(cob)
            assert witness is not None
            again = Cocycle2.coboundary(module, witness)
            assert all(module.reduce(cob.value(g, h)) == module.reduce(again.value(g, h))
                       for g in group.elements() for h in group.elements())

    def test_representative_has_its_class(self):
        group = TableGroup.cyclic(4)
        module = trivial_lattice_module(group)
        coh = h2(module)
        for coords in [(1,), (2,), (3,)]:
            rep = coh.representative(coords)
            assert coh.class_of(rep) == coords

    def test_non_cocycle_rejected(self):
        group = TableGroup.cyclic(3)
        module = trivial_lattice_module(group)
        values = {(1, 1): (1,), (1, 2): (0,), (2, 1): (0,), (2, 2): (1,)}
        bad = Cocycle2(module, values)
        if not bad.is_cocycle():
            with pytest.raises(CohomologyError):
                h2(module).class_of(bad)

    def test_text_roundtrip(self):
        group = TableGroup.cyclic(4)
        module = trivial_lattice_module(group)
        rep = h2(module).representative((1,))
        back = cocycle_from_text(cocycle_to_text(rep), module)
        assert all(back.value(g, h) == rep.value(g, h)
                   for g in group.elements() for h in group.elements())


class TestInducedAndRestriction:
    def test_coefficient_reduction_is_iso_for_c2(self):
        group = TableGroup.cyclic(2)
        lat = trivial_lattice_module(group)
        fin = ZQModule.finite(group, FinAbGroup.of(2), [IntMatrix.identity(1)])
        src = h2(lat)
        tgt = h2(fin)
        alpha = AbHom(1, FinAbGroup.of(2), IntMatrix.identity(1))
        ind = induced_h2(alpha, src, tgt)
        gen = ind.apply((1,))
        assert gen == (1,)
        pre = is_in_image((1,), ind)
        assert pre is not None and ind.apply(pre) == (1,)

    def test_equivariance_enforced(self):
        group, module = cyclic_with_matrix(2, IntMatrix.from_rows([[-1]]))
        fin = ZQModule.finite(group, FinAbGroup.of(3), [IntMatrix.identity(1)])
        src = h2(module)
        tgt = h2(fin)
        alpha = AbHom(1, FinAbGroup.of(3), IntMatrix.identity(1))
        with pytest.raises(CohomologyError):
            induced_h2(alpha, src, tgt)

    def test_equivariance_enforced_on_a_lattice(self):
        # the identity of Z is equivariant from the trivial module to
        # itself, not to the sign module; on a lattice the check is exact
        group, sign = cyclic_with_matrix(2, IntMatrix.from_rows([[-1]]))
        src = h2(trivial_lattice_module(group))
        alpha = AbHom(1, 1, IntMatrix.identity(1))
        ind = induced_h2(alpha, src, src)
        assert ind.apply((1,)) == (1,)
        with pytest.raises(CohomologyError, match="alpha is not equivariant"):
            induced_h2(alpha, src, h2(sign))


# (G, generators of an abelian normal subgroup A): A4 over the Klein
# four-group, D4 over its rotations, S4 over the double transpositions,
# C8 over C4 and C2 x C4 over the C4 factor
EXTENSIONS = {
    "A4/V4": lambda: (PermGroup.alternating(4),
                      [Permutation.from_cycles(4, [(0, 1), (2, 3)]),
                       Permutation.from_cycles(4, [(0, 2), (1, 3)])]),
    "D4/C4": lambda: (PermGroup([(1, 2, 3, 0), (2, 1, 0, 3)]),
                      [Permutation((1, 2, 3, 0))]),
    "S4/V4": lambda: (PermGroup.symmetric(4),
                      [Permutation.from_cycles(4, [(0, 1), (2, 3)]),
                       Permutation.from_cycles(4, [(0, 2), (1, 3)])]),
    "C8/C4": lambda: (TableGroup.cyclic(8), [2]),
    "C2xC4/C4": lambda: (PermGroup([(1, 0, 2, 3, 4, 5), (0, 1, 3, 4, 5, 2)]),
                         [Permutation((0, 1, 3, 4, 5, 2))]),
}


class TestExtensionClass:
    def _a4_extension(self):
        g = PermGroup.alternating(4)
        a_gens = [Permutation.from_cycles(4, [(0, 1), (2, 3)]),
                  Permutation.from_cycles(4, [(0, 2), (1, 3)])]
        a_els, a_group, ident = abelian_identification(g, a_gens)
        return g, a_els, ident, a_group

    def test_cocycle_valid_and_class_well_defined(self):
        g, a_els, ident, a_group = self._a4_extension()
        ext = extension_class(g, a_els, ident, a_group)
        assert ext.cocycle.is_cocycle()
        assert ext.quotient.order() == 3

    def test_section_independence(self):
        g, a_els, ident, a_group = self._a4_extension()
        ext = extension_class(g, a_els, ident, a_group)
        coh = h2(ext.module)
        base = coh.class_of(ext.cocycle)
        rng = random.Random(3)
        for _ in range(5):
            section = {}
            for q in ext.quotient.elements():
                coset = [x for x in g.elements()
                         if ext.projection(x) == q]
                section[q] = rng.choice(coset)
            section[ext.quotient.identity()] = g.identity()
            ext2 = extension_class(g, a_els, ident, a_group, section=section)
            assert coh.class_of(ext2.cocycle) == base

    @pytest.mark.parametrize("name", sorted(EXTENSIONS))
    def test_cocycle_identity_for_seeded_sections(self, name):
        # extension_class no longer checks the identity: it holds by
        # associativity in G, for every section
        group, a_gens = EXTENSIONS[name]()
        a_els, a_group, ident = abelian_identification(group, a_gens)
        ext = extension_class(group, a_els, ident, a_group)
        assert ext.cocycle.is_cocycle()
        cosets = {}
        for x in group.elements():
            cosets.setdefault(ext.projection(x), []).append(x)
        rng = random.Random(name)
        for _ in range(4):
            section = {q: rng.choice(coset) for q, coset in cosets.items()}
            section[ext.quotient.identity()] = group.identity()
            assert extension_class(group, a_els, ident, a_group,
                                   section=section).cocycle.is_cocycle()

    def test_non_normal_subgroup_rejected(self):
        s3 = PermGroup.symmetric(3)
        a_els, a_group, ident = abelian_identification(
            s3, [Permutation.from_cycles(3, [(0, 1)])])
        with pytest.raises(CohomologyError, match="A is not normal in G"):
            extension_class(s3, a_els, ident, a_group)

    def test_section_missing_an_element_rejected(self):
        g, a_els, ident, a_group = self._a4_extension()
        ext = extension_class(g, a_els, ident, a_group)
        section = dict(ext.section)
        del section[max(section)]
        with pytest.raises(CohomologyError, match="one value per element of Q"):
            extension_class(g, a_els, ident, a_group, section=section)


class TestTorsionChecks:
    def test_klein_bottle_is_torsion_free(self):
        group = TableGroup.cyclic(2)
        mat = IntMatrix.from_rows([[1, 0], [0, -1]])
        module = ZQModule.lattice(group, [mat])
        coc = cyclic_cocycle_from_invariant(module, 1, (1, 0))
        ok, witness = torsion_free_check(group, module, coc)
        assert ok and witness is None
        ok2, _ = torsion_free_check_by_restriction(group, module, coc)
        assert ok2

    def test_infinite_dihedral_has_torsion(self):
        group = TableGroup.cyclic(2)
        module = ZQModule.lattice(group, [IntMatrix.from_rows([[-1]])])
        coc = Cocycle2.zero(module)
        ok, witness = torsion_free_check(group, module, coc)
        assert not ok
        x, phi = witness
        assert group.element_order(phi) == 2
        ok2, phi2 = torsion_free_check_by_restriction(group, module, coc)
        assert not ok2 and group.element_order(phi2) == 2

    def test_engines_agree_on_small_random_sample(self):
        rng = random.Random(11)
        cases = []
        c2 = TableGroup.cyclic(2)
        cases.append((c2, ZQModule.lattice(c2, [IntMatrix.from_rows([[0, 1], [1, 0]])])))
        c3 = TableGroup.cyclic(3)
        cases.append((c3, ZQModule.lattice(
            c3, [IntMatrix.from_rows([[0, -1], [1, -1]])])))
        s3 = PermGroup.symmetric(3)
        perm_mats = [IntMatrix.from_rows(
            [[1 if g(j) == i else 0 for j in range(3)] for i in range(3)])
            for g in s3.generators()]
        cases.append((s3, ZQModule.lattice(s3, perm_mats)))
        for group, module in cases:
            coh = h2(module)
            for _ in range(10):
                coords = tuple(rng.randrange(f)
                               for f in coh.group.invariant_factors)
                coc = coh.representative(coords)
                v1, _ = torsion_free_check(group, module, coc)
                v2, _ = torsion_free_check_by_restriction(group, module, coc)
                assert v1 == v2


# ---------------------------------------------------------------------------
# the sparse bar complex: cross-checks and values pinned before it existed

def _perm_mats(gens, degree):
    return [IntMatrix.from_rows([[1 if g[j] == i else 0 for j in range(degree)]
                                 for i in range(degree)]) for g in gens]


def _klein():
    return TableGroup.from_function(
        [(i, j) for i in range(2) for j in range(2)],
        lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 2), (0, 0))


_M = IntMatrix.from_rows
_A4 = [(1, 2, 0, 3), (0, 2, 3, 1)]
_D4 = [(1, 2, 3, 0), (2, 1, 0, 3)]
_S3 = [(1, 2, 0), (1, 0, 2)]
_C4 = [(1, 2, 3, 0)]

GOLDEN_MODULES = {
    "C12 on Z^2": (lambda: TableGroup.cyclic(12), [IntMatrix.identity(2)]),
    "C16 on Z": (lambda: TableGroup.cyclic(16), [IntMatrix.identity(1)]),
    "A4 on Z^4": (lambda: PermGroup(_A4), _perm_mats(_A4, 4)),
    "D4 on Z^4": (lambda: PermGroup(_D4), _perm_mats(_D4, 4)),
    "C2 by -1": (lambda: TableGroup.cyclic(2), [_M([[-1]])]),
    "C2 swap": (lambda: TableGroup.cyclic(2), [_M([[0, 1], [1, 0]])]),
    "C2 reflection": (lambda: TableGroup.cyclic(2), [_M([[1, 0], [0, -1]])]),
    "C3 rotation": (lambda: TableGroup.cyclic(3), [_M([[0, -1], [1, -1]])]),
    "C4 rotation": (lambda: TableGroup.cyclic(4), [_M([[0, -1], [1, 0]])]),
    "C6 rotation": (lambda: TableGroup.cyclic(6), [_M([[0, -1], [1, 1]])]),
    "C8 on Z^4": (lambda: TableGroup.cyclic(8),
                  [_M([[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])]),
    "Klein diagonal": (_klein, [_M([[-1, 0], [0, 1]]), _M([[1, 0], [0, -1]])]),
    "S3 on Z^3": (lambda: PermGroup(_S3, degree=3), _perm_mats(_S3, 3)),
    "C4 on Z^4": (lambda: PermGroup(_C4, degree=4), _perm_mats(_C4, 4)),
}

# Recorded with the dense bar complex: invariant factors, digests of the
# generator representatives, class_of of three seeded cocycles
# (representative plus coboundary), and digests of the cocycle basis and
# of the coordinate projection.
GOLDEN = {
    "C12 on Z^2": ((12, 12), ("9ff1e4ffee5e9ae1", "06bd6562f72ad72c"),
                   ((5, 10), (10, 0), (1, 3)), "631df4407e4f70a6", "ae833f01581758d8"),
    "C16 on Z": ((16,), ("a077f360f30b4af8",),
                 ((10,), (2,), (7,)), "58a50b88f82b88ec", "dddcb4a5c1170d00"),
    "A4 on Z^4": ((3,), ("8f4d5191bb86708f",),
                  ((0,), (0,), (2,)), "878be038dca3eeb3", "207deff830954f7f"),
    "D4 on Z^4": ((2,), ("8e3e48c0579ecb7e",),
                  ((1,), (1,), (1,)), "7aa324015e5c9920", "c99bef4656eb0dbd"),
    "C2 by -1": ((), (), ((), (), ()), "2e38e77b22c314a4", "2e38e77b22c314a4"),
    "C2 swap": ((), (), ((), (), ()), "4990a9c0bf77d3c8", "2e38e77b22c314a4"),
    "C2 reflection": ((2,), ("91f3852fadfc4e11",),
                      ((1,), (1,), (0,)), "fac3d060cb9a769c", "8349bb5d2d44e8d6"),
    "C3 rotation": ((), (), ((), (), ()), "00a8de0ab8d0497b", "2e38e77b22c314a4"),
    "C4 rotation": ((), (), ((), (), ()), "995d606bcb3a507f", "2e38e77b22c314a4"),
    "C6 rotation": ((), (), ((), (), ()), "7707fb78d2606bb1", "2e38e77b22c314a4"),
    "C8 on Z^4": ((), (), ((), (), ()), "7b02c3cd80a59313", "2e38e77b22c314a4"),
    "Klein diagonal": ((2, 2), ("480fccc72d05465d", "c8a001cca2a02c54"),
                       ((1, 0), (1, 1), (1, 0)), "c08ee0dd8542a449", "ad64e28021411643"),
    "S3 on Z^3": ((2,), ("e02b46e3f27c0e05",),
                  ((0,), (0,), (1,)), "315fbfc131ed06fa", "167cfed15877284c"),
    "C4 on Z^4": ((), (), ((), (), ()), "5cc445608d4eb96d", "2e38e77b22c314a4"),
}


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _cocycle_digest(cocycle):
    els = cocycle.module.group.elements()
    return _digest(json.dumps([[i, j, list(cocycle.value(g, h))]
                               for i, g in enumerate(els) for j, h in enumerate(els)]))


class TestSparseBarComplex:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_values(self, name):
        factors, reps, classes, basis, proj = GOLDEN[name]
        build, mats = GOLDEN_MODULES[name]
        group = build()
        module = ZQModule.lattice(group, mats)
        coh = bar_cohomology(module, 2)
        assert coh.group.invariant_factors == factors
        assert tuple(_cocycle_digest(r) for r in coh.generator_representatives()) == reps
        assert _digest(repr(coh._basis.data)) == basis
        assert _digest(repr(coh._proj.data)) == proj
        rng = random.Random(name)
        nt = [x for x in group.elements() if x != group.identity()]
        for want in classes:
            coords = tuple(rng.randrange(1 << 20) for _ in factors)
            b = {x: tuple(rng.randrange(-3, 4) for _ in range(module.rank)) for x in nt}
            coc = coh.representative(coords).add(Cocycle2.coboundary(module, b))
            assert coh.class_of(coc) == want

    def test_golden_coboundary_witness(self):
        group, module = cyclic_with_matrix(4, IntMatrix.from_rows([[0, -1], [1, 0]]))
        b = {1: (-1, -2), 2: (0, 2), 3: (-3, -3)}
        witness = bar_cohomology(module, 2).coboundary_witness(Cocycle2.coboundary(module, b))
        assert witness == {1: (2, -5), 2: (6, 2), 3: (0, 0)}

    @pytest.mark.parametrize("m", [*range(2, 33), 48, 64])
    def test_bar_matches_periodic_resolution(self, m):
        group, module = cyclic_with_matrix(m, IntMatrix.identity(1))
        bar = bar_cohomology(module, 2)
        cc = CyclicCohomology(m, IntMatrix.identity(1))
        assert bar.group.invariant_factors == cc.group.invariant_factors == (m,)
        (rep,) = bar.generator_representatives()
        assert bar.class_of(rep) == (1,)
        # the two coordinate systems differ by multiplication by a unit:
        # the standard cocycle is 1 in the periodic one and u in the bar one
        (u,) = bar.class_of(cyclic_cocycle_from_invariant(module, 1, (1,)))
        (w,) = cc.class_of_cocycle(rep, 1)
        assert (u * w) % m == 1
        assert bar_cohomology(module, 1).group.order == 1
        if m % 2 == 0:
            sign = IntMatrix.from_rows([[-1]])
            _, sign_module = cyclic_with_matrix(m, sign)
            for degree in (1, 2):
                oracle = CyclicCohomology(m, sign, degree=degree)
                assert (bar_cohomology(sign_module, degree).group.invariant_factors
                        == oracle.group.invariant_factors)

    @pytest.mark.parametrize("m", range(2, 17))
    def test_bar_matches_periodic_resolution_finite(self, m):
        group = TableGroup.cyclic(m)
        cases = [(IntMatrix.identity(1), (f,)) for f in (2, 3, 4, 6)]
        if m % 2 == 0:
            cases += [(IntMatrix.from_rows([[-1]]), (4,)),
                      (IntMatrix.from_rows([[1, 1], [0, 1]]), (2, 2)),
                      (IntMatrix.from_rows([[0, 1], [1, 0]]), (3, 3)),
                      (IntMatrix.from_rows([[1, 1], [0, -1]]), (2, 4))]
        for mat, factors in cases:
            module = ZQModule.finite(group, FinAbGroup(factors), [mat])
            bar = bar_cohomology(module, 2)
            cc = CyclicCohomology(m, mat, factors)
            assert bar.group.invariant_factors == cc.group.invariant_factors
            rank = bar.group.rank
            for i, rep in enumerate(bar.generator_representatives()):
                assert bar.class_of(rep) == tuple(int(i == j) for j in range(rank))

    def test_group_bound_exceeded(self):
        module = trivial_lattice_module(TableGroup.cyclic(3))
        with pytest.raises(CohomologyBoundExceeded):
            h2(module, group_bound=2)
        with pytest.raises(CohomologyBoundExceeded):
            h1(module, group_bound=2)

    def test_rank_bound_exceeded(self):
        module = trivial_lattice_module(TableGroup.cyclic(2), rank=3)
        with pytest.raises(CohomologyBoundExceeded):
            h2(module, rank_bound=2)


def _rank0_modules():
    """(name, group, coefficients, generator matrices, finite target of
    the identity map) with no cohomology to find: the trivial group on Z^2
    and (Z/2)^2, and C3 on the rank-0 lattice and on the trivial finite
    group."""
    one, c3 = TableGroup.cyclic(1), TableGroup.cyclic(3)
    empty = IntMatrix.zero(0, 0)
    return [("1 on Z^2", one, 2, [], FinAbGroup((2, 2))),
            ("1 on (Z/2)^2", one, FinAbGroup((2, 2)), [], FinAbGroup((2, 2))),
            ("C3 on Z^0", c3, 0, [empty], FinAbGroup(())),
            ("C3 on 0", c3, FinAbGroup(()), [empty], FinAbGroup(()))]


class TestTrivialCases:
    """The trivial group and rank-0 modules: every group is 0, the zero
    cochain has class 0, and the zero class has a zero representative and
    a zero witness."""

    @pytest.mark.parametrize("name,group,coeff,mats,_", _rank0_modules(),
                             ids=[c[0] for c in _rank0_modules()])
    def test_h1_and_h2_vanish(self, name, group, coeff, mats, _):
        module = ZQModule(group, coeff, mats)
        zero = module.zero()
        els = group.elements()
        cocycle2 = h2(module)
        assert cocycle2.group.invariant_factors == ()
        assert cocycle2.class_of(Cocycle2.zero(module)) == ()
        rep = cocycle2.representative(())
        assert all(rep.value(g, h) == zero for g in els for h in els)
        witness = cocycle2.coboundary_witness(Cocycle2.zero(module))
        assert all(v == zero for v in witness.values())
        cocycle1 = h1(module)
        assert cocycle1.group.invariant_factors == ()
        assert cocycle1.class_of({}) == ()
        rep = cocycle1.representative(())
        assert all(rep.get(g, zero) == zero for g in els)

    @pytest.mark.parametrize("name,group,coeff,mats,_", _rank0_modules(),
                             ids=[c[0] for c in _rank0_modules()])
    def test_h1_witness_is_a_coefficient_vector(self, name, group, coeff, mats, _):
        module = ZQModule(group, coeff, mats)
        assert h1(module).coboundary_witness({}) == module.zero()

    @pytest.mark.parametrize("name,group,coeff,mats,target", _rank0_modules(),
                             ids=[c[0] for c in _rank0_modules()])
    def test_induced_map_on_zero_groups(self, name, group, coeff, mats, target):
        source = ZQModule(group, coeff, mats)
        alpha = AbHom(coeff, target, IntMatrix.identity(source.rank))
        ind = induced_h2(alpha, h2(source), h2(ZQModule.finite(group, target, mats)))
        assert ind.matrix.rows == ind.matrix.cols == 0
        assert is_in_image((), ind) == ()

    def test_non_cocycle_rejected_when_h2_is_zero(self):
        group, module = cyclic_with_matrix(2, IntMatrix.from_rows([[-1]]))
        coh = h2(module)
        assert coh.group.invariant_factors == ()
        with pytest.raises(CohomologyError, match="not a cocycle"):
            coh.class_of(Cocycle2(module, {(1, 1): (1,)}))


# ---------------------------------------------------------------------------
# the relation-module engine against the bar complex and known answers

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))
import bench_h2  # noqa: E402
import digest_outputs  # noqa: E402

# the benchmarks/bench_h2.py cases whose bar-complex H^2 took at most 1 s
# in BENCH_h2.json, less those that GOLDEN_MODULES holds too
BAR_WITHIN_1S = [
    "C8 on Z", "C12 on Z", "C24 on Z", "C16 on Z^2", "S4 on Z^4", "C32 on Z",
    "C48 on Z", "C64 on Z", "C16 on Z^4", "C16 on Z^8", "C16 on Z^12", "C32 on Z^4",
    "C16 on Z^8, dense", "C16 on Z^12, dense", "C32 on Z^4, dense", "C2^4 on Z^8",
    "C2^5 on Z^4", "A4 certificate, C3 on (Z/2)^2", "C16 on Z/2",
]


def _oracle_modules():
    """(name, function making the module): every GOLDEN_MODULES entry, the
    finite modules of digest_outputs._modules, the BAR_WITHIN_1S cases,
    and S3 with a generator given twice, whose tree word is then the
    other letter."""
    out = [(name, lambda b=build, m=mats: ZQModule.lattice(b(), m))
           for name, (build, mats) in GOLDEN_MODULES.items()]
    out += [(name, lambda g=group, c=coeff, m=mats: ZQModule(g, c, m))
            for name, group, coeff, mats in digest_outputs._modules()
            if isinstance(coeff, FinAbGroup)]
    cases = dict(bench_h2.CASES)
    out += [(name, cases[name]) for name in BAR_WITHIN_1S]
    twice = [(1, 2, 0), (1, 2, 0), (1, 0, 2)]
    return out + [("S3 on Z^3, a generator twice",
                   lambda: ZQModule.lattice(PermGroup(twice, degree=3), _perm_mats(twice, 3)))]


# both degrees of each module
ORACLE_CASES = [(name, build, degree) for name, build in _oracle_modules() for degree in (1, 2)]


def _relation(module, degree):
    fn = h2 if degree == 2 else h1
    return fn(module, group_bound=module.group.order(), rank_bound=module.rank)


def _apply_mod(columns, x, factors):
    """sum_j x_j columns[j], reduced modulo the factors."""
    return tuple(sum(c[t] * xj for c, xj in zip(columns, x)) % f
                 for t, f in enumerate(factors))


class TestRelationModule:
    """`h1`/`h2` over the relation module against the bar complex: equal
    invariant factors, and a class map from the bar classes to the new
    coordinates (the new `class_of` of the bar generator representatives)
    that is linear on seeded cocycles, kills the bar coboundaries and has
    the map the other way as its inverse, so that it is a bijection that
    is zero exactly on the zero classes."""

    @pytest.mark.parametrize("name,build,degree", ORACLE_CASES,
                             ids=["%s-%d" % (name, degree) for name, _, degree in ORACLE_CASES])
    def test_agrees_with_the_bar_complex(self, name, build, degree):
        module = build()
        group = module.group
        nt = [x for x in group.elements() if x != group.identity()]
        bar, rel = bar_cohomology(module, degree), _relation(module, degree)
        factors = bar.group.invariant_factors
        assert rel.group.invariant_factors == factors
        phi = [rel.class_of(rep) for rep in bar.generator_representatives()]
        psi = [bar.class_of(rep) for rep in rel.generator_representatives()]
        for i in range(len(factors)):
            e_i = tuple(int(i == j) for j in range(len(factors)))
            assert _apply_mod(psi, _apply_mod(phi, e_i, factors), factors) == e_i
            assert _apply_mod(phi, _apply_mod(psi, e_i, factors), factors) == e_i
        rng = random.Random(name + str(degree))
        for _ in range(3):
            cob, coc = digest_outputs._seeded_cocycle(bar, rng, module, nt)
            assert not any(rel.class_of(cob))
            assert rel.coboundary_witness(cob) is not None
            x = bar.class_of(coc)
            assert rel.class_of(coc) == _apply_mod(phi, x, factors)
            assert rel.class_of(rel.representative(x)) == x
            if any(x):
                assert rel.coboundary_witness(coc) is None

    @pytest.mark.parametrize("m", [*range(2, 33), 48, 64])
    def test_matches_periodic_resolution(self, m):
        # trivial and sign actions, on Z and on Z/4
        for mat in [IntMatrix.identity(1)] + [IntMatrix.from_rows([[-1]])] * (m % 2 == 0):
            group, module = cyclic_with_matrix(m, mat)
            finite = ZQModule.finite(group, FinAbGroup((4,)), [mat])
            for degree in (1, 2):
                for mod, factors in ((module, None), (finite, (4,))):
                    cc = CyclicCohomology(m, mat, factors, degree=degree)
                    assert (_relation(mod, degree).group.invariant_factors
                            == cc.group.invariant_factors)

    @pytest.mark.parametrize("name,n,coeff,factors", [
        # Shapiro: H^2(S_n, Z[S_n/S_(n-1)]) = H^2(S_(n-1), Z) = Z/2
        ("S5 on Z^5", 5, None, (2,)),
        ("S6 on Z^6", 6, None, (2,)),
        # Shapiro: H^2(S_5, (Z/2)[S_5/S_4]) = H^2(S_4, Z/2) = (Z/2)^2
        ("S5 on (Z/2)^5", 5, FinAbGroup((2,) * 5), (2, 2)),
    ])
    def test_permutation_modules_beyond_the_bar_complex(self, name, n, coeff, factors):
        gens = [tuple(range(1, n)) + (0,), (1, 0) + tuple(range(2, n))]
        group = PermGroup(gens, degree=n)
        module = ZQModule(group, n if coeff is None else coeff, _perm_mats(gens, n))
        coh = h2(module, group_bound=group.order(), rank_bound=n)
        assert coh.group.invariant_factors == factors
        # a representative of S6 has 720^2 values; S5 is checked for both
        for i, rep in enumerate(coh.generator_representatives() if n == 5 else ()):
            assert coh.class_of(rep) == tuple(int(i == j) for j in range(len(factors)))

    def test_cyclic_group_of_order_32_on_a_finite_module(self):
        # the trivial action: H^2(C_m, M) = M / m M, here all of (Z/2)^8
        group = TableGroup.cyclic(32)
        module = ZQModule.finite(group, FinAbGroup((2,) * 8), [IntMatrix.identity(8)])
        assert h2(module, group_bound=32, rank_bound=8).group.invariant_factors == (2,) * 8

    def test_witness_of_s4_on_its_permutation_module(self):
        gens = [(1, 2, 3, 0), (1, 0, 2, 3)]
        group = PermGroup(gens, degree=4)
        module = ZQModule.lattice(group, _perm_mats(gens, 4))
        coh = h2(module, group_bound=24)
        rng = random.Random(24)
        b = {x: tuple(rng.randrange(-3, 4) for _ in range(4))
             for x in group.elements() if x != group.identity()}
        cob = Cocycle2.coboundary(module, b)
        t0 = time.perf_counter()
        witness = coh.coboundary_witness(cob)
        assert time.perf_counter() - t0 < 1.0
        again = Cocycle2.coboundary(module, witness)
        assert all(again.value(g, h) == cob.value(g, h)
                   for g in group.elements() for h in group.elements())


def _bar_induced(alpha, source, target):
    """The map that alpha induces between two bar-complex H^2s: alpha
    applied to the source's generator representatives."""
    cols = [target.class_of(Cocycle2(target.module, {k: alpha.apply(v)
                                                     for k, v in rep.values.items()}))
            for rep in source.generator_representatives()]
    return InducedMap(source, target, IntMatrix.from_columns(cols, target.group.rank))


def _a4_step_5_inputs():
    """(name, lattice module, finite module, alpha) of the A4 torus
    certificate and of those of its perfbench mutations whose rho gives a
    lattice module."""
    base = build_a4_certificate().to_dict()
    mutations = [("A4 torus certificate", {}), ("alpha zero", dict(alpha=[[0, 0], [0, 0]])),
                 ("alpha of index 2", dict(alpha=[[1, 0], [0, 2]])),
                 ("alpha not equivariant", dict(alpha=[[1, 1], [0, 1]])),
                 ("rho trivial", dict(rho=[[[1, 0], [0, 1]]])),
                 ("rho of infinite order", dict(rho=[[[1, 1], [0, 1]]]))]
    out = []
    for name, change in mutations:
        cert = certificate_from_dict(dict(base, **change))
        a_els, a_group, ident = abelian_identification(cert.group, cert.a_generators)
        ext = extension_class(cert.group, a_els, ident, a_group)
        try:
            lattice = ZQModule.lattice(ext.quotient, cert.rho, rank=cert.n)
        except CohomologyError:
            continue
        alpha = AbHom(cert.n, a_group, cert.alpha)
        out.append((name, lattice, ext.module, alpha))
    return out


def _reduction_cases():
    """(name, lattice module, finite module, alpha): lattice modules and
    their reductions modulo 2 or 3, with nonzero H^2 on the finite side."""
    out = []
    for name, (build, mats), f in [("C2 trivial", (lambda: TableGroup.cyclic(2), [_M([[1]])]), 2),
                                   ("C3 trivial", (lambda: TableGroup.cyclic(3), [_M([[1]])]), 3),
                                   ("C2 by -1", GOLDEN_MODULES["C2 by -1"], 2),
                                   ("C4 rotation", GOLDEN_MODULES["C4 rotation"], 2),
                                   ("Klein diagonal", GOLDEN_MODULES["Klein diagonal"], 2),
                                   ("S3 on Z^3", GOLDEN_MODULES["S3 on Z^3"], 2),
                                   ("D4 on Z^4", GOLDEN_MODULES["D4 on Z^4"], 2)]:
        group = build()
        n = mats[0].rows
        target = FinAbGroup((f,) * n)
        out.append((name + " mod %d" % f, ZQModule.lattice(group, mats),
                    ZQModule.finite(group, target, mats),
                    AbHom(n, target, IntMatrix.identity(n))))
    return out


IN_IMAGE_CASES = _a4_step_5_inputs() + _reduction_cases()


@pytest.mark.parametrize("name,lattice,finite,alpha", IN_IMAGE_CASES,
                         ids=[c[0] for c in IN_IMAGE_CASES])
def test_in_image_verdicts_agree_with_the_bar_complex(name, lattice, finite, alpha):
    """Whether each class of H^2(Q; A) lifts to H^2(Q; Z^n), on both
    engines, for every class: the bar representative of each bar class
    and its class in the new coordinates."""
    try:
        induced = induced_h2(alpha, h2(lattice), h2(finite))
    except CohomologyError:
        # alpha is not equivariant: the bar side has no induced map either
        assert not is_equivariant(alpha.matrix, lattice, finite,
                                  [(g, g) for g in lattice.group.elements()])
        return
    bar_target = bar_cohomology(finite, 2)
    bar_induced = _bar_induced(alpha, bar_cohomology(lattice, 2), bar_target)
    verdicts = set()
    for x in bar_target.group.elements():
        rep = bar_target.representative(x)
        mine = is_in_image(induced.target.class_of(rep), induced)
        theirs = is_in_image(x, bar_induced)
        assert (mine is None) == (theirs is None)
        verdicts.add(mine is None)
    if name == "C2 by -1 mod 2":
        assert verdicts == {False, True}

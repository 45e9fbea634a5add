"""Group cohomology: bar resolution vs the periodic cyclic resolution,
induced and restriction maps, extension classes, torsion tests."""

import hashlib
import json
import random

import pytest

from flatact.cohomology import (Cocycle2, CohomologyBoundExceeded,
                                CohomologyError, CyclicCohomology,
                                ZQModule, cocycle_from_text, cocycle_to_text,
                                cyclic_cocycle_from_invariant, extension_class,
                                h1, h2, induced_h2, is_in_image,
                                restriction_h2, torsion_free_check,
                                torsion_free_check_by_restriction)
from flatact.certificates import abelian_identification
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
        bar = h2(module)
        assert bar.group.invariant_factors == (m,)
        oracle = CyclicCohomology(m, IntMatrix.identity(1))
        assert oracle.group.invariant_factors == (m,)

    def test_h2_sign_action_vanishes(self):
        group, module = cyclic_with_matrix(2, IntMatrix.from_rows([[-1]]))
        assert h2(module).group.order == 1
        assert CyclicCohomology(2, IntMatrix.from_rows([[-1]])).group.order == 1

    def test_h1_sign_action(self):
        group, module = cyclic_with_matrix(2, IntMatrix.from_rows([[-1]]))
        assert h1(module).group.invariant_factors == (2,)
        cc = CyclicCohomology(2, IntMatrix.from_rows([[-1]]), degree=1)
        assert cc.group.invariant_factors == (2,)

    def test_bar_class_matches_cyclic_class(self):
        # rotation action of C4 on Z^2
        mat = IntMatrix.from_rows([[0, -1], [1, 0]])
        group, module = cyclic_with_matrix(4, mat)
        bar = h2(module)
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
            assert coh.is_zero_class(cob)
            witness = coh.coboundary_witness(cob)
            assert witness is not None
            again = Cocycle2.coboundary(module, witness)
            assert all(module.equal(cob.value(g, h), again.value(g, h))
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

    def test_restriction_c4_to_c2(self):
        group = TableGroup.cyclic(4)
        module = trivial_lattice_module(group)
        src = h2(module)
        res, tgt = restriction_h2(src, [2])
        assert tgt.group.invariant_factors == (2,)
        # generator restricts to the generator; its double restricts to zero
        assert res.apply((1,)) == (1,)
        assert res.apply((2,)) == (0,)

    def test_equivariance_enforced(self):
        group, module = cyclic_with_matrix(2, IntMatrix.from_rows([[-1]]))
        fin = ZQModule.finite(group, FinAbGroup.of(3), [IntMatrix.identity(1)])
        src = h2(module)
        tgt = h2(fin)
        alpha = AbHom(1, FinAbGroup.of(3), IntMatrix.identity(1))
        with pytest.raises(CohomologyError):
            induced_h2(alpha, src, tgt)


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
        coh = h2(module)
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
        witness = h2(module).coboundary_witness(Cocycle2.coboundary(module, b))
        assert witness == {1: (2, -5), 2: (6, 2), 3: (0, 0)}

    @pytest.mark.parametrize("m", [*range(2, 33), 48, 64])
    def test_bar_matches_periodic_resolution(self, m):
        group, module = cyclic_with_matrix(m, IntMatrix.identity(1))
        bar = h2(module, group_bound=m)
        cc = CyclicCohomology(m, IntMatrix.identity(1))
        assert bar.group.invariant_factors == cc.group.invariant_factors == (m,)
        (rep,) = bar.generator_representatives()
        assert bar.class_of(rep) == (1,)
        # the two coordinate systems differ by multiplication by a unit:
        # the standard cocycle is 1 in the periodic one and u in the bar one
        (u,) = bar.class_of(cyclic_cocycle_from_invariant(module, 1, (1,)))
        (w,) = cc.class_of_cocycle(rep, 1)
        assert (u * w) % m == 1
        assert h1(module, group_bound=m).group.order == 1
        if m % 2 == 0:
            sign = IntMatrix.from_rows([[-1]])
            _, sign_module = cyclic_with_matrix(m, sign)
            for degree, fn in ((1, h1), (2, h2)):
                oracle = CyclicCohomology(m, sign, degree=degree)
                assert (fn(sign_module, group_bound=m).group.invariant_factors
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
            bar = h2(module)
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

"""Permutation and table groups, stabilizer chains, and subgroup queries."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatact.fpgroups import coxeter_group, todd_coxeter
from flatact.groups import (GroupBoundExceeded, GroupError, GroupHom, PermGroup,
                            Permutation, TableGroup, abelian_normal_subgroups,
                            conjugacy_classes, find_isomorphism,
                            group_from_text, group_to_text, is_normal,
                            iter_isomorphisms, normal_subgroups,
                            prime_order_class_reps, quotient_group,
                            subgroup_closure)


class TestPermutation:
    def test_compose_and_invert(self):
        a = Permutation.from_cycles(4, [(0, 1, 2)])
        b = Permutation.from_cycles(4, [(2, 3)])
        assert (a * a.inverse()).is_identity()
        assert (a * b)(0) == (a * b).images[0]

    def test_order_and_parity(self):
        p = Permutation.from_cycles(6, [(0, 1, 2), (3, 4)])
        assert p.order() == 6
        assert not p.is_even()
        assert Permutation.from_cycles(5, [(0, 1, 2)]).is_even()

    def test_invalid_rejected(self):
        with pytest.raises(GroupError):
            Permutation((0, 0, 1))


def naive_order(t):
    ident, cur, n = tuple(range(len(t))), t, 1
    while cur != ident:
        cur = tuple(t[x] for x in cur)
        n += 1
    return n


permutation_pairs = st.integers(1, 9).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n))))


@given(permutation_pairs)
@settings(max_examples=200, deadline=None)
def test_permutation_arithmetic_matches_tuple_definitions(pair):
    a, b = (tuple(x) for x in pair)
    pa, pb = Permutation(a), Permutation(b)
    # a * b applies b first
    assert (pa * pb).images == tuple(a[b[i]] for i in range(len(a)))
    assert all(pa.inverse().images[a[i]] == i for i in range(len(a)))
    assert pa.order() == naive_order(a)
    assert PermGroup([pa, pb]).conjugate(pa, pb) == pa * pb * pa.inverse()
    assert pa * pb == Permutation((pa * pb).images)
    assert hash(pa * pb) == hash(Permutation((pa * pb).images))


class TestStabilizerChain:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_symmetric_orders(self, n):
        assert PermGroup.symmetric(n).order() == math.factorial(n)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_alternating_orders(self, n):
        assert PermGroup.alternating(n).order() == math.factorial(n) // 2

    def test_membership(self):
        a4 = PermGroup.alternating(4)
        assert a4.contains(Permutation.from_cycles(4, [(0, 1), (2, 3)]))
        assert not a4.contains(Permutation.from_cycles(4, [(0, 1)]))

    def test_element_enumeration_matches_order(self):
        g = PermGroup.symmetric(5)
        assert len(g.elements()) == 120

    def test_weyl_d5_on_ten_points(self):
        # W(D5) = 2^4:S5 on the cosets of <s2..s5>; every deeper level has
        # to be completed again when a residue lands below the next level
        m = [[1 if i == j else 2 for j in range(5)] for i in range(5)]
        for a, b in [(0, 1), (1, 2), (2, 3), (2, 4)]:
            m[a][b] = m[b][a] = 3
        table = todd_coxeter(coxeter_group(m), [(i,) for i in range(2, 6)])
        g = PermGroup(table.generator_permutations())
        assert g.degree == 10
        assert g.order() == 1920 == len(g.elements())

    def test_random_groups_order_and_membership(self):
        # groups generated by random involutions (products of disjoint
        # transpositions, like Coxeter generators) of degree 4..10; those
        # of order above 2000 are skipped to keep the enumeration cheap
        checked = 0
        for seed in range(200):
            rng = random.Random(seed)
            deg = rng.randrange(4, 11)
            gens = []
            for _ in range(rng.randrange(2, 5)):
                images = list(range(deg))
                pts = rng.sample(range(deg), 2 * rng.randrange(1, deg // 2 + 1))
                for a, b in zip(pts[::2], pts[1::2]):
                    images[a], images[b] = b, a
                gens.append(Permutation(tuple(images)))
            g = PermGroup(gens, degree=deg)
            if g.order() > 2000:
                continue
            els = g.elements()
            assert g.order() == len(els), seed
            assert all(g.contains(x) for x in els), seed
            checked += 1
        assert checked >= 100


class TestTableGroup:
    def test_cyclic(self):
        c6 = TableGroup.cyclic(6)
        assert c6.order() == 6
        assert c6.element_order(1) == 6
        assert c6.element_order(2) == 3

    def test_bad_table_rejected(self):
        with pytest.raises(GroupError):
            TableGroup([[0, 1], [0, 1]])  # second row not a bijection over {0,1}

    def test_from_function(self):
        els = [(i, j) for i in range(2) for j in range(3)]
        g = TableGroup.from_function(
            els, lambda a, b: ((a[0] + b[0]) % 2, (a[1] + b[1]) % 3), (0, 0))
        assert g.order() == 6
        assert g.is_abelian()


class TestSubgroupQueries:
    def test_closure(self):
        s4 = PermGroup.symmetric(4)
        v = subgroup_closure(s4, [Permutation.from_cycles(4, [(0, 1), (2, 3)]),
                                  Permutation.from_cycles(4, [(0, 2), (1, 3)])])
        assert len(v) == 4

    @pytest.mark.parametrize("group", [
        PermGroup.symmetric(4), PermGroup.alternating(5),
        PermGroup([Permutation.from_cycles(4, [(0, 1, 2, 3)]),
                   Permutation.from_cycles(4, [(0, 2)])]),
        TableGroup.cyclic(1), TableGroup.cyclic(6), TableGroup.cyclic(12)],
        ids=["S4", "A5", "D4", "C1", "C6", "C12"])
    def test_closure_needs_no_inverse_generators(self, group):
        def closure_with_inverses(gens):
            steps = list(gens) + [group.inverse(g) for g in gens]
            closed, frontier = {group.identity()}, [group.identity()]
            while frontier:
                frontier = [p for p in {group.multiply(e, g)
                                        for e in frontier for g in steps}
                            if p not in closed]
                closed.update(frontier)
            return closed

        rng = random.Random(7)
        els = group.elements()
        for _ in range(40):
            gens = rng.sample(els, rng.randint(0, min(3, len(els))))
            expected = closure_with_inverses(gens)
            got = subgroup_closure(group, gens)
            assert set(got) == expected and len(got) == len(expected)
            assert got == sorted(got, key=lambda x: getattr(x, "images", x))

    def test_is_normal(self):
        s4 = PermGroup.symmetric(4)
        v_gens = [Permutation.from_cycles(4, [(0, 1), (2, 3)]),
                  Permutation.from_cycles(4, [(0, 2), (1, 3)])]
        assert is_normal(s4, v_gens)
        assert not is_normal(s4, [Permutation.from_cycles(4, [(0, 1)])])

    def test_conjugacy_classes_s4(self):
        sizes = sorted(len(c) for c in conjugacy_classes(PermGroup.symmetric(4)))
        assert sizes == [1, 3, 6, 6, 8]

    @pytest.mark.parametrize("group", [
        PermGroup.symmetric(4), PermGroup.alternating(5), PermGroup.alternating(6),
        PermGroup([Permutation.from_cycles(4, [(0, 1, 2, 3)]),
                   Permutation.from_cycles(4, [(0, 2)])])],
        ids=["S4", "A5", "A6", "D4"])
    def test_conjugacy_classes_match_brute_force(self, group):
        els = group.elements()
        expected, seen = [], set()
        for x in els:
            if x not in seen:
                cls = sorted({g * x * g.inverse() for g in els})
                seen.update(cls)
                expected.append(cls)
        assert conjugacy_classes(group) == expected

    @pytest.mark.parametrize("group,dtype", [
        (PermGroup.alternating(6), "uint8"), (PermGroup.cyclic(6), "uint8"),
        (PermGroup([Permutation.from_cycles(4, [(0, 1, 2, 3)]),
                    Permutation.from_cycles(4, [(0, 2)])]), "uint8"),
        (PermGroup.cyclic(300), "uint16")],
        ids=["A6", "C6", "D4", "C300"])
    def test_element_index(self, group, dtype):
        index = group.element_index()
        els = group.elements()
        assert index.rows.dtype == dtype
        assert [tuple(r) for r in index.rows.tolist()] == [x.images for x in els]
        assert index.orders.tolist() == [x.order() for x in els]
        assert index.lookup(index.rows[::-1]).tolist() == list(range(len(els)))[::-1]
        assert index.lookup([[0] * group.degree]).tolist() == [-1]

    @pytest.mark.parametrize("text", ["perm 0 0", "perm 1 0"])
    def test_trivial_groups(self, text):
        group = group_from_text(text)
        ident = Permutation.identity(group.degree)
        assert group.elements() == [ident]
        assert conjugacy_classes(group) == [[ident]]
        index = group.element_index()
        assert index.rows.shape == (1, group.degree)
        assert index.orders.tolist() == [1]
        assert index.lookup(index.rows).tolist() == [0]

    def test_prime_order_class_reps(self):
        # C6 is abelian: singleton classes, one order-2 and two order-3 elements
        reps = prime_order_class_reps(PermGroup.cyclic(6))
        assert sorted(p for _, p in reps) == [2, 3, 3]

    def test_normal_subgroups_a4(self):
        orders = sorted(len(s) for s in normal_subgroups(PermGroup.alternating(4)))
        assert orders == [1, 4, 12]

    def test_abelian_normal_subgroups_a4(self):
        subs = abelian_normal_subgroups(PermGroup.alternating(4))
        assert max(len(s) for s in subs) == 4

    def test_quotient_group(self):
        s4 = PermGroup.symmetric(4)
        v = subgroup_closure(s4, [Permutation.from_cycles(4, [(0, 1), (2, 3)]),
                                  Permutation.from_cycles(4, [(0, 2), (1, 3)])])
        q, proj, cosets = quotient_group(s4, v)
        assert q.order() == 6
        # projection is a homomorphism
        els = s4.elements()[:20]
        for a in els:
            for b in els[:5]:
                assert proj(a * b) == q.multiply(proj(a), proj(b))

    def test_order_bounds_raise_group_bound_exceeded(self):
        with pytest.raises(GroupBoundExceeded, match="exceeds bound 59"):
            abelian_normal_subgroups(PermGroup.alternating(5), order_bound=59)
        with pytest.raises(GroupBoundExceeded, match="too large"):
            PermGroup.symmetric(11).elements()
        assert issubclass(GroupBoundExceeded, GroupError)


class TestHomsAndIsos:
    def test_hom_validation(self):
        c4 = TableGroup.cyclic(4)
        c2 = TableGroup.cyclic(2)
        f = GroupHom(c4, c2, [1])
        assert f(2) == 0
        assert f.is_surjective()
        with pytest.raises(GroupError):
            GroupHom(c4, TableGroup.cyclic(3), [1])

    def test_find_isomorphism(self):
        a = PermGroup.cyclic(6)
        b = TableGroup.cyclic(6)
        iso = find_isomorphism(a, b)
        assert iso is not None
        assert iso.is_injective() and iso.is_surjective()

    def test_no_isomorphism_between_c4_and_klein(self):
        klein = TableGroup.from_function(
            [(i, j) for i in range(2) for j in range(2)],
            lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 2), (0, 0))
        assert find_isomorphism(TableGroup.cyclic(4), klein) is None

    def test_iter_isomorphisms_counts_automorphisms(self):
        c5 = TableGroup.cyclic(5)
        assert len(list(iter_isomorphisms(c5, c5))) == 4


class TestTextFormat:
    def test_perm_roundtrip(self):
        g = PermGroup.alternating(5)
        g2 = group_from_text(group_to_text(g))
        assert isinstance(g2, PermGroup) and g2.order() == 60

    def test_table_roundtrip(self):
        g = TableGroup.cyclic(7)
        g2 = group_from_text(group_to_text(g))
        assert isinstance(g2, TableGroup) and g2.order() == 7

    def test_malformed(self):
        with pytest.raises(GroupError):
            group_from_text("perm 3 1\n0 0 1\n")
        with pytest.raises(GroupError):
            group_from_text("wat 3\n")


@given(st.integers(2, 7), st.integers(2, 7))
@settings(max_examples=30, deadline=None)
def test_cyclic_isomorphism_exists_iff_same_order(m, n):
    a = PermGroup.cyclic(m)
    b = TableGroup.cyclic(n)
    assert (find_isomorphism(a, b) is not None) == (m == n)

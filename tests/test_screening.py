"""Order screening over the rational irreducible maximal finite subgroup
catalogue, and the epimorphism search."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatact.fpgroups import (FpGroup, SearchBoundExceeded, coxeter_group,
                              symmetric_presentation, todd_coxeter)
from flatact.groups import PermGroup, Permutation, conjugacy_classes
from flatact.screening import (CatalogError, E7_WEYL_ORDER, ImfCatalog,
                               ScreeningHit, _class_reps_up_to_aut,
                               alternating_order, e7_weyl_permutation_group,
                               epimorphism_search, screen_dimensions)


def partitions(n):
    """All partitions of n, each as a descending tuple, in ascending
    lexicographic order of the tuples: the parts of the brute-force
    oracle below."""
    if n < 1:
        raise ValueError("n must be at least 1")

    def build(rest, cap):
        if rest == 0:
            yield ()
        for first in range(1, min(cap, rest) + 1):
            for tail in build(rest - first, first):
                yield (first,) + tail

    return list(build(n, n))


def partition_count_oracle(n):
    """p(n) by Euler's recurrence with generalized pentagonal numbers."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        k = 1
        while True:
            for pent in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if pent > m:
                    break
                p[m] += (-1) ** (k + 1) * p[m - pent]
            if k * (3 * k - 1) // 2 > m:
                break
            k += 1
    return p[n]


class TestPartitions:
    # the partition generator of the brute-force screening oracle
    @pytest.mark.parametrize("n,count", [(1, 1), (4, 5), (7, 15), (24, 1575)])
    def test_counts(self, n, count):
        assert len(partitions(n)) == count
        assert len(partitions(n)) == partition_count_oracle(n)

    @given(st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_structure(self, n):
        parts = partitions(n)
        assert len(set(parts)) == len(parts)
        assert parts == sorted(parts)
        for p in parts:
            assert sum(p) == n
            assert all(a >= b for a, b in zip(p, p[1:]))

    def test_invalid(self):
        with pytest.raises(ValueError):
            partitions(0)

    @pytest.mark.parametrize("n", [-1, -2])
    def test_negative_rejected(self, n):
        with pytest.raises(ValueError):
            partitions(n)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_sorted_enumeration(self, n):
        # largest parts first, then sorted: the enumeration partitions
        # had before it produced ascending order itself
        out = []

        def build(remaining, cap, prefix):
            if remaining == 0:
                out.append(tuple(prefix))
                return
            for part in range(min(cap, remaining), 0, -1):
                build(remaining - part, part, prefix + [part])

        build(n, n, [])
        assert partitions(n) == sorted(out)


class TestCatalog:
    def test_load_and_consistency(self):
        cat = ImfCatalog.load()
        assert cat.covers(range(1, 25))
        assert E7_WEYL_ORDER in cat.orders(7)
        assert len(cat.orders(8)) == 9

    def test_bad_residues_rejected(self):
        cat = ImfCatalog.load()
        orders = {k: list(cat.orders(k)) for k in range(1, 25)}
        orders[7] = [12345]
        with pytest.raises(CatalogError):
            ImfCatalog(orders)
        # the same data passes with the check disabled
        ImfCatalog(orders, check=False)

    def test_malformed_text(self):
        with pytest.raises(CatalogError):
            ImfCatalog.from_text("7 645120\n", check=False)
        with pytest.raises(CatalogError):
            ImfCatalog.from_text("7: x\n", check=False)
        with pytest.raises(CatalogError):
            ImfCatalog.from_text("7:\n", check=False)

    def test_repeated_dimension_rejected(self):
        # a second line for a dimension would otherwise replace the first
        with pytest.raises(CatalogError, match="repeated"):
            ImfCatalog.from_text("1: 2\n1: 3\n", check=False)

    def test_missing_dimension(self):
        cat = ImfCatalog.from_text("1: 2\n", check=False)
        with pytest.raises(CatalogError):
            cat.orders(3)


class TestScreening:
    def test_hits_are_exactly_dimensions_7_and_8(self):
        hits = screen_dimensions(ImfCatalog.load())
        assert sorted(h.dimension for h in hits) == [7, 8]
        h7 = next(h for h in hits if h.dimension == 7)
        assert h7.partition == (7,)
        assert h7.orders == (E7_WEYL_ORDER,)
        assert h7.target_order == alternating_order(9)
        h8 = next(h for h in hits if h.dimension == 8)
        assert h8.partition == (8,)
        assert h8.orders == (696729600,)

    def test_removing_non_hit_orders_changes_nothing(self):
        cat = ImfCatalog.load()
        orders = {k: list(cat.orders(k)) for k in range(1, 25)}
        # drop the largest order in dimension 5 (not part of any hit)
        orders[5] = [min(orders[5])]
        thinned = ImfCatalog(orders, check=False)
        assert screen_dimensions(thinned) == screen_dimensions(cat)

    def test_divisibility_invariant(self):
        for h in screen_dimensions(ImfCatalog.load()):
            assert math.prod(h.orders) % h.target_order == 0

    def test_hit_validation(self):
        with pytest.raises(ValueError):
            ScreeningHit(3, (3,), (10,), 10, 60)

    @pytest.mark.parametrize("dims", [[0], [-1], [-2], range(-1, 25),
                                      range(0, 25)])
    def test_dimension_below_one_rejected(self, dims):
        # |A_{k+2}| is 1 at k = 0 and 0 at k = -1, -2: no screen is meant
        with pytest.raises(ValueError, match="at least 1"):
            screen_dimensions(ImfCatalog.load(), dims)

    def test_uncovered_range_rejected(self):
        cat = ImfCatalog.from_text("1: 2\n2: 8 12\n3: 48\n", check=False)
        with pytest.raises(CatalogError):
            screen_dimensions(cat, dims=[4])


def brute_force_hits(catalog, dims):
    """The partition rule: for every partition of k, every choice of one
    order per part, tried in itertools.product order, kept when
    |A_{k+2}| divides the product."""
    out = []
    for k in dims:
        target = alternating_order(k + 2)
        for part in partitions(k):
            for orders in itertools.product(*(catalog.orders(p) for p in part)):
                if math.prod(orders) % target == 0:
                    out.append(ScreeningHit(k, part, orders, math.prod(orders), target))
    return out


def assert_hits_are_hook_hits(hits, oracle):
    """The single-order hits (k, (j,), (o,)) are the partition rule's hits
    on the partitions (j, 1, ..., 1) whose first order o alone |A_{k+2}|
    divides, and those with j = k are its one-part hits, in order."""
    hooks = {(b.dimension, b.partition[0], b.orders[0]) for b in oracle
             if b.partition[1:] == (1,) * (b.dimension - b.partition[0])
             and b.orders[0] % b.target_order == 0}
    assert {(h.dimension, *h.partition, *h.orders) for h in hits} == hooks
    assert ([h for h in hits if h.partition == (h.dimension,)]
            == [b for b in oracle if len(b.partition) == 1])


# 6 single-order hits, in every dimension 3..6; the partition rule finds
# 335 among 8401 choices
SYNTHETIC_CATALOG = """
1: 2 7 15 4
2: 8 12 10 14 72
3: 48 60 120 7
4: 1152 720 14 240 9
5: 3840 5040 11 720
6: 103680 2903040 40320 13 46080
"""


@pytest.mark.parametrize("catalog,dims,found,oracle_count", [
    (ImfCatalog.from_text(SYNTHETIC_CATALOG, check=False), range(3, 7),
     [(3, 3, 60), (3, 3, 120), (4, 4, 720), (5, 5, 5040), (6, 6, 2903040), (6, 6, 40320)],
     335),
    (ImfCatalog.load(), range(1, 25),
     [(2, 2, 12), (7, 7, E7_WEYL_ORDER), (8, 8, 696729600)], 3),
    (ImfCatalog.load(), range(3, 25), [(7, 7, E7_WEYL_ORDER), (8, 8, 696729600)], 2)],
    ids=["synthetic", "shipped", "shipped-3..24"])
def test_screening_matches_brute_force(catalog, dims, found, oracle_count):
    # the single-order loop against trying every choice over every
    # partition; on the shipped catalogue the partition rule finds only
    # one-part hits, so there its hits are exactly these
    hits = screen_dimensions(catalog, dims)
    oracle = brute_force_hits(catalog, dims)
    assert [(h.dimension, *h.partition, *h.orders) for h in hits] == found
    assert len(oracle) == oracle_count
    assert_hits_are_hook_hits(hits, oracle)


@pytest.mark.parametrize("text,dims,expected,oracle", [
    # a product-only hit: |A_5| = 60 divides 12 * 5 but no single order
    ("1: 5\n2: 12\n3: 48\n", [3], [], [(3, (2, 1), (12, 5))]),
    # |A_6| = 360 divides the order 720 of dimension 3, used at k = 4
    ("1: 2\n2: 8 12\n3: 720\n4: 48\n", [3, 4],
     [(3, (3,), (720,)), (4, (3,), (720,))],
     [(3, (3,), (720,)), (4, (3, 1), (720, 2))]),
], ids=["product-only", "lower-dimension"])
def test_hand_catalogues(text, dims, expected, oracle):
    catalog = ImfCatalog.from_text(text, check=False)
    hits = screen_dimensions(catalog, dims)
    assert [(h.dimension, h.partition, h.orders) for h in hits] == expected
    assert [(h.dimension, h.partition, h.orders)
            for h in brute_force_hits(catalog, dims)] == oracle


@pytest.mark.parametrize("seed", range(8))
def test_single_order_hits_are_hook_hits(seed):
    # orders made of the primes of |A_5| .. |A_9|, so that some
    # dimensions are hit by one order and others only by a product
    rng = random.Random(seed)
    orders = {d: [2 ** rng.randrange(d + 2) * 3 ** rng.randrange(d) *
                  5 ** rng.randrange(2) * 7 ** rng.randrange(2)
                  for _ in range(rng.randrange(1, 4))] for d in range(1, 8)}
    catalog = ImfCatalog(orders, check=False)
    dims = range(3, 8)
    hits = screen_dimensions(catalog, dims)
    oracle = brute_force_hits(catalog, dims)
    assert_hits_are_hook_hits(hits, oracle)


def coset_action(edges, n, subgroup):
    """The Coxeter group with the given diagram (all edges labelled 3)
    acting on the cosets of <s_i : i in subgroup>."""
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for a, b in edges:
        m[a - 1][b - 1] = m[b - 1][a - 1] = 3
    table = todd_coxeter(coxeter_group(m), [(i,) for i in subgroup])
    return PermGroup(table.generator_permutations())


# (source, target, nodes, surjections found) at seed 0; the node counts
# pin the search tree: the pools, their order and the pruning tests
SEARCH_TREES = {
    "A5 -> A5": (lambda: PermGroup.alternating(5), lambda: PermGroup.alternating(5), 52, 1),
    "A6 -> A6": (lambda: PermGroup.alternating(6), lambda: PermGroup.alternating(6), 246, 2),
    "S5 -> A5": (lambda: PermGroup.symmetric(5), lambda: PermGroup.alternating(5), 74, 0),
    "S3 presented -> S3": (lambda: symmetric_presentation(3),
                           lambda: PermGroup.symmetric(3), 10, 1),
    "C4 -> S3": (lambda: FpGroup(1, ((1, 1, 1, 1),)), lambda: PermGroup.symmetric(3), 2, 0),
    "W(D5) on 10 points -> S5": (
        lambda: coset_action([(1, 2), (2, 3), (3, 4), (3, 5)], 5, range(2, 6)),
        lambda: PermGroup.symmetric(5), 1459, 1),
    "W(E6) on 27 points -> A7": (
        lambda: coset_action([(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)], 6, range(2, 7)),
        lambda: PermGroup.alternating(7), 35406, 0),
}


class TestEpimorphismSearch:
    @pytest.mark.parametrize("case", SEARCH_TREES)
    def test_search_tree_is_pinned(self, case):
        source, target, nodes, count = SEARCH_TREES[case]
        result = epimorphism_search(source(), target())
        assert (result.nodes, len(result.epimorphisms)) == (nodes, count)

    @pytest.mark.parametrize("case", ["A6 -> A6", "S3 presented -> S3", "C4 -> S3"])
    def test_node_limit_is_exact(self, case):
        source, target, nodes, count = SEARCH_TREES[case]
        assert epimorphism_search(source(), target(), node_limit=nodes).nodes == nodes
        with pytest.raises(SearchBoundExceeded):
            epimorphism_search(source(), target(), node_limit=nodes - 1)

    @pytest.mark.parametrize("target", [
        PermGroup.alternating(5), PermGroup.alternating(6), PermGroup.symmetric(4),
        PermGroup.cyclic(6)], ids=["A5", "A6", "S4", "C6"])
    def test_class_reps_up_to_aut(self, target):
        # first class representatives, a class dropped when the odd
        # relabeling (0 1) maps its representative into an earlier class
        classes = conjugacy_classes(target)
        swap = Permutation.from_cycles(target.degree, [(0, 1)])
        expected, fused = [], set()
        for i, cls in enumerate(classes):
            if i in fused:
                continue
            expected.append(cls[0])
            if not target.contains(swap):
                twin = swap * cls[0] * swap
                fused.update(j for j, c in enumerate(classes) if twin in c)
        els = target.elements()
        assert [els[i] for i in _class_reps_up_to_aut(target)] == expected


    def test_a5_onto_itself(self):
        a5 = PermGroup.alternating(5)
        result = epimorphism_search(a5, a5)
        assert result.found
        assert len(result.epimorphisms) >= 1

    def test_s5_has_no_epimorphism_onto_a5(self):
        result = epimorphism_search(PermGroup.symmetric(5),
                                    PermGroup.alternating(5))
        assert not result.found
        assert result.epimorphisms == ()

    def test_presented_source(self):
        # S3 presented, mapped onto the symmetric group of degree 3
        result = epimorphism_search(symmetric_presentation(3),
                                    PermGroup.symmetric(3))
        assert result.found

    def test_presented_source_no_epimorphism(self):
        # no surjection from C4 onto S3
        result = epimorphism_search(FpGroup(1, ((1, 1, 1, 1),)),
                                    PermGroup.symmetric(3))
        assert not result.found

    def test_cyclic_counts_up_to_automorphism(self):
        # surjections C6 -> C6 up to Aut(C6) = one class
        c6 = PermGroup.cyclic(6)
        result = epimorphism_search(FpGroup(1, ((1,) * 6,)), c6)
        assert len(result.epimorphisms) == 1

    @pytest.mark.parametrize("degree", [0, 1])
    def test_trivial_target(self, degree):
        result = epimorphism_search(PermGroup.cyclic(2),
                                    PermGroup([], degree=degree))
        assert result.nodes == 1
        assert result.epimorphisms == ((Permutation.identity(degree),),)

    def test_node_limit(self):
        with pytest.raises(SearchBoundExceeded):
            epimorphism_search(PermGroup.symmetric(5),
                               PermGroup.alternating(5), node_limit=3)


class TestE7Realization:
    def test_degree_56_realization(self):
        group, table = e7_weyl_permutation_group()
        assert group.degree == 56
        assert table.index == 56
        assert group.order() == E7_WEYL_ORDER

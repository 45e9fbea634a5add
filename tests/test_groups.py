"""Permutation and table groups, stabilizer chains, and subgroup queries."""

import hashlib
import math
import random
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import engine_oracle
from engine_oracle import StabilizerChain as OracleChain
from flatact import fpgroups, groups
from flatact.fpgroups import coxeter_group, todd_coxeter
from flatact.groups import (ElementIndex, FiniteGroup, GroupBoundExceeded,
                            GroupError, GroupHom, PermGroup, Permutation,
                            StabilizerChain, TableGroup,
                            conjugacy_classes, find_isomorphism,
                            group_from_text, group_to_text, is_normal,
                            iter_isomorphisms, largest_abelian_normal_subgroup,
                            prime_order_class_reps, quotient_group,
                            subgroup_closure)
from flatact.screening import _random_element, e7_weyl_permutation_group
from test_acceptance import _jordan_corpus
from test_fpgroups import child_env


class TestPermutation:
    def test_compose_and_invert(self):
        a = Permutation.from_cycles(4, [(0, 1, 2)])
        b = Permutation.from_cycles(4, [(2, 3)])
        assert (a * a.inverse()).is_identity()
        assert (a * b)(0) == (a * b).images[0]

    def test_order_and_parity(self):
        p = Permutation.from_cycles(6, [(0, 1, 2), (3, 4)])
        assert p.order() == 6
        assert not PermGroup.alternating(6).contains(p)
        assert PermGroup.alternating(5).contains(Permutation.from_cycles(5, [(0, 1, 2)]))

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


def closure_by_bfs(gens, degree):
    """The elements of the group generated by the image tuples `gens`,
    sorted: a breadth-first closure under composition, without the
    stabilizer chain."""
    ident = tuple(range(degree))
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                p = tuple(g[x] for x in e)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return sorted(seen)


def _weyl_on_cosets(n, edges):
    """The Weyl group of the diagram on n nodes with `edges` (0-based, all
    labelled 3) acting on the cosets of <s2..sn>."""
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for a, b in edges:
        m[a][b] = m[b][a] = 3
    table = todd_coxeter(coxeter_group(m), [(i,) for i in range(2, n + 1)])
    return PermGroup(table.generator_permutations())


def _weyl_d5_on_ten_points():
    return _weyl_on_cosets(5, [(0, 1), (1, 2), (2, 3), (2, 4)])


def _weyl_e6_on_27_points():
    # Bourbaki numbering: node 2 hangs off node 4 of the chain 1-3-4-5-6
    return _weyl_on_cosets(6, [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)])


def _index_groups():
    """The groups of `element_index_digest`: W(E6) on 27 points has the
    only rows of more than 16 points, C16, C300 and 2^6 are abelian."""
    out = [PermGroup.alternating(n) for n in range(3, 10)]
    out += [PermGroup.symmetric(n) for n in range(2, 9)]
    out += [PermGroup.cyclic(16), PermGroup.cyclic(300),
            PermGroup([Permutation.from_cycles(12, [(2 * i, 2 * i + 1)])
                       for i in range(6)]),
            _weyl_e6_on_27_points(), _weyl_d5_on_ten_points()]
    return out


def element_index_digest():
    """SHA-256 over the element index of each `_index_groups` group: the
    dtype, shape and bytes of `rows`, `orders`, `class_of`, `class_reps`,
    and of `lookup` on the members in a seeded order followed by seeded
    rows of points (mostly not permutations) and seeded permutations."""
    sha = hashlib.sha256()
    for seed, group in enumerate(_index_groups()):
        index = group.element_index()
        rng = np.random.default_rng(seed)
        deg = group.degree
        queries = np.concatenate([
            index.rows[rng.permutation(len(index.rows))],
            rng.integers(0, deg, size=(200, deg)),
            np.argsort(rng.random((200, deg)), axis=1)])
        for arr in (index.rows, index.orders, index.class_of, index.class_reps,
                    index.lookup(queries)):
            sha.update(("%s %s;" % (arr.dtype, arr.shape)).encode())
            sha.update(np.ascontiguousarray(arr).tobytes())
    return sha.hexdigest()


def _differential_index_groups():
    """The `_index_groups`, the elementary abelian group 2^14 on 28 points
    (14 generators), a Klein four-group on 3000 points
    (uint16 rows of four elements), and the trivial groups of degree 0
    and 1."""
    halves = [Permutation.from_cycles(3000, [(2 * i, 2 * i + 1) for i in range(k, k + 750)])
              for k in (0, 750)]
    return _index_groups() + [
        PermGroup([Permutation.from_cycles(28, [(2 * i, 2 * i + 1)]) for i in range(14)]),
        PermGroup(halves), PermGroup([], degree=0), PermGroup([], degree=1)]


class TestCompiledIndex:
    """`fa_sorted_rows` and `fa_class_labels` against the numpy paths of
    the oracle, their reference: the same rows, labels and orders, byte
    for byte and of the same dtypes (C300 has uint16 rows)."""

    @pytest.fixture(scope="class")
    def cases(self):
        return _differential_index_groups()

    def test_sorted_rows_agree(self, cases):
        for k, group in enumerate(cases):
            rows = engine_oracle.sorted_rows(group.chain.levels, group.degree)
            comp = groups._transversal_products(group.chain.levels, group.degree)
            assert (comp.dtype, comp.shape) == (rows.dtype, rows.shape), k
            assert comp.tobytes() == rows.tobytes(), k

    def test_class_labels_agree(self, cases):
        for k, group in enumerate(cases):
            index, gens = group.element_index(), group.generators()
            compiled = index._class_labels(gens)
            pure = engine_oracle.class_labels(index.rows, gens)
            for comp, ref in zip(compiled, pure):
                assert comp.dtype == ref.dtype == np.int64, k
                assert comp.tobytes() == ref.tobytes(), k

    def test_compiled_sort_rejects_a_bad_transversal(self):
        # a level in the oracle's form whose second row maps 1 to 2
        level = groups._Level(0, [(1, 0)], [0, 1], [0, 1], [(0, 1), (1, 2)], [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            groups._transversal_products([level], 2)


class TestFilteredIndex:
    """`ElementIndex(group, e)` holds the elements whose order divides e:
    the oracle's index of those rows, and the full index restricted to
    them, with the full index's class representatives of the classes it
    keeps, in their order."""

    @pytest.fixture(scope="class", params=
                    ["A%d" % n for n in range(5, 10)] + ["S%d" % n for n in range(3, 9)]
                    + ["C300", "W(D5)"])
    def case(self, request):
        name = request.param
        group = (PermGroup.cyclic(300) if name == "C300"
                 else _weyl_d5_on_ten_points() if name == "W(D5)"
                 else PermGroup.alternating(int(name[1:])) if name[0] == "A"
                 else PermGroup.symmetric(int(name[1:])))
        full = group.element_index()
        return group, full, math.lcm(*full.orders.tolist())

    def exponents(self, case):
        # 1, 2, 15 and a multiple of the group's exponent
        return (1, 2, 15, 2 * case[2])

    def test_matches_the_oracle(self, case):
        group, _, _ = case
        gens = group.generators()
        for e in self.exponents(case):
            index = ElementIndex(group, e)
            rows = engine_oracle.sorted_rows(group.chain.levels, group.degree, e)
            assert (index.rows.dtype, index.rows.shape) == (rows.dtype, rows.shape), e
            assert index.rows.tobytes() == rows.tobytes(), e
            ref = engine_oracle.class_labels(rows, gens)
            for comp, want in zip((index.class_of, index.class_reps, index.orders), ref):
                assert comp.dtype == want.dtype == np.int64, e
                assert comp.tobytes() == want.tobytes(), e

    def test_is_the_full_index_restricted(self, case):
        group, full, _ = case
        for e in self.exponents(case):
            index = ElementIndex(group, e)
            keep = e % full.orders == 0
            assert np.array_equal(index.rows, full.rows[keep]), e
            assert np.array_equal(index.orders, full.orders[keep]), e
            classes, class_of = np.unique(full.class_of[keep], return_inverse=True)
            assert np.array_equal(index.class_of, class_of), e
            assert np.array_equal(index.rows[index.class_reps],
                                  full.rows[full.class_reps[classes]]), e

    def test_a_multiple_of_the_exponent_keeps_everything(self, case):
        group, full, exponent = case
        index = ElementIndex(group, 2 * exponent)
        for arr, want in ((index.rows, full.rows), (index.orders, full.orders),
                          (index.class_of, full.class_of),
                          (index.class_reps, full.class_reps)):
            assert (arr.dtype, arr.shape) == (want.dtype, want.shape)
            assert arr.tobytes() == want.tobytes()

    def test_exponent_one_keeps_the_identity(self, case):
        group = case[0]
        index = ElementIndex(group, 1)
        assert index.rows.tolist() == [list(range(group.degree))]
        assert (index.orders.tolist(), index.class_of.tolist(),
                index.class_reps.tolist()) == ([1], [0], [0])

    def test_a_negative_exponent_is_rejected(self, case):
        group = case[0]
        with pytest.raises(ValueError):
            ElementIndex(group, -1)
        with pytest.raises(ValueError):
            engine_oracle.sorted_rows(group.chain.levels, group.degree, -1)


def _random_involutions(seed):
    """(degree, generators): two to four random involutions (products of
    disjoint transpositions, like Coxeter generators) of degree 4..10."""
    rng = random.Random(seed)
    deg = rng.randrange(4, 11)
    gens = []
    for _ in range(rng.randrange(2, 5)):
        images = list(range(deg))
        pts = rng.sample(range(deg), 2 * rng.randrange(1, deg // 2 + 1))
        for a, b in zip(pts[::2], pts[1::2]):
            images[a], images[b] = b, a
        gens.append(Permutation(tuple(images)))
    return deg, gens


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
        g = _weyl_d5_on_ten_points()
        assert g.degree == 10
        closure = closure_by_bfs([x.images for x in g.generators()], 10)
        assert g.order() == 1920 == len(closure)
        assert [x.images for x in g.elements()] == closure

    def test_random_groups_order_and_membership(self):
        # groups generated by random involutions; those of order above
        # 2000 are skipped to keep the enumeration cheap.  The elements
        # come from the chain, so they are checked against a closure that
        # does not use it.
        checked = 0
        for seed in range(200):
            deg, gens = _random_involutions(seed)
            g = PermGroup(gens, degree=deg)
            if g.order() > 2000:
                continue
            closure = closure_by_bfs([x.images for x in gens], deg)
            assert g.order() == len(closure), seed
            assert [x.images for x in g.elements()] == closure, seed
            assert all(g.contains(Permutation(x)) for x in closure), seed
            checked += 1
        assert checked >= 100


def _levels(chain):
    """Every field of every level as plain ints, in layout order."""
    return [[lev.point] + [np.asarray(f).tolist() for f in
                           (lev.gens, lev.orbit, lev.where, lev.trans, lev.inv)]
            for lev in chain.levels]


def _membership_candidates(gens, degree, seed):
    """Members of the group of the image tuples `gens` (the generators and
    products of seeded random words in them), then each generator composed
    with a transposition and seeded random permutations, most of them not
    members."""
    rng = random.Random(seed)
    members = list(gens)
    for _ in range(5 if gens else 0):
        p = tuple(range(degree))
        for _ in range(rng.randrange(1, 11)):
            p = groups._pmul(rng.choice(gens), p)
        members.append(p)
    others = []
    for g in gens if degree > 1 else ():
        a, b = rng.sample(range(degree), 2)
        swap = list(range(degree))
        swap[a], swap[b] = b, a
        others.append(groups._pmul(g, tuple(swap)))
    for _ in range(5):
        images = list(range(degree))
        rng.shuffle(images)
        others.append(tuple(images))
    return members, others


def _assert_same_membership(gens, degree, seed):
    group, pure = PermGroup(gens, degree=degree), OracleChain(gens, degree)
    members, others = _membership_candidates(gens, degree, seed)
    for x in members:
        assert group.contains(Permutation(x)) and pure.contains(x), (seed, x)
    for x in others:
        assert group.contains(Permutation(x)) == pure.contains(x), (seed, x)


def _images(group):
    return [g.images for g in group.generators()], group.degree


CHAIN_CASES = (
    [pytest.param(lambda n=n: _images(PermGroup.symmetric(n)), id="S%d" % n)
     for n in range(2, 10)]
    + [pytest.param(lambda n=n: _images(PermGroup.alternating(n)), id="A%d" % n)
       for n in range(3, 10)]
    + [pytest.param(lambda: _images(_weyl_d5_on_ten_points()), id="W(D5)"),
       pytest.param(lambda: _images(_weyl_e6_on_27_points()), id="W(E6)"),
       pytest.param(lambda: _images(e7_weyl_permutation_group()[0]), id="W(E7)"),
       pytest.param(lambda: ([], 0), id="degree-0"),
       pytest.param(lambda: ([(0,)], 1), id="degree-1"),
       pytest.param(lambda: ([tuple(range(5))] * 2, 5), id="identity-only"),
       pytest.param(lambda: ([tuple(range(1, 11)) + (0,)], 11), id="11-cycle")]
)


class TestCompiledChain:
    """The chain built by the compiled engine against the oracle's
    pure-Python one, its reference: every field of every level the same
    (base point, strong generators in order, orbit in order, where,
    transversal and inverses), and the same membership answers."""

    @pytest.mark.parametrize("make", CHAIN_CASES)
    def test_chains_agree(self, make):
        gens, deg = make()
        assert _levels(StabilizerChain(gens, deg)) == _levels(OracleChain(gens, deg))

    def test_chains_agree_on_random_involution_groups(self):
        for seed in range(200):
            deg, gens = _random_involutions(seed)
            gens = [g.images for g in gens]
            assert _levels(StabilizerChain(gens, deg)) == _levels(OracleChain(gens, deg)), seed

    def test_chains_agree_on_generating_set_tries(self):
        # the first 30 pair tries of _find_small_generating_set on W(E7)
        # under epimorphism_search's default seed
        e7, _ = e7_weyl_permutation_group()
        rng = random.Random(0)
        for k in range(30):
            gens = [_random_element(e7, rng).images for _ in range(2)]
            assert _levels(StabilizerChain(gens, 56)) == _levels(OracleChain(gens, 56)), k

    @pytest.mark.parametrize("make", CHAIN_CASES)
    def test_membership_agrees(self, make):
        gens, deg = make()
        _assert_same_membership(gens, deg, 0)

    def test_membership_agrees_on_random_involution_groups(self):
        for seed in range(200):
            deg, gens = _random_involutions(seed)
            _assert_same_membership([g.images for g in gens], deg, seed)

    @pytest.mark.parametrize("make", CHAIN_CASES)
    def test_compiled_levels_view_one_buffer(self, make):
        def owner(a):
            while isinstance(a.base, np.ndarray):
                a = a.base
            return a.base

        gens, deg = make()
        levels = StabilizerChain(gens, deg).levels
        buffers = {id(owner(f)) for lev in levels
                   for f in (lev.gens, lev.orbit, lev.where, lev.trans, lev.inv)}
        assert len(buffers) == (1 if levels else 0)
        for lev in levels:
            buf = np.asarray(owner(lev.gens))
            assert isinstance(owner(lev.gens), fpgroups._Buffer)
            for f in (lev.gens, lev.orbit, lev.where, lev.trans, lev.inv):
                assert f.dtype == np.int32 and np.shares_memory(f, buf)
            assert lev.where[lev.orbit].tolist() == list(range(len(lev.orbit)))
            off = np.ones(deg, dtype=bool)
            off[lev.orbit] = False
            assert (lev.where[off] == -1).all()

    def test_cyclic_group_of_degree_2000(self):
        # one level of 2000 transversal rows: storage grows with the orbit,
        # not with degree x degree per level
        g = PermGroup.cyclic(2000)
        assert len(g.chain.levels) == 1
        assert g.order() == 2000

    def test_compiled_chain_rejects_a_non_permutation(self):
        with pytest.raises(ValueError):
            groups._schreier_sims([(0, 0)], 2)
        with pytest.raises(ValueError):
            groups._schreier_sims([(0, 2)], 2)

    @pytest.mark.skipif(sys.platform != "linux", reason="needs /proc")
    def test_allocation_failure_is_memory_error(self):
        # ten disjoint 1000-cycles on 10,000 points: ten levels, each with a
        # transversal and its inverses of 80 MB; allow 256 MB past the
        # imports, so an allocation fails while deeper levels are completed
        code = """if True:
            import resource
            from flatact.groups import PermGroup, Permutation
            with open("/proc/self/status") as fh:
                vm = [int(l.split()[1]) for l in fh if l.startswith("VmSize")][0]
            limit = vm * 1024 + (256 << 20)
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
            gens = [Permutation.from_cycles(10000, [tuple(range(k, k + 1000))])
                    for k in range(0, 10000, 1000)]
            try:
                PermGroup(gens)
            except MemoryError as exc:
                print("MemoryError", exc)
            """
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=300, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "MemoryError stabilizer chain does not fit in memory"


def _random_group(seed):
    rng = random.Random(seed)
    deg = rng.randrange(2, 9)
    gens = []
    for _ in range(rng.randrange(1, 4)):
        images = list(range(deg))
        rng.shuffle(images)
        gens.append(Permutation(tuple(images)))
    return PermGroup(gens, degree=deg)


ELEMENT_CASES = (
    [pytest.param(lambda n=n: PermGroup.symmetric(n), id="S%d" % n) for n in range(1, 8)]
    + [pytest.param(lambda n=n: PermGroup.alternating(n), id="A%d" % n) for n in range(3, 9)]
    + [pytest.param(lambda n=n: PermGroup.cyclic(n), id="C%d" % n) for n in (1, 2, 7, 12)]
    + [pytest.param(lambda n=n: PermGroup([Permutation.from_cycles(n, [tuple(range(n))]),
                                           Permutation.from_cycles(n, [(1, n - 1)])]),
                    id="D%d" % n) for n in (4, 5, 8)]
    + [pytest.param(_weyl_d5_on_ten_points, id="W(D5)"),
       pytest.param(lambda: PermGroup([Permutation.identity(5)]), id="trivial"),
       pytest.param(lambda: PermGroup([], degree=0), id="degree-0"),
       pytest.param(lambda: PermGroup([], degree=1), id="degree-1")]
    + [pytest.param(lambda seed=seed: _random_group(seed), id="random-%d" % seed)
       for seed in range(20)]
)


@pytest.mark.parametrize("make", ELEMENT_CASES)
def test_elements_match_a_closure(make):
    # the element rows come from products of the chain's transversals; the
    # reference closes the generators under composition
    group = make()
    expected = closure_by_bfs([g.images for g in group.generators()], group.degree)
    els = group.elements()
    assert [x.images for x in els] == expected
    assert len(els) == group.order()
    assert [tuple(r) for r in group.element_index().rows.tolist()] == expected


def _partitions(n, largest=None):
    """The partitions of n as non-increasing tuples."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _associative(table):
    """The triple loop over all (a, b, c): the oracle of Light's test in
    `TableGroup._check_axioms`."""
    n = len(table)
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def _reduced_latin_squares(n):
    """Every n x n Latin square whose first row and column are 0..n-1 in
    order: the loops on 0..n-1 with identity 0."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]

    def fill(k):
        if k == n * n:
            yield [tuple(r) for r in rows]
            return
        i, j = divmod(k, n)
        if i == 0 or j == 0:
            yield from fill(k + 1)
            return
        used = set(rows[i][:j]) | {rows[r][j] for r in range(i)}
        for v in range(n):
            if v not in used:
                rows[i][j] = v
                yield from fill(k + 1)
        rows[i][j] = None
    return list(fill(0))


def _swapped_intercalate(m):
    """The table of C_2m with the intercalate on rows and columns 1 and
    m + 1 swapped: a commutative loop with identity 0."""
    n = 2 * m
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    for a, b in [(1, 1), (1, m + 1), (m + 1, 1), (m + 1, m + 1)]:
        table[a][b] = (table[a][b] + m) % n
    return table


def _times_c2(table):
    """The direct product C2 x L of a loop L given by its table, with
    (g, l) at index g + 2*l: index 1 is the central involution, so it is
    the first of `generators()` and the products that break associativity
    need another generator."""
    n = len(table)
    return [[(g + h) % 2 + 2 * table[l][k] for k in range(n) for h in range(2)]
            for l in range(n) for g in range(2)]


def _dihedral_table(m):
    els = [(r, f) for f in range(2) for r in range(m)]
    return TableGroup.from_function(
        els, lambda x, y: ((x[0] + (-1) ** x[1] * y[0]) % m, (x[1] + y[1]) % 2),
        (0, 0)).table


class TestTableGroup:
    @pytest.mark.parametrize("table", [TableGroup.cyclic(n).table for n in (1, 2, 7, 12, 30)]
                             + [_dihedral_table(m) for m in (2, 3, 5, 8)])
    def test_associativity_agrees_with_triple_loop_on_groups(self, table):
        assert _associative(table)
        assert TableGroup(table).table == table

    def test_associativity_agrees_with_triple_loop_on_loops_of_order_5(self):
        squares = _reduced_latin_squares(5)
        assert len(squares) == 56
        verdicts = []
        for table in squares:
            try:
                TableGroup(table)
                verdicts.append(True)
            except GroupError as exc:
                assert str(exc) == "table is not associative"
                verdicts.append(False)
        assert verdicts == [_associative(t) for t in squares]
        assert not all(verdicts)

    @pytest.mark.parametrize("m", [3, 4, 6, 10])
    @pytest.mark.parametrize("times_c2", [False, True])
    def test_nonassociative_loop_rejected(self, m, times_c2):
        table = _swapped_intercalate(m)
        if times_c2:
            table = _times_c2(table)
            assert TableGroup(table, check=False).generators()[0] == 1
        assert not _associative(table)
        with pytest.raises(GroupError, match="table is not associative"):
            TableGroup(table)

    def test_cyclic(self):
        c6 = TableGroup.cyclic(6)
        assert c6.order() == 6
        assert c6.element_order(1) == 6
        assert c6.element_order(2) == 3

    def test_bad_table_rejected(self):
        with pytest.raises(GroupError):
            TableGroup([[0, 1], [0, 1]])  # second row not a bijection over {0,1}

    @pytest.mark.parametrize("check", [True, False])
    @pytest.mark.parametrize("table,identity_index", [
        ([], 0), ([[0]], 1), ([[0]], -1), ([[0, 1], [1, 0]], 2)])
    def test_identity_outside_the_table_rejected(self, table, identity_index, check):
        with pytest.raises(GroupError, match="not one of the %d table elements" % len(table)):
            TableGroup(table, identity_index=identity_index, check=check)

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
        (PermGroup.cyclic(300), "uint16"), (PermGroup.symmetric(7), "uint8"),
        (PermGroup.alternating(8), "uint8"), (_weyl_d5_on_ten_points(), "uint8"),
        (PermGroup([Permutation.from_cycles(28, [(2 * i, 2 * i + 1)]) for i in range(14)]),
         "uint8")],
        ids=["A6", "C6", "D4", "C300", "S7", "A8", "W(D5)", "2^14"])
    def test_element_index(self, group, dtype):
        index = group.element_index()
        els = group.elements()
        assert index.rows.dtype == dtype
        assert [tuple(r) for r in index.rows.tolist()] == [x.images for x in els]
        assert index.orders.dtype == np.int64
        assert index.orders.tolist() == [x.order() for x in els]
        # the generic loop multiplies until the identity, with no cycles
        assert index.orders.tolist() == [FiniteGroup.element_order(group, x) for x in els]
        assert index.lookup(index.rows[::-1]).tolist() == list(range(len(els)))[::-1]
        assert index.lookup([[0] * group.degree]).tolist() == [-1]

    def test_a9_orders_match_cycle_type_counts(self):
        # an even cycle type with m_k cycles of length k has
        # n!/prod(k^m_k m_k!) elements, all of order lcm(k); orders spread
        # along wrong class labels would change these counts
        n = 9
        expected = Counter()
        for parts in _partitions(n):
            if sum(k - 1 for k in parts) % 2:
                continue
            size = math.factorial(n)
            for k, m in Counter(parts).items():
                size //= k ** m * math.factorial(m)
            expected[math.lcm(*parts)] += size
        index = PermGroup.alternating(n).element_index()
        assert len(index.class_reps) == 18
        assert np.bincount(index.orders).tolist() == [
            expected[k] for k in range(max(expected) + 1)]

    def test_element_index_digest(self):
        # computed before the row keys were packed into uint64 and the
        # conjugation maps were read off a sort
        assert element_index_digest() == \
            "332a7a419c5848ddddf3d8c24026798f0c14b595e8c30bd25a324c7de4d1d5be"

    @pytest.mark.parametrize("degree", [0, 1, 2, 9, 16, 17])
    def test_row_keys_sort_like_rows(self, degree):
        # the columns are the sort keys of np.lexsort, which has none at
        # degree 0.  The group is S3 on each block of three points (S2 on
        # a last block of two), with the points relabelled at random
        rng = random.Random(degree)
        points = list(range(degree))
        rng.shuffle(points)
        blocks = [points[i:i + 3] for i in range(0, degree, 3)]
        gens = [Permutation.from_cycles(degree, cycles) for b in blocks if len(b) > 1
                for cycles in ([tuple(b[:2])], [tuple(b)])]
        group = PermGroup(gens, degree=degree)
        rows = groups._transversal_products(group.chain.levels, degree)
        assert rows.dtype == np.min_scalar_type(max(degree - 1, 0))
        assert len(rows) == group.order() == math.prod(
            math.factorial(len(b)) for b in blocks)
        tuples = [tuple(r) for r in rows.tolist()]
        assert tuples == sorted(set(tuples))

    def test_lookup_rejects_entries_beyond_the_degree(self):
        # at 2 bits an entry, (0, 4, 2) once packed to the key of (1, 0, 2),
        # and 300 and -1 once overflowed the uint8 rows
        index = PermGroup.symmetric(3).element_index()
        assert index.lookup([[1, 0, 2], [0, 4, 2]]).tolist() == [2, -1]
        index = PermGroup.alternating(5).element_index()
        assert index.lookup([[0, 1, 2, 3, 4], [0, 1, 2, 3, 300],
                             [0, 1, 2, 3, -1]]).tolist() == [0, -1, -1]

    @pytest.mark.parametrize("make", [
        pytest.param(lambda n=n: PermGroup.alternating(n), id="A%d" % n) for n in range(3, 10)]
        + [pytest.param(lambda n=n: PermGroup.symmetric(n), id="S%d" % n) for n in range(2, 9)]
        + [pytest.param(lambda: PermGroup.cyclic(16), id="C16"),
           pytest.param(lambda: PermGroup.cyclic(300), id="C300")]
        + [pytest.param(lambda k=k: PermGroup(
            [Permutation.from_cycles(2 * k, [(2 * i, 2 * i + 1)]) for i in range(k)]),
            id="2^%d" % k) for k in (1, 4, 10)]
        + [pytest.param(lambda: PermGroup([], degree=3), id="trivial"),
           pytest.param(lambda: PermGroup([Permutation.from_cycles(5, [(0, 1, 2), (3, 4)])]),
                        id="one-generator")])
    def test_compiled_class_labels_match_propagation(self, make):
        group = make()
        index = group.element_index()
        gens = group.generators()
        compiled = index._class_labels(gens)
        propagated = engine_oracle.class_labels(index.rows, gens)
        for comp, prop in zip(compiled, propagated):
            assert comp.dtype == prop.dtype == np.int64
            assert comp.tolist() == prop.tolist()
        assert len(gens) or compiled[0].tolist() == [0]

    def test_compiled_labels_of_random_permutations(self):
        # groups generated by one to three random permutations of 2..8 points
        made = [_random_group(seed) for seed in range(40)]
        compiled = [g.element_index()._class_labels(g.generators()) for g in made]
        for seed, (group, comp) in enumerate(zip(made, compiled)):
            prop = engine_oracle.class_labels(group.element_index().rows, group.generators())
            assert [a.tolist() for a in comp] == [a.tolist() for a in prop], seed

    def test_compiled_labels_reject_an_entry_out_of_range(self):
        index = PermGroup.symmetric(3).element_index()
        # generators built unchecked: entries beyond the degree, and a repeat
        for bad in ((0, 3, 2), (0, -1, 2), (0, 0, 2)):
            with pytest.raises(ValueError):
                index._class_labels([groups._perm(bad)])

    def test_index_of_a_non_closed_element_list_raises(self):
        # without its last two rows, no element of S3 left maps 0 to 2
        for cut in (1, 2):
            group = PermGroup.symmetric(3)
            group._rows = group._sorted_rows()[:-cut]
            with pytest.raises(GroupError):
                group.element_index()
            with pytest.raises(GroupError):
                engine_oracle.class_labels(group._rows, group.generators())

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
        a4 = PermGroup.alternating(4)
        subs = abelian_normal_subgroups(a4)
        assert max(len(s) for s in subs) == 4
        klein = largest_abelian_normal_subgroup(a4)
        assert klein == max(subs, key=len)
        assert sorted(x.order() for x in klein) == [1, 2, 2, 2]

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
            largest_abelian_normal_subgroup(PermGroup.alternating(5), order_bound=59)
        with pytest.raises(GroupBoundExceeded, match="too large"):
            PermGroup.symmetric(11).elements()
        assert issubclass(GroupBoundExceeded, GroupError)


def normal_subgroups(group):
    """All normal subgroups as sorted element lists, in (order, element
    keys) order: the joins of the normal closures of the conjugacy
    classes, each a subgroup closure.  The reference that
    `largest_abelian_normal_subgroup` is checked against."""
    classes = conjugacy_classes(group)
    closures = []
    for cls in classes:
        c = frozenset(subgroup_closure(group, cls))
        if c not in closures:
            closures.append(c)
    result = set(closures) | {frozenset({group.identity()})}
    frontier = set(result)
    while frontier:
        new = set()
        for a in frontier:
            for b in closures:
                if not b <= a:
                    join = frozenset(subgroup_closure(group, sorted(a | b, key=groups._element_key)))
                    if join not in result:
                        new.add(join)
        result |= new
        frontier = new
    subs = [sorted(s, key=groups._element_key) for s in result]
    return sorted(subs, key=lambda s: (len(s), [groups._element_key(x) for x in s]))


def abelian_normal_subgroups(group):
    return [sub for sub in normal_subgroups(group)
            if all(group.multiply(a, b) == group.multiply(b, a)
                   for i, a in enumerate(sub) for b in sub[i + 1:])]


def _direct_product(*factors):
    """The direct product of permutation groups, on disjoint points."""
    degree = sum(f.degree for f in factors)
    gens, offset = [], 0
    for f in factors:
        for g in f.generators():
            images = list(range(degree))
            images[offset:offset + f.degree] = [offset + x for x in g.images]
            gens.append(Permutation(tuple(images)))
        offset += f.degree
    return PermGroup(gens, degree=degree)


def _dihedral(m):
    return PermGroup([tuple((i + 1) % m for i in range(m)),
                      tuple((m - i) % m for i in range(m))])


def _wreath_c2(top):
    """C2 wr T on 2k points, T a group of block permutations of degree k:
    point 2i + b is bit b of block i."""
    gens = [Permutation.from_cycles(2 * top.degree, [(0, 1)])]
    gens += [Permutation(tuple(2 * t.images[p // 2] + p % 2 for p in range(2 * top.degree)))
             for t in top.generators()]
    return PermGroup(gens)


def _extraspecial(k):
    """The extraspecial group 2^(1+2k) of + type on the points (v, s) of
    F_2^k x F_2, numbered 2v + s: the translations of v and the sign
    changes s += v_j.  Its largest abelian normal subgroups are the
    preimages of the Lagrangian subspaces of F_2^2k, all of one order."""
    gens = []
    for j in range(k):
        gens.append(tuple(p ^ 2 << j for p in range(2 ** (k + 1))))
        gens.append(tuple(p ^ (p >> j + 1 & 1) for p in range(2 ** (k + 1))))
    return PermGroup(gens)


def _random_subgroup(seed):
    """The subgroup of one to three seeded random elements of a small
    imprimitive or product group."""
    rng = random.Random(seed)
    ambient = rng.choice([
        lambda: _wreath_c2(PermGroup.symmetric(3)),
        lambda: _wreath_c2(PermGroup.cyclic(4)),
        lambda: _direct_product(PermGroup.symmetric(4), PermGroup.symmetric(3)),
        lambda: _direct_product(_dihedral(4), _dihedral(4)),
        lambda: _direct_product(_dihedral(6), PermGroup.cyclic(2)),
    ])()
    els = ambient.elements()
    return PermGroup([rng.choice(els) for _ in range(rng.randrange(1, 4))],
                     degree=ambient.degree)


def _small_query_groups():
    """The groups of the `small-queries` Jordan witnesses."""
    out = [TableGroup.cyclic(n) for n in (1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 25, 60)]
    out += [_dihedral(m) for m in range(3, 13)]
    return out + [PermGroup.symmetric(3), PermGroup.symmetric(4), PermGroup.symmetric(5),
                  PermGroup.alternating(4), PermGroup.alternating(5)]


ORACLE_CASES = (
    [pytest.param(g, id="small-queries-%d" % i) for i, g in enumerate(_small_query_groups())]
    + [pytest.param(g, id="jordan-corpus-%d" % i) for i, g in enumerate(_jordan_corpus())]
    + [pytest.param(_random_subgroup(seed), id="random-%d" % seed) for seed in range(30)]
    # several abelian normal subgroups of the largest order
    + [pytest.param(_wreath_c2(PermGroup.cyclic(4)), id="C2wrC4"),
       pytest.param(_wreath_c2(PermGroup([(1, 0, 3, 2), (2, 3, 0, 1)])), id="C2wrC2^2"),
       pytest.param(_direct_product(_dihedral(4), PermGroup.cyclic(2)), id="D4xC2"),
       pytest.param(_extraspecial(2), id="2^(1+4)"),
       pytest.param(_direct_product(*[PermGroup.cyclic(2)] * 4), id="C2^4")]
)


class TestLargestAbelianNormalSubgroup:
    @pytest.mark.parametrize("group", ORACLE_CASES)
    def test_matches_the_lattice_filter(self, group):
        # the largest abelian normal subgroup, and of several the first by
        # (order, element keys), as the normal-subgroup lattice gives it
        expected = max(abelian_normal_subgroups(group), key=len)
        assert largest_abelian_normal_subgroup(group) == expected

    def test_ties_are_broken_by_element_keys(self):
        d4 = _dihedral(4)
        subs = [s for s in abelian_normal_subgroups(d4) if len(s) == 4]
        assert len(subs) == 3
        assert largest_abelian_normal_subgroup(d4) == subs[0]

    @pytest.mark.parametrize("make, size", [
        (lambda: PermGroup.symmetric(7), 1),
        (lambda: _direct_product(*[PermGroup.cyclic(2)] * 10), 1024),
    ], ids=["S7", "C2^10"])
    def test_groups_beyond_the_lattice(self, make, size):
        # the normal-subgroup lattice took minutes on S7 and on C2^6
        group = make()
        t0 = time.perf_counter()
        sub = largest_abelian_normal_subgroup(group)
        assert len(sub) == size
        assert time.perf_counter() - t0 < 5

    def test_clique_search_limit(self, monkeypatch):
        # 2^(1+6) has 135 maximal abelian normal subgroups, all of order
        # 16; their search looks at 9,569 vertices to choose pivots
        group = _extraspecial(3)
        monkeypatch.setattr(groups, "CLIQUE_SEARCH_LIMIT", 9569)
        assert len(largest_abelian_normal_subgroup(group)) == 16
        monkeypatch.setattr(groups, "CLIQUE_SEARCH_LIMIT", 9568)
        with pytest.raises(GroupBoundExceeded, match="clique search over 9568 steps"):
            largest_abelian_normal_subgroup(group)


class TestHomsAndIsos:
    def test_hom_validation(self):
        c4 = TableGroup.cyclic(4)
        c2 = TableGroup.cyclic(2)
        f = GroupHom(c4, c2, [1])
        assert [f(x) for x in c4.elements()] == [0, 1, 0, 1]
        with pytest.raises(GroupError):
            GroupHom(c4, TableGroup.cyclic(3), [1])

    def test_find_isomorphism(self):
        a = PermGroup.cyclic(6)
        b = TableGroup.cyclic(6)
        iso = find_isomorphism(a, b)
        assert iso is not None
        assert iso.is_injective()
        assert sorted(iso(x) for x in a.elements()) == b.elements()

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

    @pytest.mark.parametrize("text", ["perm -2 0", "perm 2 -1\n0 1\n", "perm -2 -1\n0 1\n"])
    def test_negative_degree_or_generator_count(self, text):
        with pytest.raises(GroupError, match="is negative"):
            group_from_text(text)


@given(st.integers(2, 7), st.integers(2, 7))
@settings(max_examples=30, deadline=None)
def test_cyclic_isomorphism_exists_iff_same_order(m, n):
    a = PermGroup.cyclic(m)
    b = TableGroup.cyclic(n)
    assert (find_isomorphism(a, b) is not None) == (m == n)

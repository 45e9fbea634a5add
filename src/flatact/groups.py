"""Finite group machinery.

Two backings share one interface: permutation groups carry a
Schreier-Sims stabilizer chain (membership, order, large groups), table
groups carry an explicit multiplication table (quotients, extensions,
certificates).  Elements are opaque handles: Permutation objects for the
former, integer indices for the latter.

The stabilizer chain is built by the compiled engine of `fpgroups`
(`fa_schreier_sims` in `_coset.c`): levels of a base point, its strong
generators, orbit, `where`, transversal and inverses (`_Level`).  The
sorted element rows of a `PermGroup` come from `fa_sorted_rows`, and the
conjugacy-class labels and element orders of an `ElementIndex` from
`fa_class_labels`.  The tests compare all three with the same algorithms
in Python and numpy, `tests/engine_oracle.py`.  The rows, in ascending
lexicographic order, are the one form of the elements that the index
keeps, and `ElementIndex.lookup` is a binary search of them.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import BoundExceeded, fpgroups


class GroupError(Exception):
    pass


class GroupBoundExceeded(GroupError, BoundExceeded):
    """A group is over an order bound (enumeration, subgroup search)."""


# ---------------------------------------------------------------------------
# permutations

def _pmul(a, b):
    """Composition: apply b first, then a.  (On CPython 3.11 a list
    comprehension is faster than tuple(map(a.__getitem__, b)), whose
    method-wrapper calls cost more than the indexing.)"""
    return tuple([a[x] for x in b])


def _pinv(a):
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


@dataclass(frozen=True, order=True, slots=True)
class Permutation:
    """A permutation of 0..deg-1 by its image tuple.  The constructor
    checks that the tuple is a permutation; results computed from
    permutations are built unchecked by `_perm`."""

    images: tuple

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise GroupError("not a permutation of 0..deg-1")

    @staticmethod
    def identity(deg):
        return _perm(tuple(range(deg)))

    @staticmethod
    def from_cycles(deg, cycles):
        images = list(range(deg))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a] = b
        return Permutation(tuple(images))

    @property
    def degree(self):
        return len(self.images)

    def __mul__(self, other):
        a, b = self.images, other.images
        if len(a) != len(b):
            raise GroupError("degree mismatch")
        return _perm(_pmul(a, b))

    def inverse(self):
        return _perm(_pinv(self.images))

    def __call__(self, point):
        return self.images[point]

    def is_identity(self):
        return all(i == x for i, x in enumerate(self.images))

    def order(self):
        return math.lcm(*map(len, self.cycles()))

    def cycles(self):
        seen = set()
        out = []
        for i in range(self.degree):
            if i in seen or self.images[i] == i:
                continue
            cyc = [i]
            j = self.images[i]
            while j != i:
                seen.add(j)
                cyc.append(j)
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def __str__(self):
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cyc)


_set_images = Permutation.images.__set__


def _perm(images):
    """A Permutation from a tuple known to be a permutation (no check)."""
    p = object.__new__(Permutation)
    _set_images(p, images)
    return p


# ---------------------------------------------------------------------------
# stabilizer chains

class _Level:
    """A level of a stabilizer chain as `fa_schreier_sims` lays it out: the
    base `point`, the strong generators `gens` first stuck here, the `orbit`
    of the point in breadth-first order, `where` (each point's place in the
    orbit, or -1), the transversal rows `trans` (row k maps the point to
    orbit[k]) and their inverses `inv`, int32 arrays viewing the engine's
    buffer."""

    __slots__ = ("point", "gens", "orbit", "where", "trans", "inv")

    def __init__(self, point, gens, orbit, where, trans, inv):
        self.point, self.gens, self.orbit = point, gens, orbit
        self.where, self.trans, self.inv = where, trans, inv


def _schreier_sims(generators, degree):
    """The levels of the StabilizerChain of `generators` (image tuples),
    built by `fa_schreier_sims` of the compiled engine as views of its
    buffer.  Raises MemoryError when the chain does not fit."""
    gens = np.array(generators, dtype=np.int32).reshape(len(generators), degree)
    bad = ValueError("generator is not a permutation of 0..degree-1")
    out = fpgroups._run_compiled(
        fpgroups._LIB.fa_schreier_sims, (degree, len(gens), gens.ctypes.data),
        (bad, MemoryError("stabilizer chain does not fit in memory"), bad))
    # per level: point, generator count, orbit length, the generators, the
    # orbit, where, the transversal and its inverses
    levels, pos = [], 1
    for _ in range(out[0]):
        point, ngens, norbit = out[pos:pos + 3].tolist()
        at = pos + 3 + ngens * degree           # the orbit
        to = at + norbit + degree               # the transversal
        trans = out[to:to + 2 * norbit * degree].reshape(2, norbit, degree)
        levels.append(_Level(point, out[pos + 3:at].reshape(ngens, degree),
                             out[at:at + norbit], out[at + norbit:to], trans[0], trans[1]))
        pos = to + 2 * norbit * degree
    return levels


class StabilizerChain:
    """Deterministic Schreier-Sims chain over raw image tuples, built by
    `fa_schreier_sims`.

    Level i stores the strong generators first stuck at level i; the
    generating set acting at level i is the union over levels >= i (all of
    those fix the first i base points).
    """

    def __init__(self, generators, degree):
        self.degree = degree
        self.levels = _schreier_sims(generators, degree)

    def order(self):
        n = 1
        for lev in self.levels:
            n *= len(lev.orbit)
        return n

    def contains(self, g):
        """Whether g sifts to the identity through the levels."""
        ident = tuple(range(self.degree))
        for lev in self.levels:
            if g == ident:
                return True
            k = lev.where[g[lev.point]]
            if k < 0:
                return False
            g = _pmul(lev.inv[k], g)
        return g == ident


# ---------------------------------------------------------------------------
# the two group backings

class FiniteGroup:
    """Common interface: element handles, multiplication, enumeration."""

    def order(self):
        raise NotImplementedError

    def identity(self):
        raise NotImplementedError

    def multiply(self, a, b):
        raise NotImplementedError

    def inverse(self, a):
        raise NotImplementedError

    def generators(self):
        raise NotImplementedError

    def elements(self):
        raise NotImplementedError

    def contains(self, x):
        raise NotImplementedError

    def element_order(self, a):
        n = 1
        cur = a
        e = self.identity()
        while cur != e:
            cur = self.multiply(cur, a)
            n += 1
        return n

    def conjugate(self, g, x):
        """g x g^-1."""
        return self.multiply(self.multiply(g, x), self.inverse(g))

    def is_abelian(self):
        gens = self.generators()
        return all(
            self.multiply(a, b) == self.multiply(b, a) for a in gens for b in gens
        )


_ENUM_LIMIT = 4_000_000


class PermGroup(FiniteGroup):
    def __init__(self, generators, degree=None):
        generators = [
            g if isinstance(g, Permutation) else Permutation(tuple(g))
            for g in generators
        ]
        if degree is None:
            if not generators:
                raise GroupError("degree required for a trivial permutation group")
            degree = generators[0].degree
        for g in generators:
            if g.degree != degree:
                raise GroupError("generator degree mismatch")
        self.degree = degree
        self._gens = [g for g in generators if not g.is_identity()]
        self.chain = StabilizerChain([g.images for g in self._gens], degree)
        self._elements = None
        self._rows = None
        self._index = None

    def order(self):
        return self.chain.order()

    def identity(self):
        return Permutation.identity(self.degree)

    def multiply(self, a, b):
        return a * b

    def inverse(self, a):
        return a.inverse()

    def element_order(self, a):
        return a.order()

    def generators(self):
        return list(self._gens)

    def contains(self, x):
        if isinstance(x, Permutation):
            if x.degree != self.degree:
                raise GroupError("degree mismatch")
            return self.chain.contains(x.images)
        raise GroupError("expected a Permutation")

    def elements(self):
        if self._elements is None:
            self._elements = [_perm(tuple(r)) for r in self._sorted_rows().tolist()]
        return self._elements

    def _sorted_rows(self):
        """The elements as rows in ascending lexicographic order, built
        once by `_transversal_products`."""
        if self._rows is None:
            if self.order() > _ENUM_LIMIT:
                raise GroupBoundExceeded("group too large to enumerate")
            self._rows = _transversal_products(self.chain.levels, self.degree)
        return self._rows

    def element_index(self):
        """The ElementIndex of this group, built on first use."""
        if self._index is None:
            self._index = ElementIndex(self)
        return self._index

    @staticmethod
    def symmetric(n):
        if n <= 1:
            return PermGroup([], degree=max(n, 1))
        gens = [Permutation.from_cycles(n, [tuple(range(n))]),
                Permutation.from_cycles(n, [(0, 1)])]
        return PermGroup(gens)

    @staticmethod
    def alternating(n):
        if n <= 2:
            return PermGroup([], degree=max(n, 1))
        gens = [Permutation.from_cycles(n, [(0, 1, 2)])]
        if n > 3:
            if n % 2 == 1:
                gens.append(Permutation.from_cycles(n, [tuple(range(n))]))
            else:
                gens.append(Permutation.from_cycles(n, [tuple(range(1, n))]))
        return PermGroup(gens)

    @staticmethod
    def cyclic(n):
        return PermGroup([Permutation.from_cycles(n, [tuple(range(n))])]) if n > 1 \
            else PermGroup([], degree=1)


def compose_rows(a, b):
    """Row-wise composition of permutation rows: out[k] = a[k] o b[k]
    (apply b[k] first).  A single row on either side is broadcast."""
    if a.ndim == 1:
        return a[b]
    if b.ndim == 1 or a.shape[1] == 0:
        return a[:, b]
    return a.ravel()[b + np.arange(0, a.size, a.shape[1])[:, None]]


def _row_dtype(degree):
    """The smallest unsigned dtype that holds a point."""
    return np.min_scalar_type(max(degree - 1, 0))


def _index_errors():
    """The errors of `fa_sorted_rows` and `fa_class_labels` by status."""
    return (None, MemoryError("element index does not fit in memory"),
            ValueError("entry outside 0..degree-1 or a generator not a permutation"),
            GroupError("element list is not closed under conjugation"))


def _transversal_products(levels, degree):
    """The rows of the group whose stabilizer chain has `levels`, sorted.
    Each element is one product u_0 u_1 ... of one transversal element per
    level, so `fa_sorted_rows` forms the products of the level transversals
    in place and sorts them."""
    dtype = _row_dtype(degree)
    trans = [np.ascontiguousarray(lev.trans, dtype=np.int32) for lev in levels]
    sizes = np.array([len(t) for t in trans], dtype=np.int64)
    at = np.array([t.ctypes.data for t in trans], dtype=np.uintp)
    rows = np.empty((math.prod(sizes.tolist()), degree), dtype=dtype)
    fpgroups._check_status(fpgroups._LIB.fa_sorted_rows(
        degree, dtype.itemsize, len(levels), sizes.ctypes.data, at.ctypes.data,
        rows.ctypes.data), _index_errors())
    return rows


class ElementIndex:
    """The elements of a permutation group as arrays, for searches that
    treat many elements in one numpy pass.

    Row i of `rows` is the image tuple of `group.elements()[i]`, so the
    rows are sorted; the dtype is the smallest unsigned one that holds a
    point.  `orders[i]` is the order of element i, `class_of[i]` the
    number of its conjugacy class in the order `conjugacy_classes` lists
    them, and `class_reps[c]` the first element of class c.
    """

    def __init__(self, group):
        self.rows = group._sorted_rows()
        self.class_of, self.class_reps, self.orders = self._class_labels(group.generators())

    def lookup(self, rows):
        """Index of each row of `rows` among the elements, -1 for a row
        that is not an element: a binary search of the sorted rows for
        every query at once, in int64, so any int64 entry is a query."""
        table = self.rows
        n, width = table.shape
        queries = np.asarray(rows, dtype=np.int64)
        at = np.arange(len(queries))
        pos = np.zeros(len(queries), dtype=np.intp)     # rows below the query
        # rows of no points are all equal: there is nothing to search
        for k in reversed(range(n.bit_length() if width else 0)):
            step = pos + (1 << k)
            # row step - 1 is below when its first differing entry is
            diff = table[np.minimum(step, n) - 1] - queries
            below = diff[at, (diff != 0).argmax(axis=1)] < 0
            pos = np.where((step <= n) & below, step, pos)
        hit = (pos < n) & (table[np.minimum(pos, n - 1)] == queries).all(axis=1)
        return np.where(hit, pos, -1)

    def _class_labels(self, gens):
        """`class_of`, `class_reps` and `orders` as int64 arrays, by
        `fa_class_labels`.  Raises GroupError when the rows are not closed
        under conjugation by `gens`."""
        rows = np.ascontiguousarray(self.rows)
        gens = np.array([g.images for g in gens], dtype=np.int32)
        class_of, reps, orders = (np.empty(len(rows), dtype=np.int64) for _ in range(3))
        nclasses = np.zeros(1, dtype=np.int64)
        fpgroups._check_status(fpgroups._LIB.fa_class_labels(
            rows.shape[1], rows.itemsize, len(rows), rows.ctypes.data, len(gens),
            gens.ctypes.data, class_of.ctypes.data, reps.ctypes.data, orders.ctypes.data,
            nclasses.ctypes.data), _index_errors())
        return class_of, reps[:nclasses[0]], orders

    def classes(self):
        """The element indices of each conjugacy class, ascending, in
        class order."""
        members = np.argsort(self.class_of, kind="stable")
        return np.split(members, np.cumsum(np.bincount(self.class_of))[:-1])


class TableGroup(FiniteGroup):
    """Multiplication-table group; elements are indices 0..n-1 with the
    identity at index `identity_index`."""

    def __init__(self, table, identity_index=0, check=True):
        self.table = tuple(tuple(row) for row in table)
        self.n = len(self.table)
        if not 0 <= identity_index < self.n:
            raise GroupError("identity index %r is not one of the %d table elements"
                             % (identity_index, self.n))
        self.e = identity_index
        self._gens = None
        if check:
            self._check_axioms()
        self._inv = [row.index(self.e) for row in self.table]

    def _check_axioms(self):
        n = self.n
        for row in self.table:
            if len(row) != n:
                raise GroupError("table is not square")
            if sorted(row) != list(range(n)):
                raise GroupError("row is not a permutation (no left cancellation)")
        for j in range(n):
            col = [self.table[i][j] for i in range(n)]
            if sorted(col) != list(range(n)):
                raise GroupError("column is not a permutation")
        e = self.e
        for i in range(n):
            if self.table[e][i] != i or self.table[i][e] != i:
                raise GroupError("identity element is wrong")
        # associativity by Light's test: (a*s)*c = a*(s*c) for all a, c
        # and every generator s.  The s for which that holds contain e and
        # are closed under products, and generators() reaches every element
        # from e by right multiplication with them, so the test is exact.
        for s in self.generators():
            rs = self.table[s]
            for a in range(n):
                ra = self.table[a]
                if self.table[ra[s]] != tuple(ra[c] for c in rs):
                    raise GroupError("table is not associative")

    def order(self):
        return self.n

    def identity(self):
        return self.e

    def multiply(self, a, b):
        return self.table[a][b]

    def inverse(self, a):
        return self._inv[a]

    def elements(self):
        return list(range(self.n))

    def contains(self, x):
        return isinstance(x, int) and 0 <= x < self.n

    def generators(self):
        if self._gens is None:
            # deterministic greedy generating set
            gens = []
            current = {self.e}
            for x in range(self.n):
                if x not in current:
                    gens.append(x)
                    current = set(subgroup_closure(self, gens))
                    if len(current) == self.n:
                        break
            self._gens = gens
        return list(self._gens)

    @staticmethod
    def from_function(elements, mul, identity):
        index = {x: i for i, x in enumerate(elements)}
        table = [
            [index[mul(a, b)] for b in elements] for a in elements
        ]
        return TableGroup(table, identity_index=index[identity])

    @staticmethod
    def cyclic(n):
        return TableGroup([[(i + j) % n for j in range(n)] for i in range(n)])


def _walk(start, gens, step, image=None, gen_images=None, image_step=None):
    """Breadth-first walk from `start` along the edges x -> step(x, g),
    g in `gens`.

    Without `image_step`, returns the elements reached (a dict's keys).
    With it, carries an image along every edge, from `image` at `start`
    to image_step(image of x, gen_images[i]) at step(x, gens[i]), and
    returns the dict element -> image; it raises GroupError where two
    paths give one element different images.
    """
    if gen_images is None:
        gen_images = [None] * len(gens)
    edges = list(zip(gens, gen_images))
    reached = {start: image}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            fx = reached[x]
            for g, a in edges:
                y = step(x, g)
                if y not in reached:
                    reached[y] = fx if image_step is None else image_step(fx, a)
                    nxt.append(y)
                elif image_step is not None and reached[y] != image_step(fx, a):
                    raise GroupError("generator images do not define a homomorphism")
        frontier = nxt
    return reached if image_step is not None else reached.keys()


def subgroup_closure(group, gens):
    """All elements of <gens> inside `group`, as a sorted list.  Products
    of `gens` alone reach them all: in a finite group every inverse is a
    positive power."""
    return sorted(_walk(group.identity(), list(gens), group.multiply),
                  key=_element_key)


def is_normal(group, subgroup_gens):
    """True iff the subgroup generated by subgroup_gens is normal in group."""
    sub = set(subgroup_closure(group, subgroup_gens))
    for x in subgroup_gens:
        if x not in sub:
            raise GroupError("subgroup generator outside the group closure")
    for g in group.generators():
        for h in subgroup_gens:
            if group.conjugate(g, h) not in sub:
                return False
    return True


def conjugacy_classes(group):
    """List of conjugacy classes, each a sorted list of elements; the
    class of the identity comes first, then by minimal element."""
    els = group.elements()
    if isinstance(group, PermGroup):
        return [[els[i] for i in cls.tolist()]
                for cls in group.element_index().classes()]
    gens = group.generators()
    seen = set()
    classes = []
    for x in els:
        if x in seen:
            continue
        orbit = _walk(x, gens, lambda y, g: group.conjugate(g, y))
        seen.update(orbit)
        classes.append(sorted(orbit, key=_element_key))
    return classes


def _element_key(x):
    return x.images if isinstance(x, Permutation) else x


def prime_order_class_reps(group):
    """One representative per conjugacy class of prime-order elements,
    as (element, prime) pairs."""
    out = []
    for cls in conjugacy_classes(group):
        rep = cls[0]
        n = group.element_order(rep)
        if n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append((rep, n))
    return out


DEFAULT_SUBGROUP_ORDER_BOUND = 20000
# vertices the pivot choices of the clique search may look at, a few seconds:
# 2^(1+8) with 2,295 maximal abelian normal subgroups takes 1.9 million
CLIQUE_SEARCH_LIMIT = 5_000_000


def largest_abelian_normal_subgroup(group, order_bound=DEFAULT_SUBGROUP_ORDER_BOUND):
    """The abelian normal subgroup of largest order as a sorted element
    list; of several, the first by element keys.

    An abelian normal subgroup is a union of pairwise commuting conjugacy
    classes, and the union of a maximal set of them is a subgroup: the
    subgroup it generates is abelian and normal, so its classes commute
    with the set.  So the candidates are the maximal cliques of the graph
    on the classes that commute with themselves, two adjacent when they
    commute.  Classes with the same neighbours are taken as one vertex.
    """
    if group.order() > order_bound:
        raise GroupBoundExceeded("group order %d exceeds bound %d" % (group.order(), order_bound))
    els = group.elements()
    if group.is_abelian():
        return list(els)
    # the elements as rows of a faithful permutation representation, a base
    # of it, and the classes as ascending arrays of row numbers; a table
    # group acts by left multiplication, known by its image of the identity
    if isinstance(group, PermGroup):
        index = group.element_index()
        rows, base, classes = index.rows, [lv.point for lv in group.chain.levels], index.classes()
    else:
        rows, base = np.array(group.table), [group.e]
        classes = [np.array(c) for c in conjugacy_classes(group)]
    # commute[c, d]: the first element r of class c commutes with class d,
    # so all of c does and the matrix is symmetric.  Rows that agree on a
    # base are equal, so x r = r x is tested on the base points.
    rows = rows[np.concatenate(classes)]
    starts = np.cumsum([0] + [len(c) for c in classes[:-1]])
    commute = np.zeros((len(classes),) * 2, dtype=bool)
    for c, start in enumerate(starts):
        r, tail = rows[start], rows[start:]
        ok = (tail[:, r[base]] == r[tail[:, base]]).all(axis=1)
        commute[c, c:] = commute[c:, c] = np.logical_and.reduceat(ok, starts[c:] - start)
    twins = {}
    for c in np.flatnonzero(commute.diagonal()).tolist():
        twins.setdefault(commute[c].tobytes(), []).append(c)
    # bit i of a clique is blocks[i]; the block of the least element is the
    # highest bit, so of two cliques of one order the larger int comes first
    blocks = list(twins.values())[::-1]
    heads = [b[0] for b in blocks]
    nbrs = [int.from_bytes(np.packbits(commute[c, heads], bitorder="little").tobytes(),
                           "little") & ~(1 << i) for i, c in enumerate(heads)]
    weight = [sum(len(classes[c]) for c in b) for b in blocks]
    best = max(_maximal_cliques(nbrs), key=lambda c: (sum(weight[i] for i in _bits(c)), c))
    return [els[i] for i in np.sort(np.concatenate(
        [classes[c] for i in _bits(best) for c in blocks[i]])).tolist()]


def _bits(mask):
    """The positions of the set bits of an int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _maximal_cliques(nbrs):
    """Every maximal clique, as a bitmask, of the graph in which vertex i
    has the neighbour bitmask nbrs[i]: Bron-Kerbosch (1973) with Tomita's
    pivot, the vertex of P | X with most neighbours in P."""
    stack, work = [(0, (1 << len(nbrs)) - 1, 0)], 0
    while stack:
        clique, cand, done = stack.pop()
        if not cand | done:
            yield clique
        elif cand:
            work += (cand | done).bit_count()
            if work > CLIQUE_SEARCH_LIMIT:
                raise GroupBoundExceeded("clique search over %d steps" % CLIQUE_SEARCH_LIMIT)
            pivot = max(_bits(cand | done), key=lambda u: (cand & nbrs[u]).bit_count())
            for v in _bits(cand & ~nbrs[pivot]):
                stack.append((clique | 1 << v, cand & nbrs[v], done & nbrs[v]))
                cand, done = cand & ~(1 << v), done | 1 << v


# ---------------------------------------------------------------------------
# homomorphisms

class GroupHom:
    """Homomorphism determined by generator images, verified by building
    the full graph of the map over the domain."""

    def __init__(self, domain, codomain, gen_images):
        self.domain = domain
        self.codomain = codomain
        gens = domain.generators()
        if len(gen_images) != len(gens):
            raise GroupError("need one image per domain generator")
        self.gen_images = list(gen_images)
        self._map = _walk(domain.identity(), gens, domain.multiply,
                          codomain.identity(), self.gen_images, codomain.multiply)
        if len(self._map) != domain.order():
            raise GroupError("generators do not generate the domain")

    def __call__(self, x):
        return self._map[x]

    def is_injective(self):
        return len(set(self._map.values())) == self.domain.order()


def iter_isomorphisms(g, h):
    """Yield every GroupHom isomorphism g -> h, in deterministic order.
    Backtracking over generator images; intended for small groups (order
    <= a few hundred)."""
    if g.order() != h.order():
        return
    gens = g.generators()
    gen_orders = [g.element_order(x) for x in gens]
    h_els = h.elements()
    h_orders = {}
    for x in h_els:
        h_orders.setdefault(h.element_order(x), []).append(x)

    def extend(idx, chosen):
        if idx == len(gens):
            try:
                hom = GroupHom(g, h, chosen)
            except GroupError:
                return
            if hom.is_injective():
                yield hom
            return
        for cand in h_orders.get(gen_orders[idx], []):
            yield from extend(idx + 1, chosen + [cand])

    yield from extend(0, [])


def find_isomorphism(g, h):
    """A GroupHom isomorphism g -> h, or None."""
    return next(iter_isomorphisms(g, h), None)


# ---------------------------------------------------------------------------
# quotients

def quotient_group(group, normal_elements):
    """(TableGroup G/N, projection GroupHom).  normal_elements must be the
    full element list of a normal subgroup."""
    nset = set(normal_elements)
    els = group.elements()
    coset_of = {}
    cosets = []
    for x in els:
        if x in coset_of:
            continue
        coset = sorted((group.multiply(x, n) for n in nset), key=_element_key)
        idx = len(cosets)
        cosets.append(coset)
        for y in coset:
            if y in coset_of and coset_of[y] != idx:
                raise GroupError("not a subgroup or not normal")
            coset_of[y] = idx
    # canonical order: identity coset first, then by minimal element
    order = sorted(range(len(cosets)), key=lambda i: (_element_key(cosets[i][0]),))
    e_idx = coset_of[group.identity()]
    order.remove(e_idx)
    order.insert(0, e_idx)
    renumber = {old: new for new, old in enumerate(order)}
    cosets = [cosets[old] for old in order]
    coset_of = {x: renumber[i] for x, i in coset_of.items()}
    m = len(cosets)
    table = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            table[i][j] = coset_of[group.multiply(cosets[i][0], cosets[j][0])]
    q = TableGroup(table, identity_index=0, check=False)
    proj = GroupHom(group, q, [coset_of[g] for g in group.generators()])
    return q, proj, cosets


# ---------------------------------------------------------------------------
# text format

def group_to_text(group):
    if isinstance(group, PermGroup):
        lines = ["perm %d %d" % (group.degree, len(group.generators()))]
        for g in group.generators():
            lines.append(" ".join(str(x) for x in g.images))
        return "\n".join(lines) + "\n"
    if isinstance(group, TableGroup):
        lines = ["table %d" % group.n]
        for row in group.table:
            lines.append(" ".join(str(x) for x in row))
        return "\n".join(lines) + "\n"
    raise GroupError("unknown group backing")


def group_from_text(text):
    tokens = text.split()
    if not tokens:
        raise GroupError("empty group text")
    if tokens[0] == "perm":
        deg, k = int(tokens[1]), int(tokens[2])
        if deg < 0 or k < 0:
            raise GroupError("perm block degree %d or generator count %d is negative"
                             % (deg, k))
        body = tokens[3:]
        if len(body) != deg * k:
            raise GroupError("bad generator count in perm block")
        gens = []
        for i in range(k):
            gens.append(Permutation(tuple(int(x) for x in body[i * deg:(i + 1) * deg])))
        return PermGroup(gens, degree=deg)
    if tokens[0] == "table":
        m = int(tokens[1])
        body = tokens[2:]
        if len(body) != m * m:
            raise GroupError("bad entry count in table block")
        table = [[int(body[i * m + j]) for j in range(m)] for i in range(m)]
        return TableGroup(table)
    raise GroupError("unknown group format %r" % tokens[0])

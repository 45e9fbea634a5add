"""Finite group machinery.

Two backings share one interface: permutation groups carry a
Schreier-Sims stabilizer chain (membership, order, large groups), table
groups carry an explicit multiplication table (quotients, extensions,
certificates).  Elements are opaque handles: Permutation objects for the
former, integer indices for the latter.
"""

import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

import numpy as np

from . import BoundExceeded


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

    def is_even(self):
        return sum(len(c) - 1 for c in self.cycles()) % 2 == 0

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
    __slots__ = ("point", "gens", "transversal", "inverses")

    def __init__(self, point):
        self.point = point
        self.gens = []
        self.transversal = {}
        self.inverses = {}


# Not _walk: a hot path of raw image tuples, with no Permutation or call per edge.
def _orbit_transversal(level, gens, deg):
    ident = tuple(range(deg))
    trans = {level.point: ident}
    frontier = [level.point]
    while frontier:
        new_frontier = []
        for p in frontier:
            tp = trans[p]
            for g in gens:
                q = g[p]
                if q not in trans:
                    trans[q] = _pmul(g, tp)
                    new_frontier.append(q)
        frontier = new_frontier
    level.transversal = trans
    level.inverses = {q: _pinv(t) for q, t in trans.items()}


class StabilizerChain:
    """Deterministic Schreier-Sims chain over raw image tuples.

    Level i stores the strong generators first stuck at level i; the
    generating set acting at level i is the union over levels >= i (all of
    those fix the first i base points).
    """

    def __init__(self, generators, degree):
        self.degree = degree
        self.levels = []
        ident = tuple(range(degree))
        for g in generators:
            if g == ident:
                continue
            residue, stop = self._strip(g, 0)
            if residue is not None:
                self._place(residue, stop)
        level = len(self.levels) - 1
        while level >= 0:
            self._complete(level)
            level -= 1

    def _first_moved(self, g):
        for i, x in enumerate(g):
            if x != i:
                return i
        return None

    def _place(self, g, level):
        if level == len(self.levels):
            self.levels.append(_Level(self._first_moved(g)))
        self.levels[level].gens.append(g)

    def _gens_at(self, level):
        return [g for lev in self.levels[level:] for g in lev.gens]

    def _complete(self, level):
        """Verify Schreier generators at `level`; on failure add the
        residue deeper, complete every deeper level down to level+1 (all
        of their generating sets grew), and restart."""
        while True:
            lev = self.levels[level]
            gens = self._gens_at(level)
            _orbit_transversal(lev, gens, self.degree)
            added = False
            for p in sorted(lev.transversal):
                tp = lev.transversal[p]
                for g in gens:
                    q = g[p]
                    schreier = _pmul(lev.inverses[q], _pmul(g, tp))
                    residue, stop = self._strip(schreier, level + 1)
                    if residue is not None:
                        self._place(residue, stop)
                        for deeper in range(stop, level, -1):
                            self._complete(deeper)
                        added = True
                        break
                if added:
                    break
            if not added:
                return

    def _strip(self, g, start):
        """Sift g through levels >= start.  Returns (residue, level) with
        residue None when g sifts to the identity."""
        ident = tuple(range(self.degree))
        cur = g
        for idx in range(start, len(self.levels)):
            if cur == ident:
                return None, idx
            lev = self.levels[idx]
            img = cur[lev.point]
            if img not in lev.transversal:
                return cur, idx
            cur = _pmul(lev.inverses[img], cur)
        if cur == ident:
            return None, len(self.levels)
        return cur, len(self.levels)

    def order(self):
        n = 1
        for lev in self.levels:
            n *= len(lev.transversal)
        return n

    def contains(self, g):
        residue, _ = self._strip(g, 0)
        return residue is None


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
            if self.order() > _ENUM_LIMIT:
                raise GroupBoundExceeded("group too large to enumerate")
            # not _walk: a hot path of raw image tuples, composed in C per edge
            ident = tuple(range(self.degree))
            gens = [g.images for g in self._gens]
            seen = {ident}
            frontier = [ident]
            # with no generators the loop is skipped: the group is {ident}
            while frontier and gens:
                nxt = []
                for e in frontier:
                    # itemgetter(*e)(g) is g o e, one C call per generator;
                    # e has at least two points, since a group of degree
                    # 0 or 1 has no generators (one index would return a
                    # bare int)
                    compose_e = itemgetter(*e)
                    for g in gens:
                        p = compose_e(g)
                        if p not in seen:
                            seen.add(p)
                            nxt.append(p)
                frontier = nxt
            self._elements = [_perm(t) for t in sorted(seen)]
        return self._elements

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


def _row_keys(rows):
    """One byte string per row, compared as the rows compare
    lexicographically: the rows' entries in big-endian byte order."""
    if rows.shape[1] == 0:
        # rows of degree 0 are all the empty permutation
        return np.zeros(len(rows), dtype="S1")
    be = np.ascontiguousarray(rows, dtype=rows.dtype.newbyteorder(">"))
    return be.view("S%d" % (be.shape[1] * be.itemsize)).ravel()


def _row_orders(rows):
    """The order of the permutation in each row, by powering all rows
    that have not yet reached the identity at once."""
    ident = np.arange(rows.shape[1], dtype=rows.dtype)
    orders = np.ones(len(rows), dtype=np.int64)
    todo = np.flatnonzero((rows != ident).any(axis=1))
    base = power = rows[todo]
    k = 1
    while len(todo):
        k += 1
        power = compose_rows(base, power)
        done = (power == ident).all(axis=1)
        orders[todo[done]] = k
        todo, base, power = todo[~done], base[~done], power[~done]
    return orders


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
        els = group.elements()
        deg = group.degree
        dtype = np.min_scalar_type(max(deg - 1, 0))
        self.rows = np.fromiter(chain.from_iterable(e.images for e in els),
                                dtype, count=len(els) * deg).reshape(len(els), deg)
        self._keys = _row_keys(self.rows)
        self.orders = _row_orders(self.rows)
        self.class_reps, self.class_of = np.unique(
            self._class_labels(group.generators()), return_inverse=True)

    def lookup(self, rows):
        """Index of each row of `rows` among the elements, -1 for a row
        that is not an element."""
        keys = _row_keys(np.asarray(rows, dtype=self.rows.dtype))
        idx = np.searchsorted(self._keys, keys)
        hit = idx < len(self._keys)
        hit[hit] = self._keys[idx[hit]] == keys[hit]
        return np.where(hit, idx, -1)

    def _class_labels(self, gens):
        """The smallest element index in each element's conjugacy class:
        the minimum is propagated along the conjugation maps of the
        generators (and through the labels themselves) until stable."""
        maps = []
        for g in gens:
            gi = np.array(g.images, dtype=self.rows.dtype)
            m = self.lookup(gi[self.rows[:, np.argsort(gi)]])
            if (m < 0).any():
                raise GroupError("element list is not closed under conjugation")
            maps.append(m)
        labels = np.arange(len(self.rows))
        while True:
            new = labels
            for m in maps:
                new = np.minimum(new, new[m])
            new = new[new]
            if np.array_equal(new, labels):
                return labels
            labels = new

    def classes(self):
        """The element indices of each conjugacy class, ascending, in
        class order."""
        members = np.argsort(self.class_of, kind="stable")
        return np.split(members, np.cumsum(np.bincount(self.class_of))[:-1])


class TableGroup(FiniteGroup):
    """Multiplication-table group; elements are indices 0..n-1 with the
    identity at index `identity_index`."""

    def __init__(self, table, identity_index=0, names=None, check=True):
        self.table = tuple(tuple(row) for row in table)
        self.n = len(self.table)
        self.e = identity_index
        self.names = names
        self._inv = None
        self._gens = None
        if check:
            self._check_axioms()
        self._build_inverses()

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
        # associativity: row(a*b) must equal composition of row a with row b
        for a in range(n):
            ra = self.table[a]
            for b in range(n):
                ab = ra[b]
                rb = self.table[b]
                if self.table[ab] != tuple(ra[rb[c]] for c in range(n)):
                    raise GroupError("table is not associative")

    def _build_inverses(self):
        inv = [None] * self.n
        for i in range(self.n):
            inv[i] = self.table[i].index(self.e)
        self._inv = inv

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
        if n >= 2 and _is_prime(n):
            out.append((rep, n))
    return out


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


DEFAULT_SUBGROUP_ORDER_BOUND = 20000


def normal_subgroups(group):
    """All normal subgroups, each as a sorted element list.

    Built as joins of normal closures of conjugacy classes; every normal
    subgroup is such a join.
    """
    classes = conjugacy_classes(group)
    closures = []
    seen = set()
    for cls in classes:
        c = frozenset(subgroup_closure(group, cls))
        if c not in seen:
            seen.add(c)
            closures.append(c)
    result = set(closures)
    result.add(frozenset({group.identity()}))
    frontier = set(result)
    while frontier:
        new = set()
        for a in frontier:
            for b in closures:
                if b <= a:
                    continue
                join = frozenset(subgroup_closure(group, sorted(a | b, key=_element_key)))
                if join not in result:
                    new.add(join)
        result |= new
        frontier = new
    return sorted((sorted(s, key=_element_key) for s in result), key=lambda s: (len(s), [_element_key(x) for x in s]))


def abelian_normal_subgroups(group, order_bound=DEFAULT_SUBGROUP_ORDER_BOUND):
    """All abelian normal subgroups (as sorted element lists).

    Every abelian normal subgroup is a normal subgroup that happens to be
    abelian, and every normal subgroup is a join of class closures, so
    filtering the normal subgroup lattice is exhaustive.
    """
    if group.order() > order_bound:
        raise GroupBoundExceeded(
            "group order %d exceeds bound %d" % (group.order(), order_bound)
        )
    out = []
    for sub in normal_subgroups(group):
        if _is_abelian_subset(group, sub):
            out.append(sub)
    return out


def _is_abelian_subset(group, elements):
    for i, a in enumerate(elements):
        for b in elements[i + 1:]:
            if group.multiply(a, b) != group.multiply(b, a):
                return False
    return True


# ---------------------------------------------------------------------------
# homomorphisms

class GroupHom:
    """Homomorphism determined by generator images, verified by building
    the full graph of the map over the domain."""

    def __init__(self, domain, codomain, gen_images, check=True):
        self.domain = domain
        self.codomain = codomain
        gens = domain.generators()
        if len(gen_images) != len(gens):
            raise GroupError("need one image per domain generator")
        self.gen_images = list(gen_images)
        self._map = None
        if check:
            self._build_map()

    def _build_map(self):
        dom, cod = self.domain, self.codomain
        mapping = _walk(dom.identity(), dom.generators(), dom.multiply,
                        cod.identity(), self.gen_images, cod.multiply)
        if len(mapping) != dom.order():
            raise GroupError("generators do not generate the domain")
        self._map = mapping

    def __call__(self, x):
        if self._map is None:
            self._build_map()
        return self._map[x]

    def image_elements(self):
        if self._map is None:
            self._build_map()
        return sorted(set(self._map.values()), key=_element_key)

    def is_surjective(self):
        return len(self.image_elements()) == self.codomain.order()

    def is_injective(self):
        if self._map is None:
            self._build_map()
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
    proj = GroupHom(group, q, [coset_of[g] for g in group.generators()], check=False)
    proj._map = dict(coset_of)
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

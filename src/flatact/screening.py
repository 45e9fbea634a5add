"""Order screening over the catalogue of irreducible maximal finite
subgroups of GL_k(Q), and the alternating-group case analysis in
dimension 7: screening by single catalogue orders, coset enumeration of
the E7 Weyl group, low-index subgroup search, and epimorphism search
onto A9.
"""

import math
import random
from dataclasses import dataclass
from importlib import resources

import numpy as np

from flatact import fpgroups
from flatact.fpgroups import (DEFAULT_NODE_LIMIT, FpGroup, PresentationError,
                              SearchBoundExceeded, low_index_subgroups,
                              todd_coxeter)
from flatact.groups import PermGroup, Permutation, compose_rows

__all__ = [
    "ImfCatalog", "ScreeningHit", "screen_dimensions",
    "epimorphism_search", "EpimorphismSearchResult", "a9_chain",
    "e7_weyl_permutation_group", "E8_CHAIN_NOTE",
]


class CatalogError(Exception):
    pass


# Consistency guards for the shipped catalogue: residues of the complete
# dimension-7 and dimension-8 order lists modulo the E7/E8 Weyl group
# orders.  A catalogue failing these is rejected at load time.
_DIM7_RESIDUES = (645120, 0)
_DIM8_RESIDUES = (10321920, 2654208, 0, 6912, 497664, 115200, 28800, 1440, 672)

E7_WEYL_ORDER = 2903040
E8_WEYL_ORDER = 696729600


class ImfCatalog:
    """Per-dimension order lists of the irreducible maximal finite
    subgroups of GL_k(Q), loaded from a text file with lines
    'k: o1 o2 ...' ('#' starts a comment)."""

    def __init__(self, orders_by_dim, check=True):
        self._orders = {int(k): tuple(int(o) for o in v)
                        for k, v in orders_by_dim.items()}
        for k, v in self._orders.items():
            if k < 1 or not v or any(o < 1 for o in v):
                raise CatalogError("invalid catalogue line for dimension %d" % k)
        if check:
            self._check_consistency()

    def _check_consistency(self):
        d7 = tuple(o % E7_WEYL_ORDER for o in self._orders.get(7, ()))
        d8 = tuple(o % E8_WEYL_ORDER for o in self._orders.get(8, ()))
        if d7 != _DIM7_RESIDUES or d8 != _DIM8_RESIDUES:
            raise CatalogError(
                "catalogue fails the dimension-7/8 residue consistency check")

    @staticmethod
    def from_text(text, check=True):
        orders = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if ":" not in line:
                raise CatalogError("malformed catalogue line %r" % raw)
            head, tail = line.split(":", 1)
            try:
                k = int(head)
                values = [int(t) for t in tail.split()]
            except ValueError:
                raise CatalogError("malformed catalogue line %r" % raw)
            if k in orders:
                raise CatalogError("repeated catalogue dimension %d" % k)
            orders[k] = values
        return ImfCatalog(orders, check=check)

    @staticmethod
    def load(path=None, check=True):
        if path is not None:
            with open(path) as fh:
                return ImfCatalog.from_text(fh.read(), check=check)
        text = (resources.files("flatact") / "data" / "imf_orders.txt").read_text()
        return ImfCatalog.from_text(text, check=check)

    def orders(self, k):
        try:
            return self._orders[k]
        except KeyError:
            raise CatalogError("catalogue has no dimension %d" % k)

    def covers(self, dims):
        return all(k in self._orders for k in dims)


@dataclass(frozen=True)
class ScreeningHit:
    dimension: int
    partition: tuple
    orders: tuple
    product: int
    target_order: int

    def __post_init__(self):
        if self.product % self.target_order != 0:
            raise ValueError("screening hit product is not divisible by target")


def alternating_order(m):
    return math.factorial(m) // 2


def screen_dimensions(catalog, dims=range(3, 25)):
    """For each dimension k, each j from 1 to k and each catalogue order o
    of dimension j, record a hit iff |A_{k+2}| divides o.  Hits come in
    the order of k, then j, then the catalogue.

    One order suffices.  A finite P <= GL_k(Q) is a subdirect product of
    its images P_i in its rational irreducible blocks, of dimensions
    j_i <= k, so by Jordan-Hoelder a composition factor A_{k+2} of P is
    a composition factor of some P_i.  That P_i lies in an irreducible
    maximal finite subgroup of GL_{j_i}(Q), whose order |A_{k+2}| then
    divides."""
    dims = list(dims)
    if any(k < 1 for k in dims):
        raise ValueError("n must be at least 1")
    if not catalog.covers(d for k in dims for d in range(1, k + 1)):
        raise CatalogError("catalogue does not cover the screening range")
    hits = []
    for k in dims:
        target = alternating_order(k + 2)
        for j in range(1, k + 1):
            for o in catalog.orders(j):
                if o % target == 0:
                    hits.append(ScreeningHit(k, (j,), (o,), o, target))
    return hits


# ---------------------------------------------------------------------------
# Epimorphism search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpimorphismSearchResult:
    """Outcome of an exhaustive epimorphism search.

    `source_generators` is the generating tuple the search assigned
    images to: signed generator indices for a finitely presented source,
    source elements for a concrete source.  `epimorphisms` holds one
    image tuple per surjection found, deduplicated up to conjugacy in
    the target (extended to the full symmetric group for alternating
    permutation targets, matching their automorphism groups).
    """

    source_generators: tuple
    epimorphisms: tuple
    nodes: int

    @property
    def found(self):
        return len(self.epimorphisms) > 0


def _class_reps_up_to_aut(target):
    """Conjugacy class representatives of the permutation group target,
    as indices into target.elements(), fused under an odd relabeling for
    alternating-type targets (so that the first-image restriction is
    complete up to Aut(target))."""
    index = target.element_index()
    reps = index.class_reps.tolist()
    if target.degree < 2:
        return reps
    swap = Permutation.from_cycles(target.degree, [(0, 1)])
    if target.contains(swap):
        return reps
    sw = np.array(swap.images)
    twins = index.lookup(sw[index.rows[index.class_reps][:, sw]])
    fused = []
    seen = set()
    for i, (rep, twin) in enumerate(zip(reps, twins.tolist())):
        if i in seen:
            continue
        seen.add(i)
        if twin >= 0:
            seen.add(int(index.class_of[twin]))
        fused.append(rep)
    return fused


def _eval_word(word, images, group):
    out = group.identity()
    for s in word:
        g = images[abs(s) - 1]
        out = group.multiply(out, g if s > 0 else group.inverse(g))
    return out


def _filter_words(ngens, rng, extra=16):
    """Short test words used to prune image tuples: the order of the
    image of each word must divide its order in the source."""
    words = []
    for i in range(1, ngens + 1):
        words.append((i,))
    for i in range(1, ngens + 1):
        for j in range(i + 1, ngens + 1):
            words.extend([(i, j), (i, -j), (i, i, j), (i, j, j),
                          (i, j, -i, -j), (i, j, i, j, j)])
    for _ in range(extra):
        k = rng.randrange(2, 7)
        w = tuple(rng.choice([1, -1]) * rng.randrange(1, ngens + 1)
                  for _ in range(k))
        if w not in words:
            words.append(w)
    return [w for w in words if fpgroups.free_reduce(w)]


def _dedup_up_to_aut(target, tuples):
    """Deduplicate image tuples under conjugation by the symmetric group
    on the target's points."""
    if not tuples:
        return []
    # PermGroup.symmetric(0) has degree 1; S_0 is {()}
    conj = PermGroup.symmetric(target.degree).elements() if target.degree \
        else [target.identity()]
    out = []
    seen = set()
    for tup in tuples:
        if tup in seen:
            continue
        for c in conj:
            ci = c.inverse()
            seen.add(tuple(ci * t * c for t in tup))
        out.append(tup)
    return out


def _random_element(group, rng, length=24):
    gens = group.generators()
    out = group.identity()
    for _ in range(length):
        out = group.multiply(out, rng.choice(gens))
    return out


def _find_small_generating_set(group, rng, tries=60):
    """A small generating set found by seeded random search (products of
    random generator words), falling back to the given generators.  The
    words have a fixed even length, so when every generator is an
    involution they all lie in the subgroup of products of an even number
    of generators; when that subgroup is proper, as the rotation subgroup
    of W(E7) is, every try fails and the search falls back."""
    order = group.order()
    for size in (2, 3):
        for _ in range(tries):
            gens = [_random_element(group, rng) for _ in range(size)]
            if PermGroup(gens, degree=group.degree).order() == order:
                return tuple(gens)
    return tuple(group.generators())


def _power_rows(x, e):
    """Each row of x raised to the power e >= 1."""
    out = None
    while True:
        if e & 1:
            out = x if out is None else compose_rows(out, x)
        e >>= 1
        if not e:
            return out
        x = compose_rows(x, x)


def epimorphism_search(source, target, node_limit=DEFAULT_NODE_LIMIT, seed=0):
    """Exhaustive backtracking search for surjections source -> target,
    up to automorphisms of the target.

    `source` is an FpGroup or a concrete PermGroup; `target` is a
    PermGroup.  Once images of the first i generators are fixed, the
    candidates for generator i+1 are pruned by the test words whose
    highest generator is i+1: a word of order o in the source must map
    to an element whose o-th power is the identity.  For a presented
    source the test words are the relators (o = 1); for a concrete source
    they are short words whose orders are read in the source, and every
    surviving tuple is verified exactly (the graph of the map must
    generate a subgroup of order |source|).  The tests of one level run
    on the whole candidate pool in one numpy pass over the target's
    ElementIndex.  First-generator images are restricted to class
    representatives, which is complete because results are reported up
    to target conjugacy.

    Every candidate of a pool counts as a node, pruned or not.  Raises
    SearchBoundExceeded when more than node_limit nodes are explored.
    """
    if not isinstance(target, PermGroup):
        raise PresentationError("epimorphism search requires a permutation target")
    rng = random.Random(seed)
    index = target.element_index()

    if isinstance(source, FpGroup):
        ngens = source.ngens
        if ngens == 0:
            raise PresentationError("source has no generators")
        order_bounds = [None] * ngens
        for w in source.relators:
            letters = {abs(s) for s in w}
            if len(letters) == 1:
                g = letters.pop()
                k = len(w)
                order_bounds[g - 1] = math.gcd(order_bounds[g - 1] or 0, k) or k
        tests = [(w, 1) for w in source.relators]
        source_gens = tuple(range(1, ngens + 1))

        def verify(images):
            return PermGroup(list(images), degree=target.degree).order() \
                == target.order()

    else:
        if not isinstance(source, PermGroup):
            raise PresentationError(
                "concrete epimorphism search requires permutation groups")
        source_gens = _find_small_generating_set(source, rng)
        ngens = len(source_gens)
        order_bounds = [source.element_order(g) for g in source_gens]
        # a one-letter word tests the order bound that filtered the pool
        tests = [(w, _eval_word(w, source_gens, source).order())
                 for w in _filter_words(ngens, rng) if len(w) > 1]
        d1, d2 = source.degree, target.degree

        def verify(images):
            graph_gens = [
                Permutation(h.images + tuple(d1 + v for v in t.images))
                for h, t in zip(source_gens, images)]
            if PermGroup(graph_gens, degree=d1 + d2).order() != source.order():
                return False
            return PermGroup(list(images), degree=d2).order() == target.order()

    # each test word is rotated to start at a letter of its level's
    # generator (conjugate words have the same order) and cut into pieces,
    # (inverse?, the fixed letters after it), one per such letter
    by_level = [[] for _ in range(ngens)]
    for w, o in tests:
        top = max(abs(s) for s in w)
        start = next(k for k, s in enumerate(w) if abs(s) == top)
        pieces = []
        for s in w[start:] + w[:start]:
            if abs(s) == top:
                pieces.append((s < 0, []))
            else:
                pieces[-1][1].append(s)
        by_level[top - 1].append((pieces, o))

    reps = np.array(_class_reps_up_to_aut(target), dtype=np.intp)
    pools = []
    for i, bound in enumerate(order_bounds):
        pool = reps if i == 0 else np.arange(len(index.rows))
        if bound is not None:
            pool = pool[bound % index.orders[pool] == 0]
        pools.append(pool)
    pool_rows = [index.rows[pool] for pool in pools]
    points = np.arange(target.degree, dtype=index.rows.dtype)
    pool_invs = []
    for rows in pool_rows:
        inv = np.empty_like(rows)
        np.put_along_axis(inv, rows, points[None, :], axis=1)
        pool_invs.append(inv)
    chosen = [None] * ngens     # (row, inverse row) of each fixed image

    def survivors(i):
        """Positions in pools[i] of the candidates that pass every test
        word of level i, given the images chosen for generators < i."""
        alive = np.arange(len(pools[i]))
        cand, cand_inv = pool_rows[i], pool_invs[i]
        for pieces, o in by_level[i]:
            if not len(alive):
                break
            # x = c1 f1 c2 f2 ..., each fixed segment f one degree-n row
            x = None
            for inverse, fixed in reversed(pieces):
                f = None
                for s in reversed(fixed):
                    row = chosen[abs(s) - 1][0 if s > 0 else 1]
                    f = row if f is None else row[f]
                if f is not None:
                    x = f if x is None else f[x]
                c = cand_inv if inverse else cand
                x = c if x is None else compose_rows(c, x)
            ok = (_power_rows(x, o) == points).all(axis=1)
            if not ok.all():
                alive, cand, cand_inv = alive[ok], cand[ok], cand_inv[ok]
        return alive

    nodes = 0
    found = []

    def count(n):
        nonlocal nodes
        nodes += n
        if nodes > node_limit:
            raise SearchBoundExceeded(
                "epimorphism search node limit %d exceeded" % node_limit)

    def backtrack(i):
        if i == ngens:
            perms = tuple(Permutation(tuple(row.tolist())) for row, _ in chosen)
            if verify(perms):
                found.append(perms)
            return
        # the pruned candidates before a survivor are counted in one step;
        # nothing else happens for them, so the limit raises at the same
        # survivor (or level end) as counting them one at a time
        pool = pools[i]
        counted = 0
        for pos in survivors(i).tolist():
            count(pos + 1 - counted)
            counted = pos + 1
            chosen[i] = (pool_rows[i][pos], pool_invs[i][pos])
            backtrack(i + 1)
        count(len(pool) - counted)

    backtrack(0)
    return EpimorphismSearchResult(
        source_gens, tuple(_dedup_up_to_aut(target, found)), nodes)


# ---------------------------------------------------------------------------
# The dimension-7 chain
# ---------------------------------------------------------------------------

def e7_weyl_permutation_group(coset_limit=fpgroups.DEFAULT_COSET_LIMIT):
    """The E7 Weyl group as a permutation group of degree 56, via the
    coset action on the cosets of the parabolic subgroup generated by
    the first six Coxeter generators; the action is verified faithful by
    a base-and-strong-generators order computation."""
    g = fpgroups.e7_weyl_presentation()
    sub = [(i,) for i in range(1, 7)]
    table = todd_coxeter(g, sub, coset_limit=coset_limit)
    perms = table.generator_permutations()
    group = PermGroup(perms)
    if table.index != 56 or group.order() != E7_WEYL_ORDER:
        raise CatalogError("degree-56 realization of the E7 Weyl group failed")
    return group, table


E8_CHAIN_NOTE = (
    "The dimension-8 analogue (the E8 Weyl group class, order 696729600, "
    "against A10) is out of scope for this package: the index bound for "
    "subgroups whose order is divisible by |A10| is 384, and a low-index "
    "search to 384 plus epimorphism searches into A10 exceed the intended "
    "scale of the built-in engines. The screening stage above covers "
    "dimension 8 arithmetically; the group-theoretic tail is not computed "
    "here, and no computational claim is made about it."
)


def a9_chain(coset_limit=fpgroups.DEFAULT_COSET_LIMIT,
             node_limit=DEFAULT_NODE_LIMIT, catalog=None):
    """End-to-end dimension-7 pipeline: order screening, identification
    of the k=7 survivor with the E7 Weyl group order, low-index subgroup
    search with the index-divisibility filter, and epimorphism searches
    onto A9.  Returns a structured report embedding every intermediate
    count."""
    if catalog is None:
        catalog = ImfCatalog.load()
    report = {}

    hits = screen_dimensions(catalog)
    report["screening_hits"] = [
        {"dimension": h.dimension, "partition": list(h.partition),
         "orders": list(h.orders), "target_order": h.target_order}
        for h in hits]
    k7 = [h for h in hits if h.dimension == 7]
    if len(k7) != 1 or k7[0].orders != (E7_WEYL_ORDER,):
        raise CatalogError("screening did not single out the E7 Weyl order at k=7")
    report["k7_survivor_order"] = E7_WEYL_ORDER

    group, _ = e7_weyl_permutation_group(coset_limit=coset_limit)
    report["e7_weyl_order_verified"] = group.order()

    g = fpgroups.e7_weyl_presentation()
    classes = low_index_subgroups(g, 16, node_limit=node_limit)
    report["low_index_classes"] = len(classes)
    allowed = {1, 2, 4, 8, 16}
    filtered = [(ct, gens) for ct, gens in classes if ct.index in allowed]
    report["filtered_classes"] = len(filtered)
    report["filtered_indices"] = sorted(ct.index for ct, _ in filtered)

    a9 = PermGroup.alternating(9)
    target_order = a9.order()
    searches = []
    any_found = False
    gens = group.generators()
    for ct, words in filtered:
        sub = group if ct.index == 1 else PermGroup(
            [_eval_word(w, gens, group) for w in words], degree=group.degree)
        if sub.order() * ct.index != E7_WEYL_ORDER:
            raise CatalogError("subgroup order does not match its index")
        result = epimorphism_search(sub, a9, node_limit=node_limit)
        searches.append({
            "index": ct.index,
            "subgroup_order": sub.order(),
            "epimorphisms": len(result.epimorphisms),
            "nodes": result.nodes,
        })
        any_found = any_found or result.found
    report["a9_order"] = target_order
    report["epimorphism_searches"] = searches
    report["verdict"] = ("no surjection onto A9 from any filtered class"
                        if not any_found else "surjection found")
    report["no_a9_action_in_dimension_7"] = not any_found
    report["e8_chain"] = E8_CHAIN_NOTE
    return report

"""The pure-Python reference engine of the compiled `_coset.c`.

`flatact` runs every coset enumeration, coset-table check, low-index
search, stabilizer chain and element index on its compiled engine.  This
module is the same algorithms in Python and numpy, step for step, so
that the tests compare the engine with a second implementation: the same
coset tables byte for byte, the same table-check verdicts, the same
low-index tables after the same nodes, the same stabilizer-chain levels,
and the same sorted element rows, class labels and orders.

- `enumerate_cosets`: HLT coset enumeration with coincidences (Sims,
  *Computation with Finitely Presented Groups*, 1994, ch. 5), as
  `fa_enumerate` runs it.
- `validate_table`: the checks of `fa_validate`, in its order.
- `low_index`: the backtracking low-index search with the row-0
  least-table test `row0_keeps` (Sims 5.6), as `fa_low_index` runs it on
  one CPU; it also returns the nodes it visited.
- `StabilizerChain`: the deterministic Schreier-Sims of
  `fa_schreier_sims` (Seress, *Permutation Group Algorithms*, 2003,
  ch. 4), with levels of lists of ints and image tuples.
- `sorted_rows` and `class_labels`: the element index of a permutation
  group, as `fa_sorted_rows` and `fa_class_labels` build it, over every
  element or only over those whose order divides a given exponent.

`benchmarks/bench_coset.py` also times `enumerate_cosets` and
`validate_table` against the compiled engine.
"""

import numpy as np

from flatact.fpgroups import (_TABLE_FAULTS, CosetLimitExceeded, PresentationError,
                              SearchBoundExceeded, word_to_letters)
from flatact.groups import GroupError, _Level, _perm, _pinv, _pmul, _row_dtype


# ---------------------------------------------------------------------------
# coset tables

def validate_table(g, table):
    """Raise PresentationError at the first fault of the (n, 2*ngens)
    table: no rows, an entry out of range, a generator column that its
    inverse column does not invert, a relator that does not close at
    some coset."""
    n, nl = table.shape
    if n == 0:
        raise PresentationError(_TABLE_FAULTS[0])
    if nl and (table.min() < 0 or table.max() >= n):
        raise PresentationError(_TABLE_FAULTS[1])
    # gathers from contiguous columns run several times faster than table[cur, x]
    cols = [np.ascontiguousarray(table[:, x]) for x in range(nl)]
    ident = np.arange(n, dtype=np.int32)
    for i in range(g.ngens):
        if not np.array_equal(cols[2 * i + 1].take(cols[2 * i]), ident):
            raise PresentationError(_TABLE_FAULTS[2] % (i + 1))
    for w in g.relators:
        cur = ident
        for x in word_to_letters(w):
            cur = cols[x].take(cur)
        if not np.array_equal(cur, ident):
            raise PresentationError(_TABLE_FAULTS[3] % (w,))


def enumerate_cosets(ngens, relators, subgens, coset_limit):
    """HLT enumeration of the cosets of <subgens> in the group presented
    by `relators` (all words as tuples of letters).

    Returns the compacted closed coset table as an int32 array of shape
    (live cosets, 2*ngens); coset 0 is the subgroup.  Raises
    CosetLimitExceeded when more than coset_limit cosets would be defined
    (dead ones included).
    """
    nl = 2 * ngens
    UNDEF = -1
    table = [[UNDEF] * nl]
    p = [0]

    def rep(c):
        while p[c] != c:
            p[c] = p[p[c]]
            c = p[c]
        return c

    def define(a, x):
        if len(table) >= coset_limit:
            raise CosetLimitExceeded("coset limit %d exceeded" % coset_limit)
        b = len(table)
        table.append([UNDEF] * nl)
        p.append(b)
        table[a][x] = b
        table[b][x ^ 1] = a

    def coincidence(a, b):
        queue = []

        def merge(u, v):
            u = rep(u)
            v = rep(v)
            if u != v:
                if u > v:
                    u, v = v, u
                p[v] = u
                queue.append(v)

        merge(a, b)
        qi = 0
        while qi < len(queue):
            y = queue[qi]
            qi += 1
            row = table[y]
            for x in range(nl):
                d = row[x]
                if d != UNDEF:
                    table[d][x ^ 1] = UNDEF
                    row[x] = UNDEF
                    mu = rep(y)
                    nu = rep(d)
                    t = table[mu][x]
                    if t != UNDEF:
                        merge(nu, t)
                    else:
                        t2 = table[nu][x ^ 1]
                        if t2 != UNDEF:
                            merge(mu, t2)
                        else:
                            table[mu][x] = nu
                            table[nu][x ^ 1] = mu

    def scan_and_fill(a, w):
        i = 0
        j = len(w) - 1
        f = a
        b = a
        while True:
            while i <= j:
                t = table[f][w[i]]
                if t == UNDEF:
                    break
                f = t
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i:
                t = table[b][w[j] ^ 1]
                if t == UNDEF:
                    break
                b = t
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f][w[i]] = b
                table[b][w[i] ^ 1] = f
                return
            define(f, w[i])

    for w in subgens:
        scan_and_fill(0, w)
    a = 0
    while a < len(table):
        if rep(a) != a:
            a += 1
            continue
        for w in relators:
            scan_and_fill(a, w)
            if rep(a) != a:
                break
        if rep(a) == a:
            row = table[a]
            for x in range(nl):
                if row[x] == UNDEF:
                    define(a, x)
        a += 1

    live = [i for i in range(len(table)) if rep(i) == i]
    renumber = {old: new for new, old in enumerate(live)}
    out = np.empty((len(live), nl), dtype=np.int32)
    for new, i in enumerate(live):
        out[new] = [renumber[rep(c)] for c in table[i]]
    return out


# ---------------------------------------------------------------------------
# low-index search

def low_index(rotations, max_index, node_limit):
    """The complete coset tables of the backtracking search, in the order
    found, as int32 arrays, and the number of nodes visited; `rotations`
    is `fpgroups._relator_rotations` of the group.  Raises
    SearchBoundExceeded when the search would visit more than node_limit
    nodes, so a search that returns n nodes raises at a limit of n - 1.
    A node that fails `row0_keeps` counts as a node and is cut, so some
    tables that are not the least of their class are never reached; every
    least one is.

    The search and the deductions keep explicit stacks of frames, as
    `li_search` and `li_assign` of `_coset.c` do, so neither the index nor
    the search depth is bounded by the Python stack."""
    nl = len(rotations)
    UNDEF = -1
    table = [[UNDEF] * nl for _ in range(max_index)]
    trail = []
    complete = []

    def assign(a, x, b):
        """Set table[a][x] = b and its mirror, then scan the rotations
        through every new entry, depth first: at an entry (c, y) those
        starting with y at c, then those starting with y^-1 at its image.
        A scan fills the gap when exactly one is left.  Returns False on a
        contradiction."""
        # each new entry pushes the second of its sweeps, then the first
        pending = []
        while True:
            table[a][x] = b
            table[b][x ^ 1] = a
            trail.append((a, x))
            pending += ((iter(rotations[x ^ 1]), b), (iter(rotations[x]), a))
            while pending:
                rots, start = pending[-1]
                for rot in rots:
                    i, j = 0, len(rot) - 1
                    f = b = start
                    while i <= j and table[f][rot[i]] != UNDEF:
                        f = table[f][rot[i]]
                        i += 1
                    if i > j:
                        if f != b:
                            return False
                        continue
                    while j >= i and table[b][rot[j] ^ 1] != UNDEF:
                        b = table[b][rot[j] ^ 1]
                        j -= 1
                    if j < i:
                        if f != b:
                            return False
                        continue
                    if j == i:
                        break  # one gap: entry (f, rot[i]) is b
                    # more than one gap: nothing to deduce yet
                else:
                    pending.pop()
                    continue
                a, x = f, rot[i]
                break
            else:
                return True

    def undo(mark):
        for a, x in reversed(trail[mark:]):
            b = table[a][x]
            table[a][x] = UNDEF
            if b != UNDEF:
                table[b][x ^ 1] = UNDEF
        del trail[mark:]

    # a frame is a node whose children are being tried: its first undefined
    # entry, its row count, the trail length on entry and its candidates
    # (the rows whose x^-1 entry is undefined, then a new row)
    frames = []
    nrows, nodes = 1, 0
    while True:
        nodes += 1
        if nodes > node_limit:
            raise SearchBoundExceeded("low-index node limit %d exceeded" % node_limit)
        # a pruned node is a leaf: no completion of it is kept
        if row0_keeps(table, nrows):
            a = next((a for a in range(nrows) if UNDEF in table[a]), None)
            if a is None:
                complete.append(np.array(table[:nrows], dtype=np.int32))
            else:
                x = table[a].index(UNDEF)
                candidates = [b for b in range(nrows) if table[b][x ^ 1] == UNDEF]
                if nrows < max_index:
                    candidates.append(nrows)
                frames.append((a, x, nrows, len(trail), iter(candidates)))
        while frames:
            a, x, nrows, mark, candidates = frames[-1]
            undo(mark)
            b = next(candidates, None)
            if b is None:
                frames.pop()
                continue
            nrows = max(nrows, b + 1)
            if assign(a, x, b):
                break
        else:
            return complete, nodes


def row0_keeps(table, nrows):
    """The row-0 least-table test of the low-index search (Sims,
    *Computation with Finitely Presented Groups*, 5.6) on the first
    `nrows` rows of a partial standard table, -1 for an undefined entry.

    Row r >= 1 is relabelled as the standard table from coset r begins:
    r is 0 and each coset not yet seen gets the next number.  It is
    compared with row 0 up to the first entry undefined in either row.
    Those entries are fixed in every completion, so when the first that
    differs is smaller, every completion has a smaller standard table
    from r and is not the least of its class: returns False, and the
    search cuts the node.  The least table of a class is never cut."""
    own = table[0]
    for r in range(1, nrows):
        number = {r: 0}
        for o, c in zip(own, table[r]):
            if o == -1 or c == -1:
                break
            v = number.setdefault(c, len(number))
            if v != o:
                if v < o:
                    return False
                break
    return True


# ---------------------------------------------------------------------------
# stabilizer chains

# Not groups._walk: a hot path of raw image tuples, with no Permutation or
# call per edge.
def _orbit_transversal(lev, gens, deg):
    """`ss_orbit`: the orbit of the level's point under `gens` (points in the
    order reached), with the transversal element g t_p of each new q = g(p)."""
    lev.where = where = [-1] * deg
    where[lev.point] = 0
    orbit, trans = [lev.point], [tuple(range(deg))]
    # the lists grow in step, and the loop reaches what is appended on the way
    for p, tp in zip(orbit, trans):
        for g in gens:
            q = g[p]
            if where[q] < 0:
                where[q] = len(orbit)
                orbit.append(q)
                trans.append(_pmul(g, tp))
    lev.orbit, lev.trans, lev.inv = orbit, trans, [_pinv(t) for t in trans]


class StabilizerChain:
    """Deterministic Schreier-Sims chain of the image tuples `generators`,
    built as `fa_schreier_sims` builds the levels of
    `groups.StabilizerChain`, step for step.

    Level i stores the strong generators first stuck at level i; the
    generating set acting at level i is the union over levels >= i (all of
    those fix the first i base points).  The fields of a level are those
    of `groups._Level`, as lists of ints and image tuples."""

    def __init__(self, generators, degree):
        """Sift the generators, then complete the levels from the deepest up."""
        self.degree = degree
        self.levels = []
        ident = tuple(range(degree))
        for g in generators:
            if g == ident:
                continue
            residue, stop = self._strip(g, 0)
            if residue is not None:
                self._place(residue, stop)
        for level in reversed(range(len(self.levels))):
            self._complete(level)

    def _place(self, g, level):
        """Append g to `level`; a new level's point is the first g moves."""
        if level == len(self.levels):
            point = next(i for i, x in enumerate(g) if x != i)
            self.levels.append(_Level(point, [], [], [-1] * self.degree, [], []))
        self.levels[level].gens.append(g)

    def _complete(self, level):
        """Verify Schreier generators at `level`; on failure add the
        residue deeper, complete every deeper level down to level+1 (all
        of their generating sets grew), and restart."""
        while True:
            lev = self.levels[level]
            gens = [g for deeper in self.levels[level:] for g in deeper.gens]
            _orbit_transversal(lev, gens, self.degree)
            where, added = lev.where, False
            for p in sorted(lev.orbit):
                tp = lev.trans[where[p]]
                for g in gens:
                    schreier = _pmul(lev.inv[where[g[p]]], _pmul(g, tp))
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
            k = lev.where[cur[lev.point]]
            if k < 0:
                return cur, idx
            cur = _pmul(lev.inv[k], cur)
        if cur == ident:
            return None, len(self.levels)
        return cur, len(self.levels)

    def contains(self, g):
        residue, _ = self._strip(g, 0)
        return residue is None


# ---------------------------------------------------------------------------
# element index

def _lex_order(rows):
    """The permutation that sorts `rows` lexicographically, first column
    first: `np.lexsort` of the columns, which needs at least one."""
    return np.lexsort(rows.T[::-1]) if rows.shape[1] else np.arange(len(rows))


def sorted_rows(levels, degree, exponent=0):
    """The rows of the group whose stabilizer chain has `levels`, sorted;
    with an exponent other than 0, only the rows whose order divides it.
    Each element is one product u_0 u_1 ... of one transversal element per
    level, so the rows are the products of the level transversals, deepest
    level first.  A row is kept when its power to the exponent, taken by
    repeated squaring, is the identity."""
    if exponent < 0:
        raise ValueError("negative exponent")
    dtype = _row_dtype(degree)
    ident = np.arange(degree, dtype=dtype)
    rows = ident[None, :]
    for lev in reversed(levels):
        rows = np.asarray(lev.trans, dtype=dtype)[:, rows].reshape(-1, degree)
    if exponent:
        power, square = np.broadcast_to(ident, rows.shape), rows
        for bit in bin(exponent)[:1:-1]:
            if bit == "1":
                power = np.take_along_axis(power, square, axis=1)
            square = np.take_along_axis(square, square, axis=1)
        rows = rows[(power == ident).all(axis=1)]
    return rows[_lex_order(rows)]


def min_labels(n, maps):
    """The least index in the orbit of each of 0..n-1 under the group that
    the permutations `maps` (int arrays) generate: the minimum is
    propagated along the maps (and through the labels themselves) until
    stable."""
    labels = np.arange(n)
    while True:
        new = labels
        for m in maps:
            new = np.minimum(new, new[m])
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def class_labels(rows, gens):
    """`class_of`, `class_reps` and `orders` of `groups.ElementIndex` for
    the sorted element `rows` of the group that the Permutations `gens`
    generate, as int64 arrays.  Raises GroupError when the rows are not
    closed under conjugation by `gens`."""
    maps = []
    for g in gens:
        gi = np.array(g.images, dtype=rows.dtype)
        # the conjugates by g are the elements in another order, and
        # the sort that puts them back is the conjugation map of g^-1,
        # whose orbits are the same
        conj = gi[rows[:, np.argsort(gi)]]
        ranks = _lex_order(conj)
        if not np.array_equal(conj[ranks], rows):
            raise GroupError("element list is not closed under conjugation")
        maps.append(ranks)
    labels = min_labels(len(rows), maps)
    # each label is the least index of its class, so the classes are
    # numbered by their fixed points in ascending order
    first = labels == np.arange(len(labels))
    reps = np.flatnonzero(first)
    class_of = (np.cumsum(first) - 1)[labels]
    # conjugates have the same order: one order per class
    orders = np.array([_perm(tuple(r)).order() for r in rows[reps].tolist()],
                      dtype=np.int64)
    return class_of, reps, orders[class_of]

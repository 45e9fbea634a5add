"""Finitely presented groups: presentations, Todd-Coxeter coset
enumeration, low-index subgroup search, and Schreier rewriting.

Words are tuples of nonzero signed integers: +k is generator k (1-based),
-k its inverse.  Internally coset tables use the letter encoding of the
enumeration engines: generator i (0-based) is letter 2*i, its inverse is
2*i + 1, so letter inversion is xor with 1.

Coset enumeration runs in the compiled engine, `_coset.c`, when it can be
loaded: plain C called through ctypes.  On first import the source is
compiled with `cc -O2 -shared -fPIC` into the per-user cache directory
(`$XDG_CACHE_HOME/flatact` or `~/.cache/flatact`, mode 0700), under a name
made from the SHA-256 of the source, the compile command and the
interpreter's cache tag, so later imports only load it.  If anything fails
(no compiler, an unwritable or foreign cache, a load error), ENGINE is
"pure" and the pure-Python engine in `_coset_pure` runs instead; it is
also the differential-testing reference.  Both give identical tables.
"""

import ctypes
import os
import sys
from dataclasses import dataclass, field

import numpy as np

# CPython's own SHA-256, as random.py takes its SHA-512: hashlib would load
# OpenSSL, about 3.5 MB of resident memory in every process
try:
    from _sha2 import sha256  # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from flatact import BoundExceeded
from flatact._coset_pure import CosetLimitExceeded, enumerate_cosets as _enumerate_pure

_C_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_coset.c")
_CC = ("cc", "-O2", "-shared", "-fPIC")
_INT32_MAX = 2 ** 31 - 1


def _cache_dir():
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "flatact")


def _check_owned(path, private):
    st = os.stat(path)
    if st.st_uid != os.getuid() or (private and st.st_mode & 0o022):
        raise OSError("%s is not owned by this user or is writable by others" % path)


def _load_compiled():
    """The ctypes library built from _coset.c, compiled into the cache
    first when no library for this source, command and interpreter is
    there yet."""
    with open(_C_SOURCE, "rb") as fh:
        source = fh.read()
    key = sha256(b"\0".join(
        [source, " ".join(_CC).encode(), str(sys.implementation.cache_tag).encode()]))
    cache = _cache_dir()
    os.makedirs(cache, mode=0o700, exist_ok=True)
    _check_owned(cache, private=True)
    path = os.path.join(cache, "coset-%s.so" % key.hexdigest())
    if not os.path.exists(path):
        import subprocess  # only on a cache miss: it costs every import 5 ms
        tmp = "%s.%d" % (path, os.getpid())
        try:
            subprocess.run(_CC + ("-o", tmp, _C_SOURCE), check=True,
                           capture_output=True, timeout=300)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    _check_owned(path, private=False)
    lib = ctypes.CDLL(path)
    lib.fa_enumerate.restype = ctypes.c_int
    lib.fa_enumerate.argtypes = [
        ctypes.c_int32, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_int64, ctypes.POINTER(ctypes.c_void_p),
        ctypes.POINTER(ctypes.c_int64)]
    lib.fa_compact.restype = None
    lib.fa_compact.argtypes = [ctypes.c_void_p, ctypes.c_void_p]
    return lib


try:
    _LIB, _LOAD_ERROR = _load_compiled(), None
except Exception as exc:  # any failure leaves the pure engine
    _LIB, _LOAD_ERROR = None, exc


def _enumerate_compiled(ngens, relators, subgens, coset_limit):
    """Compiled twin of flatact._coset_pure.enumerate_cosets.  Raises
    MemoryError when the table does not fit, and ValueError for a limit
    above 2**31 - 1 or a letter out of range."""
    subs = [tuple(w) for w in subgens]
    words = subs + [tuple(w) for w in relators]
    letters = np.array([x for w in words for x in w], dtype=np.int32)
    ends = np.cumsum([len(w) for w in words], dtype=np.int64)
    state = ctypes.c_void_p()
    nlive = ctypes.c_int64()
    status = _LIB.fa_enumerate(
        ngens, letters.ctypes.data, ends.ctypes.data, len(subs), len(words),
        max(0, min(coset_limit, _INT32_MAX + 1)), ctypes.byref(state),
        ctypes.byref(nlive))
    if status == 1:
        raise CosetLimitExceeded("coset limit %d exceeded" % coset_limit)
    if status == 2:
        raise MemoryError("coset table does not fit in memory")
    if status != 0:
        raise ValueError("coset limit above 2**31 - 1 or letter out of range")
    out = None
    try:
        out = np.empty((nlive.value, 2 * ngens), dtype=np.int32)
    finally:
        _LIB.fa_compact(state, None if out is None else out.ctypes.data)
    return out


ENGINE = "compiled" if _LIB is not None else "pure"
_enumerate = _enumerate_compiled if _LIB is not None else _enumerate_pure

DEFAULT_COSET_LIMIT = 10 ** 6


class PresentationError(Exception):
    pass


class SearchBoundExceeded(BoundExceeded):
    """A configured search bound (cosets, nodes) was exceeded."""


def free_reduce(word):
    """Freely reduce a signed word (cancel adjacent g g^-1 pairs)."""
    out = []
    for s in word:
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def cyclic_reduce(word):
    word = free_reduce(word)
    while len(word) >= 2 and word[0] == -word[-1]:
        word = word[1:-1]
    return word


def invert_word(word):
    return tuple(-s for s in reversed(word))


def word_to_letters(word):
    """Signed word -> tuple of engine letters."""
    return tuple(2 * (s - 1) if s > 0 else 2 * (-s - 1) + 1 for s in word)


def letters_to_word(letters):
    return tuple((x // 2 + 1) if x % 2 == 0 else -(x // 2 + 1) for x in letters)


@dataclass(frozen=True)
class FpGroup:
    """A finite presentation: generator count and reduced relator words."""

    ngens: int
    relators: tuple

    def __post_init__(self):
        if self.ngens < 0:
            raise PresentationError("generator count must be nonnegative")
        rels = []
        for w in self.relators:
            for s in w:
                if s == 0 or abs(s) > self.ngens:
                    raise PresentationError("relator letter %r out of range" % (s,))
            r = free_reduce(tuple(w))
            if r:
                rels.append(r)
        object.__setattr__(self, "relators", tuple(rels))

    def to_text(self):
        lines = ["gens %d" % self.ngens]
        for w in self.relators:
            lines.append(" ".join(str(s) for s in w))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text):
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("gens "):
            raise PresentationError("presentation must start with 'gens g'")
        try:
            ngens = int(lines[0].split()[1])
        except (IndexError, ValueError):
            raise PresentationError("malformed generator count")
        rels = []
        for ln in lines[1:]:
            try:
                rels.append(tuple(int(t) for t in ln.split()))
            except ValueError:
                raise PresentationError("malformed relator line %r" % ln)
        return FpGroup(ngens, tuple(rels))


def coxeter_group(matrix):
    """Coxeter presentation from a Coxeter matrix (list of lists; m[i][j]
    is the order of s_i s_j, with m[i][i] = 1)."""
    n = len(matrix)
    rels = []
    for i in range(n):
        if matrix[i][i] != 1:
            raise PresentationError("Coxeter matrix diagonal must be 1")
        rels.append((i + 1, i + 1))
    for i in range(n):
        for j in range(i + 1, n):
            m = matrix[i][j]
            if m != matrix[j][i] or m < 2:
                raise PresentationError("Coxeter matrix must be symmetric with m >= 2")
            rels.append((i + 1, j + 1) * m)
    return FpGroup(n, tuple(rels))


def _coxeter_matrix_from_edges(n, edges3):
    m = [[2] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 1
    for a, b in edges3:
        m[a - 1][b - 1] = 3
        m[b - 1][a - 1] = 3
    return m


# The Coxeter diagram of E7 in Bourbaki numbering: the branch node 2 is
# attached to node 4 of the chain 1-3-4-5-6-7.
E7_COXETER_MATRIX = _coxeter_matrix_from_edges(
    7, [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)])


def e7_weyl_presentation():
    """Coxeter presentation of the Weyl group of type E7 (order 2903040)."""
    return coxeter_group(E7_COXETER_MATRIX)


def symmetric_presentation(n):
    """Coxeter presentation of S_n on n-1 adjacent transpositions."""
    if n < 2:
        return FpGroup(0, ())
    k = n - 1
    m = [[2] * k for _ in range(k)]
    for i in range(k):
        m[i][i] = 1
        if i + 1 < k:
            m[i][i + 1] = m[i + 1][i] = 3
    return coxeter_group(m)


def dihedral_presentation(m):
    """Coxeter presentation of the dihedral group of order 2m."""
    return coxeter_group([[1, m], [m, 1]])


@dataclass(frozen=True)
class CosetTable:
    """A closed coset table for a subgroup of an FpGroup.

    `table` has shape (index, 2 * ngens); entry [a, 2i] is the coset a.g_i,
    entry [a, 2i+1] is a.g_i^-1; coset 0 is the subgroup itself.
    """

    group: FpGroup
    subgroup_words: tuple
    table: np.ndarray = field(compare=False)

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.int32)
        object.__setattr__(self, "table", t)
        if t.ndim != 2 or t.shape[1] != 2 * self.group.ngens:
            raise PresentationError("coset table has wrong shape")
        _validate_table(self.group, t)

    @property
    def index(self):
        return self.table.shape[0]

    def trace(self, coset, letters):
        """Image of a coset under a word given as engine letters."""
        c = int(coset)
        for x in letters:
            c = int(self.table[c, x])
        return c

    def trace_word(self, coset, word):
        return self.trace(coset, word_to_letters(word))

    def generator_permutations(self):
        """The action of each generator as a Permutation on the cosets."""
        from flatact.groups import Permutation
        return [Permutation(tuple(int(v) for v in self.table[:, 2 * i]))
                for i in range(self.group.ngens)]

    def __eq__(self, other):
        if not isinstance(other, CosetTable):
            return NotImplemented
        return (self.group == other.group
                and self.subgroup_words == other.subgroup_words
                and self.table.shape == other.table.shape
                and bool(np.array_equal(self.table, other.table)))


def _validate_table(g, table):
    n, nl = table.shape
    if n == 0:
        raise PresentationError("coset table must have at least one row")
    if nl and (table.min() < 0 or table.max() >= n):
        raise PresentationError("coset table entry out of range")
    # gathers from contiguous columns run several times faster than table[cur, x]
    cols = [np.ascontiguousarray(table[:, x]) for x in range(nl)]
    ident = np.arange(n, dtype=np.int32)
    for i in range(g.ngens):
        if not np.array_equal(cols[2 * i + 1].take(cols[2 * i]), ident):
            raise PresentationError("generator column %d is not a bijection" % (i + 1))
    for w in g.relators:
        cur = ident
        for x in word_to_letters(w):
            cur = cols[x].take(cur)
        if not np.array_equal(cur, ident):
            raise PresentationError("coset table does not satisfy relator %r" % (w,))


def todd_coxeter(g, subgroup_words=(), coset_limit=DEFAULT_COSET_LIMIT,
                 engine=None):
    """Enumerate the cosets of the subgroup generated by `subgroup_words`
    (signed words) in the group presented by g.

    Returns a closed, relator-validated CosetTable.  Raises
    CosetLimitExceeded when the enumeration would define more than
    coset_limit cosets (dead cosets included); an incomplete table is
    never returned.  Tables are int32, so coset_limit is at most 2**31 - 1.
    """
    if coset_limit > _INT32_MAX:
        raise PresentationError("coset limit %d is above 2**31 - 1" % coset_limit)
    for w in subgroup_words:
        if any(s == 0 or abs(s) > g.ngens for s in w):
            raise PresentationError("subgroup word %r has a letter out of range" % (tuple(w),))
    if engine is None:
        fn = _enumerate
    elif engine == "pure":
        fn = _enumerate_pure
    elif engine == "compiled":
        if _LIB is None:
            raise PresentationError("compiled enumeration engine unavailable")
        fn = _enumerate_compiled
    else:
        raise PresentationError("unknown engine %r" % engine)
    rel_letters = [word_to_letters(w) for w in g.relators]
    sub_letters = [word_to_letters(free_reduce(w)) for w in subgroup_words]
    table = fn(g.ngens, rel_letters, sub_letters, coset_limit)
    return CosetTable(g, tuple(free_reduce(w) for w in subgroup_words), table)


# ---------------------------------------------------------------------------
# Low-index subgroup search
# ---------------------------------------------------------------------------

def _relator_rotations(g):
    """For each engine letter x, the rotations (as letter tuples) of each
    relator that start with x; used to process deductions."""
    nl = 2 * g.ngens
    by_letter = [[] for _ in range(nl)]
    for w in g.relators:
        letters = word_to_letters(w)
        k = len(letters)
        for p in range(k):
            rot = letters[p:] + letters[:p]
            by_letter[rot[0]].append(rot)
    return by_letter


def low_index_subgroups(g, max_index, node_limit=10 ** 7):
    """One closed coset table per conjugacy class of subgroups of index
    <= max_index, paired with Schreier generator words for the subgroup.

    Returns a list of (CosetTable, tuple of signed generator words),
    sorted by index then by table entries.  Raises SearchBoundExceeded if
    the backtracking search visits more than node_limit nodes.
    """
    if max_index < 1:
        raise PresentationError("max_index must be at least 1")
    nl = 2 * g.ngens
    rotations = _relator_rotations(g)
    UNDEF = -1
    table = [[UNDEF] * nl for _ in range(max_index)]
    nrows = 1
    complete = []
    nodes = 0

    def scan(rot, start, trail):
        """Scan a relator rotation at a coset: fill at most one gap, or
        report a contradiction.  Returns False on contradiction."""
        i, j = 0, len(rot) - 1
        f = b = start
        while True:
            while i <= j and table[f][rot[i]] != UNDEF:
                f = table[f][rot[i]]
                i += 1
            if i > j:
                return f == b
            while j >= i and table[b][rot[j] ^ 1] != UNDEF:
                b = table[b][rot[j] ^ 1]
                j -= 1
            if j < i:
                return f == b
            if j == i:
                x = rot[i]
                table[f][x] = b
                table[b][x ^ 1] = f
                trail.append((f, x))
                return process_deduction(f, x, trail)
            return True  # more than one gap: nothing to deduce yet

    def process_deduction(a, x, trail):
        for rot in rotations[x]:
            if not scan(rot, a, trail):
                return False
        for rot in rotations[x ^ 1]:
            if not scan(rot, table[a][x], trail):
                return False
        return True

    def assign(a, x, b, trail):
        """Set table[a][x] = b (and the mirror entry) and propagate."""
        table[a][x] = b
        table[b][x ^ 1] = a
        trail.append((a, x))
        return process_deduction(a, x, trail)

    def undo(trail):
        for a, x in reversed(trail):
            b = table[a][x]
            table[a][x] = UNDEF
            if b != UNDEF:
                table[b][x ^ 1] = UNDEF

    def first_undefined():
        for a in range(nrows):
            row = table[a]
            for x in range(nl):
                if row[x] == UNDEF:
                    return a, x
        return None

    def search():
        nonlocal nrows, nodes
        nodes += 1
        if nodes > node_limit:
            raise SearchBoundExceeded("low-index node limit %d exceeded" % node_limit)
        cell = first_undefined()
        if cell is None:
            complete.append(np.array(table[:nrows], dtype=np.int32))
            return
        a, x = cell
        candidates = [b for b in range(nrows) if table[b][x ^ 1] == UNDEF]
        if nrows < max_index:
            candidates.append(nrows)
        for b in candidates:
            grew = b == nrows
            if grew:
                nrows += 1
            trail = []
            if assign(a, x, b, trail):
                search()
            undo(trail)
            if grew:
                nrows -= 1

    search()

    by_class = {}
    for t in complete:
        key = _canonical_table_key(t)
        cur = by_class.get(key)
        if cur is None or _table_sort_key(t) < _table_sort_key(cur):
            by_class[key] = t
    reps = sorted(by_class.values(), key=_table_sort_key)
    out = []
    for t in reps:
        ct = CosetTable(g, (), t)
        gens = schreier_generators(ct)
        out.append((ct, tuple(gens)))
    return out


def _table_sort_key(t):
    return (t.shape[0], t.tolist())


def _standardize_from_root(table, root):
    """Relabel cosets by first appearance in a row-major scan from root."""
    n, nl = table.shape
    order = [root]
    number = {root: 0}
    i = 0
    while i < len(order):
        for x in range(nl):
            c = int(table[order[i], x])
            if c not in number:
                number[c] = len(order)
                order.append(c)
        i += 1
    out = tuple(
        tuple(number[int(table[order[a], x])] for x in range(nl))
        for a in range(n)
    )
    return out


def _canonical_table_key(table):
    """Conjugacy-class invariant: minimum over base points of the
    standardized relabeled table."""
    n = table.shape[0]
    return min(_standardize_from_root(table, r) for r in range(n))


# ---------------------------------------------------------------------------
# Schreier rewriting and presentation simplification
# ---------------------------------------------------------------------------

def _spanning_tree(table):
    """Coset representative words (as engine letters) via a row-major
    spanning tree from coset 0; also returns the set of tree edges
    (coset, positive letter) in both directions as (coset, letter)."""
    n, nl = table.shape
    reps = {0: ()}
    order = [0]
    tree_edges = set()
    i = 0
    while i < len(order):
        a = order[i]
        for x in range(nl):
            b = int(table[a, x])
            if b not in reps:
                reps[b] = reps[a] + (x,)
                order.append(b)
                tree_edges.add((a, x))
                tree_edges.add((b, x ^ 1))
        i += 1
    if len(reps) != n:
        raise PresentationError("coset table is not transitive")
    return reps, tree_edges


def schreier_generators(ct):
    """Schreier generators of the subgroup at coset 0, as freely reduced
    signed words in the ambient generators (trivial words omitted)."""
    table = ct.table
    n, nl = table.shape
    reps, tree = _spanning_tree(table)
    gens = []
    seen = set()
    for a in range(n):
        for x in range(0, nl, 2):
            if (a, x) in tree:
                continue
            b = int(table[a, x])
            word = free_reduce(letters_to_word(reps[a] + (x,))
                               + invert_word(letters_to_word(reps[b])))
            if word and word not in seen and invert_word(word) not in seen:
                seen.add(word)
                gens.append(word)
    return gens


def rewrite_subgroup_presentation(ct):
    """Reidemeister-Schreier presentation of the subgroup at coset 0 of a
    closed coset table, Tietze-simplified.

    Returns (FpGroup, generator_words) where generator_words[i] is the
    i-th subgroup generator expressed as a signed word in the ambient
    group's generators.
    """
    table = ct.table
    n, nl = table.shape
    reps, tree = _spanning_tree(table)
    gen_index = {}
    gen_words = []
    for a in range(n):
        for x in range(0, nl, 2):
            if (a, x) in tree:
                continue
            gen_index[(a, x)] = len(gen_words)
            word = free_reduce(letters_to_word(reps[a] + (x,))
                               + invert_word(letters_to_word(reps[int(table[a, x])])))
            gen_words.append(word)

    def rewrite(start, letters):
        out = []
        c = start
        for x in letters:
            if x % 2 == 0:
                if (c, x) not in tree:
                    out.append(gen_index[(c, x)] + 1)
                c = int(table[c, x])
            else:
                d = int(table[c, x])
                if (d, x ^ 1) not in tree:
                    out.append(-(gen_index[(d, x ^ 1)] + 1))
                c = d
        return free_reduce(tuple(out))

    relators = []
    for w in ct.group.relators:
        letters = word_to_letters(w)
        for a in range(n):
            r = rewrite(a, letters)
            if r:
                relators.append(r)
    return tietze_simplify(len(gen_words), relators, gen_words)


def _substitute(word, gen, repl):
    """Replace generator `gen` (positive index) by the word `repl` in a
    signed word."""
    out = []
    inv = invert_word(repl)
    for s in word:
        if s == gen:
            out.extend(repl)
        elif s == -gen:
            out.extend(inv)
        else:
            out.append(s)
    return free_reduce(tuple(out))


def _relator_canon(word):
    """Canonical form of a relator up to rotation and inversion."""
    w = cyclic_reduce(word)
    if not w:
        return ()
    best = None
    for cand in (w, invert_word(w)):
        for i in range(len(cand)):
            rot = cand[i:] + cand[:i]
            if best is None or rot < best:
                best = rot
    return best


def tietze_simplify(ngens, relators, gen_words, max_solve_len=200):
    """Eliminate redundant generators from a presentation.

    A generator occurring exactly once in some relator is solved for and
    substituted away.  Returns (FpGroup, generator_words) with generator
    numbering compacted; gen_words tracks each surviving generator as a
    word in an ambient alphabet and is substituted consistently.
    """
    relators = [cyclic_reduce(tuple(w)) for w in relators]
    gen_words = [tuple(w) for w in gen_words]
    alive = [True] * ngens

    def dedupe():
        seen = set()
        out = []
        for w in relators:
            c = _relator_canon(w)
            if c and c not in seen:
                seen.add(c)
                out.append(cyclic_reduce(w))
        return out

    relators = dedupe()
    changed = True
    while changed:
        changed = False
        counts = {}
        for w in relators:
            for s in w:
                counts[abs(s)] = counts.get(abs(s), 0) + 1
        # prefer eliminations whose solving relator is short
        best = None
        for ri, w in enumerate(relators):
            if len(w) > max_solve_len:
                continue
            for pos, s in enumerate(w):
                gen = abs(s)
                if w.count(gen) + w.count(-gen) == 1:
                    cost = (len(w) - 1) * max(counts.get(gen, 0) - 1, 0)
                    if best is None or cost < best[0]:
                        best = (cost, ri, pos, gen)
        if best is not None:
            _, ri, pos, gen = best
            w = relators[ri]
            s = w[pos]
            # w is cyclically reduced: rotate so the occurrence is first,
            # then gen^(sign) = inverse of the rest.
            rot = w[pos:] + w[:pos]
            rest = invert_word(rot[1:])
            repl = rest if s > 0 else invert_word(rest)
            del relators[ri]
            relators = [_substitute(r, gen, repl) for r in relators]
            alive[gen - 1] = False
            relators = dedupe()
            changed = True
    remaining = [i for i in range(ngens) if alive[i]]
    renum = {old + 1: new + 1 for new, old in enumerate(remaining)}
    final = []
    for w in relators:
        final.append(tuple(renum[s] if s > 0 else -renum[-s] for s in w))
    words = [gen_words[i] for i in remaining]
    return FpGroup(len(remaining), tuple(final)), tuple(words)

"""Finitely presented groups: presentations, Todd-Coxeter coset
enumeration, low-index subgroup search, and Schreier rewriting.

Words are tuples of nonzero signed integers: +k is generator k (1-based),
-k its inverse.  Internally coset tables use the letter encoding of the
enumeration engines: generator i (0-based) is letter 2*i, its inverse is
2*i + 1, so letter inversion is xor with 1.

Coset enumeration and the backtracking of the low-index search run in the
compiled engine, `_coset.c`, when it can be loaded: plain C called through
ctypes.  The same library checks every coset table a `CosetTable` is
built from, builds the stabilizer chains of `groups.StabilizerChain`
(levels of a base point, strong generators, orbit, `where`, transversal
and inverses) and the sorted element rows of a `groups.PermGroup`, and
gives the elements of a `groups.ElementIndex` their conjugacy-class labels
and orders.  Its results are numpy arrays that view the engine's buffers
in place, or that it fills.  The low-index search and the check of a large
table run on the CPUs the process may use (`workers`).  On first import
the source is compiled with `cc -O2 -shared -fPIC -pthread` into the per-user
cache directory (`$XDG_CACHE_HOME/flatact` or `~/.cache/flatact`, mode
0700), under a name made from the SHA-256 of the source, the compile
command and the interpreter's cache tag, so later imports only load it.
If anything fails (no compiler, an unwritable or foreign cache, a load
error), ENGINE is "pure" and the Python and numpy engines run instead:
`_enumerate_pure`, `_validate_table`, `_low_index_pure`,
`groups.StabilizerChain._schreier_sims`, `groups._sorted_rows_pure` and
the numpy path of `groups.ElementIndex._class_labels`.  They are also the
differential-testing references.  Both engines give identical tables,
verdicts, chains, element rows, labels and orders.  The low-index
searches visit the same nodes and find the same tables in the same order;
on several CPUs the compiled search splits its tree into subtrees, which
run in parallel, and puts their tables back in order.
"""

import ctypes
import functools
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

_C_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_coset.c")
_CC = ("cc", "-O2", "-shared", "-fPIC", "-pthread")
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
    i32, i64, ptr = ctypes.c_int32, ctypes.c_int64, ctypes.c_void_p
    # the buffer and length out-parameters of a result that fa_release frees
    result = [ctypes.POINTER(ptr), ctypes.POINTER(i64)]
    for name, restype, argtypes in (
            ("fa_enumerate", ctypes.c_int, [i32, ptr, ptr, i64, i64, i64] + result),
            ("fa_low_index", ctypes.c_int, [i32, ptr, ptr, ptr, i64, i64] + result),
            ("fa_schreier_sims", ctypes.c_int, [i64, i64, ptr] + result),
            ("fa_release", None, [ptr, i64]),
            ("fa_validate", ctypes.c_int, [i32, ptr, ptr, i64, ptr, i64, ctypes.POINTER(i64)]),
            ("fa_sorted_rows", ctypes.c_int, [i64, i64, i64, ptr, ptr, ptr]),
            ("fa_class_labels", ctypes.c_int, [i64, i64, i64, ptr, i64, ptr, ptr, ptr, ptr, ptr]),
            ("fa_workers", ctypes.c_int, [])):
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    return lib


try:
    _LIB, _LOAD_ERROR = _load_compiled(), None
except Exception as exc:  # any failure leaves the pure engine
    _LIB, _LOAD_ERROR = None, exc


class _Buffer:
    """Owner of one int32 buffer that the compiled engine handed over.
    numpy views the buffer in place through `__array_interface__`, and
    each view keeps its owner alive, so `fa_release` frees the buffer
    when the last view is gone."""

    _release = None  # set last in __init__: a failed __init__ frees nothing

    def __init__(self, buf, n):
        self.__array_interface__ = {"data": (buf.value, False), "shape": (n,),
                                    "typestr": np.dtype(np.int32).str, "version": 3}
        self._release = functools.partial(_LIB.fa_release, buf, n)

    def __del__(self):
        if self._release is not None:
            self._release()


def _check_status(status, errors):
    """Raise errors[status - 1] for the compiled engine's nonzero status:
    FA_LIMIT, FA_NOMEM, FA_BADARG and FA_NOTCLOSED are 1 to 4."""
    if status:
        raise errors[status - 1]


def _run_compiled(entry, args, errors, width=None):
    """Call the compiled `entry` with `args` and its buffer and length
    out-parameters, and return its result as an int32 array viewing the
    buffer in place: `length` ints, or `length` rows of `width` ints.

    A nonzero status raises its error of `errors` (`_check_status`).
    The buffer is freed once: by its `_Buffer` when the last view of it is
    gone, or here when the `_Buffer` cannot be built."""
    buf = ctypes.c_void_p()
    length = ctypes.c_int64()
    _check_status(entry(*args, ctypes.byref(buf), ctypes.byref(length)), errors)
    n = length.value if width is None else length.value * width
    try:
        owner = _Buffer(buf, n)
    except BaseException:
        _LIB.fa_release(buf, n)
        raise
    out = np.asarray(owner)
    return out if width is None else out.reshape(length.value, width)


ENGINE = "compiled" if _LIB is not None else "pure"


def workers():
    """The threads that the compiled low-index search and table check may
    split their work across: the CPUs of this process's affinity mask, at
    most 8, read at each call as the engine reads it; 1 on the pure
    engine."""
    return _LIB.fa_workers() if _LIB is not None else 1


DEFAULT_COSET_LIMIT = 10 ** 6
DEFAULT_NODE_LIMIT = 10 ** 7


class PresentationError(Exception):
    pass


class SearchBoundExceeded(BoundExceeded):
    """A configured search bound (cosets, nodes) was exceeded."""


class CosetLimitExceeded(BoundExceeded):
    """A coset enumeration would define more cosets than its limit."""


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
        _validate(self.group, t)

    @property
    def index(self):
        return self.table.shape[0]

    def trace(self, coset, letters):
        """Image of a coset under a word given as engine letters."""
        c = int(coset)
        for x in letters:
            c = int(self.table[c, x])
        return c

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


# the faults of a coset table, in the order both checks look for them
_TABLE_FAULTS = ("coset table must have at least one row",
                 "coset table entry out of range",
                 "generator column %d is not a bijection",
                 "coset table does not satisfy relator %r")


def _validate_table(g, table):
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


def _validate_compiled(g, table):
    """Compiled twin of _validate_table: `fa_validate` makes the same
    checks in the same order over the rows in place."""
    table = np.ascontiguousarray(table, dtype=np.int32)
    if table.ndim != 2 or table.shape[1] != 2 * g.ngens:
        raise ValueError("coset table is not n x 2*ngens")
    letters = np.array([x for w in g.relators for x in word_to_letters(w)], dtype=np.int32)
    ends = np.cumsum([len(w) for w in g.relators], dtype=np.int64)
    which = ctypes.c_int64()
    fault = _LIB.fa_validate(g.ngens, letters.ctypes.data, ends.ctypes.data,
                             len(g.relators), table.ctypes.data, table.shape[0],
                             ctypes.byref(which))
    if fault < 0:
        raise ValueError("relator letter out of range")
    if fault:
        args = ((), (), (which.value + 1,), (g.relators[which.value],))[fault - 1]
        raise PresentationError(_TABLE_FAULTS[fault - 1] % args)


_validate = _validate_compiled if _LIB is not None else _validate_table


# ---------------------------------------------------------------------------
# Todd-Coxeter coset enumeration
# ---------------------------------------------------------------------------

def _enumerate_pure(ngens, relators, subgens, coset_limit):
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


def _enumerate_compiled(ngens, relators, subgens, coset_limit):
    """Compiled twin of _enumerate_pure.  Raises
    MemoryError when the table does not fit, and ValueError for a limit
    above 2**31 - 1 or a letter out of range."""
    subs = [tuple(w) for w in subgens]
    words = subs + [tuple(w) for w in relators]
    letters = np.array([x for w in words for x in w], dtype=np.int32)
    ends = np.cumsum([len(w) for w in words], dtype=np.int64)
    return _run_compiled(
        _LIB.fa_enumerate,
        (ngens, letters.ctypes.data, ends.ctypes.data, len(subs), len(words),
         max(0, min(coset_limit, _INT32_MAX + 1))),
        (CosetLimitExceeded("coset limit %d exceeded" % coset_limit),
         MemoryError("coset table does not fit in memory"),
         ValueError("coset limit above 2**31 - 1 or letter out of range")),
        width=2 * ngens)


_enumerate = _enumerate_compiled if _LIB is not None else _enumerate_pure


def todd_coxeter(g, subgroup_words=(), coset_limit=DEFAULT_COSET_LIMIT):
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
    rel_letters = [word_to_letters(w) for w in g.relators]
    sub_letters = [word_to_letters(free_reduce(w)) for w in subgroup_words]
    table = _enumerate(g.ngens, rel_letters, sub_letters, coset_limit)
    return CosetTable(g, tuple(free_reduce(w) for w in subgroup_words), table)


# ---------------------------------------------------------------------------
# Low-index subgroup search
# ---------------------------------------------------------------------------

def _relator_rotations(g):
    """For each engine letter x, the distinct rotations (as letter tuples)
    of the relators that start with x, in order of first appearance; used
    to process deductions.  A proper power such as (s_i s_j)^3 repeats its
    rotations, and a repeated scan at the same coset finds nothing new."""
    nl = 2 * g.ngens
    by_letter = [[] for _ in range(nl)]
    for w in g.relators:
        letters = word_to_letters(w)
        k = len(letters)
        for p in range(k):
            rot = letters[p:] + letters[:p]
            by_letter[rot[0]].append(rot)
    return [list(dict.fromkeys(rots)) for rots in by_letter]


def _low_index_pure(rotations, max_index, node_limit):
    """The complete coset tables of the backtracking search, in the order
    found, as int32 arrays; `rotations` is `_relator_rotations` of the
    group.  Raises SearchBoundExceeded when the search would visit more
    than node_limit nodes.  A node that fails `_row0_keeps` counts as a
    node and is cut, so some tables that are not the least of their
    class are never reached; every least one is.

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
        if _row0_keeps(table, nrows):
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
            return complete


def _row0_keeps(table, nrows):
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


def _low_index_compiled(rotations, max_index, node_limit):
    """Compiled twin of _low_index_pure: the same nodes and the same tables
    in the same order, with the tree split into subtrees across the
    `workers`.  Raises MemoryError when the search state does not fit."""
    nl = len(rotations)
    words = [rot for rots in rotations for rot in rots]
    letters = np.array([x for w in words for x in w], dtype=np.int32)
    ends = np.cumsum([len(w) for w in words], dtype=np.int64)
    first = np.cumsum([0] + [len(rots) for rots in rotations], dtype=np.int64)
    out = _run_compiled(
        _LIB.fa_low_index,
        (nl // 2, letters.ctypes.data, ends.ctypes.data, first.ctypes.data,
         max_index, min(node_limit, 2 ** 63 - 1)),
        (SearchBoundExceeded("low-index node limit %d exceeded" % node_limit),
         MemoryError("low-index search does not fit in memory"),
         ValueError("max_index out of range or letter out of range")))
    complete, pos = [], 0
    while pos < len(out):
        n = int(out[pos])
        complete.append(out[pos + 1:pos + 1 + n * nl].reshape(n, nl))
        pos += 1 + n * nl
    return complete


_low_index = _low_index_compiled if _LIB is not None else _low_index_pure


def low_index_subgroups(g, max_index, node_limit=DEFAULT_NODE_LIMIT):
    """One closed coset table per conjugacy class of subgroups of index
    <= max_index, paired with Schreier generator words for the subgroup.

    The table of a class is its least standard table: the search numbers
    a new coset at the first undefined entry, so it finds each subgroup
    at most once, as its standard table from coset 0, and the conjugates
    of that subgroup are the standard tables from the other cosets.  A
    table is kept when none of those is smaller (`_is_least_standard`).
    The search cuts only nodes that cannot complete to a least table
    (`_row0_keeps`), so it finds the least table of every class.

    Returns a list of (CosetTable, tuple of signed generator words),
    sorted by index then by table entries.  Raises SearchBoundExceeded if
    the backtracking search visits more than node_limit nodes.
    """
    if max_index < 1:
        raise PresentationError("max_index must be at least 1")
    if max_index > _INT32_MAX:
        raise PresentationError("max_index %d is above 2**31 - 1" % max_index)
    complete = _low_index(_relator_rotations(g), max_index, node_limit)
    reps = sorted(filter(_is_least_standard, complete),
                  key=lambda t: (t.shape[0], t.tolist()))
    out = []
    for t in reps:
        ct = CosetTable(g, (), t)
        gens = schreier_generators(ct)
        out.append((ct, tuple(gens)))
    return out


def _is_least_standard(table):
    """Whether a standard table is the least standard table of its class.
    Relabelling by a row-major scan from coset r gives the standard table
    of the subgroup at r; each root's scan stops at its first row that
    differs from the table's own.

    A root whose scan ties with the table gives an automorphism of it,
    c -> number[c], that takes the root to 0.  Each coset is joined with
    its image under it, and a later root already joined with 0 is
    skipped: some product of the automorphisms takes it to 0, so its scan
    ties too."""
    rows = table.tolist()
    # union by smaller root: 0 is the root of its own component
    parent = list(range(len(rows)))

    def find(c):
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    for root in range(1, len(rows)):
        if find(root) == 0:
            continue
        order, number = [root], {root: 0}
        # order grows as the scan numbers new cosets
        for own, a in zip(rows, order):
            row = []
            for c in rows[a]:
                if c not in number:
                    number[c] = len(order)
                    order.append(c)
                row.append(number[c])
            if row != own:
                if row < own:
                    return False
                break
        else:
            for c, image in number.items():
                u, v = find(c), find(image)
                parent[max(u, v)] = min(u, v)
    return True


# ---------------------------------------------------------------------------
# Schreier rewriting and presentation simplification
# ---------------------------------------------------------------------------

def _schreier_edges(table):
    """The Schreier generators of the subgroup at coset 0 of a closed
    table, one per edge off a row-major spanning tree from coset 0.

    Returns the set of tree edges, in both directions as (coset, letter),
    and a dict that maps each edge (a, x) off the tree, x a positive
    letter, in row-major order, to its freely reduced signed word
    rep[a]·x·rep[a.x]⁻¹, where rep[c] is the tree path from 0 to c."""
    n, nl = table.shape
    reps = {0: ()}
    order = [0]
    tree = set()
    i = 0
    while i < len(order):
        a = order[i]
        for x in range(nl):
            b = int(table[a, x])
            if b not in reps:
                reps[b] = reps[a] + (x,)
                order.append(b)
                tree.add((a, x))
                tree.add((b, x ^ 1))
        i += 1
    if len(reps) != n:
        raise PresentationError("coset table is not transitive")
    words = {(a, x): free_reduce(letters_to_word(reps[a] + (x,))
                                 + invert_word(letters_to_word(reps[int(table[a, x])])))
             for a in range(n) for x in range(0, nl, 2) if (a, x) not in tree}
    return tree, words


def schreier_generators(ct):
    """Schreier generators of the subgroup at coset 0, as freely reduced
    signed words in the ambient generators (trivial words omitted)."""
    gens = []
    seen = set()
    for word in _schreier_edges(ct.table)[1].values():
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
    tree, words = _schreier_edges(table)
    gen_index = {edge: k for k, edge in enumerate(words)}
    gen_words = list(words.values())

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
        for a in range(table.shape[0]):
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


# the longest relator that tietze_simplify solves for a generator
_TIETZE_MAX_SOLVE_LEN = 200


def tietze_simplify(ngens, relators, gen_words):
    """Eliminate redundant generators from a presentation.

    A generator occurring exactly once in some relator of length at most
    _TIETZE_MAX_SOLVE_LEN is solved for and substituted away.  Returns
    (FpGroup, generator_words) with generator numbering compacted;
    gen_words tracks each surviving generator as a word in an ambient
    alphabet and is substituted consistently.
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
            if len(w) > _TIETZE_MAX_SOLVE_LEN:
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

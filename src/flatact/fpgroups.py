"""Finitely presented groups: presentations, Todd-Coxeter coset
enumeration, low-index subgroup search, and Schreier generators.

Words are tuples of nonzero signed integers: +k is generator k (1-based),
-k its inverse.  Internally coset tables use the letter encoding of the
enumeration engines: generator i (0-based) is letter 2*i, its inverse is
2*i + 1, so letter inversion is xor with 1.

Coset enumeration and the backtracking of the low-index search run in the
compiled engine, `_coset.c`: plain C called through ctypes.  The same
library checks every coset table a `CosetTable` is built from, builds the
stabilizer chains of `groups.StabilizerChain` (levels of a base point,
strong generators, orbit, `where`, transversal and inverses) and the
sorted element rows of a `groups.PermGroup`, and gives the elements of a
`groups.ElementIndex` their conjugacy-class labels and orders.  Its
results are numpy arrays that view the engine's buffers in place, or that
it fills.  The low-index search and the check of a large table run on the
CPUs the process may use (`workers`).  On first import the source is
compiled with `cc -O2 -shared -fPIC -pthread` into the per-user cache
directory (`$XDG_CACHE_HOME/flatact` or `~/.cache/flatact`, mode
0700), under a name made from the SHA-256 of the source, the compile
command and the interpreter's cache tag, so later imports only load it.
The package needs the engine as it needs numpy: when the compiler is
missing or fails, or the cache is unwritable or foreign, importing this
module raises that error.  The tests compare the engine with a pure-Python
reference of the same algorithms, `tests/engine_oracle.py`: identical
tables, verdicts, chains, element rows, labels and orders, and low-index
searches that visit the same nodes and find the same tables in the same
order.  On several CPUs the low-index search splits its tree into
subtrees, which run in parallel, and puts their tables back in order.
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
            # the compiler's messages go to stderr: a failed build fails the import
            subprocess.run(_CC + ("-o", tmp, _C_SOURCE), check=True, timeout=300)
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
            ("fa_sorted_rows", ctypes.c_int, [i64, i64, i64, ptr, ptr, i64, ptr, ptr]),
            ("fa_class_labels", ctypes.c_int, [i64, i64, i64, ptr, i64, ptr, ptr, ptr, ptr, ptr]),
            ("fa_workers", ctypes.c_int, [])):
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    return lib


_LIB = _load_compiled()


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


# the engine that runs, which benchmark records report
ENGINE = "compiled"


def workers():
    """The threads that the low-index search and the table check may split
    their work across: the CPUs of this process's affinity mask, at most
    8, read at each call as the engine reads it."""
    return _LIB.fa_workers()


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


# the faults of a coset table, in the order `fa_validate` looks for them
_TABLE_FAULTS = ("coset table must have at least one row",
                 "coset table entry out of range",
                 "generator column %d is not a bijection",
                 "coset table does not satisfy relator %r")


def _validate(g, table):
    """Raise PresentationError at the first fault of the (n, 2*ngens)
    table, which `fa_validate` checks over the rows in place: no rows, an
    entry out of range, a generator column that its inverse column does
    not invert, a relator that does not close at some coset."""
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


# ---------------------------------------------------------------------------
# Todd-Coxeter coset enumeration
# ---------------------------------------------------------------------------

def _enumerate(ngens, relators, subgens, coset_limit):
    """HLT enumeration (`fa_enumerate`) of the cosets of <subgens> in the
    group presented by `relators` (all words as tuples of letters).

    Returns the compacted closed coset table as an int32 array of shape
    (live cosets, 2*ngens); coset 0 is the subgroup.  Raises
    CosetLimitExceeded when more than coset_limit cosets would be defined
    (dead ones included), MemoryError when the table does not fit, and
    ValueError for a limit above 2**31 - 1 or a letter out of range."""
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


def _low_index(rotations, max_index, node_limit):
    """The complete coset tables of the backtracking search of
    `fa_low_index`, in the order found, as int32 arrays; `rotations` is
    `_relator_rotations` of the group.  A node that fails the row-0
    least-table test counts as a node and is cut, so some tables that are
    not the least of their class are never reached; every least one is.
    On several `workers` the tree is split into subtrees, with the same
    nodes and the same tables in the same order.  Raises
    SearchBoundExceeded when the search would visit more than node_limit
    nodes, and MemoryError when the search state does not fit."""
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


def low_index_subgroups(g, max_index, node_limit=DEFAULT_NODE_LIMIT):
    """One closed coset table per conjugacy class of subgroups of index
    <= max_index, paired with Schreier generator words for the subgroup.

    The table of a class is its least standard table: the search numbers
    a new coset at the first undefined entry, so it finds each subgroup
    at most once, as its standard table from coset 0, and the conjugates
    of that subgroup are the standard tables from the other cosets.  A
    table is kept when none of those is smaller (`_is_least_standard`).
    The search cuts only nodes that cannot complete to a least table (its
    row-0 test, `li_keeps` of `_coset.c`), so it finds the least
    table of every class.

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
# Schreier generators
# ---------------------------------------------------------------------------

def schreier_generators(ct):
    """Schreier generators of the subgroup at coset 0 of a closed table,
    as freely reduced signed words in the ambient generators, trivial
    words and inverses of earlier words omitted: for each coset a and
    positive letter x in row-major order, rep[a]·x·rep[a.x]⁻¹, where rep[c]
    is the path from 0 to c in the row-major spanning tree from coset 0.
    The tree's own edges give trivial words."""
    table = ct.table
    n, nl = table.shape
    reps, order = {0: ()}, [0]
    for a in order:     # order grows as the walk reaches new cosets
        for x in range(nl):
            b = int(table[a, x])
            if b not in reps:
                reps[b] = reps[a] + (x,)
                order.append(b)
    if len(reps) != n:
        raise PresentationError("coset table is not transitive")
    gens = []
    seen = set()
    for a in range(n):
        for x in range(0, nl, 2):
            word = free_reduce(letters_to_word(reps[a] + (x,))
                               + invert_word(letters_to_word(reps[int(table[a, x])])))
            if word and word not in seen and invert_word(word) not in seen:
                seen.add(word)
                gens.append(word)
    return gens

"""Exact integer linear algebra: normal forms, lattice kernels and
finite abelian groups.

Everything here works with arbitrary-precision Python ints.  Matrices are
immutable: stored as a tuple of row tuples.  The Smith form is
deterministic (minimal-absolute-value pivot, lowest index wins ties), so
that its transforms, which are not unique, are reproducible across runs.
Hermite forms are unique, the transform too (see hermite_normal_form).
"""

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd, lcm, prod


class ZLinAlgError(Exception):
    pass


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    data: tuple  # tuple of row tuples

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ZLinAlgError("matrix size %d x %d is negative" % (self.rows, self.cols))
        if len(self.data) != self.rows:
            raise ZLinAlgError("row count mismatch")
        for row in self.data:
            if len(row) != self.cols:
                raise ZLinAlgError("column count mismatch")

    @staticmethod
    def from_rows(rows_list, cols=None):
        """The matrix with the given rows, each entry made an int.  `cols`,
        the column count, is read off the first row by default; it must be
        given for a matrix that may have no rows, such as the map Z^n -> 0,
        which is 0 x n and not 0 x 0."""
        return _from_int_rows([tuple(map(int, r)) for r in rows_list], cols)

    @staticmethod
    def from_columns(columns, rows):
        """The matrix with the given columns, whose entries are ints
        already.  `rows`, the row count, is needed for a matrix that may
        have no columns, such as the map 0 -> Z^n, which is n x 0."""
        columns = list(columns)
        data = tuple(zip(*columns, strict=True)) if columns else ((),) * rows
        return IntMatrix(rows, len(columns), data)

    @staticmethod
    def zero(rows, cols):
        return IntMatrix(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @staticmethod
    def identity(n):
        return IntMatrix(
            n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        )

    @staticmethod
    def diagonal(entries):
        entries = list(entries)
        n = len(entries)
        return IntMatrix(
            n, n,
            tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n)),
        )

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i):
        return self.data[i]

    def col(self, j):
        return tuple(self.data[i][j] for i in range(self.rows))

    def transpose(self):
        return IntMatrix.from_columns(self.data, self.cols)

    def __mul__(self, other):
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise ZLinAlgError("dimension mismatch in matrix product")
            ot = other.transpose()
            return IntMatrix(
                self.rows, other.cols,
                tuple(
                    tuple(sum(a * b for a, b in zip(row, ocol)) for ocol in ot.data)
                    for row in self.data
                ),
            )
        return NotImplemented

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ZLinAlgError("dimension mismatch in matrix sum")
        return IntMatrix(
            self.rows, self.cols,
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.data, other.data)),
        )

    def __neg__(self):
        return IntMatrix(
            self.rows, self.cols, tuple(tuple(-a for a in r) for r in self.data)
        )

    def apply(self, vec):
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise ZLinAlgError("vector length mismatch")
        return tuple(sum(a * x for a, x in zip(row, vec)) for row in self.data)

    def is_identity(self):
        return self.rows == self.cols and all(
            self.data[i][j] == (1 if i == j else 0)
            for i in range(self.rows) for j in range(self.cols)
        )

    def det(self):
        """Determinant via fraction-free Bareiss elimination."""
        if self.rows != self.cols:
            raise ZLinAlgError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(r) for r in self.data]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def is_unimodular(self):
        return self.rows == self.cols and self.det() in (1, -1)

    def to_text(self):
        lines = ["%d %d" % (self.rows, self.cols)]
        for r in self.data:
            lines.append(" ".join(str(x) for x in r))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text):
        tokens = text.split()
        if len(tokens) < 2:
            raise ZLinAlgError("matrix text too short")
        rows, cols = int(tokens[0]), int(tokens[1])
        if rows < 0 or cols < 0:
            raise ZLinAlgError("matrix size %d x %d is negative" % (rows, cols))
        entries = tokens[2:]
        if len(entries) != rows * cols:
            raise ZLinAlgError(
                "expected %d entries, got %d" % (rows * cols, len(entries))
            )
        it = iter(int(t) for t in entries)
        return IntMatrix.from_rows([[next(it) for _ in range(cols)] for _ in range(rows)], cols)


@dataclass(frozen=True)
class SmithDecomposition:
    d: IntMatrix
    u: IntMatrix
    v: IntMatrix

    @property
    def diagonal(self):
        return tuple(
            self.d.data[i][i] for i in range(min(self.d.rows, self.d.cols))
        )

    @property
    def rank(self):
        return sum(1 for x in self.diagonal if x != 0)


def _from_int_rows(rows_list, cols):
    """IntMatrix.from_rows for lists whose entries are ints already."""
    if cols is None:
        cols = len(rows_list[0]) if rows_list else 0
    return IntMatrix(len(rows_list), cols, tuple(map(tuple, rows_list)))


def _min_abs_pivot(m, start, rows, cols, unitless):
    """Position of the nonzero entry of least absolute value in the
    trailing block, lowest (row, col) on ties.  None if the block is zero.

    unitless[i] true says that row i holds no +-1; rows found so are
    marked, and the caller clears the mark of a row it changes."""
    # a unit is least, so the first one in row order is the answer; the
    # trailing rows are zero before column `start`, so whole rows are read
    for i in range(start, rows):
        if unitless[i]:
            continue
        r = m[i]
        if 1 in r or -1 in r:
            return (i, min(r.index(u) for u in (1, -1) if u in r))
        unitless[i] = True
    best, least = None, None
    for i in range(start, rows):
        seg = m[i][start:cols]
        if any(seg):
            a = min(abs(x) for x in seg if x)
            if least is None or a < least:
                j = next(j for j, x in enumerate(seg) if abs(x) == a)
                best, least = (i, start + j), a
    return best


def smith_normal_form(mat, with_v=True):
    """Smith decomposition u * mat * v = d with u, v unimodular and the
    diagonal of d a non-negative divisibility chain.  With with_v false, v
    is left out (None); the column operations never feed back into d or
    u, so those are the same."""
    rows, cols = mat.rows, mat.cols
    m = [list(r) for r in mat.data]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    # v by columns, so that a column operation on v is a row operation
    vt = [[int(i == j) for j in range(cols)] for i in range(cols)] if with_v else None

    unitless = [False] * rows       # see _min_abs_pivot

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]
        unitless[i], unitless[j] = unitless[j], unitless[i]

    def swap_cols(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        if vt is not None:
            vt[i], vt[j] = vt[j], vt[i]

    def addmul_row(dst, src, f):
        m[dst] = [a + f * b for a, b in zip(m[dst], m[src])]
        u[dst] = [a + f * b for a, b in zip(u[dst], u[src])]
        unitless[dst] = False

    def negate_row(i):
        m[i] = [-a for a in m[i]]
        u[i] = [-a for a in u[i]]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        while True:
            piv = _min_abs_pivot(m, t, rows, cols, unitless)
            if piv is None:
                break
            if piv[0] != t:
                swap_rows(t, piv[0])
            if piv[1] != t:
                swap_cols(t, piv[1])
            # one reduction sweep; leftovers trigger pivot re-selection,
            # with a strictly smaller pivot each round.  Row t and column t
            # stay fixed during their sweeps, so only their nonzero entries
            # are added.
            p = m[t][t]
            src_m = [(j, b) for j, b in enumerate(m[t]) if b]
            src_u = [(j, b) for j, b in enumerate(u[t]) if b]
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    f = -(m[i][t] // p)
                    for dst, src in ((m[i], src_m), (u[i], src_u)):
                        for j, b in src:
                            dst[j] += f * b
                    unitless[i] = False
            col = []
            for i, r in enumerate(m):
                if r[t]:
                    col.append(r)
                    unitless[i] = False
            src_v = [] if vt is None else [(i, b) for i, b in enumerate(vt[t]) if b]
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    f = -(m[t][j] // p)
                    for r in col:
                        r[j] += f * r[t]
                    if src_v:
                        dst = vt[j]
                        for i, b in src_v:
                            dst[i] += f * b
            if any(m[i][t] for i in range(t + 1, rows)) or any(
                m[t][j] for j in range(t + 1, cols)
            ):
                continue
            # pivot must divide the whole trailing block for the chain (a
            # unit divides everything)
            witness = None
            if p not in (1, -1):
                witness = next((i for i in range(t + 1, rows)
                                if any(x % p for x in m[i][t + 1:cols])), None)
            if witness is not None:
                addmul_row(t, witness, 1)
                continue
            break
        if piv is None:
            break
        if m[t][t] < 0:
            negate_row(t)
        t += 1

    vm = None if vt is None else IntMatrix.from_columns(vt, cols)
    return SmithDecomposition(_from_int_rows(m, cols), _from_int_rows(u, rows), vm)


def hermite_normal_form(mat):
    """Row-style Hermite normal form: returns (h, u) with u unimodular,
    u * mat = h, h in echelon form with positive pivots and entries above
    each pivot reduced into [0, pivot).  [h | u] is the Hermite normal
    form of [mat | I], so u is unique too, and its entries stay small."""
    rows, cols = mat.rows, mat.cols
    hu = _echelon([r + tuple(int(i == j) for j in range(rows))
                   for i, r in enumerate(mat.data)], cols + rows)
    return (_from_int_rows([r[:cols] for r in hu], cols),
            _from_int_rows([r[cols:] for r in hu], rows))


def kernel_basis_of_matrix(mat):
    """Basis (as rows) of {x : mat . x = 0} over the integers, in Hermite
    normal form: the rows of the transform whose rows of h are zero."""
    h, u = hermite_normal_form(mat.transpose())
    return _from_int_rows([u.data[i] for i in range(mat.cols) if not any(h.data[i])],
                          mat.cols)


def _substitute(values, exprs):
    """Extend `values` (column -> {generator: nonzero entry}, a missing
    column being all zero) by x_j = sum coeff * x_c for each (j, {c: coeff})
    of `exprs`, in order."""
    for j, expr in exprs:
        acc = {}
        for c, coeff in expr.items():
            for t, v in values.get(c, {}).items():
                acc[t] = acc.get(t, 0) + coeff * v
        acc = {t: v for t, v in acc.items() if v}
        if acc:
            values[j] = acc


def _xgcd(a, b):
    """(g, x, y) with g = gcd(a, b) = x a + y b, g >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, (a, b) = a // b, (b, a % b)
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def _echelon(rows, width):
    """The nonzero rows of the Hermite normal form of the lattice that
    `rows`, each of `width` ints, span, from the top pivot down.

    The rows go in one at a time, and after each one the rows found so far
    are the Hermite form of the rows in so far, so their entries stay
    small (Kannan-Bachem, 1979; Cohen, A Course in Computational Algebraic
    Number Theory, 2.4).  Where the new row meets a pivot, a multiple of
    the pivot's row is subtracted when the pivot divides the entry;
    otherwise the two rows become, by the unimodular 2 x 2 step of their
    extended gcd, the pivot's new row and a row that vanishes there.  A
    row that reaches a column without a pivot becomes its row, made
    positive.  Then _reduce_above reduces the entries above the pivots."""
    piv = {}                        # pivot column -> its row
    h = []
    for r in rows:
        r = list(r)
        for c in range(width):      # r is zero before c
            b = r[c]
            if not b:
                continue
            p = piv.get(c)
            if p is None:
                piv[c] = r if b > 0 else [-x for x in r]
                break
            a = p[c]
            if b % a:
                g, x, y = _xgcd(a, b)
                ag, bg = a // g, b // g
                piv[c], r = ([x * s + y * t for s, t in zip(p, r)],
                             [bg * s - ag * t for s, t in zip(p, r)])
            else:
                q = b // a
                r = [t - q * s for s, t in zip(p, r)]
        order = sorted(piv)
        h = _reduce_above([piv[c] for c in order], order)
    return h


def _reduce_above(h, cols):
    """Reduce the entries above each pivot of the echelon rows `h` into
    [0, pivot), in place, from the top pivot down, so that a reduction
    never disturbs a column to its left; cols[k] is the pivot column of
    h[k].  Returns h."""
    for k, c in enumerate(cols):
        d, nz = h[k][c], None
        for above in h[:k]:
            q = above[c] // d
            if q:
                if nz is None:
                    nz = [(j, b) for j, b in enumerate(h[k]) if b]
                for j, b in nz:
                    above[j] -= q * b
    return h


def _hnf_modulo(rows, moduli):
    """The Hermite normal form of the lattice spanned by `rows` together
    with moduli[c] e_c for every column c, a lattice of full rank.

    Its columns are eliminated left to right, each starting from the row
    moduli[c] e_c and taking in the rows with a nonzero entry there by an
    extended gcd.  Adding multiples of the rows moduli[c'] e_c' of the
    later columns stays in the lattice, so the later entries of every row
    are kept reduced modulo them and stay small; the Hermite form of a
    lattice is unique, so it is the same as hermite_normal_form's."""
    n = len(moduli)
    work = [v for v in ([x % f for x, f in zip(r, moduli)] for r in rows) if any(v)]
    h = []
    for c in range(n):
        p = [0] * n
        p[c] = moduli[c]
        rest = []
        for r in work:
            b = r[c]
            if not b:
                rest.append(r)
                continue
            a = p[c]
            g, x, y = _xgcd(a, b)
            ag, bg = a // g, b // g
            # b is reduced and nonzero, so 0 < g < moduli[c]: p[c] is g
            p, r = ([(x * u + y * v) % f for u, v, f in zip(p, r, moduli)],
                    [(bg * u - ag * v) % f for u, v, f in zip(p, r, moduli)])
            if any(r):
                rest.append(r)
        work = rest
        h.append(p)
    return _reduce_above(h, range(n))


def sparse_kernel_hnf(rows, ncols, keep=None, moduli=None):
    """The nonzero rows of the Hermite normal form of the lattice of the
    first `keep` (default all) coordinates of {x : A x = 0} over the
    integers, for A given as one {column: value} dict per row of `ncols`
    columns: the same rows as hermite_normal_form of kernel_basis_of_matrix
    of the dense A, cut to `keep` columns.

    Unit pivots go first: a row with a +-1 entry in column j fixes x_j as
    an integer combination of its other columns, and that expression is
    substituted into every other row holding column j.  The next pivot
    column is the one in the fewest rows among those with a unit entry
    (its shortest such row is the pivot row).  Every row is kept divided
    by the gcd of its entries, which leaves its kernel as it is.  The
    residual system goes to kernel_basis_of_matrix, and the eliminated
    variables are recovered by back-substitution, the last pivot first.

    `moduli`, if given, holds one positive integer m_c per kept column
    such that m_c e_c lies in the cut lattice (as for cochains with
    finite coefficients); the Hermite form is then taken modulo them
    (see _hnf_modulo), which keeps its entries small.
    """
    live = {}                       # row index -> {col: val}
    where = {}                      # col -> indices of the live rows holding it
    for i, r in enumerate(rows):
        row = {c: v for c, v in r.items() if v}
        if row:
            g = gcd(*row.values())
            live[i] = {c: v // g for c, v in row.items()}
            for c in row:
                where.setdefault(c, set()).add(i)
    solved = []                     # (j, {c: coeff}): x_j = sum coeff * x_c

    def eliminate(p, j):
        """Substitute row p, solved for x_j, into the other rows; return it
        and the columns of the rows divided by their content."""
        prow = live.pop(p)
        a = prow[j]
        rescaled = set()
        for c in prow:
            where[c].discard(p)
        for i in list(where[j]):
            row = live[i]
            f = row[j] * a
            for c, v in prow.items():
                nv = row.get(c, 0) - f * v
                if nv:
                    if c not in row:
                        where[c].add(i)
                    row[c] = nv
                elif c in row:
                    del row[c]
                    where[c].discard(i)
            if not row:
                del live[i]
                continue
            # the kernel of a row is that of the row over its content, and
            # dividing can leave a unit (2x + 2y + 2r = 0 gives x + y + r = 0)
            g = gcd(*row.values())
            if g > 1:
                for c in row:
                    row[c] //= g
                rescaled.update(row)
        del where[j]
        return prow, rescaled

    heap = [(len(ids), c) for c, ids in where.items() if ids]
    heapify(heap)
    while heap:
        count, j = heappop(heap)
        ids = where.get(j)
        if not ids or len(ids) != count:
            continue                # stale entry
        units = [i for i in ids if live[i][j] in (1, -1)]
        if not units:
            continue                # pushed again when a row holding j changes
        prow, rescaled = eliminate(min(units, key=lambda i: (len(live[i]), i)), j)
        solved.append((j, {c: -prow[j] * v for c, v in prow.items() if c != j}))
        for c in rescaled.union(prow):
            if where.get(c):
                heappush(heap, (len(where[c]), c))

    # residual system on the columns still in use; the other unsolved
    # columns are free
    done = {j for j, _ in solved}
    cols = sorted(c for c, ids in where.items() if ids and c not in done)
    pos = {c: k for k, c in enumerate(cols)}
    gens = [{c: 1} for c in range(ncols) if c not in done and c not in pos]
    if cols:
        residual = sorted({tuple(sorted(row.items())) for row in live.values()})
        dense = [[0] * len(cols) for _ in residual]
        for drow, row in zip(dense, residual):
            for c, v in row:
                drow[pos[c]] = v
        for krow in kernel_basis_of_matrix(_from_int_rows(dense, len(cols))).data:
            gens.append({c: v for c, v in zip(cols, krow) if v})

    keep = ncols if keep is None else keep
    # back-substitution for all generators at once, one column at a time
    k = len(gens)
    values = {}                     # col -> {generator: its entry there}
    for t, x in enumerate(gens):
        for c, v in x.items():
            values.setdefault(c, {})[t] = v
    _substitute(values, reversed(solved))
    head = [[0] * keep for _ in range(k)]
    for c in range(keep):
        for t, v in values.get(c, {}).items():
            head[t][c] = v
    h = _echelon(head, keep) if moduli is None else _hnf_modulo(head, moduli)
    return _from_int_rows(h, keep)


def solve_integer(a, b):
    """One integer solution x of a . x = b, or None if unsolvable."""
    if len(b) != a.rows:
        raise ZLinAlgError("right-hand side length mismatch")
    snf = smith_normal_form(a)
    c = snf.u.apply(b)
    y = [0] * a.cols
    diag = snf.diagonal
    for i in range(a.rows):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % di != 0:
                return None
            y[i] = c[i] // di
    return snf.v.apply(y)


def solve_modulo(a, factors, b):
    """One integer x with a . x = b modulo the factors (row i modulo
    factors[i]): the first a.cols entries of solve_integer's solution of
    [a | diag(factors)] . (x, z) = b, or None if there is none."""
    sol = solve_integer(hstack(a, IntMatrix.diagonal(factors)), b)
    return None if sol is None else sol[:a.cols]


class EchelonSolver:
    """Repeated solves of sum_i y_i h_i = b against the rows h_i of an
    echelon matrix (every row nonzero, pivot columns strictly increasing),
    such as the nonzero rows of a Hermite normal form.

    The rows are independent, so a solution is unique when it exists:
    y_i is read off the i-th pivot column by forward substitution, and a
    nonzero residual means b is outside the row lattice.
    """

    def __init__(self, h):
        self.cols = h.cols
        self.rows = []              # per row: [(col, val)] from its pivot on
        last = -1
        for row in h.data:
            nz = [(c, x) for c, x in enumerate(row) if x]
            if not nz or nz[0][0] <= last:
                raise ZLinAlgError("rows are not in echelon form")
            last = nz[0][0]
            self.rows.append(nz)

    def solve(self, b):
        """The tuple y, or None if b is not in the row lattice."""
        if len(b) != self.cols:
            raise ZLinAlgError("right-hand side length mismatch")
        r = [int(x) for x in b]
        y = []
        for nz in self.rows:
            p, d = nz[0]
            if not r[p]:
                y.append(0)
                continue
            q, rem = divmod(r[p], d)
            if rem:
                return None
            y.append(q)
            for c, x in nz:
                r[c] -= q * x
        return None if any(r) else tuple(y)


@dataclass(frozen=True)
class FinAbGroup:
    """Finite abelian group in invariant-factor form.

    Elements are coordinate tuples, coordinate i taken modulo
    invariant_factors[i].  The empty factor list is the trivial group.
    """

    invariant_factors: tuple

    def __post_init__(self):
        fs = self.invariant_factors
        for f in fs:
            if f < 2:
                raise ZLinAlgError("invariant factors must be >= 2")
        for a, b in zip(fs, fs[1:]):
            if b % a != 0:
                raise ZLinAlgError("invariant factors must form a divisibility chain")

    @staticmethod
    def of(*factors):
        return FinAbGroup(tuple(int(f) for f in factors))

    @property
    def rank(self):
        return len(self.invariant_factors)

    @property
    def order(self):
        return prod(self.invariant_factors)

    def zero(self):
        return (0,) * self.rank

    def reduce(self, vec):
        if len(vec) != self.rank:
            raise ZLinAlgError("coordinate length mismatch")
        return tuple(int(x) % f for x, f in zip(vec, self.invariant_factors))

    def add(self, a, b):
        return tuple((x + y) % f for x, y, f in zip(a, b, self.invariant_factors))

    def sub(self, a, b):
        return tuple((x - y) % f for x, y, f in zip(a, b, self.invariant_factors))

    def elements(self):
        def rec(i):
            if i == self.rank:
                yield ()
                return
            for rest in rec(i + 1):
                for x in range(self.invariant_factors[i]):
                    yield (x,) + rest
        return list(rec(0))

    def element_order(self, a):
        n = 1
        for x, f in zip(a, self.invariant_factors):
            if x:
                n = lcm(n, f // gcd(x, f))
        return n

    def __str__(self):
        if not self.invariant_factors:
            return "0"
        return " x ".join("Z/%d" % f for f in self.invariant_factors)


@dataclass(frozen=True)
class AbHom:
    """Homomorphism between a lattice Z^n (given by its rank) and/or a
    FinAbGroup, acting on coordinate column vectors by self.matrix."""

    domain: object  # int rank, or FinAbGroup
    codomain: object
    matrix: IntMatrix

    def __post_init__(self):
        dn = self.domain_rank
        cn = self.codomain_rank
        if self.matrix.rows != cn or self.matrix.cols != dn:
            raise ZLinAlgError("matrix shape does not match domain/codomain")
        if isinstance(self.domain, FinAbGroup):
            # relations must map to relations
            for i, f in enumerate(self.domain.invariant_factors):
                img = tuple(f * self.matrix.data[r][i] for r in range(cn))
                if not self._codomain_is_zero(img):
                    raise ZLinAlgError("map not well defined on domain relations")

    @property
    def domain_rank(self):
        return self.domain.rank if isinstance(self.domain, FinAbGroup) else int(self.domain)

    @property
    def codomain_rank(self):
        return self.codomain.rank if isinstance(self.codomain, FinAbGroup) else int(self.codomain)

    def _codomain_is_zero(self, vec):
        if isinstance(self.codomain, FinAbGroup):
            return all(x % f == 0 for x, f in zip(vec, self.codomain.invariant_factors))
        return not any(vec)

    def apply(self, vec):
        out = self.matrix.apply(vec)
        if isinstance(self.codomain, FinAbGroup):
            return self.codomain.reduce(out)
        return out

    def is_surjective(self):
        if not isinstance(self.codomain, FinAbGroup):
            raise ZLinAlgError("surjectivity test implemented for finite codomain only")
        (grp, free_rank), _ = cokernel(self)
        return free_rank == 0 and grp.order == 1


def kernel_basis(f):
    """The nonzero rows of the Hermite normal form of ker f, for f with
    lattice domain Z^n; for a finite codomain the kernel is taken modulo
    its invariant factors."""
    if isinstance(f.domain, FinAbGroup):
        raise ZLinAlgError("kernel_basis expects a lattice domain")
    n = f.domain_rank
    m = f.matrix
    if isinstance(f.codomain, FinAbGroup):
        m = hstack(m, IntMatrix.diagonal(f.codomain.invariant_factors))
    ker = kernel_basis_of_matrix(m)
    return _from_int_rows(_echelon([r[:n] for r in ker.data], n), n)


def hstack(a, b):
    """The columns of a, then those of b."""
    if a.rows != b.rows:
        raise ZLinAlgError("row mismatch in hstack")
    return IntMatrix(a.rows, a.cols + b.cols,
                     tuple(ra + rb for ra, rb in zip(a.data, b.data)))


def cokernel(f):
    """Cokernel of f, in invariant-factor form, with the projection map.

    Returns ((group, free_rank), projection).  free_rank > 0 means the
    cokernel is infinite: group carries the torsion part only.
    """
    m = f.matrix
    cn = f.codomain_rank
    if isinstance(f.codomain, FinAbGroup):
        full = hstack(m, IntMatrix.diagonal(f.codomain.invariant_factors))
    else:
        full = m
    snf = smith_normal_form(full, with_v=False)
    diag = list(snf.diagonal) + [0] * (cn - len(snf.diagonal))
    factors = [d for d in diag if d not in (0, 1)]
    free_rank = sum(1 for d in diag if d == 0)
    grp = FinAbGroup(tuple(factors))
    if free_rank:
        return (grp, free_rank), None   # an infinite cokernel gets no projection
    # projection: codomain coords -> cokernel coords.  u maps codomain to
    # the SNF basis; keep coordinates whose diagonal is not 1.
    proj = _from_int_rows([r for r, d in zip(snf.u.data, diag) if d != 1], cn)
    return (grp, 0), AbHom(f.codomain, grp, proj)

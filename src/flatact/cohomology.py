"""Low-degree group cohomology of finite groups.

Coefficients are either a lattice Z^n or a finite abelian group, acted on
by a finite group Q.  H^1 and H^2 are computed on normalized bar cochains
(vanishing whenever an argument is the identity); finite coefficients are
handled by stacking the relation lattice next to the differential, so the
whole computation stays in exact integer arithmetic.

A separate periodic-resolution engine covers cyclic groups; it is much
cheaper and serves as an independent cross-check of the bar computation.
The torsion-freeness test for crystallographic extensions lives here too,
in two independent implementations (linear-system element search and
restriction classes).
"""

from operator import mul

from . import BoundExceeded
from .groups import (
    FiniteGroup,
    GroupError,
    TableGroup,
    _walk,
    prime_order_class_reps,
    quotient_group,
    subgroup_closure,
)
from .zlinalg import (
    AbHom,
    EchelonSolver,
    FinAbGroup,
    IntMatrix,
    ZLinAlgError,
    hermite_normal_form,
    kernel_basis_of_matrix,
    solve_integer,
    sparse_kernel_hnf,
    cokernel,
)


class CohomologyError(Exception):
    pass


class CohomologyBoundExceeded(CohomologyError, BoundExceeded):
    """The group order or the coefficient rank is over the bound of an
    H^1/H^2 call."""


# The envelope that benchmarks/bench_h2.py measures for both kinds of
# coefficients (BENCH_h2.json, a 2-vCPU virtual machine).  Lattice
# coefficients reach further: every lattice module there with |Q| <= 32
# and rank <= 8 takes at most about 5 s.  Finite coefficients make the
# cocycle lattice full-rank, and H^2 then reduces dense square matrices of
# the cochain dimension (|Q|-1)^2 * rank: at order 16 and rank 8 that
# takes up to about 25 s and 270 MB, and order 32 at rank 8 does not fit
# in 1.5 GB.
DEFAULT_GROUP_BOUND = 16
DEFAULT_RANK_BOUND = 8


# ---------------------------------------------------------------------------
# modules

class ZQModule:
    """A finite group acting on Z^n or on a finite abelian group.

    The action is given by one integer matrix per group generator and
    extended multiplicatively over the whole group (cached).  For finite
    coefficients the matrices act modulo the invariant factors; entry
    (r, c) is reduced modulo the r-th factor.
    """

    def __init__(self, group, coeff, gen_matrices):
        self.group = group
        self.coeff = coeff  # int rank, or FinAbGroup
        gens = group.generators()
        if len(gen_matrices) != len(gens):
            raise CohomologyError("need one action matrix per generator")
        n = self.rank
        for m in gen_matrices:
            if m.rows != n or m.cols != n:
                raise CohomologyError("action matrix has wrong shape")
        if self.is_finite:
            for m in gen_matrices:
                try:
                    AbHom(self.coeff, self.coeff, m)  # well-definedness check
                except ZLinAlgError as exc:
                    raise CohomologyError(
                        "action matrix not well defined modulo the invariant "
                        "factors: %s" % exc
                    )
            gen_matrices = [self._reduce_matrix(m) for m in gen_matrices]
        else:
            for m in gen_matrices:
                if m.det() not in (1, -1):
                    raise CohomologyError("lattice action matrix not in GL_n(Z)")
        self.gen_matrices = list(gen_matrices)
        self._cache = None
        self._build_cache()

    @staticmethod
    def lattice(group, gen_matrices, rank=None):
        if rank is None:
            if not gen_matrices:
                raise CohomologyError("rank required without generators")
            rank = gen_matrices[0].rows
        return ZQModule(group, int(rank), gen_matrices)

    @staticmethod
    def finite(group, fin_ab, gen_matrices):
        return ZQModule(group, fin_ab, gen_matrices)

    @property
    def is_finite(self):
        return isinstance(self.coeff, FinAbGroup)

    @property
    def rank(self):
        return self.coeff.rank if self.is_finite else int(self.coeff)

    @property
    def invariant_factors(self):
        return self.coeff.invariant_factors if self.is_finite else None

    def _reduce_matrix(self, m):
        fs = self.coeff.invariant_factors
        return IntMatrix.from_rows(
            [[x % fs[r] for x in m.data[r]] for r in range(m.rows)]
        )

    def _build_cache(self):
        grp = self.group
        ident = IntMatrix.identity(self.rank)
        step = mul
        if self.is_finite:
            ident = self._reduce_matrix(ident)
            step = lambda m, a: self._reduce_matrix(m * a)  # noqa: E731
        try:
            self._cache = _walk(grp.identity(), grp.generators(), grp.multiply,
                                ident, self.gen_matrices, step)
        except GroupError:
            raise CohomologyError("matrices do not define a group action")

    def act_matrix(self, g):
        return self._cache[g]

    def act(self, g, vec):
        out = self._cache[g].apply(vec)
        return self.reduce(out)

    def reduce(self, vec):
        if self.is_finite:
            return self.coeff.reduce(vec)
        return tuple(int(x) for x in vec)

    def zero(self):
        return (0,) * self.rank

    def add(self, a, b):
        return self.reduce(tuple(x + y for x, y in zip(a, b)))

    def sub(self, a, b):
        return self.reduce(tuple(x - y for x, y in zip(a, b)))

    def neg(self, a):
        return self.reduce(tuple(-x for x in a))

    def equal(self, a, b):
        return self.reduce(a) == self.reduce(b)

    def is_faithful(self):
        seen = set()
        for m in self._cache.values():
            if m.data in seen:
                return False
            seen.add(m.data)
        return True


def restrict_module(module, sub_elements):
    """(submodule over a TableGroup built from sub_elements, lookup) where
    lookup maps new element handles back to handles of module.group."""
    grp = module.group
    sub = subgroup_closure(grp, list(sub_elements))
    h = TableGroup.from_function(sub, grp.multiply, grp.identity())
    lookup = {i: x for i, x in enumerate(sub)}
    gen_mats = [module.act_matrix(lookup[g]) for g in h.generators()]
    submod = ZQModule(h, module.coeff, gen_mats)
    return submod, lookup


# ---------------------------------------------------------------------------
# cocycles

class Cocycle2:
    """Normalized 2-cochain: a table of coefficient vectors indexed by
    ordered pairs of group elements, zero when either argument is the
    identity."""

    def __init__(self, module, values):
        self.module = module
        e = module.group.identity()
        self.values = {}
        for (g, h), v in values.items():
            if g == e or h == e:
                if any(module.reduce(v)):
                    raise CohomologyError("cocycle not normalized at identity")
                continue
            self.values[(g, h)] = module.reduce(tuple(v))

    def value(self, g, h):
        e = self.module.group.identity()
        if g == e or h == e:
            return self.module.zero()
        return self.values.get((g, h), self.module.zero())

    def is_cocycle(self):
        grp = self.module.group
        mod = self.module
        els = grp.elements()
        for g in els:
            for h in els:
                for k in els:
                    lhs = mod.act(g, self.value(h, k))
                    lhs = mod.sub(lhs, self.value(grp.multiply(g, h), k))
                    lhs = mod.add(lhs, self.value(g, grp.multiply(h, k)))
                    lhs = mod.sub(lhs, self.value(g, h))
                    if any(lhs):
                        return False
        return True

    def add(self, other):
        out = {}
        for key in set(self.values) | set(other.values):
            out[key] = self.module.add(self.value(*key), other.value(*key))
        return Cocycle2(self.module, out)

    def sub(self, other):
        out = {}
        for key in set(self.values) | set(other.values):
            out[key] = self.module.sub(self.value(*key), other.value(*key))
        return Cocycle2(self.module, out)

    @staticmethod
    def zero(module):
        return Cocycle2(module, {})

    @staticmethod
    def coboundary(module, b):
        """d^1 of the 1-cochain b (a dict element -> vector, identity
        implicit zero)."""
        grp = module.group
        e = grp.identity()

        def bv(g):
            if g == e:
                return module.zero()
            return module.reduce(tuple(b.get(g, module.zero())))

        values = {}
        for g in grp.elements():
            for h in grp.elements():
                if g == e or h == e:
                    continue
                v = module.act(g, bv(h))
                v = module.sub(v, bv(grp.multiply(g, h)))
                v = module.add(v, bv(g))
                values[(g, h)] = v
        return Cocycle2(module, values)


def cyclic_cocycle_from_invariant(module, t, a):
    """The standard 2-cocycle of the cyclic group generated by t built
    from an invariant vector a: c(t^i, t^j) = a when i + j >= order, else
    0.  Requires a fixed by t."""
    mod = module
    if any(mod.sub(mod.act(t, a), mod.reduce(a))):
        raise CohomologyError("vector is not invariant under t")
    grp = mod.group
    m = grp.element_order(t)
    e = grp.identity()
    powers = {}
    cur = e
    for i in range(m):
        powers[i] = cur
        cur = grp.multiply(cur, t)
    values = {}
    for i in range(1, m):
        for j in range(1, m):
            if i + j >= m:
                values[(powers[i], powers[j])] = mod.reduce(a)
    return Cocycle2(mod, values)


# ---------------------------------------------------------------------------
# bar-resolution cohomology

def _hcat(a, b):
    if a.rows != b.rows:
        raise CohomologyError("row mismatch in hcat")
    return IntMatrix(a.rows, a.cols + b.cols,
                     tuple(ra + rb for ra, rb in zip(a.data, b.data)))


class CohomologyGroup:
    """Computed H^degree with class coordinates, representatives and
    coboundary witnesses.

    `group` is the cohomology group in invariant-factor form; class
    coordinates of a cocycle live in it.  The coordinate map kills
    exactly the coboundaries (a witness is producible whenever the class
    is zero).
    """

    def __init__(self, module, degree, group, cells_mid, cells_in,
                 basis, proj, stacked_in):
        self.module = module
        self.degree = degree
        self.group = group
        self.free_rank = 0
        self._cells_mid = cells_mid
        self._cells_in = cells_in
        self._basis = basis          # k x N_mid, rows span the cocycle lattice
        self._proj = proj            # group.rank x k
        self._stacked_in = stacked_in  # [din | relations], for witnesses
        self._solver = EchelonSolver(basis) if basis.rows else None

    @property
    def order(self):
        return self.group.order

    def _flatten(self, value_of):
        n = self.module.rank
        out = []
        for cell in self._cells_mid:
            v = value_of(cell)
            if len(v) != n:
                raise CohomologyError("coefficient vector length mismatch")
            out.extend(int(x) for x in v)
        return tuple(out)

    def _flatten_cochain(self, cochain):
        if self.degree == 2:
            return self._flatten(lambda cell: cochain.value(*cell))
        zero = self.module.zero()
        return self._flatten(lambda cell: cochain.get(cell, zero))

    def _unflatten(self, vec, cells):
        n = self.module.rank
        out = {}
        for i, cell in enumerate(cells):
            out[cell] = self.module.reduce(tuple(vec[i * n:(i + 1) * n]))
        return out

    def class_of(self, cochain):
        """Class coordinates of a cocycle, as a tuple in `group`."""
        if self.group.rank == 0:
            self._check_is_cocycle(cochain)
            return ()
        v = self._flatten_cochain(cochain)
        y = self._solver.solve(v)
        if y is None:
            raise CohomologyError("cochain is not a cocycle")
        return self.group.reduce(self._proj.apply(y))

    def _check_is_cocycle(self, cochain):
        if self._basis.rows == 0:
            if any(self._flatten_cochain(cochain)):
                raise CohomologyError("cochain is not a cocycle")
            return
        if self._solver.solve(self._flatten_cochain(cochain)) is None:
            raise CohomologyError("cochain is not a cocycle")

    def is_zero_class(self, cochain):
        return not any(self.class_of(cochain))

    def coboundary_witness(self, cochain):
        """A 1-cochain (degree 2) or coefficient vector (degree 1) whose
        coboundary equals the given cocycle, or None when the class is
        nonzero."""
        v = self._flatten_cochain(cochain)
        if self._stacked_in.cols == 0:
            if any(v):
                return None
            x = ()
        else:
            x = solve_integer(self._stacked_in, v)
            if x is None:
                return None
        n_in = len(self._cells_in) * self.module.rank
        b = list(x[:n_in]) + [0] * (n_in - len(x[:n_in]))
        if self.degree == 2:
            return self._unflatten(b, self._cells_in)
        return self.module.reduce(tuple(b))

    def representative(self, coords):
        """A cocycle with the given class coordinates."""
        coords = self.group.reduce(coords)
        if self.group.rank == 0:
            y = (0,) * self._basis.rows
        else:
            rel = IntMatrix.diagonal(self.group.invariant_factors)
            stacked = _hcat(self._proj, rel)
            sol = solve_integer(stacked, coords)
            if sol is None:
                raise CohomologyError("coordinates outside the group")
            y = sol[:self._basis.rows]
        v = [0] * (len(self._cells_mid) * self.module.rank)
        for i, yi in enumerate(y):
            if yi:
                for j, x in enumerate(self._basis.data[i]):
                    v[j] += yi * x
        table = self._unflatten(v, self._cells_mid)
        if self.degree == 2:
            return Cocycle2(self.module, table)
        return table

    def generator_representatives(self):
        reps = []
        for i in range(self.group.rank):
            e_i = tuple(1 if j == i else 0 for j in range(self.group.rank))
            reps.append(self.representative(e_i))
        return reps


def _trivial_cohomology(module, degree):
    zero = IntMatrix.zero(0, 0)
    return CohomologyGroup(module, degree, FinAbGroup(()), [], [],
                           zero, IntMatrix.zero(0, 0), zero)


def _bar_cohomology(module, degree):
    grp = module.group
    n = module.rank
    els = grp.elements()
    e = grp.identity()
    nt = [x for x in els if x != e]
    if not nt or n == 0:
        return _trivial_cohomology(module, degree)
    idx = {x: i for i, x in enumerate(nt)}
    m = len(nt)

    if degree == 2:
        cells_mid = [(g, h) for g in nt for h in nt]  # (g, h) at g*m + h
        cells_in = list(nt)
    else:
        cells_mid = list(nt)
        cells_in = [None]  # C^0 = one copy of the coefficients
    n_mid = len(cells_mid) * n
    factors = module.invariant_factors

    # outgoing differential as sparse rows: per cell (g, h, k) or (g, h)
    # of the next level and per coefficient, a row of g's action matrix
    # plus at most three +-1 entries; for finite coefficients the row's
    # relation column sits beside it, so the kernel is the cocycle lattice
    # plus relation parts.  Only cells whose g is a group generator get
    # rows: the cocycle identity at (g, h, k) says that elements over g
    # associate on the left in the extension M x Q with product
    # (m, g)(m', h) = (m + g m' + c(g, h), gh), and left-associating
    # elements are closed under products, so the identity at the
    # generators implies it everywhere (likewise, a crossed homomorphism
    # condition at the generators makes q -> (b(q), q) multiplicative).
    # The lattice is therefore the same as with all cells.
    gens = sorted({idx[s] for s in grp.generators() if s != e})
    prod_idx = [[idx.get(grp.multiply(g, h)) for h in nt] for g in nt]
    act_rows = [[[(j, x) for j, x in enumerate(row) if x]
                 for row in module.act_matrix(g).data] for g in nt]
    dout = []

    def emit(g, col0, units):
        for i in range(n):
            row = {col0 + j: x for j, x in act_rows[g][i]}
            for c0, sign in units:
                c = c0 + i
                v = row.get(c, 0) + sign
                if v:
                    row[c] = v
                else:
                    del row[c]
            if factors is not None:
                row[n_mid + len(dout)] = factors[i]
            dout.append(row)

    if degree == 2:
        for g in gens:
            for h in range(m):
                gh = prod_idx[g][h]
                for k in range(m):
                    units = [((g * m + h) * n, -1)]
                    if gh is not None:
                        units.append(((gh * m + k) * n, -1))
                    hk = prod_idx[h][k]
                    if hk is not None:
                        units.append(((g * m + hk) * n, 1))
                    emit(g, (h * m + k) * n, units)
    else:
        for g in gens:
            for h in range(m):
                units = [(g * n, 1)]
                gh = prod_idx[g][h]
                if gh is not None:
                    units.append((gh * n, -1))
                emit(g, h * n, units)

    # pivots in breadth-first order over the Cayley graph: a non-generator
    # x is s h with s a generator and h nearer the identity, and the rows
    # of the cells (s, h, ...) hold the x-columns in a -identity block while
    # their other columns are generator columns or solved already.  So
    # every solved column is a sum of action matrices applied to generator
    # columns, and entries stay as small as the action's.
    pivots = []
    frontier, seen = list(gens), set(gens)
    while frontier:
        nxt = []
        for h in frontier:
            for gi, s in enumerate(gens):
                x = prod_idx[s][h]
                if x is None or x in seen:
                    continue
                seen.add(x)
                nxt.append(x)
                if degree == 2:
                    pivots += [(((gi * m + h) * m + k) * n + i, (x * m + k) * n + i)
                               for k in range(m) for i in range(n)]
                else:
                    pivots += [((gi * m + h) * n + i, x * n + i) for i in range(n)]
        frontier = nxt

    # cocycle lattice: integer vectors whose differential lies in the
    # relation lattice of the next level.  For finite coefficients it holds
    # the relation lattice of this level (f e_c for the factor f of each
    # coordinate c), so its Hermite form can be taken modulo those factors.
    ncols = n_mid + (len(dout) if factors is not None else 0)
    moduli = None if factors is None else [factors[i % n] for i in range(n_mid)]
    basis = sparse_kernel_hnf(dout, ncols, pivots, keep=n_mid, moduli=moduli)

    def block_add(rows, r0, c0, mat, sign):
        for i, row in enumerate(mat.data):
            target = rows[r0 + i]
            for j, x in enumerate(row):
                if x:
                    target[c0 + j] += sign * x

    def ident_add(rows, r0, c0, sign):
        for i in range(n):
            rows[r0 + i][c0 + i] += sign

    # incoming differential
    n_in = len(cells_in) * n
    din = [[0] * n_in for _ in range(n_mid)]
    if degree == 2:
        for pi, (g, h) in enumerate(cells_mid):
            r0 = pi * n
            block_add(din, r0, idx[h] * n, module.act_matrix(g), 1)
            gh = grp.multiply(g, h)
            if gh != e:
                ident_add(din, r0, idx[gh] * n, -1)
            ident_add(din, r0, idx[g] * n, 1)
    else:
        for gi, g in enumerate(cells_mid):
            r0 = gi * n
            block_add(din, r0, 0, module.act_matrix(g), 1)
            ident_add(din, r0, 0, -1)

    din_m = IntMatrix.from_rows(din)

    # coboundary lattice generators: columns of din, plus the relation
    # lattice of the middle level for finite coefficients
    imgens = list(zip(*din_m.data))
    if factors is not None:
        for i in range(n_mid):
            v = [0] * n_mid
            v[i] = factors[i % n]
            imgens.append(tuple(v))

    k = basis.rows
    if k == 0:
        grp_h = FinAbGroup(())
        proj = IntMatrix.zero(0, 0)
    else:
        solver = EchelonSolver(basis)
        ycols = []
        for gvec in imgens:
            y = solver.solve(gvec)
            if y is None:
                raise CohomologyError("coboundary outside the cocycle lattice")
            ycols.append(y)
        ymat = IntMatrix.from_rows(
            [[ycols[j][i] for j in range(len(ycols))] for i in range(k)]
        ) if ycols else IntMatrix.zero(k, 0)
        (grp_h, free_rank), projection = cokernel(AbHom(ymat.cols, k, ymat))
        if free_rank:
            raise CohomologyError(
                "unexpected free part in finite-group cohomology"
            )
        proj = projection.matrix if projection is not None else IntMatrix.zero(0, k)

    if factors is not None:
        relations = IntMatrix.diagonal([factors[i % n] for i in range(n_mid)])
        stacked_in = _hcat(din_m, relations)
    else:
        stacked_in = din_m
    return CohomologyGroup(module, degree, grp_h, cells_mid, cells_in,
                           basis, proj, stacked_in)


def _check_bounds(module, group_bound, rank_bound):
    if module.group.order() > group_bound:
        raise CohomologyBoundExceeded(
            "group order %d exceeds bound %d; for cyclic groups use the "
            "periodic-resolution engine (CyclicCohomology)"
            % (module.group.order(), group_bound)
        )
    if module.rank > rank_bound:
        raise CohomologyBoundExceeded(
            "coefficient rank %d exceeds bound %d" % (module.rank, rank_bound)
        )


def h2(module, group_bound=DEFAULT_GROUP_BOUND, rank_bound=DEFAULT_RANK_BOUND):
    """H^2 of the group acting on the module, via the normalized bar
    resolution."""
    _check_bounds(module, group_bound, rank_bound)
    return _bar_cohomology(module, 2)


def h1(module, group_bound=DEFAULT_GROUP_BOUND, rank_bound=DEFAULT_RANK_BOUND):
    """H^1, same contract shape as h2 (1-cochains are dicts element ->
    vector)."""
    _check_bounds(module, group_bound, rank_bound)
    return _bar_cohomology(module, 1)


# ---------------------------------------------------------------------------
# periodic resolution for cyclic groups

class CyclicCohomology:
    """H^1 or H^2 of a cyclic group of order m via the 2-periodic free
    resolution.

    degree 2: M^C / N.M   (fixed vectors modulo norm image)
    degree 1: ker N / (T - 1).M

    The class of a bar 2-cocycle c corresponds to the invariant vector
    w = sum_{i=1}^{m-1} c(t^i, t).
    """

    def __init__(self, order, t_matrix, factors=None, degree=2):
        self.order = order
        self.t = t_matrix
        self.factors = tuple(factors) if factors is not None else None
        self.degree = degree
        n = t_matrix.rows
        self.n = n
        ident = IntMatrix.identity(n)
        norm = IntMatrix.zero(n, n)
        power = ident
        for _ in range(order):
            norm = norm + power
            power = power * t_matrix
        if power.data != ident.data and factors is None:
            raise CohomologyError("matrix does not have the stated order")
        self.norm = norm
        tm1 = t_matrix + (-ident)
        ker_of, im_of = (tm1, norm) if degree == 2 else (norm, tm1)

        # basis of the kernel sublattice (vectors killed by ker_of, modulo
        # the relation lattice for finite coefficients)
        if self.factors is not None:
            stacked = _hcat(ker_of, IntMatrix.diagonal(self.factors))
            full = kernel_basis_of_matrix(stacked)
            rows = [r[:n] for r in full.data]
        else:
            rows = list(kernel_basis_of_matrix(ker_of).data)
        if rows:
            h, _ = hermite_normal_form(IntMatrix.from_rows(rows))
            rows = [r for r in h.data if any(r)]
        self.basis = IntMatrix.from_rows(rows) if rows else IntMatrix.zero(0, n)

        imgens = [im_of.col(j) for j in range(n)]
        if self.factors is not None:
            for i in range(n):
                v = [0] * n
                v[i] = self.factors[i]
                imgens.append(tuple(v))
        k = self.basis.rows
        if k == 0:
            self.group = FinAbGroup(())
            self.proj = IntMatrix.zero(0, 0)
            self._solver = None
        else:
            self._solver = EchelonSolver(self.basis)
            ycols = []
            for gvec in imgens:
                y = self._solver.solve(gvec)
                if y is None:
                    raise CohomologyError("image vector outside the kernel lattice")
                ycols.append(y)
            ymat = IntMatrix.from_rows(
                [[ycols[j][i] for j in range(len(ycols))] for i in range(k)]
            )
            (grp, free_rank), projection = cokernel(AbHom(ymat.cols, k, ymat))
            if free_rank:
                raise CohomologyError("unexpected free part in cyclic cohomology")
            self.group = grp
            self.proj = projection.matrix if projection is not None else IntMatrix.zero(0, k)

    def class_of_vector(self, w):
        """Class coordinates of a vector in the kernel sublattice."""
        if self.group.rank == 0:
            return ()
        y = self._solver.solve(tuple(int(x) for x in w))
        if y is None:
            raise CohomologyError("vector not in the kernel sublattice")
        return self.group.reduce(self.proj.apply(y))

    def class_of_cocycle(self, cocycle, t_element):
        """Class of a bar 2-cocycle over the cyclic group generated by
        t_element (degree 2 only)."""
        if self.degree != 2:
            raise CohomologyError("cocycle classes are a degree-2 operation")
        grp = cocycle.module.group
        cur = t_element
        total = cocycle.module.zero()
        for _ in range(1, self.order):
            total = cocycle.module.add(total, cocycle.value(cur, t_element))
            cur = grp.multiply(cur, t_element)
        return self.class_of_vector(total)


# ---------------------------------------------------------------------------
# induced maps, restriction, image membership

class InducedMap:
    """Map between two computed cohomology groups, as a matrix between
    their invariant-factor presentations."""

    def __init__(self, source, target, matrix):
        self.source = source
        self.target = target
        self.matrix = matrix  # target.group.rank x source.group.rank

    def apply(self, coords):
        return self.target.group.reduce(self.matrix.apply(coords))


def induced_h2(alpha, source, target, require_surjective=True):
    """The map H^2(Q; source coefficients) -> H^2(Q; target coefficients)
    induced by an equivariant coefficient homomorphism alpha.

    Verifies that alpha is equivariant (alpha(g.x) = g.alpha(x) on the
    whole group) and, by default, surjective.  Source and target must be
    cohomology of the same group.
    """
    if source.module.group is not target.module.group:
        raise CohomologyError("source and target must share the same group")
    smod, tmod = source.module, target.module
    if alpha.matrix.cols != smod.rank or alpha.matrix.rows != tmod.rank:
        raise CohomologyError("alpha shape does not match the modules")
    if require_surjective:
        if not tmod.is_finite:
            raise CohomologyError("surjectivity check needs finite target")
        if not alpha.is_surjective():
            raise CohomologyError("alpha is not surjective")
    for g in smod.group.elements():
        left = alpha.matrix * smod.act_matrix(g)
        right = tmod.act_matrix(g) * alpha.matrix
        diff = left + (-right)
        for r in range(diff.rows):
            for x in diff.data[r]:
                fr = tmod.invariant_factors[r] if tmod.is_finite else 0
                if (x % fr if fr else x) != 0:
                    raise CohomologyError("alpha is not equivariant")

    cols = []
    for rep in source.generator_representatives():
        pushed = Cocycle2(
            tmod,
            {key: alpha.apply(v) for key, v in rep.values.items()},
        )
        cols.append(target.class_of(pushed))
    tr = target.group.rank
    matrix = IntMatrix.from_rows(
        [[cols[j][i] for j in range(len(cols))] for i in range(tr)]
    ) if cols else IntMatrix.zero(tr, 0)
    return InducedMap(source, target, matrix)


def is_in_image(target_coords, induced):
    """Preimage coordinates of a target class under an induced map, or
    None when the class is not in the image."""
    tgrp = induced.target.group
    sgrp = induced.source.group
    coords = tgrp.reduce(target_coords)
    if tgrp.rank == 0:
        return sgrp.zero()
    rel = IntMatrix.diagonal(tgrp.invariant_factors)
    stacked = _hcat(induced.matrix, rel) if induced.matrix.cols else rel
    sol = solve_integer(stacked, coords)
    if sol is None:
        return None
    pre = tuple(sol[:induced.matrix.cols]) + (0,) * max(
        0, sgrp.rank - induced.matrix.cols
    )
    return sgrp.reduce(pre[:sgrp.rank])


def restriction_h2(source, sub_elements,
                   group_bound=DEFAULT_GROUP_BOUND,
                   rank_bound=DEFAULT_RANK_BOUND):
    """Restriction map from a computed H^2 to H^2 of the subgroup
    generated by sub_elements (same coefficients)."""
    module = source.module
    submod, lookup = restrict_module(module, sub_elements)
    target = h2(submod, group_bound=group_bound, rank_bound=rank_bound)
    cols = []
    for rep in source.generator_representatives():
        restricted = Cocycle2(
            submod,
            {(g, h): rep.value(lookup[g], lookup[h])
             for g in submod.group.elements() for h in submod.group.elements()},
        )
        cols.append(target.class_of(restricted))
    tr = target.group.rank
    matrix = IntMatrix.from_rows(
        [[cols[j][i] for j in range(len(cols))] for i in range(tr)]
    ) if cols else IntMatrix.zero(tr, 0)
    return InducedMap(source, target, matrix), target


# ---------------------------------------------------------------------------
# extension classes

class ExtensionData:
    """Result of reading off the 2-cocycle of 1 -> A -> G -> Q -> 1."""

    def __init__(self, cocycle, module, quotient, projection, section):
        self.cocycle = cocycle
        self.module = module        # Q acting on A by conjugation in G
        self.quotient = quotient    # Q as a TableGroup
        self.projection = projection  # GroupHom G -> Q
        self.section = section      # dict Q element -> G element


def extension_class(g, a_elements, identification, a_group, section=None):
    """The 2-cocycle of the extension 1 -> A -> G -> Q -> 1.

    a_elements: full element list of a normal abelian subgroup A of G.
    identification: dict mapping each element of A to its coordinates in
    a_group (a FinAbGroup); must be a bijective homomorphism.
    section: optional dict Q-element -> G-element with section(1) = 1;
    defaults to the lexicographically least coset representatives.
    """
    a_set = set(a_elements)
    if len(identification) != len(a_set) or set(identification) != a_set:
        raise CohomologyError("identification must cover A exactly")
    coords_seen = set()
    for x in a_elements:
        c = a_group.reduce(identification[x])
        if c in coords_seen:
            raise CohomologyError("identification is not injective")
        coords_seen.add(c)
    if a_group.order != len(a_set):
        raise CohomologyError("group order does not match the element count")
    for x in a_elements:
        for y in a_elements:
            xy = g.multiply(x, y)
            if g.multiply(y, x) != xy:
                raise CohomologyError("A is not abelian")
            want = a_group.add(
                a_group.reduce(identification[x]), a_group.reduce(identification[y])
            )
            if a_group.reduce(identification[xy]) != want:
                raise CohomologyError("identification is not a homomorphism")

    q, proj, cosets = quotient_group(g, a_elements)
    if section is None:
        section = {i: cosets[i][0] for i in range(q.order())}
    else:
        section = dict(section)
        if section.get(q.identity()) != g.identity():
            raise CohomologyError("section must send identity to identity")
        for qe, ge in section.items():
            if proj(ge) != qe:
                raise CohomologyError("section element lies in the wrong coset")

    # conjugation action of Q on A, in a_group coordinates
    elem_of = {a_group.reduce(identification[x]): x for x in a_elements}
    basis_elems = []
    for i in range(a_group.rank):
        e_i = tuple(1 if j == i else 0 for j in range(a_group.rank))
        basis_elems.append(elem_of[a_group.reduce(e_i)])
    gen_mats = []
    for qg in q.generators():
        s = section[qg]
        cols = []
        for be in basis_elems:
            conj = g.conjugate(s, be)
            if conj not in a_set:
                raise CohomologyError("A is not normal in G")
            cols.append(a_group.reduce(identification[conj]))
        gen_mats.append(IntMatrix.from_rows(
            [[cols[j][i] for j in range(len(cols))] for i in range(a_group.rank)]
        ))
    module = ZQModule.finite(q, a_group, gen_mats)

    values = {}
    for q1 in q.elements():
        for q2 in q.elements():
            if q1 == q.identity() or q2 == q.identity():
                continue
            prod = g.multiply(section[q1], section[q2])
            corr = g.multiply(prod, g.inverse(section[q.multiply(q1, q2)]))
            if corr not in a_set:
                raise CohomologyError("section defect lands outside A")
            values[(q1, q2)] = a_group.reduce(identification[corr])
    cocycle = Cocycle2(module, values)
    if not cocycle.is_cocycle():
        raise CohomologyError("section defect failed the cocycle identity")
    return ExtensionData(cocycle, module, q, proj, section)


# ---------------------------------------------------------------------------
# torsion-freeness of crystallographic extensions

def torsion_free_check(point_group, module, cocycle):
    """Whether the crystallographic extension of the lattice by the point
    group along the cocycle is torsion-free.

    Returns (True, None) or (False, (x, phi)) where (x, phi) is an
    explicit element of finite order: a prime-order point-group element
    phi together with a lattice vector x satisfying N_phi x = -w_phi, so
    that (x, phi)^p is the identity.
    """
    if module.is_finite:
        raise CohomologyError("torsion test expects lattice coefficients")
    if module.group is not point_group:
        raise CohomologyError("module must carry the point group action")
    if not module.is_faithful():
        raise CohomologyError("point group action is not faithful")
    n = module.rank
    for phi, p in prime_order_class_reps(point_group):
        rho = module.act_matrix(phi)
        norm = IntMatrix.identity(n)
        power = rho
        for _ in range(p - 1):
            norm = norm + power
            power = power * rho
        w = module.zero()
        cur = phi
        for _ in range(1, p):
            w = module.add(w, cocycle.value(cur, phi))
            cur = point_group.multiply(cur, phi)
        x = solve_integer(norm, tuple(-t for t in w))
        if x is not None:
            return False, (tuple(x), phi)
    return True, None


def torsion_free_check_by_restriction(point_group, module, cocycle):
    """Same verdict as torsion_free_check by the cohomological route: the
    extension is torsion-free iff the restriction of the class to every
    prime-order cyclic subgroup is nonzero.  Returns (bool, phi) with phi
    the offending element on failure."""
    if module.is_finite:
        raise CohomologyError("torsion test expects lattice coefficients")
    if not module.is_faithful():
        raise CohomologyError("point group action is not faithful")
    for phi, p in prime_order_class_reps(point_group):
        cc = CyclicCohomology(p, module.act_matrix(phi))
        coords = cc.class_of_cocycle(cocycle, phi)
        if not any(coords):
            return False, phi
    return True, None


# ---------------------------------------------------------------------------
# cocycle text format
# ---------------------------------------------------------------------------

def cocycle_to_text(cocycle):
    """Serialize a 2-cocycle: header "cocycle m coeff-desc" (coeff-desc
    is "lattice n" or "finite f1 f2 ..."), then one line per ordered
    pair with a nonzero value: the two element indices (positions in the
    group's element list) followed by the coefficient vector."""
    module = cocycle.module
    els = module.group.elements()
    index = {x: i for i, x in enumerate(els)}
    if module.is_finite:
        desc = "finite " + " ".join(str(f) for f in module.coeff.invariant_factors)
    else:
        desc = "lattice %d" % module.rank
    lines = ["cocycle %d %s" % (len(els), desc)]
    for g in els:
        for h in els:
            v = cocycle.value(g, h)
            if any(v):
                lines.append("%d %d %s" % (index[g], index[h],
                                           " ".join(str(c) for c in v)))
    return "\n".join(lines) + "\n"


def cocycle_from_text(text, module):
    """Parse the cocycle text format against a given module; element
    indices refer to the module group's element list."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise CohomologyError("empty cocycle text")
    head = lines[0].split()
    if len(head) < 3 or head[0] != "cocycle":
        raise CohomologyError("cocycle text must start with 'cocycle m coeff-desc'")
    els = module.group.elements()
    try:
        m = int(head[1])
    except ValueError:
        raise CohomologyError("malformed cocycle header")
    if m != len(els):
        raise CohomologyError("cocycle group size %d does not match module" % m)
    if module.is_finite:
        want = ["finite"] + [str(f) for f in module.coeff.invariant_factors]
    else:
        want = ["lattice", str(module.rank)]
    if head[2:] != want:
        raise CohomologyError("cocycle coefficient description does not match module")
    k = len(module.zero())
    values = {}
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 2 + k:
            raise CohomologyError("malformed cocycle line %r" % ln)
        try:
            i, j = int(toks[0]), int(toks[1])
            vec = tuple(int(t) for t in toks[2:])
        except ValueError:
            raise CohomologyError("malformed cocycle line %r" % ln)
        if not (0 <= i < m and 0 <= j < m):
            raise CohomologyError("cocycle element index out of range in %r" % ln)
        values[(els[i], els[j])] = vec
    return Cocycle2(module, values)

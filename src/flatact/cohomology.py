"""Low-degree group cohomology of finite groups.

Coefficients are either a lattice Z^n or a finite abelian group, acted on
by a finite group Q.  H^1 and H^2 are computed over the relation module of
the Cayley graph: a breadth-first spanning tree of Q's Cayley graph over
its generators X gives the Schreier words S, on which the relation module
R^ab is free abelian, and H^2 is Hom_Q(R^ab, M) modulo the derivations of
M^X, H^1 the derivations that vanish on S modulo the principal ones.
Cochains in and out are normalized bar cochains (vanishing whenever an
argument is the identity), read along the tree.  Finite coefficients are
handled by stacking the relation lattice next to the differential, so
the whole computation stays in exact integer arithmetic.

A separate periodic-resolution engine covers cyclic groups; it is much
cheaper and serves as an independent cross-check.  The two engines find
their lattices independently (the relation module through
sparse_kernel_hnf, the periodic one through the dense kernel_basis) and
then take the same one quotient step, `_quotient`: the cocycle lattice,
given by its Hermite basis, modulo the coboundaries, as a FinAbGroup with
the projection onto its coordinates.  The trivial group and rank-0
modules take the same path: their cochain spaces are empty, and the
empty matrices keep their shapes.  The normalized bar complex, which
these groups were computed on before, is the tests' oracle
(`tests/bar_oracle.py`).
The torsion-freeness test for crystallographic extensions lives here too,
in two independent implementations (linear-system element search and
restriction classes).
"""

from collections import Counter
from operator import add, mul

from . import BoundExceeded
from .groups import (
    GroupError,
    _walk,
    prime_order_class_reps,
    quotient_group,
)
from .zlinalg import (
    AbHom,
    EchelonSolver,
    FinAbGroup,
    IntMatrix,
    ZLinAlgError,
    kernel_basis,
    solve_integer,
    solve_modulo,
    sparse_kernel_hnf,
    cokernel,
)


class CohomologyError(Exception):
    pass


class CohomologyBoundExceeded(CohomologyError, BoundExceeded):
    """The group order or the coefficient rank is over the bound of an
    H^1/H^2 call."""


# benchmarks/bench_h2.py (BENCH_h2.json, a 2-vCPU virtual machine) finds
# H^2 far beyond these bounds: every module there takes at most 0.7 s
# and 60 MB, with orders up to 64 and ranks up to 12, and S5 and S6 on
# their permutation modules, but one: C2^6 on (Z/2)^8 takes about 8 s and
# 470 MB, as its 6 generators and full-rank finite coefficients give the
# largest cochain dimension, |Q| (|X| - 1) + 1 = 321 words times rank 8.
# The bounds stay where they are because verify_torus_certificate's other
# steps (the extension's cocycle, the equivariance of alpha, the cocycle
# check of class_of) grow as |Q|^2 and have not been measured at a larger
# bound.
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

    def is_faithful(self):
        seen = set()
        for m in self._cache.values():
            if m.data in seen:
                return False
            seen.add(m.data)
        return True


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
        """Whether c satisfies the cocycle identity
        g c(h, k) - c(gh, k) + c(g, hk) - c(g, h) = 0.  It is checked for
        the generators g and every h, k only: the identity at (g, h, k)
        says that the elements over g associate on the left in M x Q with
        the product (m, g)(m', h) = (m + g m' + c(g, h), gh), and elements
        that associate on the left are closed under products."""
        mod = self.module
        grp = mod.group
        els = grp.elements()
        index = {x: i for i, x in enumerate(els)}
        zero = mod.zero()
        moduli = mod.invariant_factors or (0,) * mod.rank
        # the values and the products by element index
        c = [[self.values.get((h, k), zero) for k in els] for h in els]
        prod = [[index[grp.multiply(h, k)] for k in els] for h in els]
        for g in grp.generators():
            rows = mod.act_matrix(g).data
            cg, pg = c[index[g]], prod[index[g]]
            for h, (ch, ph) in enumerate(zip(c, prod)):
                c_gh, cgh = cg[h], c[pg[h]]
                for k, ck in enumerate(ch):
                    lhs = [sum(a * x for a, x in zip(row, ck)) - u + v - w
                           for row, u, v, w in zip(rows, cgh[k], cg[ph[k]], c_gh)]
                    if any(x % f if f else x for x, f in zip(lhs, moduli)):
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


# ---------------------------------------------------------------------------
# cohomology over the relation module of the Cayley graph

def _quotient(basis, imgens):
    """The quotient of the lattice spanned by the rows of `basis` (an
    echelon matrix) by the sublattice that the vectors `imgens` generate,
    which must lie in it: (the quotient as a FinAbGroup, the matrix taking
    coordinates over the basis rows to coordinates in it, an EchelonSolver
    of basis)."""
    solver = EchelonSolver(basis)
    ycols = []
    for gvec in imgens:
        y = solver.solve(gvec)
        if y is None:
            raise CohomologyError("coboundary outside the cocycle lattice")
        ycols.append(y)
    ymat = IntMatrix.from_columns(ycols, basis.rows)
    (group, free_rank), projection = cokernel(AbHom(ymat.cols, basis.rows, ymat))
    if free_rank:
        raise CohomologyError("unexpected free part in finite-group cohomology")
    return group, projection.matrix, solver


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


class _CayleyTree:
    """The breadth-first spanning tree of a group's Cayley graph over its
    generators x_0, ..., x_(r-1).

    Vertex i is the i-th element that groups._walk reaches from the
    identity (vertex 0), and the edges are q -> q x_j.  Each edge (q, j)
    off the tree gives the Schreier word w_q x_j w_(q x_j)^-1, where w_q is
    the word along the tree to q.  The kernel R of the free group on the
    x_j onto the group is free on these words (Schreier), so the relation
    module R^ab is free abelian on them, |Q|(r - 1) + 1 of them, with Q
    acting by conjugation."""

    def __init__(self, group):
        self.gens = group.generators()
        self.elements = list(_walk(group.identity(), self.gens, group.multiply))
        index = {q: i for i, q in enumerate(self.elements)}
        self.step = [[index[group.multiply(q, x)] for x in self.gens]
                     for q in self.elements]
        self.tree = []          # (parent, letter, child), children in vertex order
        self.schreier = []      # (vertex, letter) of each edge off the tree
        self.edge = []          # vertex -> letter -> Schreier index, or None
        reached = {0}
        for p, row in enumerate(self.step):
            self.edge.append([None] * len(row))
            for j, child in enumerate(row):
                if child in reached:
                    self.edge[p][j] = len(self.schreier)
                    self.schreier.append((p, j))
                else:
                    reached.add(child)
                    self.tree.append((p, j, child))

    def paths(self, term, add, zero, start=0):
        """Every tree word read from vertex `start`: (pos, path), where
        pos[q] is the vertex that w_q leads to (start q) and path[q] the
        sum of term(v, j) over the edges (v, j) it passes."""
        pos, path = [start] * len(self.elements), [zero] * len(self.elements)
        for p, j, c in self.tree:
            v = pos[p]
            pos[c], path[c] = self.step[v][j], add(path[p], term(v, j))
        return pos, path

    def loops(self, term, zero):
        """The vectors term(v, j) summed around each Schreier word read
        from the identity, an edge passed backwards subtracting."""
        _, path = self.paths(term, _vadd, zero)
        return [_vsub(_vadd(path[q], term(q, j)), path[self.step[q][j]])
                for q, j in self.schreier]


class CohomologyGroup:
    """Computed H^degree with class coordinates, representatives and
    coboundary witnesses, all on normalized bar cochains: a 2-cochain is a
    Cocycle2, a 1-cochain a dict element -> vector (identity implicit
    zero).

    `group` is the cohomology group in invariant-factor form; class
    coordinates of a cocycle live in it.  The coordinate map kills
    exactly the coboundaries (a witness is producible whenever the class
    is zero).
    """

    def __init__(self, module, degree, group, tree, basis, proj, din, solver):
        self.module = module
        self.degree = degree
        self.group = group
        self._tree = tree
        self._basis = basis          # k x N_mid, rows span the cocycle lattice
        self._proj = proj            # group.rank x k
        self._din = din              # N_mid x N_in incoming differential
        self._solver = solver        # EchelonSolver of basis

    def _values(self, cochain):
        """The cocycle in this complex, flattened: in degree 2 its values
        around the Schreier words, which are the words evaluated in the
        extension M x_c Q; in degree 1 its values at the generators."""
        tree, module = self._tree, self.module
        given = cochain.values.values() if self.degree == 2 else cochain.values()
        if any(len(v) != module.rank for v in given):
            raise CohomologyError("coefficient vector length mismatch")
        if self.degree == 2:
            if not cochain.is_cocycle():
                raise CohomologyError("cochain is not a cocycle")
            els, gens = tree.elements, tree.gens
            values = tree.loops(lambda v, j: cochain.value(els[v], gens[j]), module.zero())
        else:
            # a crossed homomorphism is a 1-cochain whose coboundary is 0
            if any(map(any, Cocycle2.coboundary(module, cochain).values.values())):
                raise CohomologyError("cochain is not a cocycle")
            values = [module.reduce(cochain.get(x, module.zero())) for x in tree.gens]
        return tuple(x for v in values for x in v)

    def _blocks(self, vec):
        """A flattened vector of this complex, one coefficient vector per
        Schreier word (degree 2) or generator (degree 1)."""
        n = self.module.rank
        count = len(self._tree.schreier) if self.degree == 2 else len(self._tree.gens)
        return [tuple(vec[i * n:(i + 1) * n]) for i in range(count)]

    def _coordinates(self, vec):
        y = self._solver.solve(vec)
        if y is None:
            raise CohomologyError("cochain is not a cocycle")
        return self.group.reduce(self._proj.apply(y))

    def _lift(self, coords):
        """A vector of the cocycle lattice in the class with the given
        coordinates."""
        coords = self.group.reduce(coords)
        y = solve_modulo(self._proj, self.group.invariant_factors, coords)
        if y is None:
            raise CohomologyError("coordinates outside the group")
        v = [0] * self._basis.cols
        for yi, row in zip(y, self._basis.data):
            if yi:
                for j, x in enumerate(row):
                    v[j] += yi * x
        return v

    def class_of(self, cochain):
        """Class coordinates of a cocycle, as a tuple in `group`."""
        return self._coordinates(self._values(cochain))

    def coboundary_witness(self, cochain):
        """A 1-cochain (degree 2) or coefficient vector (degree 1) whose
        coboundary equals the given cocycle, or None when the class is
        nonzero.  The witness is checked against the cocycle before it is
        returned."""
        module, tree = self.module, self._tree
        v = self._values(cochain)
        factors = module.invariant_factors
        if factors is None:
            h = solve_integer(self._din, v)
        else:
            n = module.rank
            h = solve_modulo(self._din, [factors[i % n] for i in range(len(v))], v)
        if h is None:
            return None
        els, zero = tree.elements, module.zero()
        if self.degree == 1:
            witness = module.reduce(h)
            ok = all(module.sub(module.act(g, witness), witness)
                     == module.reduce(cochain.get(g, zero)) for g in els[1:])
        else:
            # b(q) = h(w_q) - (the value of w_q in M x_c Q): then c = d^1 b
            gens, blocks = tree.gens, self._blocks(h)
            _, b = tree.paths(lambda u, j: _vsub(module.act_matrix(els[u]).apply(blocks[j]),
                                                 cochain.value(els[u], gens[j])),
                              _vadd, zero)
            witness = {els[q]: module.reduce(b[q]) for q in range(1, len(els))}
            defect = cochain.sub(Cocycle2.coboundary(module, witness))
            ok = not any(any(x) for x in defect.values.values())
        if not ok:
            raise CohomologyError("coboundary witness does not reproduce the cocycle")
        return witness

    def representative(self, coords):
        """A cocycle with the given class coordinates.  In degree 2 that is
        c(g, h) = f(w_g w_h w_(gh)^-1): the word w_h read from the vertex
        g, which passes only the Schreier edges that f is given on."""
        module, tree = self.module, self._tree
        blocks = self._blocks(self._lift(coords))
        els, zero = tree.elements, module.zero()
        if self.degree == 1:
            _, b = tree.paths(lambda u, j: module.act_matrix(els[u]).apply(blocks[j]),
                              _vadd, zero)
            return {els[q]: module.reduce(b[q]) for q in range(1, len(els))}
        at = [[zero if s is None else blocks[s] for s in row] for row in tree.edge]
        values = {}
        for g in range(1, len(els)):
            _, c = tree.paths(lambda u, j: at[u][j], _vadd, zero, start=g)
            for h in range(1, len(els)):
                values[(els[g], els[h])] = c[h]
        return Cocycle2(module, values)

    def generator_representatives(self):
        reps = []
        for i in range(self.group.rank):
            e_i = tuple(1 if j == i else 0 for j in range(self.group.rank))
            reps.append(self.representative(e_i))
        return reps


def _relation_cohomology(module, degree):
    """H^degree from the start of the relation sequence
    0 -> R^ab -> ZQ^X -> ZQ -> Z -> 0 of the Cayley tree (Gruenberg,
    Resolutions by relations, 1960; Brown, Cohomology of Groups, II.5).
    The cochains are M in degree 0, M^X in degree 1 (the derivation of the
    free group on X with values h at the generators) and M^S in degree 2
    (the homomorphism R^ab -> M with values f at the Schreier words S):

        d^0 m = ((x - 1) m) for x in X,
        d^1 h = the derivation of h at each Schreier word,
        d^2 f = f(y s y^-1) - y f(s) for y in X and s in S,

    so the 2-cocycles are Hom_Q(R^ab, M) and H^2 is their quotient by the
    derivations.  Unknowns grow as |Q| (|X| - 1) rank, not as the bar
    complex's (|Q| - 1)^2 rank."""
    tree = _CayleyTree(module.group)
    n, r, ns = module.rank, len(tree.gens), len(tree.schreier)
    factors = module.invariant_factors
    rho = [module.act_matrix(q).data for q in tree.elements]
    zero = module.zero()

    d0 = IntMatrix.from_rows([[x - (i == k) for k, x in enumerate(rho[tree.step[0][j]][i])]
                              for j in range(r) for i in range(n)], n)
    # d^1 column by column: the derivation with h(x_j) = e_k carries
    # rho(v) e_k across each edge (v, j)
    cols = [[tuple(row[k] for row in m) for m in rho] for k in range(n)]
    d1 = IntMatrix.from_columns(
        [tuple(x for v in tree.loops(lambda u, jj: cols[k][u] if jj == j else zero, zero)
               for x in v) for j in range(r) for k in range(n)], ns * n)

    def equivariance():
        """The rows of d^2, one per generator y, Schreier word s and
        coordinate i: y s y^-1 is rewritten over S by reading s from the
        vertex y and counting the Schreier edges it passes."""
        single = [[() if s is None else (s,) for s in row] for row in tree.edge]
        for jy in range(r):
            y = tree.step[0][jy]
            pos, path = tree.paths(lambda u, j: single[u][j], add, (), start=y)
            for s, (q, j) in enumerate(tree.schreier):
                word = Counter(path[q] + single[pos[q]][j])
                word.subtract(path[tree.step[q][j]])
                for i in range(n):
                    row = Counter({t * n + i: a for t, a in word.items() if a})
                    row.subtract({s * n + k: a for k, a in enumerate(rho[y][i]) if a})
                    yield {c: a for c, a in row.items() if a}

    if degree == 2:
        n_mid, din, dout = ns * n, d1, list(equivariance())
    else:
        n_mid, din = r * n, d0
        dout = [{c: x for c, x in enumerate(row) if x} for row in d1.data]
    # for finite coefficients each row's relation column sits beside it, so
    # the kernel is the cocycle lattice plus relation parts, and it holds
    # the relation lattice of this level (f e_c for the factor f of each
    # coordinate c), so its Hermite form can be taken modulo those factors
    ncols, moduli = n_mid, None
    if factors is not None:
        moduli = [factors[i % n] for i in range(n_mid)]
        for k, row in enumerate(dout):
            row[n_mid + k] = factors[k % n]
        ncols += len(dout)
    basis = sparse_kernel_hnf(dout, ncols, keep=n_mid, moduli=moduli)

    # coboundary lattice generators: columns of din, plus the relation
    # lattice of the middle level for finite coefficients
    imgens = [din.col(j) for j in range(din.cols)]
    if factors is not None:
        imgens += [tuple(m if c == i else 0 for c in range(n_mid))
                   for i, m in enumerate(moduli)]
    grp_h, proj, solver = _quotient(basis, imgens)
    return CohomologyGroup(module, degree, grp_h, tree, basis, proj, din, solver)


def _check_bounds(module, group_bound, rank_bound):
    if module.group.order() > group_bound:
        raise CohomologyBoundExceeded(
            "group order %d exceeds bound %d; raise group_bound "
            "(--group-order-limit of flatact h2)" % (module.group.order(), group_bound)
        )
    if module.rank > rank_bound:
        raise CohomologyBoundExceeded(
            "coefficient rank %d exceeds bound %d" % (module.rank, rank_bound)
        )


def h2(module, group_bound=DEFAULT_GROUP_BOUND, rank_bound=DEFAULT_RANK_BOUND):
    """H^2 of the group acting on the module, as Hom_Q(R^ab, M) modulo the
    derivations, R^ab the relation module of the Cayley tree; cochains in
    and out are normalized bar cochains."""
    _check_bounds(module, group_bound, rank_bound)
    return _relation_cohomology(module, 2)


def h1(module, group_bound=DEFAULT_GROUP_BOUND, rank_bound=DEFAULT_RANK_BOUND):
    """H^1, same contract shape as h2: the crossed homomorphisms, given by
    their values at the generators, modulo the principal ones (1-cochains
    are dicts element -> vector)."""
    _check_bounds(module, group_bound, rank_bound)
    return _relation_cohomology(module, 1)


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
        # t^order = 1, row r modulo factors[r] for finite coefficients
        moduli = self.factors if self.factors is not None else (0,) * n
        if any(x % f if f else x for row, f in zip((power + (-ident)).data, moduli) for x in row):
            raise CohomologyError("matrix does not have the stated order")
        tm1 = t_matrix + (-ident)
        ker_of, im_of = (tm1, norm) if degree == 2 else (norm, tm1)

        # basis of the kernel sublattice (vectors killed by ker_of, modulo
        # the relation lattice for finite coefficients)
        codomain = n if self.factors is None else FinAbGroup(self.factors)
        self.basis = kernel_basis(AbHom(n, codomain, ker_of))

        imgens = [im_of.col(j) for j in range(n)]
        if self.factors is not None:
            for i in range(n):
                v = [0] * n
                v[i] = self.factors[i]
                imgens.append(tuple(v))
        self.group, self.proj, self._solver = _quotient(self.basis, imgens)

    def class_of_vector(self, w):
        """Class coordinates of a vector in the kernel sublattice."""
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
# induced maps and image membership

class InducedMap:
    """Map between two computed cohomology groups, as a matrix between
    their invariant-factor presentations."""

    def __init__(self, source, target, matrix):
        self.source = source
        self.target = target
        self.matrix = matrix  # target.group.rank x source.group.rank

    def apply(self, coords):
        return self.target.group.reduce(self.matrix.apply(coords))


def is_equivariant(alpha_matrix, source, target, pairs):
    """Whether alpha . source(g) == target(g') . alpha for every pair
    (g, g') of `pairs`, with g acting on the module `source` and g' on
    `target`: modulo the invariant factors of a finite target, exactly on
    a lattice."""
    factors = target.invariant_factors
    for g, gt in pairs:
        diff = alpha_matrix * source.act_matrix(g) + -(target.act_matrix(gt) * alpha_matrix)
        for r, row in enumerate(diff.data):
            if any(x % factors[r] if factors is not None else x for x in row):
                return False
    return True


def induced_h2(alpha, source, target):
    """The map H^2(Q; source coefficients) -> H^2(Q; target coefficients)
    induced by an equivariant coefficient homomorphism alpha.

    Verifies that alpha is equivariant (alpha(g.x) = g.alpha(x) at the
    generators, hence on the whole group, since both sides are
    homomorphisms of it); it need not be onto, and the target may be a
    lattice.
    Source and target must be cohomology of the same group, so they share
    its Schreier words, and alpha is applied to a cocycle's value at each.
    """
    if source.module.group is not target.module.group:
        raise CohomologyError("source and target must share the same group")
    smod, tmod = source.module, target.module
    if alpha.matrix.cols != smod.rank or alpha.matrix.rows != tmod.rank:
        raise CohomologyError("alpha shape does not match the modules")
    if not is_equivariant(alpha.matrix, smod, tmod,
                          [(g, g) for g in smod.group.generators()]):
        raise CohomologyError("alpha is not equivariant")

    cols = []
    for i in range(source.group.rank):
        e_i = tuple(int(i == j) for j in range(source.group.rank))
        pushed = [alpha.apply(v) for v in source._blocks(source._lift(e_i))]
        cols.append(target._coordinates(tuple(x for v in pushed for x in v)))
    return InducedMap(source, target, IntMatrix.from_columns(cols, target.group.rank))


def is_in_image(target_coords, induced):
    """Preimage coordinates of a target class under an induced map, or
    None when the class is not in the image."""
    tgrp = induced.target.group
    sgrp = induced.source.group
    coords = tgrp.reduce(target_coords)
    pre = solve_modulo(induced.matrix, tgrp.invariant_factors, coords)
    return None if pre is None else sgrp.reduce(pre)


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
    Raises CohomologyError when A is not abelian or not normal, or when
    the identification or the section is not as above.
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

    # A is normal when G's generators conjugate the basis of A into A
    elem_of = {a_group.reduce(identification[x]): x for x in a_elements}
    basis_elems = []
    for i in range(a_group.rank):
        e_i = tuple(1 if j == i else 0 for j in range(a_group.rank))
        basis_elems.append(elem_of[a_group.reduce(e_i)])
    if any(g.conjugate(s, be) not in a_set
           for s in g.generators() for be in basis_elems):
        raise CohomologyError("A is not normal in G")

    q, proj, cosets = quotient_group(g, a_elements)
    if section is None:
        section = {i: cosets[i][0] for i in range(q.order())}
    else:
        section = dict(section)
        if set(section) != set(q.elements()):
            raise CohomologyError("section must have one value per element of Q")
        if section[q.identity()] != g.identity():
            raise CohomologyError("section must send identity to identity")
        for qe, ge in section.items():
            if proj(ge) != qe:
                raise CohomologyError("section element lies in the wrong coset")

    # conjugation action of Q on A, in a_group coordinates
    gen_mats = []
    for qg in q.generators():
        cols = [a_group.reduce(identification[g.conjugate(section[qg], be)])
                for be in basis_elems]
        gen_mats.append(IntMatrix.from_columns(cols, a_group.rank))
    module = ZQModule.finite(q, a_group, gen_mats)

    # s(q1) s(q2) and s(q1 q2) lie in one coset of A, so corr is in A
    values = {}
    for q1 in q.elements():
        for q2 in q.elements():
            if q1 == q.identity() or q2 == q.identity():
                continue
            prod = g.multiply(section[q1], section[q2])
            corr = g.multiply(prod, g.inverse(section[q.multiply(q1, q2)]))
            values[(q1, q2)] = a_group.reduce(identification[corr])
    # a cocycle by associativity in G, as A is abelian and normal
    return ExtensionData(Cocycle2(module, values), module, q, proj, section)


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
    for phi, p in prime_order_class_reps(point_group):
        norm, w = _power_terms(module, cocycle, phi, p)
        x = solve_integer(norm, tuple(-t for t in w))
        if x is not None:
            return False, (tuple(x), phi)
    return True, None


def _power_terms(module, cocycle, phi, p):
    """(N_phi, w_phi) for phi of order p: N_phi = 1 + rho(phi) + ... +
    rho(phi)^(p-1) and w_phi = sum of c(phi^i, phi) for 0 < i < p, so that
    (x, phi)^p = (N_phi x + w_phi, 1) in the extension along c."""
    rho = module.act_matrix(phi)
    norm = IntMatrix.identity(module.rank)
    power = rho
    for _ in range(p - 1):
        norm = norm + power
        power = power * rho
    w = module.zero()
    cur = phi
    for _ in range(1, p):
        w = module.add(w, cocycle.value(cur, phi))
        cur = module.group.multiply(cur, phi)
    return norm, w


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

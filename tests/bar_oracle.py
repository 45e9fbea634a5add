"""The normalized bar complex for H^1 and H^2: the oracle that the tests
check `cohomology.h1`/`h2` against, and the `bar_cohomology` family of
`benchmarks/digest_outputs.py`.

The package computes both groups over the relation module of the Cayley
graph; this is the engine it used before, kept here unchanged: its
cochains are the normalized bar cochains themselves, so its class
coordinates, representatives and witnesses are those of the pinned
goldens, and it shares only the lattice steps of `zlinalg` and the
quotient step `cohomology._quotient` with the package's engine.  Its
unknowns grow as (|Q| - 1)^2 * rank, so it is used on small groups only.
"""

from itertools import product

from flatact.cohomology import Cocycle2, CohomologyError, _quotient
from flatact.zlinalg import IntMatrix, solve_integer, solve_modulo, sparse_kernel_hnf


class BarCohomology:
    """Computed H^degree with class coordinates, representatives and
    coboundary witnesses.

    `group` is the cohomology group in invariant-factor form; class
    coordinates of a cocycle live in it.  The coordinate map kills
    exactly the coboundaries (a witness is producible whenever the class
    is zero).
    """

    def __init__(self, module, degree, group, cells_mid, cells_in,
                 basis, proj, din, solver):
        self.module = module
        self.degree = degree
        self.group = group
        self._cells_mid = cells_mid
        self._cells_in = cells_in
        self._basis = basis          # k x N_mid, rows span the cocycle lattice
        self._proj = proj            # group.rank x k
        self._din = din              # N_mid x N_in incoming differential
        self._solver = solver        # EchelonSolver of basis

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
        y = self._solver.solve(self._flatten_cochain(cochain))
        if y is None:
            raise CohomologyError("cochain is not a cocycle")
        return self.group.reduce(self._proj.apply(y))

    def coboundary_witness(self, cochain):
        """A 1-cochain (degree 2) or coefficient vector (degree 1) whose
        coboundary equals the given cocycle, or None when the class is
        nonzero."""
        v = self._flatten_cochain(cochain)
        factors = self.module.invariant_factors
        if factors is None:
            b = solve_integer(self._din, v)
        else:
            n = self.module.rank
            b = solve_modulo(self._din, [factors[i % n] for i in range(len(v))], v)
        if b is None:
            return None
        if self.degree == 2:
            return self._unflatten(b, self._cells_in)
        return self.module.reduce(tuple(b))

    def representative(self, coords):
        """A cocycle with the given class coordinates."""
        coords = self.group.reduce(coords)
        y = solve_modulo(self._proj, self.group.invariant_factors, coords)
        if y is None:
            raise CohomologyError("coordinates outside the group")
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


def bar_cohomology(module, degree):
    """H^degree of the module on the normalized bar complex."""
    grp = module.group
    n = module.rank
    els = grp.elements()
    e = grp.identity()
    nt = [x for x in els if x != e]
    idx = {x: i for i, x in enumerate(nt)}
    m = len(nt)

    # p-cells are the p-tuples of nontrivial elements, a 1-cell the element
    # itself, with (x_1, ..., x_p) at the base-m number of its indices
    def cells(p):
        return [c[0] if p == 1 else c for c in product(nt, repeat=p)]

    def at(cell):
        out = 0
        for x in cell:
            out = out * m + x
        return out

    cells_mid, cells_in = cells(degree), cells(degree - 1)
    n_mid = len(cells_mid) * n
    factors = module.invariant_factors
    prod_idx = [[idx.get(grp.multiply(g, h)) for h in nt] for g in nt]
    act_rows = [[[(j, x) for j, x in enumerate(row) if x]
                 for row in module.act_matrix(g).data] for g in nt]

    def coboundary(p, firsts):
        """Yield the sparse rows of d^p at the (p+1)-cells (g, x_1, ..., x_p)
        with g in firsts, in order, one per coefficient: row i of g's action
        matrix at the cell x, then (-1)^(p+1) at (g, x_1, ..., x_(p-1)) and
        (-1)^k at the cell with x_(k-1) x_k merged, unless that is the
        identity."""
        for g in firsts:
            for x in product(range(m), repeat=p):
                cell = (g,) + x
                units = [(at(cell[:-1]) * n, (-1) ** (p + 1))]
                for k in range(1, p + 1):
                    y = prod_idx[cell[k - 1]][cell[k]]
                    if y is not None:
                        units.append((at(cell[:k - 1] + (y,) + cell[k + 1:]) * n, (-1) ** k))
                col0 = at(x) * n
                for i in range(n):
                    row = {col0 + j: v for j, v in act_rows[g][i]}
                    for c0, sign in units:
                        c = c0 + i
                        v = row.get(c, 0) + sign
                        if v:
                            row[c] = v
                        else:
                            del row[c]
                    yield row

    # outgoing differential: for finite coefficients each row's relation
    # column sits beside it, so the kernel is the cocycle lattice plus
    # relation parts.  Only cells whose g is a group generator get rows:
    # the cocycle identity at (g, h, k) says that elements over g
    # associate on the left in the extension M x Q with product
    # (m, g)(m', h) = (m + g m' + c(g, h), gh), and left-associating
    # elements are closed under products, so the identity at the
    # generators implies it everywhere (likewise, a crossed homomorphism
    # condition at the generators makes q -> (b(q), q) multiplicative).
    # The lattice is therefore the same as with all cells.
    gens = sorted({idx[s] for s in grp.generators() if s != e})
    dout = list(coboundary(degree, gens))
    if factors is not None:
        for r, row in enumerate(dout):
            row[n_mid + r] = factors[r % n]

    # pivots in breadth-first order over the Cayley graph: a non-generator
    # x is s h with s a generator and h nearer the identity, and the rows
    # of the cells (s, h, ...) hold the x-columns in a -identity block while
    # their other columns are generator columns or solved already.  So
    # every solved column is a sum of action matrices applied to generator
    # columns, and entries stay as small as the action's.
    pivots = []
    tail = m ** (degree - 1)        # the cells (h, ...) of one h
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
                pivots += [(((gi * m + h) * tail + k) * n + i, (x * tail + k) * n + i)
                           for k in range(tail) for i in range(n)]
        frontier = nxt

    # cocycle lattice: integer vectors whose differential lies in the
    # relation lattice of the next level.  For finite coefficients it holds
    # the relation lattice of this level (f e_c for the factor f of each
    # coordinate c), so its Hermite form can be taken modulo those factors.
    ncols = n_mid + (len(dout) if factors is not None else 0)
    moduli = None if factors is None else [factors[i % n] for i in range(n_mid)]
    basis = sparse_kernel_hnf(dout, ncols, pivots, keep=n_mid, moduli=moduli)

    # incoming differential, dense, at every cell
    n_in = len(cells_in) * n
    din = [[0] * n_in for _ in range(n_mid)]
    for drow, row in zip(din, coboundary(degree - 1, range(m))):
        for c, v in row.items():
            drow[c] = v
    din = IntMatrix.from_rows(din, n_in)

    # coboundary lattice generators: columns of din, plus the relation
    # lattice of the middle level for finite coefficients
    imgens = list(zip(*din.data))
    if factors is not None:
        for i in range(n_mid):
            v = [0] * n_mid
            v[i] = moduli[i]
            imgens.append(tuple(v))

    grp_h, proj, solver = _quotient(basis, imgens)
    return BarCohomology(module, degree, grp_h, cells_mid, cells_in,
                         basis, proj, din, solver)

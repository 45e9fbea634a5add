"""Exact integer linear algebra: normal forms and abelian-group helpers."""

import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hnf_oracle

from flatact.zlinalg import (AbHom, EchelonSolver, FinAbGroup, IntMatrix,
                             ZLinAlgError, _hnf_modulo, cokernel,
                             hermite_normal_form,
                             kernel_basis, kernel_basis_of_matrix,
                             smith_normal_form, solve_integer, solve_modulo,
                             sparse_kernel_hnf)


def _mat(rows):
    return IntMatrix.from_rows(rows)


def hermite_index(basis, n):
    """The index in Z^n of the lattice spanned by the rows of `basis`, a
    Hermite normal form with no zero rows: the product of its diagonal, or
    None when its rank is below n."""
    assert basis.data == hermite_normal_form(basis)[0].data and basis.cols == n
    assert all(map(any, basis.data))
    if basis.rows < n:
        return None
    return math.prod(basis[i, i] for i in range(n))


matrices = st.integers(1, 6).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-20, 20), min_size=c, max_size=c),
            min_size=r, max_size=r)))


class TestIntMatrix:
    def test_construction_and_indexing(self):
        m = _mat([[1, 2], [3, 4]])
        assert (m.rows, m.cols) == (2, 2)
        assert m[1, 0] == 3
        assert m.transpose()[0, 1] == 3

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ZLinAlgError):
            IntMatrix(2, 2, ((1, 2), (3,)))

    def test_mul_identity(self):
        m = _mat([[2, -1], [7, 5]])
        assert m * IntMatrix.identity(2) == m

    def test_det_matches_cofactor_expansion(self):
        m = _mat([[2, -1, 0], [1, 3, 4], [0, 5, -2]])
        # cofactor oracle
        a = m.data
        oracle = (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
                  - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
                  + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))
        assert m.det() == oracle

    def test_text_roundtrip(self):
        m = _mat([[1, -2, 3], [0, 7, -9]])
        assert IntMatrix.from_text(m.to_text()) == m

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_text_roundtrip(self, shape):
        m = IntMatrix.zero(*shape)
        back = IntMatrix.from_text(m.to_text())
        assert back == m and (back.rows, back.cols) == shape

    @pytest.mark.parametrize("rows,cols", [(-1, 0), (0, -3), (-2, -3), (-1, 2)])
    def test_negative_size_rejected(self, rows, cols):
        with pytest.raises(ZLinAlgError, match="is negative"):
            IntMatrix(rows, cols, ())
        entries = " 1" * abs(rows * cols)
        with pytest.raises(ZLinAlgError, match="is negative"):
            IntMatrix.from_text("%d %d%s" % (rows, cols, entries))

    def test_column_count_without_rows(self):
        assert IntMatrix.from_rows([], 3) == IntMatrix.zero(0, 3)
        assert IntMatrix.from_rows([]) == IntMatrix.zero(0, 0)
        with pytest.raises(ZLinAlgError):
            IntMatrix.from_rows([[1, 2]], 3)

    def test_from_columns(self):
        assert IntMatrix.from_columns([(1, 3), (2, 4)], 2) == _mat([[1, 2], [3, 4]])
        assert IntMatrix.from_columns([], 3) == IntMatrix.zero(3, 0)
        assert IntMatrix.from_columns([(), ()], 0) == IntMatrix.zero(0, 2)
        with pytest.raises(ZLinAlgError):
            IntMatrix.from_columns([(1, 2)], 3)
        assert IntMatrix.zero(0, 3).transpose() == IntMatrix.zero(3, 0)

    def test_unimodular(self):
        assert IntMatrix.from_rows([[2, 1], [1, 1]]).is_unimodular()
        assert not IntMatrix.from_rows([[2, 0], [0, 1]]).is_unimodular()


class TestSmith:
    @given(matrices)
    @settings(max_examples=200, deadline=None)
    def test_decomposition_properties(self, rows):
        m = _mat(rows)
        snf = smith_normal_form(m)
        assert snf.u * m * snf.v == snf.d
        assert snf.u.is_unimodular() and snf.v.is_unimodular()
        diag = snf.diagonal
        for i in range(len(diag) - 1):
            if diag[i + 1] != 0:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
            assert diag[i] >= 0
        # off-diagonal zero
        for i in range(snf.d.rows):
            for j in range(snf.d.cols):
                if i != j:
                    assert snf.d[i, j] == 0
        if m.rows == m.cols:
            assert abs(m.det()) == abs(math.prod(diag))

    def test_known_example(self):
        snf = smith_normal_form(_mat([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]))
        assert snf.diagonal == (2, 2, 156)


def _seeded_matrices():
    rng = random.Random(2024)
    for _ in range(300):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        span = rng.choice([1, 2, 5, 30])
        density = rng.choice([0.3, 0.6, 1.0])
        yield _mat([[rng.randint(-span, span) if rng.random() < density else 0
                     for _ in range(c)] for _ in range(r)])


def is_hermite(rows):
    """Whether `rows` are a Hermite normal form: zero rows last, the
    pivots (first nonzero entries) positive and strictly to the right of
    the one above, and the entries above each pivot in [0, pivot)."""
    pivots = [next((j for j, x in enumerate(r) if x), None) for r in rows]
    nonzero = [p for p in pivots if p is not None]
    if pivots[:len(nonzero)] != nonzero or nonzero != sorted(set(nonzero)):
        return False
    return all(r[p] > 0 and all(0 <= a[p] < r[p] for a in rows[:i])
               for i, (r, p) in enumerate(zip(rows, nonzero)))


def test_normal_forms_and_transforms_as_recorded():
    # The Smith transforms are not unique, and H^2 class coordinates are
    # read off the Smith transform of the cokernel, so its elimination
    # order is part of the contract; its digest was recorded before the
    # sparse row updates.  The Hermite transform is unique, [h | u] being
    # the Hermite form of [m | I], and h is the gcd sweep's.
    snf_digest, hnf_digest = hashlib.sha256(), hashlib.sha256()
    for m in _seeded_matrices():
        snf = smith_normal_form(m)
        snf_digest.update(repr((snf.d.data, snf.u.data, snf.v.data)).encode())
        h, u = hermite_normal_form(m)
        hnf_digest.update(repr((h.data, u.data)).encode())
        assert h == hnf_oracle.hermite_normal_form(m)[0]
        assert is_hermite([a + b for a, b in zip(h.data, u.data)])
    assert snf_digest.hexdigest()[:16] == "9207825b312b665a"
    assert hnf_digest.hexdigest()[:16] == "b83a86f7812d20ab"


def test_hermite_form_is_the_gcd_sweeps_on_criterion_07():
    for m in hnf_oracle.criterion_07_matrices():
        assert hermite_normal_form(m)[0] == hnf_oracle.hermite_normal_form(m)[0]


def test_hermite_transform_stays_small_on_criterion_07():
    # the gcd sweep's transforms reach thousands of bits on these
    bits = max(abs(x).bit_length() for m in hnf_oracle.criterion_07_matrices()
               for r in hermite_normal_form(m)[1].data for x in r)
    assert bits < 64


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_normal_forms_keep_the_shape_of_an_empty_matrix(shape):
    m = IntMatrix.zero(*shape)
    snf = smith_normal_form(m)
    assert (snf.d.rows, snf.d.cols) == shape
    assert snf.u * m * snf.v == snf.d
    assert snf.u == IntMatrix.identity(shape[0]) and snf.v == IntMatrix.identity(shape[1])
    h, u = hermite_normal_form(m)
    assert (h.rows, h.cols) == shape
    assert u * m == h


class TestHermite:
    @given(matrices)
    @settings(max_examples=200, deadline=None)
    def test_hnf_properties(self, rows):
        m = _mat(rows)
        h, u = hermite_normal_form(m)
        assert u.is_unimodular()
        assert u * m == h
        assert is_hermite(h.data) and is_hermite([a + b for a, b in zip(h.data, u.data)])
        assert h == hnf_oracle.hermite_normal_form(m)[0]


class TestSolvers:
    @given(matrices, st.lists(st.integers(-10, 10), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_solve_integer_verifies(self, rows, x):
        m = _mat(rows)
        x = (x * m.cols)[: m.cols]
        b = m.apply(x)
        sol = solve_integer(m, b)
        assert sol is not None
        assert list(m.apply(sol)) == list(b)

    def test_solve_unsolvable(self):
        assert solve_integer(_mat([[2, 0], [0, 2]]), (1, 0)) is None

    def test_solve_modulo(self):
        a = _mat([[2, 1], [3, 0]])
        x = solve_modulo(a, (4, 9), (3, 6))
        assert len(x) == 2
        assert [(v - b) % f for v, b, f in zip(a.apply(x), (3, 6), (4, 9))] == [0, 0]
        # 2x = 1 has no solution modulo 4, nor 3x = 1 modulo 9
        assert solve_modulo(_mat([[2]]), (4,), (1,)) is None
        assert solve_modulo(_mat([[3, 6]]), (9,), (1,)) is None
        # no columns: solvable exactly when b is zero modulo the factors
        assert solve_modulo(IntMatrix.zero(2, 0), (2, 3), (4, -6)) == ()
        assert solve_modulo(IntMatrix.zero(2, 0), (2, 3), (1, 0)) is None

    @given(matrices)
    @settings(max_examples=100, deadline=None)
    def test_kernel_annihilates(self, rows):
        m = _mat(rows)
        k = kernel_basis_of_matrix(m)
        assert is_hermite(k.data)
        for row in k.data:
            assert not any(m.apply(row))
        # rank-nullity
        assert k.rows == m.cols - smith_normal_form(m).rank


class TestFinAbGroup:
    def test_requires_divisibility_chain(self):
        assert FinAbGroup.of(2, 6).invariant_factors == (2, 6)
        with pytest.raises(ZLinAlgError):
            FinAbGroup.of(2, 3)
        with pytest.raises(ZLinAlgError):
            FinAbGroup.of(1)

    def test_order_and_element_order(self):
        g = FinAbGroup.of(2, 4)
        assert g.order == 8
        assert g.element_order((1, 0)) == 2
        assert g.element_order((0, 1)) == 4
        assert g.element_order(g.zero()) == 1

    def test_arithmetic(self):
        g = FinAbGroup.of(5)
        assert g.add((3,), (4,)) == (2,)
        assert g.sub(g.zero(), (2,)) == (3,)

    def test_elements_count(self):
        g = FinAbGroup.of(2, 6)
        els = list(g.elements())
        assert len(els) == 12
        assert len(set(els)) == 12


class TestAbHomCokernel:
    def test_mod2_reduction_surjective(self):
        f = AbHom(2, FinAbGroup.of(2), _mat([[1, 1]]))
        assert f.is_surjective()
        assert f.apply((1, 1)) == (0,)

    def test_cokernel_of_multiplication(self):
        # Z^2 --diag(2,3)--> Z^2 has cokernel Z/6 (invariant-factor form)
        f = AbHom(2, 2, _mat([[2, 0], [0, 3]]))
        (grp, free_rank), _ = cokernel(f)
        assert free_rank == 0
        assert grp.invariant_factors == (6,)

    def test_kernel_basis_of_mod2(self):
        f = AbHom(2, FinAbGroup.of(2), _mat([[1, 1]]))
        k = kernel_basis(f)
        assert hermite_index(k, 2) == 2

    @pytest.mark.parametrize("codomain", [None, (2,), (3,), (2, 4), (2, 2, 6)],
                             ids=["lattice", "Z2", "Z3", "Z2xZ4", "Z2xZ2xZ6"])
    def test_kernel_basis_of_seeded_maps(self, codomain):
        """Every row maps to zero, the rows are a Hermite form, and every
        small kernel vector is in their span; for a finite codomain the
        index of the kernel is the order of the image, counted."""
        rng = random.Random(repr(codomain))
        for _ in range(40):
            n = rng.randrange(1, 4)
            rows = rng.randrange(1, 3) if codomain is None else len(codomain)
            mat = _mat([[rng.randrange(-4, 5) for _ in range(n)] for _ in range(rows)])
            factors = codomain or (0,) * rows
            f = AbHom(n, FinAbGroup(codomain) if codomain else rows, mat)
            k = kernel_basis(f)
            assert k.cols == n
            for row in k.data:
                assert all((x % q if q else x) == 0 for x, q in zip(mat.apply(row), factors))
            assert k.data == hermite_normal_form(k)[0].data and all(any(r) for r in k.data)
            # small box: [-2, 2]^n for a lattice, one period per coordinate
            # (Z^n maps onto the image through it) for a finite codomain
            span = range(-2, 3) if codomain is None else range(max(codomain))
            solver = EchelonSolver(k) if k.rows else None
            images = set()
            for x in itertools.product(span, repeat=n):
                y = mat.apply(x)
                images.add(tuple(v % q if q else v for v, q in zip(y, factors)))
                if all((v % q if q else v) == 0 for v, q in zip(y, factors)) and any(x):
                    assert solver is not None and solver.solve(x) is not None
            if codomain is not None:
                assert hermite_index(k, n) == len(images)


def _hnf_rows(m):
    return [r for r in hermite_normal_form(m)[0].data if any(r)]


def _sparse(m):
    return [{c: x for c, x in enumerate(row) if x} for row in m.data]


def _sparse_matrices(entries):
    """Matrices with entries from `entries`, optionally with a zero row, a
    zero column and a relation column (a factor >= 2) beside every row."""
    return st.tuples(
        st.integers(0, 7).flatmap(lambda r: st.integers(1, 7).flatmap(
            lambda c: st.lists(st.lists(entries, min_size=c, max_size=c),
                               min_size=r, max_size=r))),
        st.booleans(), st.booleans(),
        st.one_of(st.none(), st.lists(st.integers(2, 6), min_size=7, max_size=7)))


def _assemble(rows, zero_row, zero_col, relations):
    cols = len(rows[0]) if rows else 3
    rows = [list(r) for r in rows] or [[0] * cols]
    if zero_row:
        rows.insert(len(rows) // 2, [0] * cols)
    if zero_col:
        rows = [r[:1] + [0] + r[1:] for r in rows]
    if relations is not None:
        rows = [r + [relations[i % 7] if j == i else 0 for j in range(len(rows))]
                for i, r in enumerate(rows)]
    return _mat(rows)


with_units = st.sampled_from([0, 0, 0, 1, -1, 1, 2, -2, 3, -5])
without_units = st.sampled_from([0, 0, 0, 2, -2, 3, -3, 4, 6, -9])


class TestSparseKernel:
    @given(st.one_of(_sparse_matrices(with_units), _sparse_matrices(without_units)))
    @settings(max_examples=300, deadline=None)
    def test_same_hnf_as_dense_kernel(self, parts):
        m = _assemble(*parts)
        dense = kernel_basis_of_matrix(m)
        want = _hnf_rows(dense) if dense.rows else []
        assert list(sparse_kernel_hnf(_sparse(m), m.cols).data) == want
        # the relation columns dropped, as for finite coefficients
        keep = len(parts[0][0]) + parts[2] if parts[0] else m.cols
        cut = [row[:keep] for row in dense.data]
        want = _hnf_rows(_mat(cut)) if cut else []
        got = sparse_kernel_hnf(_sparse(m), m.cols, keep=keep)
        assert got.cols == keep and list(got.data) == want

    @given(_sparse_matrices(with_units), _sparse_matrices(without_units),
           st.integers(2, 6))
    @settings(max_examples=150, deadline=None)
    def test_moduli_give_the_same_hnf(self, with_u, without_u, f):
        # one relation factor f for every row: f e_c is in the cut lattice
        for rows, zero_row, zero_col, _ in (with_u, without_u):
            m = _assemble(rows, zero_row, zero_col, [f] * 7)
            keep = m.cols - m.rows
            want = sparse_kernel_hnf(_sparse(m), m.cols, keep=keep)
            got = sparse_kernel_hnf(_sparse(m), m.cols, keep=keep, moduli=[f] * keep)
            assert got == want

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.integers(-30, 30), min_size=n, max_size=n), max_size=6),
        st.lists(st.integers(1, 12), min_size=n, max_size=n))))
    @settings(max_examples=300, deadline=None)
    def test_hnf_modulo_matches_hermite_normal_form(self, parts):
        rows, moduli = parts
        n = len(moduli)
        full = list(rows) + [[f if j == c else 0 for j in range(n)]
                             for c, f in enumerate(moduli)]
        assert [tuple(r) for r in _hnf_modulo(rows, moduli)] == _hnf_rows(_mat(full))

    def test_no_rows_gives_every_unit_vector(self):
        assert sparse_kernel_hnf([], 3).data == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_full_rank_has_empty_kernel(self):
        k = sparse_kernel_hnf([{0: 1, 1: 2}, {1: 1}], 2)
        assert (k.rows, k.cols) == (0, 2)


class TestEchelonSolver:
    @given(matrices, st.lists(st.integers(-10, 10), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_unique_solution_on_hnf_rows(self, rows, y):
        rows = _hnf_rows(_mat(rows))
        if not rows:
            return
        h = _mat(rows)
        y = tuple((y * h.rows)[:h.rows])
        b = h.transpose().apply(y)
        assert EchelonSolver(h).solve(b) == y
        snf_solution = solve_integer(h.transpose(), b)
        assert tuple(snf_solution) == y

    def test_outside_the_lattice(self):
        solver = EchelonSolver(_mat([[2, 1, 0], [0, 0, 3]]))
        assert solver.solve((1, 0, 0)) is None      # pivot does not divide
        assert solver.solve((2, 0, 0)) is None      # nonzero residual
        assert solver.solve((4, 2, -3)) == (2, -1)

    def test_rejects_non_echelon_rows(self):
        with pytest.raises(ZLinAlgError):
            EchelonSolver(_mat([[0, 1], [1, 0]]))
        with pytest.raises(ZLinAlgError):
            EchelonSolver(_mat([[1, 0], [0, 0]]))
        with pytest.raises(ZLinAlgError):
            EchelonSolver(_mat([[1, 0]])).solve((1, 0, 0))

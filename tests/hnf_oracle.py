"""The gcd-sweep Hermite normal form: the oracle that the tests check
`zlinalg.hermite_normal_form` against, and the matrices of acceptance
criterion 7, on which they compare.

The package builds the Hermite form of [M | I] by inserting rows one at a
time; this is the elimination it used before, kept here unchanged.  It
sweeps each column with the least nonzero entry as pivot and carries the
transform u along without reducing it, so u is one of many and its
entries can run to thousands of bits; its h is the Hermite form of M,
which is unique, so the two must give the same h on every matrix.
"""

import random

from flatact.zlinalg import IntMatrix


def criterion_07_matrices():
    """The 10,000 matrices of the SNF/HNF property suite, acceptance
    criterion 7: seed 7, 1 to 8 rows and columns, entries in [-20, 20]."""
    rng = random.Random(7)
    for _ in range(10_000):
        rows = rng.randrange(1, 9)
        cols = rng.randrange(1, 9)
        yield IntMatrix.from_rows([[rng.randrange(-20, 21) for _ in range(cols)]
                                   for _ in range(rows)])


def hermite_normal_form(mat):
    """Row-style Hermite normal form: returns (h, u) with u unimodular,
    u * mat = h, h in echelon form with positive pivots and entries above
    each pivot reduced into [0, pivot)."""
    rows, cols = mat.rows, mat.cols
    m = [list(r) for r in mat.data]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]

    def nonzeros(k):
        """The nonzero entries of row k of m and of u."""
        return [(a, [(j, b) for j, b in enumerate(a[k]) if b]) for a in (m, u)]

    def sub(i, src, q):
        """Row i -= q * the row whose nonzero entries are src."""
        for a, nz in src:
            dst = a[i]
            for j, b in nz:
                dst[j] -= q * b

    r = 0
    for c in range(cols):
        # gcd sweep on column c below row r
        piv = None
        for i in range(r, rows):
            if m[i][c] != 0 and (piv is None or abs(m[i][c]) < abs(m[piv][c])):
                piv = i
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        u[r], u[piv] = u[piv], u[r]
        while True:
            done = True
            src = None
            for i in range(r + 1, rows):
                if m[i][c] != 0:
                    if src is None:
                        src = nonzeros(r)
                    sub(i, src, m[i][c] // m[r][c])
                    if m[i][c] != 0:
                        m[r], m[i] = m[i], m[r]
                        u[r], u[i] = u[i], u[r]
                        src = None
                        done = False
            if done:
                break
        if m[r][c] < 0:
            m[r] = [-a for a in m[r]]
            u[r] = [-a for a in u[r]]
        src = None
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q != 0:
                if src is None:
                    src = nonzeros(r)
                sub(i, src, q)
        r += 1
        if r == rows:
            break
    return (IntMatrix(rows, cols, tuple(map(tuple, m))),
            IntMatrix(rows, rows, tuple(map(tuple, u))))

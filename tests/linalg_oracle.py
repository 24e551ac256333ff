"""Dense linear algebra that only the tests use.

`ppcat.linalg` keeps what the program runs.  This module holds the dense
helpers the tests build their references from: row vector times matrix,
stacking, RREF and rank, one-shot solving, the Zassenhaus intersection, the
commuting-square equations as dense int rows, and the trace-form radical
iterated to stability, which `rep.endo_radical` replaced by one kernel.
"""

from __future__ import annotations

from ppcat.errors import DimensionMismatch
from ppcat.linalg import (
    Matrix, Solver, Subspace, kernel, rref_with_pivots, sparse_commuting_equations, sparse_squares,
)


def row_apply(vec, m: Matrix):
    """Row vector times matrix (one loop per field, as in `Matrix.mul`)."""
    if len(vec) != m.rows:
        raise DimensionMismatch("row vector length %d, expected %d" % (len(vec), m.rows))
    F, n, ents = m.field, m.cols, m.entries
    p = F.char
    out = [0 if p else F.zero()] * n
    for i, v in enumerate(vec):
        if v:
            for j, x in enumerate(ents[i * n:(i + 1) * n]):
                if x:
                    out[j] += v * x
    return tuple(x % p for x in out) if p else tuple(out)


def vstack(mats):
    mats = list(mats)
    F = mats[0].field
    cols = mats[0].cols
    ents = []
    rows = 0
    for m in mats:
        if m.cols != cols:
            raise DimensionMismatch("vstack column mismatch")
        ents.extend(m.entries)
        rows += m.rows
    return Matrix(F, rows, cols, tuple(ents))


def rref(m: Matrix) -> Matrix:
    return rref_with_pivots(m)[0]


def rank(m: Matrix) -> int:
    return len(rref_with_pivots(m)[1])


def solve(m: Matrix, target):
    """One solution x of m x = target, or None: the one with every free
    variable zero."""
    return Solver(m).solve(target)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: rows [A|A] over [B|0]; rows with zero left half span the meet."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions %d and %d" % (a.ambient_dim, b.ambient_dim))
    F, n = a.field, a.ambient_dim
    rows = [tuple(r) + tuple(r) for r in a.basis_rows()]
    rows += [tuple(r) + (F.zero(),) * n for r in b.basis_rows()]
    if not rows:
        return Subspace.zero(F, n)
    red, pivots = rref_with_pivots(Matrix.from_rows(F, rows))
    out = []
    for i in range(len(pivots)):
        row = red.row(i)
        if all(F.is_zero(x) for x in row[:n]):
            out.append(row[n:])
    return Subspace.from_vectors(F, n, out)


def commuting_equations(field, shapes, squares):
    """The rows of the linear system X_t P = Q X_s, one square (s, t, P, Q)
    of dense matrices after another, as dense lists of ints: the rows of
    `sparse_commuting_equations` on the `sparse_squares`, densified."""
    total = sum(r * c for r, c in shapes)
    rows = []
    for eq in sparse_commuting_equations(field, shapes, sparse_squares(shapes, squares)):
        row = [0] * total
        for j, x in eq.items():
            row[j] = x
        rows.append(row)
    return rows


def trace_form_radical(gram: Matrix) -> Subspace:
    """The radical of an algebra in coordinates, from the Gram matrix
    gram[i][j] = trace(b_i b_j) of a faithful action of its basis: the
    kernel of the trace form, then the kernel of the form restricted to
    that, and so on until it stops shrinking.  The characteristic must be 0
    or exceed the dimension acted on."""
    F, d = gram.field, gram.rows
    current = Subspace.full(F, d)
    while True:
        rows = current.basis_rows()
        if not rows:
            return current
        b = Matrix.from_rows(F, rows)
        form = b.mul(gram).mul(b.transpose())
        nxt = Subspace.from_vectors(F, d, [row_apply(v, b) for v in kernel(form).basis_rows()])
        if nxt.dim == current.dim:
            return nxt
        current = nxt

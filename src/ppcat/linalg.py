"""Exact linear algebra: matrices, canonical subspaces, quotient spaces.

Matrices are immutable, row-major, over one of the fields from `scalars`.
A Subspace stores the unique reduced row-echelon basis of its row space, so
two subspaces are equal iff their stored bases are identical.

All elimination (rref, rank, kernel, Solver and solve, intersect,
Subspace.from_vectors) goes through `rref_with_pivots`, which runs one row
kernel per field, chosen by the characteristic, with no scalar call through
the field object:

- over Q, fraction-free Gauss-Jordan on primitive integer rows, in the
  spirit of Bareiss (1968); each output entry becomes a `Fraction` once;
- over F_p, Gauss-Jordan on rows of plain ints reduced mod p.

Both do no arithmetic on a row whose pivot-column entry is zero, and
subtract only on the pivot row's nonzero columns.  The output is the
canonical RREF, identical to textbook Gauss-Jordan in the field's own
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm

from .errors import DimensionMismatch, NotASubspace


@dataclass(frozen=True)
class Matrix:
    field: object
    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                "entry count %d does not match %dx%d" % (len(self.entries), self.rows, self.cols)
            )

    @classmethod
    def from_rows(cls, field, rows):
        rows = [list(r) for r in rows]
        n = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != n:
                raise DimensionMismatch("ragged rows")
        return cls(field, len(rows), n, tuple(x for r in rows for x in r))

    @classmethod
    def zero(cls, field, rows, cols):
        return cls(field, rows, cols, (field.zero(),) * (rows * cols))

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero(), field.one()
        return cls(field, n, n, tuple(o if i == j else z for i in range(n) for j in range(n)))

    def at(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def transpose(self):
        return Matrix(self.field, self.cols, self.rows,
                      tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)))

    def is_zero(self):
        F = self.field
        return all(F.is_zero(x) for x in self.entries)

    # add, sub, neg and scale run one loop per field, with the operators the
    # field's own methods use: plain ints reduced once per entry over F_p, the
    # values' own operators over Q (so entries keep their values and types)

    def add(self, other):
        self._check_shape(other)
        p, pairs = self.field.char, zip(self.entries, other.entries)
        ents = tuple((a + b) % p for a, b in pairs) if p else tuple(a + b for a, b in pairs)
        return Matrix(self.field, self.rows, self.cols, ents)

    def sub(self, other):
        self._check_shape(other)
        p, pairs = self.field.char, zip(self.entries, other.entries)
        ents = tuple((a - b) % p for a, b in pairs) if p else tuple(a - b for a, b in pairs)
        return Matrix(self.field, self.rows, self.cols, ents)

    def neg(self):
        p = self.field.char
        ents = tuple(-a % p for a in self.entries) if p else tuple(-a for a in self.entries)
        return Matrix(self.field, self.rows, self.cols, ents)

    def scale(self, c):
        p = self.field.char
        ents = tuple(c * a % p for a in self.entries) if p \
            else tuple(c * a for a in self.entries)
        return Matrix(self.field, self.rows, self.cols, ents)

    def mul(self, other):
        """The product, with one loop per field: over F_p the row sums are plain
        ints reduced once per entry, over Q the `Fraction` operators are called
        directly; zero entries of either factor cost nothing."""
        if self.cols != other.rows:
            raise DimensionMismatch("matrix product %dx%d by %dx%d"
                                    % (self.rows, self.cols, other.rows, other.cols))
        F, n, m = self.field, self.cols, other.cols
        ents, oents = self.entries, other.entries
        b = [[(j, x) for j, x in enumerate(oents[k * m:(k + 1) * m]) if x] for k in range(n)]
        p = F.char
        zero = 0 if p else F.zero()
        out = []
        for i in range(self.rows):
            row = [zero] * m
            for c, bk in zip(ents[i * n:(i + 1) * n], b):
                if c:
                    for j, x in bk:
                        row[j] += c * x
            out.extend([x % p for x in row] if p else row)
        return Matrix(F, self.rows, m, tuple(out))

    def apply(self, vec):
        """Matrix times column vector, given and returned as a flat tuple (one
        loop per field, as in `mul`)."""
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length %d, expected %d" % (len(vec), self.cols))
        F, n = self.field, self.cols
        p = F.char
        zero = 0 if p else F.zero()
        nonzero = [(j, v) for j, v in enumerate(vec) if v]
        out = []
        for i in range(self.rows):
            row = self.entries[i * n:(i + 1) * n]
            s = zero
            for j, v in nonzero:
                s += row[j] * v
            out.append(s % p if p else s)
        return tuple(out)

    def _check_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("shape mismatch")

    def __str__(self):
        F = self.field
        return "[" + ", ".join(
            "[" + ", ".join(F.to_str(x) for x in self.row(i)) + "]" for i in range(self.rows)
        ) + "]"


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


def _offsets(sizes):
    out, total = [], 0
    for n in sizes:
        out.append(total)
        total += n
    return out, total


def block_matrix(field, blocks, row_dims, col_dims) -> Matrix:
    """The matrix cut into row_dims x col_dims blocks, with blocks[(i, j)] as
    block (i, j) and zeros wherever no block is given."""
    row_off, nrows = _offsets(row_dims)
    col_off, ncols = _offsets(col_dims)
    ents = [[field.zero()] * ncols for _ in range(nrows)]
    for (bi, bj), b in blocks.items():
        if b.rows != row_dims[bi] or b.cols != col_dims[bj]:
            raise DimensionMismatch("block (%d, %d) is %dx%d, expected %dx%d"
                                    % (bi, bj, b.rows, b.cols, row_dims[bi], col_dims[bj]))
        ro, co = row_off[bi], col_off[bj]
        for i in range(b.rows):
            ents[ro + i][co:co + b.cols] = b.row(i)
    return Matrix(field, nrows, ncols, tuple(chain.from_iterable(ents)))


def rref_with_pivots(m: Matrix):
    """Reduced row echelon form and the list of pivot columns."""
    n, ents = m.cols, m.entries
    if not ents:
        return m, []
    a = [ents[k:k + n] for k in range(0, len(ents), n)]
    char = m.field.char
    pivots = _gauss_jordan_mod_p(a, n, char) if char else _gauss_jordan_q(a, n)
    return Matrix(m.field, m.rows, n, tuple(chain.from_iterable(a))), pivots


def _gauss_jordan_mod_p(a, ncols, p):
    """Reduce the int rows `a` to RREF over F_p in place (each becomes a list);
    return the pivot columns."""
    nrows = len(a)
    for i, row in enumerate(a):
        a[i] = [x % p for x in row]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        for i in range(r, nrows):
            if a[i][c]:
                break
        else:
            continue
        prow = a[i]
        a[i] = a[r]
        inv = pow(prow[c], p - 2, p)
        if inv != 1:
            prow = [x * inv % p for x in prow]
        a[r] = prow
        # columns left of c are zero in every row from r down
        nz = [j for j in range(c, ncols) if prow[j]]
        for i, row in enumerate(a):
            f = row[c]
            if f and i != r:
                for j in nz:
                    row[j] = (row[j] - f * prow[j]) % p
        pivots.append(c)
        if r + 1 == nrows:
            break
    return pivots


def _gauss_jordan_q(a, ncols):
    """Reduce the rational rows `a` to RREF in place (each becomes a list of
    Fractions); return the pivot columns.

    Each row is scaled to a primitive integer vector, and elimination runs on
    ints: a row with entry f in the pivot column becomes
    (piv/g)*row - (f/g)*pivot_row, with g = gcd(piv, f), and is then divided
    by its content.  A row is thus always the primitive multiple of a
    canonical rational vector, so entries stay as small as the data allows.
    Once a column is a pivot column it is dropped from every row, and the
    pivot row keeps its entry there in `heads`: later scalings then touch
    only the columns still in play.  Fractions are built once, at the end.
    """
    nrows = len(a)
    for i, row in enumerate(a):
        d = lcm(*[x.denominator for x in row])
        if d == 1:
            row = [x.numerator for x in row]
        else:
            row = [x.numerator * (d // x.denominator) for x in row]
        g = gcd(*row)
        a[i] = row if g < 2 else [x // g for x in row]
    pivots = []
    heads = []
    for c in range(ncols):
        r = len(pivots)
        pos = c - r  # where column c sits once the r pivot columns are dropped
        candidates = [i for i in range(r, nrows) if a[i][pos]]
        if not candidates:
            continue
        # the smallest pivot, made positive, spares most rows the scaling
        i = min(candidates, key=lambda i: abs(a[i][pos]))
        prow = a[i]
        a[i] = a[r]
        if prow[pos] < 0:
            prow = [-x for x in prow]
        a[r] = prow
        piv = prow.pop(pos)
        nz = [j for j in range(pos, len(prow)) if prow[j]]
        for i, row in enumerate(a):
            if i == r:
                continue
            f = row.pop(pos)
            if not f:
                continue
            g = gcd(piv, f)
            f //= g
            if g == piv:
                for j in nz:
                    row[j] -= f * prow[j]
            else:
                s = piv // g
                row = [s * x - f * y for x, y in zip(row, prow)]
                if i < r:
                    heads[i] *= s
            g = gcd(heads[i], *row) if i < r else gcd(*row)
            if g > 1:
                row = [x // g for x in row]
                if i < r:
                    heads[i] //= g
            a[i] = row
        pivots.append(c)
        heads.append(piv)
        if r + 1 == nrows:
            break
    zero, one = Fraction(0), Fraction(1)
    taken = set(pivots)
    free = [j for j in range(ncols) if j not in taken]
    for i, row in enumerate(a):
        out = [zero] * ncols
        if i < len(pivots):
            out[pivots[i]] = one
            h = heads[i]
            for j, x in zip(free, row):
                if x:
                    out[j] = Fraction(x, h)
        a[i] = out
    return pivots


def rref(m: Matrix) -> Matrix:
    return rref_with_pivots(m)[0]


def rank(m: Matrix) -> int:
    return len(rref_with_pivots(m)[1])


@dataclass(frozen=True)
class Subspace:
    """A subspace of F^n, stored as the canonical RREF basis of row vectors."""

    ambient_dim: int
    basis: Matrix  # rows form an RREF basis; rows == dim

    @classmethod
    def from_vectors(cls, field, ambient_dim, vectors):
        vectors = [tuple(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionMismatch("vector length %d, ambient %d" % (len(v), ambient_dim))
        if not vectors:
            return cls(ambient_dim, Matrix(field, 0, ambient_dim, ()))
        m = Matrix.from_rows(field, vectors)
        red, pivots = rref_with_pivots(m)
        rows = [red.row(i) for i in range(len(pivots))]
        return cls(ambient_dim, Matrix.from_rows(field, rows) if rows
                   else Matrix(field, 0, ambient_dim, ()))

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls(ambient_dim, Matrix(field, 0, ambient_dim, ()))

    @classmethod
    def full(cls, field, ambient_dim):
        return cls(ambient_dim, Matrix.identity(field, ambient_dim))

    @property
    def field(self):
        return self.basis.field

    @property
    def dim(self):
        return self.basis.rows

    @cached_property
    def pivots(self):
        """Pivot column of each basis row, computed once (not part of equality)."""
        F, n, ents = self.basis.field, self.basis.cols, self.basis.entries
        return tuple(next(j for j in range(n) if not F.is_zero(ents[i * n + j]))
                     for i in range(self.basis.rows))

    def basis_rows(self):
        return [self.basis.row(i) for i in range(self.dim)]

    @cached_property
    def nonzero_rows(self):
        """Each basis row as its nonzero (column, value) pairs, computed once
        (not part of equality)."""
        return tuple(tuple((j, y) for j, y in enumerate(row) if y) for row in self.basis_rows())

    def reduce_vector(self, vec):
        """Subtract the projection onto this subspace along its pivot columns.

        One loop per field, each row subtracted on its nonzero entries only;
        each coefficient is read off the input, since the other rows are zero
        in a row's pivot column.  Over F_p the arithmetic is on plain ints,
        reduced once at the end.  Over Q it uses the `Fraction` operators, and
        once anything is subtracted every entry is a `Fraction`, as if the
        whole row had been subtracted.  A vector that nothing is subtracted
        from comes back as it was given."""
        p = self.field.char
        v = None
        for pc, row in zip(self.pivots, self.nonzero_rows):
            c = vec[pc] % p if p else vec[pc]
            if c:
                if v is None:
                    v = list(vec) if p else [x if type(x) is Fraction else Fraction(x)
                                             for x in vec]
                for j, y in row:
                    v[j] -= c * y
        if v is None:
            return tuple(vec)
        return tuple(x % p for x in v) if p else tuple(v)

    def reduce_sparse(self, vec):
        """`reduce_vector` for a vector given by its nonzero (column, value)
        pairs, as a dict or a sequence; the result is a dict of the nonzero
        entries.  Each row is subtracted on its nonzero entries, which are
        zero in every other pivot column."""
        p = self.field.char
        v = dict(vec)
        for pc, row in zip(self.pivots, self.nonzero_rows):
            c = v.get(pc)
            if c:
                _subtract(v, c, row, p)
        return v

    def contains_vector(self, vec) -> bool:
        if len(vec) != self.ambient_dim:
            raise DimensionMismatch("vector length mismatch")
        F = self.field
        return all(F.is_zero(x) for x in self.reduce_vector(vec))

    def coordinates(self, vec):
        """Coordinates of vec over the RREF basis; raises if not a member."""
        if not self.contains_vector(vec):
            raise NotASubspace("vector not in subspace")
        return tuple(vec[p] for p in self.pivots)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_ambient(a, b)
    return Subspace.from_vectors(a.field, a.ambient_dim, a.basis_rows() + b.basis_rows())


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: rows [A|A] over [B|0]; rows with zero left half span the meet."""
    _check_ambient(a, b)
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


def contains(a: Subspace, b: Subspace) -> bool:
    """Whether a contains b.  The pivots of a subspace are the leading
    columns of its vectors, so b can lie in a only if b's pivots are a's."""
    _check_ambient(a, b)
    if not set(b.pivots) <= set(a.pivots):
        return False
    return all(a.contains_vector(r) for r in b.basis_rows())


def project(s: Subspace, coords) -> Subspace:
    """The image of s under the projection onto the coordinates `coords`.

    Onto a prefix range(k) no elimination runs: the basis rows with pivot
    below k, cut to k entries, are already the canonical RREF basis of the
    image (the other rows are zero there)."""
    coords = list(coords)
    for c in coords:
        if not 0 <= c < s.ambient_dim:
            raise DimensionMismatch("coordinate %d out of range" % c)
    k = len(coords)
    if coords == list(range(k)):
        rows = [r[:k] for r, pc in zip(s.basis_rows(), s.pivots) if pc < k]
        return Subspace(k, Matrix(s.field, len(rows), k, tuple(chain.from_iterable(rows))))
    vecs = [tuple(r[c] for c in coords) for r in s.basis_rows()]
    return Subspace.from_vectors(s.field, k, vecs)


def quotient_dim(a: Subspace, b: Subspace) -> int:
    _check_ambient(a, b)
    if not contains(a, b):
        raise NotASubspace("second subspace is not contained in the first")
    return a.dim - b.dim


def kernel(m: Matrix) -> Subspace:
    """Solution space of m v = 0, as a subspace of F^cols, from one elimination.

    The RREF is taken of m with its columns reversed.  Each of its free
    columns c gives the kernel vector with 1 at c, zero at the other free
    columns, and minus the entries of column c of the RREF at the pivots;
    a row of the RREF is nonzero only at and after its pivot, so in the
    original column order that vector has entries only to the right of c.
    Taken by increasing c, these vectors are the canonical RREF basis of the
    kernel.
    """
    F, n = m.field, m.cols
    flipped = Matrix(F, m.rows, n,
                     tuple(chain.from_iterable(m.row(i)[::-1] for i in range(m.rows))))
    red, pivots = rref_with_pivots(flipped)
    zero, one, neg = F.zero(), F.one(), F.neg
    taken = set(pivots)
    vecs = []
    for fcol in reversed(range(n)):
        if fcol in taken:
            continue
        v = [zero] * n
        v[n - 1 - fcol] = one
        for i, pc in enumerate(pivots):
            if pc > fcol:
                break
            x = red.entries[i * n + fcol]
            if x:
                v[n - 1 - pc] = neg(x)
        vecs.extend(v)
    return Subspace(n, Matrix(F, len(vecs) // n if n else 0, n, tuple(vecs)))


def commuting_equations(field, shapes, squares):
    """The rows of the linear system X_t P = Q X_s, one square (s, t, P, Q)
    after another, as dense lists.

    The unknowns are the entries of the blocks X_k, of shape shapes[k], each
    block row-major and the blocks in order; each square contributes one
    equation per entry (i, j) of X_t P - Q X_s, in row-major order, except
    the equations that are identically zero: those where row i of Q and
    column j of P are both zero, and those whose two terms cancel.  The
    rows are those of `sparse_commuting_equations` on the `sparse_squares`,
    densified.
    """
    _, total = _offsets(r * c for r, c in shapes)
    return _densified(field, total, sparse_commuting_equations(
        field, shapes, sparse_squares(shapes, squares)))


def sparse_squares(shapes, squares):
    """Squares (s, t, P, Q) of dense matrices in the form that
    `sparse_commuting_equations` and `commuting_solutions` take:
    (s, t, p_cols, q_rows), P by its nonzero columns and Q by its nonzero
    rows."""
    out = []
    for s, t, P, Q in squares:
        (rs, cs), (rt, ct) = shapes[s], shapes[t]
        if (P.rows, P.cols, Q.rows, Q.cols) != (ct, cs, rt, rs):
            raise DimensionMismatch("square does not fit blocks %d and %d" % (s, t))
        p_cols = [[(k, x) for k, x in enumerate(P.col(j)) if x] for j in range(cs)]
        q_rows = [[(l, x) for l, x in enumerate(Q.row(i)) if x] for i in range(rt)]
        out.append((s, t, p_cols, q_rows))
    return out


def _densified(field, total, eqs):
    """Equations given as {column: value}, as dense lists of length total."""
    zero = field.zero()
    rows = []
    for eq in eqs:
        row = [zero] * total
        for j, x in eq.items():
            row[j] = x
        rows.append(row)
    return rows


def sparse_commuting_equations(field, shapes, squares):
    """`commuting_equations` for squares (s, t, p_cols, q_rows) given by
    their nonzero entries: p_cols[j] lists the (k, x) with P[k][j] = x != 0,
    for every column j of P, and q_rows[i] the (l, x) with Q[i][l] = x != 0,
    for every row i of Q.  Yields each equation as a dict from column to its
    nonzero value, a field element made by the field's own `add` and `sub`,
    in the order of the rows of `commuting_equations`."""
    offsets, _ = _offsets(r * c for r, c in shapes)
    add, sub, zero = field.add, field.sub, field.zero()
    for s, t, p_cols, q_rows in squares:
        cs, ct = shapes[s][1], shapes[t][1]
        os_, ot = offsets[s], offsets[t]
        every_col = list(enumerate(p_cols))
        nonzero_cols = [(j, p_col) for j, p_col in every_col if p_col]
        for i, q_row in enumerate(q_rows):
            base = ot + i * ct
            for j, p_col in every_col if q_row else nonzero_cols:
                row = {base + k: add(zero, x) for k, x in p_col}
                # the terms meet only at X_s[i][j] of a square with s = t
                for l, x in q_row:
                    col = os_ + l * cs + j
                    y = sub(row.get(col, zero), x)
                    if y:
                        row[col] = y
                    else:
                        row.pop(col, None)
                if row:
                    yield row


def sparse_span(field, ncols, rows):
    """The span of rows given as {column: value}, identical to
    `Subspace.from_vectors` of the densified rows (entries `Fraction`s over
    Q, reduced ints over F_p), with only nonzero entries touched.

    Forward elimination keeps one row per pivot column, scaled to 1 there
    and zero to its left: an incoming row is reduced by the pivot rows of
    its pivot columns in increasing order (a pivot row adds entries only to
    the right of its pivot, so a heap of the columns still to clear
    suffices), and what is left takes its first column as a new pivot.
    Back-substitution then clears the pivot columns from each row, the
    highest pivot first, so that the rows it subtracts are already reduced.
    """
    p = field.char
    one = 1 if p else Fraction(1)
    echelon = {}  # pivot column -> the row's other nonzero entries, {column: value}
    for vec in rows:
        row = {j: x % p for j, x in vec.items() if x % p} if p else \
            {j: x for j, x in vec.items() if x}
        todo = [j for j in row if j in echelon]
        heapify(todo)
        while todo:
            c = heappop(todo)
            f = row.pop(c, 0)
            if f:
                _subtract(row, f, echelon[c].items(), p)
                for j in echelon[c]:
                    if j in echelon:
                        heappush(todo, j)
        if row:
            c = min(row)
            inv = pow(row.pop(c), p - 2, p) if p else one / row.pop(c)
            echelon[c] = {j: x * inv % p for j, x in row.items()} if p else \
                {j: x * inv for j, x in row.items()}
    pivots = sorted(echelon)
    for c in reversed(pivots):
        row = echelon[c]
        for j in [j for j in row if j in echelon]:
            _subtract(row, row.pop(j), echelon[j].items(), p)
    zero = field.zero()
    ents = []
    for c in pivots:
        out = [zero] * ncols
        out[c] = one
        for j, x in echelon[c].items():
            out[j] = x
        ents.extend(out)
    return Subspace(ncols, Matrix(field, len(pivots), ncols, tuple(ents)))


def _subtract(row, f, pairs, p):
    """row -= f * (the vector of the (column, value) pairs), in place, for a
    row held as {column: nonzero value}; entries that cancel are dropped."""
    for j, y in pairs:
        x = row.get(j, 0) - f * y
        if p:
            x %= p
        if x:
            row[j] = x
        else:
            row.pop(j, None)


def commuting_solutions(field, shapes, squares):
    """A basis of the solutions of X_t P = Q X_s for every square, each
    solution a tuple of blocks X_k of shape shapes[k].  The squares are
    (s, t, p_cols, q_rows), P and Q by their nonzero entries as in
    `sparse_commuting_equations`; `sparse_squares` converts dense ones.

    This is the kernel of those equations, densified (hom systems fill in
    under elimination, so they go to the dense kernels); the basis is
    canonical.
    """
    offsets, total = _offsets(r * c for r, c in shapes)
    eqs = _densified(field, total, sparse_commuting_equations(field, shapes, squares))
    sol = kernel(Matrix.from_rows(field, eqs)) if eqs else Subspace.full(field, total)
    return [tuple(Matrix(field, r, c, vec[o:o + r * c]) for (r, c), o in zip(shapes, offsets))
            for vec in sol.basis_rows()]


def trace_gram(field, elements) -> Matrix:
    """The Gram matrix gram[a][b] = trace(A B) of the trace form, where each
    element is a sequence of square blocks and A B is taken block by block
    (as for the vertex blocks of a morphism), the traces summed.

    trace(A B) is summed as a_ij b_ji over the nonzero a_ij, without
    forming A B, and only once per unordered pair (the form is symmetric).
    """
    p = field.char
    zero = 0 if p else field.zero()
    nonzero, transposed = [], []
    for blocks in elements:
        flat, flat_t = [], []
        for m in blocks:
            flat.extend(m.entries)
            flat_t.extend(m.transpose().entries)
        nonzero.append([(i, x) for i, x in enumerate(flat) if x])
        transposed.append(flat_t)
    d = len(nonzero)
    gram = [[zero] * d for _ in range(d)]
    for a in range(d):
        for b in range(a, d):
            t = transposed[b]
            s = zero
            for i, x in nonzero[a]:
                y = t[i]
                if y:
                    s += x * y
            gram[a][b] = gram[b][a] = s % p if p else s
    return Matrix(field, d, d, tuple(chain.from_iterable(gram)))


def trace_form_radical(gram: Matrix) -> Subspace:
    """The radical of an algebra in coordinates, from the Gram matrix
    gram[i][j] = trace(b_i b_j) of a faithful action of its basis.

    The kernel of the trace form, then the kernel of the form restricted to
    that, and so on until it stops shrinking.  Callers gate the
    characteristic: over F_p the form can vanish on semisimple elements.
    """
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


def image(m: Matrix) -> Subspace:
    """Column space of m, as a subspace of F^rows."""
    return Subspace.from_vectors(m.field, m.rows, [m.col(j) for j in range(m.cols)])


def preimage(m: Matrix, s: Subspace) -> Subspace:
    """The subspace {v : m v in s} of F^cols."""
    if m.rows != s.ambient_dim:
        raise DimensionMismatch("codomain mismatch")
    F = m.field
    # reduce m's columns modulo s: condition is reduce_vector(m v) == 0
    cond = []
    for j in range(m.cols):
        col = tuple(m.at(i, j) for i in range(m.rows))
        cond.append(s.reduce_vector(col))
    condm = Matrix.from_rows(F, cond).transpose() if cond else Matrix(F, m.rows, 0, ())
    return kernel(condm)


class Solver:
    """Solutions of m x = t for one matrix m and many targets t, with m
    reduced once.

    The one elimination is the RREF of [m^T | J], where J is the k x k
    identity with its columns reversed (k = m.cols).  Its first r rows are
    [B | G]: B is the RREF of m^T, a basis of the column space of m with
    the identity on its pivot columns P, and G m^T = B, so t = sum_i t[P_i]
    B_i for every t in the column space and then x = sum_i t[P_i] G_i (read
    back through J) solves m x = t.  The remaining rows span the kernel of m
    and, through J, are in RREF for the reversed column order: their pivots
    are the free columns of m, where the rows of G are therefore zero.  So x
    is the solution with every free variable zero, the one that the RREF of
    [m | t] reads off.
    """

    def __init__(self, m: Matrix):
        F, n, k = m.field, m.rows, m.cols
        self.field, self.rows, self.cols = F, n, k
        self._pivots = []    # P: row i of B has its pivot at target entry P[i]
        self._b_rows = []    # row i of B, nonzero (column, value) pairs
        self._g_rows = []    # row i of G in unknown order, nonzero pairs
        if not (n and k):
            return
        zero, one = F.zero(), F.one()
        aug = [m.col(j) + tuple(one if c == k - 1 - j else zero for c in range(k))
               for j in range(k)]
        red, pivots = rref_with_pivots(Matrix(F, k, n + k, tuple(chain.from_iterable(aug))))
        for i, pc in enumerate(pivots):
            if pc >= n:
                break
            row = red.row(i)
            self._pivots.append(pc)
            self._b_rows.append([(j, x) for j, x in enumerate(row[:n]) if x])
            self._g_rows.append([(k - 1 - c, x) for c, x in enumerate(row[n:]) if x])

    def solve(self, target):
        """The solution of m x = target with every free variable zero (that of
        `solve`), or None when there is none."""
        if len(target) != self.rows:
            raise DimensionMismatch("target length %d, expected %d" % (len(target), self.rows))
        F, p = self.field, self.field.char
        zero = 0 if p else F.zero()
        rest = list(target)  # target - sum_i target[P_i] B_i
        x = [zero] * self.cols
        for pc, b_row, g_row in zip(self._pivots, self._b_rows, self._g_rows):
            y = target[pc] % p if p else target[pc]
            if y:
                for j, v in b_row:
                    rest[j] -= y * v
                for j, v in g_row:
                    x[j] += y * v
        if p:
            if any(v % p for v in rest):
                return None
            return tuple(v % p for v in x)
        return None if any(rest) else tuple(x)


def solve(m: Matrix, target):
    """One solution x of m x = target, or None: the one with every free
    variable zero.  For many targets against one m, use `Solver`."""
    return Solver(m).solve(target)


class QuotientSpace:
    """Quotient of a subspace by a subspace, with a canonical coset basis.

    The basis consists of the RREF rows of the big space whose pivot is not a
    pivot of the small space; coordinates of a coset are read off those pivot
    columns after reduction modulo the small space.
    """

    def __init__(self, big: Subspace, small: Subspace):
        if big.ambient_dim != small.ambient_dim:
            raise DimensionMismatch("ambient mismatch")
        if not contains(big, small):
            raise NotASubspace("quotient by a non-subspace")
        self.big = big
        self.small = small
        small_pivots = set(small.pivots)
        self._coords = [p for p in big.pivots if p not in small_pivots]
        self._lift_rows = [big.basis.row(i) for i, p in enumerate(big.pivots)
                           if p not in small_pivots]
        self.dim = len(self._coords)

    def project_vector(self, vec):
        """Coordinates of vec + small over the canonical coset basis."""
        reduced = self.small.reduce_vector(vec)
        return tuple(reduced[p] for p in self._coords)

    def lift(self, i):
        return self._lift_rows[i]

    def lift_matrix(self):
        """Columns are the canonical coset representatives."""
        F = self.big.field
        if self.dim == 0:
            return Matrix(F, self.big.ambient_dim, 0, ())
        return Matrix.from_rows(F, self._lift_rows).transpose()

    def projection_matrix(self):
        """Maps ambient coordinates to quotient coordinates."""
        F = self.big.field
        n = self.big.ambient_dim
        rows = []
        for j in range(n):
            e = [F.zero()] * n
            e[j] = F.one()
            rows.append(self.project_vector(tuple(e)))
        return Matrix.from_rows(F, rows).transpose() if n else Matrix(F, self.dim, 0, ())


def _check_ambient(a: Subspace, b: Subspace):
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions %d and %d" % (a.ambient_dim, b.ambient_dim))

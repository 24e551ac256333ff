"""Exact linear algebra: matrices, canonical subspaces, quotient spaces.

Matrices are immutable, row-major, over one of the fields from `scalars`.
A Subspace stores the unique reduced row-echelon basis of its row space, so
two subspaces are equal iff their stored bases are identical.

All dense elimination (rref_with_pivots, kernel, Solver,
Subspace.from_vectors, the hom systems of `commuting_solutions`) runs one
row kernel per field, chosen by the characteristic, with no scalar call
through the field object:

- over Q, fraction-free Gauss-Jordan on primitive integer rows, in the
  spirit of Bareiss (1968), by one integer core (`_eliminate`) that
  `rref_with_pivots` and `kernel` share: `rref_with_pivots` makes each
  entry of the RREF a `Fraction` once, and `kernel` builds each entry of
  its basis once, straight from the integer rows.  The hom systems are
  built as int rows, so no `Fraction` is made before their basis;
- over F_p, Gauss-Jordan on rows of plain ints reduced mod p, in
  `rref_with_pivots`.

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

    # is_zero, add, sub, neg and scale run one loop per field, with the
    # operators the field's own methods use: plain ints reduced once per entry
    # over F_p, the values' own operators over Q (so entries keep their values
    # and types)

    def is_zero(self):
        p = self.field.char
        return not any(x % p for x in self.entries) if p else not any(self.entries)

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

    The rows are made primitive integer vectors (`_primitive`) and reduced
    by the integer core (`_eliminate`); each entry of the RREF is then built
    once, as a `Fraction` of a row entry over the row's head.
    """
    for i, row in enumerate(a):
        a[i] = _primitive(row)
    pivots, heads = _eliminate(a, ncols)
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


def _primitive(row):
    """The primitive integer vector that is a positive multiple of `row`, a
    sequence of ints or Fractions, as a list."""
    d = lcm(*[x.denominator for x in row])
    if d == 1:
        row = [x.numerator for x in row]
    else:
        row = [x.numerator * (d // x.denominator) for x in row]
    g = gcd(*row)
    return row if g < 2 else [x // g for x in row]


def _eliminate(a, ncols):
    """Fraction-free Gauss-Jordan on the primitive integer rows `a`, in
    place; returns the pivot columns and, for each pivot row, its head.

    A row with entry f in the pivot column becomes
    (piv/g)*row - (f/g)*pivot_row, with g = gcd(piv, f), and is then divided
    by its content.  A row is thus always the primitive multiple of a
    canonical rational vector, so entries stay as small as the data allows.
    Once a column is a pivot column it is dropped from every row, and the
    pivot row keeps its entry there, positive, in `heads`: later scalings
    then touch only the columns still in play.  So in the end row i < rank
    holds the entries of the RREF's row i in its free columns, in order,
    times heads[i]; the other rows are zero.
    """
    nrows = len(a)
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
    return pivots, heads


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
        p, v = self.field.char, self.reduce_vector(vec)
        # a vector that nothing is subtracted from comes back unreduced
        return not any(x % p for x in v) if p else not any(v)

    def coordinates(self, vec):
        """Coordinates of vec over the RREF basis; raises if not a member."""
        if not self.contains_vector(vec):
            raise NotASubspace("vector not in subspace")
        return tuple(vec[p] for p in self.pivots)


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


def kernel(m: Matrix) -> Subspace:
    """Solution space of m v = 0, as a subspace of F^cols, from one elimination.

    The RREF is taken of m with its columns reversed.  Each of its free
    columns c gives the kernel vector with 1 at c, zero at the other free
    columns, and minus the entries of column c of the RREF at the pivots;
    a row of the RREF is nonzero only at and after its pivot, so in the
    original column order that vector has entries only to the right of c.
    Taken by increasing c, these vectors are the canonical RREF basis of the
    kernel.  Over Q that RREF is never built as `Fraction`s: the integer
    core leaves each of its rows as ints over a head, and each entry of the
    basis is built once from them.
    """
    return row_kernel(m.field, m.cols, [m.row(i) for i in range(m.rows)])


def row_kernel(F, n, rows):
    """`kernel` of the matrix with n columns and the given rows, with no
    `Matrix` built: ints over F_p, reduced on entry; ints or `Fraction`s over
    Q, each row made primitive."""
    flipped = [r[::-1] for r in rows]
    return _flipped_kernel(F, n, flipped if F.char else [_primitive(r) for r in flipped])


def _flipped_kernel(F, n, flipped):
    """`kernel` of the matrix with n columns whose rows, each reversed, are
    `flipped`: over Q, primitive int lists, which the integer core reduces
    in place, and each entry -x/head of the basis is built once, as a
    `Fraction`; over F_p, ints, whose RREF comes from `rref_with_pivots`."""
    p = F.char
    if p:
        red, pivots = rref_with_pivots(Matrix(F, len(flipped), n,
                                              tuple(chain.from_iterable(flipped))))
        a = [red.row(i) for i in range(len(pivots))]
    else:
        a = flipped
        pivots, heads = _eliminate(a, n)
    zero, one = F.zero(), F.one()
    taken = set(pivots)
    free = [j for j in range(n) if j not in taken]
    vecs = []
    for k in reversed(range(len(free))):
        fcol = free[k]
        at = fcol if p else k  # the core keeps only the free columns
        v = [zero] * n
        v[n - 1 - fcol] = one
        for i, pc in enumerate(pivots):
            if pc > fcol:
                break
            x = a[i][at]
            if x:
                v[n - 1 - pc] = -x % p if p else Fraction(-x, heads[i])
        vecs.extend(v)
    return Subspace(n, Matrix(F, len(free), n, tuple(vecs)))


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


def _densified(total, eqs):
    """Equations given as {column: int}, as dense int lists of length total."""
    rows = []
    for eq in eqs:
        row = [0] * total
        for j, x in eq.items():
            row[j] = x
        rows.append(row)
    return rows


def sparse_commuting_equations(field, shapes, squares):
    """The rows of the linear system X_t P = Q X_s, one square (s, t,
    p_cols, q_rows) after another, P and Q given by their nonzero entries:
    p_cols[j] lists the (k, x) with P[k][j] = x != 0, for every column j of
    P, and q_rows[i] the (l, x) with Q[i][l] = x != 0, for every row i of Q.

    The unknowns are the entries of the blocks X_k, of shape shapes[k], each
    block row-major and the blocks in order; each square contributes one
    equation per entry (i, j) of X_t P - Q X_s, in row-major order, except
    the equations that are identically zero: those where row i of Q and
    column j of P are both zero, and those whose two terms cancel.  Yields
    each equation as a dict from column to its nonzero value, an int.

    Over Q each square's P and Q are first scaled by the lcm of all their
    denominators, which changes no solution; the rows are then built with
    plain int + and -, and each is divided by its gcd, so it is primitive.
    Over F_p the entries are ints already, and the rows are left unreduced:
    the F_p kernel and `sparse_span` reduce on entry.
    """
    offsets, _ = _offsets(r * c for r, c in shapes)
    over_q = not field.char
    for s, t, p_cols, q_rows in squares:
        if over_q:
            d = lcm(*[x.denominator for part in (p_cols, q_rows) for pairs in part
                      for _, x in pairs])
            p_cols = [[(k, x.numerator * (d // x.denominator)) for k, x in pairs]
                      for pairs in p_cols]
            q_rows = [[(l, x.numerator * (d // x.denominator)) for l, x in pairs]
                      for pairs in q_rows]
        cs, ct = shapes[s][1], shapes[t][1]
        os_, ot = offsets[s], offsets[t]
        every_col = list(enumerate(p_cols))
        nonzero_cols = [(j, p_col) for j, p_col in every_col if p_col]
        for i, q_row in enumerate(q_rows):
            base = ot + i * ct
            for j, p_col in every_col if q_row else nonzero_cols:
                row = {base + k: x for k, x in p_col}
                # the terms meet only at X_s[i][j] of a square with s = t
                for l, x in q_row:
                    col = os_ + l * cs + j
                    y = row.get(col, 0) - x
                    if y:
                        row[col] = y
                    else:
                        row.pop(col, None)
                if not row:
                    continue
                g = gcd(*row.values()) if over_q else 1
                yield {j: x // g for j, x in row.items()} if g > 1 else row


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

    This is the kernel of those int equations, densified (hom systems fill
    in under elimination, so they go to the dense kernels) with their
    columns reversed, as `kernel` takes them: over Q no `Fraction` is built
    before the basis.  The basis is canonical, each entry a field element.
    """
    offsets, total = _offsets(r * c for r, c in shapes)
    eqs = _densified(total, sparse_commuting_equations(field, shapes, squares))
    sol = _flipped_kernel(field, total, [row[::-1] for row in eqs])
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
        """The solution of m x = target with every free variable zero, or
        None when there is none."""
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

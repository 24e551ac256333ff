"""Desk-scale functor categories for finite representation type.

The endomorphism algebra of a complete direct sum of indecomposables is built
as a FiniteAlgebra (basis, structure constants, primitive idempotents); its
right modules stand in for finitely presented functors, evaluated through
V (x)_S Hom(T, X).  Serre subcategories of this finite-length setting are
recorded by their sets of simples, and quotient homs are computed literally
as Hom(X_min, Y / t(Y)).
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass, field as dc_field
from itertools import chain, product as iter_product

from .errors import (
    AlgebraMismatch, CharacteristicTooSmall, DimensionMismatch, IsomorphicSummands, NotASubspace,
    NotSplitEndo, PpcatError,
)
from .linalg import (
    Matrix, QuotientSpace, Solver, Subspace, block_matrix, commuting_solutions, kernel,
    row_apply, solve, sparse_commuting_equations, sparse_span, trace_form_radical, trace_gram,
)
from .ppeval import eval_pair
from .quiver import QuiverAlgebra, compose
from .rep import (
    RepMorphism, coordinate_map, direct_sum, endo_radical, find_invertible, hom_space,
    linear_combination,
)


class FiniteAlgebra:
    """A finite-dimensional algebra by structure constants.

    Products read left to right: mul(a, b) is "a then b" (for endomorphism
    algebras this is composition b o a), so right modules over an Auslander
    algebra decompose by which summand a morphism starts from.

    `constants` comes in one of two forms: sparse, a mapping (i, j) -> the
    (k, c) pairs of b_i b_j = sum c b_k (a pair missing from it multiplies to
    zero), or the dense n x n table of coordinate tuples, converted once.
    Only the nonzero constants are kept; `table` rebuilds the dense form.
    """

    def __init__(self, field, labels, constants, idempotents, validate=True):
        self.field = field
        self.labels = tuple(labels)
        self.idempotents = tuple(tuple(e) for e in idempotents)
        n = len(self.labels)
        if not isinstance(constants, Mapping):
            constants = _constants_of_table(constants, n)
        # row i: j -> the nonzero (k, c) of b_i b_j, as field values
        add, zero, is_zero = field.add, field.zero(), field.is_zero
        rows = [{} for _ in range(n)]
        for (i, j), cell in constants.items():
            cell = tuple((k, add(zero, c)) for k, c in cell if not is_zero(c))
            if not (0 <= i < n and 0 <= j < n and all(0 <= k < n for k, _ in cell)):
                raise DimensionMismatch("structure constant index out of range")
            if cell:
                rows[i][j] = cell
        self._rows = tuple(rows)
        one = field.one()
        self._basis = tuple(tuple(one if i == k else zero for i in range(n)) for k in range(n))
        self._radical = None  # memo of radical()
        # memos of regular_module() (filled only when it is called) and of
        # projective_row (k -> e_k S), kept as sparse actions (with the dim
        # for a row) so that they hold no module pointing back at self
        self._regular = None
        self._projective_rows = {}
        if validate:
            self._validate()

    @property
    def dim(self):
        return len(self.labels)

    @property
    def table(self):
        """The dense multiplication table: cell (i, j) holds the coordinates of
        b_i b_j.  Built anew on every call."""
        return tuple(tuple(self._dense(dict(row.get(j, ()))) for j in range(self.dim))
                     for row in self._rows)

    def zero_vector(self):
        return (self.field.zero(),) * self.dim

    def basis_vector(self, k):
        return self._basis[k]

    def unit_vector(self):
        F = self.field
        out = list(self.zero_vector())
        for e in self.idempotents:
            out = [F.add(a, b) for a, b in zip(out, e)]
        return tuple(out)

    def mul(self, a, b):
        return self._dense(self._sparse_mul(self._sparse(a), self._sparse(b)))

    def _sparse(self, vec):
        """vec as {index: nonzero coordinate}, the coordinates as field values."""
        add, zero = self.field.add, self.field.zero()
        return {k: c for k, c in ((k, add(zero, c)) for k, c in enumerate(vec) if c) if c}

    def _dense(self, vec):
        out = list(self.zero_vector())
        for k, c in vec.items():
            out[k] = c
        return tuple(out)

    def _sparse_mul(self, a, b):
        """a b for a and b given as {index: nonzero coordinate}, in that form;
        only the products b_i b_j with nonzero constants are visited."""
        p = self.field.char
        acc = {}
        for i, ca in a.items():
            row = self._rows[i]
            if row:
                for j, cb in b.items():
                    cell = row.get(j)
                    if cell:
                        c = ca * cb
                        for k, ck in cell:
                            acc[k] = acc.get(k, 0) + c * ck
        if p:
            return {k: v % p for k, v in acc.items() if v % p}
        return {k: v for k, v in acc.items() if v}

    def regular_module(self):
        """The right regular module; the action of b_k has row i equal to
        b_i b_k, read off the structure constants (once per algebra)."""
        if self._regular is None:
            self._regular = tuple({i: tuple(sorted(row[k])) for i, row in enumerate(self._rows)
                                   if k in row} for k in range(self.dim))
        return FinModule(self, self.dim, self._regular, check=False)

    def radical(self) -> Subspace:
        """Radical as a subspace of the coordinate space (char 0 or char >
        dim); computed once, via the trace form of the regular
        representation, unless the algebra's construction stored it:
        `auslander_algebra` does, the radical of a basic Auslander algebra
        being the span of its non-idempotent basis elements."""
        F = self.field
        d = self.dim
        if F.char != 0 and F.char <= d:
            raise CharacteristicTooSmall(
                "characteristic %d too small for dim %d" % (F.char, d))
        if self._radical is None:
            self._radical = trace_form_radical(self.regular_trace_gram())
        return self._radical

    def regular_trace_gram(self) -> Matrix:
        """The Gram matrix gram[a][b] = trace(R_a R_b) of the right regular
        representation, R_a: b_i -> b_i b_a, read off the structure constants
        (the matrix `trace_gram` gives on the `regular_module()` action).

        With b_i b_a = sum_m c^m_ia b_m, trace(R_a R_b) is the sum over i and
        m of c^m_ia c^i_mb.  So the nonzero constants are grouped by the pair
        (i, m), as the (a, c^m_ia) with that pair, and each pair (i, m) adds
        the products of its list with the list of the pair (m, i)."""
        F, d = self.field, self.dim
        p = F.char
        by_pair = {}
        for i, row in enumerate(self._rows):
            for a, cell in row.items():
                for m, c in cell:
                    by_pair.setdefault((i, m), []).append((a, c))
        gram = [[0 if p else F.zero()] * d for _ in range(d)]
        for (i, m), left in by_pair.items():
            right = by_pair.get((m, i))
            if right:
                for a, x in left:
                    out = gram[a]
                    for b, y in right:
                        out[b] += x * y
        if p:
            gram = [[x % p for x in row] for row in gram]
        return Matrix(F, d, d, tuple(chain.from_iterable(gram)))

    def corner(self, k, l):
        """Basis vectors of e_k A e_l: the span of the e_k b_i e_l, formed only
        for the b_i with b_a b_i nonzero for some a in the support of e_k (e_k
        kills every other b_i)."""
        ek, el = self._sparse(self.idempotents[k]), self._sparse(self.idempotents[l])
        one = self.field.one()
        vecs = []
        for i in {i for a in ek for i in self._rows[a]}:
            v = self._sparse_mul(self._sparse_mul(ek, {i: one}), el)
            if v:
                vecs.append(self._dense(v))
        return Subspace.from_vectors(self.field, self.dim, vecs)

    def _validate(self):
        n = self.dim
        self._check_associative()
        one = self._sparse(self.unit_vector())
        for i in range(n):
            b = {i: self.field.one()}
            if self._sparse_mul(one, b) != b or self._sparse_mul(b, one) != b:
                raise PpcatError("idempotents do not sum to a unit")
        idempotents = [self._sparse(e) for e in self.idempotents]
        for a, ea in enumerate(idempotents):
            for b, eb in enumerate(idempotents):
                if self._sparse_mul(ea, eb) != (ea if a == b else {}):
                    raise PpcatError("idempotents are not orthogonal")
        # primitivity: each corner is local (corner / corner-radical is 1-dim)
        for k in range(len(self.idempotents)):
            c = self.corner(k, k)
            if c.dim == 0:
                raise PpcatError("zero idempotent")
            if self._corner_residue_dim(c) != 1:
                raise NotSplitEndo("idempotent %d is not primitive with split corner" % k)

    def _check_associative(self):
        """(b_i b_j) b_k = b_i (b_j b_k) for every triple of basis elements,
        exactly.  Both sides are sums over structure constants: the left one
        is sum_m c_m (b_m b_k) over the terms c_m b_m of b_i b_j, the right one
        sum_m c_m (b_i b_m) over the terms of b_j b_k.  So for a pair (i, j)
        only the k in the right support of b_j or of a term of b_i b_j can
        give a nonzero side; those are computed and compared.  And a pair
        with b_i b_j = 0 needs no k at all unless b_i b_m is nonzero for some
        term b_m of some b_j b_k: both sides are zero for every k.  So each j
        visits the i in the left support of b_j or of such a b_m."""
        rows = self._rows
        one = self.field.one()
        left = [[] for _ in rows]  # m -> the i with b_i b_m nonzero
        for i, row in enumerate(rows):
            for m in row:
                left[m].append(i)
        for j, row_j in enumerate(rows):
            visit = set(left[j])
            for cell in row_j.values():
                for m, _ in cell:
                    visit.update(left[m])
            for i in visit:
                b_ij = dict(rows[i].get(j, ()))
                ks = set(row_j)
                for m in b_ij:
                    ks.update(rows[m])
                for k in ks:
                    if self._sparse_mul(b_ij, {k: one}) != \
                            self._sparse_mul({i: one}, dict(row_j.get(k, ()))):
                        raise PpcatError("multiplication table is not associative")

    def _corner_residue_dim(self, c: Subspace):
        F = self.field
        d = c.dim
        if F.char != 0 and F.char <= d:
            raise CharacteristicTooSmall("corner check needs larger characteristic")
        if d == 1:  # a 1-dimensional unital algebra is K
            return 1
        rows = [self._sparse(r) for r in c.basis_rows()]
        mats = [Matrix.from_rows(F, [c.coordinates(self._dense(self._sparse_mul(b, r)))
                                     for b in rows]) for r in rows]
        return d - trace_form_radical(trace_gram(F, [(m,) for m in mats])).dim


def _constants_of_table(table, n):
    """The (i, j) -> (k, c) mapping of a dense n x n multiplication table."""
    if len(table) != n or any(len(r) != n for r in table):
        raise DimensionMismatch("multiplication table shape mismatch")
    return {(i, j): tuple(enumerate(cell)) for i, row in enumerate(table)
            for j, cell in enumerate(row)}


class FinModule:
    """A right module over a FiniteAlgebra: row vectors, one action per basis
    element of the algebra, kept sparse.

    `sparse_action` holds per basis element a dict from each nonzero row of
    its matrix to that row's nonzero (column, value) pairs, rows and columns
    in increasing order.  `action` may be given in that form, or as the
    dense dim x dim matrices, converted once here."""

    def __init__(self, algebra: FiniteAlgebra, dim, action, check=True):
        self.algebra = algebra
        self.dim = dim
        action = tuple(action)
        if len(action) != algebra.dim:
            raise DimensionMismatch("one action matrix per algebra basis element")
        if any(isinstance(m, Matrix) for m in action):
            for m in action:
                if m.rows != dim or m.cols != dim:
                    raise DimensionMismatch("action matrix shape mismatch")
            action = tuple(
                {i: row for i, row in ((i, tuple((j, x) for j, x in enumerate(m.row(i)) if x))
                                       for i in range(dim)) if row}
                for m in action)
        self.sparse_action = action
        if check:
            self._validate()

    @property
    def field(self):
        return self.algebra.field

    def _validate(self):
        """The unit acts as the identity, and b_i b_j as the action of b_i
        followed by that of b_j, compared row by row on the sparse rows."""
        S, action = self.algebra, self.sparse_action
        p = self.field.char

        def reduced(rows):  # {row: {column: value}} without zero entries and rows
            return {i: r for i, r in ((i, _nonzero(row, p)) for i, row in rows.items()) if r}
        unit = ((m, c) for m, c in enumerate(S.unit_vector()) if c)
        if reduced(self._combination(unit)) != {i: {i: 1} for i in range(self.dim)}:
            raise PpcatError("unit does not act as the identity")
        for i, A in enumerate(action):
            for j, B in enumerate(action):
                prod = {r: _row_times(row, B, p) for r, row in A.items()}
                if reduced(self._combination(S._rows[i].get(j, ()))) != reduced(prod):
                    raise PpcatError("action does not respect the structure constants")

    def submodule(self, vectors) -> Subspace:
        """The smallest action-closed subspace containing the vectors, each
        given dense or as a {column: value} dict: their span, with the images
        of its basis rows under every basis element added until it stops
        growing."""
        F, d, p = self.field, self.dim, self.field.char
        rows = []
        for v in vectors:
            if not isinstance(v, dict):
                if len(v) != d:
                    raise DimensionMismatch("vector length %d, ambient %d" % (len(v), d))
                v = {j: x for j, x in enumerate(v) if x}
            rows.append(v)
        current = sparse_span(F, d, rows)
        while True:
            basis = current.nonzero_rows
            images = [_row_times(r, A, p) for r in basis for A in self.sparse_action]
            nxt = sparse_span(F, d, [dict(r) for r in basis] + images)
            if nxt.dim == current.dim:
                return nxt
            current = nxt

    def restrict(self, sub: Subspace) -> "FinModule":
        """The submodule `sub` on its RREF basis: row r of the action of b_m
        is the coordinates of (basis row r) b_m."""
        p = self.field.char
        action = []
        for A in self.sparse_action:
            out = {}
            for r, row in enumerate(sub.nonzero_rows):
                image = _row_times(row, A, p)
                if image:
                    out[r] = _coordinates(sub, image)
            action.append(out)
        return FinModule(self.algebra, sub.dim, action, check=False)

    def quotient(self, sub: Subspace):
        """V / sub, on the canonical coset basis: the unit vectors of the
        columns that are not pivots of sub.  Row c of an action matrix is
        the image of that unit vector, so the quotient's row for it is row c
        reduced modulo sub and read at those columns."""
        F = self.field
        q = QuotientSpace(Subspace.full(F, self.dim), sub)
        pivots = set(sub.pivots)
        free = [c for c in range(self.dim) if c not in pivots]
        position = {c: t for t, c in enumerate(free)}
        action = []
        for rows in self.sparse_action:
            out = {}
            for t, c in enumerate(free):
                row = rows.get(c)
                if row:
                    red = sub.reduce_sparse(row)
                    if red:
                        out[t] = tuple(sorted((position[j], x) for j, x in red.items()))
            action.append(out)
        return FinModule(self.algebra, q.dim, action, check=False), q

    def _combination(self, terms):
        """The action of r = sum_m r_m b_m, given as its (m, r_m) terms,
        summed from the sparse rows of the b_m: {row: {column: value}} for
        each row that some b_m touches, the values not reduced."""
        action = self.sparse_action
        acc = {}
        for m, c in terms:
            for i, row in action[m].items():
                out = acc.setdefault(i, {})
                for j, x in row:
                    out[j] = out.get(j, 0) + c * x
        return acc

    def sort_rows(self, k):
        """The rows of the action of the k-th idempotent e_k, which span
        V e_k, as {column: value}."""
        e = self.algebra.idempotents[k]
        return list(self._combination((m, c) for m, c in enumerate(e) if c).values())

    def sort_dim(self, k):
        """dim V e_k, the rank of the action of e_k, taken sparse."""
        return sparse_span(self.field, self.dim, self.sort_rows(k)).dim

    def radical_subspace(self, alg_radical: Subspace) -> Subspace:
        """V rad(S), the span of the rows of the radical's action; it is a
        submodule already, rad(S) being a two-sided ideal."""
        vecs = []
        for r in alg_radical.nonzero_rows:
            vecs.extend(self._combination(r).values())
        return sparse_span(self.field, self.dim, vecs)


def _row_times(row, A, p):
    """The row vector given by its (index, value) pairs times the matrix
    given by its sparse rows A, as {column: nonzero value}."""
    acc = {}
    for i, x in row:
        for j, y in A.get(i, ()):
            acc[j] = acc.get(j, 0) + x * y
    return _nonzero(acc, p)


def _nonzero(vec, p):
    """vec, given as {column: value}, with its values reduced mod p (p > 0)
    and the zero ones dropped."""
    if p:
        return {j: x % p for j, x in vec.items() if x % p}
    return {j: x for j, x in vec.items() if x}


def _coordinates(sub: Subspace, vec):
    """The nonzero coordinates, as (index, value) pairs, of vec, given as
    {column: nonzero value}, over the RREF basis of sub; raises if vec is
    not in sub."""
    if sub.reduce_sparse(vec):
        raise NotASubspace("vector not in subspace")
    return tuple((t, c) for t, c in enumerate(vec.get(pc, 0) for pc in sub.pivots) if c)


def fin_hom(X: FinModule, Y: FinModule):
    """Basis of module maps X -> Y as dim(X) x dim(Y) matrices on row vectors:
    the f with f Y(s) = X(s) f for every basis element s, one commuting
    square each, Y(s) by its columns and X(s) by its rows."""
    if X.algebra is not Y.algebra:
        raise AlgebraMismatch("hom across algebras")
    squares = []
    for A, B in zip(X.sparse_action, Y.sparse_action):
        p_cols = [[] for _ in range(Y.dim)]
        for k, row in B.items():
            for j, x in row:
                p_cols[j].append((k, x))
        squares.append((0, 0, p_cols, [A.get(i, ()) for i in range(X.dim)]))
    return [blocks[0] for blocks in commuting_solutions(X.field, [(X.dim, Y.dim)], squares)]


def fin_is_indecomposable(X: FinModule) -> bool:
    """Whether End(X)/rad is one-dimensional, rad by the iterated trace form."""
    if X.dim == 0:
        raise PpcatError("zero module")
    F = X.field
    basis = fin_hom(X, X)
    d = len(basis)
    if F.char != 0 and F.char <= max(d, X.dim):
        raise CharacteristicTooSmall("characteristic too small for dim End = %d" % d)
    if d == 1:  # End(X) = K
        return True
    return d - trace_form_radical(trace_gram(F, [(f,) for f in basis])).dim == 1


def fin_are_isomorphic(X: FinModule, Y: FinModule, seed=0):
    """(isomorphic, certain): search the hom space for an invertible matrix
    (see `rep.find_invertible`)."""
    if X.dim != Y.dim:
        return False, True
    if X.dim == 0:
        return True, True
    for k in range(min(len(X.algebra.idempotents), len(Y.algebra.idempotents))):
        if X.sort_dim(k) != Y.sort_dim(k):
            return False, True
    basis = fin_hom(X, Y)
    if not basis or len(basis) != len(fin_hom(Y, X)) \
            or len(fin_hom(X, X)) != len(fin_hom(Y, Y)):
        return False, True
    witness, certain = find_invertible(basis, lambda m: kernel(m).dim == 0, seed)
    return witness is not None, certain


# -- the Auslander construction -------------------------------------------


@dataclass
class AuslanderData:
    algebra: FiniteAlgebra
    summands: list
    sum_rep: object  # T, the direct sum of the summands
    # per algebra basis element: (i, k, g) with g: M_i -> M_k, a basis morphism
    # of the corner e_i S e_k = Hom(M_i, M_k)
    basis_morphisms: list
    # (i, k) -> hom_space(M_i, M_k), the canonical basis, for all pairs
    homs: dict = dc_field(repr=False, compare=False)
    # memo of hom_action: argument module -> (basis of Hom(T, X), the nonzero
    # columns of each basis element's action)
    _hom_actions: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    def hom_action(self, X):
        """A basis H of Hom(T, X), T = sum_rep, and for each basis morphism s
        of T the action h -> h o s on H by its nonzero columns: a dict from
        column j, in H order, to the nonzero (row, value) pairs, in H order,
        of the coordinates of H[j] o s; computed once per X.

        Hom(T, X) is the direct sum of the Hom(M_i, X), h: M_i -> X entering
        as h o proj_i.  That embedding keeps the order of h's entries within
        the unknowns of Hom(T, X), and different summands use disjoint
        entries, so the embedded canonical bases, merged by pivot, are the
        canonical basis of Hom(T, X).  A basis morphism g: M_i -> M_k sends
        the Hom(M_k, X) part to the Hom(M_i, X) part, h -> h o g, and the
        rest to zero: only Hom(M_k, X) columns and Hom(M_i, X) rows occur."""
        memo = self._hom_actions.get(X)
        if memo is None:
            memo = self._hom_actions[X] = self._build_hom_action(X)
        return memo

    def _build_hom_action(self, X):
        F = X.field
        T = self.sum_rep
        verts = X.algebra.quiver.vertices
        # the canonical basis of Hom(M_i, X) per summand, already at hand when
        # X is a summand
        x_index = next((k for k, N in enumerate(self.summands) if N is X), None)
        parts = [hom_space(M, X) if x_index is None else self.homs[i, x_index]
                 for i, M in enumerate(self.summands)]
        col_dims = {v: [M.dims[v] for M in self.summands] for v in verts}

        def pivot(h):  # the first nonzero unknown of Hom(T, X) in h
            return next((vi, e) for vi, v in enumerate(verts)
                        for e, x in enumerate(h.blocks[v].entries) if x)
        order = []  # (pivot, summand i, index in the basis of Hom(M_i, X), h o proj_i)
        for i, hs in enumerate(parts):
            for r, g in enumerate(hs):
                h = RepMorphism(T, X, {v: block_matrix(F, {(0, i): g.blocks[v]}, [X.dims[v]],
                                                       col_dims[v]) for v in verts}, check=False)
                order.append((pivot(h), i, r, h))
        order.sort()  # the pivots differ, so no two morphisms are compared
        position = {(i, r): col for col, (_, i, r, _) in enumerate(order)}
        H = [h for _, _, _, h in order]
        if not H:
            return H, []
        coordinate_maps = {}  # i -> the coordinates over parts[i]
        actions = []
        for i, k, g in self.basis_morphisms:
            cols = {}
            for r, h in enumerate(parts[k]):
                if i not in coordinate_maps:
                    coordinate_maps[i] = coordinate_map(parts[i], self.summands[i], X)
                # positions grow with the index within a summand's basis
                col = tuple((position[i, r2], c)
                            for r2, c in enumerate(coordinate_maps[i](h.compose(g))) if c)
                if col:
                    cols[position[k, r]] = col
            actions.append(cols)
        return H, actions


def auslander_algebra(indecomposables) -> AuslanderData:
    """End of the direct sum T, with one idempotent per summand, built one
    corner e_i S e_k = Hom(M_i, M_k) at a time.

    A corner's basis is the identity and a radical basis for i = k, and
    hom_space(M_i, M_k) otherwise; corners follow one another with i
    outermost.  A product of a in Hom(M_i, M_j) and b in Hom(M_j, M_k) is
    b o a, composed on the summands, with coordinates read over the corner
    (i, k); products of basis elements whose corners do not meet are zero.
    The `hom_space` bases of all pairs, End(M) included, are kept in `homs`.

    The summands must be pairwise non-isomorphic.  For f: M_i -> M_k and
    g: M_k -> M_i, the e_i-coordinate of g o f is its residue in
    End(M_i)/rad, and End(M_i) being local, some basis pair has a nonzero
    one exactly when M_i and M_k are isomorphic.  So one scan of the
    constants certifies S basic, or raises IsomorphicSummands naming the
    pair, and the radical is then the categorical one, every Hom(M_i, M_k)
    with i != k and each rad End(M_i): the span of the non-idempotent basis
    elements, stored as the algebra's radical.
    """
    summands = list(indecomposables)
    if not summands:
        raise PpcatError("need at least one indecomposable")
    ends = []  # (basis of End(M), its radical) per summand
    for M in summands:
        basis = hom_space(M, M)
        rad = endo_radical(M, basis)
        if len(basis) - rad.dim != 1:
            raise NotSplitEndo("input without split local endomorphism ring")
        ends.append((basis, rad))
    T = direct_sum(summands)
    F = T.field
    n = len(summands)
    homs = {}
    corners = {}  # (i, k) -> basis of the corner, morphisms M_i -> M_k
    offsets = {}  # (i, k) -> algebra index of the corner's first basis element
    labels = []
    idempotent_positions = []
    basis_morphisms = []
    for i, M in enumerate(summands):
        for k, N in enumerate(summands):
            offsets[i, k] = len(labels)
            if i == k:
                basis, rad = ends[i]
                homs[i, i] = basis
                idempotent_positions.append(len(labels))
                labels.append("e%d" % i)
                corner = [RepMorphism.identity(M)]
                for r, vec in enumerate(rad.basis_rows()):
                    labels.append("r%d_%d" % (i, r))
                    corner.append(linear_combination(basis, vec))
            else:
                corner = homs[i, k] = hom_space(M, N)
                labels.extend("f%d_%d_%d" % (i, k, m) for m in range(len(corner)))
            corners[i, k] = corner
            basis_morphisms.extend((i, k, g) for g in corner)
    # mul(a, b) = "a then b" = b o a, which is zero unless b starts where a ends
    constants = {}
    coordinate_maps = {}  # (i, k) -> coordinates over the corner (i, k)
    for (i, j), A in corners.items():
        for k in range(n):
            B = corners[j, k]
            if not (A and B):
                continue
            coordinates = coordinate_maps.get((i, k))
            if coordinates is None:
                coordinates = coordinate_maps[i, k] = \
                    coordinate_map(corners[i, k], summands[i], summands[k])
            base = offsets[i, k]
            for x, a in enumerate(A, offsets[i, j]):
                for y, b in enumerate(B, offsets[j, k]):
                    cell = [(base + m, c) for m, c in enumerate(coordinates(b.compose(a))) if c]
                    if cell:
                        constants[x, y] = cell
    is_idempotent = set(idempotent_positions)
    for (x, _), cell in constants.items():
        if x not in is_idempotent and any(m in is_idempotent for m, _ in cell):
            i, k, _ = basis_morphisms[x]
            raise IsomorphicSummands(i, k)
    idempotents = []
    for pos in idempotent_positions:
        z = [F.zero()] * len(labels)
        z[pos] = F.one()
        idempotents.append(tuple(z))
    algebra = FiniteAlgebra(F, labels, constants, idempotents)
    algebra._radical = sparse_span(F, len(labels), [
        {m: F.one()} for m in range(len(labels)) if m not in is_idempotent])
    return AuslanderData(algebra, summands, T, basis_morphisms, homs)


def projective_row(data_or_algebra, k) -> FinModule:
    """The right ideal e_k S as a module, its action built once per
    algebra."""
    S = data_or_algebra.algebra if isinstance(data_or_algebra, AuslanderData) \
        else data_or_algebra
    memo = S._projective_rows.get(k)
    if memo is None:
        memo = S._projective_rows[k] = _right_ideal_action(S, k)
    return FinModule(S, *memo, check=False)


def _right_ideal_action(S: FiniteAlgebra, k):
    """(dim, sparse action) of e_k S, from the structure constants.

    e_k S is a right ideal, so the span of the e_k b_j is closed under the
    action.  The action matrix of b_m has as row r the coordinates of
    (basis row r) b_m, which are read (and checked) only when that product
    is nonzero."""
    F, n = S.field, S.dim
    one = F.one()

    def right_support(v):  # the m with b_i b_m nonzero for some i in v
        return {m for i in v for m in S._rows[i]}
    ek = S._sparse(S.idempotents[k])
    vecs = [v for v in (S._sparse_mul(ek, {j: one}) for j in right_support(ek)) if v]
    sub = sparse_span(F, n, vecs)
    action = [{} for _ in range(n)]  # m -> the nonzero rows of the action matrix of b_m
    for r, row in enumerate(sub.nonzero_rows):
        row = dict(row)
        for m in right_support(row):
            prod = S._sparse_mul(row, {m: one})
            if prod:
                action[m][r] = _coordinates(sub, prod)
    return sub.dim, tuple(action)


def simple_module(data_or_algebra, k) -> FinModule:
    """The simple top of e_k S (split basic case)."""
    S = data_or_algebra.algebra if isinstance(data_or_algebra, AuslanderData) \
        else data_or_algebra
    row = projective_row(S, k)
    rad = row.radical_subspace(S.radical())
    quo, _ = row.quotient(rad)
    return quo


# -- functor evaluation ---------------------------------------------------


class FunctorValue:
    """The value V (x)_S Hom(T, X) of the functor of V at X: its `dim`, the
    `ambient` dimension nV * nH of the V (x) H coordinate grid, H a basis of
    Hom(T, X), and the `relations` there that the value is the quotient by.

    `relations` may be given as a function that builds them: it is called
    when the attribute is first read, and its result stored."""

    def __init__(self, dim, ambient, relations):
        self.dim, self.ambient = dim, ambient
        self._relations = relations

    @property
    def relations(self) -> Subspace:
        if not isinstance(self._relations, Subspace):
            self._relations = self._relations()
        return self._relations

    def basis_vectors(self):
        """Canonical coset representatives in the V (x) H coordinate grid."""
        q = QuotientSpace(Subspace.full(self.relations.field, self.ambient),
                          self.relations)
        return [q.lift(i) for i in range(q.dim)]


def functor_eval(V: FinModule, X, data: AuslanderData) -> FunctorValue:
    """The functor of V at X, V (x)_S Hom(T, X).

    At a summand M_x of T (by identity), Hom(T, M_x) is S e_x as a left
    S-module (Yoneda), so the value is V (x)_S S e_x = V e_x: its dim is the
    rank of the action of e_x on V, and no Hom(T, M_x) action is built until
    the relations are read.  At any other X, the relations are spanned
    first and the dim read off them."""
    if V.algebra is not data.algebra:
        raise AlgebraMismatch("module over a different Auslander algebra")
    if X.algebra != data.sum_rep.algebra:
        raise AlgebraMismatch("argument over the wrong quiver algebra")
    x = next((k for k, N in enumerate(data.summands) if N is X), None)
    if x is None:
        rel = _eval_relations(V, X, data)
        return FunctorValue(rel.ambient_dim - rel.dim, rel.ambient_dim, rel)
    nH = sum(len(data.homs[i, x]) for i in range(len(data.summands)))
    dim = V.sort_dim(x)
    return FunctorValue(dim, V.dim * nH, lambda: _eval_relations(V, X, data))


def _eval_relations(V: FinModule, X, data: AuslanderData) -> Subspace:
    """The relations v s (x) h - v (x) s h of V (x)_S Hom(T, X), spanned in
    the nV * nH coordinate grid."""
    F = V.field
    H, actions = data.hom_action(X)
    nH = len(H)
    nV = V.dim
    if nV * nH == 0:
        return Subspace.zero(F, 0)
    # written as the commuting squares of one nV x nH block: P the action of
    # s on H, Q that on V
    squares = []
    for rows, cols in zip(V.sparse_action, actions):
        if cols or rows:
            q_rows = [rows.get(i, ()) for i in range(nV)]
            squares.append((0, 0, [cols.get(j, ()) for j in range(nH)], q_rows))
    return sparse_span(F, nV * nH, sparse_commuting_equations(F, [(nV, nH)], squares))


def pp_functor_crosscheck(pair, V: FinModule, data: AuslanderData, modules) -> bool:
    """Whether the pp-pair and the S-module define the same dimensions."""
    return all(eval_pair(pair, M) == functor_eval(V, M, data).dim for M in modules)


# -- Serre quotients ------------------------------------------------------


@dataclass(frozen=True)
class SerreData:
    simples: frozenset  # idempotent indices

    def __post_init__(self):
        object.__setattr__(self, "simples", frozenset(self.simples))


def composition_support(X: FinModule):
    """Indices i with [X : T_i] = dim X e_i > 0 (split basic case)."""
    return {i for i in range(len(X.algebra.idempotents)) if X.sort_dim(i)}


def serre_from_generator(functors, G, data: AuslanderData) -> SerreData:
    """Simples of the functors vanishing on G."""
    sigma = set()
    for X in functors:
        if functor_eval(X, G, data).dim == 0:
            sigma |= composition_support(X)
    return SerreData(frozenset(sigma))


def torsion_part(X: FinModule, serre: SerreData) -> Subspace:
    """t(X): the largest submodule with all composition factors in Sigma,
    the v with v S e_i = 0 for every i outside Sigma.  S e_i is spanned by
    the products b_m e_i, so t(X) is one kernel: of the columns of the
    action of every nonzero b_m e_i."""
    S = X.algebra
    one = X.field.one()
    columns = []
    for i in range(len(S.idempotents)):
        if i not in serre.simples:
            e = S._sparse(S.idempotents[i])
            for m in range(S.dim):
                x = S._sparse_mul({m: one}, e)
                by_column = {}
                for r, row in X._combination(x.items()).items():
                    for j, y in row.items():
                        by_column.setdefault(j, {})[r] = y
                columns.extend(by_column.values())
    return kernel(sparse_span(X.field, X.dim, columns).basis)


def minimal_cotorsion(X: FinModule, serre: SerreData) -> Subspace:
    """X_min: the smallest submodule with X / X_min in the Serre class, the
    submodule generated by the X e_i for every i outside Sigma."""
    rows = []
    for i in range(len(X.algebra.idempotents)):
        if i not in serre.simples:
            rows.extend(X.sort_rows(i))
    return X.submodule(rows)


@dataclass
class QHom:
    """Hom in the Serre quotient, as matrices X_min-coords -> (Y/tY)-coords."""

    X: FinModule
    Y: FinModule
    serre: SerreData
    x_min: Subspace
    y_tors: Subspace
    basis: list  # matrices, row convention


def quotient_hom(X: FinModule, Y: FinModule, serre: SerreData,
                 x_min=None, y_tors=None) -> QHom:
    """Hom(X_min, Y / t(Y)); X_min and t(Y) are computed unless given."""
    if x_min is None:
        x_min = minimal_cotorsion(X, serre)
    if y_tors is None:
        y_tors = torsion_part(Y, serre)
    dom = X.restrict(x_min)
    cod, _ = Y.quotient(y_tors)
    return QHom(X, Y, serre, x_min, y_tors, fin_hom(dom, cod))


def qhom_identity(X: FinModule, serre: SerreData, x_min=None, t=None) -> Matrix:
    """The image of the identity: X_min included in X, projected mod t(X);
    X_min and t(X) are computed unless given."""
    if x_min is None:
        x_min = minimal_cotorsion(X, serre)
    if t is None:
        t = torsion_part(X, serre)
    q = QuotientSpace(Subspace.full(X.field, X.dim), t)
    rows = [q.project_vector(r) for r in x_min.basis_rows()]
    return Matrix.from_rows(X.field, rows) if rows else Matrix(X.field, 0, q.dim, ())


def qhom_compose(g_data: QHom, g: Matrix, f_data: QHom, f: Matrix) -> Matrix:
    """g o f for f: X -> Y and g: Y -> Z in the quotient category."""
    return _qhom_lift(g_data, f_data)(g, f)


def _qhom_lift(g_data: QHom, f_data: QHom):
    """The composition (g, f) -> g o f for f in f_data and g in g_data, with
    the lift of Y/t(Y)-coordinates to Y_min reduced once."""
    F = f_data.X.field
    Y = f_data.Y
    y_min = g_data.x_min
    y_tors = f_data.y_tors
    qY = QuotientSpace(Subspace.full(F, Y.dim), y_tors)
    w_rows = [qY.project_vector(r) for r in y_min.basis_rows()]
    wmat = Matrix.from_rows(F, w_rows).transpose() if w_rows \
        else Matrix(F, qY.dim, 0, ())
    # g kills Y_min n t(Y): solutions of the lift are unique enough
    lift = Solver(wmat)

    def compose(g: Matrix, f: Matrix) -> Matrix:
        out_rows = []
        for i in range(f.rows):
            coeffs = lift.solve(f.row(i))
            if coeffs is None:
                raise PpcatError("composite does not factor; quotient recipe violated")
            out_rows.append(row_apply(coeffs, g))
        return Matrix.from_rows(F, out_rows) if out_rows else Matrix(F, 0, g.cols, ())
    return compose


@dataclass
class SkeletonReport:
    classes: list      # lists of surviving functor indices, mutually isomorphic
    discarded: list    # indices of functors in the Serre class
    certain: bool


def quotient_skeleton(functors, serre: SerreData, seed=0) -> SkeletonReport:
    """Group the survivors into quotient-isomorphism classes.

    t(X) is computed once per functor, and X_min once per functor that a
    pair needs."""
    functors = list(functors)
    tors = [torsion_part(X, serre) for X in functors]
    discarded = [k for k, X in enumerate(functors) if tors[k].dim == X.dim]
    survivors = [k for k, X in enumerate(functors) if tors[k].dim != X.dim]
    mins = {}

    def x_min(k):
        if k not in mins:
            mins[k] = minimal_cotorsion(functors[k], serre)
        return mins[k]

    certain = True
    classes = []
    reps = []  # class representatives

    def mutually_inverse(i, j):
        nonlocal certain
        Xi, Xj = functors[i], functors[j]
        fwd = quotient_hom(Xi, Xj, serre, x_min(i), tors[j])
        bwd = quotient_hom(Xj, Xi, serre, x_min(j), tors[i])
        if not fwd.basis or not bwd.basis:
            return False
        id_i = qhom_identity(Xi, serre, x_min(i), tors[i])
        id_j = qhom_identity(Xj, serre, x_min(j), tors[j])
        after_fwd = _qhom_lift(bwd, fwd)  # (g, f) -> g o f, Xi -> Xj -> Xi
        after_bwd = _qhom_lift(fwd, bwd)  # (f, g) -> f o g, Xj -> Xi -> Xj
        F_ = Xi.field
        exhaustive = F_.char != 0 and F_.char ** len(bwd.basis) <= 2 ** 16
        for g in _candidates(bwd.basis, F_, exhaustive, seed):
            f = _solve_left_inverse(fwd.basis, g, id_i, after_fwd)
            if f is None:
                continue
            if after_fwd(g, f) == id_i and after_bwd(f, g) == id_j:
                return True
        if not exhaustive:
            certain = False
        return False

    for k in survivors:
        placed = False
        for cls, rep_idx in zip(classes, reps):
            if mutually_inverse(rep_idx, k):
                cls.append(k)
                placed = True
                break
        if not placed:
            classes.append([k])
            reps.append(k)
    return SkeletonReport(classes, discarded, certain)


def _candidates(basis, F, exhaustive, seed):
    """Elements of the span of `basis`, generated as they are tried: every
    nonzero combination over a small F_p when `exhaustive`, else the basis
    and then 256 combinations drawn from Random(seed)."""
    if exhaustive:
        for coeffs in iter_product(range(F.char), repeat=len(basis)):
            if any(coeffs):
                yield linear_combination(basis, [F.from_int(c) for c in coeffs])
        return
    yield from basis
    rng = random.Random(seed)
    hi = F.char if F.char else 7
    for _ in range(256):
        coeffs = [F.from_int(rng.randrange(hi) - (0 if F.char else 3)) for _ in basis]
        yield linear_combination(basis, coeffs)


def _solve_left_inverse(basis, g: Matrix, id_i: Matrix, compose):
    """Find f in the span of `basis` with compose(g, f) = g o f = id, by
    linear solve."""
    if not basis:
        return None
    mat = Matrix.from_rows(g.field, [compose(g, b).entries for b in basis]).transpose()
    sol = solve(mat, id_i.entries)
    return None if sol is None else linear_combination(basis, sol)


# -- presenting a quiver algebra as a FiniteAlgebra ------------------------


def quiver_algebra_to_finite(alg: QuiverAlgebra) -> FiniteAlgebra:
    """Basis of irreducible paths; products are composition then reduction."""
    verts = alg.quiver.vertices
    paths = []
    for v in verts:
        paths.append(next(p for p in alg.hom_basis(v, v) if p.is_lazy()))
    for s in verts:
        for t in verts:
            for p in alg.hom_basis(s, t):
                if not p.is_lazy():
                    paths.append(p)
    F = alg.field
    index = {p: i for i, p in enumerate(paths)}

    def coords(elem):
        vec = [F.zero()] * len(paths)
        for p, c in elem.terms.items():
            vec[index[p]] = c
        return tuple(vec)

    from .quiver import RingElement
    table = []
    for p in paths:
        row = []
        pe = RingElement.from_path(F, p)
        for q in paths:
            qe = RingElement.from_path(F, q)
            if p.target == q.source:  # mul(p, q) = "p then q" = q o p
                row.append(coords(alg.reduce(compose(qe, pe))))
            else:
                row.append((F.zero(),) * len(paths))
        table.append(row)
    idempotents = []
    for k in range(len(verts)):
        z = [F.zero()] * len(paths)
        z[k] = F.one()
        idempotents.append(tuple(z))
    return FiniteAlgebra(F, tuple(str(p) for p in paths), table, idempotents)


def basic_algebra_isomorphism(A: FiniteAlgebra, B: FiniteAlgebra):
    """Search for an isomorphism aligning idempotents and one-dimensional
    corners (enough for multiplicity-free basic algebras like the fixtures).

    Returns a basis-to-vector mapping as a matrix (rows = images of A's basis
    in B's coordinates), or None.
    """
    from itertools import permutations
    if A.dim != B.dim or len(A.idempotents) != len(B.idempotents):
        return None
    n = len(A.idempotents)
    cornersA = {(k, l): A.corner(k, l) for k in range(n) for l in range(n)}
    cornersB = {(k, l): B.corner(k, l) for k in range(n) for l in range(n)}
    for perm in permutations(range(n)):
        if any(cornersA[(k, l)].dim != cornersB[(perm[k], perm[l])].dim
               for k in range(n) for l in range(n)):
            continue
        mapping = _standard_basis_mapping(A, B, perm, cornersA, cornersB)
        if mapping is not None and _is_homomorphism(A, B, mapping):
            return mapping
    return None


def _standard_basis_mapping(A, B, perm, cornersA, cornersB):
    """Map A's k-th basis vector to the matching corner basis vector of B."""
    F = A.field
    n = len(A.idempotents)

    def corner_of(alg, corners, vec):
        for (k, l), c in corners.items():
            if c.contains_vector(vec) and any(not F.is_zero(x) for x in vec):
                return (k, l)
        return None

    usedB = {}
    rows = []
    for i in range(A.dim):
        vec = A.basis_vector(i)
        pos = corner_of(A, cornersA, vec)
        if pos is None:
            return None
        k, l = pos
        tgt = cornersB[(perm[k], perm[l])]
        slot = usedB.setdefault((perm[k], perm[l]), 0)
        cand = tgt.basis_rows()
        if k == l:
            idb = B.idempotents[perm[k]]
            cand = [idb] + [r for r in cand if r != tuple(idb)]
        if slot >= len(cand):
            return None
        usedB[(perm[k], perm[l])] = slot + 1
        rows.append(cand[slot])
    return Matrix.from_rows(F, rows)


def _is_homomorphism(A, B, mapping: Matrix) -> bool:
    F = A.field
    if kernel(mapping).dim != 0:
        return False
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = row_apply(A.mul(A.basis_vector(i), A.basis_vector(j)), mapping)
            rhs = B.mul(mapping.row(i), mapping.row(j))
            if tuple(lhs) != tuple(rhs):
                return False
    return True

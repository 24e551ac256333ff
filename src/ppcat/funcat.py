"""Desk-scale functor categories for finite representation type.

The endomorphism algebra of a complete direct sum of indecomposables is built
as a FiniteAlgebra (basis, structure constants, primitive idempotents); its
right modules stand in for finitely presented functors, evaluated through
V (x)_S Hom(T, X).  Serre subcategories of this finite-length setting are
recorded by their sets of simples Sigma, and the quotient by one is reached
as mod-eSe, e the sum of the idempotents outside Sigma: a functor X goes to
the eSe-module Xe, so quotient homs and isomorphisms are those of the Xe.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import (
    AlgebraMismatch, CharacteristicTooSmall, DimensionMismatch, IsomorphicSummands, NotASubspace,
    NotSplitEndo, PpcatError,
)
from .linalg import (
    QuotientSpace, Subspace, block_matrix, commuting_solutions, kernel, sparse_commuting_equations,
    sparse_span,
)
from .ppeval import eval_pair
from .rep import (
    RepMorphism, coordinate_map, direct_sum, endo_radical, find_invertible, hom_space,
    linear_combination,
)


class FiniteAlgebra:
    """A finite-dimensional algebra by structure constants.

    Products read left to right: "a b" is "a then b" (for endomorphism
    algebras this is composition b o a), so right modules over an Auslander
    algebra decompose by which summand a morphism starts from.

    `constants` maps (i, j) to the (k, c) pairs of b_i b_j = sum c b_k; a
    pair missing from it multiplies to zero.  Only the nonzero constants are
    kept.  The constructor checks no algebra axiom: the algebras ppcat
    builds (`auslander_algebra`, the corners of `quotient_modules`) are
    basic by construction, with their primitive idempotents among their
    basis elements, and store their radical.
    """

    def __init__(self, field, labels, constants, idempotents):
        self.field = field
        self.labels = tuple(labels)
        self.idempotents = tuple(tuple(e) for e in idempotents)
        n = len(self.labels)
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
        self._radical = None  # stored by the construction, see radical()
        # memo of projective_row (k -> e_k S), kept as the dim and sparse
        # action so that it holds no module pointing back at self
        self._projective_rows = {}

    @property
    def dim(self):
        return len(self.labels)

    def _sparse(self, vec):
        """vec as {index: nonzero coordinate}, the coordinates as field values."""
        add, zero = self.field.add, self.field.zero()
        return {k: c for k, c in ((k, add(zero, c)) for k, c in enumerate(vec) if c) if c}

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

    def radical(self) -> Subspace:
        """The radical as a subspace of the coordinate space, as the
        algebra's construction stored it (`_store_basic_radical`).
        Characteristic at most dim is refused: there the trace form, which
        checks a stored radical, need not give the radical."""
        F = self.field
        d = self.dim
        if F.char != 0 and F.char <= d:
            raise CharacteristicTooSmall(
                "characteristic %d too small for dim %d" % (F.char, d))
        if self._radical is None:
            raise PpcatError("no radical stored for this algebra")
        return self._radical

    def _corner(self, e, f):
        """e A f, for e and f given as {index: nonzero coordinate}: the span
        of the e b_i f, formed only for the b_i with b_a b_i nonzero for some
        a in the support of e (e kills every other b_i)."""
        one = self.field.one()
        return sparse_span(self.field, self.dim, [
            self._sparse_mul(self._sparse_mul(e, {i: one}), f)
            for i in {i for a in e for i in self._rows[a]}])


def _store_basic_radical(S: FiniteAlgebra):
    """Store as the radical of S the span of its basis elements outside the
    supports of its idempotents.  Only for an S built basic, its basis the
    primitive idempotents and a basis of the radical."""
    support = {m for e in S.idempotents for m, c in enumerate(e) if c}
    S._radical = sparse_span(S.field, S.dim, [
        {m: S.field.one()} for m in range(S.dim) if m not in support])


class FinModule:
    """A right module over a FiniteAlgebra: row vectors, one action per basis
    element of the algebra, kept sparse.

    `action` holds per basis element a dict from each nonzero row of its
    matrix to that row's nonzero (column, value) pairs, rows and columns in
    increasing order; it is kept as `sparse_action`.  The constructor checks
    no module axiom: ppcat builds its modules from the algebra's own
    constants."""

    def __init__(self, algebra: FiniteAlgebra, dim, action):
        self.algebra = algebra
        self.dim = dim
        self.sparse_action = tuple(action)
        if len(self.sparse_action) != algebra.dim:
            raise DimensionMismatch("one action matrix per algebra basis element")

    @property
    def field(self):
        return self.algebra.field

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
        return FinModule(self.algebra, q.dim, action), q

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


def _restricted_action(sub: Subspace, actions, p):
    """The matrices given by their sparse rows in `actions`, each mapping sub
    into itself, restricted to sub on its RREF basis: row r of each is the
    coordinates of (basis row r) times the matrix."""
    out = []
    for A in actions:
        rows = {}
        for r, row in enumerate(sub.nonzero_rows):
            image = _row_times(row, A, p)
            if image:
                rows[r] = _coordinates(sub, image)
        out.append(rows)
    return out


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
        # the canonical basis of Hom(M_i, X) per summand, which M_i remembers
        # when X is a summand
        parts = [hom_space(M, X) for M in self.summands]
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
    # the product a b is "a then b" = b o a, which is zero unless b starts where a ends
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
    _store_basic_radical(algebra)
    return AuslanderData(algebra, summands, T, basis_morphisms, homs)


def projective_row(data_or_algebra, k) -> FinModule:
    """The right ideal e_k S as a module, its action built once per
    algebra."""
    S = data_or_algebra.algebra if isinstance(data_or_algebra, AuslanderData) \
        else data_or_algebra
    memo = S._projective_rows.get(k)
    if memo is None:
        memo = S._projective_rows[k] = _right_ideal_action(S, k)
    return FinModule(S, *memo)


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


def quotient_modules(functors, serre: SerreData):
    """The Xe of the functors X, all over one corner algebra eSe, e the sum
    of the e_i with i outside Sigma.  The Serre quotient of mod-S by the
    class of Sigma is mod-eSe, by X -> Xe (Gabriel 1962), so Hom in the
    quotient is fin_hom(Xe, Ye) and quotient isomorphism is isomorphism of
    eSe-modules.

    eSe is the span of the e b_m e on its RREF basis, its constants S's own
    read over that basis and its idempotents the e_i outside Sigma, in
    order.  Xe is the span of the X e_i outside Sigma, and each basis
    element of eSe acts on it by its S-coordinates.

    S is basic as `auslander_algebra` builds it: each basis element lies in
    one corner e_i S e_k, and the idempotents are basis elements.  So the
    RREF basis of eSe is the b_m of the kept corners, and eSe is basic in
    the same way: its radical, the span of its non-idempotent basis
    elements, is stored."""
    functors = list(functors)
    if not functors:
        return []
    S = functors[0].algebra
    if any(X.algebra is not S for X in functors):
        raise AlgebraMismatch("quotient of modules over different algebras")
    F, p = S.field, S.field.char
    kept = [i for i in range(len(S.idempotents)) if i not in serre.simples]
    acc = {}
    for i in kept:
        for m, c in S._sparse(S.idempotents[i]).items():
            acc[m] = acc.get(m, 0) + c
    e = _nonzero(acc, p)
    corner = S._corner(e, e)
    basis = [dict(row) for row in corner.nonzero_rows]
    constants = {}
    for a, x in enumerate(basis):
        for b, y in enumerate(basis):
            product = S._sparse_mul(x, y)
            if product:
                constants[a, b] = _coordinates(corner, product)
    idempotents = []
    for i in kept:
        coordinates = dict(_coordinates(corner, S._sparse(S.idempotents[i])))
        idempotents.append(tuple(coordinates.get(t, F.zero()) for t in range(corner.dim)))
    eSe = FiniteAlgebra(F, [S.labels[c] for c in corner.pivots], constants, idempotents)
    _store_basic_radical(eSe)

    def corner_module(X):
        sub = sparse_span(F, X.dim, [row for i in kept for row in X.sort_rows(i)])
        actions = ({r: tuple(row.items()) for r, row in X._combination(x.items()).items()}
                   for x in basis)
        return FinModule(eSe, sub.dim, _restricted_action(sub, actions, p))
    return [corner_module(X) for X in functors]


@dataclass
class SkeletonReport:
    classes: list      # lists of surviving functor indices, mutually isomorphic
    discarded: list    # indices of functors in the Serre class
    certain: bool


def quotient_skeleton(functors, serre: SerreData, seed=0) -> SkeletonReport:
    """Group the survivors into quotient-isomorphism classes, through
    `quotient_modules`: X is discarded when Xe = 0, and two survivors are
    isomorphic in the quotient when their Xe are (`fin_are_isomorphic`).
    The report is uncertain only when some pair stays undecided."""
    corners = quotient_modules(functors, serre)
    discarded = [k for k, Xe in enumerate(corners) if Xe.dim == 0]
    certain = True
    classes = []
    for k, Xe in enumerate(corners):
        if Xe.dim == 0:
            continue
        for cls in classes:
            iso, sure = fin_are_isomorphic(corners[cls[0]], Xe, seed)
            certain = certain and sure
            if iso:
                cls.append(k)
                break
        else:
            classes.append([k])
    return SkeletonReport(classes, discarded, certain)

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
from dataclasses import dataclass, field as dc_field
from itertools import product as iter_product

from .errors import (
    AlgebraMismatch, CharacteristicTooSmall, DimensionMismatch, NotSplitEndo, PpcatError,
)
from .linalg import (
    Matrix, QuotientSpace, Solver, Subspace, commuting_equations, commuting_solutions, kernel,
    rank, row_apply, solve, trace_form_radical, trace_gram, vstack,
)
from .ppeval import eval_pair
from .quiver import QuiverAlgebra, compose
from .rep import (
    coordinate_map, direct_sum, endo_radical, find_invertible, hom_space, linear_combination,
    summand_inclusion, summand_projection,
)


class FiniteAlgebra:
    """A finite-dimensional algebra by multiplication table.

    Products read left to right: mul(a, b) is "a then b" (for endomorphism
    algebras this is composition b o a), so right modules over an Auslander
    algebra decompose by which summand a morphism starts from.
    """

    def __init__(self, field, labels, table, idempotents, validate=True):
        self.field = field
        self.labels = tuple(labels)
        self.table = tuple(tuple(tuple(cell) for cell in row) for row in table)
        self.idempotents = tuple(tuple(e) for e in idempotents)
        n = len(self.labels)
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise DimensionMismatch("multiplication table shape mismatch")
        # structure constants: the nonzero (k, c) of every cell, as field values
        add, zero = field.add, field.zero()
        self._constants = tuple(
            tuple(tuple((k, add(zero, c)) for k, c in enumerate(cell) if not field.is_zero(c))
                  for cell in row)
            for row in self.table)
        one = field.one()
        self._basis = tuple(tuple(one if i == k else zero for i in range(n)) for k in range(n))
        self._radical = None  # memo of radical()
        # memos of regular_module() and of projective_row (k -> e_k S), kept as
        # (dim, action) so that they hold no module pointing back at self
        self._regular = None
        self._projective_rows = {}
        if validate:
            self._validate()

    @property
    def dim(self):
        return len(self.labels)

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
        F = self.field
        p = F.char
        out = [0 if p else F.zero()] * self.dim
        nonzero_b = [(j, cb) for j, cb in enumerate(b) if cb]
        for ca, row in zip(a, self._constants):
            if ca:
                for j, cb in nonzero_b:
                    c = ca * cb
                    for k, ck in row[j]:
                        out[k] += c * ck
        return tuple(x % p for x in out) if p else tuple(out)

    def regular_module(self):
        """The right regular module; the action matrix of b_k has row i equal
        to b_i b_k, read off the structure constants (once per algebra)."""
        d = self.dim
        if self._regular is None:
            zero = self.field.zero()
            action = []
            for k in range(d):
                ents = [zero] * (d * d)
                for i, row in enumerate(self._constants):
                    for m, c in row[k]:
                        ents[i * d + m] = c
                action.append(Matrix(self.field, d, d, tuple(ents)))
            self._regular = tuple(action)
        return FinModule(self, d, self._regular, check=False)

    def radical(self) -> Subspace:
        """Radical as a subspace of the coordinate space, via the trace form
        of the regular representation (char 0 or char > dim); computed once."""
        F = self.field
        d = self.dim
        if F.char != 0 and F.char <= d:
            raise CharacteristicTooSmall(
                "characteristic %d too small for dim %d" % (F.char, d))
        if self._radical is None:
            mats = self.regular_module().action
            self._radical = trace_form_radical(trace_gram(F, [(m,) for m in mats]))
        return self._radical

    def corner(self, k, l):
        """Basis vectors of e_k A e_l."""
        F = self.field
        ek, el = self.idempotents[k], self.idempotents[l]
        vecs = [self.mul(self.mul(ek, self.basis_vector(i)), el) for i in range(self.dim)]
        return Subspace.from_vectors(F, self.dim, vecs)

    def _validate(self):
        n = self.dim
        self._check_associative()
        one = self.unit_vector()
        for i in range(n):
            b = self.basis_vector(i)
            if self.mul(one, b) != b or self.mul(b, one) != b:
                raise PpcatError("idempotents do not sum to a unit")
        for a, ea in enumerate(self.idempotents):
            for b, eb in enumerate(self.idempotents):
                want = ea if a == b else self.zero_vector()
                if self.mul(ea, eb) != want:
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
        over those of b_i b_j, the right one over those of b_j b_k.  So when
        both products are zero both sides are zero; every other triple is
        computed and compared."""
        p = self.field.char
        C = self._constants
        n = self.dim

        def combine(scaled_cells):
            acc = {}
            for c, cell in scaled_cells:
                for l, x in cell:
                    acc[l] = acc.get(l, 0) + c * x
            return {l: v for l, v in ((l, v % p if p else v) for l, v in acc.items()) if v}

        for j in range(n):
            right = [k for k in range(n) if C[j][k]]
            for i in range(n):
                for k in range(n) if C[i][j] else right:
                    lhs = combine((c, C[m][k]) for m, c in C[i][j])
                    rhs = combine((c, C[i][m]) for m, c in C[j][k])
                    if lhs != rhs:
                        raise PpcatError("multiplication table is not associative")

    def _corner_residue_dim(self, c: Subspace):
        F = self.field
        d = c.dim
        if F.char != 0 and F.char <= d:
            raise CharacteristicTooSmall("corner check needs larger characteristic")
        rows = c.basis_rows()
        mats = [Matrix.from_rows(F, [c.coordinates(self.mul(b, r)) for b in rows]) for r in rows]
        return d - trace_form_radical(trace_gram(F, [(m,) for m in mats])).dim


class FinModule:
    """A right module over a FiniteAlgebra: row vectors, one action matrix
    per basis element of the algebra."""

    def __init__(self, algebra: FiniteAlgebra, dim, action, check=True):
        self.algebra = algebra
        self.dim = dim
        self.action = tuple(action)
        if len(self.action) != algebra.dim:
            raise DimensionMismatch("one action matrix per algebra basis element")
        for m in self.action:
            if m.rows != dim or m.cols != dim:
                raise DimensionMismatch("action matrix shape mismatch")
        if check:
            self._validate()

    @property
    def field(self):
        return self.algebra.field

    def act_vector(self, vec):
        """Action matrix of an algebra element given by coordinates."""
        F = self.field
        out = Matrix.zero(F, self.dim, self.dim)
        for c, m in zip(vec, self.action):
            if not F.is_zero(c):
                out = out.add(m.scale(c))
        return out

    def _validate(self):
        F = self.field
        if self.act_vector(self.algebra.unit_vector()) != Matrix.identity(F, self.dim):
            raise PpcatError("unit does not act as the identity")
        n = self.algebra.dim
        for i in range(n):
            for j in range(n):
                prod = self.algebra.mul(self.algebra.basis_vector(i),
                                        self.algebra.basis_vector(j))
                if self.act_vector(prod) != self.action[i].mul(self.action[j]):
                    raise PpcatError("action does not respect the structure constants")

    def submodule(self, vectors) -> Subspace:
        """The smallest action-closed subspace containing the vectors."""
        F = self.field
        current = Subspace.from_vectors(F, self.dim, vectors)
        while True:
            vecs = list(current.basis_rows())
            for r in current.basis_rows():
                for m in self.action:
                    vecs.append(row_apply(r, m))
            nxt = Subspace.from_vectors(F, self.dim, vecs)
            if nxt.dim == current.dim:
                return nxt
            current = nxt

    def restrict(self, sub: Subspace) -> "FinModule":
        F = self.field
        rows = sub.basis_rows()
        action = []
        for m in self.action:
            mat = Matrix.from_rows(F, [sub.coordinates(row_apply(r, m)) for r in rows]) \
                if rows else Matrix(F, 0, 0, ())
            action.append(mat)
        return FinModule(self.algebra, sub.dim, action, check=False)

    def quotient(self, sub: Subspace):
        F = self.field
        q = QuotientSpace(Subspace.full(F, self.dim), sub)
        action = []
        for m in self.action:
            rows = [q.project_vector(row_apply(q.lift(i), m)) for i in range(q.dim)]
            action.append(Matrix.from_rows(F, rows) if rows else Matrix(F, 0, 0, ()))
        return FinModule(self.algebra, q.dim, action, check=False), q

    def radical_subspace(self, alg_radical: Subspace) -> Subspace:
        vecs = []
        for r in alg_radical.basis_rows():
            m = self.act_vector(r)
            for i in range(self.dim):
                vecs.append(m.row(i))
        return self.submodule(vecs)

    def socle(self, alg_radical: Subspace) -> Subspace:
        F = self.field
        mats = [self.act_vector(r).transpose() for r in alg_radical.basis_rows()]
        if not mats:
            return Subspace.full(F, self.dim)
        return kernel(vstack(mats))

    def isotypic_socle_part(self, alg_radical: Subspace, indices) -> Subspace:
        soc = self.socle(alg_radical)
        vecs = []
        for r in soc.basis_rows():
            for i in indices:
                vecs.append(row_apply(r, self.act_vector(self.algebra.idempotents[i])))
        return Subspace.from_vectors(self.field, self.dim, vecs)


def fin_hom(X: FinModule, Y: FinModule):
    """Basis of module maps X -> Y as dim(X) x dim(Y) matrices on row vectors:
    the f with f Y(s) = X(s) f for every basis element s."""
    if X.algebra is not Y.algebra:
        raise AlgebraMismatch("hom across algebras")
    squares = [(0, 0, B, A) for A, B in zip(X.action, Y.action)]
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
    return d - trace_form_radical(trace_gram(F, [(f,) for f in basis])).dim == 1


def fin_are_isomorphic(X: FinModule, Y: FinModule, seed=0):
    """(isomorphic, certain): search the hom space for an invertible matrix
    (see `rep.find_invertible`)."""
    if X.dim != Y.dim:
        return False, True
    if X.dim == 0:
        return True, True
    for ex, ey in zip(X.algebra.idempotents, Y.algebra.idempotents):
        if rank(X.act_vector(ex)) != rank(Y.act_vector(ey)):
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
    sum_rep: object
    basis_morphisms: list  # endomorphisms of sum_rep aligned with algebra basis
    summand_of_idempotent: list  # idempotent index -> summand index
    # memo of hom_action: argument module -> (basis of Hom(T, X), action matrices)
    _hom_actions: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    def hom_action(self, X):
        """A basis H of Hom(T, X), T = sum_rep, and for each basis morphism s
        of T the matrix of h -> h o s on H (column j holds the coordinates of
        H[j] o s); computed once per X."""
        memo = self._hom_actions.get(X)
        if memo is None:
            F = X.field
            H = hom_space(self.sum_rep, X)
            mats = []
            if H:
                coordinates = coordinate_map(H, self.sum_rep, X)
                for s in self.basis_morphisms:
                    cols = [coordinates(h.compose(s)) for h in H]
                    mats.append(Matrix.from_rows(F, cols).transpose())
            memo = self._hom_actions[X] = (H, mats)
        return memo


def auslander_algebra(indecomposables) -> AuslanderData:
    """End of the direct sum, with one idempotent per summand."""
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
    incls = [summand_inclusion(summands, k, T) for k in range(len(summands))]
    projs = [summand_projection(summands, k, T) for k in range(len(summands))]
    labels = []
    morphisms = []
    pairs = []  # (source summand, target summand) of each morphism
    idempotent_positions = []
    F = T.field
    for i in range(len(summands)):
        for j in range(len(summands)):
            if i == j:
                idempotent_positions.append(len(labels))
                labels.append("e%d" % i)
                morphisms.append(incls[i].compose(projs[i]))
                pairs.append((i, i))
                basis, rad = ends[i]
                for r, vec in enumerate(rad.basis_rows()):
                    f = linear_combination(basis, vec)
                    labels.append("r%d_%d" % (i, r))
                    morphisms.append(incls[i].compose(f).compose(projs[i]))
                    pairs.append((i, i))
            else:
                for k, g in enumerate(hom_space(summands[i], summands[j])):
                    labels.append("f%d_%d_%d" % (i, j, k))
                    morphisms.append(incls[j].compose(g).compose(projs[i]))
                    pairs.append((i, j))
    # mul(a, b) = "a then b" = b o a, which is zero unless b starts where a ends
    coordinates = coordinate_map(morphisms, T, T)
    zero = (F.zero(),) * len(morphisms)
    table = [[coordinates(b.compose(a)) if b_pair[0] == a_pair[1] else zero
              for b, b_pair in zip(morphisms, pairs)]
             for a, a_pair in zip(morphisms, pairs)]
    idempotents = []
    for pos in idempotent_positions:
        z = [F.zero()] * len(labels)
        z[pos] = F.one()
        idempotents.append(tuple(z))
    algebra = FiniteAlgebra(F, labels, table, idempotents)
    return AuslanderData(algebra, summands, T, morphisms,
                         list(range(len(summands))))


def projective_row(data_or_algebra, k) -> FinModule:
    """The right ideal e_k S as a module, built once per algebra."""
    S = data_or_algebra.algebra if isinstance(data_or_algebra, AuslanderData) \
        else data_or_algebra
    memo = S._projective_rows.get(k)
    if memo is None:
        reg = S.regular_module()
        ek = S.idempotents[k]
        vecs = [S.mul(ek, S.basis_vector(j)) for j in range(S.dim)]
        row = reg.restrict(reg.submodule(vecs))
        memo = S._projective_rows[k] = (row.dim, row.action)
    return FinModule(S, *memo, check=False)


def simple_module(data_or_algebra, k) -> FinModule:
    """The simple top of e_k S (split basic case)."""
    S = data_or_algebra.algebra if isinstance(data_or_algebra, AuslanderData) \
        else data_or_algebra
    row = projective_row(S, k)
    rad = row.radical_subspace(S.radical())
    quo, _ = row.quotient(rad)
    return quo


# -- functor evaluation ---------------------------------------------------


@dataclass
class FunctorValue:
    dim: int
    ambient: int
    relations: Subspace

    def basis_vectors(self):
        """Canonical coset representatives in the V (x) H coordinate grid."""
        q = QuotientSpace(Subspace.full(self.relations.field, self.ambient),
                          self.relations)
        return [q.lift(i) for i in range(q.dim)]


def functor_eval(V: FinModule, X, data: AuslanderData) -> FunctorValue:
    """dim of V (x)_S Hom(T, X) for the functor corresponding to V."""
    if V.algebra is not data.algebra:
        raise AlgebraMismatch("module over a different Auslander algebra")
    if X.algebra != data.sum_rep.algebra:
        raise AlgebraMismatch("argument over the wrong quiver algebra")
    F = V.field
    H, actions = data.hom_action(X)
    nH = len(H)
    nV = V.dim
    ambient = nV * nH
    if ambient == 0:
        return FunctorValue(0, 0, Subspace.zero(F, 0))
    # the relations v s (x) h - v (x) s h, written as the commuting squares
    # of one nV x nH block
    squares = [(0, 0, act_h, Av) for Av, act_h in zip(V.action, actions)]
    rel = Subspace.from_vectors(F, ambient, commuting_equations(F, [(nV, nH)], squares))
    return FunctorValue(ambient - rel.dim, ambient, rel)


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
    out = set()
    for i, e in enumerate(X.algebra.idempotents):
        m = X.act_vector(e)
        if any(not X.field.is_zero(x) for x in m.entries):
            out.add(i)
    return out


def serre_from_generator(functors, G, data: AuslanderData) -> SerreData:
    """Simples of the functors vanishing on G."""
    sigma = set()
    for X in functors:
        if functor_eval(X, G, data).dim == 0:
            sigma |= composition_support(X)
    return SerreData(frozenset(sigma))


def torsion_part(X: FinModule, serre: SerreData, alg_radical: Subspace) -> Subspace:
    """t(X): the largest submodule with all composition factors in Sigma."""
    F = X.field
    t = Subspace.zero(F, X.dim)
    while True:
        quo, q = X.quotient(t)
        part = quo.isotypic_socle_part(alg_radical, sorted(serre.simples))
        if part.dim == 0:
            return t
        vecs = list(t.basis_rows())
        for r in part.basis_rows():
            lift = [F.zero()] * X.dim
            for c, i in zip(r, range(q.dim)):
                if not F.is_zero(c):
                    lift = [F.add(a, F.mul(c, b)) for a, b in zip(lift, q.lift(i))]
            vecs.append(tuple(lift))
        t = X.submodule(vecs)


def minimal_cotorsion(X: FinModule, serre: SerreData, alg_radical: Subspace) -> Subspace:
    """X_min: the smallest submodule with X / X_min in the Serre class."""
    F = X.field
    outside = [i for i in range(len(X.algebra.idempotents)) if i not in serre.simples]
    current = Subspace.full(F, X.dim)
    while True:
        vecs = []
        rad_mats = [X.act_vector(r) for r in alg_radical.basis_rows()]
        out_mats = [X.act_vector(X.algebra.idempotents[i]) for i in outside]
        for r in current.basis_rows():
            for m in rad_mats + out_mats:
                vecs.append(row_apply(r, m))
        nxt = X.submodule(vecs)
        if nxt.dim == current.dim:
            return nxt
        current = nxt


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
                 alg_radical: Subspace) -> QHom:
    x_min = minimal_cotorsion(X, serre, alg_radical)
    y_tors = torsion_part(Y, serre, alg_radical)
    dom = X.restrict(x_min)
    cod, _ = Y.quotient(y_tors)
    return QHom(X, Y, serre, x_min, y_tors, fin_hom(dom, cod))


def qhom_identity(X: FinModule, serre: SerreData, alg_radical: Subspace) -> Matrix:
    """The image of the identity: X_min included in X, projected mod t(X)."""
    x_min = minimal_cotorsion(X, serre, alg_radical)
    t = torsion_part(X, serre, alg_radical)
    q = QuotientSpace(Subspace.full(X.field, X.dim), t)
    rows = [q.project_vector(r) for r in x_min.basis_rows()]
    return Matrix.from_rows(X.field, rows) if rows else Matrix(X.field, 0, q.dim, ())


def qhom_compose(g_data: QHom, g: Matrix, f_data: QHom, f: Matrix,
                 alg_radical: Subspace) -> Matrix:
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


def quotient_skeleton(functors, serre: SerreData, alg_radical: Subspace,
                      seed=0) -> SkeletonReport:
    """Group the survivors into quotient-isomorphism classes."""
    functors = list(functors)
    F = functors[0].field if functors else None
    discarded = []
    survivors = []
    for k, X in enumerate(functors):
        if torsion_part(X, serre, alg_radical).dim == X.dim:
            discarded.append(k)
        else:
            survivors.append(k)
    certain = True
    classes = []
    reps = []  # class representatives

    def mutually_inverse(i, j):
        nonlocal certain
        Xi, Xj = functors[i], functors[j]
        fwd = quotient_hom(Xi, Xj, serre, alg_radical)
        bwd = quotient_hom(Xj, Xi, serre, alg_radical)
        if not fwd.basis or not bwd.basis:
            return False
        id_i = qhom_identity(Xi, serre, alg_radical)
        id_j = qhom_identity(Xj, serre, alg_radical)
        after_fwd = _qhom_lift(bwd, fwd)  # (g, f) -> g o f, Xi -> Xj -> Xi
        after_bwd = _qhom_lift(fwd, bwd)  # (f, g) -> f o g, Xj -> Xi -> Xj
        rng = random.Random(seed)
        F_ = Xi.field
        candidates = list(bwd.basis)
        trials = 256
        if F_.char != 0 and F_.char ** len(bwd.basis) <= 2 ** 16:
            candidates = [linear_combination(bwd.basis, [F_.from_int(c) for c in coeffs])
                          for coeffs in iter_product(range(F_.char), repeat=len(bwd.basis))
                          if any(coeffs)]
            trials = 0
        for _ in range(trials):
            hi = F_.char if F_.char else 7
            coeffs = [F_.from_int(rng.randrange(hi) - (0 if F_.char else 3))
                      for _ in range(len(bwd.basis))]
            candidates.append(linear_combination(bwd.basis, coeffs))
        for g in candidates:
            f = _solve_left_inverse(fwd.basis, g, id_i, after_fwd)
            if f is None:
                continue
            if after_fwd(g, f) == id_i and after_bwd(f, g) == id_j:
                return True
        if trials:
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

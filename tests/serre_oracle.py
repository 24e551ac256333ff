"""The literal Serre quotient, kept as the reference for the corner route.

`ppcat.funcat` reaches the quotient of mod-S by the Serre class of Sigma
as mod-eSe, by X -> Xe (`quotient_modules`).  This module holds the route it
replaced, unchanged: Hom in the quotient built as Hom(X_min, Y / t(Y)), with
t(Y) the largest submodule in the class and X_min the smallest submodule
with X / X_min in it, composition through a lift along Y_min, and the
skeleton found by searching each pair's quotient homs for mutually inverse
maps (every combination over a small F_p, else the basis and 256 seeded
draws, each with a left inverse solved for).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product as iter_product

from ppcat.errors import PpcatError
from ppcat.funcat import FinModule, SerreData, SkeletonReport, fin_hom
from ppcat.linalg import Matrix, QuotientSpace, Solver, Subspace, kernel, sparse_span
from ppcat.rep import linear_combination

from algebra_oracle import combination, restrict, submodule
from linalg_oracle import row_apply, solve


def torsion_part(X: FinModule, serre: SerreData) -> Subspace:
    """t(X): the largest submodule with all composition factors in Sigma,
    the v with v S e_i = 0 for every i outside Sigma.  S e_i is spanned by
    the products b_m e_i, so t(X) is one kernel: of the columns of the
    action of every nonzero b_m e_i, read off the structure constants."""
    S = X.algebra
    columns = []
    for i in range(len(S.idempotents)):
        if i not in serre.simples:
            e = S.idempotents[i]
            for m in range(S.dim):
                by_column = {}
                for r, row in combination(X, S._rows[m].get(e, ())).items():
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
    return submodule(X, rows)


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
    dom = restrict(X, x_min)
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

"""Tensor products over a path category, and purity of monomorphisms.

A right module is a representation of the opposite algebra.  Tensoring with a
left module M is computed from a (non-minimal) projective presentation of the
right module: cover every component by representables, cover the kernel the
same way, and read the connecting morphisms off as path-algebra elements; the
tensor value is the cokernel of their action on M.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AlgebraMismatch, NotAdmissible, NotMono
from .linalg import (
    Matrix, QuotientSpace, Subspace, block_matrix, image, kernel, preimage,
)
from .ppeval import eval_formula, projective_rep
from .quiver import RingElement, reverse_path
from .rep import RepMorphism, Representation, act, direct_sum, kernel_of


def right_representable(alg, vertex) -> Representation:
    """The representable right module (-, vertex), over the opposite algebra."""
    return projective_rep(alg.opposite(), vertex)


def _cover_by_representables(L: Representation):
    """A surjection from a sum of representables hitting every basis vector."""
    op = L.algebra
    F = L.field
    summands = []       # (vertex, representable)
    gen_targets = []    # the basis vector each copy covers
    for v in op.quiver.vertices:
        P = projective_rep(op, v)
        for k in range(L.dims[v]):
            summands.append((v, P))
            e = [F.zero()] * L.dims[v]
            e[k] = F.one()
            gen_targets.append((v, tuple(e)))
    if not summands:
        P0 = Representation(op, {v: 0 for v in op.quiver.vertices}, {}, check=False)
        return [], P0, RepMorphism(P0, L, {}, check=False)
    P0 = direct_sum([P for _, P in summands])
    blocks = {}
    for w in op.quiver.vertices:
        cols = []
        for (v, P), (_, x) in zip(summands, gen_targets):
            for p in op.hom_basis(v, w):
                elem = RingElement.from_path(F, p)
                cols.append(act(L, elem).apply(x))
        blocks[w] = Matrix.from_rows(F, cols).transpose() if cols \
            else Matrix(F, L.dims[w], 0, ())
    return [v for v, _ in summands], P0, RepMorphism(P0, L, blocks, check=False)


@dataclass
class TensorPresentation:
    """P1 -> P0 -> L -> 0 with the connecting map stored as path elements."""

    algebra: object          # the left-module algebra
    cover_vertices: list     # vertex of each P0 summand
    relation_vertices: list  # vertex of each P1 summand
    elements: dict           # (P0 index, P1 index) -> RingElement (left algebra)


def present_right_module(L: Representation) -> TensorPresentation:
    op = L.algebra
    alg = op.opposite()
    if not op.admissible:
        raise NotAdmissible("tensor needs an admissible algebra")
    F = L.field
    cover_vs, P0, eps = _cover_by_representables(L)
    K, incl = kernel_of(eps)
    rel_vs, P1, kappa = _cover_by_representables(K)
    h = incl.compose(kappa)
    elements = {}
    for a, ja in enumerate(rel_vs):
        # generator coordinate of summand a inside P1(ja)
        off = 0
        for (jb, _) in zip(rel_vs[:a], range(a)):
            off += len(op.hom_basis(jb, ja))
        lazy_idx = next(i for i, p in enumerate(op.hom_basis(ja, ja)) if p.is_lazy())
        gen = [F.zero()] * P1.dims[ja]
        gen[off + lazy_idx] = F.one()
        img = h.blocks[ja].apply(tuple(gen))
        boff = 0
        for b, ib in enumerate(cover_vs):
            basis = op.hom_basis(ib, ja)
            terms = {}
            for p, c in zip(basis, img[boff:boff + len(basis)]):
                if not F.is_zero(c):
                    terms[reverse_path(p)] = c
            boff += len(basis)
            if terms:
                elements[(b, a)] = RingElement(F, ja, ib, terms)
    return TensorPresentation(alg, cover_vs, rel_vs, elements)


@dataclass
class TensorValue:
    dim: int
    quotient: QuotientSpace  # of the covering sum evaluated at the module


def tensor_value(pres: TensorPresentation, M: Representation) -> TensorValue:
    if M.algebra != pres.algebra:
        raise AlgebraMismatch("module over the wrong algebra")
    F = M.field
    big = block_matrix(F, {ba: act(M, r) for ba, r in pres.elements.items()},
                       [M.dims[v] for v in pres.cover_vertices],
                       [M.dims[v] for v in pres.relation_vertices])
    quo = QuotientSpace(Subspace.full(F, big.rows), image(big))
    return TensorValue(quo.dim, quo)


def tensor(L: Representation, M: Representation) -> TensorValue:
    """L (x) M for a right module L and left module M over the same algebra."""
    if L.algebra != M.algebra.opposite():
        raise AlgebraMismatch("right module is not over the opposite algebra")
    return tensor_value(present_right_module(L), M)


def tensor_induced_map(pres: TensorPresentation, f: RepMorphism,
                       tm: TensorValue, tn: TensorValue) -> Matrix:
    """The map L (x) M -> L (x) N induced by f: M -> N."""
    F = f.source.field
    cols = []
    for i in range(tm.dim):
        u = tm.quotient.lift(i)
        img = []
        off = 0
        for v in pres.cover_vertices:
            d = f.source.dims[v]
            img.extend(f.blocks[v].apply(u[off:off + d]))
            off += d
        cols.append(tn.quotient.project_vector(tuple(img)))
    return Matrix.from_rows(F, cols).transpose() if cols else Matrix(F, tn.dim, 0, ())


@dataclass
class PurityResult:
    pure: bool
    relative: bool       # True when the list was not declared complete
    failures: list       # indices into the supplied list

    def __bool__(self):
        return self.pure


def purity_tensor(f: RepMorphism, right_modules, complete=False) -> PurityResult:
    """Purity via injectivity of L (x) M -> L (x) N for the supplied L."""
    if not f.is_injective():
        raise NotMono("purity is about monomorphisms")
    failures = []
    for k, L in enumerate(right_modules):
        pres = present_right_module(L)
        tm = tensor_value(pres, f.source)
        tn = tensor_value(pres, f.target)
        induced = tensor_induced_map(pres, f, tm, tn)
        if kernel(induced).dim != 0:
            failures.append(k)
    return PurityResult(not failures, not complete, failures)


def purity_pp(f: RepMorphism, formulas, complete=False) -> PurityResult:
    """Purity via solution-set reflection for the supplied pp formulas."""
    if not f.is_injective():
        raise NotMono("purity is about monomorphisms")
    M, N = f.source, f.target
    failures = []
    for k, phi in enumerate(formulas):
        sol_m = eval_formula(phi, M).space
        sol_n = eval_formula(phi, N).space
        sorts = phi.free_sorts
        big = block_matrix(M.field, {(i, i): f.blocks[v] for i, v in enumerate(sorts)},
                           [N.dims[v] for v in sorts], [M.dims[v] for v in sorts])
        if preimage(big, sol_n) != sol_m:
            failures.append(k)
    return PurityResult(not failures, not complete, failures)

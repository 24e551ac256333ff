"""Tensor products over a path category, and purity of monomorphisms.

A right module L is a representation of the opposite algebra, a
contravariant functor on the path category, and a left module M a covariant
one.  L (x)_A M is their coend: the sum over the vertices v of
L(v) (x) M(v), modulo l.a (x) m - l (x) a.m for every arrow a.  The
relations of the algebra need no equations of their own, since they act as
zero on both modules, so no admissibility is needed either.

The sum is a grid of one dim L(v) x dim M(v) block per vertex, and the
relations of an arrow a: s -> t are the rows of the commuting square
X_t M(a) = L(a)^T X_s; the solutions of those squares are Hom(M, DL), the
dual of L (x) M.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AlgebraMismatch, NotMono
from .linalg import (
    Subspace, block_matrix, preimage, sparse_commuting_equations, sparse_span, sparse_squares,
)
from .ppeval import eval_formula
from .rep import RepMorphism, Representation


@dataclass
class TensorValue:
    dim: int
    relations: Subspace  # of the grid, the sum of the L(v) (x) M(v)


def tensor(L: Representation, M: Representation) -> TensorValue:
    """L (x) M for a right module L and left module M over the same algebra."""
    if L.algebra != M.algebra.opposite():
        raise AlgebraMismatch("right module is not over the opposite algebra")
    quiver = M.algebra.quiver
    index = {v: k for k, v in enumerate(quiver.vertices)}
    shapes = [(L.dims[v], M.dims[v]) for v in quiver.vertices]
    squares = [(index[a.source], index[a.target], M.maps[a.name], L.maps[a.name].transpose())
               for a in quiver.arrows]
    F = M.field
    total = sum(r * c for r, c in shapes)
    rel = sparse_span(F, total, sparse_commuting_equations(
        F, shapes, sparse_squares(shapes, squares)))
    return TensorValue(total - rel.dim, rel)


def _pulls_back(F, blocks, small: Subspace, big: Subspace) -> bool:
    """Whether the block-diagonal map of `blocks` pulls `big` back to exactly
    `small`; for a map that sends `small` into `big`, whether the induced map
    of the quotients is injective."""
    m = block_matrix(F, {(i, i): b for i, b in enumerate(blocks)},
                     [b.rows for b in blocks], [b.cols for b in blocks])
    return preimage(m, big) == small


@dataclass
class PurityResult:
    pure: bool
    relative: bool       # True when the list was not declared complete
    failures: list       # indices into the supplied list

    def __bool__(self):
        return self.pure


def purity_tensor(f: RepMorphism, right_modules, complete=False) -> PurityResult:
    """Purity via injectivity of L (x) M -> L (x) N for the supplied L.

    On the grids, id_L (x) f is block-diagonal, with dim L(v) copies of f_v
    at each vertex v."""
    if not f.is_injective():
        raise NotMono("purity is about monomorphisms")
    vertices = f.source.algebra.quiver.vertices
    failures = []
    for k, L in enumerate(right_modules):
        tm = tensor(L, f.source)
        tn = tensor(L, f.target)
        copies = [f.blocks[v] for v in vertices for _ in range(L.dims[v])]
        if not _pulls_back(f.field, copies, tm.relations, tn.relations):
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
        if not _pulls_back(M.field, [f.blocks[v] for v in phi.free_sorts], sol_m, sol_n):
            failures.append(k)
    return PurityResult(not failures, not complete, failures)

"""The formula route to a pp map's functionality, kept as the reference for
the graph test.

`ppeval.check_pp_map` on a test set and `interp.apply` read the three
functionality conditions of a relation rho (total, top, bottom) and the
induced map off the RREF of rho(M) (`ppeval.graph_check`), and
`ppeval.eval_formula` writes its equation rows straight from the path
matrices.  This module holds the routes they replaced, step for step: the
conditions as pp implications on the test set (phi -> exists ybar rho, and
rho & phi -> phi', rho & psi -> psi' padded over xbar); `apply` by
intersecting rho(M) with phi(M) + Y and psi(M) + Y (Zassenhaus), projecting,
and solving for a preimage of each coset representative; and evaluation as
the kernel of one block matrix of `act` matrices.
"""

from __future__ import annotations

from ppcat.errors import InducedMapUndefined, UncertifiedPair
from ppcat.linalg import (
    Matrix, QuotientSpace, Solver, Subspace, block_matrix, contains, kernel, project,
)
from ppcat.ppeval import SortedSubspace, eval_formula, pp_implies
from ppcat.ppform import conj, exists, pad_free
from ppcat.rep import Representation, act

from linalg_oracle import intersect


def eval_by_blocks(f, M) -> SortedSubspace:
    """The solution set of f in M, as the kernel of one block matrix."""
    F = M.field
    variables = f.all_vars()
    index = {v.name: k for k, v in enumerate(variables)}
    system = block_matrix(F, {(e, index[name]): act(M, coeff)
                              for e, eq in enumerate(f.equations) for name, coeff in eq.coeffs},
                          [M.dims[eq.target] for eq in f.equations],
                          [M.dims[v.sort] for v in variables])
    sol = kernel(system) if system.rows else Subspace.full(F, system.cols)
    nfree = sum(M.dims[v.sort] for v in f.free_vars)
    return SortedSubspace(tuple((v.sort, M.dims[v.sort]) for v in f.free_vars),
                          project(sol, range(nfree)))


def check_pp_map(pm, test_modules) -> bool:
    """The three functionality conditions as pp implications on the test set."""
    if not pm.source_pair.certified or not pm.target_pair.certified:
        raise UncertifiedPair("pp map between uncertified pairs")
    rho = pm.rho
    n = pm.n_inputs
    xs = [v.name for v in rho.free_vars[:n]]
    ys = [v.name for v in rho.free_vars[n:]]
    phi, psi = pm.source_pair.top, pm.source_pair.bottom
    phi2, psi2 = pm.target_pair.top, pm.target_pair.bottom
    # totality: phi <= exists ybar rho
    if not pp_implies(phi, exists(rho, ys), test_modules).holds:
        return False
    # (rho & phi) <= phi'  and  (rho & psi) <= psi'   (padded over xbar)
    src_sorts = pm.source_pair.free_sorts
    for before, after in ((phi, phi2), (psi, psi2)):
        merged = conj(rho, before,
                      identify=[(xn, bn) for xn, bn
                                in zip(xs, [v.name for v in before.free_vars])])
        padded = pad_free(after, src_sorts, front=True)
        if not pp_implies(merged, padded, test_modules).holds:
            return False
    return True


def _pair_spaces(F, vertex, M):
    pair = F.vertex_sorts[vertex]
    return QuotientSpace(eval_formula(pair.top, M).space, eval_formula(pair.bottom, M).space)


def _embed_in_product(space: Subspace, total, offset, field):
    vecs = []
    for row in space.basis_rows():
        v = [field.zero()] * total
        v[offset:offset + len(row)] = list(row)
        vecs.append(tuple(v))
    return Subspace.from_vectors(field, total, vecs)


def _full_on_coords(field, total, start, stop):
    vecs = []
    for i in range(start, stop):
        v = [field.zero()] * total
        v[i] = field.one()
        vecs.append(tuple(v))
    return Subspace.from_vectors(field, total, vecs)


def _sum(a: Subspace, b: Subspace) -> Subspace:
    return Subspace.from_vectors(a.field, a.ambient_dim, a.basis_rows() + b.basis_rows())


def apply(F, M) -> Representation:
    """`interp.apply` by intersections and a `Solver`, with no validation
    check: the functionality conditions are checked on M."""
    field = M.field
    quots = {v: _pair_spaces(F, v, M) for v in F.target_algebra.quiver.vertices}
    dims = {v: quots[v].dim for v in quots}
    maps = {}
    for arrow in F.target_algebra.quiver.arrows:
        v, w = arrow.source, arrow.target
        rho = F.arrow_maps[arrow.name]
        nx = sum(M.dims[s] for s in F.vertex_sorts[v].free_sorts)
        ny = sum(M.dims[s] for s in F.vertex_sorts[w].free_sorts)
        rel = eval_formula(rho, M).space  # subspace of X + Y
        total = nx + ny
        x_phi = _embed_in_product(quots[v].big, total, 0, field)
        x_psi = _embed_in_product(quots[v].small, total, 0, field)
        y_full = _full_on_coords(field, total, nx, total)
        on_phi = intersect(rel, _sum(x_phi, y_full))
        if not contains(project(on_phi, range(nx)), quots[v].big):
            raise InducedMapUndefined("relation %s not total on this module" % arrow.name)
        if not contains(quots[w].big, project(on_phi, range(nx, total))):
            raise InducedMapUndefined("relation %s leaves the top formula" % arrow.name)
        on_psi = intersect(rel, _sum(x_psi, y_full))
        if not contains(quots[w].small, project(on_psi, range(nx, total))):
            raise InducedMapUndefined("relation %s does not respect the bottom formula"
                                      % arrow.name)
        cols = []
        basis_rows = rel.basis_rows()
        if basis_rows:
            cmat = Matrix.from_rows(field, basis_rows).transpose()
        else:
            cmat = Matrix(field, total, 0, ())
        xmat = Matrix(field, nx, cmat.cols,
                      tuple(cmat.at(i, j) for i in range(nx) for j in range(cmat.cols)))
        lifts = [quots[v].lift(i) for i in range(quots[v].dim)]
        preimage = Solver(xmat) if lifts else None
        for u in lifts:
            coeffs = preimage.solve(u)
            if coeffs is None:
                raise InducedMapUndefined("no image for a basis coset at %s" % arrow.name)
            fullvec = cmat.apply(coeffs)
            cols.append(quots[w].project_vector(fullvec[nx:]))
        maps[arrow.name] = Matrix.from_rows(field, cols).transpose() if cols \
            else Matrix(field, dims[w], 0, ())
    return Representation(F.target_algebra, dims, maps)

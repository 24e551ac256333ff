"""Evaluating pp formulas on representations; free realizations; implication.

eval writes the equation rows straight from the module's path matrices, takes
their kernel, then projects away the bound coordinates.  Implication is
decided exactly through a free realization when the algebra is admissible,
and relative to a supplied test set of modules otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain

from .errors import AlgebraMismatch, NotAdmissible, SortMismatch, UncertifiedPair
from .linalg import Matrix, Subspace, block_matrix, contains, project, row_kernel
from .ppform import PpFormula, PpMap, PpPair, conj, exists, pad_free
from .quiver import compose, RingElement
from .rep import RepMorphism, Representation, cokernel_of, direct_sum, path_matrix


@dataclass(frozen=True)
class SortedSubspace:
    """A subspace of a concatenation of per-sort coordinate spaces."""

    sorts: tuple  # pairs (vertex, dim in the module)
    space: Subspace

    @property
    def dim(self):
        return self.space.dim

    def contains_tuple(self, vectors):
        flat = tuple(x for vec in vectors for x in vec)
        return self.space.contains_vector(flat)


def eval_formula(f: PpFormula, M: Representation) -> SortedSubspace:
    """The solution set of f in M, computed once per (formula, module)."""
    if f.algebra != M.algebra:
        raise AlgebraMismatch("formula and module over different algebras")
    value = M._formula_values.get(f)
    if value is None:
        value = M._formula_values[f] = _eval_formula(f, M)
    return value


def _eval_formula(f: PpFormula, M: Representation) -> SortedSubspace:
    """One block of rows per equation, each term c * path added into its
    variable's columns from the path's memoised matrix on M."""
    F = M.field
    variables = f.all_vars()
    *offsets, n = accumulate((M.dims[v.sort] for v in variables), initial=0)
    at = {v.name: o for v, o in zip(variables, offsets)}
    rows = []
    for eq in f.equations:
        block = [[0] * n for _ in range(M.dims[eq.target])]
        for name, coeff in eq.coeffs:
            o = at[name]
            for path, c in coeff.terms.items():
                pm = path_matrix(M, path)
                k, ents = pm.cols, pm.entries
                for i, row in enumerate(block):
                    for j, x in enumerate(ents[i * k:(i + 1) * k], o):
                        if x:
                            row[j] += c * x
        rows.extend(block)
    sol = row_kernel(F, n, rows) if rows else Subspace.full(F, n)
    nfree = sum(M.dims[v.sort] for v in f.free_vars)
    space = project(sol, range(nfree))
    return SortedSubspace(tuple((v.sort, M.dims[v.sort]) for v in f.free_vars), space)


def eval_pair(p: PpPair, M: Representation) -> int:
    if not p.certified:
        raise UncertifiedPair("pair has not been certified")
    return eval_formula(p.top, M).dim - eval_formula(p.bottom, M).dim


# -- free realizations ---------------------------------------------------


def projective_rep(alg, v) -> Representation:
    """The representable projective at vertex v, on the irreducible-path basis."""
    cache = alg._projective_cache
    if v in cache:
        return cache[v]
    F = alg.field
    basis = {w: alg.hom_basis(v, w) for w in alg.quiver.vertices}
    dims = {w: len(basis[w]) for w in basis}
    maps = {}
    for arrow in alg.quiver.arrows:
        s, t = arrow.source, arrow.target
        cols = []
        a_elem = alg.arrow_element(arrow.name)
        for p in basis[s]:
            prod = alg.reduce(compose(a_elem, RingElement.from_path(F, p)))
            col = [prod.terms.get(q, F.zero()) for q in basis[t]]
            cols.append(col)
        maps[arrow.name] = Matrix.from_rows(F, cols).transpose() if cols \
            else Matrix(F, dims[t], 0, ())
    rep = Representation(alg, dims, maps, check=False)
    cache[v] = rep
    return rep


def yoneda_morphism_blocks(alg, from_vertex, to_vertex, r: RingElement):
    """Blocks of the map P(from) <- P(to)... precisely: the morphism
    P(q) -> P(s) induced by r: s -> q via precomposition (p maps to p o r)."""
    s, q = r.source, r.target
    assert (from_vertex, to_vertex) == (q, s)
    F = alg.field
    blocks = {}
    for w in alg.quiver.vertices:
        src_basis = alg.hom_basis(q, w)
        dst_basis = alg.hom_basis(s, w)
        cols = []
        for p in src_basis:
            prod = alg.reduce(compose(RingElement.from_path(F, p), r))
            cols.append([prod.terms.get(d, F.zero()) for d in dst_basis])
        blocks[w] = Matrix.from_rows(F, cols).transpose() if cols \
            else Matrix(F, len(dst_basis), 0, ())
    return blocks


@dataclass
class FreeRealization:
    formula: PpFormula
    module: Representation
    tuple_vectors: tuple  # one vector per free variable, in its sort component


def free_realization(f: PpFormula) -> FreeRealization:
    """The finitely presented module with a tuple generic for the formula."""
    alg = f.algebra
    if not alg.admissible:
        raise NotAdmissible("free realizations need an admissible algebra")
    F = alg.field
    variables = f.all_vars()
    var_projs = [projective_rep(alg, v.sort) for v in variables]
    eq_projs = [projective_rep(alg, eq.target) for eq in f.equations]
    target = direct_sum(var_projs) if var_projs else None
    if target is None:
        raise SortMismatch("formula with no variables")
    # morphism from the equation summands into the variable summands
    blocks_per_vertex = {}
    for w in alg.quiver.vertices:
        blocks = {}
        for j, eq in enumerate(f.equations):
            cmap = eq.coeff_map()
            for i, v in enumerate(variables):
                r = cmap.get(v.name)
                if r is None or r.is_zero():
                    continue
                yb = yoneda_morphism_blocks(alg, eq.target, v.sort, r)
                blocks[(i, j)] = yb[w]
        row_dims = [p.dims[w] for p in var_projs]
        col_dims = [p.dims[w] for p in eq_projs]
        blocks_per_vertex[w] = block_matrix(F, blocks, row_dims, col_dims)
    source = direct_sum(eq_projs) if eq_projs else \
        Representation(alg, {w: 0 for w in alg.quiver.vertices}, {}, check=False)
    h = RepMorphism(source, target, blocks_per_vertex, check=False)
    C, proj = cokernel_of(h)
    tuple_vectors = []
    for i, v in enumerate(f.free_vars):
        w = v.sort
        offset = sum(p.dims[w] for p in var_projs[:i])
        lazy_index = alg.hom_basis(w, w).index(
            next(p for p in alg.hom_basis(w, w) if p.is_lazy()))
        e = [F.zero()] * target.dims[w]
        e[offset + lazy_index] = F.one()
        tuple_vectors.append(proj.blocks[w].apply(tuple(e)))
    return FreeRealization(f, C, tuple(tuple_vectors))


# -- implication ----------------------------------------------------------


@dataclass
class ImplicationResult:
    holds: bool
    exact: bool
    counterexample: Representation | None = None

    def __bool__(self):
        return self.holds


def pp_implies(f: PpFormula, g: PpFormula, test_modules=None) -> ImplicationResult:
    """Whether every solution of f is a solution of g.

    Exact mode (test_modules None) uses the free realization of f; otherwise
    the answer is sound only relative to the supplied modules.
    """
    if f.algebra != g.algebra:
        raise AlgebraMismatch("implication across algebras")
    if f.free_sorts != g.free_sorts:
        raise SortMismatch("implication between different free sorts")
    if test_modules is None:
        if not f.algebra.admissible:
            raise NotAdmissible(
                "exact implication needs an admissible algebra; supply test modules")
        fr = free_realization(f)
        val = eval_formula(g, fr.module)
        ok = val.contains_tuple(fr.tuple_vectors)
        return ImplicationResult(ok, True, None if ok else fr.module)
    for M in test_modules:
        fs = eval_formula(f, M)
        gs = eval_formula(g, M)
        if not contains(gs.space, fs.space):
            return ImplicationResult(False, False, M)
    return ImplicationResult(True, False)


def certify_pair(pair: PpPair, test_modules=None) -> PpPair:
    res = pp_implies(pair.bottom, pair.top, test_modules)
    if not res.holds:
        raise UncertifiedPair("bottom formula does not imply the top formula")
    return pair.certify()


def graph_check(rel: Subspace, phi, psi, phi2, psi2):
    """The first functionality condition ("total", "top", "bottom") that the
    relation rel in X + Y, X's columns first, breaks from phi/psi in X to
    phi2/psi2 in Y, or None; and the lift x -> y along rel.  The RREF rows
    of rel with pivot in X are the lift's graph; the others span
    K = rel & (0 + Y).  So rel is total iff phi lies in its (prefix)
    projection to X, and sends phi into phi2 (psi into psi2) iff K and the
    lifts of phi's (psi's) basis lie there."""
    F, p, nx = rel.field, rel.field.char, phi.ambient_dim
    ny = rel.ambient_dim - nx
    graph = [(pc, [(j - nx, y) for j, y in row if j >= nx])
             for pc, row in zip(rel.pivots, rel.nonzero_rows) if pc < nx]
    k = [row[nx:] for pc, row in zip(rel.pivots, rel.basis_rows()) if pc >= nx]

    def lift(x):
        y = [F.zero()] * ny
        for pc, pairs in graph:
            c = x[pc]
            if c:
                for j, v in pairs:
                    y[j] += c * v
        return tuple(v % p for v in y) if p else tuple(y)

    if not contains(project(rel, range(nx)), phi):
        return "total", lift
    for failure, before, after in (("top", phi, phi2), ("bottom", psi, psi2)):
        if not all(after.contains_vector(y)
                   for y in chain(k, map(lift, before.basis_rows()))):
            return failure, lift
    return None, lift


def check_pp_map(pm: PpMap, test_modules=None) -> bool:
    """The three functionality conditions for a relation to define a map:
    exactly through free realizations, or by `graph_check` on each test
    module."""
    if not pm.source_pair.certified or not pm.target_pair.certified:
        raise UncertifiedPair("pp map between uncertified pairs")
    rho = pm.rho
    if test_modules is not None:
        pairs = (pm.source_pair.top, pm.source_pair.bottom,
                 pm.target_pair.top, pm.target_pair.bottom)
        return not any(graph_check(eval_formula(rho, M).space,
                                   *(eval_formula(f, M).space for f in pairs))[0]
                       for M in test_modules)
    n = pm.n_inputs
    xs = [v.name for v in rho.free_vars[:n]]
    ys = [v.name for v in rho.free_vars[n:]]
    phi, psi = pm.source_pair.top, pm.source_pair.bottom
    phi2, psi2 = pm.target_pair.top, pm.target_pair.bottom

    # totality: phi <= exists ybar rho
    tot = exists(rho, ys)
    if not pp_implies(phi, tot).holds:
        return False
    # (rho & phi) <= phi'  and  (rho & psi) <= psi'   (padded over xbar)
    src_sorts = pm.source_pair.free_sorts
    for before, after in ((phi, phi2), (psi, psi2)):
        merged = conj(rho, before,
                      identify=[(xn, bn) for xn, bn
                                in zip(xs, [v.name for v in before.free_vars])])
        padded = pad_free(after, src_sorts, front=True)
        if not pp_implies(merged, padded).holds:
            return False
    return True


def definable_membership(pairs, M: Representation) -> bool:
    """Whether every pair evaluates to zero on M."""
    return all(eval_pair(p, M) == 0 for p in pairs)

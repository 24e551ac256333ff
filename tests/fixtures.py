"""Shared constructions used across the test suite: algebras, modules,
morphisms and formulas, some of which the program itself never builds."""

from ppcat.linalg import Matrix, Subspace, block_matrix
from ppcat.ppeval import FreeRealization, SortedSubspace
from ppcat.ppform import Equation, PpFormula, Var
from ppcat.quiver import Arrow, Quiver, QuiverAlgebra, RingElement, make_path
from ppcat.rep import RepMorphism, Representation, direct_sum, hom_space
from ppcat.scalars import QQ, PrimeField

F2 = PrimeField(2)


def a2_algebra(field=QQ):
    q = Quiver("A2", ("1", "2"), (Arrow("a", "1", "2"),))
    return QuiverAlgebra("KA2", q, field)


def a3_algebra(field=QQ):
    q = Quiver("A3", ("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "2", "3")))
    return QuiverAlgebra("KA3", q, field)


def a1tilde_algebra(field=QQ):
    q = Quiver("A1t", ("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "1", "2")))
    return QuiverAlgebra("KA1t", q, field)


def loop_algebra(field=QQ):
    q = Quiver("Loop", ("v",), (Arrow("t", "v", "v"),))
    return QuiverAlgebra("KT", q, field)


def dual_numbers_algebra(field=QQ):
    q = Quiver("Loop", ("v",), (Arrow("t", "v", "v"),))
    sq = RingElement.from_path(field, make_path(q, ("t", "t")))
    return QuiverAlgebra("Keps", q, field, relations=(sq,), nilpotency_bound=2)


def d4tilde_algebra(field=QQ):
    q = Quiver("D4t", ("0", "1", "2", "3", "4"),
               (Arrow("a1", "1", "0"), Arrow("a2", "2", "0"),
                Arrow("a3", "3", "0"), Arrow("a4", "4", "0")))
    return QuiverAlgebra("KD4t", q, field)


def mat(field, rows):
    return Matrix.from_rows(field, [[field.from_int(x) for x in r] for r in rows])


def rep(alg, dims, maps):
    field = alg.field
    mm = {name: mat(field, rows) for name, rows in maps.items()}
    return Representation(alg, dims, mm)


def a2_p1(alg):
    return rep(alg, {"1": 1, "2": 1}, {"a": [[1]]})


def a2_p2(alg):
    return rep(alg, {"1": 0, "2": 1}, {})


def a2_s1(alg):
    return rep(alg, {"1": 1, "2": 0}, {})


def jordan_module(alg, blocks):
    """K[T]-module from Jordan data [(size, eigenvalue), ...]."""
    field = alg.field
    n = sum(s for s, _ in blocks)
    rows = [[field.zero()] * n for _ in range(n)]
    off = 0
    for size, lam in blocks:
        for i in range(size):
            rows[off + i][off + i] = field.from_int(lam)
            if i + 1 < size:
                rows[off + i][off + i + 1] = field.one()
        off += size
    return Representation(alg, {"v": n}, {"t": Matrix.from_rows(field, rows)})


def dense_action(V):
    """The dense action matrices of a `FinModule`, one per basis element of
    its algebra, from its sparse rows (zeros as the field's zero)."""
    F, d = V.field, V.dim
    out = []
    for rows in V.sparse_action:
        ents = [F.zero()] * (d * d)
        for i, row in rows.items():
            for j, x in row:
                ents[i * d + j] = x
        out.append(Matrix(F, d, d, tuple(ents)))
    return tuple(out)


def dense_act_vector(V, vec):
    """The dense action matrix of the algebra element with coordinates vec
    on a `FinModule`."""
    F = V.field
    out = Matrix.zero(F, V.dim, V.dim)
    for c, m in zip(vec, dense_action(V)):
        if not F.is_zero(c):
            out = out.add(m.scale(c))
    return out


def path_element(alg, arrow_names) -> RingElement:
    """The path through the named arrows, first arrow last, as a ring element."""
    return RingElement.from_path(alg.field, make_path(alg.quiver, arrow_names))


def summand_inclusion(reps, k) -> RepMorphism:
    """The inclusion of reps[k] into the direct sum of reps."""
    total = direct_sum(reps)
    F = total.field
    blocks = {v: block_matrix(F, {(k, 0): Matrix.identity(F, reps[k].dims[v])},
                              [r.dims[v] for r in reps], [reps[k].dims[v]])
              for v in total.algebra.quiver.vertices}
    return RepMorphism(reps[k], total, blocks, check=False)


def summand_projection(reps, k) -> RepMorphism:
    """The projection of the direct sum of reps onto reps[k]."""
    total = direct_sum(reps)
    F = total.field
    blocks = {v: block_matrix(F, {(0, k): Matrix.identity(F, reps[k].dims[v])},
                              [reps[k].dims[v]], [r.dims[v] for r in reps])
              for v in total.algebra.quiver.vertices}
    return RepMorphism(total, reps[k], blocks, check=False)


def top_formula(algebra, sorts, names=None):
    """The formula with the given free sorts and no equations."""
    names = names or ["x%d" % i for i in range(len(sorts))]
    return PpFormula(algebra, [Var(n, s) for n, s in zip(names, sorts)], [], [])


def zero_formula(algebra, sorts, names=None):
    """The formula forcing every free variable to be zero."""
    names = names or ["x%d" % i for i in range(len(sorts))]
    fv = [Var(n, s) for n, s in zip(names, sorts)]
    eqs = [Equation(v.sort, ((v.name, RingElement.lazy(algebra.field, v.sort)),)) for v in fv]
    return PpFormula(algebra, fv, [], eqs)


def multiplication_map_formula(algebra, r: RingElement) -> PpFormula:
    """rho(x, y): y = r x, between single-variable sorts."""
    F = algebra.field
    fv = [Var("x0", r.source), Var("y0", r.target)]
    eq = Equation(r.target, (("y0", RingElement.lazy(F, r.target)), ("x0", r.neg())))
    return PpFormula(algebra, fv, [], [eq])


def realized_span(fr: FreeRealization, M: Representation) -> SortedSubspace:
    """The set of images of the distinguished tuple under all morphisms to M."""
    homs = hom_space(fr.module, M)
    vecs = []
    for h in homs:
        parts = []
        for v, vec in zip(fr.formula.free_vars, fr.tuple_vectors):
            parts.extend(h.blocks[v.sort].apply(vec))
        vecs.append(tuple(parts))
    sorts = tuple((v.sort, M.dims[v.sort]) for v in fr.formula.free_vars)
    total = sum(d for _, d in sorts)
    return SortedSubspace(sorts, Subspace.from_vectors(M.field, total, vecs))

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppcat.errors import NotMono
from ppcat.linalg import Matrix, image
from ppcat.ppeval import projective_rep
from ppcat.rep import RepMorphism, Representation, act, dual_module, hom_space
from ppcat.scalars import QQ, PrimeField
from ppcat.tensor import purity_pp, purity_tensor, tensor

from fixtures import (
    a2_algebra, a3_algebra, a2_p1, a2_p2, a2_s1, dual_numbers_algebra, jordan_module,
    loop_algebra, mat, path_element, rep, summand_inclusion, top_formula,
)
from test_ppform import ann_formula, div_formula

F2 = PrimeField(2)


def a3_interval(alg, lo, hi):
    """The interval representation supported on vertices lo..hi."""
    dims = {v: 1 if lo <= int(v) <= hi else 0 for v in ("1", "2", "3")}
    maps = {}
    if lo <= 1 and hi >= 2:
        maps["a"] = mat(alg.field, [[1]])
    if lo <= 2 and hi >= 3:
        maps["b"] = mat(alg.field, [[1]])
    return Representation(alg, dims, maps)


def a3_right_L(alg):
    """The right module 0 <- K <-1- K."""
    op = alg.opposite()
    return Representation(op, {"1": 0, "2": 1, "3": 1},
                          {"b": mat(alg.field, [[1]]), "a": Matrix(alg.field, 0, 1, ())})


def test_tensor_killed_by_full_chain():
    alg = a3_algebra()
    L = a3_right_L(alg)
    M = a3_interval(alg, 1, 3)
    assert tensor(L, M).dim == 0


def test_tensor_other_indecomposables_give_m3():
    alg = a3_algebra()
    L = a3_right_L(alg)
    for lo, hi in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3)):
        M = a3_interval(alg, lo, hi)
        assert tensor(L, M).dim == M.dims["3"], (lo, hi)


def test_tensor_representables_give_components():
    rng = random.Random(8)
    alg = a3_algebra(F2)
    for i in ("1", "2", "3"):
        Li = projective_rep(alg.opposite(), i)
        for _ in range(5):
            dims = {v: rng.randrange(3) for v in ("1", "2", "3")}
            maps = {}
            for arrow in alg.quiver.arrows:
                r, c = dims[arrow.target], dims[arrow.source]
                maps[arrow.name] = Matrix(
                    F2, r, c, tuple(F2.from_int(rng.randrange(2)) for _ in range(r * c)))
            M = Representation(alg, dims, maps)
            assert tensor(Li, M).dim == M.dims[i]


def test_tensor_right_exactness_shadow():
    # L = 0 <- K <- K is the cokernel of (-, 1) -> (-, 3) given by the
    # length-2 path, so by right exactness L (x) M = coker(M1 -> M3), done by
    # hand here
    alg = a3_algebra()
    L = a3_right_L(alg)
    ba = path_element(alg, ("a", "b"))
    for lo, hi in ((1, 3), (2, 3), (1, 2)):
        M = a3_interval(alg, lo, hi)
        assert tensor(L, M).dim == M.dims["3"] - image(act(M, ba)).dim


def a2_right_indecomposables(alg):
    op = alg.opposite()
    r1 = projective_rep(op, "1")         # dims (1, 0)
    r2 = projective_rep(op, "2")         # dims (1, 1)
    s2 = Representation(op, {"1": 0, "2": 1}, {})
    return [r1, r2, s2]


def a2_purity_formulas(alg):
    from ppcat.ppform import Equation, PpFormula, Var
    from ppcat.quiver import RingElement
    a = alg.arrow_element("a")
    graph = PpFormula(alg, [Var("x", "1"), Var("y", "2")], [],
                      [Equation("2", (("y", RingElement.lazy(alg.field, "2")),
                                      ("x", a.neg())))])
    return [top_formula(alg, ("1",)), top_formula(alg, ("2",)),
            ann_formula(alg), div_formula(alg), graph]


def test_split_mono_is_pure():
    alg = a2_algebra()
    P2, S1 = a2_p2(alg), a2_s1(alg)
    inc = summand_inclusion([P2, S1], 0)
    rights = a2_right_indecomposables(alg)
    res = purity_tensor(inc, rights, complete=True)
    assert res.pure and not res.relative
    res = purity_pp(inc, a2_purity_formulas(alg))
    assert res.pure and res.relative


def test_nonsplit_mono_is_not_pure():
    alg = a2_algebra()
    P1, P2 = a2_p1(alg), a2_p2(alg)
    (i,) = hom_space(P2, P1)
    rights = a2_right_indecomposables(alg)
    res = purity_tensor(i, rights, complete=True)
    assert not res.pure
    res = purity_pp(i, a2_purity_formulas(alg))
    assert not res.pure


def test_divisibility_detects_nonsplit():
    alg = a2_algebra()
    P1, P2 = a2_p1(alg), a2_p2(alg)
    (i,) = hom_space(P2, P1)
    res = purity_pp(i, [div_formula(alg)])
    assert not res.pure


def test_identity_is_pure():
    alg = a2_algebra()
    P1 = a2_p1(alg)
    ident = RepMorphism.identity(P1)
    assert purity_tensor(ident, a2_right_indecomposables(alg)).pure
    assert purity_pp(ident, a2_purity_formulas(alg)).pure
    assert purity_pp(ident, []).pure


def test_purity_requires_mono():
    alg = a2_algebra()
    P1, S1 = a2_p1(alg), a2_s1(alg)
    (pi,) = hom_space(P1, S1)
    with pytest.raises(NotMono):
        purity_tensor(pi, a2_right_indecomposables(alg))
    with pytest.raises(NotMono):
        purity_pp(pi, [])


def all_a2_modules_f2(alg, cap=2):
    out = []
    for d1 in range(cap + 1):
        for d2 in range(cap + 1):
            for bits in itertools.product(range(2), repeat=d1 * d2):
                m = Matrix(F2, d2, d1, tuple(bits))
                out.append(Representation(alg, {"1": d1, "2": d2}, {"a": m}))
    return out


def test_purity_cross_oracle_f2():
    alg = a2_algebra(F2)
    rights = a2_right_indecomposables(alg)
    formulas = a2_purity_formulas(alg)
    mods = all_a2_modules_f2(alg)
    # group modules by isomorphism class to keep the mono count reasonable
    reps = []
    from ppcat.rep import are_isomorphic
    for M in mods:
        if M.total_dim() and not any(are_isomorphic(M, R).isomorphic for R in reps):
            reps.append(M)
    count = disagreements = 0
    for M in reps:
        for N in reps:
            if any(M.dims[v] > N.dims[v] for v in ("1", "2")):
                continue
            basis = hom_space(M, N)
            d = len(basis)
            if d == 0 or 2 ** d > 4096:
                continue
            for bits in itertools.product(range(2), repeat=d):
                if not any(bits):
                    continue
                f = None
                for c, g in zip(bits, basis):
                    if c:
                        f = g if f is None else f.add(g)
                if not f.is_injective():
                    continue
                t = purity_tensor(f, rights, complete=True)
                p = purity_pp(f, formulas)
                count += 1
                if t.pure != p.pure:
                    disagreements += 1
    assert count > 50
    assert disagreements == 0


# -- the coend against the tensor-Hom duality D(L (x) M) = Hom(M, DL) ---------


@st.composite
def random_rep(draw, alg, max_dim=3):
    """A module over a2, a3 or their opposites with small integer entries,
    or over a one-loop algebra: square-zero (a permuted strictly block upper
    triangular matrix) when the algebra has the relation t.t, any matrix
    otherwise."""
    F = alg.field
    dims = {v: draw(st.integers(0, max_dim)) for v in alg.quiver.vertices}
    entries = st.integers(-2, 2)
    maps = {}
    for a in alg.quiver.arrows:
        r, c = dims[a.target], dims[a.source]
        rows = [[draw(entries) for _ in range(c)] for _ in range(r)]
        if alg.relations:
            k = draw(st.integers(0, r))
            perm = draw(st.permutations(range(r)))
            rows = [[rows[perm[i]][perm[j]] if perm[i] < k <= perm[j] else 0
                     for j in range(c)] for i in range(r)]
        maps[a.name] = Matrix(F, r, c, tuple(F.from_int(x) for row in rows for x in row))
    return Representation(alg, dims, maps)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.sampled_from([QQ, PrimeField(3)]),
       st.sampled_from([a2_algebra, a3_algebra, dual_numbers_algebra, loop_algebra]),
       st.data())
def test_tensor_dual_to_hom_into_dual(F, make, data):
    alg = make(F)
    L = data.draw(random_rep(alg.opposite()))
    M = data.draw(random_rep(alg))
    assert tensor(L, M).dim == len(hom_space(M, dual_module(L)))


def test_tensor_needs_no_admissibility():
    # K[T] with no nilpotency bound: J^* (x) J is dual to End(J) for the
    # 2-dimensional Jordan block J
    alg = loop_algebra()
    assert not alg.admissible
    J = jordan_module(alg, [(2, 0)])
    assert tensor(dual_module(J), J).dim == 2 == len(hom_space(J, J))
    assert purity_tensor(RepMorphism.identity(J), [dual_module(J)]).pure


def split_mono(M, N):
    """M -> M (+) N, m -> (m, h m) with h the sum of a basis of Hom(M, N): a
    summand inclusion conjugated by the automorphism id + h."""
    f = summand_inclusion([M, N], 0)
    for h in hom_space(M, N):
        f = f.add(summand_inclusion([M, N], 1).compose(h))
    return f


def test_purity_methods_agree_on_keps():
    alg = dual_numbers_algebra()
    R, S = jordan_module(alg, [(2, 0)]), jordan_module(alg, [(1, 0)])
    rights = [dual_module(R), dual_module(S)]
    formulas = [ann_formula(alg, "t", "v"), div_formula(alg, "t")]
    for M, N in itertools.product((R, S), repeat=2):
        f = split_mono(M, N)
        assert purity_tensor(f, rights).pure and purity_pp(f, formulas).pure
    (socle,) = [g for g in hom_space(S, R) if g.is_injective()]
    assert purity_tensor(socle, rights).failures == [1]
    assert not purity_pp(socle, formulas).pure


def test_purity_methods_agree_on_a3():
    alg = a3_algebra(PrimeField(3))
    intervals = [a3_interval(alg, lo, hi) for lo in (1, 2, 3) for hi in range(lo, 4)]
    rights = [dual_module(M) for M in intervals]
    formulas = [div_formula(alg, "a"), div_formula(alg, "b"),
                ann_formula(alg, "a", "1"), ann_formula(alg, "b", "2")]
    for M, N in itertools.product(intervals, repeat=2):
        f = split_mono(M, N)
        assert purity_tensor(f, rights).pure and purity_pp(f, formulas).pure
    P1, P2 = intervals[2], intervals[4]  # I13 and I23
    (i,) = hom_space(P2, P1)
    assert not purity_tensor(i, rights).pure
    assert not purity_pp(i, formulas).pure

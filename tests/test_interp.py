import importlib.resources

import pytest

from ppcat.dsl import parse
from ppcat.errors import InducedMapUndefined, NotValidated
from ppcat.interp import (
    InterpretationFunctor, apply, apply_morphism, check_rep_embedding,
    round_trip_check, validate,
)
from ppcat.linalg import Matrix
from ppcat.ppform import Equation, PpFormula, PpPair, Var, identity_map_formula
from ppcat.quiver import Arrow, Quiver, QuiverAlgebra, RingElement, make_path
from ppcat.rep import Representation, hom_space, direct_sum, are_isomorphic
from ppcat.scalars import QQ, PrimeField

from fixtures import (
    a1tilde_algebra, d4tilde_algebra, jordan_module, loop_algebra, multiplication_map_formula,
    rep, top_formula, zero_formula,
)

KT = loop_algebra()
A1T = a1tilde_algebra()
D4T = d4tilde_algebra()


def kt_fixture_modules():
    return [
        jordan_module(KT, [(1, 0)]),
        jordan_module(KT, [(2, 0)]),
        jordan_module(KT, [(1, 1), (1, 2)]),
        jordan_module(KT, [(2, 0), (1, 1)]),
    ]


def home_pair(alg, sort):
    return PpPair(top_formula(alg, (sort,)), zero_formula(alg, (sort,)))


def a1t_interp():
    """K[T]-modules to A1-tilde representations: t_a = 1, t_b = T."""
    t = KT.arrow_element("t")
    return InterpretationFunctor(
        "I", KT, A1T,
        vertex_sorts={"1": home_pair(KT, "v"), "2": home_pair(KT, "v")},
        arrow_maps={"a": identity_map_formula(KT, ("v",)),
                    "b": multiplication_map_formula(KT, t)},
        test_modules=kt_fixture_modules())


def a1t_back_interp(test_modules):
    """Back from the image: T = t_a^{-1} t_b, via the relation a*y = b*x."""
    a, b = A1T.arrow_element("a"), A1T.arrow_element("b")
    rho = PpFormula(A1T, [Var("x", "1"), Var("y", "1")], [],
                    [Equation("2", (("y", a), ("x", b.neg())))])
    return InterpretationFunctor(
        "J", A1T, KT,
        vertex_sorts={"v": home_pair(A1T, "1")},
        arrow_maps={"t": rho},
        test_modules=test_modules)


def d4_interp():
    """M maps to the 4-subspace representation (M+0, 0+M, diagonal, graph of T)."""
    F = QQ
    t = KT.arrow_element("t")
    lazy = RingElement.lazy(F, "v")

    def pair2(eqs):
        top = PpFormula(KT, [Var("x1", "v"), Var("x2", "v")], [], eqs)
        return PpPair(top, zero_formula(KT, ("v", "v")))

    sorts = {
        "0": pair2([]),
        "1": pair2([Equation("v", (("x2", lazy),))]),
        "2": pair2([Equation("v", (("x1", lazy),))]),
        "3": pair2([Equation("v", (("x1", lazy), ("x2", lazy.neg())))]),
        "4": pair2([Equation("v", (("x1", t), ("x2", lazy.neg())))]),
    }
    incl = identity_map_formula(KT, ("v", "v"))
    return InterpretationFunctor(
        "ID4", KT, D4T, vertex_sorts=sorts,
        arrow_maps={"a1": incl, "a2": incl, "a3": incl, "a4": incl},
        test_modules=kt_fixture_modules())


def d4_back_interp(test_modules):
    """Recover the K[T]-module from a 4-subspace representation in the image."""
    a1, a2, a3, a4 = (D4T.arrow_element(n) for n in ("a1", "a2", "a3", "a4"))
    rho = PpFormula(
        D4T, [Var("x", "1"), Var("y", "1")],
        [Var("b", "2"), Var("d", "4"), Var("e", "3")],
        [Equation("0", (("x", a1), ("b", a2), ("d", a4.neg()))),
         Equation("0", (("y", a1), ("b", a2), ("e", a3.neg())))])
    return InterpretationFunctor(
        "JD4", D4T, KT,
        vertex_sorts={"v": home_pair(D4T, "1")},
        arrow_maps={"t": rho},
        test_modules=test_modules)


def test_a1t_interp_validates():
    I = a1t_interp()
    rep_ = validate(I)
    assert rep_.valid and rep_.mode == "testset"


def test_a1t_apply_jordan():
    I = a1t_interp()
    validate(I)
    M = jordan_module(KT, [(2, 0)])
    N = apply(I, M)
    assert N.dims == {"1": 2, "2": 2}
    assert N.maps["a"] == Matrix.identity(QQ, 2)
    assert N.maps["b"] == M.maps["t"]


def test_apply_zero_module():
    I = a1t_interp()
    validate(I)
    z = Representation(KT, {"v": 0}, {})
    N = apply(I, z)
    assert N.total_dim() == 0


def test_apply_requires_validation():
    I = a1t_interp()
    with pytest.raises(NotValidated):
        apply(I, jordan_module(KT, [(1, 0)]))


def test_a1t_round_trip():
    I = a1t_interp()
    validate(I)
    fixtures_list = kt_fixture_modules()
    images = [apply(I, M) for M in fixtures_list]
    J = a1t_back_interp(images)
    assert validate(J).valid
    report = round_trip_check(I, J, fixtures_list)
    assert report.all_isomorphic


def test_a1t_back_undefined_outside_image():
    fixtures_list = kt_fixture_modules()
    I = a1t_interp()
    validate(I)
    J = a1t_back_interp([apply(I, M) for M in fixtures_list])
    validate(J)
    # a representation where t_a is not invertible: K -0-> K
    bad = rep(A1T, {"1": 1, "2": 1}, {"a": [[0]], "b": [[1]]})
    with pytest.raises(InducedMapUndefined):
        apply(J, bad)


def test_d4_apply_t_zero():
    ID4 = d4_interp()
    validate(ID4)
    M = jordan_module(KT, [(1, 0)])
    N = apply(ID4, M)
    assert N.dims == {"0": 2, "1": 1, "2": 1, "3": 1, "4": 1}
    # Gr(0) and M+0 coincide as subspaces of the centre
    img4 = N.maps["a4"]
    img1 = N.maps["a1"]
    assert img4.col(0) == img1.col(0)


def test_d4_round_trip():
    ID4 = d4_interp()
    validate(ID4)
    fixtures_list = kt_fixture_modules()
    images = [apply(ID4, M) for M in fixtures_list]
    JD4 = d4_back_interp(images)
    assert validate(JD4).valid
    report = round_trip_check(ID4, JD4, fixtures_list)
    assert report.all_isomorphic


@pytest.mark.parametrize("builtin,forward,back", [("a1tilde", "I", "J"),
                                                   ("d4tilde", "I4", "J4")])
def test_round_trip_over_f7(builtin, forward, back):
    # the fixture with its field made F_7: the functors validate and round-trip there too
    text = importlib.resources.files("ppcat").joinpath("fixtures/%s.ppc" % builtin) \
        .read_text("utf-8")
    assert "field Q;" in text
    ws = parse(text.replace("field Q;", "field F 7;"))
    I, J = ws.get("interp", forward), ws.get("interp", back)
    assert I.source_algebra.field.char == 7
    assert validate(I).valid and validate(J).valid
    report = round_trip_check(I, J, ws.get("fixture", "jordan"))
    assert report.all_isomorphic
    assert all(certain for _, _, certain in report.results)


def test_apply_reduces_the_lift_mod_5():
    # phi(x) = (exists z. x = t z) is spanned by (1, 2) on this module, and
    # y = 3x lifts it to (3, 6) = (3, 1) over F_5
    F5 = PrimeField(5)
    kt = loop_algebra(F5)
    a2 = QuiverAlgebra("KA2", Quiver("A2", ("1", "2"), (Arrow("a", "1", "2"),)), F5)
    M = rep(kt, {"v": 2}, {"t": [[1, 0], [2, 0]]})
    e = RingElement.lazy(F5, "v")
    div_t = PpFormula(kt, [Var("x", "v")], [Var("z", "v")],
                      [Equation("v", (("x", e), ("z", kt.arrow_element("t").neg())))])
    F = InterpretationFunctor(
        "Div", kt, a2,
        vertex_sorts={"1": PpPair(div_t, zero_formula(kt, ("v",))), "2": home_pair(kt, "v")},
        arrow_maps={"a": multiplication_map_formula(kt, e.scale(3))},
        test_modules=[M])
    assert validate(F).valid
    assert apply(F, M).maps["a"] == Matrix.from_rows(F5, [[3], [1]])


def morita_algebra():
    q = Quiver("M2", ("1", "2"), (Arrow("u", "1", "2"), Arrow("v", "2", "1")))
    uv = RingElement.from_path(QQ, make_path(q, ("u", "v")))  # u then v: 1 -> 1
    vu = RingElement.from_path(QQ, make_path(q, ("v", "u")))  # v then u: 2 -> 2
    e1 = RingElement.lazy(QQ, "1")
    e2 = RingElement.lazy(QQ, "2")
    return QuiverAlgebra("M2K", q, QQ,
                         relations=(uv.add(e1.neg()), vu.add(e2.neg())))


def k_algebra():
    q = Quiver("Pt", ("1",), ())
    return QuiverAlgebra("K", q, QQ)


def test_morita_round_trip():
    K = k_algebra()
    M2 = morita_algebra()
    assert not M2.admissible  # relations involve lazy paths
    F = InterpretationFunctor(
        "Sq", K, M2,
        vertex_sorts={"1": home_pair(K, "1"), "2": home_pair(K, "1")},
        arrow_maps={"u": identity_map_formula(K, ("1",)),
                    "v": identity_map_formula(K, ("1",))})
    assert validate(F).valid and F.mode == "exact"
    mods = [rep(K, {"1": n}, {}) for n in (1, 2, 3)]
    images = [apply(F, M) for M in mods]
    for M, img in zip(mods, images):
        assert img.dims == {"1": M.dims["1"], "2": M.dims["1"]}
    G = InterpretationFunctor(
        "Back", M2, K,
        vertex_sorts={"1": home_pair(M2, "1")},
        arrow_maps={},
        test_modules=images)
    assert validate(G).valid
    report = round_trip_check(F, G, mods)
    assert report.all_isomorphic


def test_broken_functor_fails_validation():
    # the total relation "x = x & y = y" relates divisible x to arbitrary y,
    # so condition 2 (rho & phi <= phi') fails on a module where T is not onto
    t = KT.arrow_element("t")
    div = PpFormula(KT, [Var("x", "v")], [Var("w", "v")],
                    [Equation("v", (("x", RingElement.lazy(QQ, "v")), ("w", t.neg())))])
    pair = PpPair(div, zero_formula(KT, ("v",)))
    total_rho = top_formula(KT, ("v", "v"))
    broken = InterpretationFunctor(
        "Broken", KT, KT,
        vertex_sorts={"v": pair},
        arrow_maps={"t": total_rho},
        test_modules=kt_fixture_modules())
    rep_ = validate(broken)
    assert not rep_.valid
    assert rep_.arrows["t"] is False


def test_relation_check_catches_wrong_maps():
    # sending u and v both to the identity but the composite u-then-v must be
    # the identity of vertex 1; sending v to the zero map breaks the relation
    K = k_algebra()
    M2 = morita_algebra()
    zero_rho = PpFormula(K, [Var("x", "1"), Var("y", "1")], [],
                         [Equation("1", (("y", RingElement.lazy(QQ, "1")),))])
    F = InterpretationFunctor(
        "Bad", K, M2,
        vertex_sorts={"1": home_pair(K, "1"), "2": home_pair(K, "1")},
        arrow_maps={"u": identity_map_formula(K, ("1",)), "v": zero_rho})
    report = validate(F)
    assert not report.valid
    assert any(not ok for _, ok in report.relations)


def test_additivity_of_apply():
    I = a1t_interp()
    validate(I)
    M = jordan_module(KT, [(2, 0)])
    N = jordan_module(KT, [(1, 1)])
    lhs = apply(I, direct_sum([M, N]))
    rhs = direct_sum([apply(I, M), apply(I, N)])
    assert are_isomorphic(lhs, rhs).isomorphic


def test_naturality_of_apply():
    I = a1t_interp()
    validate(I)
    M = jordan_module(KT, [(2, 0)])
    N = jordan_module(KT, [(2, 0), (1, 0)])
    for h in hom_space(M, N):
        induced = apply_morphism(I, h)  # constructor revalidates the squares
        assert induced.source.dims == apply(I, M).dims
    f, g = hom_space(M, M)[:2]
    lhs = apply_morphism(I, f.compose(g))
    rhs = apply_morphism(I, f).compose(apply_morphism(I, g))
    assert lhs.blocks == rhs.blocks


def test_rep_embedding_a1t():
    I = a1t_interp()
    validate(I)
    indecs = [jordan_module(KT, [(1, 0)]), jordan_module(KT, [(1, 1)]),
              jordan_module(KT, [(2, 0)]), jordan_module(KT, [(2, 1)])]
    report = check_rep_embedding(I, indecs)
    assert report.preserves_indecomposability
    assert report.reflects_isomorphism


def test_rep_embedding_d4():
    ID4 = d4_interp()
    validate(ID4)
    indecs = [jordan_module(KT, [(1, 0)]), jordan_module(KT, [(1, 1)]),
              jordan_module(KT, [(2, 0)]), jordan_module(KT, [(2, 1)])]
    report = check_rep_embedding(ID4, indecs)
    assert report.preserves_indecomposability
    assert report.reflects_isomorphism


def test_reverse_round_trip_on_images():
    # applying J then I to a module already in the image recovers it
    I = a1t_interp()
    validate(I)
    fixtures_list = kt_fixture_modules()
    images = [apply(I, M) for M in fixtures_list]
    J = a1t_back_interp(images)
    validate(J)
    for N in images:
        back = apply(I, apply(J, N))
        assert back.dims == N.dims
        r = are_isomorphic(back, N)
        assert r.isomorphic and r.witness.is_invertible()


def test_reflection_failure_detected():
    # M maps to M/TM over the one-point algebra: collapses J1(0) and J2(0)
    K = k_algebra()
    t = KT.arrow_element("t")
    top = top_formula(KT, ("v",))
    div = PpFormula(KT, [Var("x", "v")], [Var("y", "v")],
                    [Equation("v", (("x", RingElement.lazy(QQ, "v")), ("y", t.neg())))])
    Ft = InterpretationFunctor(
        "Cotop", KT, K,
        vertex_sorts={"1": PpPair(top, div)},
        arrow_maps={},
        test_modules=kt_fixture_modules())
    assert validate(Ft).valid
    mods = [jordan_module(KT, [(1, 0)]), jordan_module(KT, [(2, 0)])]
    report = check_rep_embedding(Ft, mods)
    assert not report.reflects_isomorphism

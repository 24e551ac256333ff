import random

import pytest

from ppcat.errors import SortMismatch, UnknownVariable
from ppcat.linalg import Subspace, project
from ppcat.ppform import (
    Equation, PpFormula, PpPair, Var, combine_map_formulas, conj, dual, exists,
    identity_map_formula, pad_free, zero_map_formula,
)
from ppcat.ppeval import eval_formula
from ppcat.quiver import RingElement
from ppcat.rep import Representation, dual_module
from ppcat.scalars import QQ, PrimeField

from fixtures import (
    a1tilde_algebra, a2_algebra, a2_p1, a2_s1, jordan_module, loop_algebra, mat,
    multiplication_map_formula, top_formula, zero_formula,
)
from linalg_oracle import intersect

F2 = PrimeField(2)


def ann_formula(alg, arrow="a", sort="1"):
    """alpha x = 0 with x of the arrow's source sort."""
    a = alg.arrow_element(arrow)
    return PpFormula(alg, [Var("x", sort)], [],
                     [Equation(a.target, (("x", a),))])


def div_formula(alg, arrow="a"):
    """exists y (x = alpha y), x of the arrow's target sort."""
    a = alg.arrow_element(arrow)
    lazy = RingElement.lazy(alg.field, a.target)
    return PpFormula(alg, [Var("x", a.target)], [Var("y", a.source)],
                     [Equation(a.target, (("x", lazy), ("y", a.neg())))])


def test_conj_tautology_absorption():
    alg = a2_algebra()
    phi = ann_formula(alg)
    taut = top_formula(alg, ("1",), names=["t"])
    both = conj(phi, taut, identify=[("x", "t")])
    P1, S1 = a2_p1(alg), a2_s1(alg)
    for M in (P1, S1):
        assert eval_formula(both, M).space == eval_formula(phi, M).space


def test_conj_intersects_kernels():
    rng = random.Random(4)
    alg = a1tilde_algebra(F2)
    fa = ann_formula(alg, "a", "1")
    fb = ann_formula(alg, "b", "1")
    both = conj(fa, fb, identify=[("x", "x")])
    for _ in range(10):
        d1, d2 = rng.randrange(1, 4), rng.randrange(1, 4)
        maps = {}
        for nm in ("a", "b"):
            maps[nm] = mat(F2, [[rng.randrange(2) for _ in range(d1)] for _ in range(d2)])
        M = Representation(alg, {"1": d1, "2": d2}, maps)
        got = eval_formula(both, M).space
        want = intersect(eval_formula(fa, M).space, eval_formula(fb, M).space)
        assert got == want


def test_conj_three_variable_system():
    # (x1 - 2 x2 = 0) & (a x1 - x3 = 0): three free variables, sorts (1,1,2)
    alg = a2_algebra()
    lazy1 = RingElement.lazy(QQ, "1")
    f1 = PpFormula(alg, [Var("x1", "1"), Var("x2", "1")], [],
                   [Equation("1", (("x1", lazy1), ("x2", lazy1.scale(QQ.from_int(-2)))))])
    a = alg.arrow_element("a")
    lazy2 = RingElement.lazy(QQ, "2")
    f2 = PpFormula(alg, [Var("x1", "1"), Var("x3", "2")], [],
                   [Equation("2", (("x1", a), ("x3", lazy2.neg())))])
    merged = conj(f1, f2, identify=[("x1", "x1")])
    assert merged.free_sorts == ("1", "1", "2")
    P1 = a2_p1(alg)
    sol = eval_formula(merged, P1)
    # solutions (t, t/2, t): one-dimensional
    assert sol.dim == 1


def test_exists_no_vars_is_identity():
    alg = a2_algebra()
    phi = ann_formula(alg)
    assert exists(phi, []) == phi


def test_exists_image_of_arrow():
    alg = a2_algebra()
    f = div_formula(alg)
    P1, S1 = a2_p1(alg), a2_s1(alg)
    assert eval_formula(f, P1).dim == 1  # image of alpha on P1 is all of P1(2)
    assert eval_formula(f, S1).dim == 0


def test_exists_divisibility_on_jordan():
    kt = loop_algebra()
    f = div_formula(kt, "t")
    M = jordan_module(kt, [(2, 0)])
    got = eval_formula(f, M).space
    # solution set = column space of T
    t = M.maps["t"]
    want = Subspace.from_vectors(QQ, 2, [t.col(0), t.col(1)])
    assert got == want


def test_exists_unknown_variable():
    alg = a2_algebra()
    with pytest.raises(UnknownVariable):
        exists(ann_formula(alg), ["nope"])


def test_exists_composes():
    rng = random.Random(9)
    alg = a1tilde_algebra(F2)
    a, b = alg.arrow_element("a"), alg.arrow_element("b")
    lazy2 = RingElement.lazy(F2, "2")
    f = PpFormula(alg, [Var("u", "1"), Var("v", "1"), Var("w", "2")], [],
                  [Equation("2", (("u", a), ("v", b), ("w", lazy2)))])
    one_then_other = exists(exists(f, ["u"]), ["v"])
    both = exists(f, ["u", "v"])
    for _ in range(8):
        d1, d2 = rng.randrange(1, 3), rng.randrange(1, 3)
        maps = {nm: mat(F2, [[rng.randrange(2) for _ in range(d1)] for _ in range(d2)])
                for nm in ("a", "b")}
        M = Representation(alg, {"1": d1, "2": d2}, maps)
        assert eval_formula(one_then_other, M).space == eval_formula(both, M).space


def test_eval_projection_consistency():
    rng = random.Random(14)
    alg = a2_algebra(F2)
    a = alg.arrow_element("a")
    lazy2 = RingElement.lazy(F2, "2")
    f = PpFormula(alg, [Var("x", "1"), Var("y", "2")], [],
                  [Equation("2", (("x", a), ("y", lazy2)))])
    g = exists(f, ["y"])
    for _ in range(10):
        d1, d2 = rng.randrange(3), rng.randrange(3)
        M = Representation(alg, {"1": d1, "2": d2},
                           {"a": mat(F2, [[rng.randrange(2) for _ in range(d1)]
                                          for _ in range(d2)]) if d1 * d2 else
                            None} if d1 * d2 else {})
        full = eval_formula(f, M).space
        assert eval_formula(g, M).space == project(full, range(d1))


def test_dual_of_annihilator_is_divisibility():
    alg = a2_algebra()
    d = dual(ann_formula(alg))
    assert d.algebra == alg.opposite()
    assert d.free_sorts == ("1",)
    # divisibility by alpha in right modules: 0 on S1*, everything on P1*
    S1 = a2_s1(alg)
    assert eval_formula(d, dual_module(S1)).dim == 0
    P1 = a2_p1(alg)
    assert eval_formula(d, dual_module(P1)).dim == 1


def test_dual_dimension_identity_small():
    # dim Dphi(M*) = sum dim M(s_i) - dim phi(M)
    alg = a2_algebra()
    P1, S1 = a2_p1(alg), a2_s1(alg)
    for f in (ann_formula(alg), div_formula(alg), top_formula(alg, ("1", "2"))):
        d = dual(f)
        for M in (P1, S1):
            lhs = eval_formula(d, dual_module(M)).dim
            rhs = sum(M.dims[s] for s in f.free_sorts) - eval_formula(f, M).dim
            assert lhs == rhs


def test_dual_involution_on_f2_modules():
    rng = random.Random(21)
    alg = a2_algebra(F2)
    formulas = [ann_formula(alg), div_formula(alg), top_formula(alg, ("1",)),
                zero_formula(alg, ("2",))]
    mods = []
    for _ in range(6):
        d1, d2 = rng.randrange(1, 4), rng.randrange(1, 4)
        mods.append(Representation(
            alg, {"1": d1, "2": d2},
            {"a": mat(F2, [[rng.randrange(2) for _ in range(d1)] for _ in range(d2)])}))
    for f in formulas:
        dd = dual(dual(f))
        assert dd.algebra == alg
        assert dd.free_sorts == f.free_sorts
        for M in mods:
            assert eval_formula(dd, M).space == eval_formula(f, M).space


def test_dual_swaps_top_and_bottom():
    # the order-reversing convention forced by the dimension identity
    alg = a2_algebra()
    S1 = a2_s1(alg)
    d_top = dual(top_formula(alg, ("1",)))
    assert eval_formula(d_top, dual_module(S1)).dim == 0
    d_zero = dual(zero_formula(alg, ("1",)))
    assert eval_formula(d_zero, dual_module(S1)).dim == 1


def difference_map(rho1, rho2, n_inputs):
    """delta(xbar, ybar): exists y1, y2 (rho1(x, y1) & rho2(x, y2) & y = y1 - y2)."""
    F = rho1.algebra.field
    return combine_map_formulas(rho1, rho2, n_inputs, F.one(), F.neg(F.one()))


def test_difference_map_recovers_rho():
    kt = loop_algebra()
    t = kt.arrow_element("t")
    rho1 = identity_map_formula(kt, ("v",))
    rho2 = multiplication_map_formula(kt, t)
    delta = difference_map(rho1, rho2, 1)
    # delta defines y = (1 - T) x
    M = jordan_module(kt, [(2, 0)])
    want = multiplication_map_formula(kt, kt.lazy("v").add(t.neg()))
    assert eval_formula(delta, M).space == eval_formula(want, M).space


def test_difference_with_zero_map():
    kt = loop_algebra()
    rho = multiplication_map_formula(kt, kt.arrow_element("t"))
    zero = zero_map_formula(kt, ("v",), ("v",))
    delta = difference_map(rho, zero, 1)
    M = jordan_module(kt, [(2, 0), (1, 1)])
    assert eval_formula(delta, M).space == eval_formula(rho, M).space


def test_difference_antisymmetry():
    kt = loop_algebra()
    rho = multiplication_map_formula(kt, kt.arrow_element("t"))
    delta = difference_map(rho, rho, 1)
    M = jordan_module(kt, [(2, 0)])
    sol = eval_formula(delta, M)
    # whatever x, the y part lies in the solutions of rho at x = 0 (namely 0)
    ysol = project(sol.space, range(2, 4))
    assert ysol.dim == 0


def test_pad_and_pair_validation():
    alg = a2_algebra()
    phi = ann_formula(alg)
    padded = pad_free(phi, ("2",), front=True)
    assert padded.free_sorts == ("2", "1")
    with pytest.raises(SortMismatch):
        PpPair(phi, top_formula(alg, ("2",)))
    p = PpPair(top_formula(alg, ("1",)), zero_formula(alg, ("1",)))
    assert not p.certified

"""The acceptance gate: each criterion runs at its stated tolerance (exact
equality throughout) and prints one pass/fail line (visible with pytest -s).
"""

import itertools
import random
import time
from contextlib import contextmanager

from ppcat.dsl import load_builtin, parse, print_workspace
from ppcat.funcat import (
    auslander_algebra, basic_algebra_isomorphism, fin_are_isomorphic,
    fin_is_indecomposable, pp_functor_crosscheck, projective_row,
    quiver_algebra_to_finite, quotient_skeleton, serre_from_generator, simple_module,
)
from ppcat.interp import apply as interp_apply
from ppcat.interp import validate
from ppcat.linalg import Matrix
from ppcat.ppform import dual
from ppcat.ppeval import eval_formula, pp_implies
from ppcat.quiver import Arrow, Quiver, QuiverAlgebra, RingElement, make_path
from ppcat.rep import Representation, are_isomorphic, dual_module, hom_space
from ppcat.scalars import QQ, PrimeField
from ppcat.tensor import purity_pp, purity_tensor, tensor

from randgen import random_algebra_pool, random_formula, random_module
from test_dsl import random_workspace

F2 = PrimeField(2)


@contextmanager
def criterion(num, desc, budget):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %2d FAIL: %s" % (num, desc))
        raise
    dt = time.perf_counter() - t0
    print("ACCEPTANCE %2d PASS (%.2fs, budget %ds): %s" % (num, dt, budget, desc))
    assert dt < budget, "criterion %d exceeded its %ds budget (%.2fs)" % (num, budget, dt)


def a2_setup():
    ws = load_builtin("a2")
    P1, P2, S1 = (ws.get("module", n) for n in ("P1", "P2", "S1"))
    data = auslander_algebra([P1, P2, S1])
    five = {
        "Q2": projective_row(data, 0),
        "Q3": projective_row(data, 1),
        "Q1": projective_row(data, 2),
        "T2": simple_module(data, 0),
        "T3": simple_module(data, 1),
    }
    return ws, (P1, P2, S1), data, five


def test_criterion_1_a2_functor_census():
    with criterion(1, "A2 census: five functors, indecomposable, pairwise non-iso", 1):
        _, _, _, five = a2_setup()
        mods = list(five.values())
        assert len(mods) == 5
        for i, X in enumerate(mods):
            assert fin_is_indecomposable(X)
            for j in range(i + 1, 5):
                iso, certain = fin_are_isomorphic(X, mods[j])
                assert not iso and certain


def test_criterion_2_auslander_shape():
    with criterion(2, "Auslander algebra of A2 is the 5-dim bound path algebra", 5):
        _, _, data, _ = a2_setup()
        S = data.algebra
        assert S.dim == 5
        q = Quiver("E", ("1", "2", "3"), (Arrow("pi", "2", "1"), Arrow("i", "3", "2")))
        rel = RingElement.from_path(QQ, make_path(q, ("i", "pi")))
        expected = quiver_algebra_to_finite(QuiverAlgebra("SE", q, QQ, relations=(rel,)))
        assert basic_algebra_isomorphism(S, expected) is not None


def test_criterion_3_pp_functor_table():
    with criterion(3, "pp/functor table matches on all five lines", 1):
        ws, mods, data, five = a2_setup()
        from ppcat.ppeval import certify_pair
        for name in ("q1", "q2", "t2", "q3", "t3"):
            pair = certify_pair(ws.get("pair", name))
            assert pp_functor_crosscheck(pair, five[name.upper()], data, mods), name


def test_criterion_4_localization_count():
    with criterion(4, "Serre quotient at P1: one class of size 3, two discarded", 5):
        _, (P1, _, _), data, five = a2_setup()
        mods = list(five.values())
        sigma = serre_from_generator(mods, P1, data)
        report = quotient_skeleton(mods, sigma)
        assert report.certain
        assert len(report.classes) == 1
        assert len(report.classes[0]) == 3
        assert len(report.discarded) == 2


def _round_trip(builtin, forward, back, fixture):
    ws = load_builtin(builtin)
    F = ws.get("interp", forward)
    G = ws.get("interp", back)
    assert validate(F).valid and validate(G).valid
    for M in ws.get("fixture", fixture):
        r = are_isomorphic(interp_apply(G, interp_apply(F, M)), M)
        assert r.isomorphic and r.witness is not None
        assert r.witness.is_invertible()


def test_criterion_5_a1tilde_round_trip():
    with criterion(5, "A1-tilde round trip J(I(M)) iso M on the Jordan fixtures", 5):
        _round_trip("a1tilde", "I", "J", "jordan")


def test_criterion_6_d4tilde_round_trip():
    with criterion(6, "D4-tilde round trip on the same fixtures", 10):
        _round_trip("d4tilde", "I4", "J4", "jordan")


def test_criterion_7_tensor_values():
    with criterion(7, "tensor values over A3 (kill the chain; M3 otherwise; Mi)", 1):
        ws = load_builtin("a3")
        L = ws.get("rightmodule", "L23")
        intervals = {n: ws.get("module", n)
                     for n in ("I11", "I12", "I13", "I22", "I23", "I33")}
        assert tensor(L, intervals["I13"]).dim == 0
        for n, M in intervals.items():
            if n != "I13":
                assert tensor(L, M).dim == M.dims["3"], n
        alg = ws.get("algebra", "KA3")
        from ppcat.tensor import right_representable
        rng = random.Random(0)
        for i in ("1", "2", "3"):
            Li = right_representable(alg, i)
            for M in intervals.values():
                assert tensor(Li, M).dim == M.dims[i]




def test_criterion_8_duality_identity():
    with criterion(8, "duality: dim D(phi)(M*) = sum dim M(s_i) - dim phi(M)", 20):
        for field, count, seed in ((F2, 200, 101), (QQ, 50, 202)):
            rng = random.Random(seed)
            pool = random_algebra_pool(field)
            for _ in range(count):
                alg = rng.choice(pool)
                phi = random_formula(rng, alg)
                M = random_module(rng, alg)
                d = dual(phi)
                lhs = eval_formula(d, dual_module(M)).dim
                rhs = sum(M.dims[s] for s in phi.free_sorts) - eval_formula(phi, M).dim
                assert lhs == rhs


def test_criterion_9_implication_oracle_equivalence():
    with criterion(9, "exact implication agrees with the complete A2 test set", 10):
        ws = load_builtin("a2")
        alg = ws.get("algebra", "KA2")
        indecs = [ws.get("module", n) for n in ("P1", "P2", "S1")]
        rng = random.Random(404)
        checked = 0
        while checked < 200:
            f = random_formula(rng, alg)
            g = random_formula(rng, alg)
            if f.free_sorts != g.free_sorts:
                continue
            exact = pp_implies(f, g)
            brute = pp_implies(f, g, test_modules=indecs)
            assert exact.holds == brute.holds
            checked += 1


def test_criterion_10_purity_cross_oracle():
    # purity of a mono is invariant under isomorphism of its ends, so checking
    # every mono between isomorphism-class representatives of the modules with
    # dims <= (2,2) covers all monos in that range
    with criterion(10, "purity oracles agree on all A2 monos up to dims (2,2)", 20):
        alg = QuiverAlgebra("KA2", Quiver("A2", ("1", "2"),
                                          (Arrow("a", "1", "2"),)), F2)
        from ppcat.ppeval import projective_rep
        op = alg.opposite()
        rights = [projective_rep(op, "1"), projective_rep(op, "2"),
                  Representation(op, {"1": 0, "2": 1}, {})]
        from test_tensor import a2_purity_formulas
        formulas = a2_purity_formulas(alg)
        mods = []
        for d1 in range(3):
            for d2 in range(3):
                for bits in itertools.product(range(2), repeat=d1 * d2):
                    m = Matrix(F2, d2, d1, tuple(bits))
                    M = Representation(alg, {"1": d1, "2": d2}, {"a": m})
                    if M.total_dim() and not any(are_isomorphic(M, R).isomorphic
                                                 for R in mods):
                        mods.append(M)
        checked = 0
        for M in mods:
            for N in mods:
                if any(M.dims[v] > N.dims[v] for v in ("1", "2")):
                    continue
                basis = hom_space(M, N)
                for bits in itertools.product(range(2), repeat=len(basis)):
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
                    assert t.pure == p.pure
                    checked += 1
        assert checked > 100


def test_criterion_11_parser_round_trip():
    with criterion(11, "parse/print identity on the corpus plus 500 fuzzed files", 10):
        for name in ("a2", "a3", "a1tilde", "d4tilde", "morita2"):
            ws = load_builtin(name)
            text = print_workspace(ws)
            ws2 = parse(text)
            assert print_workspace(ws2) == text
        rng = random.Random(777)
        for k in range(500):
            field = QQ if k % 2 == 0 else PrimeField(5)
            src = random_workspace(rng, field)
            ws = parse(src)
            printed = print_workspace(ws)
            ws2 = parse(printed)
            assert print_workspace(ws2) == printed

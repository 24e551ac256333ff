"""The characteristic-gated code paths over prime fields."""

import pytest

from ppcat.dsl import load_builtin
from ppcat.errors import CharacteristicTooSmall
from ppcat.funcat import (
    auslander_algebra, fin_are_isomorphic, functor_eval, projective_row, quotient_skeleton, serre_from_generator, simple_module,
)
from ppcat.ppeval import certify_pair, eval_pair
from ppcat.rep import are_isomorphic, endo_radical, is_indecomposable
from ppcat.scalars import PrimeField

from algebra_oracle import fin_is_indecomposable
from fixtures import a2_algebra, a2_p1, a2_p2, a2_s1, jordan_module, loop_algebra

F2 = PrimeField(2)
F7 = PrimeField(7)


def test_keps_fixture_parses_and_evaluates():
    ws = load_builtin("keps")
    alg = ws.get("algebra", "Keps")
    assert alg.admissible
    R, S = ws.get("module", "R"), ws.get("module", "S")
    socle = certify_pair(ws.get("pair", "socle_pair"))
    top_mod_rad = certify_pair(ws.get("pair", "top_mod_rad"))
    assert eval_pair(socle, R) == 1 and eval_pair(socle, S) == 1
    # top/rad is one-dimensional on both indecomposables
    assert eval_pair(top_mod_rad, R) == 0  # soc R = rad R for the regular module
    assert eval_pair(top_mod_rad, S) == 1


def test_keps_auslander_via_builtin():
    ws = load_builtin("keps")
    data = auslander_algebra([ws.get("module", "R"), ws.get("module", "S")])
    assert data.algebra.dim == 5
    # the projective rows evaluate as Hom(R, -) and Hom(S, -)
    R, S = ws.get("module", "R"), ws.get("module", "S")
    assert functor_eval(projective_row(data, 0), R, data).dim == 2
    assert functor_eval(projective_row(data, 1), R, data).dim == 1
    assert functor_eval(projective_row(data, 1), S, data).dim == 1


def test_funcat_works_over_f7():
    alg = a2_algebra(F7)
    P1, P2, S1 = a2_p1(alg), a2_p2(alg), a2_s1(alg)
    data = auslander_algebra([P1, P2, S1])
    assert data.algebra.dim == 5
    five = [projective_row(data, k) for k in range(3)] + \
           [simple_module(data, 0), simple_module(data, 1)]
    for i, X in enumerate(five):
        assert fin_is_indecomposable(X)
        for j in range(i + 1, 5):
            iso, certain = fin_are_isomorphic(X, five[j])
            assert not iso and certain
    sigma = serre_from_generator(five, P1, data)
    report = quotient_skeleton(five, sigma)
    assert report.certain
    assert sorted(len(c) for c in report.classes) == [3]


def test_characteristic_too_small_is_raised():
    alg = a2_algebra(F2)
    with pytest.raises(CharacteristicTooSmall):
        # dim S = 5 > 2, so the radical computation must refuse
        auslander_algebra([a2_p1(alg), a2_p2(alg), a2_s1(alg)]).algebra.radical()


def test_endo_radical_characteristic_gate():
    kt = loop_algebra(F2)
    M = jordan_module(kt, [(2, 0)])  # dim End = 2, char = 2
    with pytest.raises(CharacteristicTooSmall):
        endo_radical(M)
    kt7 = loop_algebra(F7)
    M7 = jordan_module(kt7, [(2, 0)])
    assert endo_radical(M7).dim == 1
    assert is_indecomposable(M7)


def test_exhaustive_iso_search_over_f2():
    alg = a2_algebra(F2)
    P1 = a2_p1(alg)
    other = a2_p1(alg)
    r = are_isomorphic(P1, other)
    assert r.isomorphic and r.certain
    # distinct dimension vectors: certainly not isomorphic
    r = are_isomorphic(P1, a2_s1(alg))
    assert not r.isomorphic and r.certain

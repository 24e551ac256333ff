"""Serre quotients through the corner eSe against the literal quotient.

`quotient_modules` sends each functor X to the eSe-module Xe, e the sum of
the idempotents outside Sigma, and `quotient_skeleton` groups the Xe.  The
oracle is the route they replaced (`serre_oracle`): Hom(X_min, Y / t(Y)) and
a search for mutually inverse quotient homs.  On the projective rows and
simple tops of the a2, a3 and keps Auslander algebras and of A2-A4 interval
lists over Q and F_32003, with a random Sigma:

- dim fin_hom(Xe, Ye) is the dimension of the oracle's quotient hom space,
  for every pair;
- the classes and the discarded functors are the oracle's;
- the report is certain wherever the oracle's is; where only it is, every
  two classes are told apart by the dimension, a sort dimension or a hom
  dimension of their Xe.
"""

from itertools import combinations

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from ppcat.errors import AlgebraMismatch
from ppcat.funcat import (
    SerreData, auslander_algebra, fin_hom, projective_row, quotient_modules, quotient_skeleton,
    serre_from_generator, simple_module,
)
from ppcat.scalars import QQ, PrimeField

import serre_oracle as oracle
from test_auslander_corners import fixture_summands, interval_modules

F32003 = PrimeField(32003)


def auslander_functors(summands):
    data = auslander_algebra(summands)
    n = len(summands)
    return [f(data, k) for f in (projective_row, simple_module) for k in range(n)]


@st.composite
def quotient_cases(draw, F):
    """(functors, Sigma): the rows and tops of the Auslander algebra of a
    shuffled subset of the A2-A4 intervals over F, or over Q of the a3
    fixture, and a random Sigma on its idempotents."""
    if F is QQ and draw(st.booleans()):
        summands = fixture_summands("a3")
    else:
        mods = interval_modules(F, draw(st.integers(2, 4)))
        summands = draw(st.lists(st.sampled_from(mods), min_size=1, max_size=5, unique_by=id))
    functors = auslander_functors(summands)
    return functors, SerreData(draw(st.sets(st.integers(0, len(summands) - 1))))


def told_apart(X, Y):
    """Whether the invariants `fin_are_isomorphic` reads before any search
    tell X and Y apart."""
    if X.dim != Y.dim or any(X.sort_dim(k) != Y.sort_dim(k)
                             for k in range(len(X.algebra.idempotents))):
        return True
    forward = len(fin_hom(X, Y))
    return not forward or forward != len(fin_hom(Y, X)) \
        or len(fin_hom(X, X)) != len(fin_hom(Y, Y))


def check_against_oracle(functors, serre):
    corners = quotient_modules(functors, serre)
    mins = [oracle.minimal_cotorsion(X, serre) for X in functors]
    tors = [oracle.torsion_part(X, serre) for X in functors]
    for i, (X, Xe) in enumerate(zip(functors, corners)):
        for j, (Y, Ye) in enumerate(zip(functors, corners)):
            want = oracle.quotient_hom(X, Y, serre, mins[i], tors[j]).basis
            assert len(fin_hom(Xe, Ye)) == len(want)
    got = quotient_skeleton(functors, serre)
    want = oracle.quotient_skeleton(functors, serre)
    assert (got.classes, got.discarded) == (want.classes, want.discarded)
    assert got.certain or not want.certain
    if got.certain and not want.certain:
        reps = [corners[cls[0]] for cls in got.classes]
        assert all(told_apart(X, Y) for a, X in enumerate(reps) for Y in reps[a + 1:])
    return got.certain, want.certain


@pytest.mark.parametrize("name", ["a2", "keps"])
def test_every_sigma_of_a2_and_keps_matches_the_oracle(name):
    summands = fixture_summands(name)
    functors = auslander_functors(summands)
    verdicts = [check_against_oracle(functors, SerreData(sigma))
                for size in range(len(summands) + 1)
                for sigma in combinations(range(len(summands)), size)]
    # keps with Sigma = {1}: the oracle cannot rule out row:0 = row:1 over Q
    assert ((True, False) in verdicts) == (name == "keps")


@pytest.mark.parametrize("F", [QQ, F32003], ids=str)
@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(data=st.data())
def test_corner_route_matches_the_literal_quotient(F, data):
    check_against_oracle(*data.draw(quotient_cases(F)))


def test_a2_quotient_by_the_generator_p1():
    """Over a2, Sigma = {1, 2} kills Q1 and T3; Q2 -> T2 becomes invertible,
    so their Xe are one-dimensional with a one-dimensional Hom each way."""
    summands = fixture_summands("a2")
    data = auslander_algebra(summands)
    Q2, Q3, Q1 = (projective_row(data, k) for k in range(3))
    T2, T3 = simple_module(data, 0), simple_module(data, 1)
    sigma = serre_from_generator([Q2, Q3, Q1, T2, T3], summands[0], data)
    assert sigma.simples == frozenset({1, 2})
    Q2e, Q3e, Q1e, T2e, T3e = quotient_modules([Q2, Q3, Q1, T2, T3], sigma)
    assert Q2e.algebra is T2e.algebra and Q2e.algebra.dim == 1
    assert [V.dim for V in (Q2e, Q3e, Q1e, T2e, T3e)] == [1, 1, 0, 1, 0]
    assert len(fin_hom(Q2e, T2e)) == len(fin_hom(T2e, Q2e)) == 1
    assert fin_hom(Q1e, Q2e) == []


def test_every_simple_in_sigma_leaves_a_zero_corner():
    data = auslander_algebra(fixture_summands("keps"))
    functors = [projective_row(data, 0), simple_module(data, 1)]
    corners = quotient_modules(functors, SerreData({0, 1}))
    assert corners[0].algebra.dim == 0 and [V.dim for V in corners] == [0, 0]
    assert quotient_modules([], SerreData(set())) == []


def test_functors_over_two_algebras_are_refused():
    a2 = auslander_algebra(fixture_summands("a2"))
    keps = auslander_algebra(fixture_summands("keps"))
    functors = [projective_row(a2, 0), projective_row(keps, 0)]
    with pytest.raises(AlgebraMismatch):
        quotient_modules(functors, SerreData(set()))
    with pytest.raises(AlgebraMismatch):
        quotient_skeleton(functors, SerreData({0}))

"""The census read off the sparse structure constants against the dense route.

The oracle is the route the census used to take, kept in `algebra_oracle`
and `linalg_oracle`: the radical by the iterated trace form over the
regular module's action matrices, each projective row as the `restrict`
of the regular module to a `submodule` closure, the radical of a module by
that closure, the Hom(T, X) actions as dense matrices composed on T, and
the relations of V (x)_S Hom(T, X) from `commuting_equations` on those
matrices.  The radical, projective rows, simple tops, densified Hom(T, X)
actions and relation spaces must agree down to `repr`.
"""

import pytest
from hypothesis import given, settings

from ppcat.funcat import auslander_algebra, functor_eval, projective_row, simple_module
from ppcat.linalg import Subspace
from ppcat.scalars import QQ, PrimeField

import algebra_oracle as oracle
from fixtures import (
    a2_algebra, a3_algebra, d4tilde_algebra, dense_act_vector, dense_action, summand_inclusion,
    summand_projection,
)
from linalg_oracle import commuting_equations
from test_auslander_corners import (
    densify, interval_modules, interval_subsets, keps_inputs, oracle_hom_action,
)

F32003 = PrimeField(32003)
FIELDS = [QQ, F32003]
SETTINGS = settings(derandomize=True, database=None, max_examples=30, deadline=None)


# -- the dense route ----------------------------------------------------------


def oracle_projective_row(S, k):
    reg = oracle.regular_module(S)
    ek = oracle.basis_vector(S, S.idempotents[k])
    return oracle.restrict(reg, oracle.submodule(
        reg, [oracle.mul(S, ek, oracle.basis_vector(S, j)) for j in range(S.dim)]))


def oracle_simple_module(S, k, rad):
    row = oracle_projective_row(S, k)
    vecs = [dense_act_vector(row, r).row(i) for r in rad.basis_rows() for i in range(row.dim)]
    return row.quotient(oracle.submodule(row, vecs))[0]


def oracle_hom_mats(data, X):
    """The basis of Hom(T, X) and the dense action matrices of the basis
    morphisms of S, each embedded in End(T)."""
    summands = data.summands
    incls = [summand_inclusion(summands, k) for k in range(len(summands))]
    projs = [summand_projection(summands, k) for k in range(len(summands))]
    morphisms = [incls[k].compose(g).compose(projs[i]) for i, k, g in data.basis_morphisms]
    return oracle_hom_action(data.sum_rep, morphisms, X)


def oracle_relations(V, mats, nH):
    F = V.field
    squares = [(0, 0, P, Av) for Av, P in zip(dense_action(V), mats)]
    return Subspace.from_vectors(F, V.dim * nH, commuting_equations(F, [(V.dim, nH)], squares))


# -- the comparison -----------------------------------------------------------


def fresh_copy(S):
    """The same algebra with empty memos, so that the dense route cannot hand
    its results to the sparse one."""
    return oracle.algebra(S.field, S.labels, oracle.table(S), oracle.idempotent_vectors(S))


def check_algebra(S):
    """Radical, projective rows and simple tops of S."""
    want = fresh_copy(S)
    rad = oracle.trace_radical(want)
    assert repr(S.radical()) == repr(rad)
    for k in range(len(S.idempotents)):
        for got, dense in ((projective_row(S, k), oracle_projective_row(want, k)),
                           (simple_module(S, k), oracle_simple_module(want, k, rad))):
            assert repr((got.dim, dense_action(got))) == repr((dense.dim, dense_action(dense)))


def check_census(summands, args):
    data = auslander_algebra(summands)
    S = data.algebra
    check_algebra(S)
    functors = [f(data, k) for k in range(len(summands)) for f in (projective_row, simple_module)]
    for X in args:
        H, actions = data.hom_action(X)
        want_H, mats = oracle_hom_mats(data, X)
        assert [h.blocks for h in H] == [h.blocks for h in want_H]
        assert repr([densify(X.field, cols, len(H)) for cols in actions]) == repr(mats)
        for V in functors:
            val = functor_eval(V, X, data)
            assert repr(val.relations) == repr(oracle_relations(V, mats, len(H)))


@SETTINGS
@given(interval_subsets())
def test_interval_subsets_census_matches_the_dense_route(inputs):
    check_census(*inputs)


@pytest.mark.parametrize("F", FIELDS, ids=str)
@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_keps_census_matches_the_dense_route(F, order):
    summands, args = keps_inputs(F)
    check_census([summands[k] for k in order], args)


@pytest.mark.parametrize("F", FIELDS, ids=str)
@pytest.mark.parametrize("make", [a2_algebra, a3_algebra, d4tilde_algebra],
                         ids=lambda f: f.__name__)
def test_path_algebra_census_matches_the_dense_route(F, make):
    check_algebra(oracle.quiver_algebra_to_finite(make(F)))


# -- what the census does not build -------------------------------------------


def test_census_builds_no_regular_module_closure_or_dense_action():
    summands = interval_modules(F32003, 4)
    data = auslander_algebra(summands)
    data.algebra.radical()
    rows = [projective_row(data, k) for k in range(len(summands))]
    for k in range(len(summands)):
        simple_module(data, k)
    for X in summands[:3]:
        for V in rows:
            functor_eval(V, X, data)
        _, actions = data.hom_action(X)
        assert len(actions) == data.algebra.dim
        assert all(type(cols) is dict and all(type(col) is tuple for col in cols.values())
                   for cols in actions)

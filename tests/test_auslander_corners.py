"""The corner-by-corner Auslander construction against a T-level oracle.

The oracle is the construction `auslander_algebra` used to run: every basis
morphism is embedded in End(T), T the direct sum of the summands, every
product is composed on T, coordinates come from one solve over all of
End(T), and the table goes in dense.  Hom(T, X) is `hom_space(T, X)` with
its action composed on T, and the relations of V (x)_S Hom(T, X) are every
entry of the commuting squares, zero rows included.  The sparse build must
give the same labels, table, idempotents, radical, Hom(T, X) basis and
action matrices, and relation spaces, down to `repr`.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppcat.dsl import load_builtin
from ppcat.errors import PpcatError
from ppcat.funcat import auslander_algebra, functor_eval, projective_row, simple_module
from ppcat.linalg import Matrix, Subspace
from ppcat.quiver import Arrow, Quiver, QuiverAlgebra
from ppcat.rep import coordinate_map, direct_sum, endo_radical, hom_space, linear_combination
from ppcat.scalars import QQ, PrimeField

import algebra_oracle as oracle
from fixtures import (
    a3_algebra, dense_action, dual_numbers_algebra, jordan_module, rep, summand_inclusion,
    summand_projection,
)
from test_funcat import _dense_associative as dense_associative

F32003 = PrimeField(32003)
FIELDS = [QQ, F32003]
SETTINGS = settings(derandomize=True, database=None, max_examples=40, deadline=None)


# -- the oracle ---------------------------------------------------------------


def oracle_auslander(summands):
    """(algebra, T, basis morphisms of End(T)), built on T."""
    T = direct_sum(summands)
    F = T.field
    n = len(summands)
    incls = [summand_inclusion(summands, k) for k in range(n)]
    projs = [summand_projection(summands, k) for k in range(n)]
    labels, morphisms, pairs, idempotent_positions = [], [], [], []
    for i in range(n):
        for j in range(n):
            if i == j:
                idempotent_positions.append(len(labels))
                labels.append("e%d" % i)
                morphisms.append(incls[i].compose(projs[i]))
                pairs.append((i, i))
                basis = hom_space(summands[i], summands[i])
                for r, vec in enumerate(endo_radical(summands[i], basis).basis_rows()):
                    labels.append("r%d_%d" % (i, r))
                    morphisms.append(incls[i].compose(linear_combination(basis, vec))
                                     .compose(projs[i]))
                    pairs.append((i, i))
            else:
                for k, g in enumerate(hom_space(summands[i], summands[j])):
                    labels.append("f%d_%d_%d" % (i, j, k))
                    morphisms.append(incls[j].compose(g).compose(projs[i]))
                    pairs.append((i, j))
    coordinates = coordinate_map(morphisms, T, T)
    zero = (F.zero(),) * len(morphisms)
    table = [[coordinates(b.compose(a)) if bp[0] == ap[1] else zero
              for b, bp in zip(morphisms, pairs)]
             for a, ap in zip(morphisms, pairs)]
    idempotents = []
    for pos in idempotent_positions:
        z = [F.zero()] * len(labels)
        z[pos] = F.one()
        idempotents.append(tuple(z))
    return oracle.algebra(F, labels, table, idempotents), T, morphisms


def oracle_hom_action(T, morphisms, X):
    F = X.field
    H = hom_space(T, X)
    mats = []
    if H:
        coordinates = coordinate_map(H, T, X)
        for s in morphisms:
            mats.append(Matrix.from_rows(F, [coordinates(h.compose(s)) for h in H]).transpose())
    return H, mats


def densify(F, cols, nH):
    """The nH x nH matrix of a `hom_action` entry, column j -> [(row, value)].
    The entry must list only nonzero columns and values, each in increasing
    order, so that it is as canonical as the matrix."""
    assert list(cols) == sorted(cols)
    ents = [F.zero()] * (nH * nH)
    for j, col in cols.items():
        assert col and [i for i, _ in col] == sorted({i for i, _ in col})
        for i, x in col:
            assert not F.is_zero(x)
            ents[i * nH + j] = x
    return Matrix(F, nH, nH, tuple(ents))


def oracle_relations(V, actions, nH):
    """Every equation of v s (x) h = v (x) s h, one per entry of each square."""
    F = V.field
    nV = V.dim
    rows = []
    for Av, P in zip(dense_action(V), actions):
        for i in range(nV):
            for j in range(nH):
                row = [F.zero()] * (nV * nH)
                for k in range(nH):
                    row[i * nH + k] = F.add(row[i * nH + k], P.at(k, j))
                for l in range(nV):
                    row[l * nH + j] = F.sub(row[l * nH + j], Av.at(i, l))
                rows.append(row)
    return Subspace.from_vectors(F, nV * nH, rows)


# -- inputs -------------------------------------------------------------------


def interval_modules(F, n):
    verts = tuple(str(v) for v in range(1, n + 1))
    alg = QuiverAlgebra("A%d" % n, Quiver("A%d" % n, verts, tuple(
        Arrow("a%d" % v, str(v), str(v + 1)) for v in range(1, n))), F)
    return [rep(alg, {str(v): int(i <= v <= j) for v in range(1, n + 1)},
                {"a%d" % v: [[1]] for v in range(i, j)})
            for i in range(1, n + 1) for j in range(i, n + 1)]


@st.composite
def interval_subsets(draw):
    """(summands, arguments): a shuffled subset of the interval modules of A3,
    A4 or A5, and a few argument modules, summands or not."""
    F = draw(st.sampled_from(FIELDS))
    mods = interval_modules(F, draw(st.integers(3, 5)))
    idx = draw(st.lists(st.integers(0, len(mods) - 1), min_size=1, max_size=6, unique=True))
    summands = [mods[k] for k in idx]
    others = draw(st.lists(st.integers(0, len(mods) - 1), max_size=3, unique=True))
    args = summands[:2] + [mods[k] for k in others]
    args.append(direct_sum([mods[k] for k in idx[:2] + others[:1]]))
    return summands, args


def keps_inputs(F):
    """The dual numbers: End(R) has a radical, so the corner e_R S e_R does."""
    if F is QQ:
        ws = load_builtin("keps")
        R, S = ws.get("module", "R"), ws.get("module", "S")
    else:
        alg = dual_numbers_algebra(F)
        R, S = jordan_module(alg, [(2, 0)]), jordan_module(alg, [(1, 0)])
    return [R, S], [R, S, direct_sum([R, S, S])]


# -- the comparison -----------------------------------------------------------


def check_against_oracle(summands, args):
    data = auslander_algebra(summands)
    S = data.algebra
    want, T, morphisms = oracle_auslander(summands)
    assert repr(S.labels) == repr(want.labels)
    assert repr(oracle.table(S)) == repr(oracle.table(want))
    assert repr(S.idempotents) == repr(want.idempotents)
    assert repr(S.radical()) == repr(want.radical())
    functors = [(f(data, k), f(want, k)) for k in range(len(summands))
                for f in (projective_row, simple_module)]
    for X in args:
        H, actions = data.hom_action(X)
        want_H, want_mats = oracle_hom_action(T, morphisms, X)
        assert [h.blocks for h in H] == [h.blocks for h in want_H]
        assert repr([densify(X.field, cols, len(H)) for cols in actions]) == repr(want_mats)
        for V, want_V in functors:
            val = functor_eval(V, X, data)
            assert repr(val.relations) == repr(oracle_relations(want_V, want_mats, len(H)))
            assert val.dim == val.ambient - val.relations.dim


@SETTINGS
@given(interval_subsets())
def test_interval_subsets_match_the_oracle(inputs):
    check_against_oracle(*inputs)


@pytest.mark.parametrize("F", FIELDS, ids=str)
@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_keps_matches_the_oracle(F, order):
    summands, args = keps_inputs(F)
    check_against_oracle([summands[k] for k in order], args)


# -- the sparse constructor rejects what the dense one rejects ----------------


def sparse_form(table):
    return {(i, j): [(k, c) for k, c in enumerate(cell)]
            for i, row in enumerate(table) for j, cell in enumerate(row)}


def check_verdict(F, labels, table, idempotents):
    """The sparse form of `table` is rejected as not associative exactly when
    the dense oracle finds a failing triple."""
    if dense_associative(F, table):
        try:
            oracle.algebra(F, labels, sparse_form(table), idempotents)
        except PpcatError as exc:
            assert "not associative" not in str(exc)
    else:
        with pytest.raises(PpcatError, match="not associative"):
            oracle.algebra(F, labels, sparse_form(table), idempotents)


@SETTINGS
@given(st.sampled_from([QQ, PrimeField(3), F32003]), st.data())
def test_perturbed_path_algebra_tables_get_the_dense_verdict(F, data):
    A = oracle.quiver_algebra_to_finite(a3_algebra(F))
    table = [list(map(list, row)) for row in oracle.table(A)]
    n = A.dim
    i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    table[i][j][k] = F.add(table[i][j][k], F.from_int(data.draw(st.integers(1, 2))))
    check_verdict(F, A.labels, table, A.idempotents)


def test_spurious_term_in_a_product_of_arrows_is_rejected():
    A = oracle.quiver_algebra_to_finite(a3_algebra(QQ))
    table = [list(map(list, row)) for row in oracle.table(A)]
    e1, a, b = A.labels.index("id(1)"), A.labels.index("a"), A.labels.index("b")
    table[e1][a][b] = QQ.one()  # e1 * a picks up a spurious b
    assert not dense_associative(QQ, table)
    check_verdict(QQ, A.labels, table, A.idempotents)


@functools.cache
def small_auslander(F, kind):
    """The Auslander algebras of A2 and of the dual numbers (dim 5 each), small
    enough for the dense oracle's n^4 sweep."""
    return auslander_algebra(interval_modules(F, 2) if kind == "A2" else keps_inputs(F)[0]).algebra


@SETTINGS
@given(st.sampled_from(FIELDS), st.sampled_from(["A2", "keps"]), st.data())
def test_perturbed_auslander_constants_get_the_dense_verdict(F, kind, data):
    S = small_auslander(F, kind)
    table = [list(map(list, row)) for row in oracle.table(S)]
    n = S.dim
    i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    table[i][j][k] = F.add(table[i][j][k], F.one())
    check_verdict(F, S.labels, table, S.idempotents)


# -- the constructed constants pass the constructor's checks -------------------


def fixture_summands(name):
    ws = load_builtin(name)
    return [ws.get("module", m) for m in sorted(ws.by_kind["module"])]


@pytest.mark.parametrize("name", ["a2", "a3", "keps"])
def test_fixture_auslander_algebras_are_valid(name):
    """`auslander_algebra` builds its constants unchecked: they pass the
    checks of a hand-built algebra."""
    oracle.check_algebra(auslander_algebra(fixture_summands(name)).algebra)


@pytest.mark.parametrize("F", FIELDS, ids=str)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_interval_auslander_algebras_are_valid(F, n):
    oracle.check_algebra(auslander_algebra(interval_modules(F, n)).algebra)

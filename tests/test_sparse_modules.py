"""Sparse module data in the census against the dense routes it replaced.

- `linalg.sparse_span` of rows given as {column: value} against
  `Subspace.from_vectors` of the densified rows, by `repr`.
- The Hom(T, M_x) actions of a summand M_x, built on the remembered bases,
  against the dense oracle composed on T and against a structurally equal
  copy of M_x, by `repr` of the densified actions.
- `functor_eval` at a summand, dim V e_x with the relations built only when
  read, against the dense oracle and against the copy.
- The census and the `funcat-quotient` requests with dense action input
  refused (a `FinModule` has no dense view), and the census with no
  Hom(T, X) action built.
- `FinModule.quotient` and `fin_hom`, and the oracle's `submodule` and
  `restrict`, on the sparse rows against the dense formulas, and the checks
  of `algebra_oracle.module` on dense input.
- The shortcuts of `project` onto a prefix and of `contains` against the
  plain elimination and membership tests.
"""

import io
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppcat.cli import run
from ppcat.errors import DimensionMismatch, NotASubspace, PpcatError
from ppcat.funcat import (
    AuslanderData, FiniteAlgebra, FinModule, auslander_algebra, fin_hom, functor_eval,
    projective_row, simple_module,
)
from ppcat.linalg import (
    Matrix, QuotientSpace, Subspace, commuting_solutions, contains, project, sparse_span,
    sparse_squares,
)
from ppcat.rep import Representation
from ppcat.scalars import QQ, PrimeField

import algebra_oracle as oracle
from fixtures import a3_algebra, dense_action, dual_numbers_algebra, rep
from linalg_oracle import row_apply
from test_auslander_corners import densify, interval_modules, interval_subsets, keps_inputs
from test_reports_golden import GOLDEN
from test_sparse_census import oracle_hom_mats, oracle_relations

F32003 = PrimeField(32003)
FIELDS = [QQ, PrimeField(2), PrimeField(3), F32003]
SETTINGS = settings(derandomize=True, database=None, max_examples=150, deadline=None)


def values(F):
    """Entries as callers hand them in: over Q `Fraction`s and ints, over
    F_p ints outside 0..p-1 too; zero is drawn often."""
    if F is QQ:
        return st.one_of(st.just(0), st.integers(-4, 4),
                         st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))
    return st.one_of(st.just(0), st.integers(-2 * F.p, 2 * F.p))


def dense(F, n, row):
    out = [F.zero()] * n
    for j, x in row.items():
        out[j] = x
    return out


# -- the sparse span ------------------------------------------------------------


@st.composite
def sparse_rows(draw):
    """(field, ncols, rows): rows with explicit zeros, empty rows, duplicate
    rows, and pairs of rows whose sum cancels, over 0 to 8 columns."""
    F = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(0, 8))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        cols = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True)) if n else []
        row = {j: draw(values(F)) for j in cols}
        rows.append(row)
        if row and draw(st.booleans()):
            rows.append(dict(row))
        if row and draw(st.booleans()):
            rows.append({j: F.neg(x) for j, x in row.items()})
        if len(rows) > 1 and draw(st.booleans()):
            # a combination of two earlier rows, which the span must absorb
            a, b = (rows[draw(st.integers(0, len(rows) - 1))] for _ in range(2))
            c = draw(values(F))
            comb = {j: F.add(a.get(j, F.zero()), F.mul(c, b.get(j, F.zero())))
                    for j in set(a) | set(b)}
            rows.append(comb)
    order = draw(st.permutations(range(len(rows))))
    return F, n, [rows[k] for k in order]


@SETTINGS
@given(sparse_rows())
def test_sparse_span_is_the_dense_span(case):
    F, n, rows = case
    want = Subspace.from_vectors(F, n, [dense(F, n, row) for row in rows])
    got = sparse_span(F, n, rows)
    assert repr(got) == repr(want)
    assert got.pivots == want.pivots


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_sparse_span_needs_back_substitution(F):
    # echelon rows (1, 1, 0) and (0, 1, 1): the RREF clears column 1 of the first
    rows = [{0: 1, 1: 1}, {1: 1, 2: 1}]
    got = sparse_span(F, 3, rows)
    assert repr(got) == repr(Subspace.from_vectors(F, 3, [dense(F, 3, r) for r in rows]))
    assert got.basis.row(0)[1] == 0


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_sparse_span_of_nothing(F):
    for n in (0, 3):
        for rows in ([], [{}], [{0: 0}] if n else [{}, {}]):
            assert repr(sparse_span(F, n, rows)) == repr(Subspace.from_vectors(F, n, [
                dense(F, n, r) for r in rows]))


# -- the summand route of hom_action -------------------------------------------


def general_route(data, X):
    """hom_action of X by composing and solving on a fresh `hom_space`: a
    copy of X that is equal but not one of the summands takes that route."""
    return data._build_hom_action(structural_copy(X))


def structural_copy(X):
    return Representation(X.algebra, dict(X.dims), dict(X.maps), check=False)


def check_summand_route(summands):
    data = auslander_algebra(summands)
    for X in summands:
        H, actions = data.hom_action(X)
        want_H, mats = oracle_hom_mats(data, X)
        copy_H, copy = general_route(data, X)
        assert [h.blocks for h in H] == [h.blocks for h in want_H] == \
            [h.blocks for h in copy_H]
        nH = len(H)
        assert repr([densify(X.field, cols, nH) for cols in actions]) == repr(mats) == \
            repr([densify(X.field, cols, nH) for cols in copy])


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(interval_subsets())
def test_summand_actions_match_the_general_route(inputs):
    check_summand_route(inputs[0])


# square-zero matrices: t on the regular module of the dual numbers in other
# bases.  With a nonzero first entry, the `hom_space` basis of End(R) is not
# e and a radical row.
SQUARE_ZERO = [[[0, 1], [0, 0]], [[1, 1], [-1, -1]], [[2, -4], [1, -2]], [[-3, 9], [-1, 3]]]


def keps_summands(F, t):
    alg = dual_numbers_algebra(F)
    return [rep(alg, {"v": 2}, {"t": t}), rep(alg, {"v": 1}, {})]


@pytest.mark.parametrize("F", [QQ, F32003], ids=str)
@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
@pytest.mark.parametrize("t", SQUARE_ZERO, ids=str)
def test_summand_actions_with_a_radical_corner(F, order, t):
    summands = keps_summands(F, t)
    check_summand_route([summands[k] for k in order])


# -- functor values at a summand ------------------------------------------------


@st.composite
def summand_cases(draw, smallest=3, largest=5):
    """(Auslander data, functors): the summands are shuffled interval
    modules of A_smallest-A_largest (A3-A5 unless given), or the two keps
    modules with t in one of four bases, over Q or F_32003; the functors
    are the projective rows, the simple tops, quotients of rows by the
    submodule of random vectors, and a row and a quotient in a random basis.
    In the bases the census builds every idempotent acts on coordinates;
    in a random one its nonzero action rows need not be independent."""
    F = draw(st.sampled_from([QQ, F32003]))
    if draw(st.booleans()):
        mods = interval_modules(F, draw(st.integers(smallest, largest)))
        idx = draw(st.lists(st.integers(0, len(mods) - 1), min_size=1, max_size=5,
                            unique=True))
        summands = [mods[k] for k in idx]
    else:
        summands = keps_summands(F, draw(st.sampled_from(SQUARE_ZERO)))
        summands = summands[::draw(st.sampled_from([1, -1]))]
    data = auslander_algebra(summands)
    n = len(summands)
    functors = [f(data, k) for k in range(n) for f in (projective_row, simple_module)]
    coeff = st.integers(-2, 2).map(F.from_int)
    for _ in range(draw(st.integers(1, 3))):
        row = projective_row(data, draw(st.integers(0, n - 1)))
        vecs = draw(st.lists(st.lists(coeff, min_size=row.dim, max_size=row.dim),
                             min_size=1, max_size=2))
        quo = row.quotient(oracle.submodule(row, vecs))[0]
        functors.append(quo)
    for V in (row, quo):
        entries = draw(st.lists(st.integers(-2, 2), min_size=V.dim ** 2, max_size=V.dim ** 2))
        functors.append(conjugated(V, entries))
    return data, functors


def conjugated(V, entries):
    """V in the basis P = 1 + N, N strictly upper triangular with the given
    entries: the action matrices P A P^-1."""
    F, n = V.field, V.dim
    N = Matrix(F, n, n, tuple(F.from_int(x) if t % n > t // n else F.zero()
                              for t, x in enumerate(entries)))
    one = Matrix.identity(F, n)
    inverse = power = one
    for _ in range(n):
        power = power.mul(N.scale(F.from_int(-1)))
        inverse = inverse.add(power)
    P = one.add(N)
    assert P.mul(inverse) == one
    return oracle.module(V.algebra, n, [P.mul(A).mul(inverse) for A in dense_action(V)])


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(summand_cases())
def test_functor_values_at_summands(case):
    data, functors = case
    for X in data.summands:
        copy = structural_copy(X)
        _, mats = oracle_hom_mats(data, X)
        nH = mats[0].rows
        for V in functors:
            val = functor_eval(V, X, data)
            assert val.ambient == V.dim * nH
            assert val.dim == val.ambient - val.relations.dim
            assert val.dim == functor_eval(V, copy, data).dim
            assert repr(val.relations) == repr(oracle_relations(V, mats, nH))


def test_functor_values_at_summands_build_no_hom_action(monkeypatch):
    cases = [interval_modules(F32003, 4)[1::2], keps_summands(QQ, SQUARE_ZERO[2])]
    want = [census(inputs)[1] for inputs in cases]

    def refuse(self, X):
        raise AssertionError("a Hom(T, X) action was built")
    monkeypatch.setattr(AuslanderData, "_build_hom_action", refuse)
    assert [census(inputs)[1] for inputs in cases] == want
    data = auslander_algebra(cases[1])
    val = functor_eval(projective_row(data, 0), cases[1][0], data)
    with pytest.raises(AssertionError, match="Hom"):
        val.relations


# -- no dense action is built -------------------------------------------------


def census(inputs):
    """The projective rows, and the dimension of every row and simple top
    evaluated on every input."""
    data = auslander_algebra(inputs)
    data.algebra.radical()
    rows = [projective_row(data, k) for k in range(len(inputs))]
    tops = [simple_module(data, k) for k in range(len(inputs))]
    return rows, [functor_eval(V, X, data).dim for V in rows + tops for X in inputs]


def refuse_dense_actions(monkeypatch):
    """A `FinModule` keeps only its sparse rows and has no dense view, so a
    dense action can only be handed to its constructor: make that fail."""
    init = FinModule.__init__

    def sparse_only(self, algebra, dim, action):
        action = tuple(action)
        if any(isinstance(m, Matrix) for m in action):
            raise AssertionError("a dense action was built")
        init(self, algebra, dim, action)
    monkeypatch.setattr(FinModule, "__init__", sparse_only)


@pytest.mark.parametrize("F", [QQ, F32003], ids=str)
def test_census_never_builds_the_dense_action(F, monkeypatch):
    cases = [interval_modules(F, 4)[::2], keps_inputs(F)[0], keps_summands(F, SQUARE_ZERO[1])]
    want = [census(inputs)[1] for inputs in cases]
    refuse_dense_actions(monkeypatch)
    for inputs, dims in zip(cases, want):
        rows, got = census(inputs)
        assert got == dims
        assert not hasattr(rows[0], "action")
    with pytest.raises(AssertionError, match="dense action"):
        FinModule(rows[0].algebra, rows[0].dim, dense_action(rows[0]))


QUOTIENT_REQUESTS = [e for e in GOLDEN if e["argv"][0] == "funcat-quotient"]


@pytest.mark.parametrize("entry", QUOTIENT_REQUESTS,
                         ids=[" ".join(e["argv"]) for e in QUOTIENT_REQUESTS])
def test_quotient_requests_never_build_the_dense_action(entry, monkeypatch):
    refuse_dense_actions(monkeypatch)
    buf = io.StringIO()
    assert run(list(entry["argv"]), stdout=buf) == entry["exit"]
    assert buf.getvalue() == entry["stdout"]


# -- module operations on the sparse rows --------------------------------------


def dense_quotient(V, sub):
    """The quotient as `FinModule.quotient` built it from the dense matrices."""
    F = V.field
    q = QuotientSpace(Subspace.full(F, V.dim), sub)
    return tuple(Matrix.from_rows(F, [q.project_vector(row_apply(q.lift(i), m))
                                      for i in range(q.dim)]) if q.dim else Matrix(F, 0, 0, ())
                 for m in dense_action(V))


def dense_submodule(V, vectors):
    """The closure `algebra_oracle.submodule` takes, on the dense matrices."""
    F = V.field
    current = Subspace.from_vectors(F, V.dim, vectors)
    while True:
        vecs = list(current.basis_rows())
        for r in current.basis_rows():
            for m in dense_action(V):
                vecs.append(row_apply(r, m))
        nxt = Subspace.from_vectors(F, V.dim, vecs)
        if nxt.dim == current.dim:
            return nxt
        current = nxt


def dense_restrict(V, sub):
    F = V.field
    rows = sub.basis_rows()
    return tuple(Matrix.from_rows(F, [sub.coordinates(row_apply(r, m)) for r in rows])
                 if rows else Matrix(F, 0, 0, ()) for m in dense_action(V))


def dense_fin_hom(X, Y):
    """`fin_hom` on the dense squares f Y(s) = X(s) f."""
    shapes = [(X.dim, Y.dim)]
    squares = [(0, 0, B, A) for A, B in zip(dense_action(X), dense_action(Y))]
    return [blocks[0] for blocks in
            commuting_solutions(X.field, shapes, sparse_squares(shapes, squares))]


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.sampled_from([QQ, F32003]), st.sampled_from(["a3", "keps"]), st.data())
def test_quotients_and_actions_match_the_dense_route(F, kind, data):
    S = oracle.quiver_algebra_to_finite(a3_algebra(F)) if kind == "a3" else \
        auslander_algebra(keps_summands(F, SQUARE_ZERO[2])).algebra
    coeff = st.integers(-3, 3).map(F.from_int)
    reg = oracle.regular_module(S)
    V = projective_row(S, data.draw(st.integers(0, len(S.idempotents) - 1))) \
        if data.draw(st.booleans()) else reg
    if data.draw(st.booleans()):
        V = conjugated(V, data.draw(st.lists(st.integers(-2, 2), min_size=V.dim ** 2,
                                             max_size=V.dim ** 2)))
    vecs = data.draw(st.lists(st.lists(coeff, min_size=V.dim, max_size=V.dim), max_size=3))
    closure = oracle.submodule(V, vecs)
    assert repr(closure) == repr(dense_submodule(V, vecs))
    W = oracle.restrict(V, closure)
    assert repr(dense_action(W)) == repr(dense_restrict(V, closure))
    # the formula is defined for any subspace, and one that is not a
    # submodule rarely lies along the coordinates
    sub = closure if data.draw(st.booleans()) else Subspace.from_vectors(F, V.dim, vecs)
    quo, q = V.quotient(sub)
    assert (quo.dim, q.dim) == (V.dim - sub.dim, V.dim - sub.dim)
    assert repr(dense_action(quo)) == repr(dense_quotient(V, sub))
    for X, Y in ((V, V), (W, V), (V, quo), (quo, W)):
        assert repr(fin_hom(X, Y)) == repr(dense_fin_hom(X, Y))


def test_dense_input_is_checked():
    S = auslander_algebra(keps_summands(QQ, SQUARE_ZERO[2])).algebra
    row = projective_row(S, 0)
    mats = list(dense_action(row))
    assert repr(dense_action(oracle.module(S, row.dim, mats))) == repr(tuple(mats))
    with pytest.raises(DimensionMismatch):
        oracle.module(S, row.dim, mats[1:])
    with pytest.raises(DimensionMismatch):
        oracle.module(S, row.dim + 1, mats)
    e0, r0 = S.labels.index("e0"), S.labels.index("r0_0")
    unit = [Matrix.zero(QQ, row.dim, row.dim) if m == e0 else A for m, A in enumerate(mats)]
    with pytest.raises(PpcatError, match="unit"):
        oracle.module(S, row.dim, unit)
    # f0_1 f1_0 is a nonzero multiple of r0_0, so doubling the action of r0_0
    # breaks that product
    bad = [A.scale(QQ.from_int(2)) if m == r0 else A for m, A in enumerate(mats)]
    with pytest.raises(PpcatError, match="structure constants"):
        oracle.module(S, row.dim, bad)


def test_projective_row_checks_closure_under_the_action():
    # unchecked constants with e0 x1 = x1 but x1 x1 = x2 outside e0 S
    S = FiniteAlgebra(QQ, ["x0", "x1", "x2"], {(0, 0): [(0, 1)], (0, 1): [(1, 1)],
                                               (1, 1): [(2, 1)]}, [(1, 0, 0)])
    with pytest.raises(NotASubspace):
        projective_row(S, 0)


# -- project onto a prefix, and contains ---------------------------------------


@st.composite
def subspace_pairs(draw):
    F = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(0, 6))
    elems = values(F) if F is QQ else st.integers(0, F.p - 1)

    def space():
        vecs = [draw(st.lists(elems, min_size=n, max_size=n))
                for _ in range(draw(st.integers(0, 4)))]
        return Subspace.from_vectors(F, n, vecs)
    a = space()
    # b inside a about half the time: a span of combinations of a's rows
    if draw(st.booleans()):
        rows = a.basis_rows()
        combos = []
        for _ in range(draw(st.integers(0, 3))):
            coeffs = [draw(elems) for _ in rows]
            v = [F.zero()] * n
            for c, r in zip(coeffs, rows):
                v = [F.add(x, F.mul(c, y)) for x, y in zip(v, r)]
            combos.append(v)
        b = Subspace.from_vectors(F, n, combos)
    else:
        b = space()
    return F, n, a, b, draw(st.integers(0, n))


@SETTINGS
@given(subspace_pairs())
def test_prefix_projection_matches_elimination(case):
    F, n, a, _, k = case
    want = Subspace.from_vectors(F, k, [r[:k] for r in a.basis_rows()])
    assert repr(project(a, range(k))) == repr(want)
    assert repr(project(a, list(range(k)))) == repr(want)


@SETTINGS
@given(subspace_pairs())
def test_contains_matches_membership(case):
    _, _, a, b, _ = case
    want = all(a.contains_vector(r) for r in b.basis_rows())
    assert contains(a, b) == want
    assert contains(a, a) and contains(b, b)

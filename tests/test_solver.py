"""The factored solver, the per-field matrix product and the trace-form Gram
matrix against the field-generic computations they replace.

The oracle for `Solver` is the one-shot elimination that `solve` used to run:
the RREF of [m | t], None when t's column holds a pivot, and otherwise the
pivot entries of that column, every free variable zero.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppcat.errors import DimensionMismatch
from ppcat.linalg import Matrix, Solver, rref_with_pivots, trace_gram
from ppcat.scalars import QQ

from linalg_oracle import solve
from test_rref_kernel import FIELDS, field_elements

SETTINGS = settings(derandomize=True, database=None, max_examples=150, deadline=None)
FEW = settings(derandomize=True, database=None, max_examples=40, deadline=None)


def oracle_solve(m, target):
    F = m.field
    aug = [m.row(i) + (t,) for i, t in enumerate(target)]
    red, pivots = rref_with_pivots(Matrix(F, m.rows, m.cols + 1, sum(aug, ())))
    if m.cols in pivots:
        return None
    x = [F.zero()] * m.cols
    for i, p in enumerate(pivots):
        x[p] = red.at(i, m.cols)
    return tuple(x)


def _dot(F, u, v):
    s = F.zero()
    for x, y in zip(u, v):
        s = F.add(s, F.mul(x, y))
    return s


@st.composite
def systems(draw):
    """A matrix of rank at most k (an L*R product, so often rank-deficient),
    one of its rows possibly zero, and targets: images m x, which
    are consistent, and arbitrary vectors, which mostly are not when m is
    rank-deficient."""
    F = draw(st.sampled_from(FIELDS))
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(0, 7))
    k = draw(st.integers(0, min(nrows, ncols)))
    left = [[draw(field_elements(F)) for _ in range(k)] for _ in range(nrows)]
    right = [[draw(field_elements(F)) for _ in range(ncols)] for _ in range(k)]
    rows = [[_dot(F, li, [r[j] for r in right]) for j in range(ncols)] for li in left]
    if draw(st.booleans()) and nrows:
        rows[draw(st.integers(0, nrows - 1))] = [F.zero()] * ncols
    m = Matrix(F, nrows, ncols, tuple(x for r in rows for x in r))
    targets = []
    for _ in range(draw(st.integers(1, 4))):
        x = [draw(field_elements(F)) for _ in range(ncols)]
        targets.append(tuple(_dot(F, r, x) for r in rows))
        targets.append(tuple(draw(field_elements(F)) for _ in range(nrows)))
    return m, targets


@SETTINGS
@given(systems())
def test_solver_matches_one_shot_elimination(case):
    m, targets = case
    solver = Solver(m)
    for t in targets:
        want = oracle_solve(m, t)
        got = solver.solve(t)
        assert got == want
        assert solve(m, t) == want
        if got is not None:
            assert len(got) == m.cols
            if m.field is QQ:
                assert all(type(x) is Fraction for x in got)
            else:
                assert all(type(x) is int and 0 <= x < m.field.p for x in got)


def test_solver_reports_inconsistent_targets():
    for F in FIELDS:
        one, zero = F.one(), F.zero()
        m = Matrix.from_rows(F, [[one, one], [one, one], [zero, zero]])  # rank 1
        solver = Solver(m)
        assert solver.solve((one, one, zero)) == (one, zero)
        assert solver.solve((one, zero, zero)) is None
        assert solver.solve((zero, zero, one)) is None
        assert solver.solve((zero, zero, zero)) == (zero, zero)


def test_solver_on_empty_shapes():
    for F in FIELDS:
        one, zero = F.one(), F.zero()
        assert Solver(Matrix(F, 0, 3, ())).solve(()) == (zero,) * 3
        assert Solver(Matrix(F, 2, 0, ())).solve((zero, zero)) == ()
        assert Solver(Matrix(F, 2, 0, ())).solve((zero, one)) is None
        assert Solver(Matrix(F, 0, 0, ())).solve(()) == ()


def test_solver_checks_target_length():
    with pytest.raises(DimensionMismatch):
        Solver(Matrix.identity(QQ, 2)).solve((Fraction(1),))


@st.composite
def factor_pairs(draw):
    F = draw(st.sampled_from(FIELDS))
    n, k, m = (draw(st.integers(0, 5)) for _ in range(3))
    a = [[draw(field_elements(F)) for _ in range(k)] for _ in range(n)]
    b = [[draw(field_elements(F)) for _ in range(m)] for _ in range(k)]
    return F, a, b, n, k, m


@SETTINGS
@given(factor_pairs())
def test_matrix_product_matches_field_arithmetic(case):
    F, a, b, n, k, m = case
    got = Matrix(F, n, k, tuple(x for r in a for x in r)).mul(
        Matrix(F, k, m, tuple(x for r in b for x in r)))
    want = [[_dot(F, row, [r[j] for r in b]) for j in range(m)] for row in a]
    assert (got.rows, got.cols) == (n, m)
    assert got.entries == tuple(x for r in want for x in r)
    assert all(type(x) is type(F.zero()) for x in got.entries)


def test_matrix_product_over_q_of_int_entries_gives_fractions():
    m = Matrix(QQ, 2, 2, (1, 2, 0, 3))
    assert all(type(x) is Fraction for x in m.mul(m).entries)
    assert m.mul(m).entries == (1, 8, 0, 9)


@st.composite
def block_families(draw):
    """Elements given as tuples of square blocks of shared sizes."""
    F = draw(st.sampled_from(FIELDS))
    sizes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    count = draw(st.integers(0, 5))
    elements = [tuple(Matrix(F, s, s, tuple(draw(field_elements(F)) for _ in range(s * s)))
                      for s in sizes) for _ in range(count)]
    return F, elements


@FEW
@given(block_families())
def test_trace_gram_matches_traces_of_products(case):
    F, elements = case
    gram = trace_gram(F, elements)

    def trace_of_product(a, b):
        s = F.zero()
        for x, y in zip(a, b):
            for i in range(x.rows):
                s = F.add(s, _dot(F, x.row(i), y.col(i)))
        return s

    want = [[trace_of_product(a, b) for b in elements] for a in elements]
    assert (gram.rows, gram.cols) == (len(elements), len(elements))
    assert gram.entries == tuple(x for r in want for x in r)
    assert all(type(x) is type(F.zero()) for x in gram.entries)


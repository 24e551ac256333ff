"""The per-field elimination kernels against a plain Gauss-Jordan oracle.

The oracle is the field-generic elimination that `rref_with_pivots` used to
run: every scalar operation goes through the field object, so over Q it is
exact `Fraction` arithmetic.  The kernels must return the same pivots and
identical entries, and over Q every entry must be a `Fraction`.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppcat.linalg import Matrix, Subspace, kernel, rref_with_pivots
from ppcat.scalars import QQ, PrimeField

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(32003)]
SETTINGS = settings(derandomize=True, database=None, max_examples=100, deadline=None)
FEW = settings(derandomize=True, database=None, max_examples=40, deadline=None)


def oracle_rref(F, rows, ncols):
    a = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(a)):
            if not F.is_zero(a[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = F.inv(a[r][c])
        a[r] = [F.mul(inv, x) for x in a[r]]
        for i in range(len(a)):
            if i != r and not F.is_zero(a[i][c]):
                f = a[i][c]
                a[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a, pivots


def check_against_oracle(F, rows, ncols):
    m = Matrix(F, len(rows), ncols, tuple(x for r in rows for x in r))
    red, pivots = rref_with_pivots(m)
    want, want_pivots = oracle_rref(F, rows, ncols)
    assert pivots == want_pivots
    assert (red.rows, red.cols) == (m.rows, m.cols)
    assert red.entries == tuple(x for r in want for x in r)
    if F is QQ:
        assert all(type(x) is Fraction for x in red.entries)


def field_elements(F):
    if F is QQ:
        return st.one_of(
            st.just(Fraction(0)),
            st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
            st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 6)),
        )
    return st.one_of(st.just(0), st.integers(0, F.p - 1))


@st.composite
def matrices(draw):
    """A matrix, some of whose rows and columns are forced to zero."""
    F = draw(st.sampled_from(FIELDS))
    nrows = draw(st.integers(1, 7))
    ncols = draw(st.integers(0, 7))
    rows = [[draw(field_elements(F)) for _ in range(ncols)] for _ in range(nrows)]
    zero_rows = draw(st.sets(st.integers(0, nrows - 1), max_size=nrows))
    zero_cols = draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=ncols))
    rows = [[F.zero() if i in zero_rows or j in zero_cols else x for j, x in enumerate(r)]
            for i, r in enumerate(rows)]
    return F, rows, ncols


@st.composite
def low_rank_matrices(draw):
    """An L*R product with L of shape n x k and R of shape k x m, k below n and m."""
    F = draw(st.sampled_from(FIELDS))
    nrows = draw(st.integers(1, 8))
    ncols = draw(st.integers(1, 8))
    k = draw(st.integers(0, min(nrows, ncols)))
    left = [[draw(field_elements(F)) for _ in range(k)] for _ in range(nrows)]
    right = [[draw(field_elements(F)) for _ in range(ncols)] for _ in range(k)]
    rows = []
    for li in left:
        row = [F.zero()] * ncols
        for c, rk in zip(li, right):
            row = [F.add(x, F.mul(c, y)) for x, y in zip(row, rk)]
        rows.append(row)
    return F, rows, ncols


def rational_entry(rng):
    """Zero, a small fraction, or a numerator up to 10^9 over up to 10^3."""
    kind = rng.random()
    if kind < 0.35:
        return Fraction(0)
    if kind < 0.7:
        return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7]))
    return Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 3))


def larger_rational_matrix(seed):
    """A Q matrix of 8-14 rows and 8-16 columns, some rows and columns zero,
    so that the back-substitution runs over many pivot rows."""
    rng = random.Random(seed)
    nrows, ncols = rng.randint(8, 14), rng.randint(8, 16)
    zero_rows = set(rng.sample(range(nrows), rng.randint(0, 3)))
    zero_cols = set(rng.sample(range(ncols), rng.randint(0, 4)))
    rows = [[Fraction(0) if i in zero_rows or j in zero_cols else rational_entry(rng)
             for j in range(ncols)] for i in range(nrows)]
    return QQ, rows, ncols


def larger_rational_product(seed, k):
    """An L*R product over Q of rank at most k, L of 8-14 rows and R of
    8-16 columns, with large entries."""
    rng = random.Random(seed)
    nrows, ncols = rng.randint(max(8, k), 14), rng.randint(max(8, k), 16)
    left = [[rational_entry(rng) for _ in range(k)] for _ in range(nrows)]
    right = [[rational_entry(rng) for _ in range(ncols)] for _ in range(k)]
    rows = [[sum((c * rk[j] for c, rk in zip(li, right)), Fraction(0)) for j in range(ncols)]
            for li in left]
    return QQ, rows, ncols


@SETTINGS
@given(matrices())
def test_kernel_matches_oracle(case):
    check_against_oracle(*case)


@SETTINGS
@given(low_rank_matrices())
def test_kernel_matches_oracle_on_rank_deficient_products(case):
    check_against_oracle(*case)


@pytest.mark.parametrize("seed", range(24))
def test_kernel_matches_oracle_on_larger_rational_matrices(seed):
    check_against_oracle(*larger_rational_matrix(seed))


@pytest.mark.parametrize("seed", range(20))
def test_kernel_matches_oracle_on_larger_rational_products(seed):
    case = larger_rational_product(seed, 1 + seed % 10)
    check_against_oracle(*case)
    check_kernel(*case)


@FEW
@given(st.sampled_from(FIELDS), st.integers(0, 9), st.data())
def test_kernel_on_one_row_and_no_columns(F, ncols, data):
    row = [data.draw(field_elements(F)) for _ in range(ncols)]
    check_against_oracle(F, [row], ncols)
    check_against_oracle(F, [[] for _ in range(ncols + 1)], 0)


def test_kernel_with_no_rows():
    for F in FIELDS:
        m = Matrix(F, 0, 3, ())
        assert rref_with_pivots(m) == (m, [])


def test_rational_rows_with_large_denominators():
    rows = [[Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11)],
            [Fraction(2, 9), Fraction(1, 1000003), Fraction(0)],
            [Fraction(5, 9), Fraction(-4, 7) + Fraction(1, 1000003), Fraction(10, 11)]]
    check_against_oracle(QQ, rows, 3)


@FEW
@given(matrices())
def test_subspace_pivots_cached_and_outside_equality(case):
    F, rows, ncols = case
    s = Subspace.from_vectors(F, ncols, rows)
    fresh = Subspace(s.ambient_dim, s.basis)
    assert s.pivots == tuple(rref_with_pivots(s.basis)[1])
    assert s.pivots is s.pivots
    assert s == fresh and hash(s) == hash(fresh)


# -- kernel: one elimination against the two-pass oracle ----------------------


def oracle_kernel(m):
    """The two-pass kernel: free-column vectors of the RREF, then their RREF."""
    F = m.field
    red, pivots = rref_with_pivots(m)
    vecs = []
    for fcol in (c for c in range(m.cols) if c not in pivots):
        v = [F.zero()] * m.cols
        v[fcol] = F.one()
        for i, p in enumerate(pivots):
            v[p] = F.neg(red.at(i, fcol))
        vecs.append(tuple(v))
    return Subspace.from_vectors(F, m.cols, vecs)


def check_kernel(F, rows, ncols):
    m = Matrix(F, len(rows), ncols, tuple(x for r in rows for x in r))
    got = kernel(m)
    assert repr(got) == repr(oracle_kernel(m))
    for v in got.basis_rows():
        assert all(F.is_zero(x) for x in m.apply(v))


@SETTINGS
@given(matrices())
def test_one_pass_kernel_matches_two_pass_oracle(case):
    check_kernel(*case)


@SETTINGS
@given(low_rank_matrices())
def test_one_pass_kernel_matches_two_pass_oracle_on_rank_deficient_products(case):
    check_kernel(*case)


@FEW
@given(st.sampled_from(FIELDS), st.integers(0, 9), st.data())
def test_one_pass_kernel_on_no_rows_one_row_and_no_columns(F, ncols, data):
    check_kernel(F, [], ncols)
    check_kernel(F, [[data.draw(field_elements(F)) for _ in range(ncols)]], ncols)
    check_kernel(F, [[] for _ in range(ncols + 1)], 0)

"""The per-field entrywise loops against field-generic oracles.

`Matrix.add`, `sub`, `neg`, `scale` and `Subspace.reduce_vector` run one loop
per field; the oracles are the versions they replaced, with every scalar
operation through the field object.  Results must agree in value and in the
type of every entry: over Q that includes int entries mixed with `Fraction`s,
over F_p unreduced ints in the input.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppcat.errors import DimensionMismatch
from ppcat.linalg import Matrix, Subspace
from ppcat.scalars import QQ, PrimeField

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(32003)]
SETTINGS = settings(derandomize=True, database=None, max_examples=150, deadline=None)


def oracle_add(a, b):
    F = a.field
    return tuple(F.add(x, y) for x, y in zip(a.entries, b.entries))


def oracle_sub(a, b):
    F = a.field
    return tuple(F.sub(x, y) for x, y in zip(a.entries, b.entries))


def oracle_neg(a):
    F = a.field
    return tuple(F.neg(x) for x in a.entries)


def oracle_scale(a, c):
    F = a.field
    return tuple(F.mul(c, x) for x in a.entries)


def oracle_reduce(s, vec):
    F = s.field
    v = list(vec)
    for i, p in enumerate(s.pivots):
        c = v[p]
        if F.is_zero(c):
            continue
        v = [F.sub(x, F.mul(c, y)) for x, y in zip(v, s.basis.row(i))]
    return tuple(v)


def typed(values):
    return [(type(x), x) for x in values]


def scalars(F, raw=False):
    """Field elements; `raw` also gives what callers may pass unreduced: ints
    over Q, and ints outside 0..p-1 over F_p."""
    if F is QQ:
        frac = st.one_of(st.just(Fraction(0)),
                         st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)))
        return st.one_of(frac, st.integers(-5, 5)) if raw else frac
    if raw:
        return st.integers(-3 * F.p, 3 * F.p)
    return st.one_of(st.just(0), st.integers(0, F.p - 1))


@st.composite
def matrix_pairs(draw):
    F = draw(st.sampled_from(FIELDS))
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    ents = st.lists(scalars(F, raw=True), min_size=rows * cols, max_size=rows * cols)
    a = Matrix(F, rows, cols, tuple(draw(ents)))
    b = Matrix(F, rows, cols, tuple(draw(ents)))
    return a, b, draw(scalars(F, raw=True))


@SETTINGS
@given(matrix_pairs())
def test_entrywise_ops_match_oracle(case):
    a, b, c = case
    for got, want in ((a.add(b), oracle_add(a, b)), (a.sub(b), oracle_sub(a, b)),
                      (a.neg(), oracle_neg(a)), (a.scale(c), oracle_scale(a, c))):
        assert (got.field, got.rows, got.cols) == (a.field, a.rows, a.cols)
        assert typed(got.entries) == typed(want)


@st.composite
def subspaces_and_vectors(draw):
    F = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(0, 6))
    k = draw(st.integers(0, 4))
    vecs = [draw(st.lists(scalars(F), min_size=n, max_size=n)) for _ in range(k)]
    s = Subspace.from_vectors(F, n, vecs)
    vec = tuple(draw(st.lists(scalars(F, raw=True), min_size=n, max_size=n)))
    # also a member of the span, so that the reduction reaches zero
    coeffs = draw(st.lists(scalars(F), min_size=s.dim, max_size=s.dim))
    member = [F.zero()] * n
    for c, row in zip(coeffs, s.basis_rows()):
        member = [F.add(x, F.mul(c, y)) for x, y in zip(member, row)]
    return s, vec, tuple(member)


@SETTINGS
@given(subspaces_and_vectors())
def test_reduce_vector_matches_oracle(case):
    s, vec, member = case
    for v in (vec, member):
        assert typed(s.reduce_vector(v)) == typed(oracle_reduce(s, v))
    assert s.contains_vector(member)


def test_shape_checks_survive():
    a = Matrix.zero(QQ, 2, 3)
    with pytest.raises(DimensionMismatch):
        a.add(Matrix.zero(QQ, 3, 2))
    with pytest.raises(DimensionMismatch):
        a.sub(Matrix.zero(QQ, 2, 2))

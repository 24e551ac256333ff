"""Hom systems on integer rows against the `Fraction` route.

`sparse_commuting_equations` builds its rows as ints (over Q each square is
scaled by the lcm of its denominators and each row divided by its gcd, so it
is primitive), and
`commuting_solutions` reads the kernel basis straight off the integer
elimination.  The oracle below is the route they replace, on an
independent elimination: rows of field elements made by the field's own
`add` and `sub`, densified, and the kernel read off the RREF of the
field-generic Gauss-Jordan `oracle_rref`, each entry negated by the field.
The two must give `repr`-equal bases, and the int rows must span what the
field rows span.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppcat.linalg import (
    Matrix, Subspace, commuting_solutions, sparse_commuting_equations, sparse_span,
    sparse_squares,
)
from ppcat.scalars import QQ, PrimeField
from test_rref_kernel import oracle_rref

FEW = settings(derandomize=True, database=None, max_examples=40, deadline=None)


def offsets(shapes):
    out, total = [], 0
    for r, c in shapes:
        out.append(total)
        total += r * c
    return out, total


def field_rows(F, shapes, squares):
    """The equations of each square as dense rows of field elements."""
    offs, total = offsets(shapes)
    zero = F.zero()
    rows = []
    for s, t, p_cols, q_rows in squares:
        cs, ct = shapes[s][1], shapes[t][1]
        for i, q_row in enumerate(q_rows):
            for j, p_col in enumerate(p_cols):
                if not (q_row or p_col):
                    continue
                row = {offs[t] + i * ct + k: F.add(zero, x) for k, x in p_col}
                for l, x in q_row:
                    col = offs[s] + l * cs + j
                    y = F.sub(row.get(col, zero), x)
                    if F.is_zero(y):
                        row.pop(col, None)
                    else:
                        row[col] = y
                if row:
                    dense = [zero] * total
                    for col, x in row.items():
                        dense[col] = x
                    rows.append(dense)
    return rows


def fraction_route(F, shapes, squares):
    """`commuting_solutions` as it was: the kernel of the field rows, read
    off the RREF of the rows with their columns reversed."""
    offs, n = offsets(shapes)
    rows = field_rows(F, shapes, squares)
    if rows:
        red, pivots = oracle_rref(F, [r[::-1] for r in rows], n)
        vecs = []
        for fcol in reversed(range(n)):
            if fcol in pivots:
                continue
            v = [F.zero()] * n
            v[n - 1 - fcol] = F.one()
            for i, pc in enumerate(pivots):
                if pc < fcol and not F.is_zero(red[i][fcol]):
                    v[n - 1 - pc] = F.neg(red[i][fcol])
            vecs.append(tuple(v))
    else:
        vecs = Subspace.full(F, n).basis_rows()
    return [tuple(Matrix(F, r, c, v[o:o + r * c]) for (r, c), o in zip(shapes, offs))
            for v in vecs]


def check_against_fraction_route(F, shapes, squares):
    sq = sparse_squares(shapes, squares)
    got = commuting_solutions(F, shapes, sq)
    assert repr(got) == repr(fraction_route(F, shapes, sq))
    for blocks in got:
        for m in blocks:
            if F is QQ:
                assert all(type(x) is Fraction for x in m.entries)
            else:
                assert all(0 <= x < F.p for x in m.entries)
        for s, t, P, Q in squares:
            assert blocks[t].mul(P) == Q.mul(blocks[s])
    _, total = offsets(shapes)
    rows = list(sparse_commuting_equations(F, shapes, sq))
    assert all(type(x) is int for row in rows for x in row.values())
    if F is QQ:
        assert all(gcd(*row.values()) == 1 for row in rows)
    assert repr(sparse_span(F, total, rows)) == repr(
        Subspace.from_vectors(F, total, field_rows(F, shapes, sq)))


def matrix(F, rows, cols, entries):
    return Matrix(F, rows, cols, tuple(entries))


def elements(F):
    if F is QQ:
        return st.one_of(
            st.just(Fraction(0)),
            st.builds(Fraction, st.integers(-20, 20), st.sampled_from([1, 2, 3, 4, 6, 9, 35])),
            st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 5)),
        )
    return st.one_of(st.just(0), st.integers(0, F.p - 1))


@st.composite
def hom_systems(draw):
    """Blocks of 0-3 rows and columns and up to four squares among them:
    random ones with mixed denominators, zero ones, and squares from a block
    to itself with diagonal P and Q, whose two terms cancel where the
    diagonal entries agree."""
    F = draw(st.sampled_from([QQ, QQ, QQ, PrimeField(3), PrimeField(32003)]))
    shapes = [(draw(st.integers(0, 3)), draw(st.integers(0, 3)))
              for _ in range(draw(st.integers(1, 3)))]
    squares = []
    for _ in range(draw(st.integers(0, 4))):
        s = draw(st.integers(0, len(shapes) - 1))
        kind = draw(st.sampled_from(["random", "zero", "cancel"]))
        t = s if kind == "cancel" else draw(st.integers(0, len(shapes) - 1))
        (rs, cs), (rt, ct) = shapes[s], shapes[t]
        if kind == "random":
            P = matrix(F, ct, cs, [draw(elements(F)) for _ in range(ct * cs)])
            Q = matrix(F, rt, rs, [draw(elements(F)) for _ in range(rt * rs)])
        elif kind == "zero":
            P, Q = Matrix.zero(F, ct, cs), Matrix.zero(F, rt, rs)
        else:
            values = [draw(elements(F))]
            values.append(draw(st.sampled_from(values + [draw(elements(F))])))
            P = matrix(F, cs, cs, [draw(st.sampled_from(values)) if i == j else F.zero()
                                   for i in range(cs) for j in range(cs)])
            Q = matrix(F, rs, rs, [draw(st.sampled_from(values)) if i == j else F.zero()
                                   for i in range(rs) for j in range(rs)])
        squares.append((s, t, P, Q))
    return F, shapes, squares


@FEW
@given(hom_systems())
def test_integer_route_matches_fraction_route(case):
    check_against_fraction_route(*case)


def scalar(F, n, x):
    return matrix(F, n, n, [x if i == j else F.zero() for i in range(n) for j in range(n)])


@pytest.mark.parametrize("F", [QQ, PrimeField(11)])
def test_integer_route_corner_cases(F):
    half, third = F.from_fraction(1, 2), F.from_fraction(-2, 3)
    mixed = matrix(F, 2, 2, [half, third, F.zero(), F.from_fraction(5, 7)])
    cases = [
        ([(2, 2)], []),                                         # no squares
        ([(0, 3), (2, 0)], []),                                 # empty blocks, no squares
        ([(2, 2)], [(0, 0, Matrix.zero(F, 2, 2), Matrix.zero(F, 2, 2))]),  # a zero square
        ([(2, 2)], [(0, 0, scalar(F, 2, third), scalar(F, 2, third))]),    # terms cancel
        ([(2, 2)], [(0, 0, mixed, mixed)]),
        ([(2, 2), (2, 2)], [(0, 1, mixed, scalar(F, 2, half))]),
        ([(0, 2), (2, 2)], [(0, 1, mixed, Matrix(F, 2, 0, ()))]),           # from an empty block
        ([(2, 2), (2, 0)], [(0, 1, Matrix(F, 0, 2, ()), mixed)]),           # into an empty block
    ]
    for shapes, squares in cases:
        check_against_fraction_route(F, shapes, squares)


# -- hom systems of conjugated modules over Q --------------------------------


def block_diagonal(rng, n):
    """An n x n rational matrix in blocks: Jordan blocks with eigenvalues 0,
    1 or -1 and companion matrices of x^2 + 1, so that two draws often
    share a summand."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    while at < n:
        if n - at >= 2 and rng.random() < 0.3:
            rows[at][at + 1], rows[at + 1][at] = Fraction(-1), Fraction(1)
            at += 2
            continue
        size, eigen = rng.randint(1, n - at), rng.choice([0, 1, -1])
        for k in range(at, at + size):
            rows[k][k] = Fraction(eigen)
            if k + 1 < at + size:
                rows[k][k + 1] = Fraction(1)
        at += size
    return rows


def elementary_changes(rng, n, count):
    """`count` random elementary operations (i, j, c): add c times row j to
    row i, for i != j."""
    return [(*rng.sample(range(n), 2), rng.choice([Fraction(1), Fraction(-2), Fraction(1, 2),
                                                   Fraction(3), Fraction(-1, 3)]))
            for _ in range(count)] if n > 1 else []


def act(rows, left, right):
    """E_left rows E_right^-1, for products of elementary operations: each
    left one adds rows, each right one subtracts the matching columns."""
    rows = [list(r) for r in rows]
    for i, j, c in left:
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    for i, j, c in right:
        for r in rows:
            r[j] -= c * r[i]
    return rows


def two_block_diagonals(rng, most):
    """Two `block_diagonal` matrices of size 1 to `most`, the same one half
    the time, so that Hom is often nonzero."""
    first = block_diagonal(rng, rng.randint(1, most))
    return first, first if rng.random() < 0.5 else block_diagonal(rng, rng.randint(1, most))


def loop_module(rng, blocks):
    """T of the K[T]-module of the block-diagonal `blocks`, conjugated."""
    change = elementary_changes(rng, len(blocks), 2 * len(blocks))
    return Matrix.from_rows(QQ, act(blocks, change, change))


def kronecker_module(rng, blocks):
    """(a, b) of the Kronecker module (I, B), B the block-diagonal `blocks`,
    changed by invertible matrices at both vertices."""
    n = len(blocks)
    source, target = elementary_changes(rng, n, 2 * n), elementary_changes(rng, n, 2 * n)
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    return tuple(Matrix.from_rows(QQ, act(m, target, source)) for m in (identity, blocks))


@pytest.mark.parametrize("seed", range(12))
def test_conjugated_loop_module_homs_match_the_oracle(seed):
    rng = random.Random(seed)
    bm, bn = two_block_diagonals(rng, 5)
    tm, tn = loop_module(rng, bm), loop_module(rng, bn)
    check_against_fraction_route(QQ, [(len(bn), len(bm))], [(0, 0, tm, tn)])


@pytest.mark.parametrize("seed", range(12))
def test_conjugated_kronecker_module_homs_match_the_oracle(seed):
    rng = random.Random(seed)
    blocks_m, blocks_n = two_block_diagonals(rng, 4)
    (am, bm), (an, bn) = kronecker_module(rng, blocks_m), kronecker_module(rng, blocks_n)
    shape = (len(blocks_n), len(blocks_m))
    check_against_fraction_route(QQ, [shape, shape], [(0, 1, am, an), (0, 1, bm, bn)])

"""The radical that `auslander_algebra` reads off its construction.

- The stored radical, the span of the non-idempotent basis elements,
  against the iterated trace form on the regular Gram matrix, by `repr`.
- A structurally equal copy of a summand, and a copy conjugated by an
  invertible matrix at each vertex, are refused as `IsomorphicSummands`.
- The one-dimensional base cases of `endo_radical` and of the oracles
  `corner_residue_dim` and `fin_is_indecomposable` against the trace form,
  with every characteristic gate raising as before.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppcat.errors import CharacteristicTooSmall, IsomorphicSummands
from ppcat.funcat import auslander_algebra, fin_hom, projective_row, simple_module
from ppcat.linalg import Matrix, trace_gram
from ppcat.rep import Representation, direct_sum, endo_radical, hom_space
from ppcat.scalars import QQ, PrimeField

import algebra_oracle as oracle
from algebra_oracle import fin_is_indecomposable
from linalg_oracle import solve, trace_form_radical
from randgen import random_algebra_pool, random_module
from test_auslander_corners import interval_modules
from test_sparse_modules import SQUARE_ZERO, keps_summands, structural_copy

F32003 = PrimeField(32003)
FIELDS = [QQ, F32003]
SMALL_FIELDS = [PrimeField(2), PrimeField(3), PrimeField(5)]
SETTINGS = settings(derandomize=True, database=None, max_examples=40, deadline=None)


@st.composite
def summand_lists(draw, fields=FIELDS):
    """A shuffled subset of the interval modules of A2-A5, or the two keps
    modules with t in one of four bases, in either order."""
    F = draw(st.sampled_from(fields))
    if draw(st.booleans()):
        mods = interval_modules(F, draw(st.integers(2, 5)))
        idx = draw(st.lists(st.integers(0, len(mods) - 1), min_size=1, max_size=6,
                            unique=True))
        return [mods[k] for k in idx]
    summands = keps_summands(F, draw(st.sampled_from(SQUARE_ZERO)))
    return summands[::draw(st.sampled_from([1, -1]))]


# -- the stored radical --------------------------------------------------------


@SETTINGS
@given(summand_lists())
def test_stored_radical_is_the_trace_form_radical(summands):
    S = auslander_algebra(summands).algebra
    stored = S._radical
    assert stored is not None
    assert repr(stored) == repr(oracle.trace_radical(S))
    assert S.radical() is stored


# -- isomorphic summands --------------------------------------------------------


def invertible(draw, F, n):
    """L U with L unit lower and U upper triangular, its diagonal nonzero,
    and its inverse, column by column."""
    entry = st.integers(-3, 3).map(F.from_int)
    pivot = st.sampled_from([1, 2, -1, -3]).map(F.from_int)
    L = Matrix(F, n, n, tuple(F.one() if i == j else draw(entry) if i > j else F.zero()
                              for i in range(n) for j in range(n)))
    U = Matrix(F, n, n, tuple(draw(pivot) if i == j else draw(entry) if i < j else F.zero()
                              for i in range(n) for j in range(n)))
    P = L.mul(U)
    columns = [solve(P, tuple(F.one() if i == j else F.zero() for i in range(n)))
               for j in range(n)]
    inverse = Matrix.from_rows(F, columns).transpose() if n else Matrix(F, 0, 0, ())
    assert P.mul(inverse) == Matrix.identity(F, n)
    return P, inverse


def conjugated_copy(draw, M):
    """M in the basis P_v at each vertex: the arrow a: s -> t acts as
    P_t M(a) P_s^-1."""
    F = M.field
    bases = {v: invertible(draw, F, n) for v, n in M.dims.items()}
    maps = {}
    for a in M.algebra.quiver.arrows:
        maps[a.name] = bases[a.target][0].mul(M.maps[a.name]).mul(bases[a.source][1])
    return Representation(M.algebra, dict(M.dims), maps)


@SETTINGS
@given(summand_lists(), st.booleans(), st.data())
def test_isomorphic_copies_are_refused(summands, conjugate, data):
    k = data.draw(st.integers(0, len(summands) - 1))
    M = summands[k]
    copy = conjugated_copy(data.draw, M) if conjugate else structural_copy(M)
    pos = data.draw(st.integers(0, len(summands)))
    mods = summands[:pos] + [copy] + summands[pos:]
    original = k if k < pos else k + 1
    with pytest.raises(IsomorphicSummands) as exc:
        auslander_algebra(mods)
    assert exc.value.pair == (min(original, pos), max(original, pos))


# -- one-dimensional base cases -------------------------------------------------


def gated(F, bound, compute):
    """compute(), or CharacteristicTooSmall when char F <= bound (the gate
    of the trace-form routes)."""
    if F.char != 0 and F.char <= bound:
        return CharacteristicTooSmall
    return compute()


def outcome(compute):
    try:
        return compute()
    except CharacteristicTooSmall:
        return CharacteristicTooSmall


def trace_radical(F, basis):
    return trace_form_radical(trace_gram(F, [tuple(blocks) for blocks in basis]))


@SETTINGS
@given(summand_lists(FIELDS + SMALL_FIELDS))
def test_one_dimensional_base_cases_match_the_trace_form(summands):
    F = summands[0].field
    for M in summands:
        basis = hom_space(M, M)
        want = gated(F, max(len(basis), M.total_dim()),
                     lambda: trace_radical(F, [f.blocks.values() for f in basis]))
        got = outcome(lambda: endo_radical(M, basis))
        assert repr(got) == repr(want)
    data = outcome(lambda: auslander_algebra(summands))
    if data is CharacteristicTooSmall:
        # refused exactly when some End(M) is gated
        assert any(outcome(lambda: endo_radical(M)) is CharacteristicTooSmall
                   for M in summands)
        return
    S = data.algebra
    radical = outcome(S.radical)
    assert radical is gated(F, S.dim, lambda: S._radical)
    for k in range(len(S.idempotents)):
        c = oracle.corner(S, k, k)

        def corner_residue_dim():
            rows = [S._sparse(r) for r in c.basis_rows()]
            mats = [Matrix.from_rows(F, [c.coordinates(oracle.dense(S, S._sparse_mul(b, r)))
                                         for b in rows]) for r in rows]
            return c.dim - trace_radical(F, [(m,) for m in mats]).dim
        assert outcome(lambda: oracle.corner_residue_dim(S, c)) == \
            gated(F, c.dim, corner_residue_dim)
        functors = [projective_row(data, k)]
        if radical is not CharacteristicTooSmall:
            functors.append(simple_module(data, k))
        for X in functors:
            ends = fin_hom(X, X)
            want = gated(F, max(len(ends), X.dim),
                         lambda: len(ends) - trace_radical(F, [(f,) for f in ends]).dim == 1)
            assert outcome(lambda: fin_is_indecomposable(X)) == want


def random_sum(rng, alg, max_dim, bound):
    """A direct sum of up to three modules over alg, at most max_dim at each
    vertex and of total dimension below bound (if any), their entries drawn
    from 0, 0, 1, -1 and 2, so that many maps are nilpotent or zero."""
    F = alg.field
    parts = []
    for _ in range(rng.randrange(1, 4)):
        dims = {v: rng.randrange(max_dim + 1) for v in alg.quiver.vertices}
        maps = {a.name: Matrix(F, dims[a.target], dims[a.source], tuple(
            F.from_int(rng.choice((0, 0, 1, -1, 2))) for _ in range(dims[a.target] * dims[a.source])))
            for a in alg.quiver.arrows}
        if not bound or sum(P.total_dim() for P in parts) + sum(dims.values()) < bound:
            parts.append(Representation(alg, dims, maps, check=False))
    return direct_sum(parts) if parts else random_module(rng, alg, 0)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.sampled_from([QQ, PrimeField(3), F32003]), st.integers(0, 2 ** 32))
def test_one_kernel_is_the_iterated_trace_form_radical(F, seed):
    """`endo_radical` takes the kernel of the trace form once; iterated to
    stability it gives the same subspace, or the same refusal.  The modules
    are random sums over A2, the Kronecker quiver, A3 and one loop, of total
    dimension below the characteristic of a finite field: over F_3 on the
    loop only, the one of the four with a module of dimension 2 whose
    radical is nonzero."""
    rng = random.Random(seed)
    algebras = random_algebra_pool(F)
    alg = algebras[-1] if F.char == 3 else rng.choice(algebras)
    M = random_sum(rng, alg, 2, F.char)
    basis = hom_space(M, M)
    want = gated(F, max(len(basis), M.total_dim()),
                 lambda: trace_radical(F, [f.blocks.values() for f in basis]))
    assert repr(outcome(lambda: endo_radical(M, basis))) == repr(want)


def test_one_dimensional_end_keeps_the_gate_of_fin_is_indecomposable():
    # over F_3, e_0 S = Hom([2,3], -) has dim 3 and End(e_0 S) = e_0 S e_0 = K
    F3 = PrimeField(3)
    mods = interval_modules(F3, 3)
    by_support = {tuple(v for v in "123" if M.dims[v]): M for M in mods}
    data = auslander_algebra([by_support[s] for s in (("2", "3"), ("1", "2"), ("2",))])
    X = projective_row(data, 0)
    assert X.dim == 3 and len(fin_hom(X, X)) == 1
    with pytest.raises(CharacteristicTooSmall):
        fin_is_indecomposable(X)
    assert fin_is_indecomposable(projective_row(data, 2))

"""The memo of `hom_space` on its source module.

Covered: a repeated call gives the bases a memo-free call gives, on interval
modules of A2-A5, modules over the dual numbers and conjugated Kronecker
modules, over Q and F_32003; every call hands out a fresh list of fresh
morphisms from M to N itself, even to a structurally equal copy of N; the
memo holds no module alive, so a dead target leaves no entry and no module
waits for the cyclic collector; a stale entry under a reused id is a miss;
and `auslander_algebra` built twice on the same summands is the same.
"""

import gc
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st

from ppcat.funcat import auslander_algebra
from ppcat.linalg import Matrix
from ppcat.rep import Representation, direct_sum, hom_space
from ppcat.scalars import QQ, PrimeField

from fixtures import a1tilde_algebra
from test_auslander_corners import interval_modules, keps_inputs

F32003 = PrimeField(32003)
FIELDS = [QQ, F32003]
SETTINGS = settings(derandomize=True, database=None, max_examples=40, deadline=None)


def fresh_copy(M):
    return Representation(M.algebra, dict(M.dims), dict(M.maps), check=False)


def bases(homs):
    return repr([f.blocks for f in homs])


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@st.composite
def unimodular(draw, n):
    """L U with unit diagonals and small integer entries: invertible over
    every field."""
    small = st.integers(-2, 2)
    low = [[1 if i == j else draw(small) if i > j else 0 for j in range(n)] for i in range(n)]
    up = [[1 if i == j else draw(small) if i < j else 0 for j in range(n)] for i in range(n)]
    return mat_mul(low, up)


@st.composite
def kronecker_module(draw, F):
    """(I, B) on the Kronecker quiver, conjugated at both vertices."""
    n = draw(st.integers(1, 3))
    b = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
    p, q = draw(unimodular(n)), draw(unimodular(n))
    alg = a1tilde_algebra(F)

    def matrix(rows):
        return Matrix.from_rows(F, [[F.from_int(x) for x in row] for row in rows])
    return Representation(alg, {"1": n, "2": n},
                          {"a": matrix(mat_mul(p, q)), "b": matrix(mat_mul(mat_mul(p, b), q))})


@st.composite
def module_pairs(draw):
    """(M, N) over one algebra: interval modules of A2-A5 or their sums,
    modules over the dual numbers, or conjugated Kronecker modules."""
    F = draw(st.sampled_from(FIELDS))
    kind = draw(st.sampled_from(["interval", "keps", "kronecker"]))
    if kind == "kronecker":
        return draw(kronecker_module(F)), draw(kronecker_module(F))
    if kind == "keps":
        (R, S), (_, _, RSS) = keps_inputs(F)
        pool = [R, S, RSS]
    else:
        pool = interval_modules(F, draw(st.integers(2, 5)))
        pool.append(direct_sum(pool[:2]))
    return draw(st.sampled_from(pool)), draw(st.sampled_from(pool))


@SETTINGS
@given(module_pairs())
def test_a_second_call_gives_the_memo_free_basis(pair):
    M, N = pair
    want = bases(hom_space(fresh_copy(M), fresh_copy(N)))
    assert bases(hom_space(M, N)) == want
    assert M._homs[id(N)][0]() is N
    assert bases(hom_space(M, N)) == want
    assert bases(hom_space(M, M)) == bases(hom_space(M, M)) \
        == bases(hom_space(fresh_copy(M), fresh_copy(M)))


@SETTINGS
@given(module_pairs())
def test_each_call_returns_fresh_morphisms_from_m_to_n(pair):
    M, N = pair
    first = hom_space(M, N)
    want = bases(first)
    second = hom_space(M, N)
    assert first is not second
    assert all(f is not g for f in first for g in second)
    assert all(f.source is M and f.target is N for f in first + second)
    # what a caller does to its list or its morphisms reaches no later call
    for f in first:
        for v in f.blocks:
            f.blocks[v] = Matrix.zero(M.field, f.blocks[v].rows, f.blocks[v].cols)
    first.append(first[0] if first else None)
    assert bases(hom_space(M, N)) == want


@SETTINGS
@given(module_pairs())
def test_an_equal_copy_of_n_gets_morphisms_to_itself(pair):
    M, N = pair
    copy = fresh_copy(N)
    assert copy == N and copy is not N
    want = bases(hom_space(M, N))
    homs = hom_space(M, copy)
    assert bases(homs) == want
    assert all(f.target is copy for f in homs)
    assert all(f.target is N for f in hom_space(M, N))
    assert M._homs[id(copy)][0]() is copy and M._homs[id(N)][0]() is N


def test_the_memo_keeps_no_module_alive():
    gc.disable()  # every module below must die by reference counting alone
    try:
        for M, N in [(m, n) for F in FIELDS for m in interval_modules(F, 3)[:3]
                     for n in interval_modules(F, 3)[:3]]:
            M, N = fresh_copy(M), fresh_copy(N)
            homs = hom_space(M, N)
            hom_space(M, M)
            key, dead = id(N), weakref.ref(N)
            del N, homs
            assert dead() is None
            assert key not in M._homs
            # a long-lived source paired with many short-lived targets stays small
            for _ in range(10):
                hom_space(M, fresh_copy(M))
            assert list(M._homs) == [id(M)]
            dead = weakref.ref(M)
            del M
            assert dead() is None
    finally:
        gc.enable()


def test_a_stale_entry_under_a_reused_id_is_a_miss():
    M, N = interval_modules(F32003, 3)[:2]
    want = bases(hom_space(fresh_copy(M), fresh_copy(N)))
    gone = fresh_copy(N)
    stale = weakref.ref(gone)
    del gone
    M._homs[id(N)] = (stale, ())  # as if N had taken the id of a dead module
    homs = hom_space(M, N)
    assert bases(homs) == want and all(f.target is N for f in homs)
    assert M._homs[id(N)][0]() is N


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(st.sampled_from(FIELDS), st.sampled_from(["interval", "keps"]), st.data())
def test_auslander_algebra_twice_on_the_same_summands(F, kind, data):
    if kind == "keps":
        summands = keps_inputs(F)[0]
    else:
        mods = interval_modules(F, data.draw(st.integers(2, 5)))
        idx = data.draw(st.lists(st.integers(0, len(mods) - 1), min_size=1, max_size=5,
                                 unique=True))
        summands = [mods[k] for k in idx]
    runs = [auslander_algebra(summands).algebra for _ in range(2)]
    runs.append(auslander_algebra([fresh_copy(M) for M in summands]).algebra)
    want = [repr((S.labels, S.table, S.radical())) for S in runs]
    assert want[0] == want[1] == want[2]

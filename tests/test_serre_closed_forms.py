"""The Serre-quotient subobjects in closed form against the fixpoint loops.

`torsion_part` is one kernel (the v with v S e_i = 0 for every i outside
Sigma) and `minimal_cotorsion` one `submodule` closure (of the X e_i for i
outside Sigma).  The oracles are the loops they replaced, copied here on the
dense action matrices: t(X) grown by the Sigma-part of the socle of X / t
until that part is zero, and X_min shrunk from X to the closure of W rad + the
W e_i until it stops shrinking.  Both must agree down to `repr`, for every
Serre class Sigma (a sample of them on five idempotents).
"""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from ppcat.funcat import FinModule, SerreData
from ppcat.linalg import QuotientSpace, Subspace, kernel

from algebra_oracle import sparse_action
from fixtures import dense_act_vector, dense_action
from linalg_oracle import row_apply, vstack
from serre_oracle import minimal_cotorsion, torsion_part
from test_sparse_modules import dense_quotient, dense_submodule, summand_cases


def oracle_socle(X, rad):
    mats = [dense_act_vector(X, r).transpose() for r in rad.basis_rows()]
    if not mats:
        return Subspace.full(X.field, X.dim)
    return kernel(vstack(mats))


def oracle_isotypic_socle_part(X, rad, indices):
    soc = oracle_socle(X, rad)
    action = dense_action(X)
    vecs = []
    for r in soc.basis_rows():
        for i in indices:
            vecs.append(row_apply(r, action[X.algebra.idempotents[i]]))
    return Subspace.from_vectors(X.field, X.dim, vecs)


def oracle_torsion_part(X, serre, rad):
    F = X.field
    t = Subspace.zero(F, X.dim)
    while True:
        q = QuotientSpace(Subspace.full(F, X.dim), t)
        quo = FinModule(X.algebra, q.dim, sparse_action(dense_quotient(X, t), q.dim))
        part = oracle_isotypic_socle_part(quo, rad, sorted(serre.simples))
        if part.dim == 0:
            return t
        vecs = list(t.basis_rows())
        for r in part.basis_rows():
            lift = [F.zero()] * X.dim
            for c, i in zip(r, range(q.dim)):
                if not F.is_zero(c):
                    lift = [F.add(a, F.mul(c, b)) for a, b in zip(lift, q.lift(i))]
            vecs.append(tuple(lift))
        t = dense_submodule(X, vecs)


def oracle_minimal_cotorsion(X, serre, rad):
    F = X.field
    outside = [i for i in range(len(X.algebra.idempotents)) if i not in serre.simples]
    current = Subspace.full(F, X.dim)
    while True:
        vecs = []
        rad_mats = [dense_act_vector(X, r) for r in rad.basis_rows()]
        out_mats = [dense_action(X)[X.algebra.idempotents[i]] for i in outside]
        for r in current.basis_rows():
            for m in rad_mats + out_mats:
                vecs.append(row_apply(r, m))
        nxt = dense_submodule(X, vecs)
        if nxt.dim == current.dim:
            return nxt
        current = nxt


@st.composite
def serre_cases(draw):
    """(functors, rad, Serre classes): the functors of `summand_cases` over
    A2-A4 interval subsets or the keps summands, with every Sigma on up to
    four idempotents and eight drawn ones on five."""
    data, functors = draw(summand_cases(2, 4))
    n = len(data.summands)
    if n <= 4:
        sigmas = [set(c) for size in range(n + 1) for c in combinations(range(n), size)]
    else:
        sigmas = draw(st.lists(st.sets(st.integers(0, n - 1)), min_size=8, max_size=8))
    return functors, data.algebra.radical(), [SerreData(frozenset(s)) for s in sigmas]


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(serre_cases())
def test_closed_forms_match_the_fixpoints(case):
    functors, rad, sigmas = case
    for serre in sigmas:
        for X in functors:
            assert repr(torsion_part(X, serre)) == repr(oracle_torsion_part(X, serre, rad))
            assert repr(minimal_cotorsion(X, serre)) == \
                repr(oracle_minimal_cotorsion(X, serre, rad))

import random

import pytest

from ppcat.errors import ZeroModule
from ppcat.linalg import Matrix, kernel, image
from ppcat.rep import (
    RepMorphism, Representation, act, are_isomorphic, cokernel_of, direct_sum,
    coordinate_map, endo_radical, hom_space, is_indecomposable, kernel_of,
)
from ppcat.scalars import QQ, PrimeField

from fixtures import (
    a2_algebra, a2_p1, a2_p2, a2_s1, jordan_module, loop_algebra, mat, path_element,
    summand_inclusion, summand_projection,
)

F2 = PrimeField(2)


def test_act_nilpotent_square():
    kt = loop_algebra()
    M = jordan_module(kt, [(2, 0)])
    t2 = path_element(kt, ("t", "t"))
    assert act(M, t2).is_zero()


def test_act_arrow_on_p1():
    alg = a2_algebra()
    P1 = a2_p1(alg)
    assert act(P1, alg.arrow_element("a")) == mat(QQ, [[1]])


def test_act_one_plus_t():
    kt = loop_algebra()
    M = jordan_module(kt, [(2, 0)])
    r = kt.lazy("v").add(kt.arrow_element("t"))
    assert act(M, r) == mat(QQ, [[1, 1], [0, 1]])


def test_hom_dimensions_a2():
    alg = a2_algebra()
    P1, P2, S1 = a2_p1(alg), a2_p2(alg), a2_s1(alg)
    assert len(hom_space(P2, P1)) == 1
    assert len(hom_space(P1, P2)) == 0
    assert len(hom_space(P1, P1)) == 1
    assert len(hom_space(P1, S1)) == 1
    assert len(hom_space(S1, P1)) == 0


def test_cokernel_of_inclusion_is_simple():
    alg = a2_algebra()
    P1, P2 = a2_p1(alg), a2_p2(alg)
    (i,) = hom_space(P2, P1)
    C, proj = cokernel_of(i)
    assert C.dims == {"1": 1, "2": 0}
    assert proj.is_zero() is False


def test_kernel_of_identity():
    alg = a2_algebra()
    P1 = a2_p1(alg)
    K, incl = kernel_of(RepMorphism.identity(P1))
    assert K.total_dim() == 0


def test_direct_sum_dims():
    alg = a2_algebra()
    s = direct_sum([a2_p1(alg), a2_p2(alg), a2_s1(alg)])
    assert s.dims == {"1": 2, "2": 2}


def test_kernel_cokernel_rank_nullity():
    rng = random.Random(11)
    alg = a2_algebra(F2)

    def rand_rep(d1, d2):
        m = Matrix(F2, d2, d1, tuple(F2.from_int(rng.randrange(2)) for _ in range(d1 * d2)))
        return Representation(alg, {"1": d1, "2": d2}, {"a": m})

    for _ in range(20):
        M = rand_rep(rng.randrange(3), rng.randrange(3))
        N = rand_rep(rng.randrange(3), rng.randrange(3))
        for f in hom_space(M, N):
            K, _ = kernel_of(f)
            C, _ = cokernel_of(f)
            for v in ("1", "2"):
                assert K.dims[v] + image(f.blocks[v]).dim == M.dims[v]
                assert C.dims[v] + image(f.blocks[v]).dim == N.dims[v]


def test_endo_radical_simple_cases():
    alg = a2_algebra()
    P1, S1 = a2_p1(alg), a2_s1(alg)
    assert endo_radical(P1).dim == 0
    # End(P1 + S1) is 3-dimensional with radical spanned by the projection map
    M = direct_sum([P1, S1])
    assert len(hom_space(M, M)) == 3
    assert endo_radical(M).dim == 1


def test_endo_radical_span_is_projection_map():
    # the radical of End(P1 + S1) is spanned by the composite P1 ->> S1
    alg = a2_algebra()
    P1, S1 = a2_p1(alg), a2_s1(alg)
    M = direct_sum([P1, S1])
    basis = hom_space(M, M)
    rad = endo_radical(M, basis)
    (pi,) = hom_space(P1, S1)
    block = summand_inclusion([P1, S1], 1).compose(
        pi.compose(summand_projection([P1, S1], 0)))
    coords = coordinate_map(basis, M, M)(block)
    assert rad.contains_vector(coords)


def test_are_isomorphic_probabilistic_flag():
    # same dimension vector and hom dimensions, no isomorphism: over Q the
    # negative verdict comes from sampling and is flagged as such
    kt = loop_algebra()
    M = jordan_module(kt, [(2, 0)])
    N = jordan_module(kt, [(1, 0), (1, 0)])
    r = are_isomorphic(M, N)
    assert not r.isomorphic and not r.certain


def test_endo_radical_jordan():
    kt = loop_algebra()
    M = jordan_module(kt, [(2, 0)])
    # End = K[J]/(J^2): radical is spanned by J
    assert len(hom_space(M, M)) == 2
    assert endo_radical(M).dim == 1


def test_is_indecomposable():
    alg = a2_algebra()
    P1, P2 = a2_p1(alg), a2_p2(alg)
    assert is_indecomposable(P1)
    assert not is_indecomposable(direct_sum([P1, P2]))
    kt = loop_algebra()
    assert is_indecomposable(jordan_module(kt, [(2, 0)]))
    with pytest.raises(ZeroModule):
        is_indecomposable(Representation(alg, {"1": 0, "2": 0}, {}))


def test_indecomposable_fails_on_sums():
    kt = loop_algebra()
    for blocks in ([(1, 0), (1, 0)], [(2, 0), (1, 1)]):
        assert not is_indecomposable(jordan_module(kt, blocks))


def test_are_isomorphic_trivial():
    alg = a2_algebra()
    P1, S1 = a2_p1(alg), a2_s1(alg)
    r = are_isomorphic(P1, P1)
    assert r.isomorphic and r.certain and r.witness.is_invertible()
    r = are_isomorphic(P1, S1)
    assert not r.isomorphic and r.certain


def test_are_isomorphic_jordan_transpose():
    kt = loop_algebra()
    M = jordan_module(kt, [(2, 0)])
    N = Representation(kt, {"v": 2}, {"t": mat(QQ, [[0, 0], [1, 0]])})
    r = are_isomorphic(M, N)
    assert r.isomorphic
    assert r.witness.is_invertible()
    # witness really conjugates one onto the other
    w = r.witness.blocks["v"]
    assert w.mul(M.maps["t"]) == N.maps["t"].mul(w)


def test_hom_dim_iso_invariant():
    rng = random.Random(2)
    alg = a2_algebra()
    P1, P2, S1 = a2_p1(alg), a2_p2(alg), a2_s1(alg)
    M = direct_sum([P1, P2])
    N = direct_sum([P1, S1])
    base = len(hom_space(M, N))
    # conjugate M by a random invertible change of basis at each vertex
    for _ in range(5):
        c = QQ.from_int(rng.choice([1, 2, -1, 3]))
        g2 = mat(QQ, [[1, 0], [rng.randrange(-2, 3), 1]])
        amap = g2.mul(M.maps["a"]).scale(c)
        M2 = Representation(alg, dict(M.dims), {"a": amap})
        assert len(hom_space(M2, N)) == base


def test_krull_schmidt_sanity():
    # reassembled direct sums in different orders keep the same hom dimensions
    alg = a2_algebra()
    P1, P2, S1 = a2_p1(alg), a2_p2(alg), a2_s1(alg)
    A = direct_sum([P1, P2, S1])
    B = direct_sum([S1, P1, P2])
    r = are_isomorphic(A, B)
    assert r.isomorphic


def test_summand_inclusion_projection():
    alg = a2_algebra()
    reps = [a2_p1(alg), a2_s1(alg)]
    inc = summand_inclusion(reps, 1)
    assert inc.is_injective()


def test_find_invertible_exhaustive_and_sampled():
    from ppcat.rep import find_invertible, linear_combination
    F3 = PrimeField(3)
    nil = Matrix.from_rows(F3, [[0, 1], [0, 0]])
    ident = Matrix.identity(F3, 2)
    assert linear_combination([ident, nil], [2, 1]) == Matrix.from_rows(F3, [[2, 1], [0, 2]])

    def invertible(m):
        return kernel(m).dim == 0
    # over F_3 the nonzero coefficient vectors are tried in order: (0, 1) and
    # (0, 2) give singular multiples of nil, (1, 0) gives the identity
    assert find_invertible([ident, nil], invertible) == (ident, True)
    assert find_invertible([nil], invertible) == (None, True)
    nil_q = Matrix.from_rows(QQ, [[0, 1], [0, 0]])
    assert find_invertible([nil_q], invertible) == (None, False)

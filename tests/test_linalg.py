import random

from fractions import Fraction

import pytest

from ppcat.errors import DimensionMismatch
from ppcat.linalg import Matrix, Subspace, QuotientSpace, contains, image, kernel, preimage, project
from ppcat.scalars import QQ, PrimeField

from linalg_oracle import intersect, rank, rref, solve, trace_form_radical

F2 = PrimeField(2)


def mat(field, rows):
    return Matrix.from_rows(field, [[field.from_int(x) if isinstance(x, int) else x for x in r]
                                    for r in rows])


def test_rref_dependent_rows():
    m = mat(QQ, [[2, 4], [1, 2]])
    assert rref(m) == mat(QQ, [[1, 2], [0, 0]])


def test_rref_identity():
    m = Matrix.identity(QQ, 3)
    assert rref(m) == m


def test_rref_f2():
    # hand Gaussian elimination: r2 += r1, swap -> [[1,0],[0,1]]
    m = mat(F2, [[1, 1], [1, 0]])
    assert rref(m) == Matrix.identity(F2, 2)


def test_rref_idempotent():
    rng = random.Random(1)
    for _ in range(25):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = mat(QQ, [[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)])
        r = rref(m)
        assert rref(r) == r


def test_kernel_zero_map():
    k = kernel(Matrix.zero(QQ, 2, 3))
    assert k.dim == 3 and k.ambient_dim == 3


def test_kernel_identity():
    assert kernel(Matrix.identity(F2, 2)).dim == 0


def test_kernel_difference():
    # solve x - y = 0 by hand: span{(1,1)}
    k = kernel(mat(QQ, [[1, -1]]))
    assert k == Subspace.from_vectors(QQ, 2, [(Fraction(1), Fraction(1))])


def test_rank_nullity():
    rng = random.Random(7)
    for field in (QQ, F2):
        for _ in range(30):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 5)
            hi = 2 if field is F2 else 5
            m = mat(field, [[rng.randrange(hi) for _ in range(cols)] for _ in range(rows)])
            assert kernel(m).dim + image(m).dim == cols


def test_intersect_axes():
    a = Subspace.from_vectors(QQ, 2, [(Fraction(1), Fraction(0))])
    b = Subspace.from_vectors(QQ, 2, [(Fraction(0), Fraction(1))])
    assert intersect(a, b).dim == 0


def test_project_diagonal():
    s = Subspace.from_vectors(QQ, 2, [(Fraction(1), Fraction(1))])
    p = project(s, [0])
    assert p == Subspace.full(QQ, 1)


def test_modular_law_dimensions():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randrange(1, 5)
        def rand_space():
            k = rng.randrange(0, n + 1)
            vecs = [[F2.from_int(rng.randrange(2)) for _ in range(n)] for _ in range(k)]
            return Subspace.from_vectors(F2, n, vecs)
        a, b = rand_space(), rand_space()
        s = Subspace.from_vectors(F2, n, a.basis_rows() + b.basis_rows())
        i = intersect(a, b)
        assert s.dim == a.dim + b.dim - i.dim
        assert contains(s, a) and contains(s, b)
        assert contains(a, i) and contains(b, i)


def test_subspace_canonical_equality():
    a = Subspace.from_vectors(QQ, 3, [(Fraction(1), Fraction(1), Fraction(0)),
                                      (Fraction(0), Fraction(1), Fraction(1))])
    b = Subspace.from_vectors(QQ, 3, [(Fraction(1), Fraction(2), Fraction(1)),
                                      (Fraction(2), Fraction(3), Fraction(1))])
    assert a == b
    assert hash(a) == hash(b)


def test_zero_tests_read_unreduced_ints_modulo_p():
    F3 = PrimeField(3)
    # a vector that nothing is subtracted from comes back from reduce_vector as given
    assert Subspace.zero(F3, 2).contains_vector((3, -6))
    assert not Subspace.zero(F3, 2).contains_vector((3, 1))
    line = Subspace.from_vectors(F3, 2, [(1, 1)])
    assert line.contains_vector((4, 7)) and not line.contains_vector((4, 6))
    assert Matrix(F3, 1, 2, (3, -3)).is_zero() and not Matrix(F3, 1, 2, (3, 4)).is_zero()
    assert Matrix(QQ, 1, 2, (Fraction(0), 0)).is_zero()
    assert not Matrix(QQ, 1, 2, (Fraction(0), Fraction(1, 3))).is_zero()
    assert Subspace.zero(QQ, 2).contains_vector((Fraction(0), 0))
    assert not Subspace.zero(QQ, 2).contains_vector((Fraction(0), Fraction(-1, 2)))


def test_solve_and_preimage():
    m = mat(QQ, [[1, 1], [0, 1]])
    x = solve(m, (QQ.from_int(3), QQ.from_int(1)))
    assert m.apply(x) == (Fraction(3), Fraction(1))
    assert solve(mat(QQ, [[1, 0], [1, 0]]), (QQ.from_int(1), QQ.from_int(0))) is None
    s = Subspace.from_vectors(QQ, 2, [(Fraction(1), Fraction(0))])
    pre = preimage(m, s)
    # m v in span{e1}  <=>  second coordinate of m v is 0  <=>  v2 = 0
    assert pre == Subspace.from_vectors(QQ, 2, [(Fraction(1), Fraction(0))])


def test_quotient_space_coordinates():
    big = Subspace.full(QQ, 2)
    small = Subspace.from_vectors(QQ, 2, [(Fraction(1), Fraction(1))])
    q = QuotientSpace(big, small)
    assert q.dim == 1
    # (1,0) = -(0,1) modulo the diagonal
    c = q.project_vector((Fraction(1), Fraction(0)))
    d = q.project_vector((Fraction(0), Fraction(1)))
    assert c == tuple(QQ.neg(x) for x in d)
    assert q.project_vector((Fraction(2), Fraction(2))) == (Fraction(0),)


def test_rank_small():
    assert rank(mat(QQ, [[2, 4], [1, 2]])) == 1


def test_block_matrix_places_blocks_and_fills_zeros():
    from ppcat.linalg import block_matrix
    a, b = mat(QQ, [[1, 2]]), mat(QQ, [[3], [4]])
    m = block_matrix(QQ, {(0, 0): a, (1, 1): b}, [1, 2], [2, 1])
    assert m == mat(QQ, [[1, 2, 0], [0, 0, 3], [0, 0, 4]])
    assert block_matrix(QQ, {}, [0], [3]) == Matrix(QQ, 0, 3, ())
    with pytest.raises(DimensionMismatch):
        block_matrix(QQ, {(0, 0): b}, [1, 2], [2, 1])


def test_commuting_solutions_is_the_commutant():
    from ppcat.linalg import commuting_solutions as sparse_solutions, sparse_squares

    def commuting_solutions(field, shapes, squares):
        return sparse_solutions(field, shapes, sparse_squares(shapes, squares))
    # X J = J X for a nilpotent Jordan block J of size 3: the polynomials in J
    J = mat(QQ, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    sols = commuting_solutions(QQ, [(3, 3)], [(0, 0, J, J)])
    assert len(sols) == 3
    for (X,) in sols:
        assert X.mul(J) == J.mul(X)
    # two blocks, X_1 P = Q X_0 with P = Q = 1x1 identity: X_1 = X_0
    one = Matrix.identity(F2, 1)
    sols = commuting_solutions(F2, [(1, 1), (1, 1)], [(0, 1, one, one)])
    assert sols == [(one, one)]
    # no squares: every tuple of blocks
    assert len(commuting_solutions(QQ, [(2, 1)], [])) == 2


def test_trace_form_radical_of_dual_numbers():
    # regular action of K[e]/e^2 on the basis (1, e): trace(1) = 2, the rest 0
    rad = trace_form_radical(mat(QQ, [[2, 0], [0, 0]]))
    assert rad.basis_rows() == [(Fraction(0), Fraction(1))]
    assert trace_form_radical(Matrix(QQ, 0, 0, ())).dim == 0

"""Shared algebra and module constructions used across the test suite."""

from ppcat.linalg import Matrix
from ppcat.quiver import Arrow, Quiver, QuiverAlgebra, RingElement, make_path
from ppcat.rep import Representation
from ppcat.scalars import QQ, PrimeField

F2 = PrimeField(2)


def a2_algebra(field=QQ):
    q = Quiver("A2", ("1", "2"), (Arrow("a", "1", "2"),))
    return QuiverAlgebra("KA2", q, field)


def a3_algebra(field=QQ):
    q = Quiver("A3", ("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "2", "3")))
    return QuiverAlgebra("KA3", q, field)


def a1tilde_algebra(field=QQ):
    q = Quiver("A1t", ("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "1", "2")))
    return QuiverAlgebra("KA1t", q, field)


def loop_algebra(field=QQ):
    q = Quiver("Loop", ("v",), (Arrow("t", "v", "v"),))
    return QuiverAlgebra("KT", q, field)


def dual_numbers_algebra(field=QQ):
    q = Quiver("Loop", ("v",), (Arrow("t", "v", "v"),))
    sq = RingElement.from_path(field, make_path(q, ("t", "t")))
    return QuiverAlgebra("Keps", q, field, relations=(sq,), nilpotency_bound=2)


def d4tilde_algebra(field=QQ):
    q = Quiver("D4t", ("0", "1", "2", "3", "4"),
               (Arrow("a1", "1", "0"), Arrow("a2", "2", "0"),
                Arrow("a3", "3", "0"), Arrow("a4", "4", "0")))
    return QuiverAlgebra("KD4t", q, field)


def mat(field, rows):
    return Matrix.from_rows(field, [[field.from_int(x) for x in r] for r in rows])


def rep(alg, dims, maps):
    field = alg.field
    mm = {name: mat(field, rows) for name, rows in maps.items()}
    return Representation(alg, dims, mm)


def a2_p1(alg):
    return rep(alg, {"1": 1, "2": 1}, {"a": [[1]]})


def a2_p2(alg):
    return rep(alg, {"1": 0, "2": 1}, {})


def a2_s1(alg):
    return rep(alg, {"1": 1, "2": 0}, {})


def jordan_module(alg, blocks):
    """K[T]-module from Jordan data [(size, eigenvalue), ...]."""
    field = alg.field
    n = sum(s for s, _ in blocks)
    rows = [[field.zero()] * n for _ in range(n)]
    off = 0
    for size, lam in blocks:
        for i in range(size):
            rows[off + i][off + i] = field.from_int(lam)
            if i + 1 < size:
                rows[off + i][off + i + 1] = field.one()
        off += size
    return Representation(alg, {"v": n}, {"t": Matrix.from_rows(field, rows)})


def dense_action(V):
    """The dense action matrices of a `FinModule`, one per basis element of
    its algebra, from its sparse rows (zeros as the field's zero)."""
    F, d = V.field, V.dim
    out = []
    for rows in V.sparse_action:
        ents = [F.zero()] * (d * d)
        for i, row in rows.items():
            for j, x in row:
                ents[i * d + j] = x
        out.append(Matrix(F, d, d, tuple(ents)))
    return tuple(out)


def dense_act_vector(V, vec):
    """The dense action matrix of the algebra element with coordinates vec
    on a `FinModule`."""
    F = V.field
    out = Matrix.zero(F, V.dim, V.dim)
    for c, m in zip(vec, dense_action(V)):
        if not F.is_zero(c):
            out = out.add(m.scale(c))
    return out

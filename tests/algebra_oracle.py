"""Checks and dense views of `FiniteAlgebra`s and `FinModule`s built by hand.

The constructors of `ppcat.funcat` take the sparse form only and check no
axiom: ppcat builds its algebras and modules itself, basic by construction.
The tests build others by hand, through `algebra` and `module` here.  These
also take the dense forms, a multiplication table of coordinate tuples and
action matrices, convert them, and check every axiom: associativity, the
idempotents orthogonal, primitive with split corners and summing to the
unit, and the unit and the products acting as they should on a module.  An
algebra built here stores the radical that the iterated trace form of its
regular representation gives, where the characteristic allows.

The rest is the general-algebra surface that only the tests use: the dense
table and products of dense vectors, corners, the regular module, submodule
closures and restriction, indecomposability by the trace form, and the
presentation of a bound quiver algebra by structure constants with the
search for an isomorphism to it.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import permutations

from ppcat.errors import CharacteristicTooSmall, DimensionMismatch, NotSplitEndo, PpcatError
from ppcat.funcat import (
    FiniteAlgebra, FinModule, _nonzero, _restricted_action, _row_times, fin_hom,
)
from ppcat.linalg import Matrix, Subspace, kernel, sparse_span, trace_gram
from ppcat.quiver import RingElement, compose

from fixtures import dense_action
from linalg_oracle import row_apply, trace_form_radical


# -- building and checking ----------------------------------------------------


def sparse_constants(table, n):
    """The (i, j) -> (k, c) mapping of a dense n x n multiplication table."""
    if len(table) != n or any(len(r) != n for r in table):
        raise DimensionMismatch("multiplication table shape mismatch")
    return {(i, j): tuple(enumerate(cell)) for i, row in enumerate(table)
            for j, cell in enumerate(row)}


def sparse_action(mats, dim):
    """The sparse rows of dense dim x dim action matrices."""
    for m in mats:
        if m.rows != dim or m.cols != dim:
            raise DimensionMismatch("action matrix shape mismatch")
    return tuple({i: row for i, row in ((i, tuple((j, x) for j, x in enumerate(m.row(i)) if x))
                                        for i in range(dim)) if row}
                 for m in mats)


def algebra(field, labels, constants, idempotents) -> FiniteAlgebra:
    """The checked algebra of `constants`, sparse or a dense table, with its
    trace-form radical stored when char 0 or char > dim."""
    if not isinstance(constants, Mapping):
        constants = sparse_constants(constants, len(labels))
    S = FiniteAlgebra(field, labels, constants, idempotents)
    check_algebra(S)
    if field.char == 0 or field.char > S.dim:
        S._radical = trace_radical(S)
    return S


def module(S: FiniteAlgebra, dim, action) -> FinModule:
    """The checked module of `action`, sparse rows or dense matrices."""
    action = tuple(action)
    if any(isinstance(m, Matrix) for m in action):
        action = sparse_action(action, dim)
    V = FinModule(S, dim, action)
    check_module(V)
    return V


def check_algebra(S: FiniteAlgebra):
    n = S.dim
    check_associative(S)
    one = S._sparse(unit_vector(S))
    for i in range(n):
        b = {i: S.field.one()}
        if S._sparse_mul(one, b) != b or S._sparse_mul(b, one) != b:
            raise PpcatError("idempotents do not sum to a unit")
    idempotents = [S._sparse(e) for e in S.idempotents]
    for a, ea in enumerate(idempotents):
        for b, eb in enumerate(idempotents):
            if S._sparse_mul(ea, eb) != (ea if a == b else {}):
                raise PpcatError("idempotents are not orthogonal")
    # primitivity: each corner is local (corner / corner-radical is 1-dim)
    for k in range(len(S.idempotents)):
        c = corner(S, k, k)
        if c.dim == 0:
            raise PpcatError("zero idempotent")
        if corner_residue_dim(S, c) != 1:
            raise NotSplitEndo("idempotent %d is not primitive with split corner" % k)


def check_associative(S: FiniteAlgebra):
    """(b_i b_j) b_k = b_i (b_j b_k) for every triple of basis elements,
    exactly.  Both sides are sums over structure constants: the left one
    is sum_m c_m (b_m b_k) over the terms c_m b_m of b_i b_j, the right one
    sum_m c_m (b_i b_m) over the terms of b_j b_k.  So for a pair (i, j)
    only the k in the right support of b_j or of a term of b_i b_j can
    give a nonzero side; those are computed and compared.  And a pair
    with b_i b_j = 0 needs no k at all unless b_i b_m is nonzero for some
    term b_m of some b_j b_k: both sides are zero for every k.  So each j
    visits the i in the left support of b_j or of such a b_m."""
    rows = S._rows
    one = S.field.one()
    left = [[] for _ in rows]  # m -> the i with b_i b_m nonzero
    for i, row in enumerate(rows):
        for m in row:
            left[m].append(i)
    for j, row_j in enumerate(rows):
        visit = set(left[j])
        for cell in row_j.values():
            for m, _ in cell:
                visit.update(left[m])
        for i in visit:
            b_ij = dict(rows[i].get(j, ()))
            ks = set(row_j)
            for m in b_ij:
                ks.update(rows[m])
            for k in ks:
                if S._sparse_mul(b_ij, {k: one}) != \
                        S._sparse_mul({i: one}, dict(row_j.get(k, ()))):
                    raise PpcatError("multiplication table is not associative")


def corner_residue_dim(S: FiniteAlgebra, c: Subspace):
    """dim c / rad c for the corner c, rad c by the iterated trace form of
    its left regular action."""
    F = S.field
    d = c.dim
    if F.char != 0 and F.char <= d:
        raise CharacteristicTooSmall("corner check needs larger characteristic")
    if d == 1:  # a 1-dimensional unital algebra is K
        return 1
    rows = [S._sparse(r) for r in c.basis_rows()]
    mats = [Matrix.from_rows(F, [c.coordinates(dense(S, S._sparse_mul(b, r))) for b in rows])
            for r in rows]
    return d - trace_form_radical(trace_gram(F, [(m,) for m in mats])).dim


def check_module(V: FinModule):
    """The unit acts as the identity, and b_i b_j as the action of b_i
    followed by that of b_j, compared row by row on the sparse rows."""
    S, action = V.algebra, V.sparse_action
    p = V.field.char

    def reduced(rows):  # {row: {column: value}} without zero entries and rows
        return {i: r for i, r in ((i, _nonzero(row, p)) for i, row in rows.items()) if r}
    unit = ((m, c) for m, c in enumerate(unit_vector(S)) if c)
    if reduced(V._combination(unit)) != {i: {i: 1} for i in range(V.dim)}:
        raise PpcatError("unit does not act as the identity")
    for i, A in enumerate(action):
        for j, B in enumerate(action):
            prod = {r: _row_times(row, B, p) for r, row in A.items()}
            if reduced(V._combination(S._rows[i].get(j, ()))) != reduced(prod):
                raise PpcatError("action does not respect the structure constants")


# -- dense views ----------------------------------------------------------------


def dense(S: FiniteAlgebra, vec):
    """The coordinate tuple of vec, given as {index: coordinate}."""
    out = [S.field.zero()] * S.dim
    for k, c in vec.items():
        out[k] = c
    return tuple(out)


def table(S: FiniteAlgebra):
    """The dense multiplication table: cell (i, j) holds the coordinates of
    b_i b_j."""
    return tuple(tuple(dense(S, dict(row.get(j, ()))) for j in range(S.dim)) for row in S._rows)


def mul(S: FiniteAlgebra, a, b):
    """a b for coordinate tuples a and b."""
    return dense(S, S._sparse_mul(S._sparse(a), S._sparse(b)))


def basis_vector(S: FiniteAlgebra, k):
    return dense(S, {k: S.field.one()})


def unit_vector(S: FiniteAlgebra):
    F = S.field
    out = [F.zero()] * S.dim
    for e in S.idempotents:
        out = [F.add(a, b) for a, b in zip(out, e)]
    return tuple(out)


def corner(S: FiniteAlgebra, k, l) -> Subspace:
    """Basis vectors of e_k S e_l."""
    return S._corner(S._sparse(S.idempotents[k]), S._sparse(S.idempotents[l]))


# -- modules --------------------------------------------------------------------


def regular_module(S: FiniteAlgebra) -> FinModule:
    """The right regular module; the action of b_k has row i equal to
    b_i b_k, read off the structure constants."""
    action = tuple({i: tuple(sorted(row[k])) for i, row in enumerate(S._rows) if k in row}
                   for k in range(S.dim))
    return FinModule(S, S.dim, action)


def trace_radical(S: FiniteAlgebra) -> Subspace:
    """The radical of S by the iterated trace form of its regular module."""
    return trace_form_radical(trace_gram(S.field, [(m,) for m in dense_action(regular_module(S))]))


def submodule(V: FinModule, vectors) -> Subspace:
    """The smallest action-closed subspace containing the vectors, each
    given dense or as a {column: value} dict: their span, with the images
    of its basis rows under every basis element added until it stops
    growing."""
    F, d, p = V.field, V.dim, V.field.char
    rows = []
    for v in vectors:
        if not isinstance(v, dict):
            if len(v) != d:
                raise DimensionMismatch("vector length %d, ambient %d" % (len(v), d))
            v = {j: x for j, x in enumerate(v) if x}
        rows.append(v)
    current = sparse_span(F, d, rows)
    while True:
        basis = current.nonzero_rows
        images = [_row_times(r, A, p) for r in basis for A in V.sparse_action]
        nxt = sparse_span(F, d, [dict(r) for r in basis] + images)
        if nxt.dim == current.dim:
            return nxt
        current = nxt


def restrict(V: FinModule, sub: Subspace) -> FinModule:
    """The submodule `sub` on its RREF basis: row r of the action of b_m
    is the coordinates of (basis row r) b_m."""
    return FinModule(V.algebra, sub.dim, _restricted_action(sub, V.sparse_action, V.field.char))


def fin_is_indecomposable(X: FinModule) -> bool:
    """Whether End(X)/rad is one-dimensional, rad by the iterated trace form."""
    if X.dim == 0:
        raise PpcatError("zero module")
    F = X.field
    basis = fin_hom(X, X)
    d = len(basis)
    if F.char != 0 and F.char <= max(d, X.dim):
        raise CharacteristicTooSmall("characteristic too small for dim End = %d" % d)
    if d == 1:  # End(X) = K
        return True
    return d - trace_form_radical(trace_gram(F, [(f,) for f in basis])).dim == 1


# -- presenting a quiver algebra as a FiniteAlgebra ------------------------------


def quiver_algebra_to_finite(alg) -> FiniteAlgebra:
    """Basis of irreducible paths, lazy paths first; products are
    composition then reduction."""
    verts = alg.quiver.vertices
    paths = []
    for v in verts:
        paths.append(next(p for p in alg.hom_basis(v, v) if p.is_lazy()))
    for s in verts:
        for t in verts:
            for p in alg.hom_basis(s, t):
                if not p.is_lazy():
                    paths.append(p)
    F = alg.field
    index = {p: i for i, p in enumerate(paths)}

    def coords(elem):
        vec = [F.zero()] * len(paths)
        for p, c in elem.terms.items():
            vec[index[p]] = c
        return tuple(vec)

    rows = []
    for p in paths:
        row = []
        pe = RingElement.from_path(F, p)
        for q in paths:
            qe = RingElement.from_path(F, q)
            if p.target == q.source:  # the product p q = "p then q" = q o p
                row.append(coords(alg.reduce(compose(qe, pe))))
            else:
                row.append((F.zero(),) * len(paths))
        rows.append(row)
    idempotents = []
    for k in range(len(verts)):
        z = [F.zero()] * len(paths)
        z[k] = F.one()
        idempotents.append(tuple(z))
    return algebra(F, tuple(str(p) for p in paths), rows, idempotents)


def basic_algebra_isomorphism(A: FiniteAlgebra, B: FiniteAlgebra):
    """Search for an isomorphism aligning idempotents and one-dimensional
    corners (enough for multiplicity-free basic algebras like the fixtures).

    Returns a basis-to-vector mapping as a matrix (rows = images of A's basis
    in B's coordinates), or None.
    """
    if A.dim != B.dim or len(A.idempotents) != len(B.idempotents):
        return None
    n = len(A.idempotents)
    cornersA = {(k, l): corner(A, k, l) for k in range(n) for l in range(n)}
    cornersB = {(k, l): corner(B, k, l) for k in range(n) for l in range(n)}
    for perm in permutations(range(n)):
        if any(cornersA[(k, l)].dim != cornersB[(perm[k], perm[l])].dim
               for k in range(n) for l in range(n)):
            continue
        mapping = _standard_basis_mapping(A, B, perm, cornersA, cornersB)
        if mapping is not None and _is_homomorphism(A, B, mapping):
            return mapping
    return None


def _standard_basis_mapping(A, B, perm, cornersA, cornersB):
    """Map A's k-th basis vector to the matching corner basis vector of B."""
    F = A.field

    def corner_of(corners, vec):
        for (k, l), c in corners.items():
            if c.contains_vector(vec) and any(not F.is_zero(x) for x in vec):
                return (k, l)
        return None

    usedB = {}
    rows = []
    for i in range(A.dim):
        pos = corner_of(cornersA, basis_vector(A, i))
        if pos is None:
            return None
        k, l = pos
        tgt = cornersB[(perm[k], perm[l])]
        slot = usedB.setdefault((perm[k], perm[l]), 0)
        cand = tgt.basis_rows()
        if k == l:
            idb = B.idempotents[perm[k]]
            cand = [idb] + [r for r in cand if r != tuple(idb)]
        if slot >= len(cand):
            return None
        usedB[(perm[k], perm[l])] = slot + 1
        rows.append(cand[slot])
    return Matrix.from_rows(F, rows)


def _is_homomorphism(A, B, mapping: Matrix) -> bool:
    if kernel(mapping).dim != 0:
        return False
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = row_apply(mul(A, basis_vector(A, i), basis_vector(A, j)), mapping)
            rhs = mul(B, mapping.row(i), mapping.row(j))
            if tuple(lhs) != tuple(rhs):
                return False
    return True

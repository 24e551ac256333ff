"""Finite-dimensional representations of a quiver algebra and their morphisms.

A representation assigns an exact vector space dimension to every vertex and a
matrix to every arrow (shape dim(target) x dim(source)); column vectors are
acted on from the left, so a path acts by multiplying its arrow matrices in
application order.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from itertools import product

from .errors import (
    AlgebraMismatch, CharacteristicTooSmall, DimensionMismatch, SortMismatch, ZeroModule,
)
from .linalg import (
    Matrix, QuotientSpace, Solver, Subspace, block_matrix, commuting_solutions, image, kernel,
    sparse_squares, trace_gram,
)
from .quiver import QuiverAlgebra, RingElement


class Representation:
    def __init__(self, algebra: QuiverAlgebra, dims, maps, check=True):
        self.algebra = algebra
        self.dims = dict(dims)
        field = algebra.field
        for v in algebra.quiver.vertices:
            self.dims.setdefault(v, 0)
        full = {}
        for arrow in algebra.quiver.arrows:
            m = maps.get(arrow.name)
            if m is None:
                m = Matrix.zero(field, self.dims[arrow.target], self.dims[arrow.source])
            if m.rows != self.dims[arrow.target] or m.cols != self.dims[arrow.source]:
                raise DimensionMismatch(
                    "map for arrow %s has shape %dx%d, expected %dx%d"
                    % (arrow.name, m.rows, m.cols, self.dims[arrow.target],
                       self.dims[arrow.source]))
            full[arrow.name] = m
        self.maps = full
        self._path_matrices = {}  # memo of act: Path -> its matrix on this module
        self._formula_values = {}  # memo of ppeval.eval_formula: PpFormula -> value
        # memo of hom_space(self, N): id(N) -> (weak reference to N, solution blocks)
        self._homs = {}
        if check:
            for rel in algebra.relations:
                if not act(self, rel).is_zero():
                    raise SortMismatch("relation %s does not act as zero" % rel)

    @property
    def field(self):
        return self.algebra.field

    def dim(self, vertex):
        return self.dims[vertex]

    def total_dim(self):
        return sum(self.dims.values())

    def is_zero(self):
        return self.total_dim() == 0

    def __eq__(self, other):
        return (isinstance(other, Representation)
                and self.algebra == other.algebra
                and self.dims == other.dims
                and self.maps == other.maps)

    def __hash__(self):
        return hash((self.algebra, tuple(sorted(self.dims.items())),
                     tuple(sorted(self.maps.items()))))


class RepMorphism:
    def __init__(self, source: Representation, target: Representation, blocks, check=True):
        if source.algebra != target.algebra:
            raise AlgebraMismatch("morphism between representations of different algebras")
        self.source = source
        self.target = target
        field = source.field
        full = {}
        for v in source.algebra.quiver.vertices:
            b = blocks.get(v)
            if b is None:
                b = Matrix.zero(field, target.dims[v], source.dims[v])
            if b.rows != target.dims[v] or b.cols != source.dims[v]:
                raise DimensionMismatch("block at %s has wrong shape" % v)
            full[v] = b
        self.blocks = full
        if check and not self._commutes():
            raise SortMismatch("blocks do not commute with the arrow action")

    def _commutes(self):
        for arrow in self.source.algebra.quiver.arrows:
            lhs = self.blocks[arrow.target].mul(self.source.maps[arrow.name])
            rhs = self.target.maps[arrow.name].mul(self.blocks[arrow.source])
            if lhs != rhs:
                return False
        return True

    @classmethod
    def identity(cls, m: Representation):
        return cls(m, m, {v: Matrix.identity(m.field, m.dims[v]) for v in m.dims}, check=False)

    @property
    def field(self):
        return self.source.field

    def compose(self, other: "RepMorphism") -> "RepMorphism":
        """self o other (other applied first)."""
        if other.target is not self.source and other.target != self.source:
            raise AlgebraMismatch("morphisms do not compose")
        blocks = {}
        for v, a in self.blocks.items():
            b = other.blocks[v]
            # a block with an empty side or inner dimension is zero, unmultiplied
            blocks[v] = a.mul(b) if a.rows and a.cols and b.cols \
                else Matrix.zero(a.field, a.rows, b.cols)
        return RepMorphism(other.source, self.target, blocks, check=False)

    def add(self, other):
        blocks = {v: self.blocks[v].add(other.blocks[v]) for v in self.blocks}
        return RepMorphism(self.source, self.target, blocks, check=False)

    def scale(self, c):
        return RepMorphism(self.source, self.target,
                           {v: self.blocks[v].scale(c) for v in self.blocks}, check=False)

    def is_zero(self):
        return all(b.is_zero() for b in self.blocks.values())

    def is_injective(self):
        return all(kernel(b).dim == 0 for b in self.blocks.values())

    def is_invertible(self):
        for v, b in self.blocks.items():
            if b.rows != b.cols or kernel(b).dim != 0:
                return False
        return True

    def __eq__(self, other):
        return (isinstance(other, RepMorphism) and self.blocks == other.blocks
                and self.source == other.source and self.target == other.target)


def dual_module(M: Representation) -> Representation:
    """The K-linear dual over the opposite algebra (arrow matrices transposed)."""
    op = M.algebra.opposite()
    maps = {a.name: M.maps[a.name].transpose() for a in M.algebra.quiver.arrows}
    return Representation(op, dict(M.dims), maps, check=False)


def act(m: Representation, r: RingElement) -> Matrix:
    """The matrix of multiplication by r, shape dim(target) x dim(source); the
    matrix of each path is computed once per module, and is the answer itself
    for a single path with coefficient one."""
    quiver = m.algebra.quiver
    if r.source not in quiver.vertices or r.target not in quiver.vertices:
        raise SortMismatch("element sorts not in the algebra")
    F = m.field
    if len(r.terms) == 1:
        (path, coeff), = r.terms.items()
        if F.is_zero(F.sub(coeff, F.one())):
            return path_matrix(m, path)
    out = Matrix.zero(F, m.dims[r.target], m.dims[r.source])
    for path, coeff in r.terms.items():
        out = out.add(path_matrix(m, path).scale(coeff))
    return out


def path_matrix(m: Representation, path) -> Matrix:
    """The matrix of a path on m, multiplied out once per module."""
    acc = m._path_matrices.get(path)
    if acc is None:
        acc = Matrix.identity(m.field, m.dims[path.source])
        for name in path.arrows:
            acc = m.maps[name].mul(acc)
        m._path_matrices[path] = acc
    return acc


def hom_space(M: Representation, N: Representation):
    """A basis of Hom(M, N): blocks f_v (dim N_v x dim M_v) with
    f_t M(a) = N(a) f_s for every arrow a: s -> t.

    The system is solved once per pair of objects: M keeps the solution
    blocks keyed by the identity of N, which it holds only weakly, and each
    call returns a fresh list of fresh morphisms built from them."""
    if M.algebra != N.algebra:
        raise AlgebraMismatch("hom between representations of different algebras")
    verts = M.algebra.quiver.vertices
    key = id(N)
    hit = M._homs.get(key)
    if hit is not None and hit[0]() is N:
        solutions = hit[1]
    else:
        index = {v: k for k, v in enumerate(verts)}
        shapes = [(N.dims[v], M.dims[v]) for v in verts]
        squares = [(index[a.source], index[a.target], M.maps[a.name], N.maps[a.name])
                   for a in M.algebra.quiver.arrows]
        solutions = tuple(commuting_solutions(M.field, shapes, sparse_squares(shapes, squares)))
        M._homs[key] = (weakref.ref(N, _hom_dropper(M, key)), solutions)
    return [RepMorphism(M, N, dict(zip(verts, blocks)), check=False) for blocks in solutions]


def _hom_dropper(M: Representation, key):
    """The weakref callback that removes M's hom_space entry under `key` when
    its target dies.  It holds M weakly too, so no reference cycle keeps M
    alive, and a module paired with many short-lived ones does not grow."""
    source = weakref.ref(M)

    def drop(_):
        m = source()
        if m is not None:
            m._homs.pop(key, None)
    return drop


def _flatten(f: RepMorphism):
    return [x for b in f.blocks.values() for x in b.entries]


def coordinate_map(basis, source: Representation, target: Representation):
    """The function taking a morphism source -> target to its coordinates over
    `basis`, a basis of such morphisms, with the basis reduced once."""
    F = source.field
    n = sum(target.dims[v] * source.dims[v] for v in source.algebra.quiver.vertices)
    cols = Matrix.from_rows(F, [_flatten(g) for g in basis]).transpose() if basis \
        else Matrix(F, n, 0, ())
    solver = Solver(cols)

    def coordinates(f: RepMorphism):
        out = solver.solve(_flatten(f))
        if out is None:
            raise DimensionMismatch("morphism not in the span of the basis")
        return out
    return coordinates


def direct_sum(reps) -> Representation:
    reps = list(reps)
    alg = reps[0].algebra
    for r in reps:
        if r.algebra != alg:
            raise AlgebraMismatch("direct sum across algebras")
    dims = {v: sum(r.dims[v] for r in reps) for v in alg.quiver.vertices}
    maps = {a.name: block_matrix(alg.field, {(k, k): r.maps[a.name] for k, r in enumerate(reps)},
                                 [r.dims[a.target] for r in reps],
                                 [r.dims[a.source] for r in reps])
            for a in alg.quiver.arrows}
    return Representation(alg, dims, maps, check=False)


def kernel_of(f: RepMorphism):
    """The kernel representation with its inclusion."""
    M = f.source
    alg = M.algebra
    F = M.field
    spaces = {v: kernel(f.blocks[v]) for v in alg.quiver.vertices}
    dims = {v: spaces[v].dim for v in spaces}
    incl = {}
    for v in spaces:
        rows = spaces[v].basis_rows()
        incl[v] = Matrix.from_rows(F, rows).transpose() if rows \
            else Matrix(F, M.dims[v], 0, ())
    maps = {}
    for arrow in alg.quiver.arrows:
        s, t = arrow.source, arrow.target
        cols = []
        for vec in spaces[s].basis_rows():
            img = M.maps[arrow.name].apply(vec)
            cols.append(spaces[t].coordinates(img))
        maps[arrow.name] = Matrix.from_rows(F, cols).transpose() if cols \
            else Matrix(F, dims[t], 0, ())
    K = Representation(alg, dims, maps, check=False)
    return K, RepMorphism(K, M, incl)


def cokernel_of(f: RepMorphism):
    """The cokernel representation with its projection."""
    N = f.target
    alg = N.algebra
    F = N.field
    quots = {v: QuotientSpace(Subspace.full(F, N.dims[v]), image(f.blocks[v]))
             for v in alg.quiver.vertices}
    dims = {v: quots[v].dim for v in quots}
    proj = {v: quots[v].projection_matrix() for v in quots}
    maps = {}
    for arrow in alg.quiver.arrows:
        s, t = arrow.source, arrow.target
        maps[arrow.name] = proj[t].mul(N.maps[arrow.name]).mul(quots[s].lift_matrix())
    C = Representation(alg, dims, maps, check=False)
    return C, RepMorphism(N, C, proj)


def endo_radical(M: Representation, basis=None) -> Subspace:
    """Jacobson radical of End(M) in coordinates over the endomorphism basis:
    the kernel of the trace form (f, g) -> trace(fg), taken once.

    That kernel I is a two-sided ideal, since trace(fgh) = trace(hfg).
    Each f in I has trace(f^n) = trace(f f^(n-1)) = 0 for every n >= 1 (the
    identity is in End(M)), and by Newton's identities, which divide only
    by integers k <= dim M, all coefficients of the characteristic
    polynomial of f then vanish but the leading one: f is nilpotent.  So I
    is a nil ideal and lies in the radical, while the radical, nilpotent,
    lies in I.  The characteristic gate asks for that and more: char F must
    exceed dim End(M) as well as the total dimension of M.  A
    one-dimensional End(M) is K, with radical zero, and takes no trace form
    (the gate still applies).
    """
    if basis is None:
        basis = hom_space(M, M)
    F = M.field
    d = len(basis)
    if F.char != 0 and F.char <= max(d, M.total_dim()):
        raise CharacteristicTooSmall(
            "characteristic %d too small for dim End = %d on a %d-dimensional module"
            % (F.char, d, M.total_dim()))
    if d == 1:
        return Subspace.zero(F, 1)
    return kernel(trace_gram(F, [f.blocks.values() for f in basis]))


def is_indecomposable(M: Representation) -> bool:
    """Whether End(M)/rad is one-dimensional (local with residue field K)."""
    if M.is_zero():
        raise ZeroModule("the zero module is neither")
    basis = hom_space(M, M)
    rad = endo_radical(M, basis)
    return len(basis) - rad.dim == 1


@dataclass
class IsoResult:
    isomorphic: bool
    witness: RepMorphism | None
    certain: bool

    def __bool__(self):
        return self.isomorphic


ENUM_DIM_CAP = 4
ENUM_TOTAL_CAP = 2 ** 16
SAMPLE_TRIALS = 64


def are_isomorphic(M: Representation, N: Representation, seed=0) -> IsoResult:
    """Search Hom(M, N) for an invertible morphism (see `find_invertible`)."""
    if M.algebra != N.algebra:
        raise AlgebraMismatch("isomorphism across algebras")
    if M.dims != N.dims:
        return IsoResult(False, None, True)
    basis = hom_space(M, N)
    back = hom_space(N, M)
    if len(basis) != len(back) or len(basis) != len(hom_space(M, M)):
        return IsoResult(False, None, True)
    if M.is_zero():
        return IsoResult(True, RepMorphism.identity(M), True)
    if not basis:
        return IsoResult(False, None, True)
    witness, certain = find_invertible(basis, RepMorphism.is_invertible, seed)
    return IsoResult(witness is not None, witness, certain)


def linear_combination(basis, coeffs):
    """sum_k coeffs[k] * basis[k] for a nonempty list of matrices or morphisms."""
    f = basis[0].scale(coeffs[0])
    for c, g in zip(coeffs[1:], basis[1:]):
        f = f.add(g.scale(c))
    return f


def find_invertible(basis, invertible, seed=0):
    """(witness, certain): a combination of the nonempty `basis` that passes
    `invertible`, or None.

    Over a small prime field every nonzero combination is tried in order, so
    None is certain; otherwise SAMPLE_TRIALS seeded random combinations are,
    and None is not certain.  A witness is always certain.
    """
    F = basis[0].field
    d = len(basis)
    if F.char != 0 and d <= ENUM_DIM_CAP and F.char ** d <= ENUM_TOTAL_CAP:
        for coeffs in product(range(F.char), repeat=d):
            if any(coeffs):
                f = linear_combination(basis, [F.from_int(c) for c in coeffs])
                if invertible(f):
                    return f, True
        return None, True
    rng = random.Random(seed)
    hi = F.char if F.char else 7
    for _ in range(SAMPLE_TRIALS):
        coeffs = [F.from_int(rng.randrange(hi) - (0 if F.char else 3)) for _ in range(d)]
        f = linear_combination(basis, coeffs)
        if invertible(f):
            return f, True
    return None, False

"""pp formulas, pp-pairs and pp-defined maps, with their combinators.

A formula denotes  exists ybar, and-over-j of sum_i r_ji . v_i = 0,  over the vertex
sorts of a quiver algebra.  All combinators return new formulas; bound
variables are renamed apart with a deterministic counter so serialization is
stable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SortMismatch, UnknownVariable
from .quiver import QuiverAlgebra, RingElement, reverse_element


@dataclass(frozen=True)
class Var:
    name: str
    sort: str


@dataclass(frozen=True)
class Equation:
    target: str
    coeffs: tuple  # ordered pairs (variable name, RingElement)

    def coeff_map(self):
        return dict(self.coeffs)


def _merge_equation(eq: Equation) -> Equation:
    """Combine repeated variable entries so coeff_map loses nothing."""
    names = [n for n, _ in eq.coeffs]
    if len(set(names)) == len(names):
        return eq
    merged = {}
    order = []
    for n, c in eq.coeffs:
        if n in merged:
            merged[n] = merged[n].add(c)
        else:
            merged[n] = c
            order.append(n)
    return Equation(eq.target, tuple((n, merged[n]) for n in order
                                     if not merged[n].is_zero()))


class PpFormula:
    def __init__(self, algebra: QuiverAlgebra, free_vars, bound_vars, equations):
        self.algebra = algebra
        self.free_vars = tuple(free_vars)
        self.bound_vars = tuple(bound_vars)
        self.equations = tuple(_merge_equation(eq) for eq in equations)
        self._hash = None  # memo of __hash__
        names = [v.name for v in self.free_vars + self.bound_vars]
        if len(set(names)) != len(names):
            raise SortMismatch("duplicate variable names")
        sorts = {v.name: v.sort for v in self.free_vars + self.bound_vars}
        verts = algebra.quiver.vertices
        for v in self.free_vars + self.bound_vars:
            if v.sort not in verts:
                raise SortMismatch("sort %s is not a vertex" % v.sort)
        for eq in self.equations:
            if eq.target not in verts:
                raise SortMismatch("equation target %s is not a vertex" % eq.target)
            for name, coeff in eq.coeffs:
                if name not in sorts:
                    raise UnknownVariable("equation mentions unknown variable %s" % name)
                if coeff.source != sorts[name]:
                    raise SortMismatch("coefficient for %s has source %s, expected %s"
                                       % (name, coeff.source, sorts[name]))
                if coeff.target != eq.target:
                    raise SortMismatch("coefficient for %s lands in %s, not %s"
                                       % (name, coeff.target, eq.target))

    @property
    def free_sorts(self):
        return tuple(v.sort for v in self.free_vars)

    def all_vars(self):
        return self.free_vars + self.bound_vars

    def var_names(self):
        return [v.name for v in self.all_vars()]

    def __eq__(self, other):
        return (isinstance(other, PpFormula)
                and self.algebra == other.algebra
                and self.free_vars == other.free_vars
                and self.bound_vars == other.bound_vars
                and self.equations == other.equations)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.free_vars, self.bound_vars, self.equations))
        return self._hash

    def __str__(self):
        parts = []
        if self.bound_vars:
            parts.append("E " + ",".join("%s:%s" % (v.name, v.sort) for v in self.bound_vars))
        eqs = []
        for eq in self.equations:
            terms = " + ".join("%s*%s" % (c, n) for n, c in eq.coeffs)
            eqs.append("%s = 0 @%s" % (terms or "0", eq.target))
        parts.append(" & ".join(eqs) if eqs else "true")
        return " . ".join(parts)


def _fresh_names(count, avoid, base="b"):
    out = []
    i = 0
    avoid = set(avoid)
    while len(out) < count:
        nm = "%s%d" % (base, i)
        if nm not in avoid:
            out.append(nm)
            avoid.add(nm)
        i += 1
    return out


def _substitute(equations, mapping):
    out = []
    for eq in equations:
        out.append(Equation(eq.target,
                            tuple((mapping.get(n, n), c) for n, c in eq.coeffs)))
    return out


def rename_apart(f: PpFormula, avoid):
    """Rename the bound variables of f away from the given name set."""
    fresh = _fresh_names(len(f.bound_vars), set(avoid) | set(f.var_names()))
    mapping = {v.name: nm for v, nm in zip(f.bound_vars, fresh)}
    bound = [Var(mapping[v.name], v.sort) for v in f.bound_vars]
    return PpFormula(f.algebra, f.free_vars, bound, _substitute(f.equations, mapping))


def conj(a: PpFormula, b: PpFormula, identify=()) -> PpFormula:
    """Conjunction, merging the identified free variables of b into a's.

    identify is a sequence of (a_name, b_name) pairs of equal sort.
    """
    if a.algebra != b.algebra:
        raise SortMismatch("conjunction across algebras")
    a_sorts = {v.name: v.sort for v in a.free_vars}
    b_sorts = {v.name: v.sort for v in b.free_vars}
    mapping = {}
    for an, bn in identify:
        if an not in a_sorts or bn not in b_sorts:
            raise UnknownVariable("identification names unknown variables")
        if a_sorts[an] != b_sorts[bn]:
            raise SortMismatch("identified variables %s and %s have different sorts" % (an, bn))
        if bn in mapping:
            raise SortMismatch("variable %s identified twice" % bn)
        mapping[bn] = an
    avoid = set(a.var_names())
    b = rename_apart(b, avoid | set(mapping.values()))
    avoid |= set(v.name for v in b.bound_vars)
    # un-identified free variables of b keep their names unless they clash
    keep = [v for v in b.free_vars if v.name not in mapping]
    clashes = [v for v in keep if v.name in avoid]
    fresh = _fresh_names(len(clashes), avoid | {v.name for v in keep}, base="w")
    for v, nm in zip(clashes, fresh):
        mapping[v.name] = nm
    free = list(a.free_vars) + [Var(mapping.get(v.name, v.name), v.sort) for v in keep]
    bound = list(a.bound_vars) + list(b.bound_vars)
    eqs = list(a.equations) + _substitute(b.equations, mapping)
    return PpFormula(a.algebra, free, bound, eqs)


def exists(f: PpFormula, names) -> PpFormula:
    """Existentially quantify the named free variables."""
    names = list(names)
    free_names = {v.name for v in f.free_vars}
    for n in names:
        if n not in free_names:
            raise UnknownVariable("cannot quantify non-free variable %s" % n)
    moved = [v for v in f.free_vars if v.name in names]
    free = [v for v in f.free_vars if v.name not in names]
    return PpFormula(f.algebra, free, list(f.bound_vars) + moved, f.equations)


def pad_free(f: PpFormula, extra_sorts, front=True) -> PpFormula:
    """Add unused free variables (in front by default)."""
    avoid = set(f.var_names())
    fresh = _fresh_names(len(extra_sorts), avoid, base="u")
    extra = [Var(n, s) for n, s in zip(fresh, extra_sorts)]
    free = extra + list(f.free_vars) if front else list(f.free_vars) + extra
    return PpFormula(f.algebra, free, f.bound_vars, f.equations)


def dual(f: PpFormula) -> PpFormula:
    """Elementary dual over the opposite algebra.

    For  exists ybar with equations sum_i r_ji v_i = 0  the dual has the same free
    sorts, one bound variable z_j per equation, and equations
    x_i = sum_j z_j r_ji  for free i,   0 = sum_j z_j r_ji  for bound i.
    """
    op = f.algebra.opposite()
    F = f.algebra.field
    avoid = set(f.var_names())
    znames = _fresh_names(len(f.equations), avoid, base="z")
    zvars = [Var(n, eq.target) for n, eq in zip(znames, f.equations)]
    eqs = []
    nfree = len(f.free_vars)
    for i, v in enumerate(f.all_vars()):
        coeffs = []
        if i < nfree:
            coeffs.append((v.name, RingElement.lazy(F, v.sort)))
        for z, eq in zip(zvars, f.equations):
            r = eq.coeff_map().get(v.name)
            if r is None or r.is_zero():
                continue
            rop = reverse_element(r, F)
            coeffs.append((z.name, rop.neg() if i < nfree else rop))
        if coeffs:
            eqs.append(Equation(v.sort, tuple(coeffs)))
    free = [Var(v.name, v.sort) for v in f.free_vars]
    return PpFormula(op, free, zvars, eqs)


# -- pp maps ------------------------------------------------------------


class PpPair:
    """An ordered pair of formulas with the same free sorts; certified means
    the bottom has been proved to imply the top."""

    def __init__(self, top: PpFormula, bottom: PpFormula, certified=False):
        if top.algebra != bottom.algebra:
            raise SortMismatch("pair across algebras")
        if top.free_sorts != bottom.free_sorts:
            raise SortMismatch("pair with mismatched free sorts")
        self.top = top
        self.bottom = bottom
        self.certified = certified

    @property
    def algebra(self):
        return self.top.algebra

    @property
    def free_sorts(self):
        return self.top.free_sorts

    def certify(self):
        return PpPair(self.top, self.bottom, certified=True)

    def __eq__(self, other):
        return (isinstance(other, PpPair) and self.top == other.top
                and self.bottom == other.bottom)

    def __hash__(self):
        return hash((self.top, self.bottom))


class PpMap:
    """A candidate morphism of pp-pairs given by a relation formula.

    rho's free variables are the source pair's tuple followed by the target
    pair's tuple.
    """

    def __init__(self, source_pair: PpPair, target_pair: PpPair, rho: PpFormula):
        want = tuple(source_pair.free_sorts) + tuple(target_pair.free_sorts)
        if rho.free_sorts != want:
            raise SortMismatch("relation formula sorts %s do not match pairs %s"
                               % (rho.free_sorts, want))
        self.source_pair = source_pair
        self.target_pair = target_pair
        self.rho = rho

    @property
    def n_inputs(self):
        return len(self.source_pair.free_sorts)


def identity_map_formula(algebra, sorts) -> PpFormula:
    """rho(xbar, ybar): ybar = xbar."""
    F = algebra.field
    xn = ["x%d" % i for i in range(len(sorts))]
    yn = ["y%d" % i for i in range(len(sorts))]
    fv = [Var(n, s) for n, s in zip(xn + yn, tuple(sorts) + tuple(sorts))]
    eqs = []
    for x, y, s in zip(xn, yn, sorts):
        one = RingElement.lazy(F, s)
        eqs.append(Equation(s, ((y, one), (x, one.neg()))))
    return PpFormula(algebra, fv, [], eqs)


def zero_map_formula(algebra, src_sorts, tgt_sorts) -> PpFormula:
    """rho(xbar, ybar): ybar = 0 (defined for every xbar)."""
    F = algebra.field
    xn = ["x%d" % i for i in range(len(src_sorts))]
    yn = ["y%d" % i for i in range(len(tgt_sorts))]
    fv = [Var(n, s) for n, s in zip(xn, src_sorts)] + \
         [Var(n, s) for n, s in zip(yn, tgt_sorts)]
    eqs = [Equation(s, ((y, RingElement.lazy(F, s)),)) for y, s in zip(yn, tgt_sorts)]
    return PpFormula(algebra, fv, [], eqs)


def _split_io(rho: PpFormula, n_inputs):
    return rho.free_vars[:n_inputs], rho.free_vars[n_inputs:]


def compose_map_formulas(rho1: PpFormula, rho2: PpFormula, n1: int, n2: int) -> PpFormula:
    """The relation  exists ybar (rho1(x,ybar) and rho2(ybar,z))  with
    rho1: n1 inputs, rho2: n2 inputs (= rho1's outputs)."""
    x1, y1 = _split_io(rho1, n1)
    y2, z2 = _split_io(rho2, n2)
    if tuple(v.sort for v in y1) != tuple(v.sort for v in y2):
        raise SortMismatch("composition sorts do not match")
    merged = conj(rho1, rho2, identify=[(a.name, b.name) for a, b in zip(y1, y2)])
    # free order is x1 + y1 + (z2 possibly renamed); quantify out the middle
    mid = [v.name for v in y1]
    out = exists(merged, mid)
    return out


def combine_map_formulas(rho1: PpFormula, rho2: PpFormula, n: int, c1, c2) -> PpFormula:
    """The relation  ybar = c1*y1bar + c2*y2bar  where rho_k relates xbar to ykbar."""
    x1, y1 = _split_io(rho1, n)
    x2, y2 = _split_io(rho2, n)
    if tuple(v.sort for v in x1) != tuple(v.sort for v in x2):
        raise SortMismatch("combination inputs do not match")
    if tuple(v.sort for v in y1) != tuple(v.sort for v in y2):
        raise SortMismatch("combination outputs do not match")
    merged = conj(rho1, rho2, identify=[(a.name, b.name) for a, b in zip(x1, x2)])
    # merged free order: x1 + y1 + y2'  (y2 possibly renamed by conj)
    y2m = merged.free_vars[n + len(y1):]
    avoid = set(merged.var_names())
    fresh = _fresh_names(len(y1), avoid, base="y")
    F = rho1.algebra.field
    new_free = list(merged.free_vars[:n]) + [Var(nm, v.sort) for nm, v in zip(fresh, y1)]
    eqs = list(merged.equations)
    for nm, v1, v2 in zip(fresh, merged.free_vars[n:n + len(y1)], y2m):
        one = RingElement.lazy(F, v1.sort)
        eqs.append(Equation(v1.sort, ((nm, one), (v1.name, one.scale(F.neg(c1))),
                                      (v2.name, one.scale(F.neg(c2))))))
    bound = list(merged.bound_vars) + list(merged.free_vars[n:n + len(y1)]) + list(y2m)
    return PpFormula(rho1.algebra, new_free, bound, eqs)


def difference_map(rho1: PpFormula, rho2: PpFormula, n_inputs: int) -> PpFormula:
    """delta(xbar, ybar): exists y1,y2 (rho1(x,y1) & rho2(x,y2) & y = y1 - y2)."""
    F = rho1.algebra.field
    return combine_map_formulas(rho1, rho2, n_inputs, F.one(), F.neg(F.one()))

"""Quivers with relations presenting small preadditive categories.

Paths store their arrows in application order (the first entry acts first);
printing joins them right to left with '.', so the path "first a then b"
prints as "b.a".  Ring elements are finite linear combinations of parallel
paths; relations are imposed by a leftmost rewriting system, not by reducing
products eagerly.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import (
    NotAdmissible, PpcatError, SortMismatch, UnsupportedRelation,
)


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Quiver:
    name: str = dc_field(compare=False)
    vertices: tuple = ()
    arrows: tuple = ()

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise PpcatError("duplicate vertex names")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise PpcatError("duplicate arrow names")
        for a in self.arrows:
            if a.source not in self.vertices or a.target not in self.vertices:
                raise PpcatError("arrow %s has an undeclared endpoint" % a.name)

    def arrow(self, name) -> Arrow:
        for a in self.arrows:
            if a.name == name:
                return a
        raise PpcatError("no arrow named %r" % name)

    def arrows_from(self, v):
        return [a for a in self.arrows if a.source == v]

    def is_acyclic(self) -> bool:
        color = {v: 0 for v in self.vertices}

        def visit(v):
            color[v] = 1
            for a in self.arrows_from(v):
                if color[a.target] == 1:
                    return False
                if color[a.target] == 0 and not visit(a.target):
                    return False
            color[v] = 2
            return True

        return all(visit(v) for v in self.vertices if color[v] == 0)

    def reversed(self, name=None) -> "Quiver":
        arrows = tuple(Arrow(a.name, a.target, a.source) for a in self.arrows)
        return Quiver(name or self.name + "_op", self.vertices, arrows)


@dataclass(frozen=True)
class Path:
    source: str
    target: str
    arrows: tuple  # arrow names in application order

    @classmethod
    def lazy(cls, vertex):
        return cls(vertex, vertex, ())

    @property
    def length(self):
        return len(self.arrows)

    def is_lazy(self):
        return not self.arrows

    def sort_key(self):
        return (self.length, self.arrows, self.source)

    def __str__(self):
        if not self.arrows:
            return "id(%s)" % self.source
        return ".".join(reversed(self.arrows))


def make_path(quiver: Quiver, arrow_names) -> Path:
    """Build a path from arrow names in application order, checking the chain."""
    arrow_names = tuple(arrow_names)
    if not arrow_names:
        raise PpcatError("use Path.lazy for empty paths")
    first = quiver.arrow(arrow_names[0])
    at = first.source
    for nm in arrow_names:
        a = quiver.arrow(nm)
        if a.source != at:
            raise SortMismatch("arrows %s do not compose" % (arrow_names,))
        at = a.target
    return Path(first.source, at, arrow_names)


class RingElement:
    """A finite linear combination of parallel paths."""

    __slots__ = ("field", "source", "target", "terms")

    def __init__(self, field, source, target, terms):
        self.field = field
        self.source = source
        self.target = target
        clean = {}
        for path, coeff in dict(terms).items():
            if path.source != source or path.target != target:
                raise SortMismatch("path %s does not run %s -> %s" % (path, source, target))
            if not field.is_zero(coeff):
                clean[path] = coeff
        self.terms = clean

    @classmethod
    def lazy(cls, field, vertex):
        return cls(field, vertex, vertex, {Path.lazy(vertex): field.one()})

    @classmethod
    def from_path(cls, field, path, coeff=None):
        return cls(field, path.source, path.target,
                   {path: field.one() if coeff is None else coeff})

    def is_zero(self):
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: t[0].sort_key())

    def add(self, other):
        if (self.source, self.target) != (other.source, other.target):
            raise SortMismatch("cannot add elements of different sorts")
        F = self.field
        terms = dict(self.terms)
        for p, c in other.terms.items():
            terms[p] = F.add(terms.get(p, F.zero()), c)
        return RingElement(F, self.source, self.target, terms)

    def neg(self):
        F = self.field
        return RingElement(F, self.source, self.target,
                           {p: F.neg(c) for p, c in self.terms.items()})

    def scale(self, c):
        F = self.field
        return RingElement(F, self.source, self.target,
                           {p: F.mul(c, co) for p, co in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, RingElement)
                and self.source == other.source and self.target == other.target
                and self.terms == other.terms)

    def __hash__(self):
        # order-free, like the dict equality above: no sort per hash
        return hash((self.source, self.target, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        F = self.field
        bits = []
        for p, c in self.sorted_terms():
            if F.is_zero(F.sub(c, F.one())):
                bits.append(str(p))
            else:
                bits.append("%s*%s" % (F.to_str(c), p))
        return " + ".join(bits)


def compose(a: RingElement, b: RingElement) -> RingElement:
    """Bilinear extension of path concatenation: (a o b), b applied first."""
    if a.source != b.target:
        raise SortMismatch("compose: source of first (%s) != target of second (%s)"
                           % (a.source, b.target))
    F = a.field
    terms = {}
    for pb, cb in b.terms.items():
        for pa, ca in a.terms.items():
            p = Path(pb.source, pa.target, pb.arrows + pa.arrows)
            coeff = F.mul(ca, cb)
            if p in terms:
                terms[p] = F.add(terms[p], coeff)
            else:
                terms[p] = coeff
    return RingElement(F, b.source, a.target, terms)


def _contains_subpath(arrows, sub):
    n, m = len(arrows), len(sub)
    if m == 0 or m > n:
        return False
    for i in range(n - m + 1):
        if arrows[i:i + m] == sub:
            return True
    return False


def _overlaps(a, b):
    """Whether a proper suffix of a equals a prefix of b (or vice versa)."""
    for k in range(1, min(len(a), len(b))):
        if a[-k:] == b[:k] or b[-k:] == a[:k]:
            return True
    return False


class QuiverAlgebra:
    """A quiver with relations over an exact field.

    Relations whose terms all have path length >= 2 feed an admissibility
    check; anything else leaves the algebra constructible but flagged
    non-admissible, so that operations needing finite hom spaces refuse it.
    """

    def __init__(self, name, quiver: Quiver, field, relations=(), nilpotency_bound=None):
        self.name = name
        self.quiver = quiver
        self.field = field
        self.relations = tuple(relations)
        self.nilpotency_bound = nilpotency_bound
        for rel in self.relations:
            if rel.is_zero():
                raise PpcatError("zero relation")
        self._shapes_ok = all(
            all(p.length >= 2 for p in rel.terms) for rel in self.relations
        )
        self._rewrite = self._build_rewriting() if self._shapes_ok else None
        self._hom_cache = {}
        self._paths_cache = {}
        self._projective_cache = {}  # filled by ppeval.projective_rep
        self._opposite = None
        self.admissible = self._compute_admissible()

    # -- structure ----------------------------------------------------------

    def _build_rewriting(self):
        rules = []
        for rel in self.relations:
            terms = rel.sorted_terms()
            lead_path, lead_coeff = terms[-1]
            tail = {}
            F = self.field
            inv = F.neg(F.inv(lead_coeff))
            for p, c in terms[:-1]:
                tail[p] = F.mul(inv, c)
            rules.append((lead_path.arrows, tail))
        # supported shapes: monomial rules are always fine; a rule with a tail
        # must not have its leading word occur in any tail, nor overlap any
        # leading word (confluence would otherwise need completion)
        leads = [lead for lead, _ in rules]
        self._rewrite_supported = True
        for lead, tail in rules:
            if not tail:
                continue
            for lead2, tail2 in rules:
                for p in tail2:
                    if _contains_subpath(p.arrows, lead):
                        self._rewrite_supported = False
            for lead2 in leads:
                if _overlaps(lead, lead2) or (lead2 != lead and _contains_subpath(lead2, lead)):
                    self._rewrite_supported = False
        return rules

    def _compute_admissible(self):
        if not self._shapes_ok:
            return False
        if self.quiver.is_acyclic():
            return True
        if self.nilpotency_bound is None or not self._rewrite_supported:
            return False
        # cyclic: certified by no irreducible path of the declared length
        n = self.nilpotency_bound
        for v in self.quiver.vertices:
            frontier = [Path.lazy(v)]
            for _ in range(n):
                nxt = []
                for p in frontier:
                    for a in self.quiver.arrows_from(p.target):
                        q = Path(p.source, a.target, p.arrows + (a.name,))
                        if not self._reducible(q):
                            nxt.append(q)
                frontier = nxt
                if not frontier:
                    break
            if frontier:
                return False
        return True

    def _reducible(self, path: Path) -> bool:
        return any(_contains_subpath(path.arrows, lead) for lead, _ in self._rewrite or ())

    def _require_reduction(self):
        if not self._shapes_ok:
            raise NotAdmissible("algebra %s has non-admissible relations" % self.name)
        if not self._rewrite_supported:
            raise UnsupportedRelation(
                "relations of %s fall outside the supported rewriting shapes" % self.name)

    def reduce(self, elem: RingElement) -> RingElement:
        """Normal form of an element modulo the relation rewriting system."""
        self._require_reduction()
        F = self.field
        terms = dict(elem.terms)
        out = {}
        while terms:
            path, coeff = terms.popitem()
            hit = None
            for lead, tail in self._rewrite:
                m = len(lead)
                for i in range(path.length - m + 1):
                    if path.arrows[i:i + m] == lead:
                        hit = (i, m, tail)
                        break
                if hit:
                    break
            if hit is None:
                out[path] = F.add(out.get(path, F.zero()), coeff)
                continue
            i, m, tail = hit
            pre, post = path.arrows[:i], path.arrows[i + m:]
            for tp, tc in tail.items():
                newarrows = pre + tp.arrows + post
                newpath = Path(path.source, path.target, newarrows)
                c = F.mul(coeff, tc)
                terms[newpath] = F.add(terms.get(newpath, F.zero()), c)
        out = {p: c for p, c in out.items() if not F.is_zero(c)}
        return RingElement(F, elem.source, elem.target, out)

    def irreducible_paths_from(self, s):
        """All rewriting-irreducible paths starting at s, grouped by target."""
        self._require_reduction()
        if s in self._paths_cache:
            return self._paths_cache[s]
        cap = self.nilpotency_bound if self.nilpotency_bound is not None \
            else len(self.quiver.vertices)
        by_target = {v: [] for v in self.quiver.vertices}
        by_target[s].append(Path.lazy(s))
        frontier = [Path.lazy(s)]
        length = 0
        while frontier:
            length += 1
            if length > cap:
                raise NotAdmissible("path enumeration from %s did not terminate" % s)
            nxt = []
            for p in frontier:
                for a in self.quiver.arrows_from(p.target):
                    q = Path(p.source, a.target, p.arrows + (a.name,))
                    if not self._reducible(q):
                        nxt.append(q)
                        by_target[a.target].append(q)
            frontier = nxt
        for v in by_target:
            by_target[v].sort(key=Path.sort_key)
        self._paths_cache[s] = by_target
        return by_target

    def hom_basis(self, s, t):
        """Basis of paths s -> t in the path category modulo relations."""
        if not self.admissible:
            raise NotAdmissible("algebra %s is not admissible" % self.name)
        key = (s, t)
        if key not in self._hom_cache:
            self._hom_cache[key] = tuple(self.irreducible_paths_from(s)[t])
        return self._hom_cache[key]

    def total_dim(self):
        return sum(len(self.hom_basis(s, t))
                   for s in self.quiver.vertices for t in self.quiver.vertices)

    def lazy(self, vertex) -> RingElement:
        return RingElement.lazy(self.field, vertex)

    def arrow_element(self, name) -> RingElement:
        a = self.quiver.arrow(name)
        return RingElement.from_path(self.field, Path(a.source, a.target, (a.name,)))

    def opposite(self) -> "QuiverAlgebra":
        if self._opposite is None:
            q = self.quiver.reversed()
            rels = tuple(reverse_element(r, self.field) for r in self.relations)
            self._opposite = QuiverAlgebra(self.name + "_op", q, self.field, rels,
                                           self.nilpotency_bound)
        return self._opposite

    def __eq__(self, other):
        return (isinstance(other, QuiverAlgebra)
                and self.quiver == other.quiver
                and self.field == other.field
                and self.relations == other.relations
                and self.nilpotency_bound == other.nilpotency_bound)

    def __hash__(self):
        return hash((self.quiver, self.field, self.relations, self.nilpotency_bound))

    def __str__(self):
        return self.name


def reverse_path(p: Path) -> Path:
    return Path(p.target, p.source, tuple(reversed(p.arrows)))


def reverse_element(elem: RingElement, field) -> RingElement:
    """The same element read in the opposite algebra (paths reversed)."""
    return RingElement(field, elem.target, elem.source,
                       {reverse_path(p): c for p, c in elem.terms.items()})

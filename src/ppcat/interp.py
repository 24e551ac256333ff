"""Interpretation functors: a pp-pair per target vertex, a pp map per arrow.

Validation checks the functionality conditions on every arrow and that the
pp-composite along every relation of the target algebra is zero modulo the
bottom formula.  Application evaluates the pairs, takes canonical quotient
bases, and reads each arrow's induced matrix off the graph of its relation
formula on the module (`ppeval.graph_check`).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import (
    AlgebraMismatch, InducedMapUndefined, NotValidated, SortMismatch,
)
from .linalg import Matrix, QuotientSpace
from .ppform import (
    PpFormula, PpMap, PpPair, combine_map_formulas, compose_map_formulas, conj,
    identity_map_formula, pad_free, zero_map_formula,
)
from .ppeval import certify_pair, check_pp_map, eval_formula, graph_check, pp_implies
from .rep import (
    RepMorphism, Representation, are_isomorphic, is_indecomposable,
)


class InterpretationFunctor:
    def __init__(self, name, source_algebra, target_algebra, vertex_sorts, arrow_maps,
                 test_modules=None):
        self.name = name
        self.source_algebra = source_algebra
        self.target_algebra = target_algebra
        self.vertex_sorts = dict(vertex_sorts)  # target vertex -> PpPair over source
        self.arrow_maps = dict(arrow_maps)      # target arrow name -> PpFormula
        self.test_modules = None if test_modules is None else tuple(test_modules)
        for v in target_algebra.quiver.vertices:
            if v not in self.vertex_sorts:
                raise SortMismatch("no pp-pair for target vertex %s" % v)
            if self.vertex_sorts[v].algebra != source_algebra:
                raise AlgebraMismatch("vertex pair for %s is over the wrong algebra" % v)
        for a in target_algebra.quiver.arrows:
            if a.name not in self.arrow_maps:
                raise SortMismatch("no relation formula for target arrow %s" % a.name)
        self._validated = False

    def pair(self, vertex) -> PpPair:
        return self.vertex_sorts[vertex]

    def pp_map(self, arrow_name) -> PpMap:
        a = self.target_algebra.quiver.arrow(arrow_name)
        return PpMap(self.vertex_sorts[a.source], self.vertex_sorts[a.target],
                     self.arrow_maps[arrow_name])

    @property
    def mode(self):
        return "exact" if self.test_modules is None else "testset"


@dataclass
class ValidationReport:
    functor: str
    mode: str
    arrows: dict = dc_field(default_factory=dict)
    relations: list = dc_field(default_factory=list)

    @property
    def valid(self):
        return all(self.arrows.values()) and all(ok for _, ok in self.relations)


def _certify_pairs(F: InterpretationFunctor):
    tm = F.test_modules
    certified = {}
    for v, pair in F.vertex_sorts.items():
        certified[v] = pair if pair.certified else certify_pair(pair, tm)
    F.vertex_sorts = certified


def _relation_composite(F: InterpretationFunctor, rel):
    """The pp relation formula for a relation element of the target algebra."""
    alg = F.source_algebra
    field = alg.field
    src_sorts = F.vertex_sorts[rel.source].free_sorts
    acc = None
    for path, coeff in rel.sorted_terms():
        n = len(src_sorts)
        if path.is_lazy():
            comp = identity_map_formula(alg, src_sorts)
        else:
            comp = None
            for arrow_name in path.arrows:
                arr = F.target_algebra.quiver.arrow(arrow_name)
                nxt = F.arrow_maps[arrow_name]
                n_in = len(F.vertex_sorts[arr.source].free_sorts)
                comp = nxt if comp is None else \
                    compose_map_formulas(comp, nxt, n, n_in)
        scaled_first = acc is None
        if scaled_first:
            acc = comp if field.is_zero(field.sub(coeff, field.one())) else \
                combine_map_formulas(comp, zero_map_formula(
                    alg, [v.sort for v in comp.free_vars[:n]],
                    [v.sort for v in comp.free_vars[n:]]), n, coeff, field.one())
        else:
            acc = combine_map_formulas(acc, comp, n, field.one(), coeff)
    return acc


def _map_is_zero(F, sigma: PpFormula, src_pair: PpPair, tgt_pair: PpPair) -> bool:
    """(sigma & phi) <= psi' : the composite is the zero map of pairs."""
    n = len(src_pair.free_sorts)
    phi = src_pair.top
    merged = conj(sigma, phi,
                  identify=[(x.name, b.name) for x, b
                            in zip(sigma.free_vars[:n], phi.free_vars)])
    padded = pad_free(tgt_pair.bottom, src_pair.free_sorts, front=True)
    return pp_implies(merged, padded, F.test_modules).holds


def validate(F: InterpretationFunctor) -> ValidationReport:
    _certify_pairs(F)
    report = ValidationReport(F.name, F.mode)
    for a in F.target_algebra.quiver.arrows:
        report.arrows[a.name] = check_pp_map(F.pp_map(a.name), F.test_modules)
    for rel in F.target_algebra.relations:
        sigma = _relation_composite(F, rel)
        ok = _map_is_zero(F, sigma, F.vertex_sorts[rel.source], F.vertex_sorts[rel.target])
        report.relations.append((str(rel), ok))
    if report.valid:
        F._validated = True
    return report


def _pair_spaces(F, vertex, M):
    pair = F.vertex_sorts[vertex]
    big = eval_formula(pair.top, M).space
    small = eval_formula(pair.bottom, M).space
    return QuotientSpace(big, small)


_UNDEFINED = {"total": "relation %s not total on this module",
              "top": "relation %s leaves the top formula",
              "bottom": "relation %s does not respect the bottom formula"}


def apply(F: InterpretationFunctor, M: Representation) -> Representation:
    """The target-algebra representation phi(M)/psi(M) with induced arrows."""
    if not F._validated:
        raise NotValidated("validate the functor before applying it")
    if M.algebra != F.source_algebra:
        raise AlgebraMismatch("module is over the wrong algebra")
    field = M.field
    quots = {v: _pair_spaces(F, v, M) for v in F.target_algebra.quiver.vertices}
    dims = {v: quots[v].dim for v in quots}
    maps = {}
    for arrow in F.target_algebra.quiver.arrows:
        qv, qw = quots[arrow.source], quots[arrow.target]
        rel = eval_formula(F.arrow_maps[arrow.name], M).space  # subspace of X + Y
        # functionality on this module (automatic when validated exactly)
        failed, lift = graph_check(rel, qv.big, qv.small, qw.big, qw.small)
        if failed:
            raise InducedMapUndefined(_UNDEFINED[failed] % arrow.name)
        cols = [qw.project_vector(lift(qv.lift(i))) for i in range(qv.dim)]
        maps[arrow.name] = Matrix.from_rows(field, cols).transpose() if cols \
            else Matrix(field, dims[arrow.target], 0, ())
    return Representation(F.target_algebra, dims, maps)


def apply_morphism(F: InterpretationFunctor, h: RepMorphism) -> RepMorphism:
    """The induced morphism between applied representations (naturality)."""
    FM = apply(F, h.source)
    FN = apply(F, h.target)
    field = h.source.field
    qs_m = {v: _pair_spaces(F, v, h.source) for v in F.target_algebra.quiver.vertices}
    qs_n = {v: _pair_spaces(F, v, h.target) for v in F.target_algebra.quiver.vertices}
    blocks = {}
    for v in F.target_algebra.quiver.vertices:
        sorts = F.vertex_sorts[v].free_sorts
        cols = []
        for i in range(qs_m[v].dim):
            u = qs_m[v].lift(i)
            img = []
            off = 0
            for s in sorts:
                d = h.source.dims[s]
                img.extend(h.blocks[s].apply(u[off:off + d]))
                off += d
            cols.append(qs_n[v].project_vector(tuple(img)))
        blocks[v] = Matrix.from_rows(field, cols).transpose() if cols \
            else Matrix(field, FN.dims[v], 0, ())
    return RepMorphism(FM, FN, blocks)


@dataclass
class RoundTripReport:
    results: list  # (index, isomorphic, certain)

    @property
    def all_isomorphic(self):
        return all(ok for _, ok, _ in self.results)


def round_trip_check(F: InterpretationFunctor, G: InterpretationFunctor,
                     modules, seed=0) -> RoundTripReport:
    if F.target_algebra != G.source_algebra or G.target_algebra != F.source_algebra:
        raise AlgebraMismatch("functors do not round-trip between the same categories")
    results = []
    for k, M in enumerate(modules):
        back = apply(G, apply(F, M))
        r = are_isomorphic(back, M, seed=seed)
        results.append((k, r.isomorphic, r.certain))
    return RoundTripReport(results)


@dataclass
class EmbeddingReport:
    indecomposable: list  # (index, bool)
    collapsed_pairs: list  # (i, j) with F(Mi) iso F(Mj) but Mi not iso Mj
    certain: bool = True  # False when a probabilistic negative was involved

    @property
    def preserves_indecomposability(self):
        return all(ok for _, ok in self.indecomposable)

    @property
    def reflects_isomorphism(self):
        return not self.collapsed_pairs


def check_rep_embedding(F: InterpretationFunctor, modules, seed=0) -> EmbeddingReport:
    images = [apply(F, M) for M in modules]
    indec = [(k, is_indecomposable(img)) for k, img in enumerate(images)]
    collapsed = []
    certain = True
    for i in range(len(modules)):
        for j in range(i + 1, len(modules)):
            img = are_isomorphic(images[i], images[j], seed=seed)
            src = are_isomorphic(modules[i], modules[j], seed=seed)
            certain = certain and img.certain and src.certain
            if img.isomorphic and not src.isomorphic:
                collapsed.append((i, j))
    return EmbeddingReport(indec, collapsed, certain)

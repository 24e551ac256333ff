"""Seeded random generators shared by the property and acceptance tests."""

import random

from ppcat.linalg import Matrix
from ppcat.ppform import Equation, PpFormula, Var
from ppcat.quiver import Arrow, Path, Quiver, QuiverAlgebra, RingElement, make_path
from ppcat.rep import Representation


def random_algebra_pool(field):
    return [
        QuiverAlgebra("KA2", Quiver("A2", ("1", "2"), (Arrow("a", "1", "2"),)), field),
        QuiverAlgebra("KA1t", Quiver("A1t", ("1", "2"),
                                     (Arrow("a", "1", "2"), Arrow("b", "1", "2"))), field),
        QuiverAlgebra("KA3", Quiver("A3", ("1", "2", "3"),
                                    (Arrow("a", "1", "2"), Arrow("b", "2", "3"))), field),
        QuiverAlgebra("KT", Quiver("Loop", ("v",), (Arrow("t", "v", "v"),)), field),
    ]


def paths_up_to_len2(quiver, src, tgt):
    out = []
    if src == tgt:
        out.append(())
    for a in quiver.arrows:
        if a.source == src and a.target == tgt:
            out.append((a.name,))
        for b in quiver.arrows:
            if a.source == src and a.target == b.source and b.target == tgt:
                out.append((a.name, b.name))
    return out


def random_formula(rng, alg, max_vars=3, max_eqs=3, free_sorts=None):
    """A random formula; its free variables have the given sorts, or random
    ones (the draws are then those of a call without free_sorts)."""
    field = alg.field
    verts = alg.quiver.vertices
    nfree = rng.randrange(1, max_vars) if free_sorts is None else len(free_sorts)
    nbound = rng.randrange(0, max(max_vars - nfree, 0) + 1)
    if free_sorts is None:
        free_sorts = [rng.choice(verts) for _ in range(nfree)]
    vs = [Var("x%d" % i, s) for i, s in enumerate(free_sorts)] + \
         [Var("y%d" % i, rng.choice(verts)) for i in range(nbound)]
    eqs = []
    for _ in range(rng.randrange(0, max_eqs + 1)):
        target = rng.choice(verts)
        coeffs = []
        for v in vs:
            if rng.random() < 0.45:
                continue
            chains = paths_up_to_len2(alg.quiver, v.sort, target)
            if not chains:
                continue
            terms = {}
            for _ in range(rng.randrange(1, 3)):
                arrows = rng.choice(chains)
                p = make_path(alg.quiver, arrows) if arrows else Path.lazy(v.sort)
                c = field.from_int(rng.randrange(1, field.char or 4))
                terms[p] = field.add(terms.get(p, field.zero()), c)
            elem = RingElement(field, v.sort, target, terms)
            if not elem.is_zero():
                coeffs.append((v.name, elem))
        if coeffs:
            eqs.append(Equation(target, tuple(coeffs)))
    return PpFormula(alg, vs[:nfree], vs[nfree:], eqs)


def random_module(rng, alg, max_dim=3):
    field = alg.field
    dims = {v: rng.randrange(0, max_dim + 1) for v in alg.quiver.vertices}
    maps = {}
    for a in alg.quiver.arrows:
        r, c = dims[a.target], dims[a.source]
        hi = field.char or 5
        maps[a.name] = Matrix(field, r, c,
                              tuple(field.from_int(rng.randrange(hi))
                                    for _ in range(r * c)))
    return Representation(alg, dims, maps, check=False)

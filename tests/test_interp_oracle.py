"""The graph test of a pp map against the formula route (`interp_oracle`):
`check_pp_map` on a test set, `interp.apply` and `eval_formula` on random
maps and modules, over Q and F_5."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interp_oracle as oracle
from ppcat.errors import InducedMapUndefined
from ppcat.interp import InterpretationFunctor, apply
from ppcat.ppeval import _eval_formula, check_pp_map
from ppcat.ppform import Equation, PpFormula, PpMap, PpPair, Var, conj
from ppcat.quiver import Arrow, Path, Quiver, QuiverAlgebra, RingElement, make_path
from ppcat.scalars import QQ, PrimeField

from fixtures import top_formula, zero_formula
from randgen import paths_up_to_len2, random_algebra_pool, random_formula, random_module

FIELDS = [QQ, PrimeField(5)]


def random_pair(rng, alg, sorts):
    """phi / psi with psi = phi & chi, so psi implies phi by construction."""
    top = top_formula(alg, sorts) if rng.random() < 0.5 else \
        random_formula(rng, alg, free_sorts=sorts)
    chi = zero_formula(alg, sorts) if rng.random() < 0.5 else \
        random_formula(rng, alg, free_sorts=sorts)
    names = [v.name for v in top.free_vars]
    return PpPair(top, conj(top, chi, identify=list(zip(names, names))), certified=True)


def random_element(rng, alg, source, target):
    F = alg.field
    terms = {}
    for arrows in paths_up_to_len2(alg.quiver, source, target):
        if rng.random() < 0.6:
            p = make_path(alg.quiver, arrows) if arrows else Path.lazy(source)
            terms[p] = F.from_int(rng.randrange(1, F.char or 4))
    return RingElement(F, source, target, terms)


def random_graph(rng, alg, src, tgt):
    """y_j = sum_i r_ij x_i for most j (the rest of the y_j are free), and
    sometimes a random constraint on all of them besides."""
    F = alg.field
    xs = [Var("x%d" % i, s) for i, s in enumerate(src)]
    ys = [Var("y%d" % j, s) for j, s in enumerate(tgt)]
    eqs = []
    for y in ys:
        if rng.random() < 0.8:
            coeffs = [(y.name, RingElement.lazy(F, y.sort))]
            for x in xs:
                r = random_element(rng, alg, x.sort, y.sort)
                if not r.is_zero():
                    coeffs.append((x.name, r.neg()))
            eqs.append(Equation(y.sort, tuple(coeffs)))
    rho = PpFormula(alg, xs + ys, [], eqs)
    if rng.random() < 0.4:
        names = [v.name for v in rho.free_vars]
        extra = random_formula(rng, alg, free_sorts=src + tgt)
        rho = conj(rho, extra, identify=list(zip(names, [v.name for v in extra.free_vars])))
    return rho


def random_pp_map(rng, alg):
    verts = alg.quiver.vertices
    src = tuple(rng.choice(verts) for _ in range(rng.randrange(1, 3)))
    tgt = tuple(rng.choice(verts) for _ in range(rng.randrange(1, 3)))
    source, target = random_pair(rng, alg, src), random_pair(rng, alg, tgt)
    rho = random_formula(rng, alg, free_sorts=src + tgt) if rng.random() < 0.3 else \
        random_graph(rng, alg, src, tgt)
    return PpMap(source, target, rho)


def one_arrow_functor(pm):
    """The functor to A2 = (1 -a-> 2) with the map on its one arrow, marked
    validated so that `apply` meets maps that are not functional on M."""
    alg = pm.rho.algebra
    a2 = QuiverAlgebra("KA2", Quiver("A2", ("1", "2"), (Arrow("a", "1", "2"),)), alg.field)
    F = InterpretationFunctor("R", alg, a2, {"1": pm.source_pair, "2": pm.target_pair},
                              {"a": pm.rho})
    F._validated = True
    return F


def outcome(apply_, F, M):
    """The applied module's dims and maps, or the message of the refusal."""
    try:
        N = apply_(F, M)
    except InducedMapUndefined as e:
        return str(e)
    return N.dims, N.maps


def draw_case(field, seed):
    rng = random.Random(seed)
    alg = rng.choice(random_algebra_pool(field))
    pm = random_pp_map(rng, alg)
    return pm, [random_module(rng, alg) for _ in range(3)]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_graph_test_matches_the_formula_route(field, seed):
    pm, modules = draw_case(field, seed)
    assert check_pp_map(pm, modules) == oracle.check_pp_map(pm, modules)
    F = one_arrow_functor(pm)
    for M in modules:
        assert outcome(apply, F, M) == outcome(oracle.apply, F, M)
        for f in (pm.rho, pm.source_pair.top, pm.source_pair.bottom):
            assert _eval_formula(f, M) == oracle.eval_by_blocks(f, M)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_random_maps_fail_each_condition(field):
    # the same generator over seeds 0-59 draws maps that break each condition
    seen, verdicts = set(), set()
    for seed in range(60):
        pm, modules = draw_case(field, seed)
        verdicts.add(oracle.check_pp_map(pm, modules))
        F = one_arrow_functor(pm)
        for M in modules:
            got = outcome(oracle.apply, F, M)
            seen.add(got.split()[2] if isinstance(got, str) else "defined")
    assert verdicts == {True, False}
    assert seen == {"defined", "not", "leaves", "does"}

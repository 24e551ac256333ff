import itertools
import random

import pytest

from ppcat.errors import NotAdmissible, UncertifiedPair
from ppcat.linalg import Matrix
from ppcat.ppform import Equation, PpFormula, PpMap, PpPair, Var
from ppcat.ppeval import (
    certify_pair, check_pp_map, definable_membership, eval_formula, eval_pair,
    free_realization, pp_implies, projective_rep,
)
from ppcat.quiver import RingElement
from ppcat.rep import Representation, are_isomorphic, direct_sum, hom_space
from ppcat.scalars import QQ, PrimeField

from fixtures import (
    a2_algebra, a2_p1, a2_p2, a2_s1, jordan_module, loop_algebra, mat,
    multiplication_map_formula, realized_span, top_formula, zero_formula,
)
from test_ppform import ann_formula, div_formula

F2 = PrimeField(2)


def e_sort(alg, sort):
    """x = x with x of the given sort."""
    return top_formula(alg, (sort,))


def test_eval_annihilator_table():
    alg = a2_algebra()
    phi = ann_formula(alg)
    assert eval_formula(phi, a2_s1(alg)).dim == 1
    assert eval_formula(phi, a2_p1(alg)).dim == 0
    assert eval_formula(phi, a2_p2(alg)).dim == 0


def test_eval_divisibility_on_p2():
    alg = a2_algebra()
    f = div_formula(alg)
    assert eval_formula(f, a2_p2(alg)).dim == 0


def test_eval_pair_table():
    alg = a2_algebra()
    P1 = a2_p1(alg)
    e1 = PpPair(e_sort(alg, "1"), zero_formula(alg, ("1",)))
    e1 = certify_pair(e1)
    assert eval_pair(e1, P1) == 1
    t3 = PpPair(e_sort(alg, "2"), div_formula(alg))
    t3 = certify_pair(t3)
    assert eval_pair(t3, P1) == 0
    zero = Representation(alg, {"1": 0, "2": 0}, {})
    assert eval_pair(e1, zero) == 0
    assert eval_pair(t3, zero) == 0


def test_eval_pair_requires_certificate():
    alg = a2_algebra()
    p = PpPair(e_sort(alg, "1"), zero_formula(alg, ("1",)))
    with pytest.raises(UncertifiedPair):
        eval_pair(p, a2_p1(alg))


def test_projective_reps_a2():
    alg = a2_algebra()
    P1 = projective_rep(alg, "1")
    P2 = projective_rep(alg, "2")
    assert P1.dims == {"1": 1, "2": 1}
    assert P2.dims == {"1": 0, "2": 1}
    assert P1.maps["a"] == mat(QQ, [[1]])


def test_free_realization_annihilator_is_simple():
    alg = a2_algebra()
    fr = free_realization(ann_formula(alg))
    assert fr.module.dims == {"1": 1, "2": 0}
    assert eval_formula(fr.formula, fr.module).contains_tuple(fr.tuple_vectors)
    assert any(x != QQ.zero() for vec in fr.tuple_vectors for x in vec)


def test_free_realization_top_is_projective():
    alg = a2_algebra()
    fr = free_realization(e_sort(alg, "1"))
    assert fr.module.dims == {"1": 1, "2": 1}
    r = are_isomorphic(fr.module, a2_p1(alg))
    assert r.isomorphic


def test_free_realization_divisibility():
    alg = a2_algebra()
    fr = free_realization(div_formula(alg))
    assert fr.module.dims == {"1": 1, "2": 1}
    # tuple is the image of alpha: nonzero in the sort-2 component
    assert fr.tuple_vectors[0] != (QQ.zero(),)
    assert eval_formula(fr.formula, fr.module).contains_tuple(fr.tuple_vectors)


def all_a2_modules_f2(max1=2, max2=2):
    alg = a2_algebra(F2)
    out = []
    for d1 in range(max1 + 1):
        for d2 in range(max2 + 1):
            for bits in itertools.product(range(2), repeat=d1 * d2):
                m = Matrix(F2, d2, d1, tuple(bits))
                out.append(Representation(alg, {"1": d1, "2": d2}, {"a": m}))
    return alg, out


def test_free_realization_universality_brute_force():
    alg, mods = all_a2_modules_f2()
    formulas = [ann_formula(alg), div_formula(alg), e_sort(alg, "1"), e_sort(alg, "2")]
    for f in formulas:
        fr = free_realization(f)
        for M in mods[:20]:
            assert realized_span(fr, M).space == eval_formula(f, M).space


def test_pp_implies_examples():
    alg = a2_algebra()
    zero1 = zero_formula(alg, ("1",))
    ann = ann_formula(alg)
    assert pp_implies(zero1, ann).holds
    res = pp_implies(ann, zero1)
    assert not res.holds and res.exact
    # the counterexample is the free realization, which is the simple S1
    assert res.counterexample.dims == {"1": 1, "2": 0}
    assert pp_implies(e_sort(alg, "1"), e_sort(alg, "1")).holds


def test_pp_implies_needs_admissible_or_test_set():
    kt = loop_algebra()
    f = div_formula(kt, "t")
    g = top_formula(kt, ("v",))
    with pytest.raises(NotAdmissible):
        pp_implies(f, g)
    mods = [jordan_module(kt, [(2, 0)]), jordan_module(kt, [(1, 1)])]
    res = pp_implies(f, g, test_modules=mods)
    assert res.holds and not res.exact
    res = pp_implies(g, f, test_modules=mods)
    assert not res.holds


def test_exact_mode_agrees_with_complete_test_set():
    rng = random.Random(17)
    alg = a2_algebra(F2)
    indecs = [a2_p1(alg), a2_p2(alg), a2_s1(alg)]

    def random_formula():
        nvars = rng.randrange(1, 3)
        free = [Var("x%d" % i, rng.choice(("1", "2"))) for i in range(nvars)]
        nbound = rng.randrange(0, 2)
        bound = [Var("y%d" % i, rng.choice(("1", "2"))) for i in range(nbound)]
        eqs = []
        a = alg.arrow_element("a")
        for j in range(rng.randrange(0, 3)):
            target = rng.choice(("1", "2"))
            coeffs = []
            for v in free + bound:
                pick = rng.randrange(3)
                if pick == 0:
                    continue
                if v.sort == target and pick == 1:
                    coeffs.append((v.name, RingElement.lazy(F2, v.sort)))
                elif v.sort == "1" and target == "2":
                    coeffs.append((v.name, a))
            if coeffs:
                eqs.append(Equation(target, tuple(coeffs)))
        return PpFormula(alg, free, bound, eqs)

    checked = 0
    for _ in range(120):
        f, g = random_formula(), random_formula()
        if f.free_sorts != g.free_sorts:
            continue
        exact = pp_implies(f, g)
        brute = pp_implies(f, g, test_modules=indecs)
        assert exact.holds == brute.holds
        checked += 1
    assert checked > 20


def test_check_pp_map_multiplication_by_alpha():
    alg = a2_algebra()
    p1 = certify_pair(PpPair(e_sort(alg, "1"), zero_formula(alg, ("1",))))
    p2 = certify_pair(PpPair(e_sort(alg, "2"), zero_formula(alg, ("2",))))
    rho = multiplication_map_formula(alg, alg.arrow_element("a"))
    assert check_pp_map(PpMap(p1, p2, rho))


def test_check_pp_map_identity():
    alg = a2_algebra()
    p1 = certify_pair(PpPair(e_sort(alg, "1"), zero_formula(alg, ("1",))))
    from ppcat.ppform import identity_map_formula
    rho = identity_map_formula(alg, ("1",))
    assert check_pp_map(PpMap(p1, p1, rho))


def test_check_pp_map_not_functional():
    # y = x from the zero pair (x=x)/(x=x) into (y=y)/(T|y): total but not
    # functional on all modules, only on those where T acts invertibly
    kt = loop_algebra()
    mods = [jordan_module(kt, [(1, 0)]), jordan_module(kt, [(2, 0)])]
    zero_obj = PpPair(top_formula(kt, ("v",)), top_formula(kt, ("v",))).certify()
    tgt = PpPair(top_formula(kt, ("v",)), div_formula(kt, "t")).certify()
    from ppcat.ppform import identity_map_formula
    rho = identity_map_formula(kt, ("v",))
    assert not check_pp_map(PpMap(zero_obj, tgt, rho), test_modules=mods)


def test_definable_membership():
    alg = a2_algebra()
    q1 = certify_pair(PpPair(ann_formula(alg), zero_formula(alg, ("1",))))
    t3 = certify_pair(PpPair(e_sort(alg, "2"), div_formula(alg)))
    P1, S1 = a2_p1(alg), a2_s1(alg)
    assert definable_membership([q1, t3], P1)
    assert not definable_membership([q1, t3], S1)
    assert definable_membership([], S1)


def test_morphisms_preserve_solution_sets():
    rng = random.Random(23)
    alg, mods = all_a2_modules_f2(2, 2)
    formulas = [ann_formula(alg), div_formula(alg)]
    picked = rng.sample(mods, 12)
    for M in picked[:6]:
        for N in picked[6:]:
            homs = hom_space(M, N)
            for h in homs[:3]:
                for f in formulas:
                    sol = eval_formula(f, M)
                    target = eval_formula(f, N)
                    for vec in sol.space.basis_rows():
                        img = []
                        off = 0
                        for v in f.free_vars:
                            d = M.dims[v.sort]
                            img.extend(h.blocks[v.sort].apply(vec[off:off + d]))
                            off += d
                        assert target.space.contains_vector(tuple(img))


def test_additivity_in_direct_sums():
    alg = a2_algebra()
    f = div_formula(alg)
    P1, S1 = a2_p1(alg), a2_s1(alg)
    both = direct_sum([P1, S1])
    assert eval_formula(f, both).dim == eval_formula(f, P1).dim + eval_formula(f, S1).dim


def all_dual_number_modules(alg, cap=3):
    """All modules over K[e]/(e^2) with dim <= cap, up to isomorphism:
    direct sums of the regular module and the simple."""
    from ppcat.rep import direct_sum as dsum
    from fixtures import jordan_module
    out = []
    for r in range(cap // 2 + 1):
        for s in range(cap - 2 * r + 1):
            if r + s == 0:
                continue
            blocks = [(2, 0)] * r + [(1, 0)] * s
            out.append(jordan_module(alg, blocks))
    return out


def test_free_realization_universality_dual_numbers():
    # stresses the rewriting-backed projectives of a cyclic admissible algebra
    from fixtures import dual_numbers_algebra
    from randgen import random_formula
    alg = dual_numbers_algebra()
    mods = all_dual_number_modules(alg)
    rng = random.Random(33)
    done = 0
    while done < 25:
        f = random_formula(rng, alg)
        fr = free_realization(f)
        assert eval_formula(f, fr.module).contains_tuple(fr.tuple_vectors)
        for M in mods:
            assert realized_span(fr, M).space == eval_formula(f, M).space
        done += 1


def test_exact_implies_agrees_on_dual_numbers():
    from fixtures import dual_numbers_algebra, jordan_module
    from randgen import random_formula
    alg = dual_numbers_algebra()
    indecs = [jordan_module(alg, [(2, 0)]), jordan_module(alg, [(1, 0)])]
    rng = random.Random(34)
    done = 0
    while done < 50:
        f = random_formula(rng, alg)
        g = random_formula(rng, alg)
        if f.free_sorts != g.free_sorts:
            continue
        assert pp_implies(f, g).holds == pp_implies(f, g, test_modules=indecs).holds
        done += 1


def test_dual_involution_random():
    from randgen import random_algebra_pool, random_formula, random_module
    from ppcat.ppform import dual
    rng = random.Random(35)
    pool = random_algebra_pool(F2)
    for _ in range(40):
        alg = rng.choice(pool)
        f = random_formula(rng, alg)
        M = random_module(rng, alg)
        dd = dual(dual(f))
        assert eval_formula(dd, M).space == eval_formula(f, M).space


def test_sorted_subspace_closed_under_endomorphisms():
    alg = a2_algebra()
    M = direct_sum([a2_p1(alg), a2_s1(alg)])
    f = ann_formula(alg)
    sol = eval_formula(f, M)
    for h in hom_space(M, M):
        for vec in sol.space.basis_rows():
            img = h.blocks["1"].apply(vec)
            assert sol.space.contains_vector(img)

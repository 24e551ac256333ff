import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppcat.errors import NotSplitEndo, PpcatError
from ppcat.funcat import (
    FiniteAlgebra, SerreData, auslander_algebra, composition_support, fin_are_isomorphic, fin_hom,
    functor_eval, pp_functor_crosscheck, projective_row, quotient_skeleton,
    serre_from_generator, simple_module,
)
from ppcat.ppform import PpPair
from ppcat.ppeval import certify_pair
from ppcat.quiver import Arrow, Quiver, QuiverAlgebra, RingElement, make_path
from ppcat.rep import Representation, direct_sum
from ppcat.scalars import QQ, PrimeField

import algebra_oracle as oracle
from algebra_oracle import (
    basic_algebra_isomorphism, fin_is_indecomposable, quiver_algebra_to_finite,
)
from fixtures import (
    a2_algebra, a2_p1, a2_p2, a2_s1, a3_algebra, dual_numbers_algebra, jordan_module, rep,
    top_formula, zero_formula,
)
from serre_oracle import (
    minimal_cotorsion, qhom_compose, qhom_identity, quotient_hom, torsion_part,
)
from test_ppform import ann_formula, div_formula


@pytest.fixture(scope="module")
def a2_data():
    alg = a2_algebra()
    P1, P2, S1 = a2_p1(alg), a2_p2(alg), a2_s1(alg)
    data = auslander_algebra([P1, P2, S1])
    return alg, (P1, P2, S1), data


def five_functors(data):
    # rows e_P1 S, e_P2 S, e_S1 S and the two new simple tops
    return [projective_row(data, 0), projective_row(data, 1), projective_row(data, 2),
            simple_module(data, 0), simple_module(data, 1)]


def expected_auslander_path_algebra():
    q = Quiver("E", ("1", "2", "3"), (Arrow("pi", "2", "1"), Arrow("i", "3", "2")))
    rel = RingElement.from_path(QQ, make_path(q, ("i", "pi")))
    return QuiverAlgebra("SE", q, QQ, relations=(rel,))


def test_auslander_a2_shape(a2_data):
    _, _, data = a2_data
    S = data.algebra
    assert S.dim == 5
    assert len(S.idempotents) == 3
    assert S.radical().dim == 2
    B = quiver_algebra_to_finite(expected_auslander_path_algebra())
    assert basic_algebra_isomorphism(S, B) is not None


def test_auslander_single_simple():
    q = Quiver("Pt", ("1",), ())
    alg = QuiverAlgebra("K", q, QQ)
    K = rep(alg, {"1": 1}, {})
    data = auslander_algebra([K])
    assert data.algebra.dim == 1


def test_auslander_dual_numbers():
    alg = dual_numbers_algebra()
    R = jordan_module(alg, [(2, 0)])  # the regular module
    S = jordan_module(alg, [(1, 0)])
    data = auslander_algebra([R, S])
    # dims Hom: End(R)=2, Hom(R,S)=1, Hom(S,R)=1, End(S)=1
    assert data.algebra.dim == 5


def test_auslander_rejects_decomposable():
    alg = a2_algebra()
    both = direct_sum([a2_p1(alg), a2_p2(alg)])
    with pytest.raises(NotSplitEndo):
        auslander_algebra([both])


def test_functor_eval_table(a2_data):
    _, (P1, P2, S1), data = a2_data
    Q2, Q3, Q1, T2, T3 = five_functors(data)
    table = {
        "Q1": (Q1, (0, 0, 1)),
        "Q2": (Q2, (1, 0, 1)),
        "T2": (T2, (1, 0, 0)),
        "Q3": (Q3, (1, 1, 0)),
        "T3": (T3, (0, 1, 0)),
    }
    for name, (V, want) in table.items():
        got = tuple(functor_eval(V, X, data).dim for X in (P1, P2, S1))
        assert got == want, name


def test_functor_eval_zero_module(a2_data):
    alg, _, data = a2_data
    zero = Representation(alg, {"1": 0, "2": 0}, {})
    for V in five_functors(data):
        assert functor_eval(V, zero, data).dim == 0


def test_yoneda_shadow(a2_data):
    # each projective row evaluates to dim Hom(M_k, X)
    from ppcat.rep import hom_space
    alg, (P1, P2, S1), data = a2_data
    X = direct_sum([P1, S1])
    for k, M in enumerate(data.summands):
        assert functor_eval(projective_row(data, k), X, data).dim == \
            len(hom_space(M, X))


def a2_pairs(alg):
    e1 = top_formula(alg, ("1",))
    e2 = top_formula(alg, ("2",))
    z1 = zero_formula(alg, ("1",))
    z2 = zero_formula(alg, ("2",))
    ann = ann_formula(alg)
    div = div_formula(alg)
    return {
        "Q1": certify_pair(PpPair(ann, z1)),
        "Q2": certify_pair(PpPair(e1, z1)),
        "T2": certify_pair(PpPair(div, z2)),
        "Q3": certify_pair(PpPair(e2, z2)),
        "T3": certify_pair(PpPair(e2, div)),
    }


def test_pp_functor_crosscheck_all_lines(a2_data):
    alg, mods, data = a2_data
    Q2, Q3, Q1, T2, T3 = five_functors(data)
    pairs = a2_pairs(alg)
    for name, V in (("Q1", Q1), ("Q2", Q2), ("T2", T2), ("Q3", Q3), ("T3", T3)):
        assert pp_functor_crosscheck(pairs[name], V, data, mods), name


def test_pp_functor_crosscheck_detects_swap(a2_data):
    alg, mods, data = a2_data
    _, _, Q1, _, T3 = five_functors(data)
    pairs = a2_pairs(alg)
    assert not pp_functor_crosscheck(pairs["Q1"], T3, data, mods)


def test_serre_from_generator(a2_data):
    alg, (P1, P2, S1), data = a2_data
    five = five_functors(data)
    sigma = serre_from_generator(five, P1, data)
    # vanishing on P1: the row of S1 (supported at index 2) and the simple at P2
    assert sigma.simples == frozenset({1, 2})
    assert serre_from_generator(five, direct_sum([P1, P2, S1]), data).simples == frozenset()
    zero = Representation(alg, {"1": 0, "2": 0}, {})
    assert serre_from_generator(five, zero, data).simples == frozenset({0, 1, 2})


def test_quotient_hom_examples(a2_data):
    _, (P1, _, _), data = a2_data
    five = five_functors(data)
    sigma = serre_from_generator(five, P1, data)
    Q2, T2, Q1 = five[0], five[3], five[2]
    qh = quotient_hom(Q2, T2, sigma)
    assert len(qh.basis) == 1
    # the epi becomes invertible: compose with a quotient inverse both ways
    back = quotient_hom(T2, Q2, sigma)
    assert len(back.basis) == 1
    f, g = qh.basis[0], back.basis[0]
    gf = qhom_compose(back, g, qh, f)
    fg = qhom_compose(qh, f, back, g)
    id_q2 = qhom_identity(Q2, sigma)
    id_t2 = qhom_identity(T2, sigma)
    # scale g so the composite is the identity (1-dim hom spaces)
    F = QQ
    ratio = None
    for a, b in zip(gf.entries, id_q2.entries):
        if not F.is_zero(b):
            ratio = F.mul(a, F.inv(b))
    assert ratio is not None and not F.is_zero(ratio)
    g2 = g.scale(F.inv(ratio))
    assert qhom_compose(back, g2, qh, f) == id_q2
    assert qhom_compose(qh, f, back, g2) == id_t2
    # Q1 is killed, so homs out of it vanish in the quotient
    assert quotient_hom(Q1, Q2, sigma).basis == []


def test_quotient_identity(a2_data):
    _, (P1, _, _), data = a2_data
    five = five_functors(data)
    sigma = serre_from_generator(five, P1, data)
    for X in five:
        qh = quotient_hom(X, X, sigma)
        ident = qhom_identity(X, sigma)
        if qh.basis:
            # the identity image lies in the hom space span
            from ppcat.linalg import Subspace
            span = Subspace.from_vectors(QQ, ident.rows * ident.cols,
                                         [m.entries for m in qh.basis])
            assert span.contains_vector(ident.entries)


def test_quotient_skeleton_localization(a2_data):
    _, (P1, _, _), data = a2_data
    five = five_functors(data)
    sigma = serre_from_generator(five, P1, data)
    report = quotient_skeleton(five, sigma)
    assert report.certain
    assert sorted(len(c) for c in report.classes) == [3]
    assert sorted(report.discarded) == [2, 4]  # the S1-row and the P2-simple


def test_quotient_skeleton_trivial_sigmas(a2_data):
    _, _, data = a2_data
    five = five_functors(data)
    report = quotient_skeleton(five, SerreData(frozenset()))
    assert len(report.classes) == 5 and not report.discarded
    report = quotient_skeleton(five, SerreData(frozenset({0, 1, 2})))
    assert not report.classes and len(report.discarded) == 5


def test_torsion_and_minimal_fixpoints(a2_data):
    _, (P1, _, _), data = a2_data
    five = five_functors(data)
    sigma = serre_from_generator(five, P1, data)
    for X in five:
        t = torsion_part(X, sigma)
        quo, _ = X.quotient(t)
        assert torsion_part(quo, sigma).dim == 0
        m = minimal_cotorsion(X, sigma)
        assert minimal_cotorsion(oracle.restrict(X, m), sigma).dim == m.dim


def test_five_functors_pairwise_distinct(a2_data):
    _, _, data = a2_data
    five = five_functors(data)
    for i in range(5):
        assert fin_is_indecomposable(five[i])
        for j in range(i + 1, 5):
            iso, certain = fin_are_isomorphic(five[i], five[j])
            assert not iso and certain


def test_exact_sequence_shadow(a2_data):
    # 0 -> Q1 -> Q2 -> T2 -> 0: the projection's image in the quotient is the
    # isomorphism found above; its kernel functor Q1 dies
    _, (P1, _, _), data = a2_data
    five = five_functors(data)
    sigma = serre_from_generator(five, P1, data)
    Q2, T2 = five[0], five[3]
    epis = fin_hom(Q2, T2)
    assert len(epis) == 1
    epi = epis[0]
    # canonical quotient representative of the epi
    x_min = minimal_cotorsion(Q2, sigma)
    t = torsion_part(T2, sigma)
    assert t.dim == 0 and x_min.dim == Q2.dim
    # so the representative is the epi itself, and it is invertible mod sigma:
    qh = quotient_hom(Q2, T2, sigma)
    from ppcat.linalg import Subspace
    span = Subspace.from_vectors(QQ, epi.rows * epi.cols, [m.entries for m in qh.basis])
    assert span.contains_vector(epi.entries)


def test_composition_support(a2_data):
    _, _, data = a2_data
    five = five_functors(data)
    assert composition_support(five[0]) == {0, 2}  # Q2: top at P1, socle at S1
    assert composition_support(five[3]) == {0}


def test_quotient_composition_associative_and_unital(a2_data):
    _, (P1, _, _), data = a2_data
    five = five_functors(data)
    sigma = serre_from_generator(five, P1, data)
    survivors = [five[0], five[1], five[3]]
    qhoms = {}
    for X in survivors:
        for Y in survivors:
            qhoms[(id(X), id(Y))] = quotient_hom(X, Y, sigma)
    for X in survivors:
        for Y in survivors:
            fab = qhoms[(id(X), id(Y))]
            qxx = qhoms[(id(X), id(X))]
            idx = qhom_identity(X, sigma)
            for Z in survivors:
                fbc = qhoms[(id(Y), id(Z))]
                fac = qhoms[(id(X), id(Z))]
                qzz = qhoms[(id(Z), id(Z))]
                idz = qhom_identity(Z, sigma)
                for f in fab.basis:
                    for g in fbc.basis:
                        gf = qhom_compose(fbc, g, fab, f)
                        # unit laws on both sides
                        assert qhom_compose(qzz, idz, fac, gf) == gf
                        assert qhom_compose(fac, gf, qxx, idx) == gf
                        # associativity against every third leg
                        for W in survivors:
                            fcd = qhoms[(id(Z), id(W))]
                            fbd = qhoms[(id(Y), id(W))]
                            fad = qhoms[(id(X), id(W))]
                            for h in fcd.basis:
                                hg = qhom_compose(fcd, h, fbc, g)
                                lhs = qhom_compose(fbd, hg, fab, f)
                                rhs = qhom_compose(fcd, h, fac, gf)
                                assert lhs == rhs


def _two_dim_algebra(square_of_second):
    """The algebra with basis (1, x), 1 the only idempotent, and x * x given
    in coordinates over (1, x)."""
    one, x = (QQ.one(), QQ.zero()), (QQ.zero(), QQ.one())
    table = [[one, x], [x, tuple(QQ.from_int(c) for c in square_of_second)]]
    return oracle.algebra(QQ, ("1", "x"), table, [one])


def test_corner_check_rejects_split_semisimple_corner():
    # K x K with x = (1, 0): x * x = x, so the corner of the unit is not local
    with pytest.raises(NotSplitEndo):
        _two_dim_algebra((0, 1))


def test_corner_check_rejects_nonsplit_field_corner():
    # Q(i) with x = i: x * x = -1, a local corner whose residue field is not Q
    with pytest.raises(NotSplitEndo):
        _two_dim_algebra((-1, 0))


def test_corner_check_accepts_dual_numbers():
    # K[e]/e^2 with x = e: local, residue field Q, radical spanned by e
    S = _two_dim_algebra((0, 0))
    assert S.dim == 2
    assert S.radical().basis_rows() == [(QQ.zero(), QQ.one())]


def test_an_algebra_built_unchecked_reads_its_radical_off_its_idempotents():
    # the dual numbers in the sparse form: 1 * 1 = 1, 1 * x = x * 1 = x
    constants = {(0, 0): [(0, 1)], (0, 1): [(1, 1)], (1, 0): [(1, 1)]}
    S = FiniteAlgebra(QQ, ("1", "x"), constants, [0])
    assert S.radical().basis_rows() == [(QQ.zero(), QQ.one())]
    checked = oracle.algebra(QQ, S.labels, constants, oracle.idempotent_vectors(S))
    assert checked.radical() == S.radical()


# -- the sparse associativity check against a dense oracle -------------------


def _dense_associative(F, table):
    """(b_i b_j) b_k == b_i (b_j b_k) for all triples, from the full table."""
    n = len(table)

    def combine(coeffs, rows):
        out = [F.zero()] * n
        for c, row in zip(coeffs, rows):
            out = [F.add(x, F.mul(c, y)) for x, y in zip(out, row)]
        return out

    return all(combine(table[i][j], [table[m][k] for m in range(n)])
               == combine(table[j][k], [table[i][m] for m in range(n)])
               for i in range(n) for j in range(n) for k in range(n))


def _path_algebra_parts(field):
    A = quiver_algebra_to_finite(a3_algebra(field))
    return A, [list(map(list, row)) for row in oracle.table(A)]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.sampled_from([QQ, PrimeField(3), PrimeField(32003)]), st.data())
def test_one_entry_perturbation_is_caught_as_the_dense_check_would(F, data):
    A, table = _path_algebra_parts(F)
    n = A.dim
    i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    delta = F.from_int(data.draw(st.integers(1, 2)))
    table[i][j][k] = F.add(table[i][j][k], delta)
    if _dense_associative(F, table):
        try:
            oracle.algebra(F, A.labels, table, oracle.idempotent_vectors(A))
        except PpcatError as exc:
            assert "not associative" not in str(exc)
    else:
        with pytest.raises(PpcatError, match="not associative"):
            oracle.algebra(F, A.labels, table, oracle.idempotent_vectors(A))


def test_perturbed_product_of_arrows_is_not_associative():
    A, table = _path_algebra_parts(QQ)
    e1, a, b = A.labels.index("id(1)"), A.labels.index("a"), A.labels.index("b")
    table[e1][a][b] = QQ.one()  # e1 * a picks up a spurious b
    assert not _dense_associative(QQ, table)
    with pytest.raises(PpcatError, match="not associative"):
        oracle.algebra(QQ, A.labels, table, oracle.idempotent_vectors(A))


def test_non_orthogonal_idempotents_are_rejected():
    A, table = _path_algebra_parts(QQ)
    e = [oracle.basis_vector(A, A.labels.index(name)) for name in ("id(1)", "id(2)", "id(3)")]
    a = oracle.basis_vector(A, A.labels.index("a"))
    plus = tuple(QQ.add(x, y) for x, y in zip(e[0], a))
    minus = tuple(QQ.sub(x, y) for x, y in zip(e[2], a))
    # conjugating by 1 + a gives orthogonal idempotents again, which pass
    # every axiom and are refused only for not being basis vectors
    with pytest.raises(PpcatError, match="not a basis vector"):
        oracle.algebra(QQ, A.labels, table,
                       [plus, tuple(QQ.sub(x, y) for x, y in zip(e[1], a)), e[2]])
    # e1 + a, e2, e3 - a sum to 1, but (e1 + a) e2 = a
    with pytest.raises(PpcatError, match="not orthogonal"):
        oracle.algebra(QQ, A.labels, table, [plus, e[1], minus])


# -- the full A4 Auslander algebra over F_32003 ------------------------------


def test_full_a4_auslander_algebra_follows_the_interval_rule():
    F = PrimeField(32003)
    n = 4
    verts = tuple(str(v) for v in range(1, n + 1))
    alg = QuiverAlgebra("A4", Quiver("A4", verts, tuple(
        Arrow("a%d" % v, str(v), str(v + 1)) for v in range(1, n))), F)
    intervals = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    mods = [rep(alg, {str(v): int(i <= v <= j) for v in range(1, n + 1)},
                {"a%d" % v: [[1]] for v in range(i, j)}) for i, j in intervals]
    data = auslander_algebra(mods)
    S = data.algebra
    # Hom([i,j], [k,l]) is one-dimensional when k <= i <= l <= j, else zero
    homs = [[int(k <= i <= l <= j) for (k, l) in intervals] for (i, j) in intervals]
    assert S.dim == 35 == sum(map(sum, homs))
    assert S.radical().dim == 25
    assert [projective_row(data, k).dim for k in range(len(mods))] == list(map(sum, homs))
    assert [simple_module(data, k).dim for k in range(len(mods))] == [1] * len(mods)

import random

import pytest

from ppcat.errors import NotAdmissible, SortMismatch
from ppcat.quiver import (
    Arrow, Path, Quiver, QuiverAlgebra, RingElement, compose, make_path, reverse_element,
)
from ppcat.scalars import QQ

from fixtures import (
    a1tilde_algebra, a2_algebra, a3_algebra, dual_numbers_algebra, loop_algebra, path_element,
)


def test_compose_a3_chain():
    alg = a3_algebra()
    a, b = alg.arrow_element("a"), alg.arrow_element("b")
    ba = compose(b, a)
    assert list(ba.terms) == [Path("1", "3", ("a", "b"))]
    assert ba.source == "1" and ba.target == "3"


def test_compose_lazy_absorbed():
    alg = a2_algebra()
    a = alg.arrow_element("a")
    e2 = alg.lazy("2")
    e1 = alg.lazy("1")
    assert compose(e2, a) == a
    assert compose(a, e1) == a


def test_compose_sort_mismatch():
    alg = a2_algebra()
    a = alg.arrow_element("a")
    e2 = alg.lazy("2")
    with pytest.raises(SortMismatch):
        compose(a, e2)


def test_hom_basis_a3():
    alg = a3_algebra()
    assert alg.hom_basis("1", "3") == (Path("1", "3", ("a", "b")),)
    assert alg.hom_basis("2", "1") == ()
    assert alg.total_dim() == 6


def test_hom_basis_a1tilde():
    alg = a1tilde_algebra()
    assert len(alg.hom_basis("1", "2")) == 2
    assert alg.hom_basis("2", "1") == ()


def test_hom_basis_a2():
    alg = a2_algebra()
    assert alg.hom_basis("2", "1") == ()
    assert alg.total_dim() == 3


def test_loop_not_admissible():
    alg = loop_algebra()
    assert not alg.admissible
    with pytest.raises(NotAdmissible):
        alg.hom_basis("v", "v")


def test_dual_numbers_admissible():
    alg = dual_numbers_algebra()
    assert alg.admissible
    assert len(alg.hom_basis("v", "v")) == 2  # id and t
    assert alg.reduce(path_element(alg, ("t", "t"))).is_zero()


def test_auslander_style_monomial_relation():
    q = Quiver("E", ("1", "2", "3"), (Arrow("pi", "2", "1"), Arrow("i", "3", "2")))
    rel = RingElement.from_path(QQ, make_path(q, ("i", "pi")))
    alg = QuiverAlgebra("S", q, QQ, relations=(rel,))
    assert alg.admissible
    assert alg.total_dim() == 5
    assert alg.hom_basis("3", "1") == ()


def test_compose_bilinear_associative():
    rng = random.Random(5)
    alg = a3_algebra()
    elems = {
        ("1", "2"): alg.arrow_element("a"),
        ("2", "3"): alg.arrow_element("b"),
        ("1", "1"): alg.lazy("1"),
        ("2", "2"): alg.lazy("2"),
        ("3", "3"): alg.lazy("3"),
        ("1", "3"): compose(alg.arrow_element("b"), alg.arrow_element("a")),
    }

    def rand_elem(s, t):
        base = elems.get((s, t))
        if base is None:
            return RingElement(QQ, s, t, {})
        return base.scale(QQ.from_int(rng.randrange(-3, 4)))

    verts = ["1", "2", "3"]
    for _ in range(40):
        s, u, v, t = (rng.choice(verts) for _ in range(4))
        if not (s <= u <= v <= t):
            continue
        f = rand_elem(v, t)
        g = rand_elem(u, v)
        h = rand_elem(s, u)
        assert compose(compose(f, g), h) == compose(f, compose(g, h))
        k = rand_elem(u, v)
        assert compose(f, g.add(k)) == compose(f, g).add(compose(f, k))


def test_opposite_round_trip():
    alg = a3_algebra()
    op = alg.opposite()
    assert op.quiver.arrow("a").source == "2"
    assert op.opposite() == alg
    ba = path_element(alg, ("a", "b"))
    rev = reverse_element(ba, QQ)
    assert list(rev.terms)[0].arrows == ("b", "a")

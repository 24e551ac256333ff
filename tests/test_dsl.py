import random

import pytest

from ppcat.dsl import Workspace, emit_report, load_builtin, parse
from ppcat.errors import ParseError, SortError, UnresolvedReference
from ppcat.quiver import Path
from ppcat.scalars import QQ, PrimeField

from dsl_oracle import print_workspace


def test_parse_quiver():
    ws = parse("quiver A2 { vertices 1 2; arrow a: 1 -> 2; }")
    q = ws.get("quiver", "A2")
    assert q.vertices == ("1", "2")
    assert q.arrows[0].source == "1" and q.arrows[0].target == "2"


def test_parse_pp_formula():
    ws = parse("""
        quiver A2 { vertices 1 2; arrow a: 1 -> 2; }
        algebra KA2 { quiver A2; }
        pp phi over KA2 { free x:1; eq 2: a*x = 0; }
    """)
    phi = ws.get("pp", "phi")
    assert phi.free_sorts == ("1",)
    (eq,) = phi.equations
    assert eq.target == "2"
    ((var, elem),) = eq.coeffs
    assert var == "x"
    assert list(elem.terms)[0].arrows == ("a",)


def test_parse_sort_clash():
    with pytest.raises(SortError):
        parse("""
            quiver A2 { vertices 1 2; arrow a: 1 -> 2; }
            algebra KA2 { quiver A2; }
            pp bad over KA2 { free x:2; eq 2: a*x = 0; }
        """)


def test_parse_path_composition_order():
    ws = parse("""
        quiver A3 { vertices 1 2 3; arrow a: 1 -> 2; arrow b: 2 -> 3; }
        algebra KA3 { quiver A3; }
        pp phi over KA3 { free x:1; eq 3: b.a*x = 0; }
    """)
    phi = ws.get("pp", "phi")
    ((_, elem),) = phi.equations[0].coeffs
    (p,) = elem.terms
    assert p == Path("1", "3", ("a", "b"))  # b.a read right to left


def test_parse_field_header():
    ws = parse("field F 5;\nquiver Q1 { vertices 1; }")
    assert ws.field == PrimeField(5)
    ws = parse("quiver Q1 { vertices 1; }")
    assert ws.field == QQ


def test_unresolved_reference():
    with pytest.raises(UnresolvedReference):
        parse("algebra A { quiver Nope; }")


def test_builtin_fixtures_parse():
    for name in ("a2", "a3", "a1tilde", "d4tilde", "morita2"):
        ws = load_builtin(name)
        assert ws.decls


def test_round_trip_builtins():
    for name in ("a2", "a3", "a1tilde", "d4tilde", "morita2"):
        ws = load_builtin(name)
        text = print_workspace(ws)
        ws2 = parse(text)
        assert len(ws.decls) == len(ws2.decls)
        for d1, d2 in zip(ws.decls, ws2.decls):
            assert d1.kind == d2.kind and d1.name == d2.name
            if d1.kind == "interp":
                assert d1.obj.vertex_sorts == d2.obj.vertex_sorts
                assert d1.obj.arrow_maps == d2.obj.arrow_maps
            elif d1.kind == "fixture":
                assert d1.refs == d2.refs
            else:
                assert d1.obj == d2.obj, (d1.kind, d1.name)


BROKEN = [
    ("quiver { vertices 1; }", 1, 8),
    ("quiver A2 vertices 1; }", 1, 12),
    ("quiver A2 { vertices; }", 1, 21),
    ("quiver A2 { vertices 1 2; arrow a 1 -> 2; }", 1, 35),
    ("quiver A2 { vertices 1 2; arrow a: 1 - 2; }", 1, 40),
    ("quiver A2 { vertices 1 2; arrow a: 1 -> ; }", 1, 41),
    ("quiver A2 { vertices 1 2; arrow a: 1 -> 2 }", 1, 43),
    ("algebra A {}", 1, 12),
    ("quiver Q1 { vertices 1; }\nalgebra A { quiver Q1 }", 2, 23),
    ("quiver Q1 { vertices 1; }\nmodule M over A {}", 2, 1),
    ("quiver Q1 { vertices 1; }\nalgebra A { quiver Q1; }\nmodule M over A { dim 1 = ; }", 3, 27),
    ("quiver Q1 { vertices 1; }\nalgebra A { quiver Q1; }\nmodule M over A { dim 1 = 1; map }", 3, 34),
    ("quiver Q1 { vertices 1; }\nalgebra A { quiver Q1; }\npp f over A { free x; }", 3, 21),
    ("quiver Q1 { vertices 1; }\nalgebra A { quiver Q1; }\npp f over A { free x:1; eq 1: = 0; }", 3, 31),
    ("quiver Q1 { vertices 1; }\nalgebra A { quiver Q1; }\npp f over A { free x:1; eq 1: x = 1; }", 3, 35),
    ("quiver Q1 { vertices 1; }\nalgebra A { quiver Q1; }\npp f over A { free x:1; eq 1: x + = 0; }", 3, 35),
    ("field R;", 1, 7),
    ("field F;", 1, 8),
    ("pair p over A { top x; }", 1, 13),
    ("quiver Q1 { vertices 1; }\nalgebra A { quiver Q1; }\ninterp I from A to A { mode maybe; }", 3, 29),
]

# The same entry twice in one declaration: a ParseError at the second name.
INTERP_HEAD = (
    "quiver Pt { vertices 1; }\nalgebra K { quiver Pt; }\n"
    "quiver Q { vertices 1 2; arrow u: 1 -> 2; }\nalgebra B { quiver Q; }\n"
    "pp all over K { free x:1; }\npp none over K { free x:1; eq 1: x = 0; }\n"
    "pair p over K { top all; bottom none; }\n"
    "pp ident over K { free x:1, y:1; eq 1: y - x = 0; }\n")
REPEATED = [
    ("quiver Q1 { vertices 1; }\nalgebra A { quiver Q1; }\n"
     "module M over A { dim 1 = 1; dim 1 = 2; }", 3, 34,
     "a new vertex name (duplicate dim)", "1"),
    ("quiver Q { vertices 1 2; arrow a: 1 -> 2; }\nalgebra A { quiver Q; }\n"
     "module M over A { dim 1 = 1; dim 2 = 1; map a = [[1]]; map a = [[2]]; }", 3, 60,
     "a new arrow name (duplicate map)", "a"),
    (INTERP_HEAD + "interp I from K to B { mode exact; sort 1 = p; sort 1 = p; sort 2 = p; "
     "arrow u = ident; }", 9, 53, "a new vertex name (duplicate sort)", "1"),
    (INTERP_HEAD + "interp I from K to B { mode exact; sort 1 = p; sort 2 = p; "
     "arrow u = ident; arrow u = ident; }", 9, 83, "a new arrow name (duplicate arrow)", "u"),
    ("quiver Q1 { vertices 1; }\nalgebra A { quiver Q1; nilpotent 2; nilpotent 5; }", 2, 37,
     "'relation' or '}' (duplicate nilpotent)", "nilpotent"),
]
BROKEN += [(text, line, col) for text, line, col, _, _ in REPEATED]

# an interp arrow entry that names no arrow of the target quiver
UNKNOWN_ARROW = (INTERP_HEAD + "interp I from K to B { mode exact; sort 1 = p; sort 2 = p; "
                 "arrow u = ident; arrow zz = ident; }")
BROKEN.append((UNKNOWN_ARROW, 9, 83))


def test_broken_corpus_positions():
    for text, line, col in BROKEN:
        with pytest.raises((ParseError, UnresolvedReference, SortError)) as exc:
            parse(text)
        if isinstance(exc.value, ParseError):
            assert exc.value.line == line, text
            # the reported column lies inside the offending token
            assert exc.value.col >= 1
            lines = text.split("\n")
            assert exc.value.col <= len(lines[exc.value.line - 1]) + 1


@pytest.mark.parametrize("text, line, col, expected, found", REPEATED)
def test_repeated_entries_are_refused(text, line, col, expected, found):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == "%d:%d: expected %s, found %r" % (line, col, expected, found)


def test_unknown_interp_arrow_is_refused():
    with pytest.raises(ParseError) as exc:
        parse(UNKNOWN_ARROW)
    assert str(exc.value) == "9:83: expected an arrow of the quiver, found 'zz'"


def test_interp_head_parses_without_a_repeat():
    ws = parse(INTERP_HEAD + "interp I from K to B { mode exact; sort 1 = p; sort 2 = p; "
               "arrow u = ident; }")
    assert ws.get("interp", "I").name == "I"


def test_error_points_into_token():
    try:
        parse("quiver A2 { vertices 1 2; arrow a: 1 - 2; }")
    except ParseError as e:
        assert (e.line, e.col) == (1, 38)
    else:
        raise AssertionError("expected a parse error")


# -- fuzzing ---------------------------------------------------------------


def random_workspace(rng, field):
    ws = Workspace()
    ws.field = field
    ws.field_declared = True
    src = ["field %s;" % ("Q" if field.kind == "Q" else "F %d" % field.p)]
    nverts = rng.randrange(1, 4)
    verts = [str(i + 1) for i in range(nverts)]
    arrows = []
    for k in range(rng.randrange(0, 4)):
        s, t = rng.choice(verts), rng.choice(verts)
        if s != t:  # keep the algebra admissible: no loops
            arrows.append(("ar%d" % k, s, t))
    src.append("quiver Q { vertices %s; %s }"
               % (" ".join(verts),
                  " ".join("arrow %s: %s -> %s;" % a for a in arrows)))
    src.append("algebra A { quiver Q; }")
    names = []
    for m in range(rng.randrange(1, 3)):
        dims = {v: rng.randrange(0, 3) for v in verts}
        maps = []
        for anm, s, t in arrows:
            if dims[s] and dims[t] and rng.random() < 0.7:
                rows = ", ".join(
                    "[" + ", ".join(_scalar_src(rng, field) for _ in range(dims[s])) + "]"
                    for _ in range(dims[t]))
                maps.append("map %s = [%s];" % (anm, rows))
        src.append("module M%d over A { %s %s }"
                   % (m, " ".join("dim %s = %d;" % (v, d) for v, d in dims.items()),
                      " ".join(maps)))
        names.append("M%d" % m)
    for f in range(rng.randrange(1, 3)):
        nfree = rng.randrange(1, 3)
        nbound = rng.randrange(0, 2)
        fv = ["x%d:%s" % (i, rng.choice(verts)) for i in range(nfree)]
        bv = ["y%d:%s" % (i, rng.choice(verts)) for i in range(nbound)]
        all_vars = [v.split(":") for v in fv + bv]
        eqs = []
        for _ in range(rng.randrange(0, 3)):
            target = rng.choice(verts)
            terms = []
            for vn, vs in all_vars:
                if vs == target and rng.random() < 0.6:
                    terms.append("%s*%s" % (_scalar_src(rng, field, nonzero=True), vn))
                else:
                    chains = [a for a, s, t in arrows if s == vs and t == target]
                    if chains and rng.random() < 0.6:
                        terms.append("%s*%s" % (rng.choice(chains), vn))
            if terms:
                eqs.append("eq %s: %s = 0;" % (target, " + ".join(terms)))
        bound_decl = (" bound %s;" % ", ".join(bv)) if bv else ""
        src.append("pp f%d over A { free %s;%s %s }"
                   % (f, ", ".join(fv), bound_decl, " ".join(eqs)))
    if names:
        src.append("fixture fix { modules %s; }" % ", ".join(names))
    return "\n".join(src)


def _scalar_src(rng, field, nonzero=False):
    if field.kind == "Q":
        num = rng.randrange(1 if nonzero else -3, 4) or 1
        if rng.random() < 0.3:
            return "%d/%d" % (num, rng.randrange(1, 4))
        return str(num)
    return str(rng.randrange(1 if nonzero else 0, field.p))


@pytest.mark.parametrize("seed", range(6))
def test_fuzz_round_trip(seed):
    rng = random.Random(seed)
    field = QQ if seed % 2 == 0 else PrimeField(5)
    for _ in range(25):
        text = random_workspace(rng, field)
        ws = parse(text)
        printed = print_workspace(ws)
        ws2 = parse(printed)
        printed2 = print_workspace(ws2)
        assert printed == printed2
        for d1, d2 in zip(ws.decls, ws2.decls):
            if d1.kind not in ("fixture", "interp"):
                assert d1.obj == d2.obj, printed


def test_emit_report_schema():
    out = emit_report("eval", {"formula": "phi", "module": "S1"},
                      {"dims": {"1": 1}, "verdict": True}, seed=0)
    import json
    doc = json.loads(out)
    assert doc["schema"] == "ppcat_report_v1"
    assert doc["dims"] == {"1": "1"}
    assert doc["seed"] == "0"
    assert doc["verdict"] is True


def test_emit_report_flags():
    import json
    out = emit_report("implies", {}, {"holds": False}, seed=3,
                      relative_to_test_set=True)
    doc = json.loads(out)
    assert doc["relative_to_test_set"] is True
    assert doc["holds"] is False

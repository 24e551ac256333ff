"""The .ppc text format: recursive-descent parser, canonical printer, reports.

A file is a sequence of named declarations (quiver, algebra, module,
rightmodule, pp, pair, interp, fixture) referencing earlier ones.  Printing a
parsed workspace and reparsing it reproduces the same objects; JSON reports
serialize every number as a decimal string so exact values survive.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

from .errors import ParseError, SortError, UnresolvedReference
from .interp import InterpretationFunctor
from .linalg import Matrix
from .ppform import Equation, PpFormula, PpPair, Var
from .quiver import Arrow, Path, Quiver, QuiverAlgebra, RingElement, make_path
from .rep import Representation
from .scalars import QQ, PrimeField

# The largest dimension a module may declare at a vertex.  Every arrow map is
# a dense matrix, so a larger one could not be built; the parser rejects it
# before anything is allocated.
MAX_DIM = 4096

KINDS = ("quiver", "algebra", "module", "rightmodule", "pp", "pair", "interp", "fixture")

KEYWORDS = {
    "field", "quiver", "vertices", "arrow", "algebra", "relation", "nilpotent",
    "module", "rightmodule", "over", "dim", "map", "pp", "free", "bound", "eq",
    "pair", "top", "bottom", "interp", "from", "to", "mode", "exact", "testset",
    "sort", "fixture", "modules", "id",
}


@dataclass
class Decl:
    kind: str
    name: str
    obj: object
    refs: dict = dc_field(default_factory=dict)


class Workspace:
    def __init__(self):
        self.field = QQ
        self.field_declared = False
        self.decls = []
        self.by_kind = {k: {} for k in KINDS}

    def add(self, decl: Decl):
        if decl.name in self.by_kind[decl.kind]:
            raise UnresolvedReference("duplicate %s named %s" % (decl.kind, decl.name))
        self.by_kind[decl.kind][decl.name] = decl
        self.decls.append(decl)

    def get(self, kind, name):
        d = self.by_kind[kind].get(name)
        if d is None:
            raise UnresolvedReference("no %s named %r" % (kind, name))
        return d.obj

    def any_module(self, name):
        for kind in ("module", "rightmodule"):
            if name in self.by_kind[kind]:
                return self.by_kind[kind][name].obj
        raise UnresolvedReference("no module named %r" % name)


# -- tokenizer -------------------------------------------------------------


PUNCT = ("->", "{", "}", "(", ")", "[", "]", ";", ":", ",", "*", "+", "-", "/", ".", "=")


@dataclass
class Token:
    kind: str   # name, int, punct, eof
    text: str
    line: int
    col: int


# decimal digits only: str.isdigit also accepts superscripts, which int() refuses
DIGITS = frozenset("0123456789")


def tokenize(text):
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c in DIGITS:
            j = i
            while j < n and text[j] in DIGITS:
                j += 1
            toks.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if text.startswith("->", i):
            toks.append(Token("punct", "->", line, col))
            i += 2
            col += 2
            continue
        if c in "{}()[];:,*+-/.=":
            toks.append(Token("punct", c, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(line, col, "a token", c)
    toks.append(Token("eof", "", line, col))
    return toks


class Parser:
    def __init__(self, text, workspace=None):
        self.toks = tokenize(text)
        self.pos = 0
        self.ws = workspace if workspace is not None else Workspace()

    # -- token plumbing --

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, expected):
        t = self.peek()
        raise ParseError(t.line, t.col, expected, t.text or "end of input")

    def expect(self, text):
        t = self.peek()
        if (t.kind == "punct" or t.kind == "name") and t.text == text:
            return self.next()
        self.fail("%r" % text)

    def accept(self, text):
        t = self.peek()
        if t.kind in ("punct", "name") and t.text == text:
            self.next()
            return True
        return False

    def name(self, what="a name"):
        t = self.peek()
        if t.kind == "name" and t.text not in KEYWORDS:
            return self.next().text
        self.fail(what)

    def vertex_name(self):
        t = self.peek()
        if t.kind == "int":
            return self.next().text
        return self.name("a vertex name")

    def integer(self):
        t = self.peek()
        if t.kind == "int":
            return int(self.next().text)
        self.fail("an integer")

    def vertex_checked(self, vertices):
        t = self.peek()
        v = self.vertex_name()
        if v not in vertices:
            raise ParseError(t.line, t.col, "a vertex of the quiver", v)
        return v

    # -- scalars --

    def scalar(self):
        F = self.ws.field
        neg = self.accept("-")
        num = self.integer()
        if self.accept("/"):
            t = self.peek()
            den = self.integer()
            if F.is_zero(F.from_int(den)):
                raise ParseError(t.line, t.col, "a denominator nonzero in %s" % F, t.text)
            val = F.from_fraction(num, den)
        else:
            val = F.from_int(num)
        return F.neg(val) if neg else val

    # -- entry point --

    def parse_file(self):
        if self.peek().kind == "name" and self.peek().text == "field":
            self.next()
            t = self.peek()
            if t.kind == "name" and t.text == "Q":
                self.next()
                self.ws.field = QQ
            elif t.kind == "name" and t.text == "F":
                self.next()
                self.ws.field = PrimeField(self.integer())
            else:
                self.fail("'Q' or 'F <prime>'")
            self.ws.field_declared = True
            self.expect(";")
        while self.peek().kind != "eof":
            self.declaration()
        return self.ws

    def declaration(self):
        t = self.peek()
        if t.kind != "name":
            self.fail("a declaration keyword")
        handler = {
            "quiver": self.quiver_decl,
            "algebra": self.algebra_decl,
            "module": lambda: self.module_decl(False),
            "rightmodule": lambda: self.module_decl(True),
            "pp": self.pp_decl,
            "pair": self.pair_decl,
            "interp": self.interp_decl,
            "fixture": self.fixture_decl,
        }.get(t.text)
        if handler is None:
            self.fail("a declaration keyword")
        handler()

    # -- declarations --

    def quiver_decl(self):
        """A quiver; a repeated vertex or arrow name, or an arrow endpoint that
        is not a declared vertex, is a ParseError at that name."""
        self.expect("quiver")
        name = self.name()
        self.expect("{")
        self.expect("vertices")
        verts = []
        while True:
            t = self.peek()
            v = self.vertex_name()
            if v in verts:
                raise ParseError(t.line, t.col, "a new vertex name (duplicate vertex)", v)
            verts.append(v)
            if self.peek().kind not in ("name", "int") or self.peek().text == "arrow":
                break
        self.expect(";")
        arrows = []
        while self.accept("arrow"):
            t = self.peek()
            anm = self.name("an arrow name")
            if any(a.name == anm for a in arrows):
                raise ParseError(t.line, t.col, "a new arrow name (duplicate arrow)", anm)
            self.expect(":")
            s = self.vertex_checked(verts)
            self.expect("->")
            tgt = self.vertex_checked(verts)
            self.expect(";")
            arrows.append(Arrow(anm, s, tgt))
        self.expect("}")
        q = Quiver(name, tuple(verts), tuple(arrows))
        self.ws.add(Decl("quiver", name, q))

    def algebra_decl(self):
        self.expect("algebra")
        name = self.name()
        self.expect("{")
        self.expect("quiver")
        qname = self.name()
        quiver = self.ws.get("quiver", qname)
        self.expect(";")
        relations = []
        bound = None
        while True:
            if self.accept("relation"):
                relations.append(self.ring_expr(quiver))
                self.expect(";")
            elif self.accept("nilpotent"):
                bound = self.integer()
                self.expect(";")
            else:
                break
        self.expect("}")
        alg = QuiverAlgebra(name, quiver, self.ws.field, tuple(relations), bound)
        self.ws.add(Decl("algebra", name, alg, {"quiver": qname}))

    def module_decl(self, right):
        kind = "rightmodule" if right else "module"
        self.expect(kind)
        name = self.name()
        self.expect("over")
        aname = self.name()
        alg = self.ws.get("algebra", aname)
        self.expect("{")
        dims = {}
        while self.accept("dim"):
            v = self.vertex_name()
            if v not in alg.quiver.vertices:
                t = self.peek()
                raise SortError("%d:%d: %s is not a vertex of %s"
                                % (t.line, t.col, v, aname))
            self.expect("=")
            t = self.peek()
            dims[v] = self.integer()
            if dims[v] > MAX_DIM:
                raise ParseError(t.line, t.col, "a dimension of at most %d" % MAX_DIM, t.text)
            self.expect(";")
        maps = {}
        while self.accept("map"):
            t = self.peek()
            anm = self.name("an arrow name")
            try:
                arrow = alg.quiver.arrow(anm)
            except Exception:
                raise ParseError(t.line, t.col, "an arrow of the quiver", anm)
            self.expect("=")
            rows = self.matrix_literal()
            self.expect(";")
            if right:
                shape = (dims.get(arrow.source, 0), dims.get(arrow.target, 0))
            else:
                shape = (dims.get(arrow.target, 0), dims.get(arrow.source, 0))
            maps[anm] = self.rows_to_matrix(rows, shape)
        self.expect("}")
        target_alg = alg.opposite() if right else alg
        rep = Representation(target_alg, dims, maps)
        self.ws.add(Decl(kind, name, rep, {"algebra": aname}))

    def rows_to_matrix(self, rows, shape):
        r, c = shape
        if len(rows) != r or any(len(row) != c for row in rows):
            t = self.peek()
            raise SortError("%d:%d: matrix shape %dx%d expected"
                            % (t.line, t.col, r, c))
        return Matrix.from_rows(self.ws.field, rows) if r else \
            Matrix(self.ws.field, 0, c, ())

    def matrix_literal(self):
        self.expect("[")
        rows = []
        if not self.accept("]"):
            while True:
                rows.append(self.matrix_row())
                if not self.accept(","):
                    break
            self.expect("]")
        return rows

    def matrix_row(self):
        self.expect("[")
        out = []
        if not self.accept("]"):
            while True:
                out.append(self.scalar())
                if not self.accept(","):
                    break
            self.expect("]")
        return out

    # -- ring elements and paths --

    def path_atom(self, quiver):
        if self.accept("id"):
            self.expect("(")
            t = self.peek()
            v = self.vertex_name()
            if v not in quiver.vertices:
                raise ParseError(t.line, t.col, "a vertex of the quiver", v)
            self.expect(")")
            return Path.lazy(v)
        names = [self.name("an arrow name")]
        while self.accept("."):
            names.append(self.name("an arrow name"))
        # written right to left: a.b means "b first, then a"
        return make_path(quiver, tuple(reversed(names)))

    def ring_term(self, quiver):
        F = self.ws.field
        coeff = F.one()
        t = self.peek()
        if t.kind == "int" or (t.kind == "punct" and t.text == "-"):
            coeff = self.scalar()
            self.expect("*")
        p = self.path_atom(quiver)
        return p, coeff

    def ring_expr(self, quiver):
        F = self.ws.field
        terms = {}
        neg = self.accept("-")
        first = True
        src = tgt = None
        while True:
            p, c = self.ring_term(quiver)
            if neg:
                c = F.neg(c)
            if first:
                src, tgt = p.source, p.target
                first = False
            elif (p.source, p.target) != (src, tgt):
                t = self.peek()
                raise SortError("%d:%d: mixed sorts in ring element" % (t.line, t.col))
            terms[p] = F.add(terms.get(p, F.zero()), c)
            if self.accept("+"):
                neg = False
            elif self.accept("-"):
                neg = True
            else:
                break
        return RingElement(F, src, tgt, terms)

    # -- pp formulas --

    def pp_decl(self):
        self.expect("pp")
        name = self.name()
        self.expect("over")
        aname = self.name()
        alg = self.ws.get("algebra", aname)
        self.expect("{")
        free, bound = [], []
        if self.accept("free"):
            free = self.var_list(alg)
            self.expect(";")
        if self.accept("bound"):
            bound = self.var_list(alg)
            self.expect(";")
        declared = {v.name: v.sort for v in free + bound}
        eqs = []
        while self.accept("eq"):
            eq = self.equation(alg, declared)
            if eq is not None:
                eqs.append(eq)
        self.expect("}")
        f = PpFormula(alg, free, bound, eqs)
        self.ws.add(Decl("pp", name, f, {"algebra": aname}))

    def var_list(self, alg):
        out = []
        while True:
            vn = self.name("a variable name")
            self.expect(":")
            sort = self.vertex_checked(alg.quiver.vertices)
            out.append(Var(vn, sort))
            if not self.accept(","):
                break
        return out

    def equation(self, alg, declared):
        F = self.ws.field
        target = self.vertex_checked(alg.quiver.vertices)
        self.expect(":")
        coeffs = {}
        neg = self.accept("-")
        while True:
            var, elem = self.lin_term(alg, declared, target)
            if neg:
                elem = elem.neg()
            if var in coeffs:
                coeffs[var] = coeffs[var].add(elem)
            else:
                coeffs[var] = elem
            if self.accept("+"):
                neg = False
            elif self.accept("-"):
                neg = True
            else:
                break
        self.expect("=")
        t = self.peek()
        if t.kind == "int" and t.text == "0":
            self.next()
        else:
            self.fail("'0'")
        self.expect(";")
        order = [(v, e) for v, e in coeffs.items() if not e.is_zero()]
        if not order:
            return None  # every coefficient cancelled: a trivial equation
        return Equation(target, tuple(order))

    def lin_term(self, alg, declared, target):
        """One summand: [scalar '*'] [path '*'] variable, or (ring)*variable."""
        F = self.ws.field
        coeff_scalar = F.one()
        coeff_elem = None
        while True:
            t = self.peek()
            if t.kind == "int":
                coeff_scalar = F.mul(coeff_scalar, self.scalar())
                self.expect("*")
                continue
            if t.kind == "punct" and t.text == "(":
                self.next()
                coeff_elem = self.ring_expr(alg.quiver)
                self.expect(")")
                self.expect("*")
                continue
            if t.kind == "name" and t.text == "id":
                coeff_elem = RingElement.from_path(F, self.path_atom(alg.quiver))
                self.expect("*")
                continue
            if t.kind == "name" and t.text not in KEYWORDS:
                if t.text in declared:
                    nxt = self.toks[self.pos + 1]
                    if nxt.kind == "punct" and nxt.text in (".", "*"):
                        # an arrow name that happens to shadow nothing: only
                        # variables terminate a term, so a following '.'/'*'
                        # means this is a path atom
                        pass
                    else:
                        var = self.next().text
                        break
                try:
                    coeff_elem = RingElement.from_path(F, self.path_atom(alg.quiver))
                except Exception:
                    self.fail("a variable or path")
                self.expect("*")
                continue
            self.fail("a term")
        sort = declared[var]
        if coeff_elem is None:
            coeff_elem = RingElement.lazy(F, sort)
        elem = coeff_elem.scale(coeff_scalar)
        if elem.source != sort:
            raise SortError("coefficient source %s does not match the sort %s of %s"
                            % (elem.source, sort, var))
        if elem.target != target:
            raise SortError("coefficient for %s lands in %s, not the equation sort %s"
                            % (var, elem.target, target))
        return var, elem

    # -- pairs, functors, fixtures --

    def pair_decl(self):
        self.expect("pair")
        name = self.name()
        self.expect("over")
        aname = self.name()
        self.ws.get("algebra", aname)
        self.expect("{")
        self.expect("top")
        topname = self.name()
        self.expect(";")
        self.expect("bottom")
        botname = self.name()
        self.expect(";")
        self.expect("}")
        pair = PpPair(self.ws.get("pp", topname), self.ws.get("pp", botname))
        self.ws.add(Decl("pair", name, pair,
                         {"algebra": aname, "top": topname, "bottom": botname}))

    def interp_decl(self):
        self.expect("interp")
        name = self.name()
        self.expect("from")
        src = self.name()
        self.expect("to")
        tgt = self.name()
        source = self.ws.get("algebra", src)
        target = self.ws.get("algebra", tgt)
        self.expect("{")
        self.expect("mode")
        fixture = None
        if self.accept("exact"):
            test_modules = None
        elif self.accept("testset"):
            fixture = self.name()
            test_modules = self.ws.get("fixture", fixture)
        else:
            self.fail("'exact' or 'testset'")
        self.expect(";")
        sorts = {}
        sort_refs = {}
        while self.accept("sort"):
            v = self.vertex_checked(target.quiver.vertices)
            self.expect("=")
            pname = self.name()
            sorts[v] = self.ws.get("pair", pname)
            sort_refs[v] = pname
            self.expect(";")
        arrows = {}
        arrow_refs = {}
        while self.accept("arrow"):
            anm = self.name("an arrow name")
            self.expect("=")
            fname = self.name()
            arrows[anm] = self.ws.get("pp", fname)
            arrow_refs[anm] = fname
            self.expect(";")
        self.expect("}")
        functor = InterpretationFunctor(name, source, target, sorts, arrows,
                                        test_modules=test_modules)
        self.ws.add(Decl("interp", name, functor,
                         {"from": src, "to": tgt, "fixture": fixture,
                          "sorts": sort_refs, "arrows": arrow_refs}))

    def fixture_decl(self):
        self.expect("fixture")
        name = self.name()
        self.expect("{")
        self.expect("modules")
        names = [self.name()]
        while self.accept(","):
            names.append(self.name())
        self.expect(";")
        self.expect("}")
        mods = [self.ws.any_module(n) for n in names]
        self.ws.add(Decl("fixture", name, mods, {"modules": names}))


def parse(text, workspace=None) -> Workspace:
    return Parser(text, workspace).parse_file()


def parse_file(path, workspace=None) -> Workspace:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read(), workspace)


# -- canonical printing ----------------------------------------------------


def _scalar_str(F, x):
    return F.to_str(x)


def _path_str(p: Path):
    return str(p)


def _ring_term_str(F, p, c, lead):
    neg = False
    if F.kind == "Q" and c < 0:
        neg = True
        c = F.neg(c)
    body = _path_str(p) if F.is_zero(F.sub(c, F.one())) \
        else "%s*%s" % (_scalar_str(F, c), _path_str(p))
    if lead:
        return ("-" + body) if neg else body
    return ("- " + body) if neg else ("+ " + body)


def _ring_expr_str(F, elem: RingElement):
    bits = []
    for i, (p, c) in enumerate(elem.sorted_terms()):
        bits.append(_ring_term_str(F, p, c, i == 0))
    return " ".join(bits)


def _lin_term_str(F, var, elem: RingElement, lead):
    terms = elem.sorted_terms()
    if len(terms) == 1:
        p, c = terms[0]
        neg = False
        if F.kind == "Q" and c < 0:
            neg = True
            c = F.neg(c)
        scalar_part = "" if F.is_zero(F.sub(c, F.one())) else _scalar_str(F, c) + "*"
        path_part = "" if p.is_lazy() else _path_str(p) + "*"
        body = scalar_part + path_part + var
        if lead:
            return ("-" + body) if neg else body
        return ("- " + body) if neg else ("+ " + body)
    body = "(%s)*%s" % (_ring_expr_str(F, elem), var)
    return body if lead else "+ " + body


def print_item(decl: Decl, field) -> str:
    kind, name, obj, refs = decl.kind, decl.name, decl.obj, decl.refs
    if kind == "quiver":
        lines = ["quiver %s {" % name,
                 "  vertices %s;" % " ".join(obj.vertices)]
        for a in obj.arrows:
            lines.append("  arrow %s: %s -> %s;" % (a.name, a.source, a.target))
        lines.append("}")
        return "\n".join(lines)
    if kind == "algebra":
        lines = ["algebra %s {" % name, "  quiver %s;" % refs["quiver"]]
        for rel in obj.relations:
            lines.append("  relation %s;" % _ring_expr_str(field, rel))
        if obj.nilpotency_bound is not None:
            lines.append("  nilpotent %d;" % obj.nilpotency_bound)
        lines.append("}")
        return "\n".join(lines)
    if kind in ("module", "rightmodule"):
        right = kind == "rightmodule"
        lines = ["%s %s over %s {" % (kind, name, refs["algebra"])]
        quiver = obj.algebra.quiver
        for v in quiver.vertices:
            lines.append("  dim %s = %d;" % (v, obj.dims[v]))
        for a in quiver.arrows:
            m = obj.maps[a.name]
            if m.rows == 0 or m.cols == 0 or m.is_zero():
                continue
            body = ", ".join(
                "[" + ", ".join(_scalar_str(field, m.at(i, j)) for j in range(m.cols))
                + "]" for i in range(m.rows))
            lines.append("  map %s = [%s];" % (a.name, body))
        lines.append("}")
        return "\n".join(lines)
    if kind == "pp":
        lines = ["pp %s over %s {" % (name, refs["algebra"])]
        if obj.free_vars:
            lines.append("  free %s;" % ", ".join("%s:%s" % (v.name, v.sort)
                                                  for v in obj.free_vars))
        if obj.bound_vars:
            lines.append("  bound %s;" % ", ".join("%s:%s" % (v.name, v.sort)
                                                   for v in obj.bound_vars))
        for eq in obj.equations:
            terms = [_lin_term_str(field, vn, el, i == 0)
                     for i, (vn, el) in enumerate(eq.coeffs)]
            lines.append("  eq %s: %s = 0;" % (eq.target, " ".join(terms)))
        lines.append("}")
        return "\n".join(lines)
    if kind == "pair":
        return ("pair %s over %s {\n  top %s;\n  bottom %s;\n}"
                % (name, refs["algebra"], refs["top"], refs["bottom"]))
    if kind == "interp":
        lines = ["interp %s from %s to %s {" % (name, refs["from"], refs["to"])]
        if refs.get("fixture"):
            lines.append("  mode testset %s;" % refs["fixture"])
        else:
            lines.append("  mode exact;")
        for v in obj.target_algebra.quiver.vertices:
            lines.append("  sort %s = %s;" % (v, refs["sorts"][v]))
        for a in obj.target_algebra.quiver.arrows:
            lines.append("  arrow %s = %s;" % (a.name, refs["arrows"][a.name]))
        lines.append("}")
        return "\n".join(lines)
    if kind == "fixture":
        return "fixture %s {\n  modules %s;\n}" % (name, ", ".join(refs["modules"]))
    raise UnresolvedReference("unknown declaration kind %r" % kind)


def print_workspace(ws: Workspace) -> str:
    head = ""
    if ws.field_declared or ws.field != QQ:
        head = "field Q;\n\n" if ws.field.kind == "Q" else "field F %d;\n\n" % ws.field.p
    return head + "\n\n".join(print_item(d, ws.field) for d in ws.decls) + "\n"


# -- reports ----------------------------------------------------------------


def _stringify(x, field=None):
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _stringify(v, field) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_stringify(v, field) for v in x]
    if field is not None:
        return field.to_str(x)
    return str(x)


def emit_report(command, inputs, payload, seed=0, field=None, **flags):
    doc = {"schema": "ppcat_report_v1", "command": command,
           "inputs": _stringify(inputs), "seed": str(seed)}
    for k, v in flags.items():
        doc[k] = _stringify(v, field)
    doc.update(_stringify(payload, field))
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def load_builtin(name, workspace=None) -> Workspace:
    """Parse one of the fixture files shipped with the package."""
    import importlib.resources as res
    text = res.files("ppcat").joinpath("fixtures/%s.ppc" % name).read_text("utf-8")
    return parse(text, workspace)

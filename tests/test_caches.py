"""The memos on the CLI path give the values a fresh computation gives.

Covered: the process-wide argument parser (replayed reports, list options
that must not leak between requests), the per-module memos of path matrices
and formula values, and the per-algebra memos of the regular module and the
projective rows.
"""

import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from ppcat import interp, ppeval
from ppcat.cli import run
from ppcat.dsl import load_builtin
from ppcat.funcat import auslander_algebra, projective_row, simple_module
from ppcat.linalg import Matrix
from ppcat.ppform import PpFormula
from ppcat.quiver import Path as QPath, RingElement, make_path
from ppcat.rep import Representation, act
from ppcat.scalars import QQ, PrimeField

import algebra_oracle as oracle
from fixtures import a2_algebra, a2_p1, a2_p2, a2_s1, dense_action
from randgen import paths_up_to_len2, random_algebra_pool, random_formula, random_module

GOLDEN = json.loads((Path(__file__).parent / "golden_reports.json").read_text("utf-8"))


def report(argv):
    buf = io.StringIO()
    code = run(list(argv), stdout=buf)
    return code, buf.getvalue()


def test_golden_reports_replayed_twice_in_one_process():
    order = list(range(len(GOLDEN))) * 2
    random.Random(5).shuffle(order)
    for k in order:
        entry = GOLDEN[k]
        assert report(entry["argv"]) == (entry["exit"], entry["stdout"]), entry["argv"]


def test_list_options_do_not_leak_between_requests():
    code, text = report("eval --builtin a2 --builtin a3 --formula ann_a --module S1".split())
    assert code == 0 and json.loads(text)["inputs"]["builtin"] == ["a2", "a3"]
    code, text = report("eval --builtin a2 --formula ann_a --module S1".split())
    assert code == 0 and json.loads(text)["inputs"]["builtin"] == ["a2"]
    code, text = report("dual --file /nonexistent.ppc --formula ann_a".split())
    assert code == 2 and json.loads(text)["inputs"]["file"] == ["/nonexistent.ppc"]
    code, text = report("eval --builtin a2 --formula ann_a --module S1".split())
    assert "file" not in json.loads(text)["inputs"]


def fresh_copy(M):
    return Representation(M.algebra, dict(M.dims), dict(M.maps), check=False)


def uncached_act(M, r):
    F = M.field
    out = Matrix.zero(F, M.dims[r.target], M.dims[r.source])
    for path, coeff in r.terms.items():
        acc = Matrix.identity(F, M.dims[path.source])
        for name in path.arrows:
            acc = M.maps[name].mul(acc)
        out = out.add(acc.scale(coeff))
    return out


def random_element(rng, alg, src, tgt):
    F = alg.field
    terms = {}
    for arrows in paths_up_to_len2(alg.quiver, src, tgt):
        if rng.random() < 0.6:
            p = make_path(alg.quiver, arrows) if arrows else QPath.lazy(src)
            terms[p] = F.from_int(rng.randrange(-3, 4))
    return RingElement(F, src, tgt, terms)


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(32003)], ids=str)
def test_memoised_values_match_a_fresh_module(field):
    rng = random.Random(11)
    for alg in random_algebra_pool(field):
        verts = alg.quiver.vertices
        for _ in range(4):
            M = random_module(rng, alg)
            formulas = [random_formula(rng, alg) for _ in range(6)]
            # equal but distinct formula objects share one memo entry
            formulas += [PpFormula(alg, f.free_vars, f.bound_vars, f.equations)
                         for f in formulas[:3]]
            for _ in range(2):
                for f in rng.sample(formulas, len(formulas)):
                    want = ppeval.eval_formula(f, fresh_copy(M))
                    assert ppeval.eval_formula(f, M) == want
            for _ in range(6):
                r = random_element(rng, alg, rng.choice(verts), rng.choice(verts))
                assert act(M, r) == uncached_act(M, r)
                assert act(M, r) == uncached_act(fresh_copy(M), r)


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(32003)], ids=str)
def test_single_path_with_coefficient_one_is_the_memoised_matrix(field, monkeypatch):
    rng = random.Random(5)
    ones = (field.one(), 1) + ((field.char + 1,) if field.char else ())
    cases = []
    for alg in random_algebra_pool(field):
        M = random_module(rng, alg)
        # over Q, arrow matrices built from plain ints as well
        ints = Representation(alg, dict(M.dims), {
            a.name: Matrix(field, M.dims[a.target], M.dims[a.source],
                           tuple(rng.randrange(-3, 4) for _ in range(M.dims[a.target]
                                                                   * M.dims[a.source])))
            for a in alg.quiver.arrows}, check=False)
        for N in (M, ints):
            for s in alg.quiver.vertices:
                for t in alg.quiver.vertices:
                    for arrows in paths_up_to_len2(alg.quiver, s, t):
                        p = make_path(alg.quiver, arrows) if arrows else QPath.lazy(s)
                        for one in ones:
                            cases.append((N, p, RingElement(field, s, t, {p: one})))
    want = [uncached_act(N, r) for N, _, r in cases]
    for name in ("zero", "scale", "add"):
        monkeypatch.setattr(Matrix, name, None)
    for (N, p, r), w in zip(cases, want):
        got = act(N, r)
        assert got is N._path_matrices[p]
        assert got == w
        assert [type(x) for x in got.entries] == [type(x) for x in w.entries]


def test_validate_then_apply_evaluates_each_pair_once(monkeypatch):
    ws = load_builtin("d4tilde")
    I4, M0 = ws.get("interp", "I4"), ws.get("module", "M0")
    calls = []  # (formula, module): the module objects stay alive, so ids stay unique
    kernels = []  # the one elimination of each evaluation, on its rows
    eval_formula, row_kernel = ppeval.eval_formula, ppeval.row_kernel

    def counting_eval(f, M):
        calls.append((f, M))
        return eval_formula(f, M)

    def counting_kernel(F, n, rows):
        kernels.append(rows)
        return row_kernel(F, n, rows)

    monkeypatch.setattr(ppeval, "eval_formula", counting_eval)
    monkeypatch.setattr(interp, "eval_formula", counting_eval)
    monkeypatch.setattr(ppeval, "row_kernel", counting_kernel)
    interp.validate(I4)
    interp.apply(I4, M0)
    distinct = {(f, id(M)) for f, M in calls
                if sum(M.dims[eq.target] for eq in f.equations)}
    assert len(calls) > len({(f, id(M)) for f, M in calls})  # values were asked for again
    assert len(kernels) == len(distinct)


def test_projective_rows_built_once():
    alg = a2_algebra()
    data = auslander_algebra([a2_p1(alg), a2_p2(alg), a2_s1(alg)])
    S = data.algebra
    copy = oracle.algebra(S.field, S.labels, oracle.table(S), S.idempotents)
    for k in range(len(S.idempotents)):
        row = projective_row(data, k)
        assert projective_row(S, k).sparse_action is row.sparse_action
        fresh = projective_row(copy, k)
        assert (row.dim, dense_action(row)) == (fresh.dim, dense_action(fresh))
        top, fresh_top = simple_module(data, k), simple_module(copy, k)
        assert (top.dim, dense_action(top)) == (fresh_top.dim, dense_action(fresh_top))


def test_equal_ring_elements_hash_alike():
    a, b = QPath("1", "2", ("a",)), QPath("1", "2", ("b",))
    r = RingElement(QQ, "1", "2", {a: Fraction(1), b: Fraction(2)})
    s = RingElement(QQ, "1", "2", {b: 2, a: 1})
    assert r == s and hash(r) == hash(s)

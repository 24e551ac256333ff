import io
import json

import pytest

from ppcat.cli import run


def invoke(argv):
    buf = io.StringIO()
    code = run(argv, stdout=buf)
    text = buf.getvalue()
    return code, json.loads(text), text


def test_eval_q1_on_s1():
    code, doc, _ = invoke(["eval", "--builtin", "a2",
                           "--formula", "ann_a", "--module", "S1"])
    assert code == 0
    assert doc["dim"] == "1"
    assert doc["dims"] == {"x@1": "1"}
    assert doc["schema"] == "ppcat_report_v1"


def test_implies_with_witness():
    code, doc, _ = invoke(["implies", "--builtin", "a2",
                           "--from", "ann_a", "--to", "zero1"])
    assert code == 0
    assert doc["holds"] is False
    assert doc["mode"] == "exact"
    # the free-realization witness is the simple S1
    assert doc["witness_dims"] == {"1": "1", "2": "0"}


def test_implies_true():
    code, doc, _ = invoke(["implies", "--builtin", "a2",
                           "--from", "zero1", "--to", "ann_a"])
    assert code == 0 and doc["holds"] is True


def test_roundtrip_a1tilde():
    code, doc, _ = invoke(["roundtrip", "--builtin", "a1tilde",
                           "--forward", "I", "--back", "J", "--fixture", "jordan"])
    assert code == 0
    assert doc["all_isomorphic"] is True
    assert len(doc["results"]) == 4


def test_exit_code_2_on_missing_item():
    code, doc, _ = invoke(["eval", "--builtin", "a2",
                           "--formula", "nope", "--module", "S1"])
    assert code == 2
    assert "error" in doc


def test_exit_code_2_on_parse_error(tmp_path):
    bad = tmp_path / "bad.ppc"
    bad.write_text("quiver { vertices 1; }")
    code, doc, _ = invoke(["eval", "--file", str(bad),
                           "--formula", "x", "--module", "y"])
    assert code == 2
    assert doc["error_kind"] == "ParseError"


def test_exit_code_2_on_non_decimal_digit(tmp_path):
    # '²' passes str.isdigit but not int(): it must be refused where it stands
    bad = tmp_path / "bad.ppc"
    bad.write_text("quiver Q { vertices 1; }\nalgebra A { quiver Q; }\n"
                   "module M over A {\n  dim 1 = \u00b2;\n}\n", encoding="utf-8")
    code, doc, _ = invoke(["eval", "--file", str(bad), "--formula", "x", "--module", "M"])
    assert code == 2
    assert doc["error_kind"] == "ParseError"
    assert doc["error"] == "4:11: expected a token, found '\u00b2'"


def test_exit_code_2_on_malformed_seed_variable(monkeypatch):
    monkeypatch.setenv("PPCAT_SEED", "abc")
    code, doc, _ = invoke(["eval", "--builtin", "a2", "--formula", "ann_a", "--module", "S1"])
    assert code == 2
    assert doc["error_kind"] == "ValueError"
    assert "PPCAT_SEED" in doc["error"]
    monkeypatch.setenv("PPCAT_SEED", "7")
    code, doc, _ = invoke(["eval", "--builtin", "a2", "--formula", "ann_a", "--module", "S1"])
    assert code == 0 and doc["seed"] == "7"


def test_exit_code_2_on_unwritable_out(tmp_path):
    out = tmp_path / "missing" / "x.json"
    code, doc, _ = invoke(["eval", "--builtin", "a2", "--formula", "ann_a", "--module", "S1",
                           "--out", str(out)])
    assert code == 2
    assert doc["error_kind"] == "FileNotFoundError"
    assert not out.exists()
    code, doc, _ = invoke(["eval", "--builtin", "a2", "--formula", "nope", "--module", "S1",
                           "--out", str(out)])
    assert code == 2 and doc["error_kind"] == "FileNotFoundError"


def test_exit_code_3_on_not_admissible(tmp_path):
    f = tmp_path / "kt.ppc"
    f.write_text("""
quiver Loop { vertices v; arrow t: v -> v; }
algebra KT { quiver Loop; }
pp whole over KT { free x:v; }
pp nil over KT { free x:v; eq v: x = 0; }
""")
    code, doc, _ = invoke(["implies", "--file", str(f), "--mode", "exact",
                           "--from", "nil", "--to", "whole"])
    assert code == 3
    assert doc["error_kind"] == "NotAdmissible"


def test_implies_testset_defaults_for_loop(tmp_path):
    f = tmp_path / "kt.ppc"
    f.write_text("""
quiver Loop { vertices v; arrow t: v -> v; }
algebra KT { quiver Loop; }
pp whole over KT { free x:v; }
pp dvd over KT { free x:v; bound y:v; eq v: x - t*y = 0; }
""")
    code, doc, _ = invoke(["implies", "--file", str(f),
                           "--from", "dvd", "--to", "whole"])
    assert code == 0
    assert doc["holds"] is True
    assert doc["mode"] == "testset"
    assert doc["relative_to_test_set"] is True
    assert doc["test_set"] == "jordan<=3"


def test_pair_eval():
    code, doc, _ = invoke(["pair-eval", "--builtin", "a2",
                           "--pair", "q2", "--module", "P1"])
    assert code == 0 and doc["value"] == "1"
    code, doc, _ = invoke(["pair-eval", "--builtin", "a2",
                           "--pair", "t3", "--module", "P1"])
    assert code == 0 and doc["value"] == "0"


def test_freereal_reports_simple():
    code, doc, _ = invoke(["freereal", "--builtin", "a2", "--formula", "ann_a"])
    assert code == 0
    assert doc["dims"] == {"1": "1", "2": "0"}


def test_dual_prints_formula():
    code, doc, _ = invoke(["dual", "--builtin", "a2", "--formula", "ann_a"])
    assert code == 0
    assert "pp ann_a_dual" in doc["formula"]


def test_member():
    code, doc, _ = invoke(["member", "--builtin", "a2",
                           "--pairs", "q1,t3", "--module", "P1"])
    assert code == 0 and doc["member"] is True
    code, doc, _ = invoke(["member", "--builtin", "a2",
                           "--pairs", "q1,t3", "--module", "S1"])
    assert code == 0 and doc["member"] is False


def test_check_map():
    # multiplication by the arrow is a map of pairs from q2 to q3
    code, doc, _ = invoke(["check-map", "--builtin", "a2", "--rho", "mult_a",
                           "--from-pair", "q2", "--to-pair", "q3"])
    assert code == 0 and doc["functional"] is True
    # the backwards relation is not even total on P2
    code, doc, _ = invoke(["check-map", "--builtin", "a2", "--rho", "rel_back",
                           "--from-pair", "q3", "--to-pair", "q2"])
    assert code == 0 and doc["functional"] is False
    # a relation whose free sorts do not match the pairs violates a precondition
    code, doc, _ = invoke(["check-map", "--builtin", "a2", "--rho", "div_a",
                           "--from-pair", "q3", "--to-pair", "q2"])
    assert code == 3 and doc["error_kind"] == "SortMismatch"


def test_interp_validate_and_apply():
    code, doc, _ = invoke(["interp-validate", "--builtin", "a1tilde",
                           "--interp", "I"])
    assert code == 0 and doc["valid"] is True and doc["mode"] == "testset"
    code, doc, _ = invoke(["interp-apply", "--builtin", "a1tilde",
                           "--interp", "I", "--module", "J2"])
    assert code == 0
    assert doc["dims"] == {"1": "2", "2": "2"}
    assert "module" in doc


def test_tensor_cli():
    code, doc, _ = invoke(["tensor", "--builtin", "a3",
                           "--left", "L23", "--module", "I13"])
    assert code == 0 and doc["dim"] == "0"
    code, doc, _ = invoke(["tensor", "--builtin", "a3",
                           "--left", "L23", "--module", "I33"])
    assert code == 0 and doc["dim"] == "1"


def test_purity_cli():
    blocks = json.dumps({"1": [], "2": [["1"]]})
    code, doc, _ = invoke(["purity", "--builtin", "a2", "--method", "pp",
                           "--from", "P2", "--to", "P1",
                           "--blocks", blocks, "--formulas", "div_a"])
    assert code == 0
    assert doc["pure"] is False


def test_funcat_auslander_cli():
    code, doc, _ = invoke(["funcat-auslander", "--builtin", "a2",
                           "--modules", "P1,P2,S1"])
    assert code == 0
    assert doc["dim"] == "5" and doc["idempotents"] == "3"


def test_funcat_eval_cli():
    code, doc, _ = invoke(["funcat-eval", "--builtin", "a2",
                           "--modules", "P1,P2,S1",
                           "--functor", "row:0", "--argument", "P1"])
    assert code == 0 and doc["dim"] == "1"


def test_funcat_quotient_cli():
    code, doc, _ = invoke(["funcat-quotient", "--builtin", "a2",
                           "--modules", "P1,P2,S1", "--generator", "P1"])
    assert code == 0
    assert sorted(len(c) for c in doc["classes"]) == [3]
    assert len(doc["discarded"]) == 2


def test_funcat_quotient_keps_is_certain():
    # Sigma = {1}: over eSe = End(R) the Xe of row:0 and row:1 have
    # dimensions 2 and 1, so they are certainly not isomorphic
    code, doc, _ = invoke(["funcat-quotient", "--builtin", "keps",
                           "--modules", "R,S", "--generator", "R"])
    assert code == 0
    assert doc["sigma"] == ["1"]
    assert doc["classes"] == [["row:0"], ["row:1", "simple:0"]]
    assert doc["discarded"] == ["simple:1"]
    assert doc["certain"] is True


def test_determinism():
    argv = ["roundtrip", "--builtin", "a1tilde", "--forward", "I",
            "--back", "J", "--fixture", "jordan", "--seed", "7"]
    _, _, text1 = invoke(argv)
    _, _, text2 = invoke(argv)
    assert text1 == text2


def test_out_file(tmp_path):
    out = tmp_path / "report.json"
    code, = (run(["eval", "--builtin", "a2", "--formula", "ann_a",
                  "--module", "S1", "--out", str(out)]),)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "eval"


def test_seed_from_environment(monkeypatch):
    monkeypatch.setenv("PPCAT_SEED", "42")
    code, doc, _ = invoke(["eval", "--builtin", "a2",
                           "--formula", "ann_a", "--module", "S1"])
    assert code == 0 and doc["seed"] == "42"
    code, doc, _ = invoke(["eval", "--builtin", "a2", "--seed", "5",
                           "--formula", "ann_a", "--module", "S1"])
    assert code == 0 and doc["seed"] == "5"  # the flag overrides the env


def test_end_to_end_corpus_sweep():
    # the exit-code contract over the shipped fixture corpus
    runs = [
        (0, ["eval", "--builtin", "a2", "--formula", "div_a", "--module", "P2"]),
        (0, ["pair-eval", "--builtin", "a2", "--pair", "q1", "--module", "S1"]),
        (0, ["implies", "--builtin", "a2", "--from", "ann_a", "--to", "top1"]),
        (0, ["dual", "--builtin", "a2", "--formula", "div_a"]),
        (0, ["freereal", "--builtin", "a2", "--formula", "div_a"]),
        (0, ["member", "--builtin", "a2", "--pairs", "q1", "--module", "P2"]),
        (0, ["interp-validate", "--builtin", "morita2", "--interp", "Sq"]),
        (0, ["interp-apply", "--builtin", "d4tilde", "--interp", "I4",
             "--module", "M0"]),
        (0, ["roundtrip", "--builtin", "d4tilde", "--forward", "I4",
             "--back", "J4", "--fixture", "jordan"]),
        (0, ["roundtrip", "--builtin", "morita2", "--forward", "Sq",
             "--back", "Back", "--fixture", "spaces"]),
        (0, ["repembed", "--builtin", "a1tilde", "--interp", "I",
             "--modules", "M0,J2"]),
        (0, ["tensor", "--builtin", "a3", "--left", "L23", "--module", "I23"]),
        (0, ["funcat-quotient", "--builtin", "a2", "--modules", "P1,P2,S1",
             "--generator", "S1"]),
        (2, ["eval", "--builtin", "a2", "--formula", "div_a", "--module", "gone"]),
        (2, ["tensor", "--builtin", "a3", "--left", "I11", "--module", "I23"]),
        (3, ["freereal", "--builtin", "a1tilde", "--formula", "rho_b"]),
    ]
    for want, argv in runs:
        code, doc, _ = invoke(argv)
        assert code == want, (argv, doc)


def test_exit_code_2_on_algebra_mismatch():
    code, doc, _ = invoke(["tensor", "--builtin", "a3", "--builtin", "a2",
                           "--left", "L23", "--module", "P1"])
    assert code == 2
    assert doc["error_kind"] == "AlgebraMismatch"


def test_exit_code_2_on_isomorphic_summands():
    code, doc, _ = invoke(["funcat-auslander", "--builtin", "a2", "--modules", "P1,P2,S1,P1"])
    assert code == 2
    assert doc["error_kind"] == "IsomorphicSummands"
    assert doc["error"] == "summands 0 and 3 are isomorphic"
    assert "dim" not in doc


def test_exit_code_2_on_duplicate_vertex(tmp_path):
    f = tmp_path / "dup.ppc"
    f.write_text("field Q;\nquiver A { vertices 1 1; }\n")
    code, doc, _ = invoke(["eval", "--file", str(f), "--formula", "x", "--module", "y"])
    assert code == 2
    assert doc["error_kind"] == "ParseError"
    assert doc["error"].startswith("2:23: expected a new vertex name (duplicate vertex)")


@pytest.mark.parametrize("body, where, expected", [
    ("vertices 1 2; arrow a: 1 -> 2; arrow a: 2 -> 1;", "2:49", "a new arrow name"),
    ("vertices 1 2; arrow a: 1 -> 3;", "2:40", "a vertex of the quiver"),
    ("vertices 1 2; arrow a: 0 -> 2;", "2:35", "a vertex of the quiver"),
])
def test_exit_code_2_on_malformed_quiver(tmp_path, body, where, expected):
    f = tmp_path / "bad.ppc"
    f.write_text("field Q;\nquiver A { %s }\n" % body)
    code, doc, _ = invoke(["eval", "--file", str(f), "--formula", "x", "--module", "y"])
    assert code == 2
    assert doc["error_kind"] == "ParseError"
    assert doc["error"].startswith("%s: expected %s" % (where, expected))


def test_exit_code_2_on_zero_denominator(tmp_path):
    f = tmp_path / "zero.ppc"
    f.write_text("""field Q;
quiver A { vertices 1 2; arrow a: 1 -> 2; }
algebra K { quiver A; }
module M over K { dim 1 = 1; dim 2 = 1; map a = [[1/0]]; }
""")
    code, doc, _ = invoke(["eval", "--file", str(f), "--formula", "x", "--module", "M"])
    assert code == 2
    assert doc["error_kind"] == "ParseError"
    assert doc["error"].startswith("4:53: expected a denominator nonzero in Q")


def test_exit_code_2_on_functor_index_out_of_range():
    code, doc, _ = invoke(["funcat-eval", "--builtin", "a2", "--modules", "P1,P2,S1",
                           "--functor", "row:9", "--argument", "P1"])
    assert code == 2
    assert doc["error_kind"] == "UnresolvedReference"


@pytest.mark.parametrize("spec", ["row:x", "simple:x"])
def test_exit_code_2_on_non_integer_functor_index(spec):
    code, doc, _ = invoke(["funcat-eval", "--builtin", "a2", "--modules", "P1,P2,S1",
                           "--functor", spec, "--argument", "P1"])
    assert code == 2
    assert doc["error_kind"] == "UnresolvedReference"
    assert doc["error"] == "functor spec must be row:<k> or simple:<k>"


def test_module_form_runs_the_cli():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "ppcat.cli", "eval", "--builtin", "a2",
         "--formula", "ann_a", "--module", "S1"],
        capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["command"] == "eval" and doc["dim"] == "1"


@pytest.mark.parametrize("dim", ["99999999999", "4097"])
def test_exit_code_2_on_dimension_above_the_cap(tmp_path, monkeypatch, dim):
    from ppcat import dsl
    from ppcat.linalg import Matrix

    def refuse(*args, **kwargs):
        raise AssertionError("a matrix was allocated before the dimension was checked")
    monkeypatch.setattr(Matrix, "zero", refuse)
    assert int(dim) > dsl.MAX_DIM == 4096
    f = tmp_path / "big.ppc"
    # with a loop at the vertex, the zero map of that size overflowed
    f.write_text("field Q;\nquiver L { vertices 1; arrow t: 1 -> 1; }\n"
                 "algebra K { quiver L; }\nmodule M over K { dim 1 = %s; }\n" % dim)
    code, doc, _ = invoke(["eval", "--file", str(f), "--formula", "x", "--module", "M"])
    assert code == 2
    assert doc["error_kind"] == "ParseError"
    assert doc["error"] == "4:27: expected a dimension of at most 4096, found '%s'" % dim


@pytest.mark.parametrize("argv, command, message", [
    (["eval", "--builtin", "a2", "--formula", "ann_a", "--module", "S1", "--seed", "abc"],
     "eval", "argument --seed: invalid int value: 'abc'"),
    (["eval", "--builtin", "a2", "--module", "S1"],
     "eval", "the following arguments are required: --formula"),
    (["frobnicate", "--builtin", "a2"], None, "argument command: invalid choice: 'frobnicate'"),
])
def test_exit_code_2_on_unparsable_command_line(capsys, argv, command, message):
    code, doc, _ = invoke(argv)
    assert code == 2
    assert doc["error_kind"] == "UsageError"
    assert doc["error"].startswith(message)
    assert doc["command"] == command and doc["inputs"] == {"argv": argv}
    err = capsys.readouterr().err
    assert err.startswith("usage: ppcat") and message in err


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        run(["eval", "--help"], stdout=io.StringIO())
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ppcat eval")

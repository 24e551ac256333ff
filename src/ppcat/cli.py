"""Command-line driver: load .ppc files, dispatch operations, write reports.

Exit codes: 0 for any computed verdict (including negative ones), 2 for input
errors (parse failures, unresolved names, malformed data, a command line that
does not parse), 3 for precondition violations (non-admissible algebra,
uncertified pair, non-mono, ...).  Each of them writes a JSON report; only
`--help` exits 0 with none.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import funcat as fc
from .dsl import Decl, Workspace, emit_report, load_builtin, parse_file, print_item
from .errors import (
    CharacteristicTooSmall, InducedMapUndefined, NotASubspace, NotAdmissible,
    NotMono, NotSplitEndo, NotValidated, PpcatError, SortMismatch,
    UncertifiedPair, UnresolvedReference, UnsupportedRelation, UsageError, ZeroModule,
)
from .interp import apply as interp_apply
from .interp import check_rep_embedding, validate
from .linalg import Matrix
from .ppform import PpMap
from .ppeval import (
    certify_pair, check_pp_map, definable_membership, eval_formula, eval_pair,
    free_realization, pp_implies,
)
from .ppform import dual as pp_dual
from .rep import RepMorphism, Representation, are_isomorphic
from .tensor import purity_pp, purity_tensor, tensor

# every other library error (parse, unresolved name, algebra mismatch, malformed
# quiver, ...) is an input error; PRECONDITION_ERRORS is tried first
INPUT_ERRORS = (PpcatError, OSError, json.JSONDecodeError, ValueError)
PRECONDITION_ERRORS = (NotAdmissible, UncertifiedPair, NotMono, CharacteristicTooSmall,
                       NotSplitEndo, NotValidated, InducedMapUndefined, ZeroModule,
                       UnsupportedRelation, SortMismatch, NotASubspace)


class _Parser(argparse.ArgumentParser):
    """An argument parser that, on a command line it cannot parse, prints
    the usage and the error on stderr as argparse does, then raises
    `UsageError` instead of exiting, so that `run` writes a report."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("%s: error: %s\n" % (self.prog, message))
        raise UsageError(message)


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing only reads it, and
    each parse returns a fresh namespace (argparse copies the `append` defaults
    before appending, and no command changes a list on `args`)."""
    p = _Parser(prog="ppcat", description="exact pp-formula computations")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--file", action="append", default=[],
                        help=".ppc file to load (repeatable)")
        sp.add_argument("--builtin", action="append", default=[],
                        help="built-in fixture file name (a2, a3, a1tilde, d4tilde, morita2, keps)")
        sp.add_argument("--out", help="write the JSON report here instead of stdout")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--mode", choices=("exact", "testset"), default=None)
        sp.add_argument("--test-set", dest="test_set",
                        help="fixture name supplying test modules")
        sp.add_argument("--test-dim-bound", dest="test_dim_bound", type=int, default=3)
        return sp

    sp = common(sub.add_parser("eval"))
    sp.add_argument("--formula", required=True)
    sp.add_argument("--module", required=True)

    sp = common(sub.add_parser("pair-eval"))
    sp.add_argument("--pair", required=True)
    sp.add_argument("--module", required=True)

    sp = common(sub.add_parser("implies"))
    sp.add_argument("--from", dest="from_", required=True)
    sp.add_argument("--to", required=True)

    sp = common(sub.add_parser("dual"))
    sp.add_argument("--formula", required=True)

    sp = common(sub.add_parser("freereal"))
    sp.add_argument("--formula", required=True)

    sp = common(sub.add_parser("check-map"))
    sp.add_argument("--rho", required=True)
    sp.add_argument("--from-pair", dest="from_pair", required=True)
    sp.add_argument("--to-pair", dest="to_pair", required=True)

    sp = common(sub.add_parser("member"))
    sp.add_argument("--pairs", required=True, help="comma-separated pair names")
    sp.add_argument("--module", required=True)

    sp = common(sub.add_parser("interp-validate"))
    sp.add_argument("--interp", required=True)

    sp = common(sub.add_parser("interp-apply"))
    sp.add_argument("--interp", required=True)
    sp.add_argument("--module", required=True)

    sp = common(sub.add_parser("roundtrip"))
    sp.add_argument("--forward", required=True)
    sp.add_argument("--back", required=True)
    sp.add_argument("--modules", help="comma-separated module names")
    sp.add_argument("--fixture", help="fixture naming the module list")

    sp = common(sub.add_parser("repembed"))
    sp.add_argument("--interp", required=True)
    sp.add_argument("--modules", help="comma-separated module names")
    sp.add_argument("--fixture")

    sp = common(sub.add_parser("tensor"))
    sp.add_argument("--left", required=True, help="a rightmodule name")
    sp.add_argument("--module", required=True)

    sp = common(sub.add_parser("purity"))
    sp.add_argument("--method", choices=("tensor", "pp", "both"), default="both")
    sp.add_argument("--from", dest="from_", required=True)
    sp.add_argument("--to", required=True)
    sp.add_argument("--blocks", required=True,
                    help="JSON mapping vertex -> matrix of exact scalar strings")
    sp.add_argument("--right-modules", dest="right_modules",
                    help="comma-separated rightmodule names")
    sp.add_argument("--formulas", help="comma-separated pp names")
    sp.add_argument("--complete", action="store_true",
                    help="declare the supplied list complete")

    sp = common(sub.add_parser("funcat-auslander"))
    sp.add_argument("--modules", required=True)

    sp = common(sub.add_parser("funcat-eval"))
    sp.add_argument("--modules", required=True)
    sp.add_argument("--functor", required=True, help="row:<k> or simple:<k>")
    sp.add_argument("--argument", required=True)

    sp = common(sub.add_parser("funcat-quotient"))
    sp.add_argument("--modules", required=True)
    sp.add_argument("--generator", required=True)

    return p


def load_workspace(args) -> Workspace:
    ws = Workspace()
    for name in args.builtin:
        load_builtin(name, ws)
    for path in args.file:
        parse_file(path, ws)
    return ws


def resolve_seed(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("PPCAT_SEED")
    if not env:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError("PPCAT_SEED must be an integer, not %r" % env) from None


def default_test_modules(alg, bound):
    """Jordan-type modules over a one-vertex one-loop algebra, up to the bound."""
    quiver = alg.quiver
    if len(quiver.vertices) != 1 or len(quiver.arrows) != 1:
        raise UnresolvedReference(
            "no default test set for this algebra; supply --test-set")
    v = quiver.vertices[0]
    arrow = quiver.arrows[0]
    F = alg.field
    eigen = []
    for lam in (0, 1, 2):
        val = F.from_int(lam)
        if val not in eigen:
            eigen.append(val)
    mods = []
    for size in range(1, bound + 1):
        for lam in eigen:
            rows = [[F.zero()] * size for _ in range(size)]
            for i in range(size):
                rows[i][i] = lam
                if i + 1 < size:
                    rows[i][i + 1] = F.one()
            mods.append(Representation(alg, {v: size},
                                       {arrow.name: Matrix.from_rows(F, rows)}))
    return mods


def resolve_test_modules(args, ws, algebra):
    """(test_modules or None, flags): exact mode when admissible by default."""
    mode = args.mode
    if mode is None:
        mode = "exact" if algebra.admissible else "testset"
    if mode == "exact":
        if not algebra.admissible:
            raise NotAdmissible("exact mode needs an admissible algebra")
        return None, {"mode": "exact"}
    if args.test_set:
        mods = ws.get("fixture", args.test_set)
        name = args.test_set
    else:
        mods = default_test_modules(algebra, args.test_dim_bound)
        name = "jordan<=%d" % args.test_dim_bound
    return mods, {"mode": "testset", "relative_to_test_set": True, "test_set": name}


def _names(csv):
    return [s for s in (csv or "").split(",") if s]


def _module_list(args, ws):
    if getattr(args, "fixture", None):
        return ws.get("fixture", args.fixture), args.fixture
    names = _names(getattr(args, "modules", None))
    if not names:
        raise UnresolvedReference("supply --modules or --fixture")
    return [ws.any_module(n) for n in names], ",".join(names)


def _parse_scalar_string(field, s):
    s = s.strip()
    neg = s.startswith("-")
    if neg:
        s = s[1:]
    if "/" in s:
        num, den = s.split("/", 1)
        val = field.from_fraction(int(num), int(den))
    else:
        val = field.from_int(int(s))
    return field.neg(val) if neg else val


def _morphism_from_blocks(ws, source, target, blocks_json):
    data = json.loads(blocks_json)
    F = source.field
    blocks = {}
    for v, rows in data.items():
        want = (target.dims.get(v, 0), source.dims.get(v, 0))
        if want[0] == 0 or want[1] == 0:
            blocks[v] = Matrix(F, want[0], want[1], ())
            continue
        ents = [[_parse_scalar_string(F, str(x)) for x in row] for row in rows]
        blocks[v] = Matrix.from_rows(F, ents)
    return RepMorphism(source, target, blocks)


# -- command implementations -------------------------------------------------


def cmd_eval(args, ws, seed):
    phi = ws.get("pp", args.formula)
    M = ws.any_module(args.module)
    sol = eval_formula(phi, M)
    dims = {}
    from .linalg import project
    off = 0
    for v, (sort, d) in zip(phi.free_vars, sol.sorts):
        dims["%s@%s" % (v.name, sort)] = project(sol.space, range(off, off + d)).dim
        off += d
    basis = [[M.field.to_str(x) for x in row] for row in sol.space.basis_rows()]
    return {"dim": sol.dim, "dims": dims, "basis": basis}, {}


def cmd_pair_eval(args, ws, seed):
    pair = ws.get("pair", args.pair)
    M = ws.any_module(args.module)
    tm, flags = resolve_test_modules(args, ws, pair.algebra)
    pair = pair if pair.certified else certify_pair(pair, tm)
    return {"value": eval_pair(pair, M)}, flags


def cmd_implies(args, ws, seed):
    f = ws.get("pp", args.from_)
    g = ws.get("pp", args.to)
    tm, flags = resolve_test_modules(args, ws, f.algebra)
    res = pp_implies(f, g, tm)
    payload = {"holds": res.holds}
    if res.counterexample is not None and res.exact:
        payload["witness_dims"] = {v: d for v, d in res.counterexample.dims.items()}
    return payload, flags


def cmd_dual(args, ws, seed):
    phi = ws.get("pp", args.formula)
    d = pp_dual(phi)
    decl = Decl("pp", args.formula + "_dual", d,
                {"algebra": phi.algebra.name + "_op"})
    return {"formula": print_item(decl, phi.algebra.field)}, {}


def cmd_freereal(args, ws, seed):
    phi = ws.get("pp", args.formula)
    fr = free_realization(phi)
    F = phi.algebra.field
    return {"dims": dict(fr.module.dims),
            "tuple": [[F.to_str(x) for x in vec] for vec in fr.tuple_vectors]}, {}


def cmd_check_map(args, ws, seed):
    rho = ws.get("pp", args.rho)
    src = ws.get("pair", args.from_pair)
    tgt = ws.get("pair", args.to_pair)
    tm, flags = resolve_test_modules(args, ws, rho.algebra)
    src = src if src.certified else certify_pair(src, tm)
    tgt = tgt if tgt.certified else certify_pair(tgt, tm)
    ok = check_pp_map(PpMap(src, tgt, rho), tm)
    return {"functional": ok}, flags


def cmd_member(args, ws, seed):
    names = _names(args.pairs)
    pairs = [ws.get("pair", n) for n in names]
    M = ws.any_module(args.module)
    if not pairs:
        return {"member": True}, {}
    tm, flags = resolve_test_modules(args, ws, pairs[0].algebra)
    pairs = [p if p.certified else certify_pair(p, tm) for p in pairs]
    return {"member": definable_membership(pairs, M)}, flags


def cmd_interp_validate(args, ws, seed):
    F = ws.get("interp", args.interp)
    report = validate(F)
    return {"valid": report.valid,
            "arrows": dict(report.arrows),
            "relations": [{"relation": r, "ok": ok} for r, ok in report.relations]}, \
        {"mode": report.mode}


def cmd_interp_apply(args, ws, seed):
    F = ws.get("interp", args.interp)
    validate(F)
    M = ws.any_module(args.module)
    out = interp_apply(F, M)
    decl = Decl("module", "%s_%s" % (args.interp, args.module), out,
                {"algebra": F.target_algebra.name})
    return {"dims": dict(out.dims),
            "module": print_item(decl, out.field)}, {"mode": F.mode}


def cmd_roundtrip(args, ws, seed):
    Ff = ws.get("interp", args.forward)
    Fb = ws.get("interp", args.back)
    validate(Ff)
    validate(Fb)
    mods, listed = _module_list(args, ws)
    results = []
    for k, M in enumerate(mods):
        r = are_isomorphic(interp_apply(Fb, interp_apply(Ff, M)), M, seed=seed)
        results.append({"index": k, "isomorphic": r.isomorphic, "certain": r.certain})
    return {"modules": listed, "results": results,
            "all_isomorphic": all(r["isomorphic"] for r in results)}, {}


def cmd_repembed(args, ws, seed):
    F = ws.get("interp", args.interp)
    validate(F)
    mods, listed = _module_list(args, ws)
    report = check_rep_embedding(F, mods, seed=seed)
    return {"modules": listed,
            "indecomposable": {str(k): ok for k, ok in report.indecomposable},
            "preserves_indecomposability": report.preserves_indecomposability,
            "reflects_isomorphism": report.reflects_isomorphism,
            "collapsed_pairs": [list(p) for p in report.collapsed_pairs]}, \
        {"probabilistic": not report.certain}


def cmd_tensor(args, ws, seed):
    L = ws.get("rightmodule", args.left)
    M = ws.get("module", args.module)
    val = tensor(L, M)
    return {"dim": val.dim}, {}


def cmd_purity(args, ws, seed):
    M = ws.any_module(args.from_)
    N = ws.any_module(args.to)
    f = _morphism_from_blocks(ws, M, N, args.blocks)
    payload = {}
    flags = {}
    if args.method in ("tensor", "both"):
        names = _names(args.right_modules)
        if not names:
            raise UnresolvedReference("supply --right-modules for the tensor method")
        rights = [ws.get("rightmodule", n) for n in names]
        res = purity_tensor(f, rights, complete=args.complete)
        payload["pure_tensor"] = res.pure
        payload["tensor_failures"] = res.failures
        flags["relative_to_right_list"] = res.relative
    if args.method in ("pp", "both"):
        names = _names(args.formulas)
        if not names:
            raise UnresolvedReference("supply --formulas for the pp method")
        formulas = [ws.get("pp", n) for n in names]
        res = purity_pp(f, formulas, complete=args.complete)
        payload["pure_pp"] = res.pure
        payload["pp_failures"] = res.failures
        flags["relative_to_formula_list"] = res.relative
    if args.method == "both":
        payload["pure"] = payload["pure_tensor"] and payload["pure_pp"]
    else:
        payload["pure"] = payload.get("pure_tensor", payload.get("pure_pp"))
    return payload, flags


def _auslander_from_args(args, ws):
    names = _names(args.modules)
    mods = [ws.get("module", n) for n in names]
    return fc.auslander_algebra(mods), names


def cmd_funcat_auslander(args, ws, seed):
    data, names = _auslander_from_args(args, ws)
    S = data.algebra
    return {"dim": S.dim,
            "labels": list(S.labels),
            "idempotents": len(S.idempotents),
            "radical_dim": S.radical().dim,
            "summands": names}, {}


def _functor_by_spec(data, spec):
    bad_spec = UnresolvedReference("functor spec must be row:<k> or simple:<k>")
    kind, _, idx = spec.partition(":")
    try:
        k = int(idx)
    except ValueError:
        raise bad_spec from None
    n = len(data.algebra.idempotents)
    if not 0 <= k < n:
        raise UnresolvedReference("functor index %d out of range 0..%d" % (k, n - 1))
    if kind == "row":
        return fc.projective_row(data, k)
    if kind == "simple":
        return fc.simple_module(data, k)
    raise bad_spec


def cmd_funcat_eval(args, ws, seed):
    data, _ = _auslander_from_args(args, ws)
    V = _functor_by_spec(data, args.functor)
    X = ws.get("module", args.argument)
    val = fc.functor_eval(V, X, data)
    F = data.algebra.field
    basis = [[F.to_str(x) for x in vec] for vec in val.basis_vectors()]
    return {"dim": val.dim, "basis": basis}, {}


def cmd_funcat_quotient(args, ws, seed):
    data, _ = _auslander_from_args(args, ws)
    G = ws.get("module", args.generator)
    S = data.algebra
    n = len(S.idempotents)
    functors = [("row:%d" % k, fc.projective_row(data, k)) for k in range(n)]
    for k in range(n):
        # S is basic, so a module is the simple top k exactly when it is
        # one-dimensional with V e_k nonzero
        if not any(V.dim == 1 and V.sort_dim(k) == 1 for _, V in functors):
            functors.append(("simple:%d" % k, fc.simple_module(data, k)))
    labels = [lbl for lbl, _ in functors]
    mods = [V for _, V in functors]
    sigma = fc.serre_from_generator(mods, G, data)
    report = fc.quotient_skeleton(mods, sigma, seed=seed)
    return {"functors": labels,
            "sigma": sorted(sigma.simples),
            "classes": [[labels[k] for k in cls] for cls in report.classes],
            "discarded": [labels[k] for k in report.discarded],
            "certain": report.certain}, {}


COMMANDS = {
    "eval": cmd_eval,
    "pair-eval": cmd_pair_eval,
    "implies": cmd_implies,
    "dual": cmd_dual,
    "freereal": cmd_freereal,
    "check-map": cmd_check_map,
    "member": cmd_member,
    "interp-validate": cmd_interp_validate,
    "interp-apply": cmd_interp_apply,
    "roundtrip": cmd_roundtrip,
    "repembed": cmd_repembed,
    "tensor": cmd_tensor,
    "purity": cmd_purity,
    "funcat-auslander": cmd_funcat_auslander,
    "funcat-eval": cmd_funcat_eval,
    "funcat-quotient": cmd_funcat_quotient,
}


def run(argv=None, stdout=None):
    stdout = stdout if stdout is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else list(argv)

    def error(e):
        return {"error": str(e), "error_kind": type(e).__name__}

    try:
        args = build_parser().parse_args(argv)
    except UsageError as e:
        # the report names the command when the first word is one
        command = argv[0] if argv and argv[0] in COMMANDS else None
        stdout.write(emit_report(command, {"argv": argv}, error(e)))
        return 2
    seed = 0  # what a report gives when PPCAT_SEED itself is refused
    inputs = {k: v for k, v in sorted(vars(args).items())
              if k not in ("command", "out") and v not in (None, [], False)}

    def emit(payload, flags, code):
        text = emit_report(args.command, inputs, payload, seed=seed, **flags)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as e:
                stdout.write(emit_report(args.command, inputs, error(e), seed=seed))
                return 2
        else:
            stdout.write(text)
        return code

    try:
        seed = resolve_seed(args)
        ws = load_workspace(args)
        payload, flags = COMMANDS[args.command](args, ws, seed)
    except PRECONDITION_ERRORS as e:
        return emit(error(e), {}, 3)
    except INPUT_ERRORS as e:
        return emit(error(e), {}, 2)
    return emit(payload, flags, 0)


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()

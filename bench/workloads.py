"""The benchmark's workloads: seeded inputs, the ppcat request per op, and an
independent expected answer for every op.

Each workload draws its ops in cycles.  A cycle holds one op per stratum (an
op kind at an input size), shuffled; cycle `c` is generated from the pair
(seed, c) alone, so the same seed gives the same inputs however many cycles a
run completes.  Runs stop at a cycle boundary, so every run sees the same mix
of sizes and kinds and the seed changes only the inputs' contents.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import random
from fractions import Fraction
from typing import NamedTuple


class Op(NamedTuple):
    kind: str
    args: tuple
    expected: object


def cycle_rng(seed, c):
    return random.Random("%d:%d" % (seed, c))


# -- exact rational matrices, independent of ppcat -----------------------------


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def mat_inverse(m):
    """Inverse over Q by Gauss-Jordan, or None when m is singular."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c] != 0), None)
        if p is None:
            return None
        a[c], a[p] = a[p], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def random_unimodular(rng, n):
    """A random integer matrix of determinant +-1, and its (integer) inverse:
    a row permutation of L U, with L unit lower and U unit upper triangular
    and entries of both in -1..1."""
    lower = [[1 if i == j else rng.randint(-1, 1) if i > j else 0 for j in range(n)]
             for i in range(n)]
    upper = [[1 if i == j else rng.randint(-1, 1) if i < j else 0 for j in range(n)]
             for i in range(n)]
    p = mat_mul(lower, upper)
    rng.shuffle(p)
    return p, mat_inverse(p)


# -- modules-q: K[T] and Kronecker modules over Q --------------------------------

# monic irreducible quadratics over Q, as (c0, c1) for x^2 + c1 x + c0
QUADRATICS = {"x^2+1": (1, 0), "x^2-2": (-2, 0), "x^2+x+1": (1, 1), "x^2-3": (-3, 0)}
EIGENVALUES = (-1, 0, 1, 2)


def block_size(block):
    return block[2] if block[0] == "J" else 2


def block_matrix(blocks):
    """Block diagonal of Jordan blocks ("J", lam, k) and companion blocks ("C", name)."""
    n = sum(block_size(b) for b in blocks)
    m = [[0] * n for _ in range(n)]
    o = 0
    for b in blocks:
        if b[0] == "J":
            _, lam, k = b
            for i in range(k):
                m[o + i][o + i] = lam
                if i + 1 < k:
                    m[o + i][o + i + 1] = 1
        else:
            c0, c1 = QUADRATICS[b[1]]
            m[o][o + 1] = -c0
            m[o + 1][o] = 1
            m[o + 1][o + 1] = -c1
        o += block_size(b)
    return m


def hom_dim(blocks_m, blocks_n):
    """dim Hom(M, N) for K[T]-modules given by their blocks.

    Jordan blocks with the same eigenvalue contribute min(sizes), identical
    companion blocks of an irreducible quadratic contribute its degree, and
    every other pair of blocks contributes 0.
    """
    total = 0
    for a in blocks_m:
        for b in blocks_n:
            if a[0] == b[0] == "J" and a[1] == b[1]:
                total += min(a[2], b[2])
            elif a[0] == b[0] == "C" and a[1] == b[1]:
                total += 2
    return total


def block_shape(shape, n, single=False):
    """Blocks of total size n with labels as indices: ("J", i, k) is a Jordan
    block of size k with the i-th eigenvalue, ("C", i) the i-th quadratic's
    companion block.  One Jordan block when `single`, else at least two."""
    if single:
        return [("J", shape.randrange(len(EIGENVALUES)), n)]
    while True:
        blocks, left = [], n
        while left:
            if left >= 2 and shape.random() < 0.3:
                blocks.append(("C", shape.randrange(len(QUADRATICS))))
                left -= 2
            else:
                k = shape.randint(1, min(3, left))
                blocks.append(("J", shape.randrange(len(EIGENVALUES)), k))
                left -= k
        if len(blocks) > 1:
            return blocks


def perturb(shape, blocks):
    """Blocks of the same total size whose multiset differs from `blocks`."""
    out = list(blocks)
    k = shape.randrange(len(out))
    b = out[k]
    count = len(EIGENVALUES) if b[0] == "J" else len(QUADRATICS)
    out[k] = b[:1] + ((b[1] + shape.randrange(1, count)) % count,) + b[2:]
    return out


class ModulesQ:
    """hom_space, is_indecomposable and are_isomorphic over Q.

    Inputs are K[T]-modules (one loop) of dimension 2-7 and Kronecker modules
    (I, B) of dimension 2-5 per vertex, so every hom system has at most 50
    unknowns.  B is a block diagonal of Jordan blocks and companion blocks of
    irreducible quadratics, conjugated at each vertex by a random unimodular
    integer matrix, so entries are rationals that grow during elimination.
    One algebra object per quiver serves every op.  Indecomposability is asked
    of one Jordan block at odd n and of several blocks at even n; isomorphism
    of isomorphic modules at even n and of non-isomorphic ones at odd n.

    A single companion block is indecomposable but has a non-split End, which
    `is_indecomposable` reports as decomposable (ROADMAP item 5).  Timed ops
    therefore never ask `is_indecomposable` of a single companion block; the
    benchmark counts that defect separately (see `nonsplit_probe`).
    """

    name = "modules-q"
    trace_cycles = 1
    STRATA = ([("L", op, n) for op in ("hom", "indecomposable") for n in range(2, 8)]
              + [("L", "isomorphic", n) for n in range(2, 7)]
              + [("K", op, n) for op in ("hom", "indecomposable", "isomorphic")
                 for n in range(2, 6)])

    def __init__(self, ppcat, seed):
        self.pp = ppcat
        self.seed = seed
        q = ppcat["quiver"]
        F = ppcat["scalars"].QQ
        self.loop = q.QuiverAlgebra("KT", q.Quiver("Loop", ("v",), (q.Arrow("t", "v", "v"),)), F)
        self.kronecker = q.QuiverAlgebra("Kr", q.Quiver("Kr", ("1", "2"), (
            q.Arrow("a", "1", "2"), q.Arrow("b", "1", "2"))), F)

    def module(self, rng, kind, blocks):
        """The module of labelled `blocks`, conjugated at each vertex."""
        Matrix = self.pp["linalg"].Matrix
        Representation = self.pp["rep"].Representation
        F = self.pp["scalars"].QQ
        b = block_matrix(blocks)
        n = len(b)
        if kind == "L":
            p, q = random_unimodular(rng, n)
            return Representation(self.loop, {"v": n},
                                  {"t": Matrix.from_rows(F, mat_mul(mat_mul(p, b), q))})
        p1, q1 = random_unimodular(rng, n)
        p2, _ = random_unimodular(rng, n)
        return Representation(self.kronecker, {"1": n, "2": n}, {
            "a": Matrix.from_rows(F, mat_mul(p2, q1)),
            "b": Matrix.from_rows(F, mat_mul(mat_mul(p2, b), q1))})

    def make_op(self, shape, rng, kind, op, n):
        """One op.  `shape` draws the block structure (which blocks share an
        eigenvalue or a quadratic), `rng` draws the eigenvalues and quadratics
        that the labels stand for and the conjugating matrices."""
        eigen = rng.sample(EIGENVALUES, len(EIGENVALUES))
        quads = rng.sample(sorted(QUADRATICS), len(QUADRATICS))

        def label(blocks):
            return [("J", eigen[b[1]], b[2]) if b[0] == "J" else ("C", quads[b[1]])
                    for b in blocks]

        if op == "hom":
            bm, bn = label(block_shape(shape, n)), label(block_shape(shape, n))
            return Op(op, (self.module(rng, kind, bm), self.module(rng, kind, bn)),
                      hom_dim(bm, bn))
        if op == "indecomposable":
            single = n % 2 == 1
            return Op(op, (self.module(rng, kind, label(block_shape(shape, n, single))),),
                      single)
        bm = block_shape(shape, n)
        same = n % 2 == 0
        bn = list(bm) if same else perturb(shape, bm)
        rng.shuffle(bn)
        return Op(op, (self.module(rng, kind, label(bm)), self.module(rng, kind, label(bn))),
                  same)

    def cycle(self, c):
        # every cycle and every seed gets the same block structures, so runs
        # differ only in the values the seed draws, not in how much work each
        # op is, however many cycles a run completes
        shape = random.Random("block structures")
        rng = cycle_rng(self.seed, c)
        ops = [self.make_op(shape, rng, *s) for s in self.STRATA]
        rng.shuffle(ops)
        return ops

    def warmup(self):
        rng = random.Random(-1)
        for kind in ("L", "K"):
            for op in ("hom", "indecomposable", "isomorphic"):
                self.call(self.make_op(rng, rng, kind, op, 2))

    def call(self, op):
        rep = self.pp["rep"]
        if op.kind == "hom":
            return len(rep.hom_space(*op.args))
        if op.kind == "indecomposable":
            return rep.is_indecomposable(*op.args)
        return rep.are_isomorphic(*op.args).isomorphic

    def check(self, op, verdict):
        return verdict == op.expected


def nonsplit_probe(ppcat):
    """How many single companion blocks (one per quadratic, on each quiver)
    `is_indecomposable` calls decomposable.  Each is indecomposable, so every
    count is a false negative; 0 once ROADMAP item 5 is fixed."""
    wl = ModulesQ(ppcat, 0)
    rng = random.Random(0)
    misses = 0
    for kind in ("L", "K"):
        for name in sorted(QUADRATICS):
            if not ppcat["rep"].is_indecomposable(wl.module(rng, kind, [("C", name)])):
                misses += 1
    return misses


# -- auslander-fp: Auslander algebras of interval modules over F_32003 ---------


def interval_hom(a, b):
    """Whether Hom([i,j], [k,l]) is nonzero for interval modules of linear A_n
    with arrows k -> k+1: exactly when k <= i <= l <= j (and then it is 1-dim)."""
    (i, j), (k, l) = a, b
    return k <= i <= l <= j


@functools.cache
def interval_subsets(n, size):
    """Every set of `size` distinct interval modules of linear A_n, keyed by
    the dimension of their Auslander algebra (the number of ordered pairs with
    nonzero Hom)."""
    intervals = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    out = {}
    for sub in itertools.combinations(intervals, size):
        out.setdefault(sum(interval_hom(a, b) for a in sub for b in sub), []).append(sub)
    return out


class AuslanderFp:
    """`funcat.auslander_algebra` and its census over F_32003.

    Per op: the Auslander algebra S of 4-7 distinct interval modules of linear
    A4 or A5, then S.radical(), a projective_row and a simple_module per
    idempotent, and functor_eval of every row on every module of the subset.
    A stratum fixes the quiver, the subset size and dim S (6-11, which keeps an
    op under ~0.3 s so a run holds at least 200 ops); the seed draws a subset
    with those numbers from the table of all of them, built once per process,
    so drawing costs the same for every seed.  The full A3-A5 algebras are in the baseline report.
    All ops draw from one pool of interval modules built at set-up.
    """

    name = "auslander-fp"
    trace_cycles = 4
    PRIME = 32003
    # (n of A_n, number of summands, dim S)
    STRATA = [(4, 4, 6), (4, 5, 8), (4, 6, 10), (5, 4, 7), (5, 5, 9), (5, 6, 10),
              (5, 7, 11)]

    def __init__(self, ppcat, seed):
        self.pp = ppcat
        self.seed = seed
        q = ppcat["quiver"]
        F = ppcat["scalars"].PrimeField(self.PRIME)
        Matrix = ppcat["linalg"].Matrix
        Representation = ppcat["rep"].Representation
        for n, size, _ in self.STRATA:
            interval_subsets(n, size)
        self.pool = {}
        for n in (4, 5):
            verts = tuple(str(v) for v in range(1, n + 1))
            arrows = tuple(q.Arrow("a%d" % v, str(v), str(v + 1)) for v in range(1, n))
            alg = q.QuiverAlgebra("A%d" % n, q.Quiver("A%d" % n, verts, arrows), F)
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    dims = {str(v): int(i <= v <= j) for v in range(1, n + 1)}
                    maps = {"a%d" % v: Matrix.from_rows(F, [[1]]) for v in range(i, j)}
                    self.pool[n, i, j] = Representation(alg, dims, maps)

    def make_op(self, rng, n, size, dim_s):
        sub = list(rng.choice(interval_subsets(n, size)[dim_s]))
        rng.shuffle(sub)
        h = [[int(interval_hom(a, b)) for b in sub] for a in sub]
        expected = (dim_s, dim_s - size, tuple(map(sum, h)), (1,) * size,
                    tuple(tuple(row) for row in h))
        return Op("census", tuple(self.pool[n, i, j] for i, j in sub), expected)

    def cycle(self, c):
        rng = cycle_rng(self.seed, c)
        strata = list(self.STRATA)
        rng.shuffle(strata)
        return [self.make_op(rng, *s) for s in strata]

    def warmup(self):
        self.call(self.make_op(random.Random(-1), 4, 4, 6))

    def call(self, op):
        fc = self.pp["funcat"]
        mods = op.args
        data = fc.auslander_algebra(mods)
        S = data.algebra
        rad = S.radical()
        rows = [fc.projective_row(data, k) for k in range(len(mods))]
        simples = [fc.simple_module(data, k) for k in range(len(mods))]
        evals = tuple(tuple(fc.functor_eval(V, X, data).dim for X in mods) for V in rows)
        return (S.dim, rad.dim, tuple(V.dim for V in rows), tuple(T.dim for T in simples),
                evals)

    def check(self, op, verdict):
        return verdict == op.expected


# -- cli-fixtures: in-process CLI requests over the shipped fixtures ------------

ISO4 = [{"certain": True, "index": str(k), "isomorphic": True} for k in range(4)]
ISO3 = ISO4[:3]

# argv (seeded commands get "--seed N" appended), expected exit code, and the
# report fields it must carry; values are as the report writes them
CLI_REQUESTS = [
    ("eval --builtin a2 --formula ann_a --module S1", 0,
     {"dim": "1", "dims": {"x@1": "1"}, "basis": [["1"]]}),
    ("eval --builtin a2 --formula div_a --module P2", 0,
     {"dim": "0", "dims": {"x@2": "0"}, "basis": []}),
    ("eval --builtin a2 --formula div_a --module P1", 0, {"dim": "1"}),
    ("implies --builtin a2 --from ann_a --to zero1", 0,
     {"holds": False, "mode": "exact", "witness_dims": {"1": "1", "2": "0"}}),
    ("implies --builtin a2 --from zero1 --to ann_a", 0, {"holds": True, "mode": "exact"}),
    ("implies --builtin a2 --from ann_a --to top1", 0, {"holds": True}),
    ("roundtrip --builtin a1tilde --forward I --back J --fixture jordan", 0,
     {"all_isomorphic": True, "results": ISO4}),
    ("roundtrip --builtin d4tilde --forward I4 --back J4 --fixture jordan", 0,
     {"all_isomorphic": True, "results": ISO4}),
    ("roundtrip --builtin morita2 --forward Sq --back Back --fixture spaces", 0,
     {"all_isomorphic": True, "results": ISO3}),
    ("funcat-auslander --builtin a2 --modules P1,P2,S1", 0,
     {"dim": "5", "idempotents": "3", "radical_dim": "2",
      "labels": ["e0", "f0_2_0", "f1_0_0", "e1", "e2"]}),
    ("funcat-quotient --builtin a2 --modules P1,P2,S1 --generator P1", 0,
     {"classes": [["row:0", "row:1", "simple:0"]], "discarded": ["row:2", "simple:1"],
      "certain": True}),
    ("funcat-quotient --builtin a2 --modules P1,P2,S1 --generator S1", 0,
     {"classes": [["row:0", "row:2"]], "discarded": ["row:1", "simple:0", "simple:1"],
      "certain": True}),
    ("funcat-eval --builtin a2 --modules P1,P2,S1 --functor row:0 --argument P1", 0,
     {"dim": "1"}),
    ("funcat-eval --builtin a2 --modules P1,P2,S1 --functor row:1 --argument P1", 0,
     {"dim": "1"}),
    ("funcat-eval --builtin a2 --modules P1,P2,S1 --functor simple:1 --argument P1", 0,
     {"dim": "0"}),
    ("tensor --builtin a3 --left L23 --module I13", 0, {"dim": "0"}),
    ("tensor --builtin a3 --left L23 --module I33", 0, {"dim": "1"}),
    ("tensor --builtin a3 --left L23 --module I23", 0, {"dim": "1"}),
    ("tensor --builtin a3 --left L23 --module I12", 0, {"dim": "0"}),
    ("interp-validate --builtin a1tilde --interp I", 0,
     {"valid": True, "mode": "testset", "arrows": {"a": True, "b": True}, "relations": []}),
    ("interp-validate --builtin d4tilde --interp I4", 0,
     {"valid": True, "mode": "testset",
      "arrows": {"a1": True, "a2": True, "a3": True, "a4": True}}),
    ("interp-validate --builtin morita2 --interp Sq", 0,
     {"valid": True, "mode": "exact",
      "relations": [{"ok": True, "relation": "-1*id(1) + v.u"},
                    {"ok": True, "relation": "-1*id(2) + u.v"}]}),
    ("interp-apply --builtin a1tilde --interp I --module J2", 0,
     {"dims": {"1": "2", "2": "2"},
      "module": "module I_J2 over KA1T {\n  dim 1 = 2;\n  dim 2 = 2;\n"
                "  map a = [[1, 0], [0, 1]];\n  map b = [[0, 1], [0, 0]];\n}"}),
    ("interp-apply --builtin d4tilde --interp I4 --module M0", 0,
     {"dims": {"0": "2", "1": "1", "2": "1", "3": "1", "4": "1"}}),
    ("repembed --builtin a1tilde --interp I --modules M0,J2", 0,
     {"indecomposable": {"0": True, "1": True}, "preserves_indecomposability": True,
      "reflects_isomorphism": True, "collapsed_pairs": [], "probabilistic": False}),
    ("repembed --builtin a1tilde --interp I --fixture jordan", 0,
     {"indecomposable": {"0": True, "1": True, "2": False, "3": False},
      "preserves_indecomposability": False, "reflects_isomorphism": True,
      "collapsed_pairs": [], "probabilistic": False}),
    ("dual --builtin a2 --formula ann_a", 0,
     {"formula": "pp ann_a_dual over KA2_op {\n  free x:1;\n  bound z0:2;\n"
                 "  eq 1: x - a*z0 = 0;\n}"}),
    ("freereal --builtin a2 --formula ann_a", 0, {"dims": {"1": "1", "2": "0"},
                                                  "tuple": [["1"]]}),
    ("freereal --builtin a2 --formula div_a", 0, {"dims": {"1": "1", "2": "1"}}),
    ("pair-eval --builtin a2 --pair q2 --module P1", 0, {"value": "1", "mode": "exact"}),
    ("pair-eval --builtin a2 --pair t3 --module P1", 0, {"value": "0"}),
    ("pair-eval --builtin a2 --pair q1 --module S1", 0, {"value": "1"}),
    ("pair-eval --builtin keps --pair socle_pair --module R", 0, {"value": "1"}),
    ("member --builtin a2 --pairs q1,t3 --module P1", 0, {"member": True}),
    ("member --builtin a2 --pairs q1,t3 --module S1", 0, {"member": False}),
    ("check-map --builtin a2 --rho mult_a --from-pair q2 --to-pair q3", 0,
     {"functional": True}),
]
SEEDED_COMMANDS = ("roundtrip", "repembed", "funcat-quotient")


class CliFixtures:
    """In-process `ppcat.cli.run(argv, stdout=StringIO)` over the shipped fixtures.

    Every request parses a fresh workspace, so caches start cold.  Commands that
    draw random numbers get a `--seed`, taken in turn from a few values the
    benchmark seed draws, so each such argv recurs every few cycles; no request
    passes `--jobs`.  Every repeat of an argv must produce a byte-identical
    report.
    """

    name = "cli-fixtures"
    trace_cycles = 2
    SEED_POOL = 8

    def __init__(self, ppcat, seed):
        self.pp = ppcat
        self.seed = seed
        rng = random.Random(seed)
        self.seeds = [str(rng.randrange(10 ** 6)) for _ in range(self.SEED_POOL)]
        self.reports = {}  # argv -> first report text

    def cycle(self, c):
        ops = []
        for text, code, fields in CLI_REQUESTS:
            argv = text.split()
            if argv[0] in SEEDED_COMMANDS:
                argv += ["--seed", self.seeds[c % self.SEED_POOL]]
            ops.append(Op("cli", tuple(argv), (code, fields)))
        cycle_rng(self.seed, c).shuffle(ops)
        return ops

    def warmup(self):
        self.call(Op("cli", tuple(CLI_REQUESTS[0][0].split()), None))

    def call(self, op):
        buf = io.StringIO()
        code = self.pp["cli"].run(list(op.args), stdout=buf)
        return code, buf.getvalue()

    def check(self, op, verdict):
        code, text = verdict
        want_code, fields = op.expected
        first = self.reports.setdefault(op.args, text)
        if code != want_code or text != first:
            return False
        doc = json.loads(text)
        return all(doc.get(k) == v for k, v in fields.items())


WORKLOADS = {w.name: w for w in (ModulesQ, AuslanderFp, CliFixtures)}

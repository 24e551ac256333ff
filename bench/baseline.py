"""One-shot baseline report for the ROADMAP Baseline rows; not gated.

    python3 bench/baseline.py

Times, one item per child process:
  - rref_with_pivots on a random square integer matrix, 40-120, over Q and F_32003;
  - hom_space(M, M) for a Kronecker module (I, B), B random, n = 4..12;
  - auslander_algebra of every interval module of linear A3, A4 and A5.
A child still running after CAP_S seconds is killed and its item prints
`capped`.  ppcat is imported from the `src/` directory next to this one.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
PRIME = 32003
CAP_S = 60  # seconds per item

ITEMS = ([("rref", f, n) for f in ("Q", "F") for n in (40, 60, 80, 100, 120)]
         + [("kronecker-hom", f, n) for f in ("Q", "F") for n in range(4, 13)]
         + [("auslander", f, n) for f in ("Q", "F") for n in (3, 4, 5)])


def item_name(kind, field, size):
    return "%s:%s:%d" % (kind, field, size)


def run_item(kind, field, size):
    """Build the input, time the one call, return (seconds, detail)."""
    sys.path.insert(0, SRC)
    from ppcat.linalg import Matrix, rref_with_pivots
    from ppcat.quiver import Arrow, Quiver, QuiverAlgebra
    from ppcat.rep import Representation, hom_space
    from ppcat.scalars import QQ, PrimeField
    from ppcat.funcat import auslander_algebra

    F = QQ if field == "Q" else PrimeField(PRIME)
    rng = random.Random(size)

    def rand_matrix(n, lo, hi):
        return Matrix.from_rows(F, [[F.from_int(rng.randint(lo, hi)) for _ in range(n)]
                                    for _ in range(n)])

    if kind == "rref":
        m = rand_matrix(size, -9, 9)
        t0 = time.perf_counter()
        _, pivots = rref_with_pivots(m)
        return time.perf_counter() - t0, "rank %d" % len(pivots)
    if kind == "kronecker-hom":
        q = Quiver("Kr", ("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "1", "2")))
        M = Representation(QuiverAlgebra("Kr", q, F), {"1": size, "2": size},
                           {"a": Matrix.identity(F, size), "b": rand_matrix(size, -3, 3)})
        t0 = time.perf_counter()
        basis = hom_space(M, M)
        return time.perf_counter() - t0, "%d unknowns, dim %d" % (2 * size * size, len(basis))
    verts = tuple(str(v) for v in range(1, size + 1))
    arrows = tuple(Arrow("a%d" % v, str(v), str(v + 1)) for v in range(1, size))
    alg = QuiverAlgebra("A", Quiver("A", verts, arrows), F)
    mods = []
    for i in range(1, size + 1):
        for j in range(i, size + 1):
            mods.append(Representation(
                alg, {str(v): int(i <= v <= j) for v in range(1, size + 1)},
                {"a%d" % v: Matrix.from_rows(F, [[1]]) for v in range(i, j)}))
    t0 = time.perf_counter()
    data = auslander_algebra(mods)
    return time.perf_counter() - t0, "%d indecomposables, dim %d" % (len(mods), data.algebra.dim)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--item", help=argparse.SUPPRESS)  # child mode
    args = p.parse_args(argv)
    if args.item:
        kind, field, size = args.item.split(":")
        seconds, detail = run_item(kind, field, int(size))
        print(json.dumps({"seconds": seconds, "detail": detail}))
        return 0
    print("%-22s %12s  %s" % ("item", "seconds", "detail"))
    for kind, field, size in ITEMS:
        name = item_name(kind, field, size)
        try:
            out = subprocess.run([sys.executable, os.path.abspath(__file__), "--item", name],
                                 capture_output=True, text=True, timeout=CAP_S)
        except subprocess.TimeoutExpired:
            print("%-22s %12s  over %d s" % (name, "capped", CAP_S), flush=True)
            continue
        if out.returncode != 0:
            print("%-22s %12s  %s" % (name, "error", out.stderr.strip().splitlines()[-1:]),
                  flush=True)
            continue
        res = json.loads(out.stdout.strip().splitlines()[-1])
        print("%-22s %12.3f  %s" % (name, res["seconds"], res["detail"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

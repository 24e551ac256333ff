"""ppcat benchmark: one workload, one process, one caller in a closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; ppcat is imported from the `src/` directory next to this
one and from nowhere else, and the run fails (exit 2, no result line) when it
is missing.  Each op is one request, sent only after the previous one
returned.  The last line on stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

--trace 0 times whole cycles of ops until their adjusted time reaches S
seconds (or their wall time 1.25 S) and at least 100 ops have run, and
reports the end-to-end metrics over every op of the run; set-up is repeated
between cycles, spread over the run, and its median reported.  Every op and
every set-up is bracketed by a host-speed probe, and its time is reported at
the probe's reference speed (see `adjusted`).
--trace 1 runs a fixed number of cycles untraced and then traced, checks both
passes give the same verdicts, reports the per-layer metrics, and writes the
spans to .bench_out/ under the repository root.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from tracing import LAYERS, COUNTED, Tracer  # noqa: E402
from workloads import WORKLOADS, nonsplit_probe  # noqa: E402

MIN_OPS = 100
SETUP_REPEATS = 15  # set-ups per run: one before the loop, the rest between cycles
WALL_SHARE = 1.25  # stop early when the host is this much slower than PROBE_S
HARD_STOP_S = 150  # wall-clock safety stop, well inside the 180 s limit
MODULES = LAYERS + COUNTED
PROBE_S = 0.0026  # a typical probe time on a 2.0 GHz Xeon vCPU (1.5-3.3 ms seen)


def probe_kernel(n=10, p=32003):
    """Fixed interpreter work that uses nothing ppcat could change: row
    reduction of an n x n integer matrix mod p, then dict and string work."""
    a = [[(i * 7 + j * 13 + i * j) % p + 1 for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            continue
        a[c], a[piv] = a[piv], a[c]
        inv = pow(a[c][c], -1, p)
        a[c] = [x * inv % p for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[c])]
    d = {"k%d" % i: i * i % p for i in range(300)}
    return sum(d.values()) + sum(map(sum, a))


def probe():
    """Seconds the probe takes now: less while the host leaves this core
    alone, more while its other tenants slow it down.  The collector is off
    while it runs, so a collection that ppcat's garbage is due lands in
    ppcat's op."""
    gc.disable()
    t0 = time.perf_counter()
    for _ in range(12):
        probe_kernel()
    dt = time.perf_counter() - t0
    gc.enable()
    return dt


def adjusted(seconds, before, after):
    """`seconds` of wall time, scaled to the probe's reference speed by the
    probes taken just before and just after it.

    The host slows this core by up to 2x, in spells from under a second to
    minutes.  The same op timed again and again spreads by 0.27-0.74 of its
    median (interquartile range) in wall time, and by 0.05-0.15 once scaled
    by its neighbouring probes, so the scaled time is what the end-to-end
    metrics report.  The probe runs no ppcat code, so a change to ppcat moves
    the scaled time as it moves the wall time at a fixed host speed.
    """
    return seconds * PROBE_S / ((before + after) / 2)


class MissingProgram(Exception):
    pass


def ppcat_modules():
    return {k: m for k, m in sys.modules.items() if k == "ppcat" or k.startswith("ppcat.")}


def import_ppcat():
    """Import ppcat afresh from SRC; returns {short name: module}."""
    for name in ppcat_modules():
        del sys.modules[name]
    if not os.path.isfile(os.path.join(SRC, "ppcat", "__init__.py")):
        raise MissingProgram("no ppcat package under %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("ppcat")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise MissingProgram("ppcat imported from %s, not from %s" % (pkg.__file__, SRC))
    return {name: importlib.import_module("ppcat." + name) for name in MODULES}


def set_up(workload_cls, seed):
    """Imports, algebras and input pools, the first cycle's inputs, warm-up."""
    t0 = time.perf_counter()
    wl = workload_cls(import_ppcat(), seed)
    first = wl.cycle(0)
    wl.warmup()
    return wl, first, time.perf_counter() - t0


def set_up_again(workload_cls, seed):
    """Time one more set-up, scaled by the probes around it, and discard it.
    The running workload's modules go back into sys.modules, since ppcat
    imports some names inside functions."""
    running = ppcat_modules()
    before = probe()
    _, _, dt = set_up(workload_cls, seed)
    dt = adjusted(dt, before, probe())
    for name in ppcat_modules():
        del sys.modules[name]
    sys.modules.update(running)
    gc.collect()  # free the discarded modules here, not during a timed op
    return dt


def attempt(wl, op):
    """Run one op; returns (verdict or None, seconds, raised)."""
    t0 = time.perf_counter()
    try:
        verdict = wl.call(op)
    except Exception:  # a failed request is counted, and the loop goes on
        dt = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return None, dt, True
    return verdict, time.perf_counter() - t0, False


def timed_run(workload_cls, seed, seconds):
    probe()  # warm the probe's own code before its first timing
    before = probe()
    wl, ops, dt = set_up(workload_cls, seed)
    after = probe()
    setups = [adjusted(dt, before, after)]
    start = time.perf_counter()
    latencies = []  # adjusted seconds per op
    failed = 0
    busy = 0.0  # wall seconds spent inside ppcat calls
    cycles = 0
    while True:
        before = probe()
        for op in ops:
            verdict, dt, raised = attempt(wl, op)
            after = probe()
            latencies.append(adjusted(dt, before, after))
            before = after
            busy += dt
            if raised or not wl.check(op, verdict):
                failed += 1
        cycles += 1
        done = sum(latencies)  # adjusted seconds so far
        if (done >= seconds or busy >= WALL_SHARE * seconds) and len(latencies) >= MIN_OPS:
            break
        if time.perf_counter() - start > HARD_STOP_S:
            print("stopped after %d cycles: wall-clock limit" % cycles, file=sys.stderr)
            break
        while len(setups) < SETUP_REPEATS and done >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(set_up_again(workload_cls, seed))
        ops = wl.cycle(cycles)
    n = len(latencies)
    print("%s: %d ops in %d cycles, %.2f s in ppcat (%.2f s adjusted), %d failed, %d set-ups"
          % (workload_cls.name, n, cycles, busy, sum(latencies), failed, len(setups)),
          file=sys.stderr)
    metrics = {
        "ops_per_s": (n / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": ((n - failed) / n, "ratio"),
    }
    return n, failed, metrics


def traced_run(workload_cls, seed, seconds):
    wl, _, _ = set_up(workload_cls, seed)
    ops = [op for c in range(wl.trace_cycles) for op in wl.cycle(c)]
    t0 = time.perf_counter()
    plain = [attempt(wl, op) for op in ops]
    wall_plain = time.perf_counter() - t0
    tracer = Tracer(wl.pp)
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced = []
        for i, op in enumerate(ops):
            tracer.op_id = i
            traced.append(attempt(wl, op))
        wall_traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    failed = 0
    for op, (v0, _, r0), (v1, _, r1) in zip(ops, plain, traced):
        if r0 or r1 or v0 != v1 or not wl.check(op, v1):
            failed += 1
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = wall_traced / wall_plain
    metrics["rep.nonsplit_indecomposable_misses"] = nonsplit_probe(wl.pp)
    print("%s: %d ops traced, %d spans, untraced %.2f s, traced %.2f s, %d failed"
          % (workload_cls.name, len(ops), metrics["trace.spans"], wall_plain,
             wall_traced, failed), file=sys.stderr)
    stem = os.path.join(ROOT, ".bench_out", "trace-%s-seed%d" % (workload_cls.name, seed))
    tracer.write(stem, {"workload": workload_cls.name, "seed": seed, "ops": len(ops)})
    return len(ops), failed, {k: (v, layer_unit(k)) for k, v in metrics.items()}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    run = traced_run if args.trace else timed_run
    try:
        attempted, failed, metrics = run(WORKLOADS[args.workload], args.seed, args.seconds)
    except MissingProgram as e:
        print("bench: %s" % e, file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

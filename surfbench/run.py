#!/usr/bin/env python3
"""surfclass benchmark: drive the real CLI verbs in-process and time them.

One client in one single-threaded process sends CLI invocations
(``surfclass.cli.run(argv)``) on generated input files as a closed
loop: each op starts when the previous one has returned.  A run repeats
passes over the workload's fixed op list until ``--seconds`` have
elapsed, checks every op's output against the answer known by
construction, and prints one JSON object as its last line.

    python3 surfbench/run.py --workload topology --seed 1 --seconds 55 --trace 0
    python3 surfbench/run.py --all --seed 1        # every workload, both modes

``--trace 0`` reports the end-to-end metrics with no wrappers
installed.  ``--trace 1`` alternates plain and traced passes and
reports per-layer self times and counters plus the tracing overhead.
See surfbench/README.md for the metric and workload definitions.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter
from types import SimpleNamespace

from spans import Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".surfbench")

MODULES = ("cellcomplex", "classify", "cli", "fileio", "intlinalg", "planegeom", "rewrite", "simplicial", "svg")
SETUP_REPEATS = 7   # setup_s is the median of this many set-ups
MIN_SAMPLES = 3     # runs of each op in a plain run, however long it has taken
TAIL_BEYOND = 10    # op_tail_ms: the highest percentile with this many ops of a pass beyond it

END_TO_END_UNITS = {"wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}

SELF_TIMES = [
    "cli", "fileio.parse", "cellcomplex.build", "cellcomplex.invariant_report", "rewrite.normalize",
    "classify.classify", "simplicial.refine", "simplicial.validate", "simplicial.to_cell_complex",
    "simplicial.boundary_matrices", "simplicial.homology", "intlinalg.snf", "intlinalg.mul",
    "planegeom.ifs_iterate", "planegeom.hausdorff", "planegeom.winding", "svg.render",
]
COUNTS = {
    "fileio.parse.calls": "count", "fileio.bytes_in": "B",
    "cellcomplex.build.calls": "count", "cellcomplex.invariant_report.calls": "count",
    "rewrite.normalize.calls": "count", "rewrite.moves": "count",
    "simplicial.refine.triangles": "count",
    "intlinalg.snf.calls": "count", "intlinalg.snf.nnz_in": "count", "intlinalg.mul.cells": "count",
    "planegeom.ifs_iterate.primitives": "count", "planegeom.hausdorff.points": "count",
    "svg.bytes_out": "B",
}
RATIOS = {  # name -> (numerator count, denominator count)
    "cellcomplex.invariant_report.calls_per_move": ("cellcomplex.invariant_report.calls", "rewrite.moves"),
    "rewrite.moves_per_letter": ("rewrite.moves", "rewrite.letters"),
    "intlinalg.snf.calls_per_homology": ("intlinalg.snf.calls", "simplicial.homology.calls"),
}


# ---------------------------------------------------------------------------
# set-up


def import_surfclass():
    """Fresh import of the package from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "surfclass" or m.startswith("surfclass.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    importlib.invalidate_caches()
    mods = {m: importlib.import_module(f"surfclass.{m}") for m in MODULES}
    if not os.path.abspath(mods["cli"].__file__).startswith(SRC + os.sep):
        raise ImportError(f"surfclass was imported from {mods['cli'].__file__}, not from {SRC}")
    return SimpleNamespace(**mods)


def setup(workload, seed, directory):
    """Import, generate and write inputs, warm up; returns (seconds, state)."""
    t0 = perf_counter()
    sc = import_surfclass()
    inputs = WORKLOADS[workload](sc, random.Random(f"{workload}:{seed}"), directory)
    inputs.write(directory)
    warm = []
    for verb in dict.fromkeys(op.verb for op in inputs.ops):
        op = next(op for op in inputs.ops if op.verb == verb)
        warm.append((op, run_op(sc, op)))
    return perf_counter() - t0, (sc, inputs, warm)


# ---------------------------------------------------------------------------
# ops and passes


def run_op(sc, op, tracer=None, op_id=None):
    """(latency in seconds, error text or None) for one op; never raises."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if tracer is None:
                code = sc.cli.run(op.argv)
            else:
                code = tracer.run_op(op_id, sc.cli.run, op.argv)
    except Exception:
        code, exc = None, traceback.format_exc()
    latency = perf_counter() - t0
    return latency, check_op(op, code, out.getvalue(), err.getvalue(), exc)


def check_op(op, code, stdout, stderr, exc):
    if exc is not None:
        return "traceback: " + exc.strip().splitlines()[-1]
    if "Traceback" in stderr:
        return "traceback on stderr"
    try:
        files = []
        for path in op.outputs:
            with open(path, "rb") as fh:
                files.append(fh.read())
        return op.check(code, stdout, stderr, files)
    except Exception as e:  # a malformed answer is a failed op, not a crashed run
        return f"check raised {type(e).__name__}: {e}"


def run_pass(sc, ops, samples, errors, stop=None, tracer=None, first_id=0):
    """Run each op once, appending its latency to samples[i] and any error to errors.

    ``stop()`` is asked before each op; a true answer ends the pass early.
    """
    # A full collection scans every tracked object, the benchmark's own
    # included.  Passes repeat the same allocations, so such a collection
    # would land in the same op every pass, and that op's fastest time
    # could not escape it.  Freezing what is alive at the start of a pass
    # leaves the ops' collections only their own objects to scan.
    gc.unfreeze()
    gc.collect()
    gc.freeze()
    for i, op in enumerate(ops):
        if stop is not None and stop():
            return
        latency, error = run_op(sc, op, tracer, first_id + i)
        samples[i].append(latency)
        if error:
            errors.append(f"{op.verb} {op.size}: {error}")


def calibrate():
    """Seconds for a fixed pure-Python loop; shows host drift, not surfclass."""
    t0 = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - t0


# ---------------------------------------------------------------------------
# metrics


def fastest_ops(samples):
    """Each op's fastest latency, in op-list order."""
    return [min(s) for s in samples]


def end_to_end(samples, setup_times):
    """End-to-end metrics from each op's fastest latency over the run.

    On a shared two-vCPU host, the speed of pure-Python code swings by
    up to 1.8x within seconds, and its typical speed drifts from one
    minute to the next.  Interference only ever adds time, so an op's
    fastest run is the steadiest estimate of its own cost, provided the
    op is sampled many times over the whole run.  ``wall_s`` is the sum
    of the fastest latencies over the op list, one run of each op
    without interference.  The tail is the (TAIL_BEYOND + 1)-th slowest
    op: the highest percentile with TAIL_BEYOND ops of a pass beyond it.
    """
    n_ops = len(samples)
    if n_ops <= TAIL_BEYOND:
        raise ValueError(f"a pass needs more than {TAIL_BEYOND} ops")
    fastest = sorted(fastest_ops(samples))
    values = {
        "wall_s": sum(fastest),
        "op_p50_ms": 1000.0 * statistics.median(fastest),
        "op_tail_ms": 1000.0 * fastest[-TAIL_BEYOND - 1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }
    pct = 100.0 * (n_ops - TAIL_BEYOND) / n_ops
    counts = [len(s) for s in samples]
    note = (f"op_tail_ms is p{pct:.1f} of the {n_ops} ops of a pass ({TAIL_BEYOND} ops beyond it); "
            f"each op's fastest of {min(counts)} to {max(counts)} runs")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, note


def per_layer(tracer, n_traced, overhead):
    selfs = tracer.self_times()
    counts = tracer.counts
    out = {f"{name}.self_s": {"value": selfs.get(name, 0.0) / n_traced, "unit": "s"} for name in SELF_TIMES}
    for name, unit in COUNTS.items():
        out[name] = {"value": counts.get(name, 0) / n_traced, "unit": unit}
    for name, (num, den) in RATIOS.items():
        d = counts.get(den, 0)
        out[name] = {"value": counts.get(num, 0) / d if d else 0.0, "unit": "ratio"}
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def op_curve(ops, samples):
    """Per-op input size with its fastest latency over the plain passes."""
    return [dict(op.size, verb=op.verb, latency_ms=1000.0 * lat) for op, lat in zip(ops, fastest_ops(samples))]


def context():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    lines = 0
    for dirpath, _, names in os.walk(SRC):
        for n in names:
            if n.endswith(".py"):
                with open(os.path.join(dirpath, n), encoding="utf-8") as fh:
                    lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu_model": model, "src_lines": lines}


# ---------------------------------------------------------------------------
# measurement and report


def measure(args):
    directory = os.path.join(OUT, "inputs", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup_times, fingerprints, errors = [], set(), []
        attempted = 0

        def set_up():
            nonlocal attempted
            seconds, (sc, inputs, warm_results) = setup(args.workload, args.seed, directory)
            setup_times.append(seconds)
            fingerprints.add(inputs.fingerprint())
            attempted += len(warm_results)
            errors.extend(f"warm-up {op.verb} {op.size}: {e}" for op, (_, e) in warm_results if e)
            return sc, inputs.ops

        # Set-up is repeated between passes, so that its samples see the
        # same swings of host speed as the passes do.  Each repeat is a
        # fresh import, and the passes after it use that import.
        sc, ops = set_up()
        calib_before = calibrate()
        plain = [[] for _ in ops]
        traced = [[] for _ in ops]
        tracer = Tracer()
        n_traced = 0
        t0 = perf_counter()

        def time_up():
            return perf_counter() - t0 >= args.seconds and min(len(s) for s in plain) >= MIN_SAMPLES

        # A plain run may stop inside a pass, once every op has been
        # sampled MIN_SAMPLES times; a traced run stops only between
        # whole passes.
        def finished():
            if args.trace:
                return n_traced >= 1 and perf_counter() - t0 >= args.seconds
            return time_up()

        while not finished():
            run_pass(sc, ops, plain, errors, None if args.trace else time_up)
            if args.trace:
                tracer.install(sc)
                try:
                    run_pass(sc, ops, traced, errors, None, tracer, n_traced * len(ops))
                finally:
                    tracer.uninstall()
                n_traced += 1
            if len(setup_times) < SETUP_REPEATS:
                sc, ops = set_up()
        gc.unfreeze()
        while len(setup_times) < SETUP_REPEATS:
            set_up()
        calib_after = calibrate()

        if len(fingerprints) != 1:
            errors.append("input generation is not deterministic for this seed")
        attempted += sum(len(s) for s in plain + traced)
        e2e, tail_note = end_to_end(plain, setup_times)
        if args.trace:
            metrics = per_layer(tracer, n_traced, sum(fastest_ops(traced)) - e2e["wall_s"]["value"])
        else:
            metrics = e2e
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "fingerprint": fingerprints.pop() if len(fingerprints) == 1 else sorted(fingerprints),
            "context": dict(context(), calib_before_s=calib_before, calib_after_s=calib_after),
            "runs": {"ops": len(ops), "plain_per_op": [len(s) for s in plain], "traced_passes": n_traced},
            "setup_times_s": setup_times,
            "latencies_s": {"plain": plain, "traced": traced if args.trace else None},
            "tail": tail_note,
            "attempted": attempted,
            "failed": len(errors),
            "fail_ratio": len(errors) / attempted,
            "errors": errors[:50],
            "end_to_end": e2e,
            "per_layer": metrics if args.trace else None,
            "op_curve": op_curve(ops, plain),
        }
        write_report(args, report, tracer if args.trace else None)
        return report, metrics
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def write_report(args, report, tracer):
    os.makedirs(os.path.join(OUT, "reports"), exist_ok=True)
    stem = os.path.join(OUT, "reports", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if tracer is not None:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["op", "id", "parent", "name", "start", "end"], "spans": tracer.spans},
                      fh, separators=(",", ":"))
    report["report_file"] = os.path.relpath(stem + ".json", ROOT)


def print_report(report, metrics):
    ctx = report["context"]
    runs = report["runs"]
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  ops {runs['ops']}  "
          f"plain runs per op {min(runs['plain_per_op'])}-{max(runs['plain_per_op'])}  "
          f"traced passes {runs['traced_passes']}")
    print(f"inputs sha256 {report['fingerprint']}")
    print(f"python {ctx['python']}  nproc {ctx['nproc']}  cpu {ctx['cpu_model']}  src lines {ctx['src_lines']}")
    print(f"calibration loop {ctx['calib_before_s']:.4f} s before, {ctx['calib_after_s']:.4f} s after")
    print(report["tail"])
    print(f"fail_ratio = {report['fail_ratio']:.6g} ({report['failed']} of {report['attempted']} ops)")
    for e in report["errors"]:
        print(f"  FAILED {e}")
    if report["trace"]:
        for row in report["op_curve"]:
            print("  op " + " ".join(f"{k}={v}" for k, v in row.items()))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"report written to {report['report_file']}")


def run_all(args):
    """Every workload with tracing off and on, one child process at a time."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true", help="run every workload, tracing off then on")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("--workload or --all is required")
    try:
        import_surfclass()
    except ImportError as e:
        print(f"surfbench: cannot import surfclass from {SRC}: {e}", file=sys.stderr)
        return 2
    report, metrics = measure(args)
    print_report(report, metrics)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

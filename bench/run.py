#!/usr/bin/env python3
"""Benchmark of the bigbracket engine, driven through ``bigbracket.cli.main``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from ``src/``.
One process, one client, a closed loop: the seeded operations of a workload
(one "pass", see workloads.py) run back to back, and every verdict is
checked.  The number of passes is fixed by ``--seconds`` and the workload's
nominal pass time, so every run of a workload does the same work.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs one untraced pass, then two traced passes (tracing.py).
It reports the counts of the first traced pass and the mean times of both.
It asserts that traced stdout equals untraced stdout, that every count
repeats exactly in the second traced pass, and that every metric layers.json
expects on the workload is nonzero.

The last stdout line is the JSON result; a ``diagnostics`` line before it
carries the error rate, the tail percentile, its sample count and blocks, a
calibration probe and the load average (never used to rescale a metric).
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 21    # setup_s is the median of this many fresh imports
MIN_PASSES = 2        # wall_s is the mean pass time over at least this many
TAIL_BEYOND = 10      # op_tail_s has at least this many samples above it
TAIL_BLOCK = 100      # op_tail_s is a median over blocks of at least this many samples


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# engine loading and one operation
# ---------------------------------------------------------------------------


def import_engine():
    """A fresh import of bigbracket from this checkout's src/."""
    for name in [n for n in sys.modules if n == "bigbracket" or n.startswith("bigbracket.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    cli = importlib.import_module("bigbracket.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        fail(f"bigbracket was imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(docs):
    """Import the engine, then load and materialize every document once."""
    t0 = time.perf_counter()
    cli = import_engine()
    specfile = sys.modules["bigbracket.specfile"]
    for doc in docs:
        try:
            specfile.materialize(specfile.load_document(doc.path))
        except specfile.DocumentError:
            pass          # the malformed input; its exit code is checked when it runs
    return time.perf_counter() - t0, cli


def run_op(cli, op):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(list(op.argv))
        except Exception as exc:          # a crash is a failed operation
            code = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
    return dt, code, out.getvalue(), err.getvalue()


def check_lines(stdout: str):
    lines = []
    for line in stdout.splitlines():
        if line.startswith("check "):
            name, _, rest = line[len("check "):].partition(": ")
            lines.append((name, rest.split(" ", 1)[0]))
    return lines


def verdict(op, code, stdout: str, stderr: str):
    """None when the operation behaved as known by construction, else why not."""
    if not isinstance(code, int):
        return f"raised {code}"
    if code != op.exit:
        return f"exit {code}, expected {op.exit}"
    if op.stdout is not None and stdout != op.stdout:
        return "stdout differs from the golden output"
    if op.lines is not None and check_lines(stdout) != [tuple(x) for x in op.lines]:
        return f"check lines {check_lines(stdout)}, expected {op.lines}"
    if op.exit == 1 and "\nresult: FAIL (" not in stdout:
        return "no FAIL result line"
    if op.exit == 2 and not stderr.startswith("error: "):
        return "no error line on stderr"
    return None


def run_pass(cli, ops, latencies, failures):
    """One pass over the operations; returns the stdouts and exit codes."""
    seen = []
    for op in ops:
        dt, code, stdout, stderr = run_op(cli, op)
        latencies.append(dt)
        problem = verdict(op, code, stdout, stderr)
        if problem:
            failures.append(f"{' '.join(op.argv)}: {problem}")
        seen.append((code, stdout))
    return seen


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def calibration_probe() -> float:
    """A fixed pure-Python workload; its time tracks machine speed only."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 3000):
        acc += Fraction(k % 7 - 3, k)
    total = 0
    for k in range(200000):
        total += k * k % 13
    return time.perf_counter() - t0


def op_median(ops, latencies):
    """Median, over the distinct operations, of each one's mean latency in the run."""
    by_op = {}
    for k, dt in enumerate(latencies):
        by_op.setdefault(tuple(ops[k % len(ops)].argv), []).append(dt)
    return statistics.median(statistics.fmean(v) for v in by_op.values())


def tail_at(samples):
    """Value and percentile of the highest rank with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def tail(latencies, ops_per_pass):
    """Median over blocks of whole passes of each block's tail, and the blocks' sizes.

    A block holds at least TAIL_BLOCK samples (all of them if the run has
    fewer), so a burst of host contention moves the tail of one block only.
    """
    passes = len(latencies) // ops_per_pass
    per_block = min(passes, math.ceil(TAIL_BLOCK / ops_per_pass))
    count = passes // per_block
    bounds = [k * per_block * ops_per_pass for k in range(count)] + [len(latencies)]
    blocks = [latencies[a:b] for a, b in zip(bounds, bounds[1:])]
    values = [tail_at(block) for block in blocks]
    return (statistics.median(v for v, _ in values),
            statistics.median(pct for _, pct in values), [len(b) for b in blocks])


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def pass_count(seconds: float, nominal: float, ops_per_pass: int) -> int:
    """Passes filling `seconds` at the seed commit, enough for a median and a tail."""
    return max(MIN_PASSES, math.ceil((TAIL_BEYOND + 1) / ops_per_pass),
               round(seconds / nominal))


def measure(cli, ops, passes, failures):
    latencies, times = [], []
    for _ in range(passes):
        gc.collect()
        t0 = time.perf_counter()
        run_pass(cli, ops, latencies, failures)
        times.append(time.perf_counter() - t0)
    return latencies, times


def traced(cli, ops, workload, layers, failures, problems):
    """One untraced pass, then two traced ones; `problems` gets failed assertions."""
    import tracing

    latencies = []
    gc.collect()
    t0 = time.perf_counter()
    plain = run_pass(cli, ops, latencies, failures)
    untraced_wall = time.perf_counter() - t0
    tracer = tracing.Tracer()
    tracer.install()
    snapshots, walls = [], []
    for _ in range(2):
        tracer.reset()
        gc.collect()
        t0 = time.perf_counter()
        seen = run_pass(cli, ops, latencies, failures)
        walls.append(time.perf_counter() - t0)
        snapshots.append(tracing.layer_metrics(tracer))
        for op, a, b in zip(ops, plain, seen):
            if a != b:
                problems.append(f"{' '.join(op.argv)}: traced output differs from untraced")
    first, second = snapshots
    for name, value in first.items():
        if not name.endswith(".s") and value != second[name]:
            problems.append(f"{name} is {value} then {second[name]} in two traced passes")
    for metric in layers:
        if workload in metric["nonzero_on"] and not first[metric["name"]]:
            problems.append(f"{metric['name']} reads zero on {workload}")
    metrics = dict(first)
    for name in metrics:
        if name.endswith(".s"):
            metrics[name] = (first[name] + second[name]) / 2
    metrics["trace.overhead_s"] = statistics.mean(walls) - untraced_wall
    return latencies, metrics


def main():
    args = parse_args()
    if not os.path.isfile(os.path.join(SRC, "bigbracket", "cli.py")):
        fail(f"no engine source at {SRC}; run from the root of a bigbracket checkout")
    if os.environ.get("PYTHONHASHSEED") != "0":
        # fixed hashing makes set and dict layouts, and so the timings, repeatable
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)
    with open(os.path.join(HERE, "layers.json")) as fh:
        layers = json.load(fh)["metrics"]

    os.chdir(ROOT)
    workdir = os.path.join(".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    build = workloads.build(args.workload, args.seed, workdir, golden)
    os.makedirs(workdir, exist_ok=True)
    try:
        for doc in build.docs:
            with open(doc.path, "w") as fh:
                fh.write(doc.text)
        probe_before = calibration_probe()
        setups = []
        for _ in range(SETUP_REPEATS):
            seconds, cli = setup(build.docs)
            setups.append(seconds)
            gc.collect()      # free the previous copy of the engine before the next
        # Move the engine's modules and the harness's inputs out of the collector's
        # reach: a full collection would otherwise rescan them inside whichever
        # operation it lands in.  Objects the operations create are still collected.
        gc.freeze()
        failures, problems = [], []
        if args.trace:
            latencies, values = traced(cli, build.ops, args.workload, layers, failures,
                                       problems)
            wanted = spec["per_layer"]
        else:
            count = pass_count(args.seconds, workloads.NOMINAL_PASS_S[args.workload],
                               len(build.ops))
            latencies, passes = measure(cli, build.ops, count, failures)
            # The host runs in fast and slow phases of seconds to minutes.  The
            # mean of each operation over its repeats, unlike a median of all
            # samples, does not jump with the share of the run spent in a phase.
            p50 = op_median(build.ops, latencies)
            tail_value, tail_pct, tail_blocks = tail(latencies, len(build.ops))
            values = {
                "wall_s": statistics.fmean(passes),
                "op_p50_s": p50,
                "op_tail_s": tail_value,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            wanted = spec["end_to_end"]
        probe_after = calibration_probe()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(".bench_work")

    attempted = len(latencies)
    diagnostics = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops_per_pass": len(build.ops), "error_rate": len(failures) / attempted,
        "failures": (problems + failures)[:5],
        "calibration_probe_s": [round(probe_before, 6), round(probe_after, 6)],
        "loadavg": list(os.getloadavg()),
    }
    if not args.trace:
        diagnostics.update(pass_s=[round(x, 4) for x in passes], op_samples=attempted,
                           op_tail_percentile=round(tail_pct, 2),
                           op_tail_block_samples=tail_blocks)
    print("diagnostics " + json.dumps(diagnostics))
    correct = not failures and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of the map-space exploration stack.

    python3 perfbench/run.py --workload search-long|sweep-warm|serve-closed \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --repeat N --workload W [--seconds S] [--seed N]

Builds the `perfbench` batch runner and the `mapex` binary from source
(into $CARGO_TARGET_DIR, default `.bench_build`), then runs the workload in
batches, each a fresh process doing its own set-up followed by whole rounds
of the same ops, until the batches have measured for S seconds. The last
line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics untraced, per-layer metrics
traced). `--repeat N` runs the workload N times on seeds S, S+1, ... and
prints each end-to-end metric's median, quartiles, quartile spread and
max/min ratio.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Whole rounds per batch (one fresh process each), so a run spreads its ops
# over several processes and sets up several times.
ROUNDS = {"search-long": 1, "sweep-warm": 2, "serve-closed": 1}

# A run never starts a batch that could push it past this wall time.
WALL_LIMIT_S = 150.0

# Metric names and units, as the repository's BENCHMARK.json declares them.
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    DECLARED = json.load(f)
END_TO_END = [(m["name"], m["unit"]) for m in DECLARED["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in DECLARED["per_layer"]]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    t = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return t if os.path.isabs(t) else os.path.join(ROOT, t)


def build():
    """Builds both binaries; returns (perfbench, mapex) paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for manifest, extra in (("perfbench/Cargo.toml", []), ("Cargo.toml", ["-p", "mapex-cli"])):
        cmd = ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
               os.path.join(ROOT, manifest)] + extra
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise SystemExit("build failed: " + " ".join(cmd))
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "mapex")


def run_batch(perfbench, mapex, workload, seed, batch, trace):
    """One fresh batch process; returns (wall after set-up, report)."""
    work = os.path.join(ROOT, ".bench_work")
    os.makedirs(work, exist_ok=True)
    cmd = [perfbench, "batch", "--workload", workload, "--seed", str(seed),
           "--batch", str(batch), "--rounds", str(ROUNDS[workload]),
           "--trace", str(int(trace)), "--mapex", mapex, "--work", work]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready_at = None
        last = None
        for line in proc.stdout:
            if ready_at is None and line.strip() == "ready":
                ready_at = time.perf_counter()
            elif line.strip():
                last = line
        rc = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0 or ready_at is None or last is None:
        raise SystemExit(f"batch {batch} of {workload} failed (exit {rc})")
    return time.perf_counter() - ready_at, json.loads(last)


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run(workload, seed, seconds, trace):
    perfbench, mapex = build()
    begin = time.perf_counter()
    batches = []
    measured = 0.0
    while measured < seconds:
        if batches:
            per_batch = (time.perf_counter() - begin) / len(batches)
            if time.perf_counter() - begin + per_batch > WALL_LIMIT_S:
                break
        wall, report = run_batch(perfbench, mapex, workload, seed, len(batches), trace)
        batches.append(report)
        measured += wall
    # An op is [kind, CPU ms, wall ms, samples, failed].
    ops = [op for r in batches for op in r["ops"]]
    ok = [op for op in ops if not op[4]]
    errors = [e for r in batches for e in r["errors"]]
    geomeans = {r["edp_geomean"] for r in batches}
    if len(geomeans) != 1:
        errors.append(f"batches disagree on edp_geomean: {sorted(map(str, geomeans))}")
    for e in errors:
        log("check failed: " + e)
    if not ok:
        raise SystemExit("no op succeeded")
    if trace:
        metrics = {}
        for name, unit in PER_LAYER:
            vals = [r["layers"][name] for r in batches]
            metrics[name] = {"value": statistics.median(vals), "unit": unit}
    else:
        cpu_ms = [op[1] for op in ok]
        samples = sum(op[3] for op in ok)
        values = {
            "setup_s": statistics.median(r["setup_cpu_s"] for r in batches),
            "op_ms_p50": statistics.median(cpu_ms),
            "op_ms_p90": p90(cpu_ms),
            "evals_per_s": samples / (sum(cpu_ms) * 1e-3),
            "edp_geomean": next(iter(geomeans)),
            "peak_rss_mb": statistics.median(r["rss_kb"] for r in batches) / 1024.0,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
        wall_ms = [op[2] for op in ok]
        log(f"{workload}: wall-clock reference (not a metric): op p50 "
            f"{statistics.median(wall_ms):.4g} ms, p90 {p90(wall_ms):.4g} ms, "
            f"{samples / (sum(wall_ms) * 1e-3):.6g} samples/s")
    log(f"{workload}: {len(batches)} batch(es), {len(ops)} op(s), {len(ok)} ok")
    return {"correct": not errors, "attempted": len(ops), "failed": len(ops) - len(ok),
            "metrics": metrics}


def repeat(workload, seed, seconds, n):
    """Repeatability: n runs on seeds seed..seed+n-1, spread per metric."""
    results = []
    for i in range(n):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed + i), "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            raise SystemExit(f"run {i} failed (exit {out.returncode})")
        results.append(json.loads(out.stdout.strip().splitlines()[-1]))
        log(f"run {i + 1}/{n}: " + json.dumps({k: v["value"] for k, v in results[-1]["metrics"].items()}))
    print(f"{workload}: {n} runs, seeds {seed}..{seed + n - 1}, {seconds} s each")
    print(f"{'metric':<14} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} {'max/min':>8}")
    for name, _ in END_TO_END:
        vals = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:<14} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{(q3 - q1) / med:>8.4f} {max(vals) / min(vals):>8.4f}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share: {sorted(shares)}; correct: {all(r['correct'] for r in results)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0)
    args = ap.parse_args()
    if args.repeat:
        repeat(args.workload, args.seed, args.seconds, args.repeat)
        return
    print(json.dumps(run(args.workload, args.seed, args.seconds, args.trace)))


if __name__ == "__main__":
    main()

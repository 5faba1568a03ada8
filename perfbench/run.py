#!/usr/bin/env python3
"""The repository benchmark's entry point.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Builds the `perfbench` binary (a package of its own in this directory), then
runs repetitions ("reps") of one workload, each in a fresh process, until
`--seconds` have passed (at least MIN_REPS reps). Every rep of one seed does
bit-identical simulated work, so the simulated metrics are the same in every
rep and the host metrics are reported as medians over the reps, except host
throughput, which is reported as its 10th percentile over the reps.

--trace 0 reports the end-to-end metrics from reps with every observer off;
before them, on the full-stack workloads, one rep runs with the history
recorder attached and must pass the exactly-once audit.
--trace 1 alternates untraced and traced reps and reports the per-layer
metrics: call meters, counters and phase percentiles from the traced reps,
host time per poll and per request from the untraced rep of each pair.
Spans of the first traced rep are written to perfbench/out/.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only when
every correctness check passed; 2 when the benchmark could not run at all.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ("hmread_read_heavy", "hmwrite_write_heavy_crash", "log_kv_direct")
DEFAULT_SEED = 42
HELD_OUT_SEED = 7741
MIN_REPS = 3
MIN_PAIRS = 2
REP_TIMEOUT_S = 150

# (name, unit): the end-to-end metrics, in BENCHMARK.json order.
END_TO_END = [
    ("sim_req_per_wall_s", "req/s"),
    ("cost_growth", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("log_appends_per_req", "count"),
    ("storage_mb", "MB"),
    ("success_frac", "ratio"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", BENCH / "target"))
    if not target.is_absolute():
        target = ROOT / target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        log(f"perfbench: cannot run cargo: {e}")
        return None
    binary = target / "release" / "perfbench"
    if done.returncode != 0 or not binary.exists():
        log("perfbench: build failed")
        return None
    return binary


class RepFailed(Exception):
    pass


def rep(binary, workload, seed, mode, scale, spans=None):
    """Runs one rep in a fresh process and returns its JSON record."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--scale", repr(scale)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RepFailed(f"{mode} rep timed out after {REP_TIMEOUT_S} s")
    if done.returncode != 0:
        raise RepFailed(f"{mode} rep exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RepFailed(f"{mode} rep printed no result")


def problems_of(reps):
    """Correctness problems across reps of one seed: each rep's own
    (audit, content checks) plus any difference in simulated work."""
    found = []
    for r in reps:
        found += [f"{r['mode']} rep: {p}" for p in r["problems"]]
    fingerprints = {r["fingerprint"] for r in reps}
    if len(fingerprints) > 1:
        found.append(f"reps of one seed did different simulated work: fingerprints {sorted(fingerprints)}")
    polls = {r["polls"] for r in reps}
    if len(polls) > 1:
        found.append(f"reps of one seed polled differently: {sorted(polls)}")
    return found


def median_of(reps, key):
    return statistics.median(r[key] for r in reps)


def low_decile_of(reps, key):
    """10th percentile over reps, interpolated between samples. A shared
    host runs markedly faster for stretches of several reps at a time; the
    rate it sustains in 9 reps of 10 repeats far better from run to run
    than the median does (see BASELINE.md)."""
    return statistics.quantiles((r[key] for r in reps), n=10, method="inclusive")[0]


def end_to_end(reps):
    """Metric values from untraced reps: host numbers over the reps,
    simulated numbers from the first rep (they are identical in every rep)."""
    first = reps[0]
    p99 = first["req_p99"] or {"ms": 0.0}
    return {
        "sim_req_per_wall_s": low_decile_of(reps, "sim_req_per_wall_s"),
        "cost_growth": median_of(reps, "cost_growth"),
        "setup_s": median_of(reps, "setup_s"),
        "peak_rss_mb": median_of(reps, "peak_rss_mb"),
        "req_p50_ms": (first["req_p50"] or {"ms": 0.0})["ms"],
        "req_p99_ms": p99["ms"],
        "log_appends_per_req": first["log_appends_per_req"],
        "storage_mb": first["storage_mb"],
        "success_frac": 1.0 - first["failed_frac"],
    }


def describe_pctl(p):
    if p is None:
        return "no samples"
    return f"p{p['pct']:g} of n={p['count']}, {p['beyond']} beyond"


def run_untraced(binary, args):
    checked = []
    if args.workload != "log_kv_direct":
        checked.append(rep(binary, args.workload, args.seed, "audited", args.scale))
    reps = []
    start = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - start < args.seconds:
        reps.append(rep(binary, args.workload, args.seed, "plain", args.scale))
    values = end_to_end(reps)
    first = reps[0]
    for name, unit in END_TO_END:
        extra = ""
        if name == "req_p50_ms":
            extra = f"  ({describe_pctl(first['req_p50'])})"
        elif name == "req_p99_ms":
            extra = f"  ({describe_pctl(first['req_p99'])})"
        elif name == "sim_req_per_wall_s":
            extra = f"  (10th percentile of {len(reps)} reps)"
        elif name in ("cost_growth", "setup_s", "peak_rss_mb"):
            extra = f"  (median of {len(reps)} reps)"
        print(f"{name:<22} {values[name]:.6g} {unit}{extra}")
    print(f"{'failed_frac':<22} {first['failed_frac']:.6g} ratio  "
          f"(errors {first['errors']}, undrained {first['undrained']}, "
          f"content checks failed {first['content_failures']}, of {first['attempted']} attempted)")
    print(f"{'req_tail_ms':<22} {(first['req_tail'] or {'ms': 0})['ms']:.6g} ms  ({describe_pctl(first['req_tail'])})")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return checked + reps, metrics


def layer_metrics():
    """(name, unit) of every per-layer metric, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def run_traced(binary, args):
    names = layer_metrics()
    spans = BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    plain, traced = [], []
    start = time.monotonic()
    while len(traced) < MIN_PAIRS or time.monotonic() - start < args.seconds:
        plain.append(rep(binary, args.workload, args.seed, "plain", args.scale))
        traced.append(rep(binary, args.workload, args.seed, "traced", args.scale,
                          spans if not traced else None))
    known = {name for name, _ in names}
    for t in traced:
        unknown = set(t["layers"]) - known
        if unknown:
            raise RepFailed(f"traced rep reports metrics BENCHMARK.json does not name: {sorted(unknown)}")
    pairs = list(zip(plain, traced))
    # Host time per poll and per request comes from the observer-free
    # plain rep of each pair (same polls, checked by problems_of); only the
    # Env calls' share comes from the traced rep's meters.
    derived = {
        "substrate.host_ns_per_poll": lambda p, t: p["window_s"] * 1e9 / p["polls"],
        "common.observer_overhead_frac": lambda p, t: t["window_s"] / p["window_s"] - 1.0,
    }
    if traced[0]["env_host_s"] is not None:
        derived["runtime.host_us_per_req"] = (
            lambda p, t: (p["window_s"] - t["env_host_s"]) / p["completed"] * 1e6)
    metrics = {}
    for name, unit in names:
        note = ""
        if name in derived:
            value = statistics.median(derived[name](p, t) for p, t in pairs)
        elif name in traced[0]["layers"]:
            value = statistics.median(t["layers"][name] for t in traced)
        else:
            value, note = 0.0, "  (not reached on this workload)"
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<36} {value:.6g} {unit}{note}")
    print(f"spans of the first traced rep: {spans.relative_to(ROOT)}")
    return plain + traced, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long to keep running reps (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, observers off; 1: per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplier on the measured window (default 1; for run-length studies)")
    args = parser.parse_args()
    if args.seed < 0 or args.scale <= 0:
        parser.error("--seed must be non-negative and --scale positive")

    binary = build()
    if binary is None:
        return 2
    try:
        if args.trace:
            reps, metrics = run_traced(binary, args)
        else:
            reps, metrics = run_untraced(binary, args)
    except (RepFailed, OSError, KeyError, ValueError) as e:
        log(f"perfbench: {e}")
        return 2
    problems = problems_of(reps)
    for p in problems:
        log(f"perfbench: INCORRECT: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""torusgas benchmark: end-to-end and per-layer metrics of the CLI workloads.

Runs one workload (or ``all``, interleaved round-robin) for about
``--seconds`` seconds.  Every sample is a fresh single-threaded process
(``worker.py``) that runs the whole driver call, so set-up, imports and
memory are those a user of the command sees.  Medians come from repeated
samples; each sample's outputs are checked, and a failed sample counts
against ``failed``.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json
(wall time, member-steps per second, set-up time, peak memory).  With
``--trace 1`` it alternates untraced and traced samples and reports the
per-layer metrics: self time per layer, per-call costs, exact work counters
and the tracing overhead.

Before measuring, each workload runs once at toy size with the reference
seed; that warm-up fills the bytecode and file caches and its summary is
compared with the values the unchanged package recorded (reference.json).
The comparison is reported, not gated.

Usage: python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

The last line of standard output is the JSON result; the full record,
including the environment and every sample, is written under
``.bench_build/torusgas-bench/results``.  Notes on the workloads and metrics
are in bench/NOTES.md.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from worker import ROOT, WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".bench_build", "torusgas-bench")
REFERENCE_SEED = 0
MIN_ROUNDS = 2           # two traced samples at least, so counters can be compared
WORKER_TIMEOUT_S = 45    # several times the slowest sample; a stall ends the run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")
# work counters that must repeat exactly between samples of one seed
EXACT = ("grid.fft_calls_per_member_step", "noise.draws_per_member_step",
         "noise.unique_draw_ratio", "snapshots.bytes_written")


def run_worker(name, seed, size, traced):
    """Run one sample in a fresh process; returns ``(record, error)``.

    Raises ``subprocess.TimeoutExpired`` (after killing the process) when the
    sample stalls.
    """
    out = os.path.join(WORK, "out", f"{name}-{size}-{'traced' if traced else 'plain'}")
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", name,
           "--seed", str(seed), "--size", size, "--trace", str(int(traced)),
           "--out", out]
    shutil.rmtree(out, ignore_errors=True)
    spawned = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=env, cwd=ROOT,
                          stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if record is None or proc.returncode != 0:
        tail = "; ".join(record["failures"]) if record else proc.stderr.strip()[-2000:]
        return record, f"exit code {proc.returncode}: {tail}"
    return record, None


def drift_from_reference(name, record):
    """Largest relative deviation of each summary number from reference.json."""
    with open(os.path.join(BENCH, "reference.json"), encoding="ascii") as fh:
        ref = json.load(fh)[name]
    out = {}
    for key, want in ref.items():
        got = record["summary"].get(key)
        if got is None:
            out[key] = None
        else:
            out[key] = abs(got - want) / abs(want) if want else abs(got)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def aggregate(plain, traced):
    """End-to-end metrics from untraced samples, per-layer from traced ones."""
    metrics = {}
    if plain:
        walls = [r["wall_s"] for r in plain]
        metrics.update({
            "wall_s": walls,
            "member_steps_per_s": [r["member_steps"] / r["wall_s"] for r in plain],
            "setup_s": [r["setup_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        })
    if traced:
        for key in traced[0]["layers"]:
            metrics[key] = [r["layers"][key] for r in traced]
        if plain:
            metrics["trace.overhead_s"] = [statistics.median([r["wall_s"] for r in traced])
                                           - statistics.median(walls)]
    return metrics


def repeat_failures(records):
    """Samples of one seed must agree on summary numbers and exact counters."""
    bad = []
    if any(r["summary"] != records[0]["summary"] for r in records):
        bad.append("summary numbers differ between samples of one seed")
    if any(r["bytes_written"] != records[0]["bytes_written"] for r in records):
        bad.append("artifact bytes differ between samples of one seed")
    traced = [r for r in records if "layers" in r]
    for key in EXACT:
        if len({r["layers"][key] for r in traced}) > 1:
            bad.append(f"{key} differs between traced samples")
    return bad


def environment(record):
    cpu = None
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    commit = None
    if shutil.which("git") and os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True)
        commit = git.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": record.get("numpy") if record else None,
        "kernels_backend": record.get("backend") if record else None,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "threads_env": {var: "1" for var in THREAD_VARS},
        "git_commit": commit,
    }


def measure(names, seed, seconds, trace, size="full"):
    """Warm up, then run rounds of samples until the time budget is used.

    A round is one sample per (workload, traced) pair; in traced mode the
    order alternates between rounds so neither side always runs first.  A
    new round starts only if it is expected to end within ``seconds``.
    ``size`` is ``full`` except in the harness self-test.
    """
    results = {name: {"records": [], "errors": [], "attempted": 0, "warmup": None}
               for name in names}

    def sample(name, seed, size, traced):
        res = results[name]
        res["attempted"] += 1
        try:
            record, err = run_worker(name, seed, size, traced)
        except subprocess.TimeoutExpired:
            res["errors"].append(f"timed out after {WORKER_TIMEOUT_S} s")
            return None, False
        if err:
            res["errors"].append(err)
        return (None if err else record), True

    for name in names:
        record, alive = sample(name, REFERENCE_SEED, "toy", False)
        if not alive:
            break
        if record:
            results[name]["warmup"] = record
            results[name]["drift"] = drift_from_reference(name, record)
    plan = [(name, traced) for name in names for traced in ((False, True) if trace else (False,))]
    start = time.monotonic()
    round_s = []
    while alive and (len(round_s) < MIN_ROUNDS
                     or time.monotonic() - start + statistics.median(round_s) <= seconds):
        t_round = time.monotonic()
        for name, traced in (plan if len(round_s) % 2 == 0 else plan[::-1]):
            record, alive = sample(name, seed, size, traced)
            if not alive:
                break
            if record:
                results[name]["records"].append(record)
        round_s.append(time.monotonic() - t_round)

    for res in results.values():
        res["inconsistent"] = repeat_failures(res["records"]) if res["records"] else []
        plain = [r for r in res["records"] if not r["traced"]]
        traced = [r for r in res["records"] if r["traced"]]
        res["samples"] = aggregate(plain, traced)
        res["environment"] = environment(res["records"][0] if res["records"]
                                         else res["warmup"])
    return results


def metric_specs(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    return spec["per_layer"] if trace else spec["end_to_end"]


def report(name, res, seed, trace):
    """Print the human-readable block and return the JSON result."""
    failed = len(res["errors"])
    attempted = res["attempted"]
    print(f"== {name}  seed {seed}  trace {trace}  "
          f"{len(res['records'])} samples, {failed} failed of {attempted} attempted")
    for err in res["errors"] + res["inconsistent"]:
        print(f"   FAILED: {err}")
    metrics = {}
    for spec in metric_specs(trace):
        values = res["samples"].get(spec["name"])
        if not values:
            print(f"benchmark: no samples for {spec['name']}", file=sys.stderr)
            return None
        med = statistics.median(values)
        q1, q3 = quartiles(values)
        metrics[spec["name"]] = {"value": med, "unit": spec["unit"]}
        print(f"   {spec['name']:<34} {med:>14.6g} {spec['unit']:<6} "
              f"(median of {len(values)}; quartiles {q1:.6g} .. {q3:.6g})")
    print(f"   {'error_rate':<34} {failed / attempted:>14.6g} {'1':<6} "
          f"({failed} failed / {attempted} attempted)")
    drift = res.get("drift")
    if drift:
        key = max(drift, key=lambda k: -1.0 if drift[k] is None else drift[k])
        missing = [k for k, v in drift.items() if v is None]
        print(f"   reference drift (toy size, seed {REFERENCE_SEED}, not gated): "
              f"largest {drift[key]:.3g} at {key}"
              + (f"; missing {missing}" if missing else ""))
    print(f"   environment: {json.dumps(res['environment'])}")
    return {"correct": failed == 0 and not res["inconsistent"], "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/torusgas/__init__.py", "BENCHMARK.json",
                           *(spec["config"] for spec in WORKLOADS.values()))
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"benchmark: missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = measure(names, args.seed, args.seconds, bool(args.trace))

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    lines = []
    for name in names:
        res = results[name]
        result = report(name, res, args.seed, args.trace)
        if result is None:
            return 1
        path = os.path.join(WORK, "results", f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump(dict(res, result=result), fh, indent=1)
        lines.append(json.dumps(result))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

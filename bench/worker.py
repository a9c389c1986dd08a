#!/usr/bin/env python3
"""One benchmark sample: a single torusgas command run in a fresh process.

``run.py`` starts this script once per sample and reads the JSON record it
prints as its last line.  The record carries the set-up time (from the
moment the parent spawned this process until the driver is called), the
wall time of the driver call, peak resident memory, the work done in
member-steps, the bytes of the artifacts written, the output check and the
run's summary numbers; a traced sample adds the span summary.

Usage: python3 bench/worker.py --workload NAME --seed N --size full|toy
       --trace 0|1 --out DIR --spawned MONOTONIC_SECONDS
"""

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Config overrides per workload.  ``full`` is what the benchmark measures;
# ``toy`` is the warm-up and self-test size.  The seed goes in as run.seed.
WORKLOADS = {
    "simulate-1d": {
        "command": "simulate",
        "config": "configs/simulate_1d.cfg",
        # run.T stays at the file's 0.5: auto dt is fixed from the initial
        # CFL bound, and at run.T = 1.0 some seeds already violate it.
        "full": {"run.T": 0.5, "ensemble.members": 256, "run.snapshot_every": 1},
        "toy": {"run.T": 0.5, "ensemble.members": 4, "run.snapshot_every": 1},
    },
    "limit-sweep-2d": {
        "command": "limit-sweep",
        "config": "configs/limit_sweep.cfg",
        "full": {"grid.sizes": [32, 32], "sweep.eps": [1.0, 0.5, 0.25],
                 "sweep.members": 8},
        "toy": {"grid.sizes": [16, 16], "sweep.eps": [1.0, 0.5, 0.25],
                "sweep.members": 8, "sweep.samples": 2, "run.T": 0.125},
    },
    "weak-strong-1d": {
        "command": "weak-strong",
        "config": "configs/weak_strong.cfg",
        "full": {"ws.members": 48},
        "toy": {"grid.sizes": [16], "ws.members": 2, "ws.n_steps": 16,
                "ws.samples": 4},
    },
}

MASS_DRIFT_TOL = 1e-12


def load_config(name, seed, size):
    from torusgas import config

    spec = WORKLOADS[name]
    overrides = dict(spec[size], **{"run.seed": seed})
    return config.load(os.path.join(ROOT, spec["config"]), overrides)


def run_command(name, cfg, out_dir):
    from torusgas import driver

    command = WORKLOADS[name]["command"]
    if command == "simulate":
        return driver.run_simulate(cfg, out_dir, threads=1)
    if command == "limit-sweep":
        return driver.run_limit_sweep(cfg, out_dir)
    return driver.run_weak_strong(cfg, out_dir)


def member_steps(name, cfg, summary):
    """Compressible member-steps taken, from the run's own summary."""
    command = WORKLOADS[name]["command"]
    if command == "simulate":
        return summary["members"] * summary["n_steps"]
    if command == "limit-sweep":
        return cfg["sweep.members"] * int(sum(summary["n_steps"]))
    # coarse steps plus the refined reference's steps
    return summary["members"] * cfg["ws.n_steps"] * (1 + summary["refine"])


def _read_csv(path):
    import numpy as np

    with open(path, encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_outputs(name, cfg, summary, out_dir):
    """Hard invariants of one run; returns the list of violations."""
    import numpy as np

    command = WORKLOADS[name]["command"]
    bad = []
    if command == "simulate":
        if not summary["max_rel_mass_drift"] <= MASS_DRIFT_TOL:
            bad.append(f"max_rel_mass_drift {summary['max_rel_mass_drift']:.3e} "
                       f"exceeds {MASS_DRIFT_TOL:g}")
        if summary["floored_cells_total"] != 0:
            bad.append(f"{summary['floored_cells_total']} floored cells")
        _, ledger = _read_csv(os.path.join(out_dir, "ledger.csv"))
        if not np.all(np.isfinite(ledger)):
            bad.append("ledger.csv has non-finite entries")
    elif command == "limit-sweep":
        if summary.get("pass") is not True:
            bad.append(f"rate fit did not pass: slope {summary.get('slope')}, "
                       f"monotone {summary.get('monotone')}")
    else:
        header, data = _read_csv(os.path.join(out_dir, "weak_strong.csv"))
        emv = np.append(data[:, header.index("Emv_mean")],
                        [summary["emv_initial"], summary["emv_final"]])
        if not (np.all(np.isfinite(emv)) and np.all(emv >= 0)):
            bad.append("Emv not finite and nonnegative")
        if summary["tau_min"] != cfg["run.T"]:
            bad.append(f"tau_min {summary['tau_min']} != T {cfg['run.T']}")
    return bad


def summary_numbers(summary):
    """Every number of a summary, arrays flattened to ``key[i]``."""
    out = {}
    for key, value in sorted(summary.items()):
        if isinstance(value, bool) or value is None or isinstance(value, str):
            continue
        if hasattr(value, "tolist"):
            value = value.tolist()
        if isinstance(value, list):
            out.update({f"{key}[{i}]": float(v) for i, v in enumerate(value)})
        else:
            out[key] = float(value)
    return out


def bytes_written(out_dir):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(out_dir) for f in files)


def layer_metrics(trace, wall_s, steps, n_bytes):
    """Per-layer metrics of one traced sample."""
    kinds = trace["per_kind"]

    def per_call_us(key):
        k = kinds.get(key, {"calls": 0})
        return 1e6 * k["total_s"] / k["calls"] if k["calls"] else 0.0

    out = {f"{layer}.self_s": s for layer, s in trace["layer_self_s"].items()}
    # the driver call's time outside every layer span
    out["driver.self_s"] = wall_s - sum(trace["layer_self_s"].values())
    out.update({
        "grid.fft_calls_per_member_step": trace["fft_calls"] / steps,
        "grid.fft_us_per_call": (1e6 * trace["fft_s"] / trace["fft_calls"]
                                 if trace["fft_calls"] else 0.0),
        "dynamics.step_em_us": per_call_us("dynamics.step_em"),
        "dynamics.rhs_us": per_call_us("dynamics.rhs_deterministic"),
        "dynamics.cfl_dt_us": per_call_us("dynamics.cfl_dt"),
        "noise.draws_per_member_step": trace["draws"] / steps,
        "noise.unique_draw_ratio": (trace["distinct_draws"] / trace["draws"]
                                    if trace["draws"] else 0.0),
        "ledger.step_increments_us": per_call_us("ledger.LedgerAccumulator.step_increments"),
        "euler.step_us": per_call_us("euler.step_em_euler"),
        "relative.remainder_us": per_call_us("relative.remainder"),
        "snapshots.bytes_written": n_bytes,
    })
    return out


def kernel_backend():
    try:
        from torusgas.kernels import backend
    except ImportError:  # the kernel layer may be folded into its callers
        return None
    return backend()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    cfg = load_config(args.workload, args.seed, args.size)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    t0 = time.monotonic()
    summary = run_command(args.workload, cfg, args.out)
    wall_s = time.monotonic() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    steps = member_steps(args.workload, cfg, summary)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "traced": bool(args.trace),
        "setup_s": t0 - args.spawned,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "member_steps": steps,
        "bytes_written": bytes_written(args.out),
        "failures": check_outputs(args.workload, cfg, summary, args.out),
        "summary": summary_numbers(summary),
        "numpy": np.__version__,
        "backend": kernel_backend(),
    }
    if tracer is not None:
        trace = tracer.summarize()
        tracer.save(os.path.join(args.out, "spans.npz"))
        record["trace"] = {key: trace[key] for key in
                           ("spans", "fft_calls", "draws", "distinct_draws")}
        record["layers"] = layer_metrics(trace, wall_s, steps, record["bytes_written"])
    print(json.dumps(record))
    return 1 if record["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())

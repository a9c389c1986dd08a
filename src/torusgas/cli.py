"""Command-line interface.

Subcommands: ``simulate``, ``verify``, ``weak-strong``, ``limit-sweep``.
Exit codes: 0 on success, 1 when a check or experiment criterion fails,
2 on configuration errors, 3 when a run fails (a ``SimulationError``, which
every failed step and reference raises, or a ``SweepError``).  A failed run
prints one line, ``<command> failed: <message>``, whose message names the
member, the step and ``t`` and, where they apply, eps and the step size.
"""

from __future__ import annotations

import argparse
import sys

from . import config as config_mod
from . import driver
from .dynamics import SimulationError


def _thread_count(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusgas",
        description="Stochastic compressible flow on the torus with "
                    "measure-valued diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "run a Monte Carlo ensemble and write ledger artifacts"),
        ("verify", "run the invariant suite and print a pass/fail table"),
        ("weak-strong", "coarse-vs-fine relative-energy comparison"),
        ("limit-sweep", "inviscid-incompressible limit experiment"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="path to a key = value file")
        p.add_argument("--seed", type=int, default=None, help="override run.seed")
        if name != "verify":  # the invariant suite has no member axis to split
            p.add_argument("--threads", type=_thread_count, default=1,
                           help="worker threads, one contiguous member range each")
        p.add_argument("--out", default="out", help="output directory")
    return parser


def load_config(args) -> dict:
    overrides = {}
    if args.seed is not None:
        overrides["run.seed"] = args.seed
    if args.config is None:
        return config_mod.resolve({}, overrides)
    return config_mod.load(args.config, overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
    except (config_mod.ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    failures = (SimulationError,)  # a sweep adds SweepError, imported only where it runs
    try:
        if args.command == "simulate":
            summary = driver.run_simulate(cfg, args.out, threads=args.threads)
            print(f"simulate: {summary['n_steps']} steps, {summary['members']} members; "
                  f"artifacts in {args.out}")
            return 0
        if args.command == "verify":
            from . import verify

            results, ok = verify.run_all()
            width = max(len(name) for name, _, _ in results)
            for name, passed, detail in results:
                print(f"{name:<{width}}  {'PASS' if passed else 'FAIL'}  {detail}")
            print(f"{'all checks passed' if ok else 'FAILURES detected'}")
            return 0 if ok else 1
        if args.command == "weak-strong":
            summary = driver.run_weak_strong(cfg, args.out, threads=args.threads)
            print(f"weak-strong: E_mv(0)={summary['emv_initial']:.3e} -> "
                  f"E_mv(T)={summary['emv_final']:.3e}, fitted c={summary['gronwall_c']:.3f}; "
                  f"artifacts in {args.out}")
            return 0
        if args.command == "limit-sweep":
            from .sweep import SweepError

            failures += (SweepError,)
            summary = driver.run_limit_sweep(cfg, args.out, threads=args.threads)
            slope = summary.get("slope")
            eps_list = [float(e) for e in summary["eps"]]
            print(f"limit-sweep: eps={eps_list}, "
                  f"slope={'n/a' if slope is None else f'{slope:.3f}'}; "
                  f"artifacts in {args.out}")
            if summary.get("pass") is False:
                return 1
            return 0
    except config_mod.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except failures as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 3
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())

"""Run configuration: plain-text ``section.key = value`` files with a schema.

Values are scalars or comma-separated lists; ``#`` starts a comment.
Unknown keys are rejected with the offending path, and every run writes the
fully resolved configuration next to its outputs so results are
reproducible from the artifacts alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Key:
    kind: str              # int | float | bool | str | int_list | float_list
    default: object
    doc: str = ""


SCHEMA: dict[str, Key] = {
    "run.T": Key("float", 1.0, "time horizon"),
    "run.n_steps": Key("int", 0, "steps over [0, T]; 0 picks from the CFL bound"),
    "run.samples": Key("int", 10, "ledger/snapshot sample count (must divide n_steps)"),
    "run.snapshot_every": Key("int", 0, "samples between field snapshots; 0 = final only"),
    "run.seed": Key("int", 0, "master seed (CLI --seed overrides)"),
    "grid.sizes": Key("int_list", [64], "cells per dimension, powers of two"),
    "model.gamma": Key("float", 2.0, "adiabatic exponent"),
    "model.a": Key("float", 1.0, "pressure coefficient"),
    "model.delta": Key("float", 0.0, "artificial-pressure strength"),
    "model.Gamma": Key("float", 6.0, "artificial-pressure exponent"),
    "model.nu": Key("float", 1e-2, "shear viscosity (0 = inviscid)"),
    "model.lambda": Key("float", 0.0, "bulk viscosity"),
    "model.eps": Key("float", 1.0, "Mach parameter; 1 disables rescaling"),
    "model.grad_threshold": Key("float", math.inf, "weak-strong reference gradient cutoff"),
    "stepper.cfl": Key("float", 0.4, "CFL number in (0, 1]"),
    "stepper.rho_floor": Key("float", 1e-8, "density positivity floor"),
    "noise.K": Key("float_list", [], "density coupling per mode; its length is the "
                   "number of Wiener modes"),
    "noise.L": Key("float_list", [], "momentum coupling per mode"),
    "ensemble.members": Key("int", 1, "Monte Carlo ensemble size"),
    "ensemble.shared_paths": Key("bool", False, "drive all members by one path"),
    "init.kind": Key("str", "density_wave", "initial flow, a name in dynamics.FLOWS: "
                     "constant | density_wave | shear | bump | taylor_green (2-D only)"),
    "init.amplitude": Key("float", 0.1, "initial perturbation amplitude"),
    "ws.n_steps": Key("int", 64, "coarse steps of the weak-strong run"),
    "ws.members": Key("int", 8, "weak-strong ensemble size"),
    "ws.eta": Key("float", 0.0, "initial relative energy of the perturbed run"),
    "ws.refine": Key("int", 2, "reference refinement factor (1 = self comparison)"),
    "ws.samples": Key("int", 8, "weak-strong sample count"),
    "sweep.eps": Key("float_list", [1.0, 0.5, 0.25, 0.125], "Mach schedule; each eps "
                     "runs at nu = lambda = eps^2 on data prepared at rate eps"),
    "sweep.members": Key("int", 64, "sweep ensemble size"),
    "sweep.samples": Key("int", 8, "sweep sample count (power of two)"),
    "sweep.grad_threshold": Key("float", 2.0, "Euler gradient stopping threshold"),
    "sweep.v0": Key("str", "taylor_green", "limit velocity: the momentum of a solenoidal "
                    "density-1 flow of dynamics.FLOWS (taylor_green, non-1-D shear, zero)"),
}


def _parse_scalar(kind: str, raw: str, key: str):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            if raw.lower() in ("inf", "+inf", "infinity"):
                return math.inf
            return float(raw)
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes", "on"):
                return True
            if raw.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        if kind == "str":
            return raw
        if kind == "int_list":
            return [int(tok) for tok in raw.split(",") if tok.strip()]
        if kind == "float_list":
            return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {kind}") from None
    raise ConfigError(f"{key}: unknown kind {kind}")


def parse_text(text: str) -> dict:
    """Parse ``key = value`` lines into a raw string map."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key}")
        out[key] = value.strip()
    return out


def resolve(raw: dict, overrides: Optional[dict] = None) -> dict:
    """Validate against the schema and fill defaults."""
    cfg = {}
    for key, value in raw.items():
        if key not in SCHEMA:
            raise ConfigError(f"unknown configuration key: {key}")
        cfg[key] = _parse_scalar(SCHEMA[key].kind, value, key) if isinstance(value, str) else value
    for key, spec in SCHEMA.items():
        cfg.setdefault(key, spec.default if not isinstance(spec.default, list)
                       else list(spec.default))
    if overrides:
        for key, value in overrides.items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown configuration key: {key}")
            cfg[key] = value
    _cross_validate(cfg)
    return cfg


def _cross_validate(cfg: dict):
    if not (math.isfinite(cfg["run.T"]) and cfg["run.T"] > 0):
        raise ConfigError("run.T: must be finite and positive")
    if not math.isfinite(cfg["init.amplitude"]):
        raise ConfigError("init.amplitude: must be finite")
    if cfg["run.n_steps"] < 0:
        raise ConfigError("run.n_steps: must be nonnegative (0 picks from the CFL bound)")
    sizes = cfg["grid.sizes"]
    if not sizes or not all(n >= 8 and (n & (n - 1)) == 0 for n in sizes):
        raise ConfigError("grid.sizes: need powers of two, each at least 8")
    if len(sizes) > 3:
        raise ConfigError("grid.sizes: at most three dimensions")
    if cfg["model.gamma"] <= 1:
        raise ConfigError("model.gamma: must exceed 1")
    if cfg["model.a"] <= 0:
        raise ConfigError("model.a: must be positive")
    if cfg["model.delta"] < 0:
        raise ConfigError("model.delta: must be nonnegative")
    if cfg["model.delta"] > 0 and cfg["model.Gamma"] < max(6.0, cfg["model.gamma"]):
        raise ConfigError("model.Gamma: must be >= max(6, gamma) when delta > 0")
    if cfg["model.nu"] < 0 or cfg["model.lambda"] < 0:
        raise ConfigError("model.nu/model.lambda: must be nonnegative")
    if cfg["model.eps"] <= 0:
        raise ConfigError("model.eps: must be positive")
    if not 0 < cfg["stepper.cfl"] <= 1:
        raise ConfigError("stepper.cfl: must lie in (0, 1]")
    if cfg["stepper.rho_floor"] <= 0:
        raise ConfigError("stepper.rho_floor: must be positive")
    if len(cfg["noise.K"]) != len(cfg["noise.L"]):
        raise ConfigError("noise.K/noise.L: need one entry each per mode, got "
                          f"{len(cfg['noise.K'])} and {len(cfg['noise.L'])}")
    if cfg["ensemble.members"] < 1:
        raise ConfigError("ensemble.members: need at least one member")
    if cfg["run.samples"] < 1:
        raise ConfigError("run.samples: need at least one sample")
    if cfg["run.n_steps"] % cfg["run.samples"]:
        raise ConfigError(f"run.n_steps: {cfg['run.n_steps']} is not a multiple of "
                          f"run.samples = {cfg['run.samples']}")
    if cfg["run.snapshot_every"] < 0:
        raise ConfigError("run.snapshot_every: must be nonnegative (0 = final only)")
    for key in ("ws.members", "ws.n_steps", "ws.samples"):
        if cfg[key] < 1:
            raise ConfigError(f"{key}: must be at least 1")
    if cfg["ws.n_steps"] % cfg["ws.samples"]:
        raise ConfigError(f"ws.n_steps: {cfg['ws.n_steps']} is not a multiple of "
                          f"ws.samples = {cfg['ws.samples']}")
    if cfg["ws.eta"] < 0:
        raise ConfigError("ws.eta: must be nonnegative (0 = exact data)")
    refine = cfg["ws.refine"]
    if refine < 1 or (refine & (refine - 1)) != 0:
        raise ConfigError("ws.refine: must be a power of two (1 = self comparison)")
    n_sweep = cfg["sweep.samples"]
    if n_sweep < 1 or (n_sweep & (n_sweep - 1)) != 0:
        raise ConfigError("sweep.samples: must be a power of two")
    if cfg["sweep.members"] < 4:
        raise ConfigError("sweep.members: need at least 4 (one per standard-error group)")
    eps = cfg["sweep.eps"]
    if not eps or not all(e > 0 for e in eps):
        raise ConfigError("sweep.eps: need at least one value, all positive")
    if len(set(eps)) != len(eps):  # the rate fit needs distinct eps values
        raise ConfigError(f"sweep.eps: values must be distinct, got {eps}")


def load(path, overrides: Optional[dict] = None) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return resolve(parse_text(fh.read()), overrides)


def dumps(cfg: dict) -> str:
    """Serialize a resolved configuration, sorted, round-trippable."""
    lines = []
    for key in sorted(cfg):
        value = cfg[key]
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, list):
            text = ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"

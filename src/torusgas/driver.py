"""Run orchestration: build objects from a resolved config and emit artifacts.

Every command writes into its output directory the resolved configuration,
a format-version marker and deterministically formatted CSV files.

``simulate`` marches its whole ensemble as one member-batched state, the
members along a leading axis (see :mod:`torusgas.dynamics`).  With
``--threads T`` the member axis is split into ``T`` contiguous chunks, each
marched as one batch by :func:`torusgas.ledger.march` on a thread pool, and
the chunks and their ledgers are joined in member order.  Every member's arithmetic is the same in any chunk, so outputs are
byte-identical for any worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import config as config_mod
from . import snapshots
from .constitutive import PressureLaw, Viscosity
from .dynamics import (ModelConfig, SimulationError, State, StepperConfig,
                       StepStats, cfl_dt)
from .ensemble import EmpiricalYoungMeasure, dissipation_defect
from .euler import taylor_green
from .grid import Grid
from .ledger import EnergyLedger, march, pooled_ledger
from .noise import NoiseModel, member_tables
from .relative import (REMAINDER_TERMS, RelativeEnergyReport, WeakStrongConfig,
                       weak_strong_experiment)
from .sweep import V0_KINDS, RateReport, SweepConfig, fit_rate, run_sweep


def build_grid(cfg: dict) -> Grid:
    return Grid(tuple(cfg["grid.sizes"]))


def build_model(cfg: dict) -> ModelConfig:
    law = PressureLaw(cfg["model.a"], cfg["model.gamma"], cfg["model.delta"],
                      cfg["model.Gamma"])
    visc = Viscosity(cfg["model.nu"], cfg["model.lambda"]) if cfg["model.nu"] > 0 else None
    noise = None
    if cfg["noise.modes"]:
        noise = NoiseModel(K=tuple(cfg["noise.K"]), L=tuple(cfg["noise.L"]))
    return ModelConfig(law=law, visc=visc, noise=noise, eps=cfg["model.eps"],
                       grad_threshold=cfg["model.grad_threshold"])


def build_stepper(cfg: dict) -> StepperConfig:
    return StepperConfig(cfl=cfg["stepper.cfl"],
                         rho_floor=cfg["stepper.rho_floor"])


def initial_state(grid: Grid, cfg: dict) -> State:
    kind = cfg["init.kind"]
    amp = cfg["init.amplitude"]
    coords = grid.coordinates()
    rho = np.ones(grid.sizes)
    mom = np.zeros((grid.dim, *grid.sizes))
    if kind == "constant":
        pass
    elif kind == "density_wave":
        rho = 1.0 + amp * np.sin(coords[0])
        mom[0] = amp * np.cos(coords[-1])
    elif kind == "shear":
        mom[0] = amp * np.sin(coords[-1])
    elif kind == "bump":
        rho = 1.0 + amp * np.exp(np.cos(coords[0])) / math.e
    elif kind == "taylor_green":
        mom = amp * taylor_green(grid)
    else:
        raise config_mod.ConfigError(f"init.kind: unknown kind {kind!r}")
    return State(rho, mom)


def choose_steps(grid: Grid, model: ModelConfig, stepper: StepperConfig,
                 state: State, cfg: dict) -> int:
    """Step count honoring run.n_steps or the CFL bound, divisible by samples."""
    samples = cfg["run.samples"]
    if cfg["run.n_steps"]:
        n = cfg["run.n_steps"]
    elif cfg["stepper.dt"] > 0:
        n = int(np.ceil(cfg["run.T"] / cfg["stepper.dt"]))
    else:
        bound = cfl_dt(grid, model, state, stepper)
        n = int(np.ceil(cfg["run.T"] / (0.8 * bound)))
    n = max(n, samples)
    if n % samples:
        n += samples - (n % samples)
    return n


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------


def run_simulate(cfg: dict, out_dir: str, threads: int = 1) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    grid = build_grid(cfg)
    model = build_model(cfg)
    stepper = build_stepper(cfg)
    state0 = initial_state(grid, cfg).validate(grid)
    n_steps = choose_steps(grid, model, stepper, state0, cfg)
    dt = cfg["run.T"] / n_steps
    stride = n_steps // cfg["run.samples"]
    members = cfg["ensemble.members"]
    seed = cfg["run.seed"]
    if cfg["ensemble.shared_paths"]:  # every member rides member 0's path
        table = np.broadcast_to(member_tables(seed, 1, model.modes, dt, n_steps),
                                (members, n_steps, model.modes))
    else:
        table = member_tables(seed, members, model.modes, dt, n_steps)

    def job(chunk):
        lo, hi = chunk
        stats = StepStats(np.zeros(hi - lo, dtype=np.int64), np.zeros(hi - lo))
        try:
            return (*march(grid, model, stepper, state0, dt, table[lo:hi], stride, stats),
                    stats)
        except SimulationError as exc:  # name the member by its ensemble index
            if exc.member is None or lo == 0:
                raise
            raise SimulationError(exc.detail, exc.state, lo + exc.member) from exc

    chunks = [(int(c[0]), int(c[-1]) + 1)
              for c in np.array_split(np.arange(members), max(threads, 1)) if c.size]
    try:
        if len(chunks) > 1:
            with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
                results = list(pool.map(job, chunks))
        else:
            results = [job(chunks[0])]
    except SimulationError as exc:
        if exc.state is not None:  # leave a diagnostic snapshot behind
            snapshots.write_state(os.path.join(out_dir, "diagnostic_failure.snap"),
                                  grid, exc.state)
        raise

    ledgers = [r[0] for r in results]  # joined along the member axis
    member_ledger = EnergyLedger(ledgers[0].times, *(
        np.concatenate([getattr(l, name) for l in ledgers])
        for name in ("energy", "defect", "diss_cum", "ito_cum", "martingale")))
    times = member_ledger.times
    yms = [EmpiricalYoungMeasure(grid,
                                 np.concatenate([r[1][i].rho for r in results]),
                                 np.concatenate([r[1][i].mom for r in results]))
           for i in range(len(times))]
    floored_total = sum(int(r[2].floored_cells.sum()) for r in results)
    mass_corrections = sum(x for r in results for x in r[2].mass_correction.tolist())
    law = model.law_eff
    pooled = pooled_ledger(member_ledger, grid, law, model.visc, yms)

    snapshots.write_csv(os.path.join(out_dir, "ledger.csv"), pooled.as_columns(),
                        ["t", "E", "D", "dissipation_cum", "ito_cum", "martingale",
                         "residual"])

    snap_every = cfg["run.snapshot_every"]
    snap_indices = (list(range(0, len(times), snap_every)) if snap_every
                    else []) + [len(times) - 1]
    for i in sorted(set(snap_indices)):
        b_rho, b_mom = yms[i].barycenter()
        snapshots.write_state(os.path.join(out_dir, f"state_{i:04d}.snap"), grid,
                              State(b_rho, b_mom, times[i]))
    snapshots.write_young_measure(out_dir, grid, yms[-1], times[-1])

    final_defect, final_D = dissipation_defect(yms[-1], law)
    _write_observables(os.path.join(out_dir, "observables.csv"), grid, yms[-1],
                       times[-1], final_defect)

    residuals = member_ledger.residual(0, -1)
    mass0 = grid.integrate(state0.rho)
    mass_end = grid.integrate(yms[-1].rho_atoms).tolist()
    summary = {
        "command": "simulate",
        "n_steps": n_steps,
        "dt": dt,
        "members": members,
        "seed": seed,
        "noise_alpha_sum": model.noise.alpha_sum if model.noise else 0.0,
        "noise_tail_alpha": 0.0,  # all configured modes are simulated
        "mean_member_residual": float(residuals.mean()),
        "se_member_residual": float(residuals.std(ddof=1) / np.sqrt(members))
        if members > 1 else 0.0,
        "final_defect_D": final_D,
        "max_rel_mass_drift": float(max(abs(m - mass0) for m in mass_end) / mass0),
        "floored_cells_total": int(floored_total),
        "floor_mass_correction": float(mass_corrections),
    }
    _finalize(out_dir, cfg, summary)
    return summary


def _write_observables(path, grid, ym, time, defect_field):
    b_rho, b_mom = ym.barycenter()
    n = grid.n_cells
    cols = {"t": [time] * n, "cell": list(range(n)),
            "rho_mean": b_rho.reshape(-1)}
    order = ["t", "cell", "rho_mean"]
    for c in range(grid.dim):
        cols[f"mom_mean_{c}"] = b_mom[c].reshape(-1)
        order.append(f"mom_mean_{c}")
    cols["energy_defect"] = defect_field.reshape(-1)
    order.append("energy_defect")
    snapshots.write_csv(path, cols, order)


def _finalize(out_dir, cfg, summary):
    with open(os.path.join(out_dir, "config.resolved.cfg"), "w",
              encoding="ascii") as fh:
        fh.write(config_mod.dumps(cfg))
    snapshots.write_format_marker(out_dir)
    snapshots.write_summary(os.path.join(out_dir, "summary.json"), summary)


# --------------------------------------------------------------------------
# weak-strong
# --------------------------------------------------------------------------


def run_weak_strong(cfg: dict, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    model = build_model(cfg)
    n_steps = cfg["ws.n_steps"]
    samples = cfg["ws.samples"]
    ws = WeakStrongConfig(
        grid_sizes=tuple(cfg["grid.sizes"]),
        model=model,
        horizon=cfg["run.T"],
        n_steps=n_steps,
        members=cfg["ws.members"],
        seed=cfg["run.seed"],
        eta=cfg["ws.eta"],
        refine=cfg["ws.refine"],
        sample_every=max(1, n_steps // samples),
        stepper=build_stepper(cfg),
    )
    report = weak_strong_experiment(ws)
    _write_ws_report(out_dir, report)
    summary = {
        "command": "weak_strong",
        "gronwall_c": report.gronwall_c,
        "gronwall_bias": report.gronwall_bias,
        "gronwall_residual": report.gronwall_residual,
        "emv_initial": float(report.emv_mean[0]),
        "emv_final": float(report.emv_mean[-1]),
        "emv_max": float(np.max(report.emv_mean)),
        "tau_min": float(np.min(report.tau)),
        "members": ws.members,
        "refine": ws.refine,
    }
    _finalize(out_dir, cfg, summary)
    return summary


def _write_ws_report(out_dir, report: RelativeEnergyReport):
    env = (report.emv_mean[0] + report.gronwall_bias) * np.exp(
        report.gronwall_c * (report.times - report.times[0]))
    cols = {"t": report.times, "Emv_mean": report.emv_mean, "Emv_se": report.emv_se,
            "gronwall_residual": report.emv_mean - env}
    order = ["t", "Emv_mean", "Emv_se"]
    for j in range(len(REMAINDER_TERMS)):
        name = f"remainder_term_{j + 1}"
        cols[name] = report.remainder_terms[:, j]
        order.append(name)
    order.append("gronwall_residual")
    snapshots.write_csv(os.path.join(out_dir, "weak_strong.csv"), cols, order)


# --------------------------------------------------------------------------
# limit sweep
# --------------------------------------------------------------------------


def run_limit_sweep(cfg: dict, out_dir: str) -> dict:
    v0, sizes = cfg["sweep.v0"], cfg["grid.sizes"]
    if v0 not in V0_KINDS:
        raise config_mod.ConfigError(f"sweep.v0: unknown kind {v0!r}, "
                                     f"expected one of {', '.join(V0_KINDS)}")
    if v0 == "taylor_green" and len(sizes) != 2:
        raise config_mod.ConfigError(f"sweep.v0 = taylor_green needs a 2-D grid, "
                                     f"grid.sizes has {len(sizes)} dimension(s)")
    os.makedirs(out_dir, exist_ok=True)
    sweep_cfg = SweepConfig(
        grid_sizes=tuple(cfg["grid.sizes"]),
        eps_schedule=tuple(cfg["sweep.eps"]),
        gamma=cfg["model.gamma"],
        a=cfg["model.a"],
        nu_of_eps=config_mod.coupling(cfg["sweep.nu_coupling"], cfg["sweep.const_nu"]),
        lambda_of_eps=config_mod.coupling(cfg["sweep.lambda_coupling"],
                                          cfg["sweep.const_nu"]),
        delta_data_of_eps=config_mod.coupling(cfg["sweep.delta_coupling"]),
        horizon=cfg["run.T"],
        grad_threshold=cfg["sweep.grad_threshold"],
        members=cfg["sweep.members"],
        seed=cfg["run.seed"],
        noise_K=tuple(cfg["noise.K"]),
        noise_L=tuple(cfg["noise.L"]),
        cfl=cfg["stepper.cfl"],
        n_samples=cfg["sweep.samples"],
        v0_kind=v0,
    )
    report = run_sweep(sweep_cfg)
    _write_sweep_csv(out_dir, report)
    summary = {"command": "limit_sweep",
               "eps": report.eps, "final_emv": report.final_emv,
               "d_sup": report.d_sup, "tau_min": report.tau_min,
               "n_steps": report.n_steps, "cfl_ratio_max": report.cfl_ratio}
    if report.eps.size >= 3:
        summary.update(fit_rate(report, sweep_cfg.gamma))
    else:
        summary.update({"slope": None, "monotone": None, "pass": None})
    _finalize(out_dir, cfg, summary)
    return summary


def _write_sweep_csv(out_dir, report: RateReport):
    rows = {"eps": [], "t": [], "Emv_mean": [], "Emv_se": [], "D_sup": [],
            "tau_M": []}
    for i, eps in enumerate(report.eps):
        for j, t in enumerate(report.times):
            rows["eps"].append(float(eps))
            rows["t"].append(float(t))
            rows["Emv_mean"].append(float(report.emv_mean[i, j]))
            rows["Emv_se"].append(float(report.emv_se[i, j]))
            rows["D_sup"].append(float(report.d_sup[i]))
            rows["tau_M"].append(float(report.tau_min[i]))
    snapshots.write_csv(os.path.join(out_dir, "sweep.csv"), rows,
                        ["eps", "t", "Emv_mean", "Emv_se", "D_sup", "tau_M"])

"""Run orchestration: build objects from a resolved config and emit artifacts.

Every command writes into its output directory the resolved configuration,
a format-version marker and deterministically formatted CSV files.

Every command marches member-batched states, the members along a leading
axis (see :mod:`torusgas.dynamics`).  With ``--threads T`` each command
splits the member axis into ``T`` contiguous ranges (at most one per CPU),
marched on a thread pool by :func:`torusgas.ensemble.by_member_range`:
``simulate`` a ledger march (:func:`torusgas.ledger.march`), ``weak-strong``
a coarse and a fine batch, and ``limit-sweep`` the incompressible reference
and then each eps, each per range and sample interval.  Member sums are
taken after the join, in member order, so outputs are byte-identical for
any thread count.

Every march advances one sample interval per
:func:`~torusgas.ensemble.by_member_range` call, and each command reduces
each sample from the joined ``(M, ...)`` state on the calling thread as
soon as the members reach it, so it keeps one ensemble state (the sweep one
per eps, and the reference's), not one per sample: ``simulate`` keeps each
sample's member energies and :func:`~torusgas.ensemble.member_sums`, and
the final state for the Young-measure export; ``weak-strong`` each member's
relative energies and the remainder sums; ``limit-sweep`` each member's
relative energies and each standard-error group's sums of its stopped
members.

A failed run reports the failure one batch of all members raises, replayed
on one thread from the interval's start states if the ranges failed; it
names the member by its ensemble index and the step by its place in the
march.  Every command leaves the state the failure carries behind as
``diagnostic_failure.snap``: the member's state at the step's start, the
restricted reference pair, or the incompressible reference's velocity.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

from . import config as config_mod
from . import snapshots
from .constitutive import PressureLaw, Viscosity
from .dynamics import (ModelConfig, SimulationError, State, StepperConfig,
                       StepStats, cfl_dt, initial_flow)
from .ensemble import (EmpiricalYoungMeasure, by_member_range, dissipation_defect, member_se,
                       member_sums)
from .grid import FieldError, Grid
from .noise import NoiseModel, member_tables

# A command's own modules (ledger, relative, sweep, euler) are imported in the
# function that runs it: each command loads, and keeps resident, only its code.


def build_grid(cfg: dict) -> Grid:
    return Grid(tuple(cfg["grid.sizes"]))


def build_model(cfg: dict) -> ModelConfig:
    law = PressureLaw(cfg["model.a"], cfg["model.gamma"], cfg["model.delta"],
                      cfg["model.Gamma"])
    visc = Viscosity(cfg["model.nu"], cfg["model.lambda"]) if cfg["model.nu"] > 0 else None
    noise = NoiseModel(K=tuple(cfg["noise.K"]), L=tuple(cfg["noise.L"]))
    return ModelConfig(law=law, visc=visc, noise=noise, eps=cfg["model.eps"])


def build_stepper(cfg: dict) -> StepperConfig:
    return StepperConfig(cfl=cfg["stepper.cfl"],
                         rho_floor=cfg["stepper.rho_floor"])


def build_flow(cfg: dict, key: str, grid: Grid, amplitude: float = 1.0) -> State:
    """The flow of :data:`torusgas.dynamics.FLOWS` that ``cfg[key]`` names, on ``grid``.

    An unknown name, or a flow the grid cannot carry, is a ``ConfigError``
    naming the key and ``grid.sizes``.
    """
    try:
        return initial_flow(grid, cfg[key], amplitude)
    except FieldError as exc:
        raise config_mod.ConfigError(f"{key} = {cfg[key]} on grid.sizes = "
                                     f"{list(grid.sizes)}: {exc}") from None


def choose_steps(grid: Grid, model: ModelConfig, stepper: StepperConfig,
                 state: State, cfg: dict) -> int:
    """run.n_steps (which run.samples divides), or a count from the CFL bound
    rounded up to a multiple of run.samples.

    A count whose increment table (``members x n_steps x modes`` floats)
    would exceed physical memory is a ``ConfigError`` naming the key that
    set it, raised before anything is allocated.
    """
    samples = cfg["run.samples"]
    if cfg["run.n_steps"]:
        source, steps = f"run.n_steps = {cfg['run.n_steps']}", cfg["run.n_steps"]
    else:
        source = f"init.kind = {cfg['init.kind']} at init.amplitude = {cfg['init.amplitude']}"
        with np.errstate(over="ignore"):  # a speed past the float range is infinite
            bound = cfl_dt(grid, model, state, stepper)
        if not bound > 0:  # the data move too fast for any step
            raise config_mod.ConfigError(f"{source}: the CFL bound of the initial data is {bound}")
        steps = cfg["run.T"] / (0.8 * bound)
    if not np.isfinite(steps):
        raise config_mod.ConfigError(f"{source}: the run needs {steps} steps")
    n = max(int(np.ceil(steps)), samples)
    if n % samples:
        n += samples - (n % samples)
    members = 1 if cfg["ensemble.shared_paths"] else cfg["ensemble.members"]
    table_bytes, memory = members * n * model.modes * 8, _physical_memory()
    if table_bytes > memory:
        raise config_mod.ConfigError(
            f"{source}: {n} steps need an increment table of {table_bytes / 2**30:.3g} GiB, "
            f"more than the {memory / 2**30:.3g} GiB of physical memory")
    return n


def _physical_memory() -> float:
    """This machine's physical memory in bytes, or inf where the OS does not say."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        return float("inf")


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------


def run_simulate(cfg: dict, out_dir: str, threads: int = 1) -> dict:
    from .ledger import EnergyLedger, LedgerAccumulator, march, pooled_ledger

    grid = build_grid(cfg)
    model = build_model(cfg)
    stepper = build_stepper(cfg)
    state0 = build_flow(cfg, "init.kind", grid, cfg["init.amplitude"])
    stepper.check_floor(state0.rho, f"init.kind = {cfg['init.kind']} at init.amplitude = "
                        f"{cfg['init.amplitude']} on grid.sizes = {list(grid.sizes)}",
                        config_mod.ConfigError)
    state0.validate(grid)
    os.makedirs(out_dir, exist_ok=True)
    n_steps = choose_steps(grid, model, stepper, state0, cfg)
    dt = cfg["run.T"] / n_steps
    samples = cfg["run.samples"]
    stride = n_steps // samples
    members = cfg["ensemble.members"]
    seed = cfg["run.seed"]
    if cfg["ensemble.shared_paths"]:  # every member rides member 0's path
        table = np.broadcast_to(member_tables(seed, 1, model.modes, dt, n_steps),
                                (members, n_steps, model.modes))
    else:
        table = member_tables(seed, members, model.modes, dt, n_steps)
    law = model.law_eff
    state = state0.batch(members)
    acc = LedgerAccumulator(grid, law, model.visc, model.noise, members=members)
    stats = StepStats(np.zeros(members, dtype=np.int64), np.zeros(members))

    def march_range(lo, hi):  # one sample interval; sums and stats add into their slices
        part = slice(lo, hi)
        try:
            return march(grid, model, stepper, state.rows(part), dt, steps[part],
                         acc.rows(part),
                         StepStats(stats.floored_cells[part], stats.mass_correction[part]))
        except SimulationError as exc:  # name the member by its ensemble index
            raise exc.renamed(lo + exc.member) from exc

    # each sample is reduced from the joined batch, in member order, and dropped
    times, rows, sums = [], [], []
    with _failure_snapshot(out_dir, grid.dim):
        for i in range(samples + 1):
            times.append(state.t)
            rows.append(acc.sample(state))
            sums.append(member_sums(law, state.rho, state.mom))
            if i < samples:
                steps = table[:, i * stride:(i + 1) * stride]
                state = State.joined(by_member_range(members, threads, march_range))

    member_ledger = EnergyLedger.of_rows(times, rows)
    ensemble_ledger = pooled_ledger(member_ledger, grid, law, model.visc, sums, members)
    snapshots.write_csv(os.path.join(out_dir, "ledger.csv"), ensemble_ledger.as_columns())

    snap_every = cfg["run.snapshot_every"]
    snap_indices = (list(range(0, len(times), snap_every)) if snap_every
                    else []) + [len(times) - 1]
    for i in sorted(set(snap_indices)):
        snapshots.write_state(os.path.join(out_dir, f"state_{i:04d}.snap"), grid,
                              State(sums[i][0] / members, sums[i][1:-1] / members, times[i]))
    snapshots.write_young_measure(out_dir, grid, EmpiricalYoungMeasure(grid, state.rho, state.mom),
                                  times[-1])

    final_defect, final_D = dissipation_defect(grid, sums[-1], members, law)
    _write_observables(os.path.join(out_dir, "observables.csv"), grid, sums[-1] / members,
                       times[-1], final_defect)

    residuals = member_ledger.residual(0, -1)
    mass0 = grid.integrate(state0.rho)
    mass_end = grid.integrate(state.rho).tolist()
    summary = {
        "command": "simulate",
        "n_steps": n_steps,
        "dt": dt,
        "members": members,
        "seed": seed,
        "noise_alpha_sum": model.noise.alpha_sum,
        "mean_member_residual": float(residuals.mean()),
        "se_member_residual": float(member_se(residuals)),
        "final_defect_D": final_D,
        "max_rel_mass_drift": float(max(abs(m - mass0) for m in mass_end) / mass0),
        "floored_cells_total": int(stats.floored_cells.sum()),
        "floor_mass_correction": float(sum(stats.mass_correction.tolist())),
    }
    _finalize(out_dir, cfg, summary)
    return summary


@contextmanager
def _failure_snapshot(out_dir: str, dim: int):
    """Leave a failed run's state behind as ``diagnostic_failure.snap``.

    The state a :class:`SimulationError` carries is written as density plus
    momentum, or, for an incompressible reference, as its velocity.  Its own
    trailing axes give the grid: a weak-strong failure may be on the fine one.
    """
    try:
        yield
    except SimulationError as exc:
        path, state = os.path.join(out_dir, "diagnostic_failure.snap"), exc.state
        if isinstance(state, State):
            snapshots.write_state(path, Grid(state.rho.shape[-dim:]), state)
        elif state is not None:  # an incompressible reference's EulerState
            snapshots.write_field(path, Grid(state.v.shape[-dim:]), state.v, state.t)
        raise


def _write_observables(path, grid, means, time, defect_field):
    n = grid.n_cells
    cols = {"t": [time] * n, "cell": list(range(n)),
            "rho_mean": means[0].reshape(-1)}
    for c in range(grid.dim):
        cols[f"mom_mean_{c}"] = means[1 + c].reshape(-1)
    cols["energy_defect"] = defect_field.reshape(-1)
    snapshots.write_csv(path, cols)


def _finalize(out_dir, cfg, summary):
    with open(os.path.join(out_dir, "config.resolved.cfg"), "w",
              encoding="ascii") as fh:
        fh.write(config_mod.dumps(cfg))
    snapshots.write_format_marker(out_dir)
    snapshots.write_summary(os.path.join(out_dir, "summary.json"), summary)


# --------------------------------------------------------------------------
# weak-strong
# --------------------------------------------------------------------------


def run_weak_strong(cfg: dict, out_dir: str, threads: int = 1) -> dict:
    from .relative import WeakStrongConfig, weak_strong_data, weak_strong_experiment

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
        sample_every=n_steps // samples,
        stepper=build_stepper(cfg),
        grad_threshold=cfg["model.grad_threshold"],
    )
    coarse, fine = weak_strong_data(ws)  # the experiment builds them again from ws
    where = f"on grid.sizes = {list(ws.grid_sizes)}"
    ws.stepper.check_floor(fine.rho, f"the fine data at ws.refine = {ws.refine} {where}",
                           config_mod.ConfigError)
    ws.stepper.check_floor(coarse.rho, f"the coarse data at ws.eta = {ws.eta} {where}",
                           config_mod.ConfigError)
    del coarse, fine
    os.makedirs(out_dir, exist_ok=True)
    with _failure_snapshot(out_dir, len(ws.grid_sizes)):
        report = weak_strong_experiment(ws, threads)
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


def _write_ws_report(out_dir, report):
    env = (report.emv_mean[0] + report.gronwall_bias) * np.exp(
        report.gronwall_c * (report.times - report.times[0]))
    cols = {"t": report.times, "Emv_mean": report.emv_mean, "Emv_se": report.emv_se}
    for j in range(report.remainder_terms.shape[1]):
        cols[f"remainder_term_{j + 1}"] = report.remainder_terms[:, j]
    cols["gronwall_residual"] = report.emv_mean - env
    snapshots.write_csv(os.path.join(out_dir, "weak_strong.csv"), cols)


# --------------------------------------------------------------------------
# limit sweep
# --------------------------------------------------------------------------


def run_limit_sweep(cfg: dict, out_dir: str, threads: int = 1) -> dict:
    from .sweep import SweepConfig, fit_rate, is_solenoidal, run_sweep, well_prepared_data

    grid = build_grid(cfg)
    v0 = build_flow(cfg, "sweep.v0", grid)
    if np.any(v0.rho != 1.0) or not is_solenoidal(grid, v0.mom):  # v0 is a velocity
        raise config_mod.ConfigError(f"sweep.v0 = {cfg['sweep.v0']} on grid.sizes = "
                                     f"{list(grid.sizes)}: the limit data needs a "
                                     f"solenoidal flow of density 1")
    stepper = build_stepper(cfg)
    for eps in cfg["sweep.eps"]:  # each eps's data, prepared at rate eps
        stepper.check_floor(well_prepared_data(grid, eps, v0.mom, eps)[0],
                            f"sweep.eps = {eps} on grid.sizes = {list(grid.sizes)}",
                            config_mod.ConfigError)
    os.makedirs(out_dir, exist_ok=True)
    model = build_model(cfg)
    sweep_cfg = SweepConfig(
        grid_sizes=tuple(cfg["grid.sizes"]),
        eps_schedule=tuple(cfg["sweep.eps"]),
        law=model.law,
        noise=model.noise,
        stepper=stepper,
        horizon=cfg["run.T"],
        grad_threshold=cfg["sweep.grad_threshold"],
        members=cfg["sweep.members"],
        seed=cfg["run.seed"],
        n_samples=cfg["sweep.samples"],
        v0_kind=cfg["sweep.v0"],
    )
    with _failure_snapshot(out_dir, len(sweep_cfg.grid_sizes)):
        report = run_sweep(sweep_cfg, threads)
    _write_sweep_csv(out_dir, report)
    summary = {"command": "limit_sweep",
               "eps": report.eps, "final_emv": report.final_emv,
               "d_sup": report.d_sup, "tau_min": report.tau_min,
               "n_steps": report.n_steps, "cfl_ratio_max": report.cfl_ratio,
               "reference_n_steps": report.n_ref,
               "reference_cfl_ratio_max": report.ref_cfl_ratio}
    if report.eps.size >= 3:
        summary.update(fit_rate(report, sweep_cfg.law.gamma))
    else:
        summary.update({"slope": None, "monotone": None, "pass": None})
    _finalize(out_dir, cfg, summary)
    return summary


def _write_sweep_csv(out_dir, report):
    n_t = len(report.times)  # one row per (eps, t), eps-major
    rows = {"eps": np.repeat(report.eps, n_t), "t": np.tile(report.times, len(report.eps)),
            "Emv_mean": report.emv_mean.ravel(), "Emv_se": report.emv_se.ravel(),
            "D_sup": np.repeat(report.d_sup, n_t), "tau_M": np.repeat(report.tau_min, n_t)}
    snapshots.write_csv(os.path.join(out_dir, "sweep.csv"), rows)

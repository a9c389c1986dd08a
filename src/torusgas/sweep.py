"""Inviscid-incompressible limit experiment and convergence-rate fitting.

For each Mach parameter eps the compressible ensemble (pressure stiffened
by 1/eps^2, viscosities shrinking with eps) runs against the stochastic
incompressible Euler reference on the same Brownian paths; the scaled
relative energy against the pair ``(1, v)``,

    int <0.5 rho |m/rho - v|^2 + (P(rho) - P'(1)(rho - 1) - P(1)) / eps^2>,

is sampled up to the reference's gradient stopping time.  Along the default
coupling ``nu_eps = lambda_eps = eps^2`` and data preparation
``delta(eps) = eps``, the theoretical envelope decays like
``eps^min(2/gamma_*, 1)`` with ``gamma_* = min(gamma, 2)``; the sweep
asserts monotone decay and at least half the envelope slope, since the
unknown Gronwall constant and the fixed-grid discretization bias pollute
the small-eps end.

The incompressible reference does not depend on eps, so each member's
reference is marched once, in Fourier space at the finest step, and every
eps compares against the same velocity at the common sample times.  A
member's stopping time is set by that reference alone and shared by every
eps.  Each eps marches its members as one compressible batch, and each
sample evaluates the relative energy of all sampled members in one call.

The compressible step treats viscosity semi-implicitly (see
:mod:`torusgas.dynamics`), so each eps's step is set by the acoustic bound
alone.  Along ``nu_eps = eps^2`` the explicit diffusive bound would set the
step at the large-eps end, the easiest point of the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .constitutive import PressureLaw, Viscosity
from .dynamics import (ModelConfig, SimulationError, State, StepperConfig,
                       StepStats, cfl_dt, step_em)
from .ensemble import EmpiricalYoungMeasure, dissipation_defect
from .euler import euler_cfl_dt, make_state, step_em_euler, taylor_green
from .grid import Grid
from .noise import NoiseModel, coarsen, member_tables
from .relative import relative_energy_state


class SweepError(ValueError):
    pass


@dataclass(frozen=True)
class SweepConfig:
    grid_sizes: tuple = (64, 64)
    eps_schedule: tuple = tuple(0.5**j for j in range(6))
    gamma: float = 2.0
    a: float = 1.0
    nu_of_eps: Callable[[float], float] = lambda e: e * e
    lambda_of_eps: Callable[[float], float] = lambda e: e * e
    delta_data_of_eps: Callable[[float], float] = lambda e: e
    horizon: float = 0.5
    grad_threshold: float = 2.0
    members: int = 64
    seed: int = 0
    noise_K: tuple = (0.1,)
    noise_L: tuple = (0.05,)
    cfl: float = 0.4
    n_samples: int = 8
    v0_kind: str = "taylor_green"  # or "zero"
    se_groups: int = 4


@dataclass
class RateReport:
    eps: np.ndarray                 # (n_eps,)
    times: np.ndarray               # (n_samples,)
    emv_mean: np.ndarray            # (n_eps, n_samples)
    emv_se: np.ndarray              # (n_eps, n_samples)
    d_series: np.ndarray            # (n_eps, n_samples) pooled defect
    d_sup: np.ndarray               # (n_eps,)
    d_sup_se: np.ndarray            # (n_eps,)
    tau_min: np.ndarray             # (n_eps,) earliest member stopping time, shared
    n_steps: np.ndarray             # (n_eps,)
    emv: Optional[np.ndarray] = None  # (n_eps, members, n_samples), frozen past tau
    tau: Optional[np.ndarray] = None  # (members,) member stopping times, shared by all eps
    grad_max: Optional[np.ndarray] = None  # (members,) reference gradient sup, samples to tau
    cfl_ratio: Optional[np.ndarray] = None  # (n_eps,) largest dt / CFL bound of the march

    @property
    def final_emv(self) -> np.ndarray:
        return self.emv_mean[:, -1]


def well_prepared_data(grid: Grid, eps: float, v0: np.ndarray, delta_data: float):
    """Initial pair ``rho0 = 1 + eps delta eta(x)``, ``m0 = v0 + delta zeta(x)``.

    ``v0`` must be solenoidal.  The preparation bounds are one-sided, so the
    shapes are half-amplitude low Fourier modes: they satisfy
    ``|rho0 - 1|/eps <= delta`` and ``|m0 - v0| <= delta`` while keeping the
    density strictly positive even at ``eps * delta = 1`` (a sup-norm-one
    shape would touch vacuum there).
    """
    v0 = grid.check_vector(v0)
    if float(np.max(np.abs(grid.divergence(v0)))) > 1e-8:
        raise SweepError("well-prepared data needs a solenoidal v0")
    coords = grid.coordinates()
    eta_shape = 0.5 * np.sin(coords[0])
    zeta_shape = np.zeros((grid.dim, *grid.sizes))
    zeta_shape[0] = 0.5 * np.sin(coords[-1])
    rho0 = 1.0 + eps * delta_data * eta_shape
    if np.min(rho0) <= 0:
        raise SweepError("prepared density lost positivity; shrink eps or delta")
    mom0 = v0 + delta_data * zeta_shape
    return rho0, mom0


def _round_up_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


V0_KINDS = ("taylor_green", "zero")  # taylor_green needs a 2-D grid


def _initial_v0(grid: Grid, kind: str) -> np.ndarray:
    if kind == "taylor_green":
        return taylor_green(grid)
    if kind == "zero":
        return np.zeros((grid.dim, *grid.sizes))
    raise SweepError(f"unknown v0 kind {kind!r}")


def _march_reference(grid: Grid, noise: NoiseModel, v0: np.ndarray, table: np.ndarray,
                     horizon: float, n_samples: int, threshold: float):
    """March every member's Euler reference once, on its base increment table.

    Returns the velocity at the ``n_samples + 1`` common sample times
    ``(M, n_samples + 1, N, *sizes)``, each member's stopping sample
    (``n_samples + 1`` if it never stops) and each member's largest
    gradient sup-norm over the samples up to its stop.  A member whose
    gradient crosses the threshold at a sample stops there: it is not
    sampled there (unless it is the first sample) and never stepped again.
    """
    members, n_base = table.shape[:2]
    dt = horizon / n_base
    stride = n_base // n_samples
    v_ref = np.zeros((members, n_samples + 1, grid.dim, *grid.sizes))
    stop = np.full(members, n_samples + 1)
    grad_max = np.zeros(members)
    eul = make_state(grid, np.broadcast_to(v0, (members, *v0.shape)))
    live = np.arange(members)  # ensemble index of each marched row
    for step in range(n_base + 1):
        if step % stride == 0 and live.size:
            i_s = step // stride
            grad = eul.grad_inf
            freeze = grad > threshold
            sampled = ~freeze | (i_s == 0)
            v_ref[live[sampled], i_s] = eul.v[sampled]
            grad_max[live] = np.maximum(grad_max[live], grad)
            if freeze.any():
                stop[live[freeze]] = i_s
                eul = eul.rows(~freeze)
                live = live[~freeze]
        if step < n_base and live.size:
            eul = step_em_euler(grid, noise, eul, dt, table[live, step])
    return v_ref, stop, grad_max


def run_sweep(cfg: SweepConfig) -> RateReport:
    """Execute the eps schedule and collect the rate data.

    Each member's Brownian path is drawn once, as an increment table at the
    finest step, before the eps loop.  The incompressible reference does not
    depend on eps: it is marched once per member, as one Euler batch in
    Fourier space on the base table (the finest step), and its velocity is
    kept at the common sample times.  Every eps coarsens the stacked
    ``(M, n_base, K)`` tables to its own step count (powers of two dividing
    the common base), so its compressible batch runs on the same path as the
    reference.  Sharing the path across eps variance-reduces the cross-eps
    comparison.

    Each eps's step count is ``horizon / (0.6 dt)`` rounded up to a power of
    two, where ``dt`` is the smaller of the compressible acoustic bound and
    the reference's bound at the initial state; the compressible step is
    semi-implicit in the viscosity, so it has no diffusive bound.
    The bound tightens as the run goes on; ``RateReport.cfl_ratio`` records,
    per eps, the largest ``dt`` over the bound met during the march, which
    the 0.6 margin keeps below 1.

    Freezing is per member and set by the reference alone: a member whose
    reference gradient crosses the threshold at a sample stops at that
    sample's time ``tau``, the same for every eps.  Each eps's compressible
    batch ``(M, *sizes)`` drops the member at ``tau`` and never steps it
    again; its later samples repeat its last relative energy, and its last
    sampled state stays in the pooled dissipation defect.  At a sample the
    relative energy is one call on the batch of sampled members, and every
    member's values are those of marching it alone.  A CFL blow-up names
    the member, eps and the ``dt`` it needed.
    """
    grid = Grid(cfg.grid_sizes)
    noise = NoiseModel(K=cfg.noise_K, L=cfg.noise_L)
    v0 = _initial_v0(grid, cfg.v0_kind)
    eul0 = make_state(grid, v0)
    eps_list = list(cfg.eps_schedule)

    # per-eps step counts from the acoustic and reference CFL bounds at t = 0
    n_steps = []
    models = []
    stepper = StepperConfig(cfl=cfg.cfl, semi_implicit=True)
    for eps in eps_list:
        law = PressureLaw(cfg.a, cfg.gamma)
        visc = Viscosity(cfg.nu_of_eps(eps), cfg.lambda_of_eps(eps))
        model = ModelConfig(law=law, visc=visc, noise=noise, eps=eps,
                            grad_threshold=cfg.grad_threshold)
        delta_data = cfg.delta_data_of_eps(eps)
        rho0, mom0 = well_prepared_data(grid, eps, v0, delta_data)
        trial = State(rho0, mom0)
        dt_bound = min(cfl_dt(grid, model, trial, stepper),
                       euler_cfl_dt(grid, eul0, cfg.cfl))
        # generous margin: the bound tightens as acoustics steepen mid-run
        n = _round_up_pow2(max(cfg.n_samples, int(np.ceil(cfg.horizon / (0.6 * dt_bound)))))
        n_steps.append(n)
        models.append((model, rho0, mom0))
    n_base = max(n_steps)
    base_table = member_tables(cfg.seed, cfg.members, noise.modes, cfg.horizon / n_base,
                               n_base)
    v_ref, stop, grad_max = _march_reference(grid, noise, v0, base_table, cfg.horizon,
                                             cfg.n_samples, cfg.grad_threshold)

    times = np.linspace(0.0, cfg.horizon, cfg.n_samples + 1)
    tau = times[np.minimum(stop, cfg.n_samples)]

    n_eps = len(eps_list)
    emv = np.zeros((n_eps, cfg.members, cfg.n_samples + 1))
    d_series = np.zeros((n_eps, cfg.n_samples + 1))
    d_groups = np.zeros((n_eps, cfg.se_groups, cfg.n_samples + 1))
    cfl_ratio = np.zeros(n_eps)
    ones = np.ones(grid.sizes)
    g_size = cfg.members // cfg.se_groups

    for i_eps, eps in enumerate(eps_list):
        model, rho0, mom0 = models[i_eps]
        law_eff = model.law_eff
        n = n_steps[i_eps]
        dt = cfg.horizon / n
        stride = n // cfg.n_samples
        table = coarsen(base_table, n)
        comp = State(rho0, mom0).batch(cfg.members)
        last = comp.copy()  # each member's last sampled state
        live = np.arange(cfg.members)  # ensemble index of each marched row
        for step in range(n + 1):
            if step % stride == 0:
                i_s = step // stride
                if i_s > 0:  # stopped members repeat their last sample
                    emv[i_eps, :, i_s] = emv[i_eps, :, i_s - 1]
                if live.size:
                    keep = stop[live] > i_s
                    sampled = keep | (i_s == 0)  # stopped rows keep the last sample
                    rows = live[sampled]
                    emv[i_eps, rows, i_s] = relative_energy_state(
                        grid, law_eff, State(comp.rho[sampled], comp.mom[sampled]),
                        ones, v_ref[rows, i_s])
                    last.rho[rows] = comp.rho[sampled]
                    last.mom[rows] = comp.mom[sampled]
                    if not keep.all():
                        comp = State(comp.rho[keep], comp.mom[keep], comp.t)
                        live = live[keep]
                # pooled dissipation defect across members, and per SE group
                _, d_series[i_eps, i_s] = dissipation_defect(
                    EmpiricalYoungMeasure(grid, last.rho, last.mom), law_eff)
                for gidx in range(cfg.se_groups):
                    sl = slice(gidx * g_size, (gidx + 1) * g_size)
                    _, d_groups[i_eps, gidx, i_s] = dissipation_defect(
                        EmpiricalYoungMeasure(grid, last.rho[sl], last.mom[sl]), law_eff)
            if step < n and live.size:
                stats = StepStats()  # the batch shrinks as members stop: floors not kept
                try:
                    comp = step_em(grid, model, stepper, comp, dt, table[live, step],
                                   stats=stats)
                except SimulationError as exc:
                    needed = cfl_dt(grid, model, comp.member(exc.member), stepper)
                    raise SweepError(
                        f"CFL blow-up at eps={eps}, member {live[exc.member]}: "
                        f"{exc.detail}; required dt <= {needed:.3e} (have {dt:.3e})"
                    ) from exc
                cfl_ratio[i_eps] = max(cfl_ratio[i_eps], stats.cfl_ratio)

    emv_mean = emv.mean(axis=1)
    emv_se = (emv.std(axis=1, ddof=1) / np.sqrt(cfg.members)
              if cfg.members > 1 else np.zeros_like(emv_mean))
    d_sup = d_series.max(axis=1)
    d_sup_se = (d_groups.max(axis=2).std(axis=1, ddof=1) / np.sqrt(cfg.se_groups)
                if cfg.se_groups > 1 else np.zeros(n_eps))
    return RateReport(
        eps=np.asarray(eps_list),
        times=times,
        emv_mean=emv_mean,
        emv_se=emv_se,
        d_series=d_series,
        d_sup=d_sup,
        d_sup_se=d_sup_se,
        tau_min=np.full(n_eps, tau.min()),
        n_steps=np.asarray(n_steps),
        emv=emv,
        tau=tau,
        grad_max=grad_max,
        cfl_ratio=cfl_ratio,
    )


def theoretical_envelope_exponent(gamma: float) -> float:
    """Envelope exponent ``min(2/gamma_*, 1)`` for the default couplings."""
    gamma_star = min(gamma, 2.0)
    return min(2.0 / gamma_star, 1.0)


def fit_rate(report: RateReport, gamma: float = 2.0) -> dict:
    """Log-log slope of the final relative energy against eps, plus checks.

    Needs at least three eps points.  Pass requires monotone decay along
    the schedule and a fitted slope of at least half the theoretical
    envelope exponent.
    """
    eps = np.asarray(report.eps, dtype=np.float64)
    if eps.size < 3:
        raise SweepError("rate fit needs at least 3 eps points")
    vals = np.asarray(report.final_emv, dtype=np.float64)
    if np.any(vals <= 0):
        raise SweepError("rate fit needs positive relative-energy values")
    slope = float(np.polyfit(np.log(eps), np.log(vals), 1)[0])
    envelope = theoretical_envelope_exponent(gamma)
    order = np.argsort(eps)[::-1]  # decreasing eps along the schedule
    monotone = bool(np.all(np.diff(vals[order]) < 0))
    d_sup = report.d_sup[order]
    d_se = report.d_sup_se[order]
    d_ok = bool(np.all(np.diff(d_sup) <= 2.0 * (d_se[1:] + d_se[:-1])))
    return {
        "slope": slope,
        "envelope": envelope,
        "monotone": monotone,
        "slope_ok": slope >= 0.5 * envelope,
        "d_sup_nonincreasing": d_ok,
        "pass": monotone and slope >= 0.5 * envelope and d_ok,
    }

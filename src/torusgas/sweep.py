"""Inviscid-incompressible limit experiment and convergence-rate fitting.

For each Mach parameter eps the compressible ensemble (pressure stiffened
by 1/eps^2, viscosities shrinking with eps) runs against the stochastic
incompressible Euler reference on the same Brownian paths; the scaled
relative energy against the pair ``(1, v)``,

    int <0.5 rho |m/rho - v|^2 + (P(rho) - P'(1)(rho - 1) - P(1)) / eps^2>,

is sampled up to the reference's gradient stopping time.  The sweep runs
one scaling, viscosities ``nu_eps = lambda_eps = eps^2`` and data prepared
at rate ``delta(eps) = eps``; along it the theoretical envelope decays like
``eps^min(2/gamma_*, 1)`` with ``gamma_* = min(gamma, 2)``; the sweep
asserts monotone decay and at least half the envelope slope, since the
unknown Gronwall constant and the fixed-grid discretization bias pollute
the small-eps end.

The incompressible reference does not depend on eps, so each member's
reference is marched once, in Fourier space at its own advective step, and
every eps compares against the same velocity at the common sample times.  A
member's stopping time is set by that reference alone and shared by every
eps.  Each eps marches its live members one sample interval at a time, in
contiguous ranges of one compressible batch each, and reduces each sample
from the joined batch: the relative energy in one call, and the pooled
dissipation defect from per-cell member sums, each stopped member's frozen
at its last sample.

The compressible step is IMEX (see :mod:`torusgas.dynamics`): viscosity
semi-implicit and the linear acoustics about ``rho = 1`` Crank-Nicolson, so
each eps's step is set by the advection and the pressure remainder alone.
Along ``nu_eps = eps^2`` the explicit diffusive bound would set the step at
the large-eps end, the easiest point of the sweep, and the explicit
acoustic bound ``h eps / c`` at the small-eps end, where it also biases the
relative energy upward.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .constitutive import PressureLaw, Viscosity
from .dynamics import (ModelConfig, SimulationError, State, StepperConfig,
                       StepStats, cfl_dt, initial_flow, step_em)
from .ensemble import by_member_range, dissipation_defect, fit_line, member_se, member_sums
from .euler import euler_cfl_dt, make_state, step_em_euler
from .grid import Grid
from .noise import NoiseModel, coarsen, member_tables
from .relative import relative_energy_state


class SweepError(ValueError):
    pass


@dataclass(frozen=True)
class SweepConfig:
    """One limit sweep: ``law`` is unscaled (each eps stiffens it by ``1/eps^2``),
    and every eps steps semi-implicitly at ``stepper``'s CFL number and floor."""

    grid_sizes: tuple = (64, 64)
    eps_schedule: tuple = tuple(0.5**j for j in range(6))
    law: PressureLaw = PressureLaw(1.0, 2.0)
    noise: NoiseModel = NoiseModel(K=(0.1,), L=(0.05,))
    stepper: StepperConfig = StepperConfig()
    horizon: float = 0.5
    grad_threshold: float = 2.0
    members: int = 64
    seed: int = 0
    n_samples: int = 8
    v0_kind: str = "taylor_green"  # a flow of dynamics.FLOWS, its momentum the velocity
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
    n_ref: int = 0                  # the reference's step count
    ref_cfl_ratio: float = 0.0      # largest dt / advective bound of the reference march

    @property
    def final_emv(self) -> np.ndarray:
        return self.emv_mean[:, -1]


def is_solenoidal(grid: Grid, v: np.ndarray) -> bool:
    """Whether ``sup |div v| <= 1e-8``, the divergence well-prepared data allow."""
    return float(np.max(np.abs(grid.divergence(v)))) <= 1e-8


def well_prepared_data(grid: Grid, eps: float, v0: np.ndarray, delta_data: float):
    """Initial pair ``rho0 = 1 + eps delta eta(x)``, ``m0 = v0 + delta zeta(x)``.

    ``v0`` must be solenoidal.  The preparation bounds are one-sided, so the
    shapes are half-amplitude low Fourier modes: they satisfy
    ``|rho0 - 1|/eps <= delta`` and ``|m0 - v0| <= delta`` while keeping the
    density strictly positive for ``eps * delta < 2`` (a sup-norm-one shape
    would touch vacuum at ``eps * delta = 1``).  ``limit-sweep`` checks each
    eps's density against ``stepper.rho_floor`` before it marches.
    """
    v0 = grid.check_vector(v0)
    if not is_solenoidal(grid, v0):
        raise SweepError("well-prepared data needs a solenoidal v0")
    coords = grid.coordinates()
    eta_shape = 0.5 * np.sin(coords[0])
    zeta_shape = np.zeros((grid.dim, *grid.sizes))
    zeta_shape[0] = 0.5 * np.sin(coords[-1])
    rho0 = 1.0 + eps * delta_data * eta_shape
    mom0 = v0 + delta_data * zeta_shape
    return rho0, mom0


def _round_up_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def _step_count(cfg: SweepConfig, dt_bound: float) -> int:
    """Steps over the horizon at ``0.6 dt_bound``, a power of two, at least one per sample.

    The margin is generous because the bound tightens as the run goes on.
    """
    return _round_up_pow2(max(cfg.n_samples, int(np.ceil(cfg.horizon / (0.6 * dt_bound)))))


def _march_reference(grid: Grid, noise: NoiseModel, v0: np.ndarray, table: np.ndarray,
                     horizon: float, n_samples: int, threshold: float, cfl: float,
                     threads: int = 1):
    """March every member's Euler reference once on its own table, in member ranges.

    ``table`` is ``(M, n_ref, K)``, the members' paths at the reference's
    own step.  Returns the velocity at the ``n_samples + 1`` common sample
    times ``(M, n_samples + 1, N, *sizes)``, each member's stopping sample
    (``n_samples + 1`` if it never stops), each member's largest gradient
    sup-norm over the samples up to its stop, and the largest ``dt`` over
    the advective bound of the march.  A member whose gradient crosses the
    threshold at a sample stops there: it is not sampled there (unless it is
    the first sample) and never stepped again.  A failing step is re-raised
    naming the member by its ensemble index, prefixed ``reference``.
    """
    members, n_ref = table.shape[:2]
    dt = horizon / n_ref
    stride = n_ref // n_samples
    v_ref = np.zeros((members, n_samples + 1, grid.dim, *grid.sizes))
    stop = np.full(members, n_samples + 1)
    grad_max = np.zeros(members)

    def march_range(lo, hi):
        eul = make_state(grid, np.broadcast_to(v0, (hi - lo, *v0.shape)))
        live = np.arange(lo, hi)  # ensemble index of each marched row
        stats = StepStats()
        for step in range(n_ref + 1):
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
            if step < n_ref and live.size:
                try:
                    eul = step_em_euler(grid, noise, eul, dt, table[live, step], cfl=cfl,
                                        stats=stats)
                except SimulationError as exc:  # name the member by its ensemble index
                    raise exc.renamed(int(live[exc.member]), "reference ") from exc
        return stats.cfl_ratio

    ratio = max(by_member_range(members, threads, march_range))
    return v_ref, stop, grad_max, ratio


def run_sweep(cfg: SweepConfig, threads: int = 1) -> RateReport:
    """Execute the eps schedule and collect the rate data.

    Each member's Brownian path is drawn once, as an increment table at the
    finest step, before the eps loop.  The incompressible reference does not
    depend on eps: it is marched once per member, as one Euler batch in
    Fourier space at its own step, and its velocity is kept at the common
    sample times.  The reference and every eps coarsen the stacked
    ``(M, n_base, K)`` tables to their own step counts (powers of two
    dividing the common base), so each batch runs on the same path.
    Sharing the path across eps variance-reduces the cross-eps comparison.

    Each march's step count is ``horizon / (0.6 dt)`` rounded up to a power
    of two, where ``dt`` is its own CFL bound at the initial state: the
    advective bound for the reference, the compressible step's bound for an
    eps.  The compressible step has no diffusive bound and no ``1/eps``
    sound speed in its bound.  The bounds tighten as the run goes on;
    ``RateReport.cfl_ratio`` records, per eps, and ``RateReport.ref_cfl_ratio``
    for the reference, the largest ``dt`` over the bound met during the
    march, which the 0.6 margin keeps below 1; beyond 1 a march raises.

    Freezing is per member and set by the reference alone: a member whose
    reference gradient crosses the threshold at a sample stops at that
    sample's time ``tau``, the same for every eps.  The reference marches
    ``threads`` contiguous member ranges, one batch ``(M_r, *sizes)`` each.
    Each eps marches its live members one sample interval per
    :func:`by_member_range` call, in up to ``threads`` contiguous ranges, and
    joins them; a member is dropped at ``tau`` and never stepped again, and
    its later samples repeat its last relative energy and last sampled
    state.  Each sample is reduced from the joined batch, in member order:
    the relative energies, and the :func:`~torusgas.ensemble.member_sums`
    of each contiguous standard-error group, to which ``frozen`` adds those
    its stopped members had at their last sample; the pooled defect reads
    the group sums added in group order.  Every member's values are those of
    marching it alone.  A failing step is re-raised naming the member by its
    ensemble index, with eps and ``dt``; the step's message names the step.
    A failed interval is replayed from its start as one batch (see
    :func:`by_member_range`).  ``n_samples`` must be a power of two, so that
    it divides every march's step count.  An eps whose data is not above
    ``stepper.rho_floor`` raises a ``SweepError`` naming it, before any march.
    """
    if cfg.n_samples < 1 or cfg.n_samples & (cfg.n_samples - 1):
        raise SweepError(f"n_samples = {cfg.n_samples}: must be a power of two")
    grid = Grid(cfg.grid_sizes)
    v0 = initial_flow(grid, cfg.v0_kind).mom
    eps_list = list(cfg.eps_schedule)

    # step counts from each march's own CFL bound at t = 0
    stepper = replace(cfg.stepper, semi_implicit=True)
    n_ref = _step_count(cfg, euler_cfl_dt(grid, make_state(grid, v0), stepper.cfl))
    n_steps = []
    models = []
    for eps in eps_list:  # nu = lambda = eps^2, data prepared at rate eps
        model = ModelConfig(law=cfg.law, visc=Viscosity(eps * eps, eps * eps),
                            noise=cfg.noise, eps=eps)
        rho0, mom0 = well_prepared_data(grid, eps, v0, eps)
        stepper.check_floor(rho0, f"the data prepared at eps = {eps}", SweepError)
        n_steps.append(_step_count(cfg, cfl_dt(grid, model, State(rho0, mom0), stepper)))
        models.append((model, rho0, mom0))
    n_base = max(n_steps + [n_ref])
    base_table = member_tables(cfg.seed, cfg.members, cfg.noise.modes, cfg.horizon / n_base,
                               n_base)
    v_ref, stop, grad_max, ref_cfl_ratio = _march_reference(
        grid, cfg.noise, v0, coarsen(base_table, n_ref), cfg.horizon, cfg.n_samples,
        cfg.grad_threshold, stepper.cfl, threads)

    times = np.linspace(0.0, cfg.horizon, cfg.n_samples + 1)
    tau = times[np.minimum(stop, cfg.n_samples)]

    n_eps = len(eps_list)
    emv = np.zeros((n_eps, cfg.members, cfg.n_samples + 1))
    d_series = np.zeros((n_eps, cfg.n_samples + 1))
    d_groups = np.zeros((n_eps, cfg.se_groups, cfg.n_samples + 1))
    cfl_ratio = np.zeros(n_eps)
    ones = np.ones(grid.sizes)
    group_n = [idx.size for idx in np.array_split(np.arange(cfg.members), cfg.se_groups)]
    edges = np.cumsum([0] + group_n)  # contiguous standard-error groups
    last = np.maximum(stop - 1, 0)  # each member's last sample

    for i_eps, eps in enumerate(eps_list):
        model, rho0, mom0 = models[i_eps]
        law_eff = model.law_eff
        n = n_steps[i_eps]
        dt = cfg.horizon / n
        stride = n // cfg.n_samples
        table = coarsen(base_table, n)
        comp = State(rho0, mom0).batch(cfg.members)
        live = np.arange(cfg.members)  # ensemble index of each row of comp
        frozen = np.zeros((cfg.se_groups, grid.dim + 2, *grid.sizes))  # stopped members' sums

        def march_range(lo, hi):  # rows [lo, hi) of comp over one sample interval
            batch, ratio = comp.rows(slice(lo, hi)), 0.0
            for k in range(stride):
                stats = StepStats()  # the batch shrinks as members stop: floors not kept
                try:
                    batch = step_em(grid, model, stepper, batch, dt, steps[live[lo:hi], k],
                                    stats=stats)
                except SimulationError as exc:  # name the member by its ensemble index
                    raise exc.renamed(int(live[lo + exc.member]),
                                      f"eps={eps}, dt={dt:.3e}: ") from exc
                ratio = max(ratio, stats.cfl_ratio)
            return batch, ratio

        for i_s in range(cfg.n_samples + 1):
            if i_s > 0:  # stopped members repeat their last sample
                emv[i_eps, :, i_s] = emv[i_eps, :, i_s - 1]
            keep = stop[live] > i_s
            sampled = keep | (i_s == 0)  # stopped rows keep the last sample
            rows, batch = live[sampled], comp.rows(sampled)
            if rows.size:
                emv[i_eps, rows, i_s] = relative_energy_state(
                    grid, law_eff, batch, ones, v_ref[rows, i_s])
            if not keep.all():
                comp, live = comp.rows(keep), live[keep]
            # each SE group's sampled rows are contiguous, counted (a first np.searchsorted call
            # adds 0.1 MB of resident memory); a row's sums freeze at its last sample
            bounds = [np.count_nonzero(rows < e) for e in edges]
            blocks = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
            ends = last[rows] == i_s
            sums = frozen + [member_sums(law_eff, batch.rho[b], batch.mom[b]) for b in blocks]
            frozen += [member_sums(law_eff, batch.rho[b][ends[b]], batch.mom[b][ends[b]])
                       for b in blocks]
            d_groups[i_eps, :, i_s] = [dissipation_defect(grid, s, n, law_eff)[1]
                                       for s, n in zip(sums, group_n)]
            d_series[i_eps, i_s] = dissipation_defect(grid, np.sum(sums, axis=0), cfg.members,
                                                      law_eff)[1]
            del batch  # not kept through the march
            if i_s < cfg.n_samples and live.size:
                steps = table[:, i_s * stride:(i_s + 1) * stride]
                parts = by_member_range(live.size, threads, march_range)
                comp = State.joined([p for p, _ in parts])
                cfl_ratio[i_eps] = max(cfl_ratio[i_eps], *(r for _, r in parts))

    return RateReport(
        eps=np.asarray(eps_list),
        times=times,
        emv_mean=emv.mean(axis=1),
        emv_se=member_se(emv, axis=1),
        d_series=d_series,
        d_sup=d_series.max(axis=1),
        d_sup_se=member_se(d_groups.max(axis=2), axis=1),
        tau_min=np.full(n_eps, tau.min()),
        n_steps=np.asarray(n_steps),
        emv=emv,
        tau=tau,
        grad_max=grad_max,
        cfl_ratio=cfl_ratio,
        n_ref=n_ref,
        ref_cfl_ratio=ref_cfl_ratio,
    )


def theoretical_envelope_exponent(gamma: float) -> float:
    """Envelope exponent ``min(2/gamma_*, 1)`` along the sweep's scaling."""
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
    slope = fit_line(np.log(eps), np.log(vals))[0]
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

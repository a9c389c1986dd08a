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

The incompressible reference does not depend on eps: it is one Euler
batch in Fourier space at its own advective step, and it sets each
member's stopping time, shared by every eps.  One loop over the sample
intervals advances the reference and then each eps by one interval, in
contiguous member ranges, and reduces each sample from the joined batches:
the relative energy in one call, and the pooled dissipation defect from
per-cell member sums, each stopped member's frozen at its last sample.

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
from functools import partial
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


def _interval(step, state, live, steps: np.ndarray, dt: float, prefix: str, threads: int):
    """Advance ``state``, a batch of the members ``live``, over the steps ``(M, stride, K)``.

    ``step(batch, dt, dW, stats=...)`` is one step.  The rows march in one
    :func:`by_member_range` call and are joined in member order.  Returns the
    joined state, without the spectra a compressible step carries, and the
    largest ``dt`` over the CFL bound met.  A failing step is re-raised
    naming the member by its ensemble index, its detail prefixed by
    ``prefix``.
    """
    def march_range(lo, hi):  # rows [lo, hi) of state
        batch, stats = state.rows(slice(lo, hi)), StepStats()
        for k in range(steps.shape[1]):
            try:
                batch = step(batch, dt, steps[live[lo:hi], k], stats=stats)
            except SimulationError as exc:  # name the member by its ensemble index
                raise exc.renamed(int(live[lo + exc.member]), prefix) from exc
        if isinstance(batch, State):
            batch = replace(batch, spectra=None)
        return batch, stats.cfl_ratio

    parts = by_member_range(live.size, threads, march_range)
    return type(state).joined([p for p, _ in parts]), max(r for _, r in parts)


def run_sweep(cfg: SweepConfig, threads: int = 1) -> RateReport:
    """Execute the eps schedule and collect the rate data.

    Each member's Brownian path is drawn once, as an increment table at the
    finest step; the reference's table and then each eps's are coarsened
    from it to their own step counts (powers of two dividing the common
    base), so each batch runs on the same path.  Sharing the path across eps
    variance-reduces the cross-eps comparison.  Each march's step count is
    ``horizon / (0.6 dt)`` rounded up to a power of two, where ``dt`` is its
    own CFL bound at the initial state: the advective bound for the
    reference, the compressible step's bound (no diffusive bound, no
    ``1/eps`` sound speed) for an eps.  The bounds tighten as the run goes
    on; ``RateReport.cfl_ratio`` records, per eps, and
    ``RateReport.ref_cfl_ratio`` for the reference, the largest ``dt`` over
    the bound met, which the 0.6 margin keeps below 1; beyond 1 a march
    raises.

    One loop runs over the sample intervals.  In each, the reference (one
    Euler batch in Fourier space, which does not depend on eps) advances its
    live members to the next sample and tests their gradients there; then
    every eps is sampled against the reference's velocity at the interval's
    start; then each eps advances its live members.  A member whose
    reference gradient crosses the threshold at a sample stops at that
    sample's time ``tau``, the same for every eps: it is dropped there,
    unsampled unless it is the first sample, never stepped again, and its
    later samples repeat its last relative energy and last sampled state.
    Each march advances one interval per :func:`by_member_range` call, in up
    to ``threads`` contiguous ranges, joined in member order.  Each sample
    is reduced from the joined batch: the relative energies, and the
    :func:`~torusgas.ensemble.member_sums` of each contiguous standard-error
    group, to which ``frozen`` adds those its stopped members had at their
    last sample; the pooled defect reads the group sums added in group
    order.  Every member's values are those of marching it alone.

    A failing step is re-raised naming the member by its ensemble index,
    with eps and ``dt`` for an eps and prefixed ``reference`` for the
    reference; the step's message names the step.  The failure raised is
    the first in interval order, the reference's before the eps's in
    schedule order within an interval.  A failed interval is replayed from
    its start as one batch (see :func:`by_member_range`).  ``n_samples``
    must be a power of two, so that it divides every march's step count,
    and ``members`` at least ``se_groups``; an eps whose data is not above
    ``stepper.rho_floor`` raises a ``SweepError`` naming it, before any march.
    """
    if cfg.n_samples < 1 or cfg.n_samples & (cfg.n_samples - 1):
        raise SweepError(f"n_samples = {cfg.n_samples}: must be a power of two")
    if cfg.members < cfg.se_groups:
        raise SweepError(f"members = {cfg.members} < se_groups = {cfg.se_groups}: "
                         f"a standard-error group would be empty")
    grid = Grid(cfg.grid_sizes)
    v0 = initial_flow(grid, cfg.v0_kind).mom
    members, samples = cfg.members, cfg.n_samples

    # step counts from each march's own CFL bound at t = 0
    stepper = replace(cfg.stepper, semi_implicit=True)
    ref = make_state(grid, np.broadcast_to(v0, (members, *v0.shape)))
    n_ref = _step_count(cfg, euler_cfl_dt(grid, ref, stepper.cfl))
    models, comps, n_steps = [], [], []
    for eps in cfg.eps_schedule:  # nu = lambda = eps^2, data prepared at rate eps
        model = ModelConfig(law=cfg.law, visc=Viscosity(eps * eps, eps * eps),
                            noise=cfg.noise, eps=eps)
        rho0, mom0 = well_prepared_data(grid, eps, v0, eps)
        stepper.check_floor(rho0, f"the data prepared at eps = {eps}", SweepError)
        n_steps.append(_step_count(cfg, cfl_dt(grid, model, State(rho0, mom0), stepper)))
        models.append(model)
        comps.append(State(rho0, mom0).batch(members))
    n_base = max(n_steps + [n_ref])
    base_table = member_tables(cfg.seed, members, cfg.noise.modes, cfg.horizon / n_base, n_base)
    # each march's table by sample interval, (M, samples, stride, K)
    ref_table, *tables = [coarsen(base_table, n).reshape(members, samples, n // samples,
                                                         cfg.noise.modes)
                          for n in [n_ref] + n_steps]
    del base_table

    times = np.linspace(0.0, cfg.horizon, samples + 1)
    n_eps = len(models)
    emv = np.zeros((n_eps, members, samples + 1))
    d_series = np.zeros((n_eps, samples + 1))
    d_groups = np.zeros((n_eps, cfg.se_groups, samples + 1))
    cfl_ratio = np.zeros(n_eps)
    ones = np.ones(grid.sizes)
    group_n = [idx.size for idx in np.array_split(np.arange(members), cfg.se_groups)]
    edges = np.cumsum([0] + group_n)  # contiguous standard-error groups
    lives = [np.arange(members) for _ in models]  # ensemble index of each row of comps
    frozen = np.zeros((n_eps, cfg.se_groups, grid.dim + 2, *grid.sizes))  # stopped sums
    grad_max = ref.grad_inf
    stop = np.where(grad_max > cfg.grad_threshold, 0, samples + 1)  # samples + 1: never stops
    # ensemble index of each stepped row of ref: the members start alike, so none or all
    # stop at t = 0
    ref_live = np.flatnonzero(stop > 0)
    ref_cfl_ratio = 0.0

    for i_s in range(samples + 1):
        # (a) ref_i, the reference at i_s, has the sampled members as rows; the live
        # members advance to i_s + 1, which settles every stop <= i_s + 1
        ref_i = ref
        if i_s < samples and ref_live.size:
            ref, ratio = _interval(partial(step_em_euler, grid, cfg.noise, cfl=stepper.cfl),
                                   ref, ref_live, ref_table[:, i_s], cfg.horizon / n_ref,
                                   "reference ", threads)
            ref_cfl_ratio = max(ref_cfl_ratio, ratio)
            grad = ref.grad_inf
            grad_max[ref_live] = np.maximum(grad_max[ref_live], grad)
            freeze = grad > cfg.grad_threshold
            if freeze.any():
                stop[ref_live[freeze]] = i_s + 1
                ref, ref_live = ref.rows(~freeze), ref_live[~freeze]

        # (b) every eps at i_s, against ref_i
        for i_eps, model in enumerate(models):
            law_eff, comp, live = model.law_eff, comps[i_eps], lives[i_eps]
            if i_s > 0:  # stopped members repeat their last sample
                emv[i_eps, :, i_s] = emv[i_eps, :, i_s - 1]
            keep = stop[live] > i_s
            sampled = keep | (i_s == 0)  # stopped rows keep the last sample
            rows, batch = live[sampled], comp.rows(sampled)
            if rows.size:
                emv[i_eps, rows, i_s] = relative_energy_state(grid, law_eff, batch, ones,
                                                              ref_i.v)
            if not keep.all():
                comps[i_eps], lives[i_eps] = comp.rows(keep), live[keep]
            # each SE group's sampled rows are contiguous, counted (a first np.searchsorted call
            # adds 0.1 MB of resident memory); a row's sums freeze at its last sample, and the
            # final sample's frozen sums are never read
            bounds = [np.count_nonzero(rows < e) for e in edges]
            blocks = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
            ends = stop[rows] <= i_s + 1
            sums = frozen[i_eps] + [member_sums(law_eff, batch.rho[b], batch.mom[b])
                                    for b in blocks]
            if i_s < samples and ends.any():
                frozen[i_eps] += [member_sums(law_eff, batch.rho[b][ends[b]],
                                              batch.mom[b][ends[b]]) for b in blocks]
            d_groups[i_eps, :, i_s] = [dissipation_defect(grid, s, n, law_eff)[1]
                                       for s, n in zip(sums, group_n)]
            d_series[i_eps, i_s] = dissipation_defect(grid, np.sum(sums, axis=0), members,
                                                      law_eff)[1]
            del batch, comp  # not kept through the marches
        del ref_i

        # (c) each eps's live members advance to i_s + 1
        for i_eps, model in enumerate(models):
            if i_s < samples and lives[i_eps].size:
                dt = cfg.horizon / n_steps[i_eps]
                comps[i_eps], ratio = _interval(
                    partial(step_em, grid, model, stepper), comps[i_eps], lives[i_eps],
                    tables[i_eps][:, i_s], dt, f"eps={model.eps}, dt={dt:.3e}: ", threads)
                cfl_ratio[i_eps] = max(cfl_ratio[i_eps], ratio)

    tau = times[np.minimum(stop, samples)]
    return RateReport(
        eps=np.asarray(cfg.eps_schedule),
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

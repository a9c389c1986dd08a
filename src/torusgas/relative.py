"""Relative energy functional, remainder breakdown and weak-strong experiment.

The relative energy between a Young measure (with defect D) and a smooth
pair ``(r, U)`` is evaluated in two algebraically identical forms: the
five-term definition

    int <0.5|m|^2/rho + P(rho)> + D - int <m>.U + 0.5 int <rho>|U|^2
        - int <rho> P'(r) + int (P'(r) r - P(r))

and the regrouped ``int <0.5 rho |u - U|^2 + H(rho, r)> + D``.  The
remainder breakdown mirrors the nine displayed terms of the relative-energy
inequality; concentration-defect slots accept estimator fields and default
to zero, which is what finite empirical measures produce.

The Dirac forms below take one state or a member batch along a leading
axis and return one value per member.  The relative energy and the
remainder are affine in the Young measure, so an empirical measure's
values are the atom means of its atoms' Dirac values.

The weak-strong experiment realizes the computable shadow of the
uniqueness principle: no closed-form strong solutions of the stochastic
system exist, so the reference is the same discretization at finer
resolution driven pathwise by the same Brownian increments (fine increments
aggregate pairwise onto the coarse partition).  Refinement stability of the
relative-energy gap is then the testable statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .constitutive import (PressureLaw, potential_delta, potential_delta_prime,
                           potential_delta_second, potential_delta_third,
                           pressure_delta, pressure_delta_second, relative_h,
                           stress)
from .dynamics import (ModelConfig, SimulationError, State, StepperConfig, initial_flow,
                       step_em, step_label)
from .ensemble import EmpiricalYoungMeasure, by_member_range, fit_line, member_se, member_sums
from .grid import Grid, grad_inf_norm, random_smooth_scalar, random_smooth_vector
from .noise import _U64, coarsen, member_tables


# --------------------------------------------------------------------------
# the functional
# --------------------------------------------------------------------------


def relative_energy_density(grid: Grid, law: PressureLaw, rho: np.ndarray,
                            mom: np.ndarray, r: np.ndarray, U: np.ndarray) -> np.ndarray:
    """``0.5 rho |m/rho - U|^2 + H(rho, r)`` per cell, of one state or a batch."""
    u = mom / rho[grid.comp(None)]
    kin = 0.5 * rho * np.sum((u - U) ** 2, axis=-grid.dim - 1)
    return kin + relative_h(law, rho, r)


def relative_energy(grid: Grid, law: PressureLaw, ym: EmpiricalYoungMeasure,
                    D: float, r: np.ndarray, U: np.ndarray,
                    form: str = "regrouped") -> float:
    """Relative energy of ``(ym, D)`` against the pair ``(r, U)``."""
    r = np.asarray(r, dtype=np.float64)
    if np.any(r <= 0):
        raise ValueError("reference density must be positive")
    if form == "regrouped":  # the atoms' Dirac densities, summed in atom order
        dens = relative_energy_density(grid, law, ym.rho_atoms, ym.mom_atoms, r, U)
        return float(np.sum(np.sum(dens, axis=0))) / ym.n_atoms * grid.cell_volume + D
    if form == "five_term":
        means = member_sums(law, ym.rho_atoms, ym.mom_atoms) / ym.n_atoms
        b_rho, b_mom = means[0], means[1:-1]
        t1 = grid.integrate(means[-1]) + D
        t2 = -grid.integrate(np.sum(b_mom * U, axis=0))
        t3 = 0.5 * grid.integrate(b_rho * np.sum(U * U, axis=0))
        t4 = -grid.integrate(b_rho * potential_delta_prime(law, r))
        t5 = grid.integrate(potential_delta_prime(law, r) * r - potential_delta(law, r))
        return t1 + t2 + t3 + t4 + t5
    raise ValueError(f"unknown form {form!r}")


def relative_energy_state(grid: Grid, law: PressureLaw, state: State,
                          r: np.ndarray, U: np.ndarray):
    """Dirac fast path: relative energy of a realization (D = 0).

    A float for a single state; for a batch, one value per member, as
    ``grid.integrate`` returns.  ``(r, U)`` is one pair or one per member.
    """
    return grid.integrate(relative_energy_density(grid, law, state.rho, state.mom, r, U))


# --------------------------------------------------------------------------
# reference decompositions and remainder breakdown
# --------------------------------------------------------------------------


@dataclass
class RefDecomps:
    """Drift/diffusion parts of a reference pair; ``lead`` is a batch's member axis."""

    ddr: np.ndarray   # D^d_t r, (*lead, *sizes)
    ddU: np.ndarray   # D^d_t U, (*lead, N, *sizes)
    dsr: np.ndarray   # D^s_t r, (modes, *lead, *sizes)
    dsU: np.ndarray   # D^s_t U, (modes, *lead, N, *sizes)


def reference_decomps(grid: Grid, model: ModelConfig, r: np.ndarray,
                      U: np.ndarray) -> RefDecomps:
    """Decompose the reference pair ``(r, U)``, one pair or a member batch.

    The decompositions substitute the reference's own equations: the
    continuity drift for r, the primitive-variable momentum drift for U and
    the scaled noise coefficient for the diffusion of U.  A reference
    density that is not positive fails, naming the member of a batch.
    """
    r_vec = r[grid.comp(None)]  # scales a vector field cell by cell
    bad = np.flatnonzero(np.any(r <= 0, axis=grid.axes))
    if bad.size:
        raise SimulationError.of_row("reference density lost positivity", State(r, r_vec * U),
                                     int(bad[0]) if r.ndim > grid.dim else None)
    law = model.law_eff
    ddr = -grid.divergence(r_vec * U)
    conv = np.sum(U[grid.comp(None, slice(None))] * grid.gradient_vector(U),
                  axis=-grid.dim - 1)  # (U . grad) U
    ddU = -conv - grid.gradient(pressure_delta(law, r)) / r_vec
    if model.visc is not None:
        ddU = ddU + grid.viscous_operator(U, model.visc.nu,
                                          model.visc.eta(grid.dim)) / r_vec
    dsr = np.zeros((model.modes, *r.shape))
    dsU = np.zeros((model.modes, *U.shape))
    for k in range(model.modes):
        dsU[k] = model.noise.apply_mode(k, grid, r, r_vec * U) / r_vec
    return RefDecomps(ddr=ddr, ddU=ddU, dsr=dsr, dsU=dsU)


REMAINDER_TERMS = (
    "stress_gap",            # S(grad U) : (grad U - grad <u>)
    "momentum_drift",        # <rho U - m> . [D^d U + U.grad U]
    "reynolds",              # <(m - rho U) x (rho U - m)/rho> : grad U
    "density_drift",         # (r - <rho>) P''(r) D^d r + grad P'(r).(r U - <m>)
    "pressure_div",          # (p(r) - <p(rho)>) div U
    "noise_mismatch",        # 0.5 sum_k <rho |G_k/rho - D^s U(e_k)|^2>
    "defect_momentum",       # - grad U : mu_m
    "defect_energy",         # + 0.5 mu_e
    "density_ito",           # second-order D^s r terms
)


def remainder(grid: Grid, model: ModelConfig, rho: np.ndarray, mom: np.ndarray,
              r: np.ndarray, U: np.ndarray, decomps: RefDecomps,
              mu_m: Optional[np.ndarray] = None,
              mu_e: Optional[np.ndarray] = None) -> dict:
    """The nine remainder terms of the relative-energy inequality, per member.

    ``(rho, mom)`` is one state or a member batch, each member read as a
    Dirac measure; ``(r, U)`` and ``decomps`` are one reference pair or one
    per member.  Returns a dict keyed by :data:`REMAINDER_TERMS` plus
    ``"total"``: floats for a single state, one value per member for a batch.
    Every term is affine in the Young measure (barycenters, ``<u>`` through
    the linear gradient, atom means of the Reynolds, pressure and noise
    integrands; the defect terms do not see it), so the remainder of an
    M-atom empirical measure is the atom mean of this call on its atoms.
    """
    law, visc = model.law_eff, model.visc
    c = -grid.dim - 1  # component axis; the algebra below reads axes 0 and 1

    def vec(a):  # component axis first, for a single state and a batch alike
        return np.moveaxis(a, c, 0)

    def ten(a):  # both tensor axes first
        return np.moveaxis(a, (c - 1, c), (0, 1))

    U_, m_ = vec(U), vec(mom)
    grad_U = ten(grid.gradient_vector(U))
    div_U = np.trace(grad_U, axis1=0, axis2=1)
    zero = grid.integrate(np.zeros_like(rho))
    out = {}

    out["stress_gap"] = zero
    if visc is not None:
        gap = grad_U - ten(grid.gradient_vector(mom / rho[grid.comp(None)]))
        out["stress_gap"] = grid.integrate(np.sum(stress(visc, grad_U) * gap, axis=(0, 1)))

    conv = np.einsum("j...,ij...->i...", U_, grad_U)
    out["momentum_drift"] = grid.integrate(
        np.sum((rho * U_ - m_) * (vec(decomps.ddU) + conv), axis=0))

    w = m_ - rho * U_  # m - rho U
    reyn = -(w[:, None] * w[None, :] / rho)
    out["reynolds"] = grid.integrate(np.sum(reyn * grad_U, axis=(0, 1)))

    grad_Pp = vec(grid.gradient(potential_delta_prime(law, r)))
    out["density_drift"] = grid.integrate(
        (r - rho) * potential_delta_second(law, r) * decomps.ddr
        + np.sum(grad_Pp * (r * U_ - m_), axis=0)
    )

    out["pressure_div"] = grid.integrate(
        (pressure_delta(law, r) - pressure_delta(law, rho)) * div_U)

    acc = np.zeros_like(rho)
    for k in range(model.modes):  # one call per mode for the whole batch
        diff = vec(model.noise.apply_mode(k, grid, rho, mom)) / rho - vec(decomps.dsU[k])
        acc += rho * np.sum(diff * diff, axis=0)
    out["noise_mismatch"] = 0.5 * grid.integrate(acc)

    out["defect_momentum"] = (
        zero - grid.integrate(np.sum(grad_U * ten(mu_m), axis=(0, 1)))
        if mu_m is not None else zero
    )
    out["defect_energy"] = zero + 0.5 * grid.integrate(mu_e) if mu_e is not None else zero

    acc = np.zeros_like(rho)
    for k in range(len(decomps.dsr)):
        acc += (-0.5 * rho * potential_delta_third(law, r)
                + 0.5 * pressure_delta_second(law, r)) * decomps.dsr[k] ** 2
    out["density_ito"] = grid.integrate(acc)

    out["total"] = sum(out[name] for name in REMAINDER_TERMS)
    return out


# --------------------------------------------------------------------------
# Gronwall helpers
# --------------------------------------------------------------------------


def gronwall_check(times, values, c: float, bias: float) -> float:
    """Max of ``E(t) - (E(0) + bias) exp(c t)``; the bound holds when it is <= 0."""
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    envelope = (values[0] + bias) * np.exp(c * (times - times[0]))
    return float(np.max(values - envelope))


FIT_REL_FLOOR = 1e-12


def fit_exponential(times, values):
    """Least-squares fit of ``log E = log A + c t``; returns ``(c, A)``.

    Only samples above ``FIT_REL_FLOOR * max(values)`` enter the fit.  A
    relative energy that is exactly zero, such as E_mv(0) with exact
    initial data, evaluates to roundoff (about 1e-23), twelve or more
    orders below the series it starts; on a log scale that one point
    would set the slope alone.  The floor sits four orders above double
    roundoff relative to the peak, so it drops only samples with no signal.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    keep = values > FIT_REL_FLOOR * np.max(values, initial=0.0)
    if np.count_nonzero(keep) < 2:
        return 0.0, 0.0
    c, logA = fit_line(times[keep], np.log(values[keep]))
    return c, float(np.exp(logA))


# --------------------------------------------------------------------------
# weak-strong experiment
# --------------------------------------------------------------------------


@dataclass
class WeakStrongConfig:
    grid_sizes: tuple
    model: ModelConfig
    horizon: float
    n_steps: int
    members: int = 8
    seed: int = 0
    eta: float = 0.0          # target initial relative energy (0 = exact data)
    refine: int = 2           # reference refinement factor (1 = self comparison)
    sample_every: int = 1
    stepper: StepperConfig = field(default_factory=StepperConfig)
    grad_threshold: float = np.inf  # reference gradient past which a member freezes


@dataclass
class RelativeEnergyReport:
    times: np.ndarray
    emv: np.ndarray           # (members, n_samples), frozen past the stopping time
    tau: np.ndarray           # (members,) gradient-threshold stopping times
    gronwall_c: float
    gronwall_bias: float
    gronwall_residual: float
    remainder_terms: np.ndarray  # (n_samples, 9) member means

    @property
    def emv_mean(self) -> np.ndarray:
        return self.emv.mean(axis=0)

    @property
    def emv_se(self) -> np.ndarray:
        return member_se(self.emv)


def _perturb(grid: Grid, law: PressureLaw, rho: np.ndarray, mom: np.ndarray,
             eta: float, rng: np.random.Generator):
    """Perturb data so the initial relative energy is about eta."""
    d_rho = random_smooth_scalar(grid, rng, kmax=3, amplitude=1.0)
    d_mom = random_smooth_vector(grid, rng, kmax=3, amplitude=1.0)
    trial = 1e-4
    st = State(rho + trial * d_rho, mom + trial * d_mom)
    u_ref = mom / rho
    e_trial = relative_energy_state(grid, law, st, rho, u_ref)
    if e_trial <= 0:
        return rho.copy(), mom.copy()
    amp = trial * np.sqrt(eta / e_trial)
    return rho + amp * d_rho, mom + amp * d_mom


def weak_strong_data(cfg: WeakStrongConfig) -> tuple[State, State]:
    """The experiment's coarse and fine member batches at t = 0.

    The fine data is a density wave of amplitude 0.1 (a gentle shear) on the
    refined grid; the coarse data is its restriction, each member perturbed
    to an initial relative energy of about ``cfg.eta``.
    """
    grid_c = Grid(cfg.grid_sizes)
    grid_f = Grid(tuple(cfg.refine * n for n in cfg.grid_sizes))
    fine0 = initial_flow(grid_f, "density_wave", 0.1)
    rho_c0 = grid_f.restrict(fine0.rho, grid_c)
    mom_c0 = grid_f.restrict(fine0.mom, grid_c)
    if cfg.eta > 0:
        data = [_perturb(grid_c, cfg.model.law_eff, rho_c0, mom_c0, cfg.eta,
                         np.random.default_rng((cfg.seed & _U64, m, 0x7A)))
                for m in range(cfg.members)]
        coarse = State(np.stack([d[0] for d in data]), np.stack([d[1] for d in data]))
    else:
        coarse = State(rho_c0, mom_c0).batch(cfg.members)
    return coarse, fine0.batch(cfg.members)


def weak_strong_experiment(cfg: WeakStrongConfig, threads: int = 1) -> RelativeEnergyReport:
    """Pathwise coarse-vs-fine comparison under shared Brownian increments.

    Each member runs the coarse discretization and its own fine reference
    (refined grid and time step) on one Wiener path, drawn once at the fine
    step and coarsened for the coarse run; the relative energy of the coarse
    state against the restricted reference is sampled every
    ``sample_every`` coarse steps, which must divide ``n_steps``, and frozen
    once the reference velocity gradient exceeds the configured threshold.

    The live members march as one coarse batch ``(M, *sizes)`` and one fine
    batch ``(M, *refine * sizes)``, driven by their rows of the fine tables
    ``(M, n_f, K)`` and their coarsening along the step axis, one sample
    interval per :func:`by_member_range` call in up to ``threads`` ranges.
    Each sample is taken from the joined batches on the calling thread: the
    freeze test, then one call each of the relative energy, the reference
    decompositions and the remainder on the sampled members, summed in
    member order.  A member that freezes leaves both batches, and its later
    samples repeat its last value.  Every member's values are those of
    marching it alone, so the report is the same for any ``threads``.  A
    failing step or a nonpositive reference names the member by its
    ensemble index, and the step and ``t`` (a fine step by its place in the
    fine march); it carries the state at the step's start or the pair.  A
    failed interval is replayed from its start as one batch.  Data not above
    ``cfg.stepper.rho_floor`` raises a ``ValueError`` before any table is drawn.
    """
    if cfg.sample_every < 1 or cfg.n_steps % cfg.sample_every:
        raise ValueError(f"sample_every = {cfg.sample_every} does not divide "
                         f"n_steps = {cfg.n_steps}")
    grid_c = Grid(cfg.grid_sizes)
    grid_f = Grid(tuple(cfg.refine * n for n in cfg.grid_sizes))
    model = cfg.model
    law = model.law_eff
    n_f = cfg.refine * cfg.n_steps
    dt_c = cfg.horizon / cfg.n_steps
    dt_f = cfg.horizon / n_f
    stride = cfg.sample_every

    times = np.array([i * dt_c for i in range(0, cfg.n_steps + 1, stride)])
    n_samples = len(times)
    emv = np.zeros((cfg.members, n_samples))
    tau = np.full(cfg.members, cfg.horizon)
    rem_sum = np.zeros((n_samples, len(REMAINDER_TERMS)))

    coarse, fine = weak_strong_data(cfg)
    cfg.stepper.check_floor(fine.rho, "the fine data")
    cfg.stepper.check_floor(coarse.rho, "the coarse data")
    fine_table = member_tables(cfg.seed, cfg.members, model.modes, dt_f, n_f)
    coarse_table = coarsen(fine_table, cfg.n_steps)
    live = np.arange(cfg.members)  # ensemble index of each row of both batches

    def march_range(lo, hi):  # rows [lo, hi) of both batches over one sample interval
        c, f, ids = coarse.rows(slice(lo, hi)), fine.rows(slice(lo, hi)), live[lo:hi]
        for k in range(i_s * stride, (i_s + 1) * stride):
            try:
                c = step_em(grid_c, model, cfg.stepper, c, dt_c, coarse_table[ids, k])
                for j in range(cfg.refine):
                    f = step_em(grid_f, model, cfg.stepper, f, dt_f,
                                fine_table[ids, cfg.refine * k + j])
            except SimulationError as exc:  # name the member by its ensemble index
                raise exc.renamed(int(ids[exc.member])) from exc
        return c, f

    for i_s in range(n_samples):
        if i_s > 0:  # frozen members repeat their last value
            emv[:, i_s] = emv[:, i_s - 1]
        if live.size:
            u_fine = fine.mom / fine.rho[grid_f.comp(None)]
            freeze = grad_inf_norm(grid_f, u_fine) > cfg.grad_threshold
            rows = np.flatnonzero(~freeze | (i_s == 0))
            r_c = grid_f.restrict(fine.rho, grid_c)[rows]
            U_c = grid_f.restrict(u_fine, grid_c)[rows]
            sampled = coarse.rows(rows)
            try:
                decomps = reference_decomps(grid_c, model, r_c, U_c)
            except SimulationError as exc:  # name the ensemble member and the step
                exc.state.t = times[i_s]
                raise exc.renamed(int(live[rows[exc.member]]), "restricted ",
                                  f" at {step_label(exc.state.t, dt_c)}") from exc
            emv[live[rows], i_s] = relative_energy_state(grid_c, law, sampled, r_c, U_c)
            terms = remainder(grid_c, model, sampled.rho, sampled.mom, r_c, U_c, decomps)
            # the sampled members' (members, 9) terms, summed in member order
            rem_sum[i_s] = np.sum(np.stack([terms[k] for k in REMAINDER_TERMS], axis=1),
                                  axis=0)
            if freeze.any():
                tau[live[freeze]] = times[i_s]
                coarse, fine, live = coarse.rows(~freeze), fine.rows(~freeze), live[~freeze]
        if i_s < n_samples - 1 and live.size:
            parts = by_member_range(live.size, threads, march_range)
            coarse = State.joined([c for c, _ in parts])
            fine = State.joined([f for _, f in parts])

    c_fit, amp = fit_exponential(times, emv.mean(axis=0))
    bias = max(amp - emv.mean(axis=0)[0], 0.0)
    resid = gronwall_check(times, emv.mean(axis=0), c_fit, bias)
    return RelativeEnergyReport(
        times=times,
        emv=emv,
        tau=tau,
        gronwall_c=c_fit,
        gronwall_bias=bias,
        gronwall_residual=resid,
        remainder_terms=rem_sum / cfg.members,
    )

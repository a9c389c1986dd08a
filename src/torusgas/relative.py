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

The weak-strong experiment realizes the computable shadow of the
uniqueness principle: no closed-form strong solutions of the stochastic
system exist, so the reference is the same discretization at finer
resolution driven pathwise by the same Brownian increments (fine increments
aggregate pairwise onto the coarse partition).  Refinement stability of the
relative-energy gap is then the testable statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .constitutive import (PressureLaw, potential_delta, potential_delta_prime,
                           potential_delta_second, potential_delta_third,
                           pressure_delta, pressure_delta_second, relative_h,
                           stress)
from .dynamics import ModelConfig, SimulationError, State, StepperConfig, step_em
from .ensemble import EmpiricalYoungMeasure, build_ym, mean_energy_density
from .grid import Grid, grad_inf_norm, random_smooth_scalar, random_smooth_vector
from .noise import WienerPath, coarsen


class RelativeEnergyError(ValueError):
    pass


# --------------------------------------------------------------------------
# the functional
# --------------------------------------------------------------------------


def relative_energy_density(law: PressureLaw, rho: np.ndarray, mom: np.ndarray,
                            r: np.ndarray, U: np.ndarray) -> np.ndarray:
    """``0.5 rho |m/rho - U|^2 + H(rho, r)`` per cell."""
    u = mom / rho
    kin = 0.5 * rho * np.sum((u - U) ** 2, axis=0)
    return kin + relative_h(law, rho, r)


def relative_energy(grid: Grid, law: PressureLaw, ym: EmpiricalYoungMeasure,
                    D: float, r: np.ndarray, U: np.ndarray,
                    form: str = "regrouped") -> float:
    """Relative energy of ``(ym, D)`` against the pair ``(r, U)``."""
    r = np.asarray(r, dtype=np.float64)
    if np.any(r <= 0):
        raise RelativeEnergyError("reference density must be positive")
    if form == "regrouped":
        acc = np.zeros(grid.sizes)
        for i in range(ym.n_atoms):
            acc += relative_energy_density(law, ym.rho_atoms[i], ym.mom_atoms[i], r, U)
        total = float(np.sum(acc)) / ym.n_atoms * grid.cell_volume
        return total + D
    if form == "five_term":
        b_rho, b_mom = ym.barycenter()
        t1 = grid.integrate(mean_energy_density(ym, law)) + D
        t2 = -grid.integrate(np.sum(b_mom * U, axis=0))
        t3 = 0.5 * grid.integrate(b_rho * np.sum(U * U, axis=0))
        t4 = -grid.integrate(b_rho * potential_delta_prime(law, r))
        t5 = grid.integrate(potential_delta_prime(law, r) * r - potential_delta(law, r))
        return t1 + t2 + t3 + t4 + t5
    raise RelativeEnergyError(f"unknown form {form!r}")


def relative_energy_state(grid: Grid, law: PressureLaw, state: State,
                          r: np.ndarray, U: np.ndarray) -> float:
    """Dirac fast path: relative energy of one realization (D = 0)."""
    dens = relative_energy_density(law, state.rho, state.mom, r, U)
    return float(np.sum(dens)) * grid.cell_volume


# --------------------------------------------------------------------------
# reference pairs and remainder breakdown
# --------------------------------------------------------------------------


@dataclass
class RefDecomps:
    """Drift/diffusion decomposition of the reference pair at one time."""

    ddr: Optional[np.ndarray] = None   # D^d_t r
    ddU: Optional[np.ndarray] = None   # D^d_t U
    dsr: Optional[np.ndarray] = None   # (modes, *sizes)
    dsU: Optional[np.ndarray] = None   # (modes, N, *sizes)


@dataclass
class ReferencePair:
    """Sampled strong reference ``(r, U)`` with on-demand decompositions.

    The decompositions substitute the reference's own equations: the
    continuity drift for r, the primitive-variable momentum drift for U and
    the scaled noise coefficient for the diffusion of U.
    """

    grid: Grid
    model: ModelConfig
    times: np.ndarray
    r: np.ndarray   # (n_t, *sizes)
    U: np.ndarray   # (n_t, N, *sizes)

    def bounds(self):
        return float(np.min(self.r)), float(np.max(self.r))

    def decomps(self, i: int) -> RefDecomps:
        grid, model = self.grid, self.model
        r = self.r[i]
        U = self.U[i]
        if np.min(r) <= 0:
            raise RelativeEnergyError("reference density lost positivity")
        law = model.law_eff
        ddr = -grid.divergence(r[None, :] * U if grid.dim == 1 else r * U)
        grad_U = grid.gradient_vector(U)
        conv = np.einsum("j...,ij...->i...", U, grad_U)
        ddU = -conv - grid.gradient(pressure_delta(law, r)) / r
        if model.visc is not None:
            ddU = ddU + grid.viscous_operator(U, model.visc.nu,
                                              model.visc.eta(grid.dim)) / r
        modes = model.modes
        dsr = np.zeros((modes, *grid.sizes))
        dsU = np.zeros((modes, grid.dim, *grid.sizes))
        if model.noise is not None:
            for k in range(modes):
                dsU[k] = model.noise.apply_mode(k, grid, r, r * U) / r
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


def remainder(grid: Grid, model: ModelConfig, ym: EmpiricalYoungMeasure,
              r: np.ndarray, U: np.ndarray, decomps: RefDecomps,
              mu_m: Optional[np.ndarray] = None,
              mu_e: Optional[np.ndarray] = None) -> dict:
    """The nine remainder terms of the relative-energy inequality.

    Returns a dict keyed by :data:`REMAINDER_TERMS` plus ``"total"``.
    Missing decomposition fields raise with the term that needs them.
    """
    law = model.law_eff
    visc = model.visc
    rho_a, mom_a = ym.rho_atoms, ym.mom_atoms
    b_rho = np.mean(rho_a, axis=0)
    b_mom = np.mean(mom_a, axis=0)
    u_mean = np.mean(mom_a / rho_a[:, None], axis=0)
    grad_U = grid.gradient_vector(U)
    div_U = np.trace(grad_U, axis1=0, axis2=1)
    out = {}

    if visc is not None:
        S_U = stress(visc, grad_U)
        gap = grad_U - grid.gradient_vector(u_mean)
        out["stress_gap"] = grid.integrate(np.sum(S_U * gap, axis=(0, 1)))
    else:
        out["stress_gap"] = 0.0

    if decomps.ddU is None:
        raise RelativeEnergyError("remainder term 'momentum_drift' needs D^d U")
    conv = np.einsum("j...,ij...->i...", U, grad_U)
    out["momentum_drift"] = grid.integrate(
        np.sum((b_rho * U - b_mom) * (decomps.ddU + conv), axis=0)
    )

    w = mom_a - rho_a[:, None] * U  # m - rho U per atom
    reyn = -np.mean(w[:, :, None] * w[:, None, :] / rho_a[:, None, None], axis=0)
    out["reynolds"] = grid.integrate(np.sum(reyn * grad_U, axis=(0, 1)))

    if decomps.ddr is None:
        raise RelativeEnergyError("remainder term 'density_drift' needs D^d r")
    grad_Pp = grid.gradient(potential_delta_prime(law, r))
    out["density_drift"] = grid.integrate(
        (r - b_rho) * potential_delta_second(law, r) * decomps.ddr
        + np.sum(grad_Pp * (r * U - b_mom), axis=0)
    )

    p_mean = np.mean(pressure_delta(law, rho_a), axis=0)
    out["pressure_div"] = grid.integrate((pressure_delta(law, r) - p_mean) * div_U)

    noise = model.noise
    if noise is not None and noise.modes:
        if decomps.dsU is None:
            raise RelativeEnergyError("remainder term 'noise_mismatch' needs D^s U")
        acc = np.zeros(grid.sizes)
        for k in range(noise.modes):
            for i in range(ym.n_atoms):
                gk = noise.apply_mode(k, grid, rho_a[i], mom_a[i])
                diff = gk / rho_a[i] - decomps.dsU[k]
                acc += rho_a[i] * np.sum(diff * diff, axis=0) / ym.n_atoms
        out["noise_mismatch"] = 0.5 * grid.integrate(acc)
    else:
        out["noise_mismatch"] = 0.0

    out["defect_momentum"] = (
        -grid.integrate(np.sum(grad_U * mu_m, axis=(0, 1))) if mu_m is not None else 0.0
    )
    out["defect_energy"] = 0.5 * grid.integrate(mu_e) if mu_e is not None else 0.0

    if decomps.dsr is None:
        raise RelativeEnergyError("remainder term 'density_ito' needs D^s r")
    acc = np.zeros(grid.sizes)
    for k in range(decomps.dsr.shape[0]):
        ds2 = decomps.dsr[k] ** 2
        acc += (-0.5 * b_rho * potential_delta_third(law, r)
                + 0.5 * pressure_delta_second(law, r)) * ds2
    out["density_ito"] = grid.integrate(acc)

    out["total"] = float(sum(out[name] for name in REMAINDER_TERMS))
    return out


# --------------------------------------------------------------------------
# Gronwall helpers
# --------------------------------------------------------------------------


def gronwall_check(times, values, c: float, bias: float, tol: float = 1e-12) -> float:
    """Max of ``E(t) - (E(0) + bias) exp(c t)``; passes when <= tol-ish zero."""
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
    c, logA = np.polyfit(times[keep], np.log(values[keep]), 1)
    return float(c), float(np.exp(logA))


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
    init: Optional[Callable] = None  # fine grid -> (rho0, mom0)
    with_remainder: bool = False


@dataclass
class RelativeEnergyReport:
    times: np.ndarray
    emv: np.ndarray           # (members, n_samples), frozen past the stopping time
    tau: np.ndarray           # (members,) gradient-threshold stopping times
    gronwall_c: float
    gronwall_bias: float
    gronwall_residual: float
    remainder_terms: Optional[np.ndarray] = None  # (n_samples, 9) member means

    @property
    def emv_mean(self) -> np.ndarray:
        return self.emv.mean(axis=0)

    @property
    def emv_se(self) -> np.ndarray:
        m = self.emv.shape[0]
        if m < 2:
            return np.zeros(self.emv.shape[1])
        return self.emv.std(axis=0, ddof=1) / np.sqrt(m)


def default_smooth_init(grid: Grid):
    """Smooth deterministic data: a density wave with a gentle shear."""
    coords = grid.coordinates()
    rho = 1.0 + 0.1 * np.sin(coords[0])
    mom = np.zeros((grid.dim, *grid.sizes))
    mom[0] = 0.1 * np.cos(coords[-1])
    return rho, mom


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


def weak_strong_experiment(cfg: WeakStrongConfig) -> RelativeEnergyReport:
    """Pathwise coarse-vs-fine comparison under shared Brownian increments.

    Each member runs the coarse discretization and its own fine reference
    (refined grid and time step) on one Wiener path, drawn once at the fine
    step and coarsened for the coarse run; the relative energy of the coarse
    state against the restricted reference is sampled on the coarse cadence
    and frozen once the reference velocity gradient exceeds the configured
    threshold.

    The members march together: one coarse batch ``(M, *sizes)`` and one
    fine batch ``(M, *refine * sizes)``, driven by the members' fine tables
    stacked into ``(M, n_f, K)`` and coarsened along the step axis.  Freezing
    is per member: a member whose reference gradient crosses the threshold at
    a sample leaves both batches and is never stepped again, and its later
    samples repeat its last value.  The relative energy and the remainder are
    evaluated member by member, so every member's values are those of
    marching it alone.  A failing step names the member by its ensemble
    index.
    """
    grid_c = Grid(cfg.grid_sizes)
    grid_f = Grid(tuple(cfg.refine * n for n in cfg.grid_sizes))
    model = cfg.model
    law = model.law_eff
    n_f = cfg.refine * cfg.n_steps
    dt_c = cfg.horizon / cfg.n_steps
    dt_f = cfg.horizon / n_f
    init = cfg.init or default_smooth_init
    rho_f0, mom_f0 = init(grid_f)
    rho_c0 = grid_f.restrict(rho_f0, grid_c)
    mom_c0 = grid_f.restrict(mom_f0, grid_c)

    sample_idx = list(range(0, cfg.n_steps + 1, cfg.sample_every))
    if sample_idx[-1] != cfg.n_steps:
        sample_idx.append(cfg.n_steps)
    times = np.array([i * dt_c for i in sample_idx])
    n_samples = len(sample_idx)

    emv = np.zeros((cfg.members, n_samples))
    tau = np.full(cfg.members, cfg.horizon)
    rem_acc = np.zeros((n_samples, len(REMAINDER_TERMS))) if cfg.with_remainder else None

    fine_table = np.stack([WienerPath(cfg.seed, m, model.modes, dt_f).table(n_f)
                           for m in range(cfg.members)])
    coarse_table = coarsen(fine_table, cfg.n_steps)
    if cfg.eta > 0:
        data = [_perturb(grid_c, law, rho_c0, mom_c0, cfg.eta,
                         np.random.default_rng((cfg.seed, m, 0x7A)))
                for m in range(cfg.members)]
        coarse = State(np.stack([d[0] for d in data]), np.stack([d[1] for d in data]))
    else:
        coarse = State(rho_c0, mom_c0).batch(cfg.members)
    fine = State(rho_f0, mom_f0).batch(cfg.members)
    live = np.arange(cfg.members)  # ensemble index of each marched row

    sample_pos = 0
    for i_step in range(cfg.n_steps + 1):
        if i_step == sample_idx[sample_pos]:
            if sample_pos > 0:  # frozen members repeat their last value
                emv[:, sample_pos] = emv[:, sample_pos - 1]
            if live.size:
                u_fine = fine.mom / fine.rho[grid_f.comp(None)]
                freeze = grad_inf_norm(grid_f, u_fine) > model.grad_threshold
                r_c = grid_f.restrict(fine.rho, grid_c)
                U_c = grid_f.restrict(u_fine, grid_c)
                for row in np.flatnonzero(~freeze | (sample_pos == 0)):
                    if np.min(r_c[row]) <= 0:
                        raise RelativeEnergyError(
                            "restricted reference density lost positivity")
                    emv[live[row], sample_pos] = relative_energy_state(
                        grid_c, law, coarse.member(row), r_c[row], U_c[row])
                    if cfg.with_remainder:
                        ref = ReferencePair(grid_c, model, times[sample_pos:sample_pos + 1],
                                            r_c[row:row + 1], U_c[row:row + 1])
                        ym = build_ym(grid_c, [coarse.member(row)])
                        terms = remainder(grid_c, model, ym, r_c[row], U_c[row],
                                          ref.decomps(0))
                        rem_acc[sample_pos] += [terms[k] for k in REMAINDER_TERMS]
                if freeze.any():
                    tau[live[freeze]] = i_step * dt_c
                    keep = ~freeze
                    coarse = State(coarse.rho[keep], coarse.mom[keep], coarse.t)
                    fine = State(fine.rho[keep], fine.mom[keep], fine.t)
                    live = live[keep]
            sample_pos += 1
            if sample_pos == n_samples:
                break
        if i_step < cfg.n_steps and live.size:
            try:
                coarse = step_em(grid_c, model, cfg.stepper, coarse, dt_c,
                                 coarse_table[live, i_step])
                for j in range(cfg.refine):
                    fine = step_em(grid_f, model, cfg.stepper, fine, dt_f,
                                   fine_table[live, cfg.refine * i_step + j])
            except SimulationError as exc:  # name the member by its ensemble index
                raise SimulationError(exc.detail, exc.state, int(live[exc.member])) from exc

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
        remainder_terms=None if rem_acc is None else rem_acc / cfg.members,
    )

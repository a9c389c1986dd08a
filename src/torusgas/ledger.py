"""Energy accounting along a run: the discrete energy-inequality ledger.

Each ledger tracks, on one shared time axis,

* ``E(t)``: Young-measure energy plus the dissipation defect D(t),
* the cumulative viscous dissipation ``int S(grad <u>) : grad <u>``,
* the cumulative Ito correction ``0.5 int sum_k <|G_k|^2 / rho>``,
* the realized energy martingale ``sum_k int (int u . G_k dx) dW_k``.

A ledger holds numpy columns with the samples on the last axis: ``(S,)``
for one member or a pooled ensemble, ``(M, S)`` for a member batch.
:func:`march` steps one member or a batch and keeps its ledger;
:func:`pooled_ledger` turns a batch ledger into the ensemble's.

For a single realization the measure is a Dirac and D = 0; for a pooled
ensemble the defect series carries the member spread.  The residual of the
energy inequality between two sample times is
``[E(t) + diss(tau,t)] - [E(tau) + ito(tau,t) + mart(tau,t)]``; its
ensemble mean should sit at or below zero up to the Euler-Maruyama O(dt)
bias plus statistical noise.  The one-sided limits of the continuous theory
collapse to plain samples on a discrete grid; the mu_e contribution is not
tracked separately and lands in the residual's sign allowance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constitutive import PressureLaw, Viscosity, stress_contract
from .dynamics import StepStats, energy_total, step_em
from .ensemble import (EmpiricalYoungMeasure, dissipation_defect,
                       mean_energy_density, velocity_oscillation_field)
from .grid import Grid
from .noise import NoiseModel, WienerPath, member_tables


@dataclass
class EnergyLedger:
    """Columns of the energy-inequality bookkeeping, samples on the last axis."""

    times: np.ndarray       # (S,)
    energy: np.ndarray      # E(t) including D(t)
    defect: np.ndarray      # D(t)
    diss_cum: np.ndarray    # viscous dissipation integral
    ito_cum: np.ndarray     # Ito correction integral
    martingale: np.ndarray  # realized M^2_E path

    def _residual(self, i_tau, i_t):
        # i_t may be a slice when i_tau is a one-element list, as in as_columns
        lhs = self.energy[..., i_t] + (self.diss_cum[..., i_t] - self.diss_cum[..., i_tau])
        rhs = (self.energy[..., i_tau] + (self.ito_cum[..., i_t] - self.ito_cum[..., i_tau])
               + (self.martingale[..., i_t] - self.martingale[..., i_tau]))
        return lhs - rhs

    def residual(self, i_tau: int = 0, i_t: int = -1):
        """Energy-inequality residual between two sample indices (per member of a batch)."""
        i_t = range(len(self.times))[i_t]
        i_tau = range(len(self.times))[i_tau]
        if self.times[i_tau] > self.times[i_t]:
            raise ValueError("residual needs tau <= t")
        return self._residual(i_tau, i_t)

    def as_columns(self) -> dict:
        return {"t": self.times, "E": self.energy, "D": self.defect,
                "dissipation_cum": self.diss_cum, "ito_cum": self.ito_cum,
                "martingale": self.martingale,
                "residual": self._residual([0], slice(None))}  # from the first sample


def total_energy(grid: Grid, ym: EmpiricalYoungMeasure, D: float,
                 law: PressureLaw) -> float:
    """``int <nu; 0.5 |m|^2/rho + P_delta(rho)> dx + D``."""
    return grid.integrate(mean_energy_density(ym, law)) + D


def poincare_ratio(ym: EmpiricalYoungMeasure, law: PressureLaw) -> float:
    """Velocity-oscillation to defect ratio ``int <|u - <u>|^2> dx / D``.

    Returns 0 for a Dirac measure (0/0 passes by convention).
    """
    grid = ym.grid
    osc = grid.integrate(velocity_oscillation_field(ym))
    _, D = dissipation_defect(ym, law)
    if D <= 0.0:
        return 0.0 if osc <= 1e-12 * max(1.0, abs(osc)) else np.inf
    return osc / D


def dissipation_rate(grid: Grid, visc: Viscosity, u: np.ndarray):
    """``int S(grad u) : grad u dx`` of a velocity field or of a batch of them."""
    c = -grid.dim - 1  # the component axis; stress_contract reads the tensor axes first
    grad_u = np.moveaxis(grid.gradient_vector(u), (c - 1, c), (0, 1))
    return grid.integrate(stress_contract(visc, grad_u))


@dataclass
class LedgerAccumulator:
    """Ledger integration of one member or a batch, driven step by step.

    With ``members`` set, the state is a batch of that many members and the
    three running sums are ``(members,)`` arrays, one entry per member.
    """

    grid: Grid
    law: PressureLaw
    visc: Viscosity | None
    noise: NoiseModel | None
    rho_floor: float = 1e-8
    members: int | None = None
    diss_cum: float = 0.0
    ito_cum: float = 0.0
    mart: float = 0.0

    def __post_init__(self):
        if self.members is not None:
            self.diss_cum, self.ito_cum, self.mart = np.zeros((3, self.members))

    def step_increments(self, state, dW: np.ndarray | None, dt: float):
        """Accumulate dissipation, Ito correction and martingale increments.

        Called with the pre-step state and that step's Wiener increments
        (``(M, K)`` for a batch), matching the explicit Euler-Maruyama
        quadrature of the run itself.
        """
        grid = self.grid
        u = state.velocity(grid, self.rho_floor)
        if self.visc is not None:
            self.diss_cum += dt * dissipation_rate(grid, self.visc, u)
        if self.noise is not None and self.noise.modes:
            self.ito_cum += dt * 0.5 * grid.integrate(
                self.noise.ito_correction_density(grid, state.rho, state.mom,
                                                  self.rho_floor))
            if dW is not None:
                for mode in range(self.noise.modes):
                    gk = self.noise.apply_mode(mode, grid, state.rho, state.mom)
                    self.mart += (grid.integrate(np.sum(u * gk, axis=-grid.dim - 1))
                                  * dW[..., mode])


def march(grid: Grid, model, stepper, state0, dt: float, table: np.ndarray,
          stride: int, stats: StepStats | None = None):
    """March one member or a member batch and keep its ledger.

    ``table`` holds the Wiener increments: ``(n_steps, K)`` for one member,
    or ``(M, n_steps, K)`` for a batch whose members all start from the one
    state ``state0``.  A deterministic run passes an empty ``(n_steps, 0)``
    table.  The state and its ledger are sampled every ``stride`` steps from
    step 0; ``stats`` is handed to every step.  Returns the ledger, whose
    defect column is zero, and the sampled states.
    """
    n_steps = table.shape[-2]
    members = len(table) if table.ndim == 3 else None
    law = model.law_eff
    acc = LedgerAccumulator(grid, law, model.visc, model.noise, stepper.rho_floor,
                            members=members)
    state = state0 if members is None else state0.batch(members)
    samples, rows = [], []
    for step in range(n_steps + 1):
        if step % stride == 0:
            samples.append(state)  # steps build new arrays; no copy needed
            # stacked here: a batch's running sums are updated in place
            rows.append(np.stack([energy_total(grid, law, state), acc.diss_cum,
                                  acc.ito_cum, acc.mart]))
        if step < n_steps:
            dW = table[..., step, :]
            acc.step_increments(state, dW, dt)
            state = step_em(grid, model, stepper, state, dt, dW, stats=stats)
    energy, diss, ito, mart = np.stack(rows, axis=-1)
    times = np.array([s.t for s in samples])
    return EnergyLedger(times, energy, np.zeros_like(energy), diss, ito, mart), samples


def pooled_ledger(members: EnergyLedger, grid: Grid, law: PressureLaw, visc,
                  snapshots) -> EnergyLedger:
    """Ensemble ledger: pooled Young-measure energy with the defect series.

    ``members`` is the ensemble's batch ledger and ``snapshots`` maps sample
    index -> EmpiricalYoungMeasure of all members.  Dissipation is
    re-derived from the barycentric velocity (the form the measure-valued
    inequality uses) by the trapezoid rule; Ito and martingale columns are
    member means.
    """
    times = members.times
    n = len(times)
    rates = np.zeros(n)
    if visc is not None:  # all sample times as one batch
        bary = [snapshots[i].barycenter() for i in range(n)]
        u_bar = np.stack([b_mom / np.maximum(b_rho, 1e-300) for b_rho, b_mom in bary])
        rates = dissipation_rate(grid, visc, u_bar)
    diss = np.concatenate([[0.0], np.cumsum(0.5 * (rates[1:] + rates[:-1]) * np.diff(times))])
    defect = np.array([dissipation_defect(snapshots[i], law)[1] for i in range(n)])
    energy = np.array([total_energy(grid, snapshots[i], D, law) for i, D in enumerate(defect)])
    return EnergyLedger(times, energy, defect, diss, np.mean(members.ito_cum, axis=0),
                        np.mean(members.martingale, axis=0))


# --------------------------------------------------------------------------
# cross-variation audit (clause on test processes)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothItoProcess:
    """Finite-mode Ito test process ``df = D^d f dt + sum_k ds[k] dW_k``.

    ``ds`` are constant diffusion coefficients against the driving modes;
    ``independent_seed`` instead drives f by a fresh Wiener path (its
    cross-variation with the run's martingale must then vanish).
    """

    ds: tuple[float, ...]
    independent_seed: int | None = None

    def increments(self, run_path: WienerPath, run_table: np.ndarray) -> np.ndarray:
        """Per-step increments ``df_n = ds . dW_n`` along one run.

        ``run_table`` holds the run's own Wiener increments; an independent
        process draws its own table on the run's time lattice instead.
        """
        if self.independent_seed is not None:
            run_table = WienerPath(self.independent_seed, run_path.member,
                                   run_path.modes, run_path.dt).table(len(run_table))
        return run_table @ np.asarray(self.ds, dtype=np.float64)

    def ds_against_run(self, modes: int) -> np.ndarray:
        """Diffusion coefficients against the run's own modes."""
        if self.independent_seed is not None:
            return np.zeros(modes)
        return np.asarray(self.ds, dtype=np.float64)


def cross_variation_audit(grid: Grid, model, stepper, init_state, horizon: float,
                          n_steps: int, n_paths: int, process: SmoothItoProcess,
                          seed: int = 0) -> dict:
    """Monte Carlo check of the prescribed cross-variation structure.

    Per path, the realized covariation ``sum_n df_n . dMbar_n`` of the test
    process with the space-integrated momentum martingale
    ``Mbar = sum_k int(int G_k dx) dW_k`` is compared against the predicted
    ``sum_k int int <D^s f G_k> dx dt``; the audit passes when the mean
    difference sits within five standard errors of zero, componentwise.
    All paths are marched as one member batch.
    """
    dt = horizon / n_steps
    noise = model.noise
    dim = grid.dim
    paths = [WienerPath(seed, member, noise.modes, dt) for member in range(n_paths)]
    table = member_tables(seed, n_paths, noise.modes, dt, n_steps)
    df_table = np.stack([process.increments(path, table[p])
                         for p, path in enumerate(paths)])
    ds_run = process.ds_against_run(noise.modes)
    state = init_state.batch(n_paths)
    realized = np.zeros((n_paths, dim))
    predicted = np.zeros((n_paths, dim))
    for step in range(n_steps):
        dW = table[:, step]
        g_int = np.empty((n_paths, noise.modes, dim))
        for mode in range(noise.modes):
            gk = noise.apply_mode(mode, grid, state.rho, state.mom)
            for c in range(dim):
                g_int[:, mode, c] = grid.integrate(gk[:, c])
        realized += df_table[:, step, None] * (dW[:, None, :] @ g_int)[:, 0]
        predicted += dt * (ds_run @ g_int)
        state = step_em(grid, model, stepper, state, dt, dW)
    diffs = realized - predicted
    mean = diffs.mean(axis=0)
    se = diffs.std(axis=0, ddof=1) / np.sqrt(n_paths)
    ok = bool(np.all(np.abs(mean) <= 5.0 * np.maximum(se, 1e-300)))
    return {"mean_diff": mean, "se": se, "pass": ok,
            "n_paths": n_paths}

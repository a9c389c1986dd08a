"""Energy accounting along a run: the discrete energy-inequality ledger.

Each ledger tracks, on one shared time axis,

* ``E(t)``: Young-measure energy plus the dissipation defect D(t),
* the cumulative viscous dissipation ``int S(grad <u>) : grad <u>``,
* the cumulative Ito correction ``0.5 int sum_k <|G_k|^2 / rho>``,
* the realized energy martingale ``int (int u . sum_k G_k dW_k dx)``, its
  kick from the :meth:`~torusgas.noise.NoiseModel.momentum_kick` of the step.

A ledger holds numpy columns with the samples on the last axis: ``(S,)``
for one member or a pooled ensemble, ``(M, S)`` for a member batch.
:func:`march` steps one member or a batch over one sample interval and
adds to its running sums, and :meth:`LedgerAccumulator.sample` reads a
ledger row at the interval's end.  :func:`pooled_sample` reduces one
sample of the ensemble's Young measure, so that no member state need be
kept, and :func:`pooled_ledger` turns the batch ledger and those
reductions into the ensemble's ledger.

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

from dataclasses import InitVar, dataclass, replace

import numpy as np

from .constitutive import PressureLaw, Viscosity, stress_contract
from .dynamics import StepStats, energy_total, step_em
from .ensemble import (EmpiricalYoungMeasure, dissipation_defect, energy_defect,
                       velocity_oscillation_field)
from .grid import Grid
from .noise import NoiseModel


@dataclass
class EnergyLedger:
    """Columns of the energy-inequality bookkeeping, samples on the last axis."""

    times: np.ndarray       # (S,)
    energy: np.ndarray      # E(t) including D(t)
    defect: np.ndarray      # D(t)
    diss_cum: np.ndarray    # viscous dissipation integral
    ito_cum: np.ndarray     # Ito correction integral
    martingale: np.ndarray  # realized M^2_E path

    @classmethod
    def of_rows(cls, times, rows) -> "EnergyLedger":
        """A member or batch ledger from its :meth:`LedgerAccumulator.sample` rows; D = 0."""
        energy, diss, ito, mart = np.stack(rows, axis=-1)
        return cls(np.asarray(times), energy, np.zeros_like(energy), diss, ito, mart)

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
    three running sums start as ``(members,)`` zero arrays, one entry per
    member.
    """

    grid: Grid
    law: PressureLaw
    visc: Viscosity | None
    noise: NoiseModel
    rho_floor: float = 1e-8
    members: InitVar[int | None] = None
    diss_cum: float = 0.0
    ito_cum: float = 0.0
    mart: float = 0.0

    def __post_init__(self, members):
        if members is not None:
            self.diss_cum, self.ito_cum, self.mart = np.zeros((3, members))

    def rows(self, keep: slice) -> "LedgerAccumulator":
        """The members ``keep`` of a batch, whose steps add into this batch's sums."""
        return replace(self, diss_cum=self.diss_cum[keep], ito_cum=self.ito_cum[keep],
                       mart=self.mart[keep])  # views: += adds in place

    def sample(self, state):
        """The ledger row at ``state``: its energy and the three running sums.

        The row is a copy, since steps add to a batch's sums in place.
        """
        return np.stack([energy_total(self.grid, self.law, state), self.diss_cum,
                         self.ito_cum, self.mart])

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
        if self.noise.modes:
            self.ito_cum += dt * 0.5 * grid.integrate(
                self.noise.ito_correction_density(grid, state.rho, state.mom,
                                                  self.rho_floor))
            if dW is not None:
                kick = self.noise.momentum_kick(grid, state.rho, state.mom, dW)
                self.mart += grid.integrate(np.sum(u * kick, axis=-grid.dim - 1))


def march(grid: Grid, model, stepper, state, dt: float, table: np.ndarray,
          acc: LedgerAccumulator, stats: StepStats | None = None):
    """March one member or a member batch over one sample interval.

    ``table`` holds the interval's Wiener increments: ``(n, K)`` for one
    member, or ``(M, n, K)`` for a batch of M members; a deterministic run
    passes an empty ``(n, 0)`` table.  Before each step, its ledger
    increments are added to ``acc``; ``stats`` is handed to every step.
    Returns the state after the interval's last step.
    """
    for step in range(table.shape[-2]):
        dW = table[..., step, :]
        acc.step_increments(state, dW, dt)
        state = step_em(grid, model, stepper, state, dt, dW, stats=stats)
    return state


def pooled_sample(grid: Grid, law: PressureLaw, ym: EmpiricalYoungMeasure):
    """One sample of the ensemble ledger, from the Young measure of all members.

    Returns the barycenter ``(<rho>, <m>)``, the dissipation defect D and
    the pooled energy ``int <nu; 0.5 |m|^2/rho + P_delta(rho)> dx + D``.
    """
    mean_e, _, D = energy_defect(ym, law)
    return ym.barycenter(), D, grid.integrate(mean_e) + D


def pooled_ledger(members: EnergyLedger, grid: Grid, visc, barycenters, defect,
                  energy) -> EnergyLedger:
    """Ensemble ledger: pooled Young-measure energy with the defect series.

    ``members`` is the ensemble's batch ledger; ``barycenters``, ``defect``
    and ``energy`` hold :func:`pooled_sample`'s reductions, one per sample.
    Dissipation is re-derived from the barycentric velocity (the form the
    measure-valued inequality uses) by the trapezoid rule; Ito and
    martingale columns are member means.
    """
    times = members.times
    rates = np.zeros(len(times))
    if visc is not None:  # all sample times as one batch
        u_bar = np.stack([b_mom / np.maximum(b_rho, 1e-300) for b_rho, b_mom in barycenters])
        rates = dissipation_rate(grid, visc, u_bar)
    diss = np.concatenate([[0.0], np.cumsum(0.5 * (rates[1:] + rates[:-1]) * np.diff(times))])
    return EnergyLedger(times, np.array(energy), np.array(defect), diss,
                        np.mean(members.ito_cum, axis=0), np.mean(members.martingale, axis=0))


"""Energy accounting along a run: the discrete energy-inequality ledger.

Each ledger tracks, on one shared time axis,

* ``E(t)``: Young-measure energy plus the dissipation defect D(t),
* the cumulative viscous dissipation ``int S(grad <u>) : grad <u>``,
* the cumulative Ito correction ``0.5 int sum_k <|G_k|^2 / rho>``,
* the realized energy martingale ``int (int u . sum_k G_k dW_k dx)``.

A ledger holds numpy columns with the samples on the last axis: ``(S,)``
for one member or a pooled ensemble, ``(M, S)`` for a member batch.
:func:`march` steps one member or a batch over one sample interval, and
each step adds its increments to the running sums in the same pass: it
hands :meth:`LedgerAccumulator.step_increments` the velocity it formed,
the velocity spectrum its drift formed and the kick it adds, so the ledger
makes no transform and no second kick.  The dissipation comes from that
spectrum by Parseval (:func:`dissipation_rate`).
:meth:`LedgerAccumulator.sample` reads a ledger row at the interval's end.
:func:`pooled_ledger` turns the batch ledger and each sample's
:func:`~torusgas.ensemble.member_sums` into the ensemble's ledger, so that
no member state need be kept.

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

from .constitutive import PressureLaw, Viscosity
from .dynamics import StepStats, energy_total, step_em
from .ensemble import (EmpiricalYoungMeasure, dissipation_defect, energy_defect, member_sums,
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
    _, D = dissipation_defect(grid, member_sums(law, ym.rho_atoms, ym.mom_atoms), ym.n_atoms,
                              law)
    if D <= 0.0:
        return 0.0 if osc <= 1e-12 * max(1.0, abs(osc)) else np.inf
    return osc / D


def dissipation_rate(grid: Grid, visc: Viscosity, u_h: np.ndarray):
    """``int S(grad u) : grad u dx`` from the spectrum ``u_h = grid.fwd(u)``.

    ``u_h`` is the spectrum of one velocity field or of a batch of them.
    With ``A = grad u``, ``int A : A = sum_k w |k|^2 |u^|^2`` and
    ``int A^T : A = int (div u)^2 = sum_k w |ik . u^|^2`` by Parseval, so

        int S(A) : A = sum_k w [nu |k|^2 |u^|^2 + (nu + lambda - 2 nu / N) |ik . u^|^2]

    with ``w`` the grid's ``parseval_weight`` and ``|k|^2`` from the
    Nyquist-zeroed ``ik`` of :meth:`~torusgas.grid.Grid.gradient_vector`
    (``grid.k2_odd``).  It equals ``grid.integrate(stress_contract(visc,
    grad_u))`` to roundoff without forming the gradient tensor or making a
    transform; ``verify``'s ``ledger.dissipation`` checks that.
    """
    comp, ik = grid.comp, grid.ik
    power = np.sum(np.abs(u_h) ** 2, axis=-grid.dim - 1)
    div_h = sum(ik[j] * u_h[comp(j)] for j in range(grid.dim))
    nu = visc.nu
    density = (nu * grid.k2_odd * power
               + (nu + visc.lam - 2.0 * nu / grid.dim) * np.abs(div_h) ** 2)
    return grid.modal_integrate(density)


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

    def step_increments(self, state, dt: float, u: np.ndarray, u_h: np.ndarray | None,
                        kick: np.ndarray | None):
        """Accumulate one step's dissipation, Ito correction and martingale increments.

        :func:`~torusgas.dynamics.step_em` calls it with the pre-step state
        and what the step formed from it: the velocity ``u = m / rho``, the
        drift's spectrum of it ``u_h`` (None without viscosity) and the kick
        ``sum_k G_k dW_k`` (None without increments), matching the explicit
        Euler-Maruyama quadrature of the run itself.
        """
        grid = self.grid
        if self.visc is not None:
            self.diss_cum += dt * dissipation_rate(grid, self.visc, u_h)
        if self.noise.modes:
            self.ito_cum += dt * 0.5 * grid.integrate(self.noise.ito_density(grid, state.rho, u))
            if kick is not None:
                self.mart += grid.integrate(np.sum(u * kick, axis=-grid.dim - 1))


def march(grid: Grid, model, stepper, state, dt: float, table: np.ndarray,
          acc: LedgerAccumulator, stats: StepStats | None = None):
    """March one member or a member batch over one sample interval.

    ``table`` holds the interval's Wiener increments: ``(n, K)`` for one
    member, or ``(M, n, K)`` for a batch of M members; a deterministic run
    passes an empty ``(n, 0)`` table.  Each explicit step adds its ledger
    increments to ``acc``; ``stats`` is handed to every step.  Returns the
    state after the interval's last step.
    """
    for step in range(table.shape[-2]):
        state = step_em(grid, model, stepper, state, dt, table[..., step, :], stats=stats,
                        ledger=acc)
    return state


def pooled_ledger(members: EnergyLedger, grid: Grid, law: PressureLaw, visc, sums,
                  n: int) -> EnergyLedger:
    """Ensemble ledger: pooled Young-measure energy with the defect series.

    ``members`` is the ensemble's batch ledger and ``sums`` the
    :func:`~torusgas.ensemble.member_sums` of its ``n`` members, one per
    sample.  The energy is ``int <nu; 0.5 |m|^2/rho + P_delta(rho)> dx + D``.
    Dissipation is re-derived from the barycentric velocity (the form the
    measure-valued inequality uses) by the trapezoid rule; Ito and
    martingale columns are member means.
    """
    times = members.times
    pooled = [energy_defect(grid, s, n, law) for s in sums]
    defect = np.array([D for *_, D in pooled])
    energy = np.array([grid.integrate(mean_e) for mean_e, *_ in pooled]) + defect
    rates = np.zeros(len(times))
    if visc is not None:  # all sample times as one batch
        means = np.asarray(sums) / n
        rates = dissipation_rate(grid, visc, grid.fwd(means[:, 1:-1] / means[:, :1]))
    diss = np.concatenate([[0.0], np.cumsum(0.5 * (rates[1:] + rates[:-1]) * np.diff(times))])
    return EnergyLedger(times, energy, defect, diss,
                        np.mean(members.ito_cum, axis=0), np.mean(members.martingale, axis=0))

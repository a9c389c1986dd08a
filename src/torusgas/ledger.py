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
the velocity spectrum its drift formed and its Wiener increments, so the
ledger makes no transform and forms no kick.  The dissipation comes from
that spectrum by Parseval (:func:`dissipation_rate`), the Ito and
martingale increments from per-member integrals of ``rho``, ``m`` and
``m . u``.
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

import functools
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


@functools.lru_cache(maxsize=8)
def _dissipation_symbols(grid: Grid, visc: Viscosity) -> tuple:
    """``(k, power, div)`` of :func:`dissipation_rate`, on the float view of a spectrum.

    ``k[j]`` is the Nyquist-zeroed wavenumber of ``grid.ik[j]``; ``power =
    w nu |k|^2`` and ``div = w (nu + lambda - 2 nu / N)`` carry the
    ``parseval_weight`` ``w``.  Each mode's value is repeated for its real
    and imaginary part, the layout of ``u_h.view(np.float64)``.  Shared by
    every caller, so read-only.
    """
    def paired(symbol):
        return np.repeat(np.broadcast_to(symbol, grid.k2.shape), 2, axis=-1)

    w, nu = grid.parseval_weight, visc.nu
    k = [paired(ik.imag) for ik in grid.ik]
    power = paired(w * nu * grid.k2_odd)
    div = paired(w * (nu + visc.lam - 2.0 * nu / grid.dim))
    for symbol in k + [power, div]:
        symbol.flags.writeable = False
    return k, power, div


def dissipation_rate(grid: Grid, visc: Viscosity, u_h: np.ndarray):
    """``int S(grad u) : grad u dx`` from the spectrum ``u_h = grid.fwd(u)``.

    ``u_h`` is the spectrum of one velocity field or of a batch of them.
    With ``A = grad u``, ``int A : A = sum_k w |k|^2 |u^|^2`` and
    ``int A^T : A = int (div u)^2 = sum_k w |ik . u^|^2`` by Parseval, so

        int S(A) : A = sum_k w [nu |k|^2 |u^|^2 + (nu + lambda - 2 nu / N) |ik . u^|^2]

    with ``w`` the grid's ``parseval_weight`` and ``|k|^2`` from the
    Nyquist-zeroed ``ik`` of :meth:`~torusgas.grid.Grid.gradient_vector`
    (``grid.k2_odd``).  Each squared modulus is ``re^2 + im^2``, formed on
    the spectrum's float view, and each weighted sum is one dot product
    with a symbol cached per grid and viscosity (:func:`_dissipation_symbols`).
    It equals ``grid.integrate(stress_contract(visc, grad_u))`` to roundoff
    without forming the gradient tensor or making a transform; ``verify``'s
    ``ledger.dissipation`` checks that.  A float for one spectrum, one value
    per member for a batch, each summed over its contiguous row.
    """
    comp, dim = grid.comp, grid.dim
    k, power_s, div_s = _dissipation_symbols(grid, visc)
    parts = np.ascontiguousarray(u_h).view(np.float64)  # re, im of each mode side by side
    power = np.square(parts[comp(0)])
    div = np.multiply(k[0], parts[comp(0)])  # (k . re, k . im) = (Im, -Re) of ik . u^
    for j in range(1, dim):
        power += np.square(parts[comp(j)])
        div += k[j] * parts[comp(j)]
    np.square(div, out=div)
    lead = power.shape[:-dim]
    # each member's weighted sums, one dot product over its row (not BLAS, whose
    # order of summation depends on the row's place in the batch)
    rate = sum(np.einsum("...i,i->...", np.reshape(x, (*lead, -1)), s.ravel())
               for x, s in ((power, power_s), (div, div_s)))
    return float(rate) if not lead else rate


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
                        dW: np.ndarray | None):
        """Accumulate one step's dissipation, Ito correction and martingale increments.

        :func:`~torusgas.dynamics.step_em` calls it with the pre-step state
        and what the step formed from it: the velocity ``u = m / rho`` and
        the drift's spectrum of it ``u_h`` (None without viscosity), and the
        step's increments ``dW`` (None without increments), matching the
        explicit Euler-Maruyama quadrature of the run itself.  Since ``rho u
        = m``, the noise terms need only ``int m . u``, ``int rho`` and the
        ``int m_i`` of each member:

            0.5 int sum_k rho |K_k e_(k mod N) + L_k u|^2
                = 0.5 [sum_k K_k^2 int rho + sum_k 2 K_k L_k int m_(k mod N)
                       + sum_k L_k^2 int m . u]
            int u . sum_k G_k dW_k = (sum_k L_k dW_k) int m . u
                                     + sum_k K_k dW_k int m_(k mod N)
        """
        grid = self.grid
        if self.visc is not None:
            self.diss_cum += dt * dissipation_rate(grid, self.visc, u_h)
        if not self.noise.modes:
            return
        K, L, dim = self.noise.K, self.noise.L, grid.dim
        mom_int = grid.integrate(state.mom)  # (..., N)
        mu = np.sum(grid.integrate(state.mom * u), axis=-1)  # int m . u = int rho |u|^2
        ito = (sum(k * k for k in K) * grid.integrate(state.rho)
               + sum(2.0 * k * l * mom_int[..., mode % dim]
                     for mode, (k, l) in enumerate(zip(K, L)))
               + sum(l * l for l in L) * mu)
        self.ito_cum += dt * 0.5 * ito
        if dW is not None:
            ldw = sum(l * dW[..., k] for k, l in enumerate(L))  # in mode order, as the kick
            self.mart += ldw * mu + sum(k * dW[..., mode] * mom_int[..., mode % dim]
                                        for mode, k in enumerate(K))


def march(grid: Grid, model, stepper, state, dt: float, table: np.ndarray,
          acc: LedgerAccumulator, stats: StepStats | None = None):
    """March one member or a member batch over one sample interval.

    ``table`` holds the interval's Wiener increments: ``(n, K)`` for one
    member, or ``(M, n, K)`` for a batch of M members; a deterministic run
    passes an empty ``(n, 0)`` table.  Each explicit step adds its ledger
    increments to ``acc``; ``stats`` is handed to every step.  Returns the
    state after the interval's last step, without the spectra the steps carry.
    """
    for step in range(table.shape[-2]):
        state = step_em(grid, model, stepper, state, dt, table[..., step, :], stats=stats,
                        ledger=acc)
    return replace(state, spectra=None)


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

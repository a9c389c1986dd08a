"""Semi-discrete compressible system and Euler-Maruyama time stepping.

The prognostic pair is conservative: density ``rho`` and momentum
``m = rho u``.  The drift is the pseudo-spectral right-hand side of

    d(rho) = -div(m) dt
    d(m)   = [-div(m x m / rho) - grad p_eff(rho) + nu lap(u) + eta grad div(u)] dt
             + sum_k G_k(rho, m) dW_k

where ``p_eff`` carries the low-Mach factor ``1/eps^2`` absorbed into the
pressure-law coefficients and ``eta = lambda + (N-2) nu / N``.  Noise enters
the momentum only; the density equation is noise-free.  Density positivity
is enforced by flooring, with floor activations surfaced in the step stats
rather than hidden.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .constitutive import (PressureLaw, Viscosity, potential_delta,
                           pressure_delta, pressure_delta_prime)
from .grid import Grid
from .noise import NoiseModel


class SimulationError(RuntimeError):
    """Raised on non-finite states or CFL violations; carries the offender."""

    def __init__(self, message: str, state: "State | None" = None):
        super().__init__(message)
        self.state = state


@dataclass
class State:
    """One realization: density, momentum and simulation time."""

    rho: np.ndarray
    mom: np.ndarray
    t: float = 0.0

    def validate(self, grid: Grid, rho_floor: float = 0.0) -> "State":
        self.rho = grid.check_scalar(self.rho)
        self.mom = grid.check_vector(self.mom)
        if np.min(self.rho) < rho_floor:
            raise SimulationError(
                f"density below floor {rho_floor}: min={np.min(self.rho)}", self
            )
        return self

    def copy(self) -> "State":
        return State(self.rho.copy(), self.mom.copy(), self.t)

    def velocity(self, rho_floor: float = 1e-8) -> np.ndarray:
        return self.mom / np.maximum(self.rho, rho_floor)


@dataclass(frozen=True)
class ModelConfig:
    """Physical model: pressure law, viscosity, noise and Mach scaling."""

    law: PressureLaw = PressureLaw()
    visc: Optional[Viscosity] = None
    noise: Optional[NoiseModel] = None
    eps: float = 1.0
    grad_threshold: float = np.inf  # reference blow-up cutoff for comparisons

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")

    @property
    def law_eff(self) -> PressureLaw:
        """Pressure law with the 1/eps^2 acoustic stiffening folded in."""
        return self.law if self.eps == 1.0 else self.law.rescaled(self.eps)

    @property
    def modes(self) -> int:
        return self.noise.modes if self.noise is not None else 0


@dataclass(frozen=True)
class StepperConfig:
    dt: float = 0.0  # 0 means: choose from the CFL bound at the initial state
    cfl: float = 0.4
    rho_floor: float = 1e-8

    def __post_init__(self):
        if self.dt < 0:
            raise ValueError("dt must be nonnegative (0 selects auto)")
        if not 0 < self.cfl <= 1:
            raise ValueError("cfl must lie in (0, 1]")
        if not self.rho_floor > 0:
            raise ValueError("rho_floor must be positive")


@dataclass
class StepStats:
    floored_cells: int = 0
    mass_correction: float = 0.0


def rhs_deterministic(grid: Grid, model: ModelConfig, state: State):
    """Drift of the semi-discrete system, ``(d rho, d mom)``.

    Nonlinear products are formed pointwise and truncated with the 2/3 rule
    before differentiation.  Non-finite intermediates abort with the state
    attached for diagnostics.
    """
    rho, mom = state.rho, state.mom
    drho = -grid.divergence(mom)

    u = mom / rho
    flux = mom[:, None] * u[None, :]  # flux[i, j] = m_i u_j
    dmom = -grid.div_tensor(flux, dealias=True)

    p = pressure_delta(model.law_eff, rho)
    dmom -= grid.gradient(grid.dealias(p))

    if model.visc is not None:
        u_da = grid.dealias_vector(u)
        dmom += grid.viscous_operator(u_da, model.visc.nu, model.visc.eta(grid.dim))

    if not (np.all(np.isfinite(drho)) and np.all(np.isfinite(dmom))):
        raise SimulationError("non-finite drift encountered", state)
    return drho, dmom


def cfl_dt(grid: Grid, model: ModelConfig, state: State,
           stepper: StepperConfig = StepperConfig()) -> float:
    """Largest stable step: acoustic bound, plus a diffusion bound if viscous."""
    h = min(grid.spacings)
    u_mag = np.sqrt(np.sum(state.velocity(stepper.rho_floor) ** 2, axis=0))
    sound = np.sqrt(pressure_delta_prime(model.law_eff, np.maximum(state.rho, stepper.rho_floor)))
    speed = float(np.max(u_mag + sound))
    dt = stepper.cfl * h / speed if speed > 0 else np.inf
    if model.visc is not None:
        dt = min(dt, stepper.cfl * h * h / (4.0 * model.visc.nu))
    return dt


def step_em(grid: Grid, model: ModelConfig, stepper: StepperConfig, state: State,
            dt: float, dW: Optional[np.ndarray] = None,
            rhs_fn: Callable = rhs_deterministic,
            stats: Optional[StepStats] = None) -> State:
    """One explicit Euler-Maruyama step of size ``dt``.

    The drift uses the current state; the noise kick ``sum_k G_k dW_k`` with
    this step's Wiener increments ``dW`` is evaluated at the pre-step state
    and enters the momentum only.  Without ``dW`` the step is deterministic.
    """
    bound = cfl_dt(grid, model, state, stepper)
    if dt > bound * (1.0 + 1e-9):
        raise SimulationError(
            f"CFL violation: dt={dt:.3e} exceeds bound {bound:.3e} at t={state.t:.4f}",
            state,
        )

    drho, dmom = rhs_fn(grid, model, state)
    rho_new = state.rho + dt * drho
    mom_new = state.mom + dt * dmom

    if model.noise is not None and model.noise.modes and dW is not None:
        mom_new += model.noise.momentum_kick(grid, state.rho, state.mom, dW)

    low = rho_new < stepper.rho_floor
    if np.any(low):
        n_low = int(np.count_nonzero(low))
        before = grid.integrate(rho_new)
        rho_new = np.maximum(rho_new, stepper.rho_floor)
        if stats is not None:
            stats.floored_cells += n_low
            stats.mass_correction += grid.integrate(rho_new) - before

    out = State(rho_new, mom_new, state.t + dt)
    if not (np.all(np.isfinite(out.rho)) and np.all(np.isfinite(out.mom))):
        raise SimulationError("non-finite state after step", out)
    return out


def energy_total(grid: Grid, law: PressureLaw, state: State) -> float:
    """Pathwise total energy ``int(0.5 |m|^2 / rho + P_delta(rho)) dx``."""
    kinetic = 0.5 * np.sum(state.mom * state.mom, axis=0) / state.rho
    dens = kinetic + potential_delta(law, state.rho)
    return float(np.sum(dens)) * grid.cell_volume

"""Spectral solver for the stochastic incompressible Euler system.

This is the strong reference of the low-Mach comparison: velocity stays
exactly solenoidal through the Leray projection, and time stepping is
explicit Euler-Maruyama on the projected drift, so the stepper never needs
the pressure.  The pressure is recoverable in closed form from
``pi = -invlap div[(v . grad) v]`` (:func:`pressure_from_projection`); the
affine noise adds no stochastic pressure, since constants and scalar
multiples of solenoidal fields are already divergence-free, which is
asserted at startup.  The noise kick is the compressible momentum kick at
unit density, driven by the increment row the caller passes in, so the
reference and the compressible run share one Brownian path.

An :class:`EulerState` holds one velocity ``(N, *sizes)`` or a member batch
``(M, N, *sizes)``, as the compressible :class:`~torusgas.dynamics.State`
does.  The step and the CFL bound accept either; a batch takes ``(M, K)``
increments, one row per member, and each member's row is bit-identical to
stepping that member alone.  A batch gets one CFL bound, set by its fastest
member; :func:`torusgas.grid.grad_inf_norm` gives one gradient norm per
member, which is what the per-member stopping times of the limit sweep test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid
from .noise import NoiseModel


class EulerError(RuntimeError):
    pass


DIV_TOL = 1e-8


@dataclass
class EulerState:
    v: np.ndarray                  # (N, *sizes) or (M, N, *sizes), div v = 0
    t: float = 0.0

    def copy(self) -> "EulerState":
        return EulerState(self.v.copy(), self.t)


def check_affine_noise(noise: NoiseModel | None):
    """The Euler noise must keep solenoidal fields solenoidal."""
    if noise is not None and noise.modes and noise.kind != "affine":
        raise EulerError("euler reference requires the affine noise form")


def advection(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Dealiased convective term ``(v . grad) v``."""
    grad_v = grid.gradient_vector(v)
    comp = grid.comp
    out = sum(v[comp(j)][comp(None)] * grad_v[comp(slice(None), j)]
              for j in range(grid.dim))
    return grid.dealias(out)


def pressure_from_projection(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Explicit pressure ``pi`` with ``grad pi = -grad invlap div[(v.grad)v]``."""
    adv = advection(grid, v)
    pi, _ = grid.inverse_laplacian(-grid.divergence(adv))
    return pi


def make_state(grid: Grid, v: np.ndarray, t: float = 0.0) -> EulerState:
    return EulerState(grid.helmholtz_project(grid.check_vector(v)), t)


def euler_cfl_dt(grid: Grid, state: EulerState, cfl: float = 0.4) -> float:
    """Advective step bound; a batch gets one bound, set by its fastest member."""
    vmax = float(np.max(np.sqrt(np.sum(state.v**2, axis=-grid.dim - 1))))
    if vmax == 0.0:
        return np.inf
    return cfl * min(grid.spacings) / vmax


def step_em_euler(grid: Grid, noise: NoiseModel | None, state: EulerState,
                  dt: float, dW: np.ndarray | None = None) -> EulerState:
    """One Euler-Maruyama step; the velocity is re-projected and audited.

    The noise kick is the compressible one at unit density, driven by this
    step's Wiener increments ``dW`` (``(M, K)`` for a batch); without ``dW``
    the step is deterministic.
    """
    drift = -grid.helmholtz_project(advection(grid, state.v))
    v_new = state.v + dt * drift
    if noise is not None and noise.modes and dW is not None:
        ones = np.ones_like(state.v[grid.comp(0)])
        v_new = v_new + noise.momentum_kick(grid, ones, state.v, dW)
    v_new = grid.helmholtz_project(v_new)
    div_norm = float(np.max(np.abs(grid.divergence(v_new))))
    if div_norm > DIV_TOL:
        raise EulerError(f"divergence grew to {div_norm:.3e} at t={state.t + dt:.4f}")
    return EulerState(v_new, state.t + dt)


def kinetic_energy(grid: Grid, v: np.ndarray) -> float:
    return 0.5 * grid.integrate(np.sum(v * v, axis=0))


def taylor_green(grid: Grid) -> np.ndarray:
    """Steady 2-D Taylor-Green vortex ``(sin x cos y, -cos x sin y)``."""
    if grid.dim != 2:
        raise EulerError("taylor_green needs a 2-D grid")
    X, Y = grid.coordinates()
    return np.stack([np.sin(X) * np.cos(Y), -np.cos(X) * np.sin(Y)])

"""Spectral solver for the stochastic incompressible Euler system.

This is the strong reference of the low-Mach comparison.  The state is the
real-FFT spectrum ``vh`` of the velocity, kept exactly solenoidal by the
Leray projection; the projection, the 2/3 mask and the affine noise kick are
all diagonal in Fourier space.  Time stepping is explicit Euler-Maruyama on
the projected drift, so the stepper never needs the pressure.  The pressure
is recoverable in closed form from ``pi = -invlap div[(v . grad) v]``
(:func:`pressure_from_projection`); the affine noise adds no stochastic
pressure, since constants and scalar multiples of solenoidal fields are
already divergence-free.  The noise kick is
:meth:`~torusgas.noise.NoiseModel.momentum_kick` at unit density on the
spectra (``rho = 1`` has the cell count at the zero mode), so the reference
and the compressible run share one Brownian path and one noise operator.

A step makes two FFT calls: one inverse call on the stacked spectra of
``v`` and its derivatives ``d_j v``, and one forward call on the advection
``(v . grad) v`` formed from them in physical space.  The state keeps the
physical fields of that inverse call, so ``v`` and its gradient sup-norm
are read without another transform.

An :class:`EulerState` holds one velocity ``(N, *sizes)`` or a member batch
``(M, N, *sizes)``, as the compressible :class:`~torusgas.dynamics.State`
does.  The step and the CFL bound accept either; a batch takes ``(M, K)``
increments, one row per member, and each member's row is bit-identical to
stepping that member alone.  A batch gets one CFL bound, set by its fastest
member; :attr:`EulerState.grad_inf` gives one gradient norm per member,
which is what the per-member stopping times of the limit sweep test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import SimulationError, StepStats, step_label
from .grid import Grid
from .noise import NoiseModel

DIV_TOL = 1e-8


@dataclass
class EulerState:
    vh: np.ndarray      # (*lead, N, *spectral) real-FFT coefficients, k . vh = 0
    fields: np.ndarray  # (1 + N, *lead, N, *sizes): v, then d_j v for each axis j
    t: float = 0.0

    @property
    def v(self) -> np.ndarray:
        return self.fields[0]

    @property
    def grad_inf(self):
        """Max absolute entry of the velocity gradient.

        A float for a single state; for a batch, one value per member.
        """
        g = np.abs(self.fields[1:])
        if self.fields.ndim == len(self.fields) + 1:  # (1 + N, N, *sizes)
            return float(np.max(g))
        return np.max(g, axis=tuple(a for a in range(g.ndim) if a != 1))

    @property
    def speed_inf(self):
        """Max speed ``|v|``: a float for a single state, one value per member for a batch."""
        single = self.fields.ndim == len(self.fields) + 1
        speed = np.sqrt(np.sum(self.v**2, axis=0 if single else 1))
        if single:
            return float(np.max(speed))
        return np.max(np.reshape(speed, (len(speed), -1)), axis=1)

    def rows(self, keep) -> "EulerState":
        """The members ``keep`` (an index, slice or mask) of a batch."""
        return EulerState(self.vh[keep], self.fields[:, keep], self.t)

    @staticmethod
    def joined(parts) -> "EulerState":
        """The batches ``parts``, all at one time, as one batch in member order; one part as is."""
        if len(parts) == 1:
            return parts[0]
        return EulerState(np.concatenate([p.vh for p in parts]),
                          np.concatenate([p.fields for p in parts], axis=1), parts[0].t)


def advection(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Dealiased convective term ``(v . grad) v`` of a physical velocity."""
    grad_v = grid.gradient_vector(v)
    comp = grid.comp
    out = sum(v[comp(j)][comp(None)] * grad_v[comp(slice(None), j)]
              for j in range(grid.dim))
    return grid.dealias(out)


def pressure_from_projection(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Explicit pressure ``pi`` with ``grad pi = -grad invlap div[(v.grad)v]``."""
    adv = advection(grid, v)
    return grid.inverse_laplacian(-grid.divergence(adv))


def _state(grid: Grid, vh: np.ndarray, t: float) -> EulerState:
    """The state of spectrum ``vh``, with ``v`` and ``d_j v`` from one inverse call."""
    return EulerState(vh, grid.bwd(np.stack([vh, *(ik * vh for ik in grid.ik)])), t)


def make_state(grid: Grid, v: np.ndarray, t: float = 0.0) -> EulerState:
    """The state of the Leray projection of a physical velocity.

    ``v`` is copied to C order first: the transforms keep their input's
    layout, so a broadcast velocity would leave every later spectrum and
    field of the march strided.
    """
    return _state(grid, grid.leray(grid.fwd(np.ascontiguousarray(grid.check_vector(v)))), t)


def euler_cfl_dt(grid: Grid, state: EulerState, cfl: float = 0.4) -> float:
    """Advective step bound; a batch gets one bound, set by its fastest member."""
    vmax = float(np.max(state.speed_inf))
    if vmax == 0.0:
        return np.inf
    return cfl * min(grid.spacings) / vmax


def _divergence_bound(grid: Grid, vh: np.ndarray) -> np.ndarray:
    """``(1/n_cells) sum_k w_k |k . vh_k|``, at least ``sup |div v|``, per member.

    ``w_k`` is the real-FFT column multiplicity, so the sum runs over the
    full spectrum and bounds the inverse transform of ``i k . vh`` cell by
    cell.  One value for each member of a batch, a 0-d array for one state.
    """
    dh = sum(ik * vh[grid.comp(ax)] for ax, ik in enumerate(grid.ik))
    return np.sum(grid.rfft_weight * np.abs(dh), axis=grid.axes) / grid.n_cells


def step_em_euler(grid: Grid, noise: NoiseModel, state: EulerState, dt: float,
                  dW: np.ndarray | None = None, cfl: float = 0.4,
                  stats: StepStats | None = None) -> EulerState:
    """One Euler-Maruyama step of the spectrum; re-projected and audited.

    The advection is formed from the state's physical fields and brought
    back by one forward call; the kick is computed from the pre-step
    spectrum and driven by this step's Wiener increments ``dW`` (``(M, K)``
    for a batch).  Without ``dW`` the step is deterministic.  As
    :func:`~torusgas.dynamics.step_em` does, it checks its (advective) bound,
    recording ``dt`` over it in ``stats``, and audits its update once, by
    bounding ``sup |div v|`` (:func:`_divergence_bound`); a non-finite
    spectrum fails as a non-finite flow.  A failure is a ``SimulationError``
    naming the step and the fastest, first non-finite or most divergent
    member of a batch, with its state at the start of the step.
    """
    single = state.vh.ndim == grid.dim + 1
    bound = euler_cfl_dt(grid, state, cfl)
    if not dt <= bound * (1.0 + 1e-9):  # a non-finite flow fails here too
        m = None if single else int(np.argmax(state.speed_inf))
        raise SimulationError.of_row(f"CFL violation: dt={dt:.3e} exceeds bound {bound:.3e} "
                                     f"at {step_label(state.t, dt)}", state, m)
    if stats is not None:
        stats.cfl_ratio = max(stats.cfl_ratio, dt / bound)

    comp = grid.comp
    v, grads = state.fields[0], state.fields[1:]
    adv = sum(v[comp(j)][comp(None)] * grads[j] for j in range(grid.dim))
    drift = -grid.leray(np.where(grid.dealias_mask, grid.fwd(adv), 0.0))
    vh = state.vh + dt * drift
    del adv, drift  # not held through the new state's transform, the step's largest
    if noise.modes and dW is not None:
        one_h = np.zeros(grid.k2.shape)  # the spectrum of rho = 1
        one_h[(0,) * grid.dim] = grid.n_cells
        vh = vh + noise.momentum_kick(grid, one_h, state.vh, dW)
    vh = grid.leray(vh)
    div_norm = _divergence_bound(grid, vh)
    if not np.all(div_norm <= DIV_TOL):  # a non-finite spectrum fails too
        m = int(np.argmax(np.where(np.isfinite(div_norm), div_norm, np.inf)))  # worst member
        worst = np.ravel(div_norm)[m]
        what = f"divergence grew to {worst:.3e}" if np.isfinite(worst) else "non-finite flow"
        raise SimulationError.of_row(f"{what} at {step_label(state.t, dt)}", state,
                                     None if single else m)
    return _state(grid, vh, state.t + dt)

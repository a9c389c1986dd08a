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
rather than hidden.  The floor ``StepperConfig.rho_floor`` is the one
density decision: every march checks its initial data against it on
entry (:meth:`StepperConfig.check_floor`) and :func:`step_em` floors each
update, so no formula clamps or scans a density.

A :class:`State` holds one realization (``rho`` of shape ``sizes``, ``mom``
of shape ``(N, *sizes)``) or a member batch with one leading member axis
(``(M, *sizes)`` / ``(M, N, *sizes)``, the atom layout of the empirical
Young measure).  The drift, the step, the CFL bound and the energy accept
either: a batch is marched as one array, each member's row bit-identical to
stepping that member alone, under one CFL bound for the whole batch.
:meth:`State.rows` takes a subset of a batch's members and
:meth:`State.joined` puts batches back together.  A failing batched
step names the offending member and carries its state at the start of the
step.  A model without noise carries a zero-mode
:class:`~torusgas.noise.NoiseModel`.  Every command's initial data is a
named flow of :data:`FLOWS`, built by :func:`initial_flow`.

The step is explicit by default.  With ``StepperConfig.semi_implicit`` it is
an IMEX step.  The viscous term gets a stabilized semi-implicit treatment
(Zhu, Chen, Shen & Tikare 1999, within the IMEX framework of Ascher, Ruuth
& Spiteri 1997): the momentum update solves

    (m+ - m)/dt = F(m) - A lap(m) - B grad div(m) + A lap(m+) + B grad div(m+)

with the constant coefficients ``A = nu max(1/rho)`` and
``B = eta max(1/rho)``, taken per member.  Let ``m*`` be that update plus
the noise kick.  The linear acoustics about ``rho = 1``, with
``c0^2 = p_eff'(1)``, are then treated by Crank-Nicolson (``theta = 1/2``;
Degond & Tang 2011, Haack, Jin & Liu 2012):

    r^   = -dt ik . (m^ + theta (m*^ - m^)) / (1 + theta^2 dt^2 c0^2 |k|^2)
    rho+ = rho + r
    m+   = m* - theta dt c0^2 grad r

The advection and the pressure remainder ``p_eff(rho) - c0^2 rho`` stay
explicit.  Every implicit part is diagonal in Fourier space: ``rho`` joins
the forward transform of ``p``, the kick is formed from the spectra, and
``rho+`` and ``m+`` come from the two inverse transforms the explicit drift
makes, so the step makes no extra transform.  The zero mode of ``r`` is 0,
so mass is conserved, and theta = 1/2 keeps the linear acoustic energy
``|m^|^2 + c0^2 |rho^|^2`` of each mode, which the relative energy
contains.  ``cfl_dt`` keeps only the explicit remainder's bound
``|u| + sqrt|p_eff'(rho) - c0^2|``: no diffusive bound and no ``1/eps``
sound speed.  The limit sweep uses this step: its viscosities grow to
``nu = 1`` at eps = 1, where the diffusive bound is the tightest, and its
sound speed grows like ``1/eps``.  Every other command keeps the explicit
step, whose energy bookkeeping the ledger checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .constitutive import (PressureLaw, Viscosity, potential_delta,
                           pressure_delta, pressure_delta_prime)
from .grid import FieldError, Grid
from .noise import NoiseModel


class SimulationError(RuntimeError):
    """Every failed run: a CFL violation, a non-finite update, Euler
    divergence growth or a non-positive reference; carries the offender.

    After a batched step ``member`` is the offending member's index in the
    batch and ``state`` that member's single state at the start of the step;
    ``detail`` is the message without the member.  A failing step's message
    names the step's position in its march and ``t``.  A run split into
    member ranges reports the failure one batch of all members raises (see
    :func:`torusgas.ensemble.by_member_range`).
    """

    def __init__(self, message: str, state: "State | None" = None,
                 member: int | None = None):
        super().__init__(message if member is None else f"member {member}: {message}")
        self.detail = message
        self.state = state
        self.member = member

    @classmethod
    def of_row(cls, message: str, state, member: int | None) -> "SimulationError":
        """The failure of batch row ``member`` of ``state``, or of one state (None)."""
        return cls(message, state) if member is None else cls(message, state.rows(member), member)

    def renamed(self, member: int, prefix: str = "", suffix: str = "") -> "SimulationError":
        """This failure naming ``member``, its detail prefixed and suffixed."""
        return SimulationError(prefix + self.detail + suffix, self.state, member)


@dataclass
class State:
    """One realization or a member batch: density, momentum and time."""

    rho: np.ndarray
    mom: np.ndarray
    t: float = 0.0

    def validate(self, grid: Grid) -> "State":
        """This state, its fields checked for ``grid``'s shapes and for finite entries."""
        self.rho = grid.check_scalar(self.rho)
        self.mom = grid.check_vector(self.mom)
        return self

    def copy(self) -> "State":
        return State(self.rho.copy(), self.mom.copy(), self.t)

    def batch(self, members: int) -> "State":
        """``members`` copies of this single state along a leading member axis."""
        return State(np.repeat(self.rho[None], members, axis=0),
                     np.repeat(self.mom[None], members, axis=0), self.t)

    def rows(self, keep) -> "State":
        """The members ``keep`` (an index, slice or mask) of a batch."""
        return State(self.rho[keep], self.mom[keep], self.t)

    @staticmethod
    def joined(parts) -> "State":
        """The batches ``parts``, all at one time, as one batch in member order; one part as is."""
        if len(parts) == 1:
            return parts[0]
        return State(np.concatenate([p.rho for p in parts]),
                     np.concatenate([p.mom for p in parts]), parts[0].t)


@dataclass(frozen=True)
class ModelConfig:
    """Physical model: pressure law, viscosity, noise and Mach scaling."""

    law: PressureLaw = PressureLaw()
    visc: Optional[Viscosity] = None
    noise: NoiseModel = NoiseModel()  # zero modes: no noise
    eps: float = 1.0

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")

    @property
    def law_eff(self) -> PressureLaw:
        """Pressure law with the 1/eps^2 acoustic stiffening folded in."""
        return self.law if self.eps == 1.0 else self.law.rescaled(self.eps)

    @property
    def modes(self) -> int:
        return self.noise.modes


@dataclass(frozen=True)
class StepperConfig:
    cfl: float = 0.4
    rho_floor: float = 1e-8
    semi_implicit: bool = False  # implicit viscosity and Crank-Nicolson acoustics

    def __post_init__(self):
        if not 0 < self.cfl <= 1:
            raise ValueError("cfl must lie in (0, 1]")
        if not self.rho_floor > 0:
            raise ValueError("rho_floor must be positive")

    def check_floor(self, rho: np.ndarray, source: str, error: type = ValueError):
        """Raise ``error`` naming the data ``source`` unless ``rho`` lies above the floor."""
        low = np.min(rho)
        if not low > self.rho_floor:
            raise error(f"{source}: density {low} is not above "
                        f"stepper.rho_floor = {self.rho_floor}")


@dataclass
class StepStats:
    """Floor activations and the CFL margin of the steps it has seen.

    Start the floor counters as ``(M,)`` arrays for a batch.  ``cfl_ratio``
    is the largest ``dt / cfl_dt`` over those steps, one value per batch.
    """

    floored_cells: int = 0
    mass_correction: float = 0.0
    cfl_ratio: float = 0.0


def step_label(t: float, dt: float) -> str:
    """``step k (t=...)``: the step of size ``dt`` from ``t``, counted in a march from 0."""
    return f"step {round(t / dt)} (t={t:.4f})"


def _check_finite(grid: Grid, state: "State", rho, mom, dt: float):
    """Raise naming the first member whose update ``(rho, mom)`` from ``state`` is non-finite."""
    if np.isfinite(rho).all() and np.isfinite(mom).all():
        return
    m = None
    if np.ndim(rho) > grid.dim:
        finite = (np.isfinite(rho).all(axis=grid.axes)
                  & np.isfinite(mom).all(axis=(-grid.dim - 1, *grid.axes)))
        m = int(np.argmin(finite))
    raise SimulationError.of_row(f"non-finite state after {step_label(state.t, dt)}", state, m)


def rhs_deterministic(grid: Grid, model: ModelConfig, state: State, u: np.ndarray,
                      dt_implicit: float = 0.0):
    """Drift of the semi-discrete system, ``(d rho, d mom, u_h)``.

    ``u`` is the state's velocity ``m / rho``, which :func:`step_em` forms
    once per step for its CFL bound and the drift.  Nonlinear products are
    formed pointwise; both tendencies are then built in Fourier space from
    one transform each of ``m``, the distinct flux entries ``m_i u_j``
    (``i <= j``, the flux being symmetric), ``p`` and ``u``, with ``i k``,
    ``-nu k^2``, ``eta i k (i k .)`` and the 2/3 mask as diagonal
    multipliers, and one inverse transform per tendency.  That is 4 forward
    and 2 inverse FFT calls in any dimension, 3 + 1 without viscosity.  The
    drift does not check finiteness: :func:`step_em` checks the update it
    makes.  ``u_h`` is the velocity's spectrum with viscosity (else None),
    which the energy ledger reuses.

    With ``dt_implicit > 0`` it returns instead the spectra that the
    semi-implicit step of size ``dt_implicit`` needs (see the module
    docstring): ``(rho_h, mom_h, dmom_h)``, the density, the momentum and
    the explicit momentum tendency.  ``rho`` joins the forward call of
    ``p``, and no inverse call is made.  With viscosity the tendency's
    transverse part is divided by ``1 + dt A |k|^2`` and its longitudinal
    part by ``1 + dt (A + B) |k|^2``, one filter on the spectrum.
    """
    rho, mom = state.rho, state.mom
    dim, comp, ik = grid.dim, grid.comp, grid.ik
    implicit = dt_implicit > 0
    mh = grid.fwd(mom)
    if not implicit:
        drho = grid.bwd(-sum(ik[j] * mh[comp(j)] for j in range(dim)))

    pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
    flux_h = grid.fwd(mom[comp([i for i, _ in pairs])] * u[comp([j for _, j in pairs])])
    entry = {}
    for n, (i, j) in enumerate(pairs):
        entry[i, j] = entry[j, i] = n
    if implicit:
        p_h, rho_h = grid.fwd(np.stack([pressure_delta(model.law_eff, rho), rho]))
    else:
        p_h = grid.fwd(pressure_delta(model.law_eff, rho))
    filtered = implicit and model.visc is not None
    if model.visc is not None:
        u_h = grid.fwd(u)
        div_u_h = sum(ik[j] * u_h[comp(j)] for j in range(dim))
        nu_k2 = -model.visc.nu * grid.k2
        eta = model.visc.eta(dim)

    dmom_h = np.empty_like(mh)
    for i in range(dim):
        acc = -ik[i] * p_h - sum(ik[j] * flux_h[comp(entry[i, j])] for j in range(dim))
        if model.visc is not None:
            acc += nu_k2 * u_h[comp(i)] + eta * ik[i] * div_u_h
        dmom_h[comp(i)] = acc if filtered else np.where(grid.dealias_mask, acc, 0.0)
    if filtered:
        # (I + dt A |k|^2 + dt B k k.)^-1 d = (d + ik (ik . d) c_l) / (1 + dt A |k|^2)
        # with c_l = dt B / (1 + dt (A + B) |k|^2); the mask folds into c_t
        dt_rho = dt_implicit / np.min(rho, axis=grid.axes, keepdims=True)  # dt max 1/rho
        k2 = dt_rho * grid.k2
        c_t = grid.dealias_mask / (1.0 + model.visc.nu * k2)
        c_l = eta * dt_rho / (1.0 + (model.visc.nu + eta) * k2)
        long_h = c_l * sum(ik[j] * dmom_h[comp(j)] for j in range(dim))
        for i in range(dim):
            dmom_h[comp(i)] = (dmom_h[comp(i)] + ik[i] * long_h) * c_t
    if implicit:
        return rho_h, mh, dmom_h
    return drho, grid.bwd(dmom_h), (u_h if model.visc is not None else None)


def _signal_speed(grid: Grid, model: ModelConfig, rho: np.ndarray, u: np.ndarray,
                  stepper: StepperConfig) -> np.ndarray:
    """Pointwise signal speed of the step's explicit part at density ``rho`` and velocity ``u``.

    ``|u| + c`` for the explicit step.  The semi-implicit step treats the
    acoustics about ``rho = 1`` implicitly, so it keeps the remainder's
    ``|u| + sqrt|p_eff'(rho) - c0^2|`` with ``c0^2 = p_eff'(1)``.
    """
    u_mag = np.sqrt(np.sum(u ** 2, axis=-grid.dim - 1))
    c2 = pressure_delta_prime(model.law_eff, rho)
    if stepper.semi_implicit:
        c2 = np.abs(c2 - pressure_delta_prime(model.law_eff, 1.0))
    return u_mag + np.sqrt(c2)


def _bound(grid: Grid, model: ModelConfig, stepper: StepperConfig, speed: np.ndarray) -> float:
    """The CFL bound of signal speeds ``speed``, plus a diffusion bound if viscous."""
    h = min(grid.spacings)
    top = float(np.max(speed))
    dt = stepper.cfl * h / top if top > 0 else np.inf
    if model.visc is not None and not stepper.semi_implicit:
        dt = min(dt, stepper.cfl * h * h / (4.0 * model.visc.nu))
    return dt


def cfl_dt(grid: Grid, model: ModelConfig, state: State,
           stepper: StepperConfig = StepperConfig()) -> float:
    """Largest stable step: acoustic bound, plus a diffusion bound if viscous.

    The semi-implicit step (``stepper.semi_implicit``) has no diffusion
    bound, and its acoustic bound is that of the explicit remainder (see
    :func:`_signal_speed`).  A batch gets one bound, set by its fastest
    member.  :func:`step_em` applies the same bound to the velocity it forms.
    """
    u = state.mom / state.rho[grid.comp(None)]
    return _bound(grid, model, stepper, _signal_speed(grid, model, state.rho, u, stepper))


def step_em(grid: Grid, model: ModelConfig, stepper: StepperConfig, state: State,
            dt: float, dW: Optional[np.ndarray] = None,
            rhs_fn: Callable = rhs_deterministic,
            stats: Optional[StepStats] = None, ledger=None) -> State:
    """One Euler-Maruyama step of size ``dt``.

    The drift uses the current state; the noise kick ``sum_k G_k dW_k`` with
    this step's Wiener increments ``dW`` is evaluated at the pre-step state
    and enters the momentum only.  Without ``dW`` the step is deterministic.
    A batch takes ``(M, K)`` increments, one row per member.  The step is
    explicit unless ``stepper.semi_implicit`` asks ``rhs_fn`` for the
    spectra of the IMEX step (see the module docstring), whose kick and
    Crank-Nicolson acoustics are formed here.  ``stats``, if given, records
    floor activations and ``dt`` over the CFL bound.  ``ledger``, if given
    (a :class:`~torusgas.ledger.LedgerAccumulator`), gets the step's
    increments from the velocity, the velocity spectrum the explicit drift
    forms and the step's kick; the IMEX step takes no ledger.  The step
    forms the velocity ``u = m / rho`` once, for its CFL bound and the
    drift; every state it is given has ``rho >= stepper.rho_floor`` (each
    command checks its initial data, each step floors its update).  It
    checks its CFL bound, then its unfloored update once, in either
    scheme.  A failure names the step by :func:`step_label`, as a march of
    steps ``dt`` from t = 0 counts it, and the fastest or first non-finite
    member of a batch, whose state at the start of the step and increment
    row reproduce it.
    """
    u = state.mom / state.rho[grid.comp(None)]
    fastest = np.max(_signal_speed(grid, model, state.rho, u, stepper), axis=grid.axes)
    bound = _bound(grid, model, stepper, fastest)
    if dt > bound * (1.0 + 1e-9):
        # the member with the fastest signal sets the bound
        m = int(np.argmax(fastest)) if state.rho.ndim > grid.dim else None
        raise SimulationError.of_row(f"CFL violation: dt={dt:.3e} exceeds bound {bound:.3e} "
                                     f"at {step_label(state.t, dt)}", state, m)
    if stats is not None:
        stats.cfl_ratio = max(stats.cfl_ratio, dt / bound)

    if stepper.semi_implicit:
        if ledger is not None:
            raise ValueError("the energy ledger follows the explicit step only")
        rho_h, mom_h, dmom_h = rhs_fn(grid, model, state, u, dt)
        dm_h = dt * dmom_h  # m* - m, the explicit update, in Fourier space
        if model.noise.modes and dW is not None:  # the kick is linear in (rho, m)
            dm_h += model.noise.momentum_kick(grid, rho_h, mom_h, dW)
        # Crank-Nicolson (theta = 1/2) acoustics about rho = 1
        c2 = pressure_delta_prime(model.law_eff, 1.0)
        comp, ik = grid.comp, grid.ik
        r_h = -dt * sum(ik[j] * (mom_h[comp(j)] + 0.5 * dm_h[comp(j)])
                        for j in range(grid.dim)) / (1.0 + 0.25 * dt * dt * c2 * grid.k2_odd)
        for j in range(grid.dim):
            dm_h[comp(j)] -= 0.5 * dt * c2 * ik[j] * r_h
        rho_new = state.rho + grid.bwd(r_h)
        mom_new = state.mom + grid.bwd(dm_h)
    else:
        drho, dmom, u_h = rhs_fn(grid, model, state, u)
        rho_new = state.rho + dt * drho
        mom_new = state.mom + dt * dmom
        kick = None
        if model.noise.modes and dW is not None:
            kick = model.noise.momentum_kick(grid, state.rho, state.mom, dW)
            mom_new += kick
        if ledger is not None:
            ledger.step_increments(state, dt, u, u_h, kick)
        del u, u_h, kick  # released before the update is checked

    _check_finite(grid, state, rho_new, mom_new, dt)  # before the floor hides a -inf
    low = rho_new < stepper.rho_floor
    if np.any(low):
        n_low = np.count_nonzero(low, axis=grid.axes)
        before = grid.integrate(rho_new)
        rho_new = np.maximum(rho_new, stepper.rho_floor)
        if stats is not None:
            stats.floored_cells += n_low
            stats.mass_correction += grid.integrate(rho_new) - before

    return State(rho_new, mom_new, state.t + dt)


def energy_total(grid: Grid, law: PressureLaw, state: State):
    """Pathwise total energy ``int(0.5 |m|^2 / rho + P_delta(rho)) dx``.

    A float for a single state, one value per member for a batch.
    """
    kinetic = 0.5 * np.sum(state.mom * state.mom, axis=-grid.dim - 1) / state.rho
    return grid.integrate(kinetic + potential_delta(law, state.rho))


# --------------------------------------------------------------------------
# initial flows
# --------------------------------------------------------------------------


def taylor_green(grid: Grid) -> np.ndarray:
    """Steady 2-D Taylor-Green vortex ``(sin x cos y, -cos x sin y)``."""
    if grid.dim != 2:
        raise FieldError(f"taylor_green needs a 2-D grid, got {grid.dim} dimension(s)")
    X, Y = grid.coordinates()
    return np.stack([np.sin(X) * np.cos(Y), -np.cos(X) * np.sin(Y)])


def _rest(grid: Grid, amp: float):
    return np.ones(grid.sizes), np.zeros((grid.dim, *grid.sizes))


def _density_wave(grid: Grid, amp: float):
    x = grid.coordinates()
    mom = np.zeros((grid.dim, *grid.sizes))
    mom[0] = amp * np.cos(x[-1])
    return 1.0 + amp * np.sin(x[0]), mom


def _shear(grid: Grid, amp: float):
    rho, mom = _rest(grid, amp)
    mom[0] = amp * np.sin(grid.coordinates()[-1])
    return rho, mom


def _bump(grid: Grid, amp: float):
    rho = 1.0 + amp * np.exp(np.cos(grid.coordinates()[0])) / math.e
    return rho, np.zeros((grid.dim, *grid.sizes))


def _taylor_green(grid: Grid, amp: float):
    return np.ones(grid.sizes), amp * taylor_green(grid)


# name -> (grid, amplitude) -> (rho, mom); "zero" is the limit sweep's name for "constant"
FLOWS: dict[str, Callable] = {
    "constant": _rest,
    "zero": _rest,
    "density_wave": _density_wave,
    "shear": _shear,
    "bump": _bump,
    "taylor_green": _taylor_green,
}


def initial_flow(grid: Grid, kind: str, amplitude: float = 1.0) -> State:
    """The initial state of the flow ``kind`` of :data:`FLOWS` at ``amplitude``.

    Every command's data comes from here: ``simulate``'s ``init.kind``, the
    smooth data of ``weak-strong`` and the limit velocity ``sweep.v0``.  An
    unknown name, or a flow the grid's dimension cannot carry, raises
    :class:`~torusgas.grid.FieldError`.
    """
    if kind not in FLOWS:
        raise FieldError(f"unknown flow {kind!r}, expected one of {', '.join(FLOWS)}")
    return State(*FLOWS[kind](grid, amplitude))

"""Pressure law, pressure potential, relative pressure and Newtonian stress.

The gas is barotropic with ``p(rho) = a rho^gamma``; the optional stabilizer
``delta (rho + rho^Gam)`` augments both the pressure and its potential so the
pair always satisfies ``rho P' - P = p``.  The potential is closed form, no
quadrature.  Each formula is written once and takes a scalar or an array
density alike; ``delta = 0`` gives the bare power law.  No formula scans
its density, which the floor keeps positive (see :mod:`torusgas.dynamics`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ConstitutiveError(ValueError):
    pass


@dataclass(frozen=True)
class PressureLaw:
    """Barotropic pressure law with optional artificial-pressure term.

    ``a > 0`` scales the pressure (it carries the 1/eps^2 of the low-Mach
    rescaling, see :meth:`rescaled`), ``gamma > 1`` is the adiabatic
    exponent, ``delta >= 0`` the stabilizer strength with exponent
    ``Gam >= max(6, gamma)`` whenever ``delta > 0``.
    """

    a: float = 1.0
    gamma: float = 2.0
    delta: float = 0.0
    Gam: float = 6.0

    def __post_init__(self):
        if not self.a > 0:
            raise ConstitutiveError(f"a must be positive, got {self.a}")
        if not self.gamma > 1:
            raise ConstitutiveError(f"gamma must exceed 1, got {self.gamma}")
        if self.delta < 0:
            raise ConstitutiveError(f"delta must be nonnegative, got {self.delta}")
        if self.delta > 0 and self.Gam < max(6.0, self.gamma):
            raise ConstitutiveError(
                f"Gam must be >= max(6, gamma) when delta > 0, got {self.Gam}"
            )

    def rescaled(self, eps: float) -> "PressureLaw":
        """Law with the stiff 1/eps^2 pressure scaling absorbed into a (and delta)."""
        if not eps > 0:
            raise ConstitutiveError(f"eps must be positive, got {eps}")
        return PressureLaw(self.a / eps**2, self.gamma, self.delta / eps**2, self.Gam)


def _xlogx(x):
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = x[pos] * np.log(x[pos])
    return out


def pressure_delta(law: PressureLaw, rho):
    """Full pressure ``p_delta(rho) = a rho^gamma + delta (rho + rho^Gam)``."""
    rho = np.asarray(rho, dtype=np.float64)
    p = rho**law.gamma
    p *= law.a
    if law.delta:
        p = p + law.delta * (rho + rho**law.Gam)
    return p


def pressure_delta_prime(law: PressureLaw, rho):
    """d/drho of the full pressure (sound speed squared is this value)."""
    rho = np.asarray(rho, dtype=np.float64)
    dp = rho ** (law.gamma - 1.0)
    dp *= law.a * law.gamma
    if law.delta:
        dp = dp + law.delta * (1.0 + law.Gam * rho ** (law.Gam - 1.0))
    return dp


def pressure_delta_second(law: PressureLaw, rho):
    """Second derivative of the full pressure."""
    rho = np.asarray(rho, dtype=np.float64)
    d2 = law.a * law.gamma * (law.gamma - 1.0) * rho ** (law.gamma - 2.0)
    if law.delta:
        d2 = d2 + law.delta * law.Gam * (law.Gam - 1.0) * rho ** (law.Gam - 2.0)
    return d2


def potential_delta(law: PressureLaw, rho):
    """Full potential; the ``rho log rho`` term extends by 0 at vacuum."""
    rho = np.asarray(rho, dtype=np.float64)
    P = law.a * (rho**law.gamma - rho) / (law.gamma - 1.0)
    if law.delta:
        P = P + law.delta * (_xlogx(rho) + rho**law.Gam / (law.Gam - 1.0))
    return P


def potential_delta_prime(law: PressureLaw, rho):
    rho = np.asarray(rho, dtype=np.float64)
    dP = law.a * (law.gamma * rho ** (law.gamma - 1.0) - 1.0) / (law.gamma - 1.0)
    if law.delta:
        dP = dP + law.delta * (np.log(rho) + 1.0
                               + law.Gam * rho ** (law.Gam - 1.0) / (law.Gam - 1.0))
    return dP


def potential_delta_second(law: PressureLaw, rho):
    rho = np.asarray(rho, dtype=np.float64)
    d2P = law.a * law.gamma * rho ** (law.gamma - 2.0)
    if law.delta:
        d2P = d2P + law.delta * (1.0 / rho + law.Gam * rho ** (law.Gam - 2.0))
    return d2P


def potential_delta_third(law: PressureLaw, rho):
    rho = np.asarray(rho, dtype=np.float64)
    d3 = law.a * law.gamma * (law.gamma - 2.0) * rho ** (law.gamma - 3.0)
    if law.delta:
        d3 = d3 + law.delta * (-1.0 / rho**2 + law.Gam * (law.Gam - 2.0) * rho ** (law.Gam - 3.0))
    return d3


def relative_h(law: PressureLaw, rho, r):
    """Second-order potential remainder ``P(rho) - P'(r)(rho - r) - P(r)``.

    Nonnegative by convexity; evaluated in a cancellation-safe Taylor form
    when ``|rho - r| < 1e-6 r``.
    """
    rho = np.asarray(rho, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    if np.any(r <= 0):
        raise ConstitutiveError("reference density r must be positive")
    rho, r = np.broadcast_arrays(rho, r)
    direct = (potential_delta(law, rho) - potential_delta_prime(law, r) * (rho - r)
              - potential_delta(law, r))
    near = np.abs(rho - r) < 1e-6 * r
    if np.any(near):
        taylor = 0.5 * potential_delta_second(law, r) * (rho - r) ** 2
        direct = np.where(near, taylor, direct)
    return direct


# --------------------------------------------------------------------------
# Newtonian stress
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Viscosity:
    """Shear and bulk viscosities; ``eta`` is always derived, never stored."""

    nu: float
    lam: float = 0.0

    def __post_init__(self):
        if not self.nu > 0:
            raise ConstitutiveError(f"nu must be positive, got {self.nu}")
        if self.lam < 0:
            raise ConstitutiveError(f"lambda must be nonnegative, got {self.lam}")

    def eta(self, dim: int) -> float:
        """Effective gradient-of-divergence coefficient ``lam + (N-2) nu / N``."""
        return self.lam + (dim - 2) * self.nu / dim


def stress(visc: Viscosity, grad_u: np.ndarray) -> np.ndarray:
    """Newtonian stress ``nu (A + A^t - (2/N) tr(A) I) + lam tr(A) I``.

    ``grad_u`` has shape ``(N, N, *sizes)`` with ``grad_u[i, j] = d(u_i)/d(x_j)``.
    """
    dim = grad_u.shape[0]
    div_u = np.trace(grad_u, axis1=0, axis2=1)
    sym = grad_u + np.swapaxes(grad_u, 0, 1)
    out = visc.nu * sym
    iso = (visc.lam - 2.0 * visc.nu / dim) * div_u
    for i in range(dim):
        out[i, i] += iso
    return out


def stress_contract(visc: Viscosity, grad_u: np.ndarray) -> np.ndarray:
    """Pointwise viscous dissipation density ``S(grad u) : grad u`` (>= 0)."""
    return np.sum(stress(visc, grad_u) * grad_u, axis=(0, 1))

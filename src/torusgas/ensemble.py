"""Monte Carlo ensembles and empirical Young measures.

An ensemble of M realizations induces, cell by cell, a uniform atomic
probability measure on state space: the empirical Young measure.  Pairings
``<nu; F>`` are atom averages; the Jensen gaps of the energy and momentum
nonlinearities at the atom barycenter estimate the dissipation defect and
the tensor-valued momentum defect.  The energy's Jensen gap needs only
the per-cell sums of :func:`member_sums`, which add over disjoint member
blocks (Chan, Golub & LeVeque 1983; Pebay 2008).  Concentration parts are
identically zero at finite resolution (atoms cannot escape to infinity), so
the defect estimators carry the oscillation content only.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .constitutive import PressureLaw, potential_delta, pressure_delta
from .grid import Grid


class EnsembleError(ValueError):
    pass


class ConvexityError(RuntimeError):
    """A Jensen-based estimator came out negative beyond roundoff."""


@dataclass(frozen=True)
class EmpiricalYoungMeasure:
    """Per-cell atoms with uniform weights 1/M, stored as stacked snapshots.

    ``rho_atoms`` has shape ``(M, *sizes)`` and ``mom_atoms``
    ``(M, N, *sizes)``; atoms are shared by reference with the ensemble
    snapshot they came from.
    """

    grid: Grid
    rho_atoms: np.ndarray
    mom_atoms: np.ndarray

    def __post_init__(self):
        if self.rho_atoms.shape[1:] != self.grid.sizes:
            raise EnsembleError("atom density shape mismatch")
        if self.mom_atoms.shape != (self.n_atoms, self.grid.dim, *self.grid.sizes):
            raise EnsembleError("atom momentum shape mismatch")

    @property
    def n_atoms(self) -> int:
        return self.rho_atoms.shape[0]


def member_se(values: np.ndarray, axis: int = 0):
    """Standard error ``std(ddof=1) / sqrt(n)`` of the mean along ``axis``; 0 if n = 1."""
    n = values.shape[axis]
    if n < 2:
        return np.zeros_like(np.take(values, 0, axis=axis))
    return values.std(axis=axis, ddof=1) / np.sqrt(n)


def fit_line(x, y):
    """Least-squares line ``y = slope x + intercept``; returns ``(slope, intercept)``.

    The closed form on centered data: unlike ``np.polyfit``, it calls no
    LAPACK routine, whose first use in a process costs about 1 MB of
    resident memory for a fit of a handful of points.  Raises
    ``ValueError`` when ``x`` has fewer than two distinct values, where no
    line is determined.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size < 2 or np.all(x == x[0]):  # not np.unique, which imports numpy.ma
        raise ValueError(f"a line fit needs two distinct x values, got {x.tolist()}")
    dx = x - np.mean(x)
    slope = np.sum(dx * (y - np.mean(y))) / np.sum(dx * dx)
    return float(slope), float(np.mean(y) - slope * np.mean(x))


@functools.cache
def _pool(workers: int):
    """The process's pool of ``workers`` threads, built on first use.

    ``concurrent.futures`` is imported here, so a run with one range never
    loads it.
    """
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=workers)


def by_member_range(members: int, threads: int, march: Callable) -> list:
    """``march(lo, hi)`` on contiguous member ranges, at most one per thread and CPU.

    The range count is ``min(threads, members, os.cpu_count())``: a range
    beyond the CPU count would only add per-batch overhead, and a member's
    arithmetic does not depend on its range.  One range runs on the calling
    thread; several run on a pool, which numpy shares by releasing the GIL,
    and every range is joined.  Results come back in member order.  The
    pool for a range count is built once and kept for the process, so a
    march of one call per sample interval starts no thread per call; a
    range function must therefore not call ``by_member_range`` itself.

    If a range fails, ``march(0, members)`` is replayed on the calling
    thread and its failure raised: the failure of one batch of all members,
    the same at any thread count.  That costs one single-thread call up to
    the failing step: every march advances one sample interval per call and
    so replays that interval only.  Should the replay pass (a failure that
    depends on the split), the lowest failing range's failure is raised.
    """
    count = min(threads, members, os.cpu_count() or 1)
    ranges = [(int(r[0]), int(r[-1]) + 1)
              for r in np.array_split(np.arange(members), count)]
    if len(ranges) == 1:
        return [march(*ranges[0])]
    pool = _pool(len(ranges))
    futures = [pool.submit(march, *r) for r in ranges]
    errors = [e for e in (f.exception() for f in futures) if e is not None]  # joins each
    if errors:
        march(0, members)  # one batch raises its own failure
        raise errors[0]
    return [f.result() for f in futures]


@dataclass(frozen=True)
class Observable:
    """Evaluation rule ``F(rho, m)``.

    ``func`` maps stacked atoms ``(rho, mom)`` -> per-atom values with the
    atom axis first.
    """

    func: Callable[[np.ndarray, np.ndarray], np.ndarray]
    name: str = ""


def expect(ym: EmpiricalYoungMeasure, obs: Observable) -> np.ndarray:
    """Pairing ``<nu; F>``: the atom average of F, cell by cell."""
    vals = np.asarray(obs.func(ym.rho_atoms, ym.mom_atoms), dtype=np.float64)
    if vals.shape[0] != ym.n_atoms:
        raise EnsembleError("observable must keep the atom axis first")
    out = np.mean(vals, axis=0)
    if not np.all(np.isfinite(out)):
        bad = np.argwhere(~np.isfinite(out))
        raise EnsembleError(f"observable {obs.name!r} non-finite at cells {bad[:5].tolist()}")
    return out


def member_sums(law: PressureLaw, rho: np.ndarray, mom: np.ndarray) -> np.ndarray:
    """Per-cell member sums of ``rho``, ``m`` and ``e``, stacked as ``(N + 2, *sizes)``.

    ``rho`` is ``(M, *sizes)`` and ``mom`` ``(M, N, *sizes)``; ``e = 0.5
    |m|^2/rho + P(rho)`` is the energy density.  Each sum runs over the
    members in order.
    """
    e = 0.5 * np.sum(mom**2, axis=1) / rho + potential_delta(law, rho)
    return np.concatenate([np.sum(rho, axis=0)[None], np.sum(mom, axis=0),
                           np.sum(e, axis=0)[None]])


def energy_jensen_gap(sums: np.ndarray, n: int, law: PressureLaw):
    """Mean energy density and its Jensen gap at the barycenter of ``n`` members.

    ``sums`` are the members' :func:`member_sums`.  Returns ``(mean_energy,
    gap)`` per cell where ``mean_energy = <0.5|m|^2/rho + P(rho)>`` and
    ``gap = mean_energy - (0.5|<m>|^2/<rho> + P(<rho>))``.
    """
    mean = sums / n
    b_rho, b_mom, mean_e = mean[0], mean[1:-1], mean[-1]
    bary_e = 0.5 * np.sum(b_mom**2, axis=0) / b_rho + potential_delta(law, b_rho)
    return mean_e, mean_e - bary_e


def energy_defect(grid: Grid, sums: np.ndarray, n: int, law: PressureLaw):
    """Mean energy density and the oscillation part of the dissipation defect.

    Returns ``(mean_energy, field, D)`` of ``n`` members from their
    :func:`member_sums` ``sums`` and one :func:`energy_jensen_gap`: the field
    ``<0.5|m|^2/rho + P(rho)> - (0.5|<m>|^2/<rho> + P(<rho>))`` and its
    integral D.  Joint convexity makes the field nonnegative; values below
    ``-1e-12`` (scaled) indicate a broken estimator and raise.
    """
    mean_e, field = energy_jensen_gap(sums, n, law)
    scale = max(1.0, float(np.max(np.abs(mean_e))))
    if float(np.min(field)) < -1e-12 * scale:
        raise ConvexityError(f"negative energy defect {np.min(field):.3e}")
    return mean_e, field, grid.integrate(field)


def dissipation_defect(grid: Grid, sums: np.ndarray, n: int, law: PressureLaw):
    """The defect field and its integral D of :func:`energy_defect`."""
    return energy_defect(grid, sums, n, law)[1:]


def momentum_defect(ym: EmpiricalYoungMeasure, law: PressureLaw):
    """Oscillation estimator of the tensor momentum defect.

    Returns ``(kinetic, pressure)``: the positive-semidefinite kinetic part
    ``<m x m / rho> - <m> x <m> / <rho>`` with shape ``(N, N, *sizes)`` and
    the scalar isotropic part ``<p(rho)> - p(<rho>)``.
    """
    rho, mom = ym.rho_atoms, ym.mom_atoms
    kin = np.mean(mom[:, :, None] * mom[:, None, :] / rho[:, None, None], axis=0)
    b_rho = np.mean(rho, axis=0)
    b_mom = np.mean(mom, axis=0)
    kin -= b_mom[:, None] * b_mom[None, :] / b_rho
    press = np.mean(pressure_delta(law, rho), axis=0) - pressure_delta(law, b_rho)
    return kin, press


def momentum_defect_total(ym: EmpiricalYoungMeasure, law: PressureLaw) -> np.ndarray:
    """Kinetic plus isotropic pressure part as one tensor field."""
    kin, press = momentum_defect(ym, law)
    out = kin.copy()
    for i in range(ym.grid.dim):
        out[i, i] += press
    return out


def defect_domination_audit(ym: EmpiricalYoungMeasure, law: PressureLaw,
                            c: Optional[float] = None, tol: float = 1e-9) -> dict:
    """Pointwise check ``|mu_m| <= c D`` with ``c = max(2, N (gamma - 1))``.

    ``|mu_m|`` is the Frobenius norm of the combined momentum defect and D
    the energy oscillation defect density.  Cells where both vanish pass by
    convention.
    """
    dim = ym.grid.dim
    if c is None:
        c = max(2.0, dim * (law.gamma - 1.0))
    total = momentum_defect_total(ym, law)
    norm = np.sqrt(np.sum(total * total, axis=(0, 1)))
    defect, _ = dissipation_defect(ym.grid, member_sums(law, ym.rho_atoms, ym.mom_atoms),
                                   ym.n_atoms, law)
    defect = np.maximum(defect, 0.0)
    tiny = 1e-14 * max(1.0, float(np.max(norm)))
    live = (norm > tiny) | (defect > tiny)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(defect > 0, norm / np.maximum(defect, 1e-300), np.inf)
    ratio = np.where(live, ratio, 0.0)
    max_ratio = float(np.max(ratio)) if ratio.size else 0.0
    return {"constant": c, "max_ratio": max_ratio, "pass": max_ratio <= c + tol}


def velocity_oscillation_field(ym: EmpiricalYoungMeasure) -> np.ndarray:
    """``<nu; |u - <nu; u>|^2>`` per cell, ``u = m / rho`` atomwise."""
    u = ym.mom_atoms / ym.rho_atoms[:, None]
    du = u - np.mean(u, axis=0)
    return np.mean(np.sum(du**2, axis=1), axis=0)

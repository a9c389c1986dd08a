"""Truncated cylindrical Wiener process and the momentum diffusion operator.

The driving noise is a finite family of independent scalar Brownian motions
``W_k``; mode ``k`` forces the momentum through a coefficient field
``G_k(rho, m)``.  The paper allows any Lipschitz ``G_k``; every run here
uses one affine family,

    ``G_k(rho, m) = rho K_k e_{k mod N} + L_k m``  with real ``K_k, L_k``.

The density factor acts along a fixed unit axis per mode (axes cycle with
``k``), which keeps constants solenoidal and makes the sub-linearity
constant ``2 sum(K_k^2 + L_k^2)`` exact.

Brownian increments come from counter-based Philox streams keyed by
``(master seed, member)`` with the step index in the counter, so every path
is a pure function of its key and is independent of scheduling order.  A
run draws one member's path once, as an ``(n_steps, modes)`` increment
table from :meth:`WienerPath.table` (an ensemble's paths from
:func:`member_tables`), and hands each row to every stepper of that step.
Runs at a coarser step on the same path use :func:`coarsen`, which sums
consecutive fine rows, so solutions compared pathwise are driven by one
Wiener process.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

log = logging.getLogger(__name__)


class NoiseError(ValueError):
    pass


@dataclass(frozen=True)
class NoiseModel:
    K: tuple[float, ...] = ()
    L: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "K", tuple(float(k) for k in self.K))
        object.__setattr__(self, "L", tuple(float(l) for l in self.L))
        if len(self.K) != len(self.L):
            raise NoiseError("K and L must have equal length")

    @property
    def modes(self) -> int:
        return len(self.K)

    @property
    def alpha_sum(self) -> float:
        """Sum of per-mode Lipschitz constants (finite by truncation)."""
        return float(sum(abs(k) + abs(l) for k, l in zip(self.K, self.L)))

    def apply_mode(self, mode: int, grid, rho: np.ndarray, mom: np.ndarray) -> np.ndarray:
        """Coefficient field ``G_k(rho, m)`` for one mode (of one state or a batch)."""
        if not 0 <= mode < self.modes:
            raise NoiseError(f"mode {mode} out of range [0, {self.modes})")
        out = self.L[mode] * mom
        out[grid.comp(mode % grid.dim)] += self.K[mode] * rho
        return out

    def momentum_kick(self, grid, rho: np.ndarray, mom: np.ndarray,
                      dW: np.ndarray) -> np.ndarray:
        """``sum_k G_k(rho, m) dW_k`` in closed form.

        ``dW`` is one step's ``(K,)`` increments, or ``(M, K)`` for a batch.
        """
        if self.modes == 0:
            return np.zeros_like(mom)
        per_cell = dW.shape[:-1] + (1,) * grid.dim  # a member's value in every cell
        # sum_k L_k dW_k in mode order, the same per member as alone
        ldw = sum(l * dW[..., k] for k, l in enumerate(self.L))
        out = np.reshape(ldw, per_cell)[grid.comp(None)] * mom
        for mode in range(self.modes):
            if self.K[mode] != 0.0:
                out[grid.comp(mode % grid.dim)] += (
                    np.reshape(self.K[mode] * dW[..., mode], per_cell) * rho)
        return out

    def ito_correction_density(self, grid, rho: np.ndarray, mom: np.ndarray,
                               rho_floor: float = 1e-8) -> np.ndarray:
        """Pointwise ``sum_k |G_k(rho, m)|^2 / rho``.

        Evaluated in the velocity form ``rho |K_k e + L_k u|^2`` with
        ``u = m / max(rho, rho_floor)``, which stays finite toward vacuum.
        Vacuum cells carrying momentum are reported through the module
        logger.
        """
        if self.modes == 0:
            return np.zeros_like(rho)
        c = -grid.dim - 1  # the component axis
        vac = rho < rho_floor
        if np.any(vac):
            bad = int(np.count_nonzero(vac & (np.sum(np.abs(mom), axis=c) > 0)))
            if bad:
                log.warning("ito correction: %d vacuum cells with nonzero momentum", bad)
        u = mom / np.maximum(rho, rho_floor)[grid.comp(None)]
        out = np.zeros_like(rho)
        u2 = np.sum(u * u, axis=c)
        for mode in range(self.modes):
            k, l = self.K[mode], self.L[mode]
            out += k * k + 2.0 * k * l * u[grid.comp(mode % grid.dim)] + l * l * u2
        return rho * out


# --------------------------------------------------------------------------
# Wiener increments
# --------------------------------------------------------------------------


# one generator per thread, re-keyed per draw: building a Generator costs
# about three times what setting its bit generator's state does, and per
# thread no caller can re-key a generator between another's keying and draw
_local = threading.local()
_EMPTY_BUFFER = np.zeros(4, dtype=np.uint64)


def _philox_normals(seed: int, member: int, step: int, count: int) -> np.ndarray:
    gen = getattr(_local, "generator", None)
    if gen is None:
        gen = _local.generator = Generator(Philox())
    # step sits in the high counter word; draws advance the low words, so
    # streams for distinct steps can never overlap.  buffer_pos = 4 marks
    # the output buffer empty, as in a freshly keyed Philox.
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.array([0, 0, 0, step & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64),
                  "key": np.array([seed & 0xFFFFFFFFFFFFFFFF, member & 0xFFFFFFFFFFFFFFFF],
                                  dtype=np.uint64)},
        "buffer": _EMPTY_BUFFER, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return gen.standard_normal(count)


@dataclass(frozen=True)
class WienerPath:
    """Counter-based Brownian increment stream for one ensemble member.

    ``increments(step)`` returns the K independent ``N(0, dt)`` draws for
    that step, deterministically from ``(seed, member, step)``; ``table``
    stacks them for a whole run so each step is drawn once.
    """

    seed: int
    member: int
    modes: int
    dt: float

    def increments(self, step: int) -> np.ndarray:
        if self.dt == 0.0 or self.modes == 0:
            return np.zeros(self.modes)
        return _philox_normals(self.seed, self.member, step, self.modes) * np.sqrt(self.dt)

    def table(self, n_steps: int) -> np.ndarray:
        """Increments of steps ``0 .. n_steps - 1``, one ``(modes,)`` row each."""
        out = np.empty((n_steps, self.modes))
        for step in range(n_steps):
            out[step] = self.increments(step)
        return out


def member_tables(seed: int, members: int, modes: int, dt: float,
                  n_steps: int) -> np.ndarray:
    """The ``(members, n_steps, modes)`` increments of an ensemble's paths.

    Member ``m`` rides the path ``WienerPath(seed, m, modes, dt)``.
    """
    return np.stack([WienerPath(seed, m, modes, dt).table(n_steps)
                     for m in range(members)])


def coarsen(table: np.ndarray, n_steps: int) -> np.ndarray:
    """Sum consecutive rows of an increment table down to ``n_steps`` rows.

    Row ``i`` is ``table[i * agg] + ... + table[(i + 1) * agg - 1]`` with
    ``agg`` the table rows per coarse row, summed in step order from zero, so
    a coarse step is driven by exactly the fine Brownian path it spans.  A
    member-stacked ``(M, n, K)`` table is coarsened along its step axis.
    """
    rows = table.shape[-2]
    if n_steps < 1 or rows % n_steps != 0:
        raise NoiseError(f"n_steps {n_steps} must divide the {rows} table rows")
    agg = rows // n_steps
    out = np.zeros((*table.shape[:-2], n_steps, table.shape[-1]))
    for j in range(agg):
        out += table[..., j::agg, :]
    return out


# --------------------------------------------------------------------------
# statistical audits
# --------------------------------------------------------------------------


def lipschitz_audit(model: NoiseModel, grid, n_pairs: int = 10_000, seed: int = 0) -> dict:
    """Sampled check of ``|G_k(r,q) - G_k(r',q')| <= alpha_k (|r-r'| + |q-q'|)``."""
    rng = np.random.default_rng(seed)
    alphas = [abs(k) + abs(l) for k, l in zip(model.K, model.L)]
    shape = grid.sizes
    worst = 0.0
    violations = 0
    for _ in range(max(1, n_pairs // grid.n_cells)):
        rho1 = rng.uniform(0.0, 3.0, shape)
        rho2 = rng.uniform(0.0, 3.0, shape)
        m1 = rng.normal(0.0, 1.5, (grid.dim, *shape))
        m2 = rng.normal(0.0, 1.5, (grid.dim, *shape))
        for mode in range(model.modes):
            g1 = model.apply_mode(mode, grid, rho1, m1)
            g2 = model.apply_mode(mode, grid, rho2, m2)
            lhs = np.sqrt(np.sum((g1 - g2) ** 2, axis=0))
            rhs = alphas[mode] * (np.abs(rho1 - rho2) + np.sqrt(np.sum((m1 - m2) ** 2, axis=0)))
            excess = lhs - rhs
            worst = max(worst, float(np.max(excess)))
            violations += int(np.count_nonzero(excess > 1e-12 * (1.0 + rhs)))
    zero = 0.0
    for mode in range(model.modes):
        z = model.apply_mode(mode, grid, np.zeros(shape), np.zeros((grid.dim, *shape)))
        zero = max(zero, float(np.max(np.abs(z))))
    return {"max_excess": worst, "violations": violations, "zero_at_zero": zero,
            "pass": violations == 0 and zero == 0.0}


def domination_audit(model: NoiseModel, grid, n_states: int = 32, seed: int = 0) -> dict:
    """Check ``sum_k |G_k|^2 / rho <= c (rho + |m|^2 / rho)`` on random states.

    The sharp constant is ``c = 2 sum(K_k^2 + L_k^2)``.
    """
    rng = np.random.default_rng(seed)
    c = 2.0 * float(sum(k * k + l * l for k, l in zip(model.K, model.L)))
    worst = 0.0
    for _ in range(n_states):
        rho = rng.uniform(0.05, 3.0, grid.sizes)
        mom = rng.normal(0.0, 1.5, (grid.dim, *grid.sizes))
        lhs = model.ito_correction_density(grid, rho, mom, rho_floor=1e-300)
        rhs = c * (rho + np.sum(mom * mom, axis=0) / rho)
        with np.errstate(invalid="ignore"):
            ratio = np.where(rhs > 0, lhs / rhs, 0.0)
        worst = max(worst, float(np.max(ratio)))
    return {"constant": c, "max_ratio": worst, "pass": worst <= 1.0 + 1e-9}

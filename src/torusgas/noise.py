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

Row ``s`` of member ``m`` is, by definition, ``WienerPath.increments(s)``:
numpy's ``standard_normal(modes)`` from a Philox generator keyed
``(seed, m)`` at counter ``(0, 0, 0, s)``, times ``sqrt(dt)``.  A table
does not call numpy once per row.  It computes the first Philox4x64-10
block of every ``(member, step)`` key in one vectorized pass (Salmon et al.
2011), and decodes each word as numpy's ziggurat (Marsaglia & Tsang 2000)
does when it accepts the word at once.  The ziggurat tables are probed
from the running numpy on the first draw, and a word's acceptance bound is
kept only where a probe has proven it, so a decoded row is the row numpy
draws, bit for bit.  A row with a word the ziggurat would not accept at
once (about 2% of one-mode rows), and every row of more than 4 modes,
needs more than the first block and is drawn by ``increments`` itself.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox


def _warn(message: str, *args):
    """Log a warning as ``torusgas.noise``; ``logging`` is loaded only when one fires."""
    import logging

    logging.getLogger(__name__).warning(message, *args)


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
                _warn("ito correction: %d vacuum cells with nonzero momentum", bad)
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
_U64 = 0xFFFFFFFFFFFFFFFF
_LO32 = np.uint64(0xFFFFFFFF)
_MANTISSA = np.uint64((1 << 52) - 1)
# Philox4x64 round multipliers and Weyl key increments (Salmon et al. 2011)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))


def _philox_state(counter, key, buffer=_EMPTY_BUFFER, buffer_pos: int = 4) -> dict:
    return {"bit_generator": "Philox",
            "state": {"counter": np.asarray(counter, dtype=np.uint64),
                      "key": np.asarray(key, dtype=np.uint64)},
            "buffer": buffer, "buffer_pos": buffer_pos, "has_uint32": 0, "uinteger": 0}


def _philox_normals(seed: int, member: int, step: int, count: int) -> np.ndarray:
    gen = getattr(_local, "generator", None)
    if gen is None:
        gen = _local.generator = Generator(Philox())
    # step sits in the high counter word; draws advance the low words, so
    # streams for distinct steps can never overlap.  buffer_pos = 4 marks
    # the output buffer empty, as in a freshly keyed Philox.
    gen.bit_generator.state = _philox_state(
        [0, 0, 0, step & _U64], [seed & _U64, member & _U64])
    return gen.standard_normal(count)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit product ``m * x``, from 32-bit halves."""
    m_lo, m_hi, s32 = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32), np.uint64(32)
    x_lo, x_hi = x & _LO32, x >> s32
    lh = x_lo * m_hi
    # below 2**64: (2**32 - 1)**2 + 2 (2**32 - 1) = 2**64 - 1
    mid = x_hi * m_lo + ((x_lo * m_lo) >> s32) + (lh & _LO32)
    return x_hi * m_hi + (lh >> s32) + (mid >> s32), x * np.uint64(m)


def _philox_blocks(seed: int, members: np.ndarray, n_steps: int) -> np.ndarray:
    """``(M, n_steps, 4)`` first output words of every ``(member, step)`` stream.

    Philox4x64-10 of counter ``(1, 0, 0, step)`` under key ``(seed, member)``:
    numpy bumps the counter before it fills an empty buffer, so these are
    the words that ``_philox_normals`` consumes first.  The counter words
    start as scalars and broadcast up as the rounds mix them.
    """
    k0, k1 = np.uint64(seed & _U64), members[:, None]
    c0, c1, c2, c3 = np.uint64(1), np.uint64(0), np.uint64(0), np.arange(n_steps, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for rnd in range(10):
            if rnd:
                k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
            hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
            hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack(np.broadcast_arrays(c0, c1, c2, c3), axis=-1)


def _feed(gen: Generator, words: list[int]) -> tuple[np.ndarray, bool]:
    """One normal per word from a generator whose buffer holds ``words``.

    The flag says whether numpy took no further word, which its ziggurat
    does only if it accepted every word at once.
    """
    buffer = np.zeros(4, dtype=np.uint64)
    buffer[:len(words)] = words
    gen.bit_generator.state = _philox_state([0, 0, 0, 0], [0, 0], buffer, 0)
    normals = gen.standard_normal(len(words))
    state = gen.bit_generator.state
    return normals, state["buffer_pos"] == len(words) and not state["state"]["counter"].any()


def _accepted_normals(gen: Generator, words: list[int]) -> np.ndarray:
    """numpy's normal of each word that its ziggurat accepts at once, NaN elsewhere.

    Words go four to a buffer; a buffer that took a further word is fed
    again word by word.
    """
    out = np.full(len(words), np.nan)
    for i in range(0, len(words), 4):
        chunk = words[i:i + 4]
        normals, once = _feed(gen, chunk)
        if once:
            out[i:i + len(chunk)] = normals
        elif len(chunk) > 1:
            out[i:i + len(chunk)] = [_accepted_normals(gen, [w])[0] for w in chunk]
    return out


def _probe_ziggurat() -> tuple[np.ndarray, np.ndarray]:
    """numpy's ziggurat layer widths ``wi`` and proven acceptance bounds ``ki``.

    numpy's normal from a word ``r`` is ``rabs * wi[idx]``, negated if bit 8
    is set, with ``idx = r & 0xff`` and ``rabs`` the 52 bits above bit 8.  It
    accepts the word at once iff ``rabs`` is below numpy's own ``ki[idx]``.
    Both tables are read off the running numpy: ``wi[idx]`` as the normal
    of ``rabs = 1``, and ``ki[idx]`` as ``floor(2**52 wi[idx-1] / wi[idx]) - 1``,
    kept only if a negative word at ``rabs = ki[idx] - 1`` is accepted at
    once with the value above.  Where nothing is proven ``ki`` is 0, and so
    always for the tail layer 0 and for layer 1, whose numpy bound is 0.
    """
    gen = Generator(Philox())
    wi = np.zeros(256)
    wi[2:] = _accepted_normals(gen, [(1 << 9) | i for i in range(2, 256)])
    # layer 1's word passes the wedge test on the zero word behind it; its
    # width only enters layer 2's estimate, which the probe then proves
    wi[1] = _feed(gen, [(1 << 9) | 1])[0][0]
    with np.errstate(divide="ignore", invalid="ignore"):
        est = np.floor(wi[1:-1] / wi[2:] * 2.0 ** 52) - 1.0
    ok = np.isfinite(est) & (est >= 1.0) & (est <= 2.0 ** 52)
    ki = np.zeros(256, dtype=np.uint64)
    ki[2:] = np.where(ok, est, 1.0).astype(np.uint64)
    rabs = ki[2:] - np.uint64(1)
    probed = _accepted_normals(gen, [(int(r) << 9) | 0x100 | i for i, r in enumerate(rabs, 2)])
    ki[2:][~ok | (probed != -(rabs * wi[2:]))] = 0
    # the emulated Philox must match numpy's, or its words decide nothing
    gen.bit_generator.state = _philox_state([0, 0, 0, 3], [_U64 - 2, 1 << 63])
    if not np.array_equal(gen.bit_generator.random_raw(4),
                          _philox_blocks(_U64 - 2, np.array([1 << 63], np.uint64), 4)[0, 3]):
        _warn("emulated Philox differs from numpy's: every row takes the per-step draw")
        ki[:] = 0
    return wi, ki


_ZIGGURAT = None  # (wi, ki) of the running numpy, probed on the first draw


def _table(seed: int, members, modes: int, dt: float, n_steps: int) -> np.ndarray:
    """``(len(members), n_steps, modes)`` increments of the paths ``(seed, member)``.

    Row ``(m, s)`` equals ``_philox_normals(seed, m, s, modes) * sqrt(dt)``
    bit for bit.  Every row's first Philox block is computed in one pass,
    and a row whose words numpy's ziggurat accepts at once is decoded from
    them; any other row, and every row with more than 4 modes, is drawn by
    :meth:`WienerPath.increments` itself.
    """
    global _ZIGGURAT
    keys = np.array([m & _U64 for m in members], dtype=np.uint64)
    out = np.zeros((len(keys), n_steps, modes))
    if dt == 0.0 or modes == 0 or n_steps == 0:
        return out
    slow = np.ones(out.shape[:2], dtype=bool)
    if modes <= 4:
        if _ZIGGURAT is None:
            _ZIGGURAT = _probe_ziggurat()
        wi, ki = _ZIGGURAT
        words = _philox_blocks(seed, keys, n_steps)[..., :modes]
        idx = (words & np.uint64(0xFF)).astype(np.intp)
        rabs = (words >> np.uint64(9)) & _MANTISSA
        normals = rabs * wi[idx]
        np.negative(normals, out=normals, where=(words & np.uint64(0x100)) != 0)
        out = normals * np.sqrt(dt)
        slow = ~np.all(rabs < ki[idx], axis=-1)
    for m, s in zip(*np.nonzero(slow)):
        out[m, s] = WienerPath(seed, members[m], modes, dt).increments(int(s))
    return out


@dataclass(frozen=True)
class WienerPath:
    """Counter-based Brownian increment stream for one ensemble member.

    ``increments(step)`` returns the K independent ``N(0, dt)`` draws for
    that step, deterministically from ``(seed, member, step)``; ``table``
    gives the same rows for a whole run at once.
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
        return _table(self.seed, [self.member], self.modes, self.dt, n_steps)[0]


def member_tables(seed: int, members: int, modes: int, dt: float,
                  n_steps: int) -> np.ndarray:
    """The ``(members, n_steps, modes)`` increments of an ensemble's paths.

    Member ``m`` rides the path ``WienerPath(seed, m, modes, dt)``.
    """
    return _table(seed, range(members), modes, dt, n_steps)


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

"""Reference forms the tests compare the package against.

Nothing in ``torusgas`` needs these: the drift builds its tendencies in
Fourier space and the commands build Young measures from member batches.
They are kept here, as plain functions of a grid, to serve as oracles.
:func:`sampled_march` drives a whole ledger march the way ``simulate``
does, for tests of one member or one batch.  :func:`cross_variation_audit`
checks the momentum martingale's cross-variation with a test process, the
clause on test processes of the paper's solution concept.
:func:`probe_ziggurat` reads numpy's ziggurat tables off its generator, to
check the copies that :mod:`torusgas.noise` embeds.
"""

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from torusgas.dynamics import step_em
from torusgas.ensemble import EmpiricalYoungMeasure, EnsembleError
from torusgas.ledger import EnergyLedger, LedgerAccumulator, march
from torusgas.noise import member_tables


def laplacian(grid, f):
    """Spectral Laplacian of a scalar field."""
    return grid.bwd(-grid.k2 * grid.fwd(grid.check_scalar(f)))


def div_tensor(grid, F, dealias=False):
    """Row-wise tensor divergence ``out_i = sum_j d(F_ij)/d(x_j)``.

    With ``dealias=True`` the 2/3 mask is applied in the same spectral
    pass, for tensors assembled from pointwise products.
    """
    Fh = grid.fwd(F)
    if dealias:
        Fh = np.where(grid.dealias_mask, Fh, 0.0)
    return grid.bwd(sum(grid.ik[j] * Fh[grid.comp(slice(None), j)]
                        for j in range(grid.dim)))


def build_ym(grid, states):
    """Stack single member states into the per-cell uniform atomic measure."""
    if not states:
        raise EnsembleError("need at least one member")
    return EmpiricalYoungMeasure(grid, np.stack([s.rho for s in states]),
                                 np.stack([s.mom for s in states]))


def sampled_march(grid, model, stepper, state0, dt, table, stride):
    """March one member or a batch from ``state0``, sampled every ``stride`` steps.

    ``table`` is ``(n_steps, K)`` for one member or ``(M, n_steps, K)`` for a
    batch whose members all start from ``state0``.  Each sample interval is
    one :func:`torusgas.ledger.march`.  Returns the ledger, whose defect
    column is zero, and the sampled states.
    """
    members = len(table) if table.ndim == 3 else None
    acc = LedgerAccumulator(grid, model.law_eff, model.visc, model.noise, members=members)
    state = state0 if members is None else state0.batch(members)
    states, rows = [state], [acc.sample(state)]
    for start in range(0, table.shape[-2], stride):
        state = march(grid, model, stepper, state, dt, table[..., start:start + stride, :], acc)
        states.append(state)
        rows.append(acc.sample(state))
    return EnergyLedger.of_rows([s.t for s in states], rows), states


# --------------------------------------------------------------------------
# cross-variation audit (clause on test processes)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothItoProcess:
    """Finite-mode Ito test process ``df = D^d f dt + sum_k ds[k] dW_k``.

    ``ds`` are constant diffusion coefficients against the driving modes;
    ``independent_seed`` instead drives f by a fresh Wiener path (its
    cross-variation with the run's martingale must then vanish).
    """

    ds: tuple[float, ...]
    independent_seed: int | None = None

    def increments(self, run_table: np.ndarray, dt: float) -> np.ndarray:
        """Per-step increments ``df_n = ds . dW_n`` along each run of a batch.

        ``run_table`` holds the runs' own ``(M, n_steps, K)`` Wiener
        increments; an independent process draws its own paths on the runs'
        time lattice instead, member ``m`` from ``(independent_seed, m)``.
        """
        if self.independent_seed is not None:
            members, n_steps, modes = run_table.shape
            run_table = member_tables(self.independent_seed, members, modes, dt, n_steps)
        return run_table @ np.asarray(self.ds, dtype=np.float64)

    def ds_against_run(self, modes: int) -> np.ndarray:
        """Diffusion coefficients against the run's own modes."""
        if self.independent_seed is not None:
            return np.zeros(modes)
        return np.asarray(self.ds, dtype=np.float64)


def cross_variation_audit(grid, model, stepper, init_state, horizon: float,
                          n_steps: int, n_paths: int, process: SmoothItoProcess,
                          seed: int = 0) -> dict:
    """Monte Carlo check of the prescribed cross-variation structure.

    Per path, the realized covariation ``sum_n df_n . dMbar_n`` of the test
    process with the space-integrated momentum martingale
    ``Mbar = sum_k int(int G_k dx) dW_k`` is compared against the predicted
    ``sum_k int int <D^s f G_k> dx dt``; the audit passes when the mean
    difference sits within five standard errors of zero, componentwise.
    All paths are marched as one member batch.
    """
    dt = horizon / n_steps
    noise = model.noise
    dim = grid.dim
    table = member_tables(seed, n_paths, noise.modes, dt, n_steps)
    df_table = process.increments(table, dt)
    ds_run = process.ds_against_run(noise.modes)
    state = init_state.batch(n_paths)
    realized = np.zeros((n_paths, dim))
    predicted = np.zeros((n_paths, dim))
    for step in range(n_steps):
        dW = table[:, step]
        g_int = np.empty((n_paths, noise.modes, dim))
        for mode in range(noise.modes):
            gk = noise.apply_mode(mode, grid, state.rho, state.mom)
            for c in range(dim):
                g_int[:, mode, c] = grid.integrate(gk[:, c])
        realized += df_table[:, step, None] * (dW[:, None, :] @ g_int)[:, 0]
        predicted += dt * (ds_run @ g_int)
        state = step_em(grid, model, stepper, state, dt, dW)
    diffs = realized - predicted
    mean = diffs.mean(axis=0)
    se = diffs.std(axis=0, ddof=1) / np.sqrt(n_paths)
    ok = bool(np.all(np.abs(mean) <= 5.0 * np.maximum(se, 1e-300)))
    return {"mean_diff": mean, "se": se, "pass": ok,
            "n_paths": n_paths}


# --------------------------------------------------------------------------
# numpy's ziggurat, probed through its generator
# --------------------------------------------------------------------------


def _feed(gen: Generator, words: list[int]) -> tuple[np.ndarray, bool]:
    """One normal per word from a Philox generator whose buffer holds ``words``.

    The flag says whether numpy took no further word, which its ziggurat
    does only if it accepted every word at once.
    """
    buffer = np.zeros(4, dtype=np.uint64)
    buffer[:len(words)] = words
    zero = np.zeros(4, dtype=np.uint64)
    gen.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": zero, "key": zero[:2]},
        "buffer": buffer, "buffer_pos": 0, "has_uint32": 0, "uinteger": 0}
    normals = gen.standard_normal(len(words))
    state = gen.bit_generator.state
    return normals, state["buffer_pos"] == len(words) and not state["state"]["counter"].any()


def accepted_normals(gen: Generator, words: list[int]) -> np.ndarray:
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
            out[i:i + len(chunk)] = [accepted_normals(gen, [w])[0] for w in chunk]
    return out


def probe_ziggurat() -> tuple[np.ndarray, np.ndarray]:
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
    wi[2:] = accepted_normals(gen, [(1 << 9) | i for i in range(2, 256)])
    # layer 1's word passes the wedge test on the zero word behind it; its
    # width only enters layer 2's estimate, which the probe then proves
    wi[1] = _feed(gen, [(1 << 9) | 1])[0][0]
    with np.errstate(divide="ignore", invalid="ignore"):
        est = np.floor(wi[1:-1] / wi[2:] * 2.0 ** 52) - 1.0
    ok = np.isfinite(est) & (est >= 1.0) & (est <= 2.0 ** 52)
    ki = np.zeros(256, dtype=np.uint64)
    ki[2:] = np.where(ok, est, 1.0).astype(np.uint64)
    rabs = ki[2:] - np.uint64(1)
    probed = accepted_normals(gen, [(int(r) << 9) | 0x100 | i for i, r in enumerate(rabs, 2)])
    ki[2:][~ok | (probed != -(rabs * wi[2:]))] = 0
    return wi, ki

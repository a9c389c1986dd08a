"""Reference forms the tests compare the package against.

Nothing in ``torusgas`` needs these: the drift builds its tendencies in
Fourier space and the commands build Young measures from member batches.
They are kept here, as plain functions of a grid, to serve as oracles.
:func:`sampled_march` drives a whole ledger march the way ``simulate``
does, for tests of one member or one batch.  :func:`cross_variation_audit`
checks the momentum martingale's cross-variation with a test process, the
clause on test processes of the paper's solution concept.
"""

from dataclasses import dataclass

import numpy as np

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
    acc = LedgerAccumulator(grid, model.law_eff, model.visc, model.noise, stepper.rho_floor,
                            members=members)
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

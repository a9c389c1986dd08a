"""Reference forms the tests compare the package against.

Nothing in ``torusgas`` needs these: the drift builds its tendencies in
Fourier space and the commands build Young measures from member batches.
They are kept here, as plain functions of a grid, to serve as oracles.
:func:`sampled_march` drives a whole ledger march the way ``simulate``
does, for tests of one member or one batch.
"""

import numpy as np

from torusgas.ensemble import EmpiricalYoungMeasure, EnsembleError
from torusgas.ledger import EnergyLedger, LedgerAccumulator, march


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

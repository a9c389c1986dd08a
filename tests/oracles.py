"""Reference forms the tests compare the package against.

Nothing in ``torusgas`` needs these: the drift builds its tendencies in
Fourier space and the commands build Young measures from member batches.
They are kept here, as plain functions of a grid, to serve as oracles.
"""

import numpy as np

from torusgas.ensemble import EmpiricalYoungMeasure, EnsembleError


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

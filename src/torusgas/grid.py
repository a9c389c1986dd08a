"""Periodic grids on the flat torus and spectral field calculus.

Fields are plain numpy arrays sampled at cell centers of ``[0, 2*pi)^N``:
scalars have shape ``grid.sizes``, vectors ``(N, *sizes)`` and tensors
``(N, N, *sizes)`` with the convention ``tensor[i, j] = d(v_i)/d(x_j)``.
Differentiation is exact for resolved Fourier modes; quadratic and cubic
nonlinearities are handled with the 2/3-rule mask exposed by ``dealias``.

Transforms, checks and the calculus operators act on the trailing ``dim``
axes; a vector's component axis sits just before them.  Any leading axes,
such as the member axis of an ensemble batch ``(M, *sizes)`` /
``(M, N, *sizes)``, are broadcast: every member's row goes through the same
one-dimensional transforms and the same pairwise sums as a single field, so
batched results equal per-member results bit for bit.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


class FieldError(ValueError):
    """Raised when a field violates a grid contract (shape, finiteness)."""


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


class Grid:
    """Uniform periodic grid on the N-dimensional flat torus.

    Parameters
    ----------
    sizes : tuple of int
        Cells per dimension; each a power of two, at least 8.  One to three
        dimensions are accepted (3-D only at toy sizes).
    """

    def __init__(self, sizes):
        sizes = tuple(int(n) for n in np.atleast_1d(sizes))
        if not 1 <= len(sizes) <= 3:
            raise FieldError(f"grid dimension must be 1, 2 or 3, got {len(sizes)}")
        for n in sizes:
            if n < 8 or not _is_power_of_two(n):
                raise FieldError(f"grid sizes must be powers of two >= 8, got {sizes}")
        self.sizes = sizes
        self.dim = len(sizes)
        self.axes = tuple(range(-self.dim, 0))  # the spatial (trailing) axes
        self._space = (slice(None),) * self.dim
        self._build_spectral()

    def __repr__(self) -> str:
        return f"Grid(sizes={self.sizes})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Grid) and other.sizes == self.sizes

    def __hash__(self) -> int:
        return hash(self.sizes)

    @property
    def cell_volume(self) -> float:
        return TWO_PI ** self.dim / float(np.prod(self.sizes))

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(TWO_PI / n for n in self.sizes)

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.sizes))

    def _build_spectral(self):
        """Set the spectral symbols, each broadcastable to a field's spectrum.

        ``ik``: per-axis first-derivative symbols ``i k``, unpaired Nyquist
        zeroed.  ``k2``: ``|k|^2``, the symbol of ``-lap``.  ``k2_odd``: the
        symbol of ``-div grad``, ``|k|^2`` from the Nyquist-zeroed ``ik``.
        ``dealias_mask``: the 2/3 rule.  ``rfft_weight``: each real-FFT
        column's multiplicity in the full spectrum, 2 except for the zero and
        Nyquist columns; ``parseval_weight``: that times ``cell_volume /
        n_cells``, the weight of :meth:`modal_integrate`.
        """
        # integer wavenumbers; rfft layout on the last axis
        axes_k = []
        for ax, n in enumerate(self.sizes):
            if ax == self.dim - 1:
                k = np.arange(n // 2 + 1, dtype=np.float64)
            else:
                k = np.fft.fftfreq(n, d=1.0 / n)
            shape = [1] * self.dim
            shape[ax] = k.size
            axes_k.append(k.reshape(shape))
        self.k2 = sum(k * k for k in axes_k)
        self._inv_k2 = np.zeros_like(self.k2)
        nz = self.k2 > 0
        self._inv_k2[nz] = 1.0 / self.k2[nz]
        # odd derivatives drop the (unpaired) Nyquist mode for real symmetry
        self.ik = []
        k_odd = []
        for ax, n in enumerate(self.sizes):
            k = axes_k[ax].copy()
            k[np.abs(k) == n // 2] = 0.0
            k_odd.append(k)
            self.ik.append(1j * k)
        # the projection must invert the same (Nyquist-zeroed) symbol that
        # grad/div use, or mixed-Nyquist modes survive with nonzero div
        self.k2_odd = sum(k * k for k in k_odd)
        self._inv_k2p = np.zeros_like(self.k2_odd)
        nzp = self.k2_odd > 0
        self._inv_k2p[nzp] = 1.0 / self.k2_odd[nzp]
        # 2/3-rule mask for products formed in physical space
        self.dealias_mask = np.ones(self.k2.shape, dtype=bool)
        for ax, n in enumerate(self.sizes):
            cut = (2.0 / 3.0) * (n // 2)
            self.dealias_mask &= np.abs(axes_k[ax]) <= cut
        self.rfft_weight = np.full(self.sizes[-1] // 2 + 1, 2.0)
        self.rfft_weight[0] = self.rfft_weight[-1] = 1.0
        self.parseval_weight = self.rfft_weight * (self.cell_volume / self.n_cells)

    # -- coordinates -------------------------------------------------------

    def coordinates(self) -> list[np.ndarray]:
        """Cell-center coordinate arrays, broadcastable to a scalar field."""
        xs = [np.arange(n) * (TWO_PI / n) for n in self.sizes]
        return list(np.meshgrid(*xs, indexing="ij", sparse=False))

    def comp(self, *idx) -> tuple:
        """Index of component ``idx`` of a field with any leading axes.

        ``v[grid.comp(i)]`` is component ``i`` of a vector and
        ``F[grid.comp(i, j)]`` entry ``(i, j)`` of a tensor, batched or not;
        ``f[grid.comp(None)]`` views a scalar field as a one-component
        vector, to scale a vector field cell by cell.
        """
        return (Ellipsis, *idx) + self._space

    # -- validation --------------------------------------------------------

    def check_scalar(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=np.float64)
        if f.shape[-self.dim:] != self.sizes:
            raise FieldError(f"scalar shape {f.shape} != grid {self.sizes}")
        if not np.all(np.isfinite(f)):
            raise FieldError("scalar field has non-finite entries")
        return f

    def check_vector(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape[-self.dim - 1:] != (self.dim, *self.sizes):
            raise FieldError(f"vector shape {v.shape} != {(self.dim, *self.sizes)}")
        if not np.all(np.isfinite(v)):
            raise FieldError("vector field has non-finite entries")
        return v

    # -- transforms --------------------------------------------------------

    def fwd(self, f: np.ndarray) -> np.ndarray:
        """Real FFT over the trailing ``dim`` axes."""
        if self.dim == 1:  # what rfftn calls, without its argument handling
            return np.fft.rfft(f, axis=-1)
        return np.fft.rfftn(f, axes=self.axes)

    def bwd(self, fh: np.ndarray) -> np.ndarray:
        if self.dim == 1:
            return np.fft.irfft(fh, self.sizes[0], axis=-1)
        return np.fft.irfftn(fh, s=self.sizes, axes=self.axes)

    # -- calculus ----------------------------------------------------------

    def gradient(self, f: np.ndarray) -> np.ndarray:
        """Spectral gradient of a scalar field, shape (N, *sizes)."""
        f = self.check_scalar(f)
        fh = self.fwd(f)
        out = np.empty((*f.shape[:-self.dim], self.dim, *self.sizes))
        for ax in range(self.dim):
            out[self.comp(ax)] = self.bwd(self.ik[ax] * fh)
        return out

    def divergence(self, v: np.ndarray) -> np.ndarray:
        vh = self.fwd(self.check_vector(v))
        return self.bwd(sum(self.ik[ax] * vh[self.comp(ax)]
                            for ax in range(self.dim)))

    def gradient_vector(self, v: np.ndarray) -> np.ndarray:
        """Velocity-gradient tensor, ``out[i, j] = d(v_i)/d(x_j)``."""
        v = self.check_vector(v)
        vh = self.fwd(v)
        out = np.empty((*v.shape[:-self.dim], self.dim, *self.sizes))
        for j in range(self.dim):
            out[self.comp(slice(None), j)] = self.bwd(self.ik[j] * vh)
        return out

    def inverse_laplacian(self, f: np.ndarray) -> np.ndarray:
        """Zero-mean solution of ``lap(result) = f`` for a single field.

        The input mean is subtracted before inversion.
        """
        f = self.check_scalar(f)
        fh = self.fwd(f)
        fh.flat[0] = 0.0
        return self.bwd(-self._inv_k2 * fh)

    def helmholtz_project(self, v: np.ndarray) -> np.ndarray:
        """Leray/Helmholtz projection ``v - grad(invlap(div v))``."""
        return self.bwd(self.leray(self.fwd(self.check_vector(v))))

    def leray(self, vh: np.ndarray) -> np.ndarray:
        """Leray projection of a vector spectrum ``(..., N, *spectral)``, mode by mode."""
        dh = sum(self.ik[ax] * vh[self.comp(ax)] for ax in range(self.dim))
        phi = -self._inv_k2p * dh  # = (invlap div v)^, matching symbols
        out = np.empty_like(vh)
        for ax in range(self.dim):
            out[self.comp(ax)] = vh[self.comp(ax)] - self.ik[ax] * phi
        return out

    def viscous_operator(self, u: np.ndarray, nu: float, eta: float) -> np.ndarray:
        """Constant-coefficient viscous drift ``nu lap(u) + eta grad(div u)``."""
        uh = self.fwd(u)
        dh = sum(self.ik[ax] * uh[self.comp(ax)] for ax in range(self.dim))
        out = np.empty_like(u)
        for ax in range(self.dim):
            out[self.comp(ax)] = self.bwd(-nu * self.k2 * uh[self.comp(ax)]
                                          + eta * self.ik[ax] * dh)
        return out

    def integrate(self, f: np.ndarray):
        """Cell-volume weighted sum over the torus.

        A float for a single field; for a batch, one value per member, each
        summed over its contiguous row exactly as a single field would be.
        """
        lead = f.shape[:-self.dim]
        if not lead:
            return float(np.sum(f) * self.cell_volume)
        return np.sum(np.reshape(f, (*lead, self.n_cells)), axis=-1) * self.cell_volume

    def dealias(self, f: np.ndarray) -> np.ndarray:
        """Apply the 2/3-rule mask to a scalar field."""
        return self.bwd(np.where(self.dealias_mask, self.fwd(f), 0.0))

    def modal_integrate(self, density: np.ndarray):
        """``int f g dx`` from the modal density ``Re(f^ conj(g^))`` over the real-FFT columns.

        Parseval with each column weighted by :attr:`parseval_weight`; for
        ``density = |f^|^2`` it is ``int f^2 dx``.  A float for a single
        density; for a batch, one value per member, each summed over its
        contiguous row exactly as a single density would be.
        """
        weighted = density * self.parseval_weight
        lead = density.shape[:-self.dim]
        if not lead:
            return float(np.sum(weighted))
        return np.sum(np.reshape(weighted, (*lead, -1)), axis=-1)

    def modal_norm_sq(self, f: np.ndarray) -> float:
        """Squared L2 norm of a single field from its Fourier coefficients (Parseval)."""
        return self.modal_integrate(np.abs(self.fwd(f)) ** 2)

    # -- inter-grid transfer ------------------------------------------------

    def restrict(self, f: np.ndarray, coarse: "Grid") -> np.ndarray:
        """Spectral truncation of a field onto a coarser grid, per component.

        Exact for modes resolved on the coarse grid; content at or above the
        coarse Nyquist is dropped.
        """
        if coarse.dim != self.dim:
            raise FieldError("restrict: dimension mismatch")
        if coarse.sizes == self.sizes:
            return np.array(f, dtype=np.float64)
        for nc, nf in zip(coarse.sizes, self.sizes):
            if nc > nf:
                raise FieldError("restrict: target grid must be coarser")
        fh = np.fft.fftn(self.check_scalar(f), axes=self.axes)
        idx = []
        for nc, nf in zip(coarse.sizes, self.sizes):
            half = nc // 2
            idx.append(np.r_[0:half, nf - half : nf])
        sub = fh[(Ellipsis, *np.ix_(*idx))]
        scale = coarse.n_cells / self.n_cells
        return np.fft.ifftn(sub * scale, axes=self.axes).real


# -- random smooth fields (shared by tests and the verify suite) ------------


def random_smooth_scalar(grid: Grid, rng: np.random.Generator, kmax: int = 4,
                         amplitude: float = 1.0) -> np.ndarray:
    """Random band-limited scalar field with modes up to ``kmax``."""
    white = rng.standard_normal(grid.sizes)
    fh = grid.fwd(white)
    fh *= np.exp(-grid.k2 / max(kmax, 1) ** 2)
    f = grid.bwd(fh)
    peak = np.max(np.abs(f))
    return f * (amplitude / peak if peak > 0 else 1.0)


def random_smooth_vector(grid: Grid, rng: np.random.Generator, kmax: int = 4,
                         amplitude: float = 1.0) -> np.ndarray:
    return np.stack(
        [random_smooth_scalar(grid, rng, kmax, amplitude) for _ in range(grid.dim)]
    )


def random_solenoidal(grid: Grid, rng: np.random.Generator, kmax: int = 4,
                      amplitude: float = 1.0) -> np.ndarray:
    """Random divergence-free vector field."""
    return grid.helmholtz_project(random_smooth_vector(grid, rng, kmax, amplitude))


def grad_inf_norm(grid: Grid, v: np.ndarray):
    """Max absolute entry of the velocity-gradient tensor.

    A float for a single field; for a batch, one value per member.
    """
    g = np.abs(grid.gradient_vector(v))
    if v.ndim == grid.dim + 1:
        return float(np.max(g))
    return np.max(np.reshape(g, (len(g), -1)), axis=1)

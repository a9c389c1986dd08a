import numpy as np
import pytest

from torusgas.grid import (Grid, FieldError, grad_inf_norm, random_smooth_scalar,
                           random_smooth_vector, random_solenoidal)

from oracles import div_tensor, laplacian


def test_grid_validation():
    with pytest.raises(FieldError):
        Grid((7,))
    with pytest.raises(FieldError):
        Grid((48,))  # not a power of two
    with pytest.raises(FieldError):
        Grid((8, 8, 8, 8))
    g = Grid((8, 16))
    assert g.dim == 2
    assert g.cell_volume == pytest.approx((2 * np.pi) ** 2 / 128)


def test_gradient_single_mode(grid1d):
    x = grid1d.coordinates()[0]
    g = grid1d.gradient(np.sin(x))
    assert np.max(np.abs(g[0] - np.cos(x))) < 1e-13
    assert abs(np.mean(g[0])) < 1e-15


def test_gradient_constant(grid1d):
    g = grid1d.gradient(np.full(grid1d.sizes, 3.7))
    assert np.max(np.abs(g)) < 1e-13


def test_gradient_2d_analytic(grid2d):
    # closed-form derivative oracle for sin(2x) cos(3y)
    X, Y = grid2d.coordinates()
    f = np.sin(2 * X) * np.cos(3 * Y)
    expected = np.stack([2 * np.cos(2 * X) * np.cos(3 * Y),
                         -3 * np.sin(2 * X) * np.sin(3 * Y)])
    assert np.max(np.abs(grid2d.gradient(f) - expected)) < 1e-10


def test_gradient_rejects_nonfinite(grid1d):
    f = np.zeros(grid1d.sizes)
    f[3] = np.nan
    with pytest.raises(FieldError):
        grid1d.gradient(f)


def test_divergence_single_mode(grid1d):
    x = grid1d.coordinates()[0]
    v = np.stack([np.sin(x)])
    assert np.max(np.abs(grid1d.divergence(v) - np.cos(x))) < 1e-13


def test_divergence_of_curl_vanishes(grid2d):
    # a stream-function field is solenoidal: v = (d_y psi, -d_x psi)
    rng = np.random.default_rng(5)
    psi = random_smooth_scalar(grid2d, rng, kmax=5)
    gpsi = grid2d.gradient(psi)
    v = np.stack([gpsi[1], -gpsi[0]])
    assert np.max(np.abs(grid2d.divergence(v))) < 1e-12


def test_divergence_constant(grid2d):
    v = np.zeros((2, *grid2d.sizes))
    v[0] = 2.0
    v[1] = -1.0
    assert np.max(np.abs(grid2d.divergence(v))) < 1e-14


def test_divergence_integral_zero(grid2d, rng):
    v = random_smooth_vector(grid2d, rng)
    assert abs(grid2d.integrate(grid2d.divergence(v))) < 1e-12


def test_inverse_laplacian_eigenfunctions(grid1d):
    x = grid1d.coordinates()[0]
    out = grid1d.inverse_laplacian(np.sin(x))
    assert np.max(np.abs(out + np.sin(x))) < 1e-13
    out = grid1d.inverse_laplacian(np.zeros(grid1d.sizes))
    assert np.max(np.abs(out)) < 1e-15
    out = grid1d.inverse_laplacian(np.cos(2 * x))
    assert np.max(np.abs(out + np.cos(2 * x) / 4)) < 1e-13


def test_inverse_laplacian_flags_nonzero_mean(grid1d):
    x = grid1d.coordinates()[0]
    out = grid1d.inverse_laplacian(np.sin(x) + 0.5)
    # mean was subtracted before inversion
    assert np.max(np.abs(out + np.sin(x))) < 1e-13
    back = laplacian(grid1d, out)
    assert np.max(np.abs(back - np.sin(x))) < 1e-12


def test_helmholtz_annihilates_gradients(grid2d, rng):
    phi = random_smooth_scalar(grid2d, rng, kmax=6)
    assert np.max(np.abs(grid2d.helmholtz_project(grid2d.gradient(phi)))) < 1e-12


def test_helmholtz_fixes_constants(grid2d):
    v = np.zeros((2, *grid2d.sizes))
    v[0] = 0.8
    v[1] = -0.3
    assert np.max(np.abs(grid2d.helmholtz_project(v) - v)) == 0.0


def test_helmholtz_idempotent(grid2d, rng):
    # idempotence check on sampled fields
    v = random_smooth_vector(grid2d, rng, kmax=8)
    pv = grid2d.helmholtz_project(v)
    assert np.max(np.abs(grid2d.helmholtz_project(pv) - pv)) < 1e-12
    assert np.max(np.abs(grid2d.divergence(pv))) < 1e-10


def test_integrate_examples(grid2d, grid1d):
    assert grid2d.integrate(np.ones(grid2d.sizes)) == pytest.approx((2 * np.pi) ** 2)
    x = grid1d.coordinates()[0]
    assert abs(grid1d.integrate(np.sin(x))) < 1e-14
    assert grid1d.integrate(np.sin(x) ** 2) == pytest.approx(np.pi, abs=1e-12)


def test_parseval(grid2d, rng):
    f = random_smooth_scalar(grid2d, rng, kmax=9)
    direct = grid2d.integrate(f * f)
    assert abs(grid2d.modal_norm_sq(f) - direct) < 1e-12 * direct


def test_grad_div_adjoint(grid2d, rng):
    for _ in range(3):
        f = random_smooth_scalar(grid2d, rng, kmax=5)
        v = random_smooth_vector(grid2d, rng, kmax=5)
        lhs = grid2d.integrate(f * grid2d.divergence(v))
        rhs = -grid2d.integrate(np.sum(grid2d.gradient(f) * v, axis=0))
        assert abs(lhs - rhs) < 1e-10


def test_dealias_removes_high_modes(grid1d):
    x = grid1d.coordinates()[0]
    keep = np.sin(4 * x)
    kill = np.cos(28 * x)  # beyond the 2/3 cutoff of 21
    out = grid1d.dealias(keep + kill)
    assert np.max(np.abs(out - keep)) < 1e-13


def test_div_tensor_matches_componentwise(grid2d, rng):
    F = np.stack([random_smooth_vector(grid2d, rng, kmax=4) for _ in range(2)])
    direct = div_tensor(grid2d, F)
    manual = np.stack([
        grid2d.gradient(F[i, 0])[0] + grid2d.gradient(F[i, 1])[1] for i in range(2)
    ])
    assert np.max(np.abs(direct - manual)) < 1e-12


def test_viscous_operator_matches_identities(grid2d, rng):
    u = random_smooth_vector(grid2d, rng, kmax=4)
    nu, eta = 0.7, 0.2
    direct = grid2d.viscous_operator(u, nu, eta)
    lap = np.stack([laplacian(grid2d, u[i]) for i in range(2)])
    graddiv = grid2d.gradient(grid2d.divergence(u))
    assert np.max(np.abs(direct - nu * lap - eta * graddiv)) < 1e-10


def test_restrict_exact_on_resolved_modes():
    fine, coarse = Grid((64, 64)), Grid((32, 32))
    X, Y = fine.coordinates()
    f = 1.3 + np.sin(3 * X) * np.cos(5 * Y) + np.cos(7 * X)
    Xc, Yc = coarse.coordinates()
    expected = 1.3 + np.sin(3 * Xc) * np.cos(5 * Yc) + np.cos(7 * Xc)
    assert np.max(np.abs(fine.restrict(f, coarse) - expected)) < 1e-12


def test_restrict_same_grid_is_identity(grid2d, rng):
    f = random_smooth_scalar(grid2d, rng)
    assert np.array_equal(grid2d.restrict(f, grid2d), f)


def test_grad_inf_norm(grid2d):
    X, Y = grid2d.coordinates()
    v = np.stack([np.sin(X) * np.cos(Y), -np.cos(X) * np.sin(Y)])
    assert grad_inf_norm(grid2d, v) == pytest.approx(1.0, abs=1e-12)


def test_random_solenoidal_is_solenoidal(grid2d, rng):
    v = random_solenoidal(grid2d, rng)
    assert np.max(np.abs(grid2d.divergence(v))) < 1e-10

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusgas.constitutive import (ConstitutiveError, PressureLaw, Viscosity,
                                   potential_delta, pressure_delta, relative_h,
                                   stress, stress_contract)


def central_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2 * h)


class TestPressureLaw:
    def test_invariants(self):
        with pytest.raises(ConstitutiveError):
            PressureLaw(a=-1.0)
        with pytest.raises(ConstitutiveError):
            PressureLaw(gamma=1.0)
        with pytest.raises(ConstitutiveError):
            PressureLaw(delta=-0.1)
        with pytest.raises(ConstitutiveError):
            PressureLaw(gamma=7.0, delta=0.1, Gam=6.5)  # Gam < gamma

    def test_rescaled_absorbs_eps(self):
        law = PressureLaw(2.0, 1.4, 0.2, 6.0)
        eff = law.rescaled(0.5)
        assert eff.a == pytest.approx(8.0)
        assert eff.delta == pytest.approx(0.8)
        assert eff.gamma == law.gamma


class TestPressure:
    def test_examples(self):
        assert pressure_delta(PressureLaw(1.0, 2.0), 2.0) == pytest.approx(4.0)
        assert pressure_delta(PressureLaw(3.0, 1.7), 0.0) == 0.0
        assert pressure_delta(PressureLaw(1.0, 1.4), 1.0) == pytest.approx(1.0)


class TestPotential:
    def test_examples(self):
        assert potential_delta(PressureLaw(1.0, 2.0), 2.0) == pytest.approx(2.0)
        assert potential_delta(PressureLaw(1.7, 2.3), 1.0) == pytest.approx(0.0)

    @pytest.mark.parametrize("rho", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("law", [PressureLaw(1.0, 1.4), PressureLaw(2.0, 2.0)])
    def test_pair_identity_fd(self, law, rho):
        # numerical-derivative oracle for rho P' - P = p
        dP = central_diff(lambda z: potential_delta(law, z), rho)
        lhs = rho * dP - potential_delta(law, rho)
        assert lhs == pytest.approx(pressure_delta(law, rho), rel=1e-8)

    def test_quadrature_oracle(self):
        # P(rho) = rho * int_1^rho p(z)/z^2 dz, evaluated by quadrature
        law = PressureLaw(1.3, 1.8)
        for rho in (0.3, 2.0, 5.0):
            z = np.linspace(1.0, rho, 20001)
            q = rho * np.trapezoid(pressure_delta(law, np.abs(z)) / z**2, z)
            assert potential_delta(law, rho) == pytest.approx(q, rel=1e-7)


class TestArtificialPressure:
    def test_delta_zero_matches_plain(self):
        law = PressureLaw(1.0, 1.4, 0.0)
        rho = np.linspace(0.0, 4.0, 50)
        assert np.allclose(pressure_delta(law, rho), rho**1.4)
        assert np.allclose(potential_delta(law, rho), (rho**1.4 - rho) / 0.4)

    def test_example_value(self):
        law = PressureLaw(1.0, 2.0, 0.1, 6.0)
        assert pressure_delta(law, 1.0) == pytest.approx(1.2)

    @pytest.mark.parametrize("rho", [0.4, 1.0, 2.5])
    def test_pair_identity_fd(self, rho):
        law = PressureLaw(1.0, 2.0, 0.1, 6.0)
        dP = central_diff(lambda z: potential_delta(law, z), rho)
        lhs = rho * dP - potential_delta(law, rho)
        assert lhs == pytest.approx(pressure_delta(law, rho), rel=1e-8)

    def test_vacuum_extension(self):
        law = PressureLaw(1.0, 2.0, 0.1, 6.0)
        assert potential_delta(law, 0.0) == 0.0


class TestRelativeH:
    def test_gamma_two_closed_form(self):
        # H(rho, r) = (rho - r)^2 for a=1, gamma=2
        law = PressureLaw(1.0, 2.0)
        assert relative_h(law, 3.0, 1.0) == pytest.approx(4.0)
        rho = np.linspace(0.0, 5.0, 40)
        assert np.allclose(relative_h(law, rho, np.full_like(rho, 1.3)),
                           (rho - 1.3) ** 2, atol=1e-12)

    def test_diagonal_zero(self):
        for law in (PressureLaw(1.0, 1.4), PressureLaw(2.0, 3.0, 0.1, 6.0)):
            for r in (0.2, 1.0, 4.0):
                assert relative_h(law, r, r) == 0.0

    def test_rejects_nonpositive_reference(self):
        with pytest.raises(ConstitutiveError):
            relative_h(PressureLaw(), 1.0, 0.0)

    def test_two_regime_lower_bound_grid_search(self):
        # grid-search oracle for the two-regime bound with alpha = 0.5:
        # fit c1 = min H / |rho - r|^2 over [alpha, 1/alpha]^2 and
        # c2 = min H / (1 + rho^gamma) for rho outside [alpha/2, 2/alpha]
        alpha = 0.5
        for gamma in (1.4, 2.0):
            law = PressureLaw(1.0, gamma)
            rho = np.linspace(alpha, 1 / alpha, 101)
            r = np.linspace(alpha, 1 / alpha, 97)
            R, Rho = np.meshgrid(r, rho)
            H = relative_h(law, Rho, R)
            gap = np.abs(Rho - R)
            mask = gap > 1e-9
            c1 = float(np.min(H[mask] / gap[mask] ** 2))
            assert c1 > 0.01
            rho_out = np.concatenate([np.linspace(1e-6, alpha / 2, 101),
                                      np.linspace(2 / alpha, 50.0, 101)])
            Ro, Rr = np.meshgrid(r, rho_out)
            H2 = relative_h(law, Rr, Ro)
            c2 = float(np.min(H2 / (1.0 + Rr**gamma)))
            assert c2 > 1e-3

    def test_near_diagonal_stability(self):
        # the Taylor branch must agree with the exact quadratic for gamma=2
        law = PressureLaw(1.0, 2.0)
        r = 1.0
        for d in (1e-7, 1e-8, 1e-10):
            assert relative_h(law, r + d, r) == pytest.approx(d * d, rel=1e-6)

    @given(rho=st.floats(0.0, 50.0), r=st.floats(0.01, 50.0),
           gamma=st.floats(1.01, 4.0))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_property(self, rho, r, gamma):
        assert relative_h(PressureLaw(1.0, gamma), rho, r) >= -1e-12


class TestViscosityAndStress:
    def test_viscosity_invariants(self):
        with pytest.raises(ConstitutiveError):
            Viscosity(0.0)
        with pytest.raises(ConstitutiveError):
            Viscosity(1.0, -0.1)
        assert Viscosity(1.0, 0.5).eta(2) == pytest.approx(0.5)
        assert Viscosity(3.0, 0.5).eta(3) == pytest.approx(0.5 + 1.0)

    def test_zero_gradient(self):
        S = stress(Viscosity(1.0, 0.5), np.zeros((2, 2, 8, 8)))
        assert np.max(np.abs(S)) == 0.0

    def test_pure_shear(self):
        grad_u = np.zeros((2, 2, 4, 4))
        grad_u[0, 1] = 1.0  # traceless shear
        S = stress(Viscosity(0.7, 0.9), grad_u)
        assert np.allclose(S[0, 1], 0.7)
        assert np.allclose(S[1, 0], 0.7)
        assert np.allclose(S[0, 0], 0.0)
        assert np.allclose(S[1, 1], 0.0)

    def test_one_dimensional_stress_needs_bulk_viscosity(self):
        # in 1-D the traceless part cancels identically: S = lam u', so nu
        # alone dissipates nothing (eta = lam - nu compensates in div S)
        grad_u = np.ones((1, 1, 16))
        assert np.max(np.abs(stress(Viscosity(1.0, 0.0), grad_u))) == 0.0
        assert np.allclose(stress(Viscosity(1.0, 0.5), grad_u)[0, 0], 0.5)
        assert Viscosity(1.0, 0.5).eta(1) == pytest.approx(-0.5)

    def test_trace_identity_random(self, rng):
        # |trace S - N lambda div u| direct check on random tensors
        visc = Viscosity(1.3, 0.4)
        grad_u = rng.standard_normal((2, 2, 16, 16))
        S = stress(visc, grad_u)
        div_u = np.trace(grad_u, axis1=0, axis2=1)
        assert np.max(np.abs(np.trace(S, axis1=0, axis2=1) - 2 * 0.4 * div_u)) < 1e-12

    def test_dissipation_nonnegative_and_decomposed(self, rng):
        visc = Viscosity(0.8, 0.3)
        grad_u = rng.standard_normal((2, 2, 32))
        contracted = stress_contract(visc, grad_u)
        assert np.min(contracted) >= -1e-12
        # S : grad u = (nu/2) |A + A^t - (2/N) tr A I|^2 + lam (tr A)^2
        sym_dev = (grad_u + np.swapaxes(grad_u, 0, 1))
        tr = np.trace(grad_u, axis1=0, axis2=1)
        for i in range(2):
            sym_dev[i, i] -= tr
        expected = 0.5 * visc.nu * np.sum(sym_dev**2, axis=(0, 1)) + visc.lam * tr**2
        assert np.allclose(contracted, expected, atol=1e-12)

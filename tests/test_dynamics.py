import numpy as np
import pytest

from torusgas.constitutive import PressureLaw, Viscosity
from torusgas.dynamics import (ModelConfig, SimulationError, State,
                               StepperConfig, cfl_dt, energy_total,
                               rhs_deterministic, step_em)
from torusgas.grid import Grid
from torusgas.noise import NoiseModel, WienerPath


LAW = PressureLaw(1.0, 2.0)


def make_state(grid, rho, mom):
    return State(np.asarray(rho, dtype=float), np.asarray(mom, dtype=float))


class TestRHS:
    def test_equilibrium_is_fixed_point(self, grid1d):
        model = ModelConfig(law=LAW, visc=Viscosity(1e-2))
        st = make_state(grid1d, np.ones(64), np.zeros((1, 64)))
        drho, dmom = rhs_deterministic(grid1d, model, st)
        assert np.max(np.abs(drho)) == 0.0
        assert np.max(np.abs(dmom)) < 1e-14

    def test_pure_acoustic_forcing(self, grid1d):
        # density bump at rest, inviscid: no mass flux, only pressure forcing
        model = ModelConfig(law=LAW)
        x = grid1d.coordinates()[0]
        rho = 1.0 + 0.2 * np.exp(np.cos(x)) / np.e
        st = make_state(grid1d, rho, np.zeros((1, 64)))
        drho, dmom = rhs_deterministic(grid1d, model, st)
        assert np.max(np.abs(drho)) == 0.0
        expected = -grid1d.gradient(grid1d.dealias(LAW.a * rho**2))
        assert np.max(np.abs(dmom - expected)) < 1e-12

    def test_eps_scales_pressure_forcing(self, grid1d):
        x = grid1d.coordinates()[0]
        rho = 1.0 + 0.1 * np.sin(x)
        st = make_state(grid1d, rho, np.zeros((1, 64)))
        _, dm1 = rhs_deterministic(grid1d, ModelConfig(law=LAW, eps=1.0), st)
        _, dm2 = rhs_deterministic(grid1d, ModelConfig(law=LAW, eps=0.5), st)
        assert np.allclose(dm2, 4.0 * dm1, rtol=1e-12)

    def test_nonfinite_density_rejected(self, grid1d):
        model = ModelConfig(law=LAW)
        rho = np.ones(64)
        rho[0] = np.inf
        with pytest.raises(Exception):
            rhs_deterministic(grid1d, model, make_state(grid1d, rho, np.zeros((1, 64))))


class TestSoundSpeed:
    def test_dispersion_oracle(self):
        # dispersion-relation oracle: track the phase of the k=1 density mode
        # of a small right-moving acoustic wave; the linearized system
        # propagates it at sqrt(a gamma) / eps.
        grid = Grid((256,))
        x = grid.coordinates()[0]
        model = ModelConfig(law=LAW)  # a=1, gamma=2, eps=1 -> speed sqrt(2)
        c_exact = np.sqrt(2.0)
        amp = 1e-6
        rho = 1.0 + amp * np.sin(x)
        mom = (c_exact * amp * np.sin(x))[None]
        st = make_state(grid, rho, mom.copy())
        stepper = StepperConfig()
        dt = 0.5 * cfl_dt(grid, model, st, stepper)
        phases = [np.angle(np.fft.rfft(st.rho)[1])]
        times = [0.0]
        for step in range(160):
            st = step_em(grid, model, stepper, st, dt)
            phases.append(np.angle(np.fft.rfft(st.rho)[1]))
            times.append(st.t)
        slope = np.polyfit(times, np.unwrap(phases), 1)[0]
        measured = -slope  # phase of mode k=1 decreases at rate k c
        assert abs(measured - c_exact) / c_exact < 0.02


class TestCFL:
    def test_formula_at_rest(self, grid1d):
        model = ModelConfig(law=LAW)
        st = make_state(grid1d, np.ones(64), np.zeros((1, 64)))
        h = 2 * np.pi / 64
        assert cfl_dt(grid1d, model, st) == pytest.approx(0.4 * h / np.sqrt(2.0))

    def test_halving_eps_halves_dt(self, grid1d):
        st = make_state(grid1d, np.ones(64), np.zeros((1, 64)))
        dt1 = cfl_dt(grid1d, ModelConfig(law=LAW, eps=1.0), st)
        dt2 = cfl_dt(grid1d, ModelConfig(law=LAW, eps=0.5), st)
        assert dt2 == pytest.approx(dt1 / 2)

    def test_large_viscosity_governs(self, grid1d):
        st = make_state(grid1d, np.ones(64), np.zeros((1, 64)))
        model = ModelConfig(law=LAW, visc=Viscosity(5.0))
        h = 2 * np.pi / 64
        assert cfl_dt(grid1d, model, st) == pytest.approx(0.4 * h * h / 20.0)

    def test_violation_raises(self, grid1d):
        model = ModelConfig(law=LAW)
        st = make_state(grid1d, np.ones(64), np.zeros((1, 64)))
        with pytest.raises(SimulationError, match="CFL"):
            step_em(grid1d, model, StepperConfig(), st, 1.0)


class TestStepEM:
    def test_equilibrium_unchanged_zero_noise(self, grid1d):
        model = ModelConfig(law=LAW, visc=Viscosity(1e-2))
        st = make_state(grid1d, np.ones(64), np.zeros((1, 64)))
        out = step_em(grid1d, model, StepperConfig(), st, 1e-3)
        assert np.array_equal(out.rho, st.rho)
        assert np.max(np.abs(out.mom)) < 1e-17

    def test_mass_conservation_long_run(self, grid1d):
        noise = NoiseModel(K=(0.1,), L=(0.05,))
        model = ModelConfig(law=LAW, visc=Viscosity(1e-2), noise=noise)
        x = grid1d.coordinates()[0]
        st = make_state(grid1d, 1 + 0.1 * np.sin(x), (0.05 * np.cos(x))[None])
        table = WienerPath(3, 0, 1, 2e-3).table(1000)
        mass0 = grid1d.integrate(st.rho)
        for step in range(1000):
            st = step_em(grid1d, model, StepperConfig(), st, 2e-3, table[step])
        assert abs(grid1d.integrate(st.rho) - mass0) / mass0 < 1e-12

    def test_noise_only_enters_momentum(self, grid1d):
        noise = NoiseModel(K=(0.5,), L=(0.0,))
        model = ModelConfig(law=LAW, noise=noise)
        st = make_state(grid1d, np.ones(64), np.zeros((1, 64)))
        frozen = lambda g, m, s: (np.zeros(g.sizes), np.zeros((g.dim, *g.sizes)))
        out = step_em(grid1d, model, StepperConfig(), st, 1e-2,
                      WienerPath(1, 0, 1, 1e-2).increments(0), rhs_fn=frozen)
        assert np.array_equal(out.rho, st.rho)
        assert np.max(np.abs(out.mom)) > 0

    def test_zero_drift_random_walk_variance(self, grid1d):
        # Monte Carlo oracle: with the drift frozen, momentum performs a
        # Gaussian random walk with ensemble variance n dt |G|^2
        noise = NoiseModel(K=(1.0,), L=(0.0,))
        model = ModelConfig(law=LAW, noise=noise)
        frozen = lambda g, m, s: (np.zeros(g.sizes), np.zeros((g.dim, *g.sizes)))
        n_steps, dt, members = 10, 0.01, 4000
        finals = np.empty(members)
        for member in range(members):
            st = make_state(grid1d, np.ones(64), np.zeros((1, 64)))
            table = WienerPath(77, member, 1, dt).table(n_steps)
            for step in range(n_steps):
                st = step_em(grid1d, model, StepperConfig(), st, dt, table[step],
                             rhs_fn=frozen)
            finals[member] = st.mom[0, 0]
        var_pred = n_steps * dt * 1.0
        se = var_pred * np.sqrt(2 / (members - 1))
        assert abs(finals.var(ddof=1) - var_pred) < 5 * se

    def test_floor_activation_counted(self, grid1d):
        model = ModelConfig(law=LAW)
        st = make_state(grid1d, np.ones(64), np.zeros((1, 64)))
        crash = lambda g, m, s: (np.full(g.sizes, -1e5), np.zeros((g.dim, *g.sizes)))
        from torusgas.dynamics import StepStats
        stats = StepStats()
        out = step_em(grid1d, model, StepperConfig(), st, 1e-4,
                      rhs_fn=crash, stats=stats)
        assert stats.floored_cells == 64
        assert stats.mass_correction > 0
        assert np.min(out.rho) == pytest.approx(1e-8)


class TestEnergyBehavior:
    def run_drift(self, dt, n):
        grid = Grid((128,))
        x = grid.coordinates()[0]
        model = ModelConfig(law=LAW)  # inviscid, deterministic
        st = make_state(grid, 1 + 0.1 * np.sin(x), np.zeros((1, 128)))
        e0 = energy_total(grid, LAW, st)
        for step in range(n):
            st = step_em(grid, model, StepperConfig(), st, dt)
        return abs(energy_total(grid, LAW, st) - e0)

    def test_energy_drift_halves_with_dt(self):
        # smooth inviscid runs conserve energy to O(dt): halving dt roughly
        # halves the drift
        d1 = self.run_drift(2e-3, 250)
        d2 = self.run_drift(1e-3, 500)
        assert 1.7 <= d1 / d2 <= 2.3

    def test_viscous_energy_nonincreasing(self):
        grid = Grid((128,))
        x = grid.coordinates()[0]
        model = ModelConfig(law=LAW, visc=Viscosity(1e-2))
        st = make_state(grid, 1 + 0.1 * np.sin(x), (0.05 * np.sin(2 * x))[None])
        dt = 2e-3
        e0 = energy_total(grid, LAW, st)
        energies = [e0]
        for step in range(400):
            st = step_em(grid, model, StepperConfig(), st, dt)
            energies.append(energy_total(grid, LAW, st))
        tol_rate = 5.0 * dt * e0
        for i in range(1, len(energies)):
            assert energies[i] - energies[i - 1] <= tol_rate * dt


def test_state_validation(grid1d):
    st = State(np.ones(64), np.zeros((1, 64)))
    st.validate(grid1d, rho_floor=0.5)
    with pytest.raises(SimulationError):
        State(np.full(64, 0.1), np.zeros((1, 64))).validate(grid1d, rho_floor=0.5)


def test_stepper_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(cfl=0.0)
    with pytest.raises(ValueError):
        StepperConfig(rho_floor=0.0)
    with pytest.raises(ValueError):
        StepperConfig(dt=-1.0)

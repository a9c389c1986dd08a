import numpy as np
import pytest

from torusgas import dynamics
from torusgas.constitutive import PressureLaw, Viscosity
from torusgas.dynamics import (FLOWS, ModelConfig, SimulationError, State,
                               StepperConfig, StepStats, cfl_dt, energy_total,
                               initial_flow, rhs_deterministic, step_em, taylor_green)
from torusgas.grid import FieldError, Grid, random_smooth_scalar, random_smooth_vector
from torusgas.noise import NoiseModel, WienerPath

from oracles import div_tensor


LAW = PressureLaw(1.0, 2.0)


def make_state(grid, rho, mom):
    return State(np.asarray(rho, dtype=float), np.asarray(mom, dtype=float))


def drift(grid, model, state, *dt_implicit):
    """The drift of ``state`` at its velocity ``m / rho``, as :func:`step_em` calls it."""
    return rhs_deterministic(grid, model, state, state.mom / state.rho[grid.comp(None)],
                             *dt_implicit)


class TestRHS:
    def test_equilibrium_is_fixed_point(self, grid1d):
        model = ModelConfig(law=LAW, visc=Viscosity(1e-2))
        st = make_state(grid1d, np.ones(64), np.zeros((1, 64)))
        drho, dmom, _ = drift(grid1d, model, st)
        assert np.max(np.abs(drho)) == 0.0
        assert np.max(np.abs(dmom)) < 1e-14

    def test_pure_acoustic_forcing(self, grid1d):
        # density bump at rest, inviscid: no mass flux, only pressure forcing
        model = ModelConfig(law=LAW)
        x = grid1d.coordinates()[0]
        rho = 1.0 + 0.2 * np.exp(np.cos(x)) / np.e
        st = make_state(grid1d, rho, np.zeros((1, 64)))
        drho, dmom, _ = drift(grid1d, model, st)
        assert np.max(np.abs(drho)) == 0.0
        expected = -grid1d.gradient(grid1d.dealias(LAW.a * rho**2))
        assert np.max(np.abs(dmom - expected)) < 1e-12

    def test_eps_scales_pressure_forcing(self, grid1d):
        x = grid1d.coordinates()[0]
        rho = 1.0 + 0.1 * np.sin(x)
        st = make_state(grid1d, rho, np.zeros((1, 64)))
        _, dm1, _ = drift(grid1d, ModelConfig(law=LAW, eps=1.0), st)
        _, dm2, _ = drift(grid1d, ModelConfig(law=LAW, eps=0.5), st)
        assert np.allclose(dm2, 4.0 * dm1, rtol=1e-12)

    def test_nonfinite_density_fails_the_step(self, grid1d):
        # the drift does not check finiteness; the step checks its update
        model = ModelConfig(law=LAW)
        rho = np.ones(64)
        rho[0] = np.nan
        st = make_state(grid1d, rho, np.zeros((1, 64)))
        _, dmom, _ = drift(grid1d, model, st)
        assert not np.isfinite(dmom).all()
        with pytest.raises(SimulationError) as err:
            step_em(grid1d, model, StepperConfig(), st, 1e-3)
        assert str(err.value) == "non-finite state after step 0 (t=0.0000)"
        assert err.value.member is None and err.value.state is st


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
        frozen = lambda g, m, s, u: (np.zeros(g.sizes), np.zeros((g.dim, *g.sizes)), None)
        out = step_em(grid1d, model, StepperConfig(), st, 1e-2,
                      WienerPath(1, 0, 1, 1e-2).increments(0), rhs_fn=frozen)
        assert np.array_equal(out.rho, st.rho)
        assert np.max(np.abs(out.mom)) > 0

    def test_zero_drift_random_walk_variance(self, grid1d):
        # Monte Carlo oracle: with the drift frozen, momentum performs a
        # Gaussian random walk with ensemble variance n dt |G|^2
        noise = NoiseModel(K=(1.0,), L=(0.0,))
        model = ModelConfig(law=LAW, noise=noise)
        frozen = lambda g, m, s, u: (np.zeros(g.sizes), np.zeros((g.dim, *g.sizes)), None)
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
        crash = lambda g, m, s, u: (np.full(g.sizes, -1e5), np.zeros((g.dim, *g.sizes)), None)
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
    # shapes and finite entries; the density floor is each command's entry check
    st = State(np.ones(64), np.zeros((1, 64)))
    assert st.validate(grid1d) is st
    with pytest.raises(FieldError, match="scalar shape"):
        State(np.ones(32), np.zeros((1, 64))).validate(grid1d)
    with pytest.raises(FieldError, match="non-finite"):
        State(np.ones(64), np.full((1, 64), np.inf)).validate(grid1d)


def test_stepper_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(cfl=0.0)
    with pytest.raises(ValueError):
        StepperConfig(rho_floor=0.0)


def member_batch(grid, members=4, seed=3):
    """Distinct smooth members; member 1 dips below the test floor of 0.95."""
    rng = np.random.default_rng(seed)
    rho = np.stack([1.0 + 0.02 * (m + 1) + 0.01 * random_smooth_scalar(grid, rng)
                    for m in range(members)])
    rho[1] = 1.0 + 0.2 * random_smooth_scalar(grid, rng)
    mom = np.stack([0.1 * random_smooth_vector(grid, rng) for _ in range(members)])
    return State(rho, mom, 0.25)


BATCH_MODEL = ModelConfig(law=LAW, visc=Viscosity(1e-2, 5e-3),
                          noise=NoiseModel(K=(0.1, 0.2, 0.0), L=(0.05, -0.02, 0.1)))


class TestBatch:
    """A member batch steps bit for bit like its members stepped one by one."""

    @pytest.mark.parametrize("sizes", [(32,), (16, 16)])
    def test_rhs_step_and_stats_match_member_loop(self, sizes):
        grid = Grid(sizes)
        batch = member_batch(grid)
        members = len(batch.rho)
        stepper = StepperConfig(rho_floor=0.95)
        dt = 1e-3
        dW = np.stack([WienerPath(5, m, BATCH_MODEL.modes, dt).increments(0)
                       for m in range(members)])

        drho, dmom, _ = drift(grid, BATCH_MODEL, batch)
        stats = StepStats(np.zeros(members, dtype=np.int64), np.zeros(members))
        out = step_em(grid, BATCH_MODEL, stepper, batch, dt, dW, stats=stats)
        for m in range(members):
            single = batch.rows(m)
            d1, d2, _ = drift(grid, BATCH_MODEL, single)
            np.testing.assert_array_equal(drho[m], d1)
            np.testing.assert_array_equal(dmom[m], d2)
            one = StepStats()
            st = step_em(grid, BATCH_MODEL, stepper, single, dt, dW[m], stats=one)
            np.testing.assert_array_equal(out.rho[m], st.rho)
            np.testing.assert_array_equal(out.mom[m], st.mom)
            assert out.t == st.t
            assert stats.floored_cells[m] == one.floored_cells
            assert stats.mass_correction[m] == one.mass_correction
            assert energy_total(grid, LAW, out)[m] == energy_total(grid, LAW, st)
        assert stats.floored_cells[1] > 0 and stats.floored_cells[0] == 0
        assert cfl_dt(grid, BATCH_MODEL, batch, stepper) == min(
            cfl_dt(grid, BATCH_MODEL, batch.rows(m), stepper) for m in range(members))

    @pytest.mark.parametrize("sizes", [(32,), (16, 16)])
    def test_semi_implicit_step_matches_member_loop(self, sizes):
        grid = Grid(sizes)
        batch = member_batch(grid)
        stepper = StepperConfig(semi_implicit=True)
        dt = 5e-3
        dW = np.stack([WienerPath(5, m, BATCH_MODEL.modes, dt).increments(0)
                       for m in range(len(batch.rho))])
        out = step_em(grid, BATCH_MODEL, stepper, batch, dt, dW)
        for m in range(len(batch.rho)):
            st = step_em(grid, BATCH_MODEL, stepper, batch.rows(m), dt, dW[m])
            np.testing.assert_array_equal(out.rho[m], st.rho)
            np.testing.assert_array_equal(out.mom[m], st.mom)

    def test_cfl_violation_names_fastest_member(self, grid1d):
        batch = member_batch(grid1d)
        batch.mom[2] *= 40.0
        with pytest.raises(SimulationError, match="member 2: CFL violation") as err:
            step_em(grid1d, BATCH_MODEL, StepperConfig(), batch, 0.02)
        assert err.value.member == 2
        np.testing.assert_array_equal(err.value.state.mom, batch.mom[2])

    @pytest.mark.parametrize("semi_implicit", [False, True], ids=["explicit", "imex"])
    def test_nonfinite_density_update_fails(self, grid1d, semi_implicit):
        # the unfloored update is checked once, in either scheme: a -inf
        # density is not floored away; the failure names the member and the
        # step, and carries the member's state at the start of the step
        batch = member_batch(grid1d)
        batch.t = 0.003

        def sinks(grid, model, state, u, *dt_implicit):
            out = rhs_deterministic(grid, model, state, u, *dt_implicit)
            if semi_implicit:  # member 2's momentum tendency, so its density update
                out[2][2, 0, 3] = -np.inf
            else:  # member 2's density tendency
                out[0][2, 5] = -np.inf
            return out

        stepper = StepperConfig(semi_implicit=semi_implicit)
        with pytest.raises(SimulationError) as err, np.errstate(invalid="ignore"):
            step_em(grid1d, BATCH_MODEL, stepper, batch, 1e-3, rhs_fn=sinks)
        assert str(err.value) == "member 2: non-finite state after step 3 (t=0.0030)"
        assert err.value.member == 2 and err.value.state.t == batch.t
        np.testing.assert_array_equal(err.value.state.rho, batch.rho[2])
        np.testing.assert_array_equal(err.value.state.mom, batch.mom[2])

    def test_nonfinite_names_first_bad_member(self, grid1d):
        batch = member_batch(grid1d)

        def blow_up(grid, model, state, u):
            drho = np.zeros_like(state.rho)
            drho[3, 5] = np.nan
            drho[2, 7] = np.inf
            return drho, np.zeros_like(state.mom), None

        with pytest.raises(SimulationError, match="member 2: non-finite") as err:
            step_em(grid1d, BATCH_MODEL, StepperConfig(), batch, 1e-3, rhs_fn=blow_up)
        np.testing.assert_array_equal(err.value.state.rho, batch.rho[2])  # the start state


class TestFusedDrift:
    @pytest.mark.parametrize("sizes", [(32,), (16, 16)])
    def test_matches_composed_operators(self, sizes):
        # oracle: the drift assembled from the grid's calculus operators
        grid = Grid(sizes)
        st = member_batch(grid)
        visc = BATCH_MODEL.visc
        c = -grid.dim - 1
        u = st.mom / np.expand_dims(st.rho, c)
        flux = np.expand_dims(st.mom, c) * np.expand_dims(u, c - 1)
        p = LAW.a * st.rho ** LAW.gamma
        expected = (-div_tensor(grid, flux, dealias=True) - grid.gradient(grid.dealias(p))
                    + grid.viscous_operator(grid.dealias(u), visc.nu, visc.eta(grid.dim)))
        drho, dmom, _ = drift(grid, BATCH_MODEL, st)
        np.testing.assert_allclose(drho, -grid.divergence(st.mom), rtol=0, atol=1e-13)
        np.testing.assert_allclose(dmom, expected, rtol=0,
                                   atol=1e-12 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("sizes, most", [((32,), 6), ((16, 16), 12)])
    def test_transform_count(self, sizes, most, monkeypatch):
        grid = Grid(sizes)
        batch = member_batch(grid)
        calls = []
        for name in ("fwd", "bwd"):
            def counted(self, f, _orig=getattr(Grid, name)):
                calls.append(f.shape)
                return _orig(self, f)
            monkeypatch.setattr(Grid, name, counted)
        drift(grid, BATCH_MODEL, batch)
        explicit = len(calls)
        # the semi-implicit step, viscous filter, kick and acoustics included,
        # makes no transform beyond the explicit drift's
        calls.clear()
        dW = np.full((len(batch.rho), BATCH_MODEL.modes), 0.01)
        step_em(grid, BATCH_MODEL, StepperConfig(semi_implicit=True), batch, 1e-3, dW)
        if grid.dim == 1:
            assert explicit == len(calls) == most
        assert explicit <= most and len(calls) <= most

    @pytest.mark.parametrize("dt,violates", [(1e-4, False), (0.02, True)],
                             ids=["passes", "cfl-violation"])
    def test_one_signal_speed_per_step(self, dt, violates, monkeypatch):
        # the step forms m / rho and its signal speed once: the CFL bound and
        # a failure's fastest member come from the same array
        grid = Grid((32,))
        batch = member_batch(grid)
        batch.mom[2] *= 40.0
        assert (dt > cfl_dt(grid, BATCH_MODEL, batch)) == violates
        calls = []

        def counted(*args, _orig=dynamics._signal_speed):
            calls.append(args)
            return _orig(*args)

        monkeypatch.setattr(dynamics, "_signal_speed", counted)
        if violates:
            with pytest.raises(SimulationError, match="member 2: CFL violation"):
                step_em(grid, BATCH_MODEL, StepperConfig(), batch, dt)
        else:
            step_em(grid, BATCH_MODEL, StepperConfig(), batch, dt)
        assert len(calls) == 1


class TestSemiImplicit:
    """The limit sweep's step: implicit viscosity and Crank-Nicolson acoustics."""

    SEMI = StepperConfig(semi_implicit=True)

    @staticmethod
    def acoustic_wave(grid, amp):
        """A small wave on the (2, 1) Fourier mode, density and momentum out of phase."""
        x, y = grid.coordinates()
        phase = 2 * x + y
        return State(1.0 + amp * np.cos(phase),
                     np.stack([2 * amp * np.sin(phase), amp * np.cos(phase)]))

    @staticmethod
    def acoustic_energy(grid, state, c2):
        """``sum |m^|^2 + c0^2 |rho^|^2`` over the nonzero modes."""
        rho_h, mom_h = grid.fwd(state.rho - 1.0), grid.fwd(state.mom)
        rho_h.flat[0] = 0.0
        return np.sum(np.abs(mom_h) ** 2) + c2 * np.sum(np.abs(rho_h) ** 2)

    def test_linear_acoustics_keep_their_energy(self):
        # theta = 1/2 with the explicit remainder set to zero (the pressure
        # linear, c0^2 rho), no viscosity and no noise is Crank-Nicolson on
        # the linear acoustics, here at 4x the explicit acoustic bound
        grid = Grid((16, 16))
        model = ModelConfig(law=LAW, eps=0.1)
        c2 = LAW.a * LAW.gamma / model.eps**2

        def linear(grid, model, state, u, dt):
            rho_h, mom_h = grid.fwd(state.rho), grid.fwd(state.mom)
            return rho_h, mom_h, np.stack([-c2 * ik * rho_h for ik in grid.ik])

        st = self.acoustic_wave(grid, 1e-3)
        e0 = self.acoustic_energy(grid, st, c2)
        dt = 0.05
        assert dt > 4 * cfl_dt(grid, model, st)
        for _ in range(40):
            st = step_em(grid, model, self.SEMI, st, dt, rhs_fn=linear)
        assert self.acoustic_energy(grid, st, c2) == pytest.approx(e0, rel=1e-12)
        assert st.rho.mean() == pytest.approx(1.0, abs=1e-15)

    def test_small_acoustic_mode_keeps_energy_explicit_grows(self):
        # the full inviscid step at half the explicit acoustic bound: the
        # explicit update amplifies the mode by |1 + i c k dt| each step
        grid = Grid((16, 16))
        model = ModelConfig(law=LAW, eps=0.25)
        c2 = LAW.a * LAW.gamma / model.eps**2
        start = self.acoustic_wave(grid, 1e-4)
        dt = 0.5 * cfl_dt(grid, model, start)
        explicit, semi = start, start
        for _ in range(64):
            explicit = step_em(grid, model, StepperConfig(), explicit, dt)
            semi = step_em(grid, model, self.SEMI, semi, dt)
        e0 = self.acoustic_energy(grid, start, c2)
        assert self.acoustic_energy(grid, explicit, c2) > 5.0 * e0
        assert self.acoustic_energy(grid, semi, c2) == pytest.approx(e0, rel=1e-6)

    @pytest.mark.parametrize("sizes", [(32,), (16, 16)])
    def test_tendency_solves_the_implicit_system(self, sizes):
        # oracle: d - dt (A lap d + B grad div d) is the explicit tendency,
        # with A = nu max(1/rho) and B = eta max(1/rho) for each member
        grid = Grid(sizes)
        batch = member_batch(grid)
        visc, dt = BATCH_MODEL.visc, 0.05
        _, explicit, _ = drift(grid, BATCH_MODEL, batch)
        semi = grid.bwd(drift(grid, BATCH_MODEL, batch, dt)[2])
        for m in range(len(batch.rho)):
            inv_rho = 1.0 / np.min(batch.rho[m])
            implicit = grid.viscous_operator(semi[m], visc.nu * inv_rho,
                                             visc.eta(grid.dim) * inv_rho)
            np.testing.assert_allclose(semi[m] - dt * implicit, explicit[m], rtol=0,
                                       atol=1e-12 * np.max(np.abs(explicit[m])))
        assert np.max(np.abs(semi - explicit)) > 1e-3 * np.max(np.abs(explicit))

    def test_high_mode_decays_beyond_explicit_bound(self):
        # a k = 10 momentum mode, half transverse and half longitudinal, at
        # 8x the explicit diffusive step: the explicit update amplifies it,
        # the semi-implicit one damps it every step
        grid = Grid((32, 32))
        x, y = grid.coordinates()
        model = ModelConfig(law=LAW, visc=Viscosity(1.0, 1.0))
        amp = 1e-3
        st = State(np.ones(grid.sizes), np.stack([amp * (np.sin(10 * y) + np.sin(10 * x)),
                                                  np.zeros(grid.sizes)]))
        h = min(grid.spacings)
        dt = 8 * StepperConfig().cfl * h * h / 4.0
        assert cfl_dt(grid, model, st) < dt <= cfl_dt(grid, model, st, self.SEMI)
        # at rho = 1 the explicit remainder has no sound speed: |u| sets the bound
        advective = StepperConfig().cfl * h / np.max(np.sqrt(np.sum(st.mom**2, axis=0)))
        assert cfl_dt(grid, model, st, self.SEMI) == pytest.approx(advective, rel=1e-12)
        with pytest.raises(SimulationError, match="CFL"):
            step_em(grid, model, StepperConfig(), st, dt)
        _, dmom, _ = drift(grid, model, st)
        assert np.max(np.abs(st.mom + dt * dmom)) > 2 * amp
        sizes, ratios, stats = [np.max(np.abs(st.mom))], [], StepStats()
        for _ in range(10):
            ratios.append(dt / cfl_dt(grid, model, st, self.SEMI))
            st = step_em(grid, model, self.SEMI, st, dt, stats=stats)
            sizes.append(np.max(np.abs(st.mom)))
        assert np.all(np.diff(sizes) < 0)
        assert sizes[-1] < 0.05 * sizes[0]
        assert stats.cfl_ratio == max(ratios)
        # the remainder's bound still holds
        with pytest.raises(SimulationError, match="CFL"):
            step_em(grid, model, self.SEMI, st, 2 * cfl_dt(grid, model, st, self.SEMI))

    def test_first_order_gap_to_explicit(self):
        # both steps are first order, so their gap over a fixed horizon
        # roughly halves with dt
        grid = Grid((16, 16))
        model = ModelConfig(law=LAW, visc=Viscosity(0.05, 0.05))
        start = member_batch(grid).rows(1)  # the member with 20% density variation

        def gap(n):
            dt = 0.2 / n
            ex, si = start, start
            for _ in range(n):
                ex = step_em(grid, model, StepperConfig(), ex, dt)
                si = step_em(grid, model, self.SEMI, si, dt)
            return np.max(np.abs(si.mom - ex.mom))

        g1, g2, g3 = gap(16), gap(32), gap(64)
        assert g1 > g2 > g3 > 0
        assert 1.6 <= g1 / g2 <= 2.4
        assert 1.6 <= g2 / g3 <= 2.4


class TestInitialFlow:
    # every flow on a 1-D and a 2-D grid; taylor_green only on the 2-D one
    @pytest.mark.parametrize("kind,sizes", [(kind, sizes) for kind in FLOWS
                                            for sizes in ((16,), (16, 16))
                                            if kind != "taylor_green" or len(sizes) == 2])
    def test_every_flow_builds_a_state(self, kind, sizes):
        grid = Grid(sizes)
        state = initial_flow(grid, kind, 0.3).validate(grid)
        assert state.rho.shape == grid.sizes and state.mom.shape == (grid.dim, *grid.sizes)
        assert np.min(state.rho) > 0 and state.t == 0.0
        # at amplitude 0 every flow is the fluid at rest
        rest = initial_flow(grid, kind, 0.0)
        assert np.all(rest.rho == 1.0) and np.all(rest.mom == 0.0)

    def test_unknown_flow_lists_the_names(self, grid1d):
        with pytest.raises(FieldError, match="unknown flow 'vortex'.*constant.*taylor_green"):
            initial_flow(grid1d, "vortex")

    def test_zero_is_constant(self, grid2d):
        zero, constant = initial_flow(grid2d, "zero"), initial_flow(grid2d, "constant")
        assert np.array_equal(zero.rho, constant.rho) and np.array_equal(zero.mom, constant.mom)

    def test_taylor_green_flow_is_the_vortex(self, grid2d):
        state = initial_flow(grid2d, "taylor_green", 0.5)
        assert np.all(state.rho == 1.0)
        assert np.array_equal(state.mom, 0.5 * taylor_green(grid2d))


def test_taylor_green_needs_2d(grid1d):
    for grid in (grid1d, Grid((8, 8, 8))):
        with pytest.raises(FieldError, match="taylor_green needs a 2-D grid"):
            taylor_green(grid)
        with pytest.raises(FieldError, match="taylor_green needs a 2-D grid"):
            initial_flow(grid, "taylor_green")

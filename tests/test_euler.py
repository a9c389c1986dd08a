import numpy as np
import pytest

from torusgas.dynamics import SimulationError, StepStats, step_label, taylor_green
from torusgas.euler import (DIV_TOL, _divergence_bound, advection, euler_cfl_dt, make_state,
                            pressure_from_projection, step_em_euler)
from torusgas.grid import Grid, grad_inf_norm, random_smooth_vector, random_solenoidal
from torusgas.noise import NoiseModel, WienerPath


def _physical_step(grid, noise, v, dt, dW=None):
    """Oracle: one Euler-Maruyama step of the physical velocity ``v``.

    Projects the dealiased advection, adds the compressible momentum kick at
    unit density and projects again, with every operator applied in physical
    space.
    """
    drift = -grid.helmholtz_project(advection(grid, v))
    v_new = v + dt * drift
    if noise is not None and noise.modes and dW is not None:
        ones = np.ones_like(v[grid.comp(0)])
        v_new = v_new + noise.momentum_kick(grid, ones, v, dW)
    return grid.helmholtz_project(v_new)


def kinetic_energy(grid, v):
    return 0.5 * grid.integrate(np.sum(v * v, axis=0))


class TestPressure:
    def test_constant_velocity_zero_pressure(self, grid2d):
        v = np.zeros((2, *grid2d.sizes))
        v[0], v[1] = 0.7, -0.2
        assert np.max(np.abs(pressure_from_projection(grid2d, v))) < 1e-14

    def test_taylor_green_closed_form(self, grid2d):
        # derived via the defining identity grad(pi) = P_H[(v.grad)v] - (v.grad)v:
        # for v = (sin x cos y, -cos x sin y) the advection is grad(phi) with
        # phi = -(cos 2x + cos 2y)/4, so pi = -phi = +(cos 2x + cos 2y)/4
        v = taylor_green(grid2d)
        pi = pressure_from_projection(grid2d, v)
        X, Y = grid2d.coordinates()
        assert np.max(np.abs(pi - (np.cos(2 * X) + np.cos(2 * Y)) / 4)) < 1e-12

    def test_defining_identity_on_random_fields(self, grid2d, rng):
        for _ in range(3):
            v = random_solenoidal(grid2d, rng, kmax=5)
            pi = pressure_from_projection(grid2d, v)
            adv = advection(grid2d, v)
            residual = grid2d.gradient(pi) - (grid2d.helmholtz_project(adv) - adv)
            assert np.max(np.abs(residual)) < 1e-10
            assert abs(np.mean(pi)) < 1e-14


class TestStepping:
    def test_taylor_green_stationary(self):
        # TG is an exact steady Euler solution; on 128^2 the numerical drift
        # over t in [0, 1] must stay below 1e-6
        grid = Grid((128, 128))
        v0 = taylor_green(grid)
        state = make_state(grid, v0)
        dt = 0.01
        for step in range(100):
            state = step_em_euler(grid, NoiseModel(), state, dt)
        assert np.max(np.abs(state.v - v0)) < 1e-6

    def test_zero_stays_zero(self, grid2d):
        state = make_state(grid2d, np.zeros((2, *grid2d.sizes)))
        for step in range(5):
            state = step_em_euler(grid2d, NoiseModel(), state, 0.05)
        assert np.max(np.abs(state.v)) == 0.0

    def test_divergence_preserved(self, grid2d, rng):
        state = make_state(grid2d, random_solenoidal(grid2d, rng, kmax=4))
        dt = 0.5 * euler_cfl_dt(grid2d, state)
        for step in range(20):
            state = step_em_euler(grid2d, NoiseModel(), state, dt)
            assert np.max(np.abs(grid2d.divergence(state.v))) < 1e-10

    def test_constant_forcing_random_drift(self):
        # Monte Carlo oracle: with K-only noise and zero initial data the
        # velocity is the spatially constant walk sum_k K_k e_k W_k(t) with
        # variance sum K_k^2 t
        grid = Grid((8, 8))
        noise = NoiseModel(K=(0.3,), L=(0.0,))
        n_paths, n_steps, dt = 2000, 10, 0.02
        table = np.stack([WienerPath(5, member, 1, dt).table(n_steps)
                          for member in range(n_paths)])
        state = make_state(grid, np.zeros((n_paths, 2, 8, 8)))  # one batch
        for step in range(n_steps):
            state = step_em_euler(grid, noise, state, dt, table[:, step])
        # each path's field is spatially constant; take one sample point
        assert np.max(np.abs(state.v[:, 0] - state.v[:, 0, :1, :1])) < 1e-12
        finals = state.v[:, 0, 0, 0]
        var_pred = 0.09 * n_steps * dt
        se = var_pred * np.sqrt(2.0 / (n_paths - 1))
        assert abs(finals.var(ddof=1) - var_pred) < 5 * se

    def test_zero_noise_energy_drift_halves(self, rng):
        grid = Grid((32, 32))
        v0 = random_solenoidal(grid, rng, kmax=3)

        def drift(dt, n):
            state = make_state(grid, v0)
            e0 = kinetic_energy(grid, state.v)
            for step in range(n):
                state = step_em_euler(grid, NoiseModel(), state, dt)
            return abs(kinetic_energy(grid, state.v) - e0)

        ratio = drift(4e-3, 125) / drift(2e-3, 250)
        assert 1.5 <= ratio <= 2.5

    @pytest.mark.parametrize("sizes, noise", [
        ((32, 32), NoiseModel(K=(0.1, 0.2, 0.3), L=(0.05, -0.1, 0.02))),
        ((64,), NoiseModel(K=(0.3,), L=(0.2,))),
        ((32, 32), NoiseModel()),
    ], ids=["2d-noisy", "1d-noisy", "2d-no-modes"])
    def test_matches_physical_step(self, sizes, noise, rng):
        # the spectral step agrees with the physical-space oracle over 48
        # steps to 1e-12 of the velocity's sup-norm
        grid = Grid(sizes)
        v = grid.helmholtz_project(np.stack([random_smooth_vector(grid, rng, kmax=4)
                                             for _ in range(3)]))
        state = make_state(grid, v)
        dt = 0.01
        table = np.stack([WienerPath(5, m, noise.modes, dt).table(48) for m in range(3)])
        for step in range(48):
            state = step_em_euler(grid, noise, state, dt, table[:, step])
            v = _physical_step(grid, noise, v, dt, table[:, step])
        assert np.max(np.abs(v)) > 0.0
        assert np.max(np.abs(state.v - v)) <= 1e-12 * np.max(np.abs(v))
        assert np.max(np.abs(state.v - grid.bwd(state.vh))) <= 1e-14 * np.max(np.abs(v))

    def test_divergence_bound_dominates(self, grid2d, rng):
        # the coefficient audit bounds sup |div v| from above, and reads
        # roundoff on a projected field
        v = random_smooth_vector(grid2d, rng, kmax=4)
        bound = _divergence_bound(grid2d, grid2d.fwd(v))
        assert bound >= np.max(np.abs(grid2d.divergence(v))) > 0.1
        assert _divergence_bound(grid2d, make_state(grid2d, v).vh) < 1e-3 * DIV_TOL

    def test_divergence_audit_raises(self, grid2d, monkeypatch):
        # a compressive spectrum that the (disabled) projection lets through
        X, _ = grid2d.coordinates()
        state = make_state(grid2d, np.zeros((2, *grid2d.sizes)))
        state.vh[0] = grid2d.fwd(np.sin(X))
        monkeypatch.setattr(grid2d, "leray", lambda vh: vh)
        with pytest.raises(SimulationError, match="^divergence grew") as err:
            step_em_euler(grid2d, NoiseModel(), state, 1e-3)
        assert err.value.member is None and err.value.state is state

    @pytest.mark.parametrize("members", [None, 3])
    def test_non_finite_increment_raises(self, members):
        # a NaN increment makes a NaN spectrum, which fails the audit as a
        # non-finite flow, for one state and for a batch, where it names the
        # first non-finite member and carries its state at the step's start
        grid = Grid((16, 16))
        v = taylor_green(grid)
        if members is None:
            state, dW = make_state(grid, v, t=0.05), np.array([np.nan])
        else:
            state = make_state(grid, np.stack([v] * members), t=0.05)
            dW = np.array([[0.01], [np.nan], [np.nan]])
        with pytest.raises(SimulationError) as err:
            step_em_euler(grid, NoiseModel(K=(0.1,), L=(0.05,)), state, 0.01, dW)
        name = "" if members is None else "member 1: "
        assert str(err.value) == name + "non-finite flow at step 5 (t=0.0500)"
        if members is not None:
            np.testing.assert_array_equal(err.value.state.vh, state.vh[1])
            np.testing.assert_array_equal(err.value.state.fields, state.fields[:, 1])

    def test_cfl_bound_checked_and_recorded(self, rng):
        # the step checks its own advective bound and records dt over it;
        # beyond it, it names the fastest member and carries its state
        grid = Grid((16, 16))
        state = make_state(grid, np.stack([random_solenoidal(grid, rng, kmax=3) * s
                                           for s in (1.0, 3.0, 2.0)]), t=0.02)
        bound = euler_cfl_dt(grid, state, cfl=0.5)
        stats = StepStats()
        step_em_euler(grid, NoiseModel(), state, 0.5 * bound, cfl=0.5, stats=stats)
        assert stats.cfl_ratio == 0.5
        dt = 2 * bound
        with pytest.raises(SimulationError) as err:
            step_em_euler(grid, NoiseModel(), state, dt, cfl=0.5)
        assert err.value.member == 1
        assert str(err.value) == (f"member 1: CFL violation: dt={dt:.3e} exceeds bound "
                                  f"{bound:.3e} at {step_label(0.02, dt)}")
        np.testing.assert_array_equal(err.value.state.vh, state.vh[1])

    def test_projection_order_agrees(self, grid2d, rng):
        # projecting the drift before stepping equals projecting after
        v = random_solenoidal(grid2d, rng, kmax=4)
        adv = advection(grid2d, v)
        dt = 1e-2
        after = grid2d.helmholtz_project(v - dt * adv)
        before = v - dt * grid2d.helmholtz_project(adv)
        assert np.max(np.abs(after - before)) < 1e-12


class TestBatch:
    """A member batch steps each row exactly as that member alone."""

    NOISE = NoiseModel(K=(0.1, 0.2), L=(0.05, -0.1))

    @staticmethod
    def batch(grid, rng, members=3):
        v = np.stack([random_solenoidal(grid, rng, kmax=4) for _ in range(members)])
        return make_state(grid, v)

    def test_step_matches_member_loop(self, rng):
        grid = Grid((32, 32))
        state = self.batch(grid, rng)
        singles = [state.rows(m) for m in range(3)]
        dt = 0.5 * euler_cfl_dt(grid, state)
        table = np.stack([WienerPath(5, m, self.NOISE.modes, dt).table(10)
                          for m in range(3)])
        for step in range(10):
            state = step_em_euler(grid, self.NOISE, state, dt, table[:, step])
            singles = [step_em_euler(grid, self.NOISE, s, dt, table[m, step])
                       for m, s in enumerate(singles)]
        for m, single in enumerate(singles):
            assert np.array_equal(state.vh[m], single.vh)
            assert np.array_equal(state.fields[:, m], single.fields)
        assert state.t == singles[0].t

    def test_grad_inf_and_cfl_per_member(self, rng):
        grid = Grid((32, 32))
        state = self.batch(grid, rng)
        per_member = [grad_inf_norm(grid, v) for v in state.v]
        assert np.array_equal(grad_inf_norm(grid, state.v), per_member)
        assert isinstance(per_member[0], float)
        # the state's own gradient fields: one value per member, or a float
        np.testing.assert_allclose(state.grad_inf, per_member, rtol=1e-12)
        assert state.grad_inf[1] == state.rows(1).grad_inf
        assert isinstance(state.rows(1).grad_inf, float)
        assert euler_cfl_dt(grid, state) == min(
            euler_cfl_dt(grid, state.rows(m)) for m in range(3))

    def test_broadcast_velocity_makes_a_contiguous_march(self):
        # the sweep builds its reference from one velocity broadcast over the
        # members; the state and every later one are C-ordered all the same
        grid = Grid((16, 16))
        v0 = taylor_green(grid)
        state = make_state(grid, np.broadcast_to(v0, (3, *v0.shape)))
        assert np.array_equal(state.v, np.stack([make_state(grid, v0).v] * 3))
        for _ in range(2):
            assert state.vh.flags.c_contiguous and state.fields.flags.c_contiguous
            state = step_em_euler(grid, self.NOISE, state, 0.01, np.full((3, 2), 0.01))

    def test_transform_count(self, rng, monkeypatch):
        grid = Grid((16, 16))
        state = self.batch(grid, rng)
        dW = np.full((3, self.NOISE.modes), 0.01)
        calls = []
        for name in ("fwd", "bwd"):
            def counted(self, f, _orig=getattr(Grid, name)):
                calls.append(f.shape)
                return _orig(self, f)
            monkeypatch.setattr(Grid, name, counted)
        step_em_euler(grid, self.NOISE, state.rows(0), 0.01, dW[0])
        single = list(calls)
        calls.clear()
        step_em_euler(grid, self.NOISE, state, 0.01, dW)
        # one forward call on the advection, one inverse call on v and d_j v
        assert len(calls) == len(single) == 2
        assert calls[1][:3] == (1 + grid.dim, 3, grid.dim)


class TestStoppingTime:
    def test_taylor_green_thresholds(self, grid2d):
        # TG has velocity-gradient sup exactly 1, the quantity the sweep and
        # weak-strong stopping times compare against their threshold
        v = taylor_green(grid2d)
        assert grad_inf_norm(grid2d, v) == pytest.approx(1.0, abs=1e-12)


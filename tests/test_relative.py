import dataclasses
import threading

import numpy as np
import pytest

from torusgas.constitutive import (PressureLaw, Viscosity,
                                   potential_delta_prime, potential_delta_second,
                                   potential_delta_third, pressure_delta,
                                   pressure_delta_second, stress)
from torusgas import ensemble, relative
from torusgas.dynamics import ModelConfig, SimulationError, State, StepperConfig
from torusgas.ensemble import EmpiricalYoungMeasure
from torusgas.grid import Grid
from torusgas.noise import NoiseModel
from torusgas.relative import (REMAINDER_TERMS, RefDecomps, WeakStrongConfig,
                               fit_exponential, gronwall_check, reference_decomps, relative_energy,
                               relative_energy_state, remainder,
                               weak_strong_experiment)

from oracles import build_ym

LAW = PressureLaw(1.0, 2.0)


def random_ym(grid, members, rng):
    rho = rng.uniform(0.4, 2.2, (members, *grid.sizes))
    mom = rng.normal(0.0, 0.7, (members, grid.dim, *grid.sizes))
    return EmpiricalYoungMeasure(grid, rho, mom)


class TestRelativeEnergy:
    def test_perfect_match_is_zero(self, grid1d, rng):
        r = rng.uniform(0.5, 2.0, grid1d.sizes)
        U = rng.normal(0.0, 0.5, (1, *grid1d.sizes))
        ym = build_ym(grid1d, [State(r.copy(), r * U)])
        assert relative_energy(grid1d, LAW, ym, 0.0, r, U) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self, grid1d):
        # Dirac at (2, 2 e1) against (1, 0): per-cell 1 + H(2,1) = 2, total 4 pi
        ym = build_ym(grid1d, [State(np.full(64, 2.0), np.full((1, 64), 2.0))])
        val = relative_energy(grid1d, LAW, ym, 0.0, np.ones(64), np.zeros((1, 64)))
        assert val == pytest.approx(4 * np.pi, rel=1e-12)

    def test_forms_agree_on_random_inputs(self, grid1d, rng):
        # algebraic-identity oracle: five-term vs regrouped evaluation
        for members in (1, 4):
            ym = random_ym(grid1d, members, rng)
            r = rng.uniform(0.5, 2.0, grid1d.sizes)
            U = rng.normal(0.0, 0.5, (1, *grid1d.sizes))
            D = float(rng.uniform(0, 0.5))
            a = relative_energy(grid1d, LAW, ym, D, r, U, form="regrouped")
            b = relative_energy(grid1d, LAW, ym, D, r, U, form="five_term")
            assert a == pytest.approx(b, rel=1e-10, abs=1e-10)
            assert a >= 0

    def test_with_artificial_pressure(self, grid1d, rng):
        law = PressureLaw(1.0, 2.0, 0.1, 6.0)
        ym = random_ym(grid1d, 3, rng)
        r = rng.uniform(0.5, 2.0, grid1d.sizes)
        U = rng.normal(0.0, 0.5, (1, *grid1d.sizes))
        a = relative_energy(grid1d, law, ym, 0.0, r, U, form="regrouped")
        b = relative_energy(grid1d, law, ym, 0.0, r, U, form="five_term")
        assert a == pytest.approx(b, rel=1e-10)

    def test_zero_iff_match(self, grid1d, rng):
        r = rng.uniform(0.5, 2.0, grid1d.sizes)
        U = rng.normal(0.0, 0.5, (1, *grid1d.sizes))
        mismatch = build_ym(grid1d, [State(r + 0.1, r * U)])
        assert relative_energy(grid1d, LAW, mismatch, 0.0, r, U) > 1e-3
        assert relative_energy(grid1d, LAW, build_ym(grid1d, [State(r.copy(), r * U)]),
                               0.5, r, U) == pytest.approx(0.5)

    def test_rejects_nonpositive_reference(self, grid1d, rng):
        ym = random_ym(grid1d, 2, rng)
        with pytest.raises(ValueError, match="reference density must be positive"):
            relative_energy(grid1d, LAW, ym, 0.0, np.zeros(grid1d.sizes),
                            np.zeros((1, *grid1d.sizes)))

    def test_state_fast_path_matches(self, grid1d, rng):
        st = State(rng.uniform(0.5, 2.0, 64), rng.normal(0, 0.5, (1, 64)))
        r = rng.uniform(0.5, 2.0, 64)
        U = rng.normal(0, 0.5, (1, 64))
        a = relative_energy_state(grid1d, LAW, st, r, U)
        b = relative_energy(grid1d, LAW, build_ym(grid1d, [st]), 0.0, r, U)
        assert a == pytest.approx(b, rel=1e-13)


def atom_mean(grid, model, ym, r, U, dec, **defects):
    """Remainder of an empirical measure: the atom mean of its Dirac remainders."""
    terms = remainder(grid, model, ym.rho_atoms, ym.mom_atoms, r, U, dec, **defects)
    return {name: float(np.mean(value)) for name, value in terms.items()}


def brute_force_remainder(grid, model, ym, r, U, dec):
    """Independent quadrature oracle: per-cell loops over the displayed terms."""
    law = model.law_eff
    vol = grid.cell_volume
    n = grid.n_cells
    dim = grid.dim
    M = ym.n_atoms
    rho = ym.rho_atoms.reshape(M, n)
    mom = ym.mom_atoms.reshape(M, dim, n)
    r_f = r.reshape(n)
    U_f = U.reshape(dim, n)
    grad_U = grid.gradient_vector(U).reshape(dim, dim, n)
    div_U = np.trace(grid.gradient_vector(U), axis1=0, axis2=1).reshape(n)
    u_mean_field = np.mean(ym.mom_atoms / ym.rho_atoms[:, None], axis=0)
    grad_umean = grid.gradient_vector(u_mean_field).reshape(dim, dim, n)
    ddr = dec.ddr.reshape(n)
    ddU = dec.ddU.reshape(dim, n)
    grad_Pp = grid.gradient(potential_delta_prime(law, r)).reshape(dim, n)
    terms = dict.fromkeys(REMAINDER_TERMS, 0.0)
    S_U = (stress(model.visc, grid.gradient_vector(U)).reshape(dim, dim, n)
           if model.visc else np.zeros((dim, dim, n)))
    modes = model.modes
    gk_atoms = np.zeros((modes, M, dim, n))
    for k in range(modes):
        for i in range(M):
            gk_atoms[k, i] = model.noise.apply_mode(
                k, grid, rho[i].reshape(grid.sizes),
                mom[i].reshape(dim, *grid.sizes)).reshape(dim, n)
    dsU = dec.dsU.reshape(modes, dim, n) if modes else np.zeros((0, dim, n))
    dsr = dec.dsr.reshape(modes, n) if modes else np.zeros((0, n))
    for c in range(n):
        b_rho = np.mean([rho[i, c] for i in range(M)])
        b_mom = np.array([np.mean([mom[i, d, c] for i in range(M)]) for d in range(dim)])
        for a_ in range(dim):
            for b_ in range(dim):
                terms["stress_gap"] += vol * S_U[a_, b_, c] * (
                    grad_U[a_, b_, c] - grad_umean[a_, b_, c])
        conv = np.array([sum(U_f[j, c] * grad_U[i_, j, c] for j in range(dim))
                         for i_ in range(dim)])
        for d in range(dim):
            terms["momentum_drift"] += vol * (b_rho * U_f[d, c] - b_mom[d]) * (
                ddU[d, c] + conv[d])
        for i in range(M):
            w = np.array([mom[i, d, c] - rho[i, c] * U_f[d, c] for d in range(dim)])
            for a_ in range(dim):
                for b_ in range(dim):
                    terms["reynolds"] += vol / M * (
                        w[a_] * (-w[b_]) / rho[i, c]) * grad_U[a_, b_, c]
        terms["density_drift"] += vol * (
            (r_f[c] - b_rho) * potential_delta_second(law, r_f[c]) * ddr[c]
            + sum(grad_Pp[d, c] * (r_f[c] * U_f[d, c] - b_mom[d]) for d in range(dim)))
        p_mean = np.mean([pressure_delta(law, rho[i, c]) for i in range(M)])
        terms["pressure_div"] += vol * (pressure_delta(law, r_f[c]) - p_mean) * div_U[c]
        for k in range(modes):
            for i in range(M):
                diff2 = sum((gk_atoms[k, i, d, c] / rho[i, c] - dsU[k, d, c]) ** 2
                            for d in range(dim))
                terms["noise_mismatch"] += 0.5 * vol / M * rho[i, c] * diff2
            terms["density_ito"] += vol * dsr[k, c] ** 2 * (
                -0.5 * b_rho * potential_delta_third(law, r_f[c])
                + 0.5 * pressure_delta_second(law, r_f[c]))
    terms["defect_momentum"] = 0.0
    terms["defect_energy"] = 0.0
    return terms


class TestRemainder:
    def make_inputs(self, rng, modes=2, members=3):
        grid = Grid((16,))
        noise = NoiseModel(K=tuple(0.1 * (i + 1) for i in range(modes)),
                           L=tuple(0.05 * (i + 1) for i in range(modes)))
        model = ModelConfig(law=PressureLaw(1.1, 1.8), visc=Viscosity(0.3, 0.1),
                            noise=noise)
        ym = random_ym(grid, members, rng)
        r = rng.uniform(0.6, 1.8, grid.sizes)
        U = rng.normal(0.0, 0.4, (1, *grid.sizes))
        dec = reference_decomps(grid, model, r, U)
        # give the density a nontrivial diffusion part to exercise term 9
        dec.dsr = rng.normal(0.0, 0.1, (model.modes, *grid.sizes))
        return grid, model, ym, r, U, dec

    def test_all_zero_at_equilibrium_reference(self):
        grid = Grid((16,))
        model = ModelConfig(law=LAW, visc=Viscosity(0.2))
        r = np.full(grid.sizes, 1.3)
        U = np.zeros((1, *grid.sizes))
        dec = reference_decomps(grid, model, r, U)
        terms = remainder(grid, model, r.copy(), np.zeros((1, *grid.sizes)), r, U, dec)
        for name in REMAINDER_TERMS:
            assert abs(terms[name]) < 1e-13, name
        assert abs(terms["total"]) < 1e-12

    def test_pressure_term_vanishes_for_divergence_free_reference(self, rng):
        # U constant (so div U = 0) makes the pressure-divergence term vanish
        grid = Grid((16,))
        model = ModelConfig(law=LAW)
        r = np.ones(grid.sizes)
        U = np.full((1, *grid.sizes), 0.7)
        mom = rng.normal(0.0, 0.5, (1, *grid.sizes))
        dec = RefDecomps(ddr=np.zeros(grid.sizes), ddU=np.zeros((1, *grid.sizes)),
                         dsr=np.zeros((0, *grid.sizes)),
                         dsU=np.zeros((0, 1, *grid.sizes)))
        terms = remainder(grid, model, np.ones(grid.sizes), mom, r, U, dec)
        assert terms["pressure_div"] == pytest.approx(0.0, abs=1e-13)
        assert terms["density_drift"] == pytest.approx(0.0, abs=1e-13)

    def test_brute_force_oracle(self, rng):
        # independent quadrature oracle, five random configurations
        for trial in range(5):
            grid, model, ym, r, U, dec = self.make_inputs(rng)
            fast = atom_mean(grid, model, ym, r, U, dec)
            slow = brute_force_remainder(grid, model, ym, r, U, dec)
            for name in REMAINDER_TERMS:
                assert fast[name] == pytest.approx(slow[name], rel=1e-10, abs=1e-10), name

    def test_defect_fields_enter_terms(self, rng):
        grid, model, ym, r, U, dec = self.make_inputs(rng, modes=0, members=2)
        mu_m = rng.normal(0.0, 0.1, (1, 1, *grid.sizes))
        mu_e = rng.uniform(0.0, 0.2, grid.sizes)
        terms = atom_mean(grid, model, ym, r, U, dec, mu_m=mu_m, mu_e=mu_e)
        grad_U = grid.gradient_vector(U)
        assert terms["defect_momentum"] == pytest.approx(
            -grid.integrate(np.sum(grad_U * mu_m, axis=(0, 1))))
        assert terms["defect_energy"] == pytest.approx(0.5 * grid.integrate(mu_e))


class TestMemberBatch:
    """A batch of Dirac members gives the values of one call per member."""

    @staticmethod
    def inputs(rng, sizes, members=5):
        grid = Grid(sizes)
        model = ModelConfig(law=PressureLaw(1.1, 1.8), visc=Viscosity(0.3, 0.1),
                            noise=NoiseModel(K=(0.1, 0.2), L=(0.05, 0.1)))
        rho = rng.uniform(0.6, 1.8, (members, *grid.sizes))
        mom = rng.normal(0.0, 0.4, (members, grid.dim, *grid.sizes))
        r = rng.uniform(0.6, 1.8, (members, *grid.sizes))
        U = rng.normal(0.0, 0.4, (members, grid.dim, *grid.sizes))
        return grid, model, rho, mom, r, U

    @pytest.mark.parametrize("sizes", [(16,), (8, 8)])
    def test_batch_matches_single_calls(self, rng, sizes):
        grid, model, rho, mom, r, U = self.inputs(rng, sizes)
        law = model.law_eff
        dec = reference_decomps(grid, model, r, U)
        terms = remainder(grid, model, rho, mom, r, U, dec)
        energy = relative_energy_state(grid, law, State(rho, mom), r, U)
        assert energy.shape == (5,) and terms["total"].shape == (5,)
        for m in range(5):
            one = reference_decomps(grid, model, r[m], U[m])
            assert np.array_equal(dec.ddr[m], one.ddr)
            assert np.array_equal(dec.ddU[m], one.ddU)
            assert np.array_equal(dec.dsr[:, m], one.dsr)
            assert np.array_equal(dec.dsU[:, m], one.dsU)
            single = remainder(grid, model, rho[m], mom[m], r[m], U[m], one)
            for name in (*REMAINDER_TERMS, "total"):
                assert terms[name][m] == single[name], name
            assert energy[m] == relative_energy_state(grid, law, State(rho[m], mom[m]),
                                                      r[m], U[m])

    def test_nonpositive_reference_names_member(self, rng):
        grid, model, _, _, r, U = self.inputs(rng, (16,))
        r[3, 5] = 0.0
        with pytest.raises(SimulationError, match="member 3: reference density") as err:
            reference_decomps(grid, model, r, U)
        assert err.value.member == 3
        np.testing.assert_array_equal(err.value.state.rho, r[3])  # the pair as (r, r U)
        np.testing.assert_array_equal(err.value.state.mom, r[3][None] * U[3])


class TestGronwall:
    def test_zero_series_passes(self):
        t = np.linspace(0, 1, 5)
        assert gronwall_check(t, np.zeros(5), 1.0, 0.0) <= 0.0

    def test_exact_exponential_zero_residual(self):
        t = np.linspace(0, 2, 9)
        e = 0.3 * np.exp(1.2 * t)
        assert abs(gronwall_check(t, e, 1.2, 0.0)) < 1e-12

    def test_violation_flagged(self):
        t = np.linspace(0, 1, 9)
        e = 0.3 * np.exp(2.0 * t)
        assert gronwall_check(t, e, 1.0, 0.0) > 0.1

    def test_fit_exponential_recovers(self):
        t = np.linspace(0, 1, 20)
        c, A = fit_exponential(t, 0.7 * np.exp(1.9 * t))
        assert c == pytest.approx(1.9, rel=1e-10)
        assert A == pytest.approx(0.7, rel=1e-10)

    def test_fit_exponential_skips_roundoff_start(self):
        # an exact-data start evaluates to roundoff; it must not set the slope
        t = np.linspace(0, 1, 9)
        values = 2e-6 * np.exp(3.0 * t)
        values[0] = 1e-23
        c, A = fit_exponential(t, values)
        assert c == pytest.approx(3.0, abs=1e-9)
        assert A == pytest.approx(2e-6, rel=1e-9)

    def test_fit_exponential_needs_two_positive_samples(self):
        t = np.linspace(0, 1, 4)
        assert fit_exponential(t, np.zeros(4)) == (0.0, 0.0)
        assert fit_exponential(t, [0.0, 0.0, 0.0, 1.0]) == (0.0, 0.0)


class TestWeakStrong:
    def test_self_comparison_is_exact(self):
        # identical resolution and identical paths: E_mv stays at roundoff
        cfg = WeakStrongConfig(
            grid_sizes=(32,),
            model=ModelConfig(law=LAW, visc=Viscosity(1e-2),
                              noise=NoiseModel(K=(0.1,), L=(0.05,))),
            horizon=0.25, n_steps=32, members=3, seed=4, refine=1)
        report = weak_strong_experiment(cfg)
        assert np.max(report.emv) < 1e-12

    def test_deterministic_refinement_trend(self):
        # discretization-error oracle: the coarse-vs-fine gap shrinks by at
        # least 1.5x under simultaneous (dt, h) halving
        def gap(sizes, steps):
            cfg = WeakStrongConfig(
                grid_sizes=(sizes,),
                model=ModelConfig(law=LAW, visc=Viscosity(1e-2)),
                horizon=0.25, n_steps=steps, members=1, seed=0, refine=2)
            return weak_strong_experiment(cfg).emv_mean[-1]

        coarse_gap = gap(32, 64)
        fine_gap = gap(64, 128)
        assert coarse_gap > 0
        assert coarse_gap / fine_gap >= 1.5

    def test_perturbed_initial_energy_near_target(self):
        eta = 1e-4
        cfg = WeakStrongConfig(
            grid_sizes=(32,),
            model=ModelConfig(law=LAW, visc=Viscosity(1e-2)),
            horizon=0.125, n_steps=16, members=4, seed=1, refine=1, eta=eta)
        report = weak_strong_experiment(cfg)
        assert report.emv_mean[0] == pytest.approx(eta, rel=0.2)

    def test_stopping_time_freezes_series(self):
        cfg = WeakStrongConfig(
            grid_sizes=(32,),
            model=ModelConfig(law=LAW, visc=Viscosity(1e-2)),
            horizon=0.25, n_steps=16, members=1, seed=0, refine=2, grad_threshold=1e-6)
        report = weak_strong_experiment(cfg)
        assert report.tau[0] == 0.0
        assert np.all(report.emv[0] == report.emv[0, 0])


    def test_sample_interval_must_divide_steps(self):
        cfg = dataclasses.replace(TestBatchedMarch.config(1, np.inf), sample_every=5)
        with pytest.raises(ValueError, match="sample_every = 5 does not divide n_steps = 32"):
            weak_strong_experiment(cfg)

    @pytest.mark.parametrize("change,data", [
        ({"stepper": StepperConfig(rho_floor=0.95)}, "fine"),  # the data's minimum is 0.9
        ({"eta": 10.0}, "coarse"),  # the perturbed density dips below zero
    ])
    def test_data_below_the_floor_raises_before_any_step(self, monkeypatch, change, data):
        def no_step(*args, **kwargs):
            raise AssertionError("a step was taken")

        monkeypatch.setattr(relative, "step_em", no_step)
        cfg = dataclasses.replace(TestBatchedMarch.config(2, np.inf), **change)
        with pytest.raises(ValueError, match=f"the {data} data: density .* is not above "
                                             r"stepper\.rho_floor"):
            weak_strong_experiment(cfg)


class TestBatchedMarch:
    """The members march as one batch; freezing stays per member."""

    @staticmethod
    def config(members, threshold):
        # strong multiplicative noise lifts some members' gradients above
        # their initial value and lets others decay
        model = ModelConfig(law=LAW, visc=Viscosity(1e-2),
                            noise=NoiseModel(K=(0.1,), L=(0.5,)))
        return WeakStrongConfig(grid_sizes=(16,), model=model, horizon=0.5,
                                n_steps=32, members=members, seed=0,
                                sample_every=4, grad_threshold=threshold)

    @staticmethod
    def gradients(monkeypatch, members):
        """Each sample's per-member reference gradient, with no freezing."""
        seen = []
        norm = relative.grad_inf_norm

        def record(grid, v):
            seen.append(norm(grid, v))
            return seen[-1]

        with monkeypatch.context() as patch:
            patch.setattr(relative, "grad_inf_norm", record)
            weak_strong_experiment(TestBatchedMarch.config(members, np.inf))
        return np.array(seen)

    def mixed_threshold(self, monkeypatch):
        """Midway between the two largest per-member gradient maxima."""
        seen = self.gradients(monkeypatch, 6)
        return float(np.mean(np.sort(np.max(seen, axis=0))[-2:]))

    def test_last_member_freezing_after_start(self, monkeypatch):
        # the only live member freezes at a later sample, which then has no
        # member left to evaluate
        seen = self.gradients(monkeypatch, 1)[:, 0]
        assert seen.max() > seen[0]
        report = weak_strong_experiment(self.config(1, 0.5 * (seen[0] + seen.max())))
        assert 0.0 < report.tau[0] < 0.5
        j = int(np.argmin(np.abs(report.times - report.tau[0])))
        assert np.all(report.emv[0, j:] == report.emv[0, j - 1])
        assert np.all(report.remainder_terms[j:] == 0.0)

    def test_mixed_freezing(self, monkeypatch):
        threshold = self.mixed_threshold(monkeypatch)
        report = weak_strong_experiment(self.config(6, threshold))
        frozen = report.tau < 0.5
        assert frozen.any() and not frozen.all()
        for m in np.flatnonzero(frozen):
            j = int(np.argmin(np.abs(report.times - report.tau[m])))
            assert np.all(report.emv[m, j:] == report.emv[m, max(j - 1, 0)])
        # no member depends on which others share its batch
        small = weak_strong_experiment(self.config(4, threshold))
        assert np.array_equal(small.emv, report.emv[:4])
        assert np.array_equal(small.tau, report.tau[:4])

    def test_failure_after_freezing_names_ensemble_member(self, monkeypatch):
        # once a member has frozen, batch row 0 is the first live member
        threshold = self.mixed_threshold(monkeypatch)
        tau = weak_strong_experiment(self.config(6, threshold)).tau
        step_em = relative.step_em

        def fails_once_shrunk(grid, model, stepper, state, *args):
            if len(state.rho) < 6:
                raise SimulationError("boom", state.rows(0), 0)
            return step_em(grid, model, stepper, state, *args)

        monkeypatch.setattr(relative, "step_em", fails_once_shrunk)
        first_live = int(np.flatnonzero(tau > tau.min())[0])
        with pytest.raises(SimulationError, match=f"member {first_live}: boom") as err:
            weak_strong_experiment(self.config(6, threshold))
        assert err.value.member == first_live

    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_earliest_failure_at_any_thread_count(self, monkeypatch, threads):
        # member 7's path turns non-finite at coarse step 1 and member 2's at
        # coarse step 6: one batch fails on member 7, and so does every split
        monkeypatch.setattr(ensemble.os, "cpu_count", lambda: 8)
        tables = relative.member_tables

        def poisoned(*args):
            out = tables(*args).copy()
            out[7, 2] = out[2, 12] = np.nan  # fine rows of coarse steps 1 and 6
            return out

        monkeypatch.setattr(relative, "member_tables", poisoned)
        cfg = self.config(10, np.inf)

        def failure(threads):
            with pytest.raises(SimulationError) as err:
                weak_strong_experiment(cfg, threads)
            return err.value

        exc = failure(threads)
        dt_c = cfg.horizon / cfg.n_steps
        assert str(exc) == f"member 7: non-finite state after step 1 (t={dt_c:.4f})"
        assert exc.member == 7 and exc.state.rho.shape == cfg.grid_sizes
        assert exc.state.t == dt_c and np.isfinite(exc.state.mom).all()  # the step's start
        one = failure(1)
        assert str(exc) == str(one)
        np.testing.assert_array_equal(exc.state.rho, one.state.rho)
        np.testing.assert_array_equal(exc.state.mom, one.state.mom)

    def test_step_failure_in_later_range_names_ensemble_member(self, monkeypatch):
        # --threads 2 marches members [0, 3) and [3, 5); row 1 of the second
        # range is member 4 of the ensemble
        step_em = relative.step_em

        def second_range_fails(grid, model, stepper, state, *args):
            if len(state.rho) == 2:
                raise SimulationError("boom", state.rows(1), 1)
            return step_em(grid, model, stepper, state, *args)

        monkeypatch.setattr(relative, "step_em", second_range_fails)
        with pytest.raises(SimulationError, match="member 4: boom") as err:
            weak_strong_experiment(self.config(5, np.inf), threads=2)
        assert err.value.member == 4

    def test_reference_failure_after_freezing_names_ensemble_member(self, monkeypatch):
        # member 0 freezes at sample 1, so from there batch row 0 is member 1
        threshold = self.mixed_threshold(monkeypatch)
        tau = weak_strong_experiment(self.config(6, threshold)).tau
        decomps = relative.reference_decomps

        def fails_once_shrunk(grid, model, r, U):
            if len(r) < 6:
                raise SimulationError("reference density lost positivity",
                                      State(r[0], r[0] * U[0]), 0)
            return decomps(grid, model, r, U)

        monkeypatch.setattr(relative, "reference_decomps", fails_once_shrunk)
        first_live = int(np.flatnonzero(tau > tau.min())[0])
        assert first_live > 0
        with pytest.raises(SimulationError,
                           match=f"member {first_live}: restricted reference density") as err:
            weak_strong_experiment(self.config(6, threshold), threads=2)
        assert err.value.member == first_live

    def test_samples_reduced_once_on_calling_thread(self, monkeypatch):
        # --threads 2 steps two ranges per interval; each sample's reference
        # decompositions and remainder are one call on all live members
        monkeypatch.setattr(ensemble.os, "cpu_count", lambda: 8)
        calls = []
        for name in ("reference_decomps", "remainder"):
            def record(grid, model, field, *args, _name=name, _fn=getattr(relative, name)):
                calls.append((_name, threading.get_ident(), len(field)))
                return _fn(grid, model, field, *args)

            monkeypatch.setattr(relative, name, record)
        report = weak_strong_experiment(self.config(5, np.inf), threads=2)
        caller = threading.get_ident()
        assert calls == [(name, caller, 5) for _ in report.times
                         for name in ("reference_decomps", "remainder")]

    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_restricted_reference_failure_at_any_thread_count(self, monkeypatch, threads):
        # member 7's fine reference loses positivity before sample 1 and
        # member 2's before sample 2: one batch fails on member 7 at sample
        # 1, and so does every split into ranges, with member 7's pair
        monkeypatch.setattr(ensemble.os, "cpu_count", lambda: 8)
        mark = 0.0625  # an increment that tags the fine steps to poison
        tables, step_em = relative.member_tables, relative.step_em

        def tagged(*args):
            out = tables(*args).copy()
            out[7, 7] = out[2, 15] = mark  # the last fine steps before samples 1 and 2
            return out

        def sinks(grid, model, stepper, state, dt, dW):
            out = step_em(grid, model, stepper, state, dt, dW)
            if grid.sizes == (32,):  # the fine grid
                out.rho[dW[:, 0] == mark] *= -1.0
            return out

        monkeypatch.setattr(relative, "member_tables", tagged)
        monkeypatch.setattr(relative, "step_em", sinks)
        cfg = self.config(10, np.inf)

        def failure(threads):
            with pytest.raises(SimulationError) as err:
                weak_strong_experiment(cfg, threads)
            return err.value

        exc = failure(threads)
        t = 4 * cfg.horizon / cfg.n_steps
        assert str(exc) == ("member 7: restricted reference density lost positivity "
                            f"at step 4 (t={t:.4f})")
        assert exc.state.t == t and np.all(exc.state.rho < 0)
        one = failure(1)
        assert str(exc) == str(one)
        np.testing.assert_array_equal(exc.state.rho, one.state.rho)
        np.testing.assert_array_equal(exc.state.mom, one.state.mom)

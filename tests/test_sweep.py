import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusgas import config, driver, ensemble, sweep
from torusgas.dynamics import SimulationError, State, rhs_deterministic, taylor_green
from torusgas.ensemble import dissipation_defect, member_se, member_sums
from torusgas.grid import Grid
from torusgas.noise import NoiseModel, coarsen
from torusgas.sweep import (RateReport, SweepConfig, SweepError, fit_rate,
                            run_sweep, theoretical_envelope_exponent,
                            well_prepared_data)


class TestWellPreparedData:
    def test_zero_delta_reproduces_target(self, grid2d):
        v0 = taylor_green(grid2d)
        rho0, mom0 = well_prepared_data(grid2d, 0.5, v0, 0.0)
        assert np.array_equal(rho0, np.ones(grid2d.sizes))
        assert np.array_equal(mom0, v0)

    def test_bound_arithmetic(self, grid2d):
        # eps = delta = 1/4 with a sup-norm-one shape keeps rho within 1/16
        v0 = taylor_green(grid2d)
        rho0, _ = well_prepared_data(grid2d, 0.25, v0, 0.25)
        assert np.min(rho0) >= 1 - 1 / 16 - 1e-14
        assert np.max(rho0) <= 1 + 1 / 16 + 1e-14

    def test_hypothesis_inequalities_pointwise(self, grid2d):
        # direct audit of the data-preparation inequalities
        v0 = taylor_green(grid2d)
        for eps, delta in ((1.0, 1.0), (0.5, 0.5), (0.125, 0.125)):
            rho0, mom0 = well_prepared_data(grid2d, eps, v0, delta)
            assert np.max(np.abs(rho0 - 1.0)) / eps <= delta + 1e-12
            gap = np.sqrt(np.sum((mom0 - v0) ** 2, axis=0))
            assert np.max(gap) <= delta + 1e-12
            assert np.min(rho0) > 0

    def test_rejects_nonsolenoidal(self, grid2d):
        X, _ = grid2d.coordinates()
        v = np.stack([np.sin(X), np.zeros(grid2d.sizes)])
        with pytest.raises(SweepError):
            well_prepared_data(grid2d, 0.5, v, 0.1)

    @given(eps=st.floats(0.05, 1.0), delta=st.floats(0.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_property_bounds(self, eps, delta):
        grid = Grid((16,))
        v0 = np.zeros((1, 16))
        rho0, mom0 = well_prepared_data(grid, eps, v0, delta)
        assert np.max(np.abs(rho0 - 1.0)) <= eps * delta + 1e-12
        assert np.max(np.abs(mom0)) <= delta + 1e-12


def synthetic_report(eps, values):
    eps = np.asarray(eps, dtype=float)
    values = np.asarray(values, dtype=float)
    n = eps.size
    return RateReport(
        eps=eps, times=np.array([0.0, 1.0]),
        emv_mean=np.stack([values, values], axis=1),
        emv_se=np.zeros((n, 2)),
        d_series=np.zeros((n, 2)),
        d_sup=np.zeros(n), d_sup_se=np.zeros(n),
        tau_min=np.ones(n), n_steps=np.full(n, 8),
    )


class TestFitRate:
    def test_linear_synthetic(self):
        eps = [1.0, 0.5, 0.25, 0.125]
        out = fit_rate(synthetic_report(eps, eps), gamma=2.0)
        assert out["slope"] == pytest.approx(1.0, abs=1e-12)
        assert out["monotone"]
        assert out["pass"]

    def test_quadratic_synthetic(self):
        eps = np.array([1.0, 0.5, 0.25])
        out = fit_rate(synthetic_report(eps, eps**2), gamma=2.0)
        assert out["slope"] == pytest.approx(2.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(SweepError):
            fit_rate(synthetic_report([1.0, 0.5], [1.0, 0.5]))

    def test_envelope_exponent(self):
        assert theoretical_envelope_exponent(2.0) == pytest.approx(1.0)
        assert theoretical_envelope_exponent(1.4) == pytest.approx(1.0)
        assert theoretical_envelope_exponent(3.0) == pytest.approx(1.0)

    def test_nonmonotone_detected(self):
        out = fit_rate(synthetic_report([1.0, 0.5, 0.25], [1.0, 1.2, 0.3]))
        assert not out["monotone"]
        assert not out["pass"]


class TestRunSweep:
    def test_exact_quiescent_data_gives_zero(self, monkeypatch):
        # eps = 1, v0 = 0, no noise, exact data (1, 0): nothing moves
        monkeypatch.setattr(sweep, "well_prepared_data",
                            lambda grid, eps, v0, delta: (np.ones(grid.sizes), v0.copy()))
        cfg = SweepConfig(grid_sizes=(16, 16), eps_schedule=(1.0,), noise=NoiseModel(),
                          horizon=0.1, members=1, n_samples=2, v0_kind="zero", se_groups=1)
        report = run_sweep(cfg)
        assert np.max(np.abs(report.emv_mean)) < 1e-24
        assert np.max(report.d_sup) == 0.0
        assert report.tau_min[0] == cfg.horizon

    def test_se_shrinks_with_members(self):
        # Monte Carlo scaling oracle: doubling members twice shrinks the
        # standard error by about 2
        def run(members):
            cfg = SweepConfig(grid_sizes=(16,), eps_schedule=(1.0,),
                              horizon=0.1, members=members,
                              noise=NoiseModel(K=(0.1,), L=(0.05,)),
                              n_samples=2, v0_kind="zero", grad_threshold=1e9,
                              se_groups=2, seed=3)
            return run_sweep(cfg).emv_se[0, -1]

        ratio = run(8) / run(32)
        assert 1.2 <= ratio <= 3.5

    def test_mini_taylor_green_trend(self):
        # small version of the limit experiment: relative energy decreases
        # along the eps schedule
        cfg = SweepConfig(grid_sizes=(16, 16), eps_schedule=(1.0, 0.5, 0.25),
                          horizon=0.125, members=4,
                          noise=NoiseModel(K=(0.1,), L=(0.05,)), n_samples=2, grad_threshold=2.0,
                          se_groups=2, seed=1)
        report = run_sweep(cfg)
        finals = report.final_emv
        assert finals[0] > finals[1] > finals[2] > 0
        assert np.all(report.emv_mean >= 0)
        assert np.all(report.tau_min == cfg.horizon)  # TG gradient stays at 1

    def test_paths_shared_across_eps(self):
        # the same member key drives every eps: step counts divide a common
        # base so coarse increments aggregate fine ones exactly
        cfg = SweepConfig(grid_sizes=(16,), eps_schedule=(1.0, 0.5),
                          horizon=0.1, members=2, noise=NoiseModel(K=(0.1,), L=(0.0,)),
                          n_samples=2, v0_kind="zero", grad_threshold=1e9,
                          se_groups=2, seed=7)
        report = run_sweep(cfg)
        assert report.n_steps[1] % report.n_steps[0] == 0 or \
            report.n_steps[0] % report.n_steps[1] == 0


    @pytest.mark.parametrize("n_samples", [0, 3])
    def test_sample_count_not_a_power_of_two_is_rejected(self, monkeypatch, n_samples):
        # a sample count that does not divide the power-of-two step counts
        # is rejected before any march, as sweep.samples is in a config file
        calls = []
        monkeypatch.setattr(sweep, "by_member_range", lambda *args: calls.append(args))
        cfg = SweepConfig(grid_sizes=(16, 16), horizon=0.25, members=4,
                          n_samples=n_samples, se_groups=2)
        with pytest.raises(SweepError, match=f"n_samples = {n_samples}"):
            run_sweep(cfg)
        assert not calls


def test_semi_implicit_schedule_and_cfl_margin(tmp_path):
    # the limit-sweep-2d benchmark overrides: with the viscosity and the
    # acoustics implicit, eps = 1 no longer takes the diffusive bound's 256
    # steps, nor the smaller eps the acoustic bound's 64 and 128, and the
    # reference takes its own advective bound's 16
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = config.load(os.path.join(root, "configs", "limit_sweep.cfg"),
                      {"grid.sizes": [32, 32], "sweep.eps": [1.0, 0.5, 0.25],
                       "sweep.members": 8, "run.seed": 1})
    summary = driver.run_limit_sweep(cfg, str(tmp_path))
    assert summary["n_steps"].tolist() == [64, 32, 32]
    assert summary["reference_n_steps"] == 16
    assert summary["pass"] is True
    ratio = summary["cfl_ratio_max"]
    assert ratio.shape == (3,) and np.all(ratio > 0) and np.all(ratio <= 0.6)
    assert 0 < summary["reference_cfl_ratio_max"] <= 0.6


class TestBatchedMarch:
    """The members of each eps march as one batch; freezing stays per member."""

    @staticmethod
    def config(members, threshold):
        return SweepConfig(grid_sizes=(16, 16), eps_schedule=(1.0, 0.5), horizon=0.25,
                           members=members, n_samples=4, grad_threshold=threshold,
                           se_groups=2, seed=0)

    def mixed_threshold(self):
        """Midway between the two largest per-member reference gradient maxima."""
        grad_max = run_sweep(self.config(6, np.inf)).grad_max
        return float(np.mean(np.sort(grad_max)[-2:]))

    def test_mixed_freezing(self):
        threshold = self.mixed_threshold()
        report = run_sweep(self.config(6, threshold))
        frozen = report.tau < 0.25
        assert frozen.any() and not frozen.all()
        assert np.array_equal(report.grad_max > threshold, frozen)
        for m in np.flatnonzero(frozen):
            j = int(np.argmin(np.abs(report.times - report.tau[m])))
            for row in report.emv[:, m]:
                assert np.all(row[j:] == row[max(j - 1, 0)])
        assert np.all(report.tau_min == report.tau.min())
        # no member depends on which others share its batch
        small = run_sweep(self.config(4, threshold))
        assert np.array_equal(small.emv, report.emv[:, :4])
        assert np.array_equal(small.tau, report.tau[:4])

    def test_defects_match_the_last_sampled_states(self, monkeypatch):
        # members stop mid-run: the pooled and group D formed from the frozen
        # and sampled member sums equal the defect of every member's last
        # sampled state taken as one batch, relative to the energy (D is
        # roundoff at t = 0, where all members start alike)
        cfg = self.config(6, self.mixed_threshold())
        samples, got = [], []
        sample, defect = sweep.relative_energy_state, sweep.dissipation_defect

        def record_sample(grid, law, state, r, U):
            samples.append((law, state.rho.copy(), state.mom.copy()))
            return sample(grid, law, state, r, U)

        def record_defect(grid, sums, n, law):
            got.append(defect(grid, sums, n, law)[1])
            return None, got[-1]

        monkeypatch.setattr(sweep, "relative_energy_state", record_sample)
        monkeypatch.setattr(sweep, "dissipation_defect", record_defect)
        report = run_sweep(cfg)
        # each member's stopping sample, n_samples + 1 if it never stops
        stop = np.where(report.tau < cfg.horizon, np.searchsorted(report.times, report.tau),
                        cfg.n_samples + 1)
        assert (stop < cfg.n_samples).any() and (stop > cfg.n_samples).any()
        grid = Grid(cfg.grid_sizes)
        blocks = np.array_split(np.arange(cfg.members), cfg.se_groups) + [np.arange(cfg.members)]
        last = {eps: (np.zeros((cfg.members, *grid.sizes)),
                      np.zeros((cfg.members, grid.dim, *grid.sizes)))
                for eps in cfg.eps_schedule}
        laws, sampled, k = {}, iter(samples), 0
        for i_s in range(cfg.n_samples + 1):  # every eps is sampled at i_s before any at i_s + 1
            for eps in cfg.eps_schedule:
                last_rho, last_mom = last[eps]
                rows = np.flatnonzero(stop > i_s) if i_s else np.arange(cfg.members)
                if rows.size:
                    laws[eps], last_rho[rows], last_mom[rows] = next(sampled)
                law = laws[eps]
                for idx in blocks:
                    sums = member_sums(law, last_rho[idx], last_mom[idx])
                    want = dissipation_defect(grid, sums, idx.size, law)[1]
                    scale = grid.integrate(sums[-1]) / idx.size
                    assert got[k] == pytest.approx(want, rel=1e-12, abs=1e-12 * scale)
                    k += 1
        assert k == len(got)

    def test_intervals_hand_back_no_spectra(self, monkeypatch):
        # the compressible steps carry their spectra within an interval; no
        # state kept between intervals holds them
        interval, kept = sweep._interval, []

        def record(*args):
            kept.append(interval(*args)[0])
            return kept[-1], 0.0

        monkeypatch.setattr(sweep, "_interval", record)
        run_sweep(self.config(2, np.inf))
        compressible = [state for state in kept if isinstance(state, State)]
        assert compressible and all(state.spectra is None for state in compressible)

    def test_reference_marched_once_and_shared(self, monkeypatch):
        # one Euler march at its own step, whose stopping times every eps's
        # compressible batch obeys
        threshold = self.mixed_threshold()
        cfg = self.config(6, threshold)
        euler_rows, comp_rows = [], {}
        step_euler, step_comp = sweep.step_em_euler, sweep.step_em

        def count_euler(grid, noise, state, dt, dW, **kwargs):
            euler_rows.append(len(dW))
            return step_euler(grid, noise, state, dt, dW, **kwargs)

        def count_comp(grid, model, stepper, state, dt, dW, stats=None):
            comp_rows.setdefault(model.eps, []).append(len(dW))
            return step_comp(grid, model, stepper, state, dt, dW, stats=stats)

        monkeypatch.setattr(sweep, "step_em_euler", count_euler)
        monkeypatch.setattr(sweep, "step_em", count_comp)
        report = run_sweep(cfg)
        n_ref = report.n_ref
        assert report.tau.shape == (cfg.members,)
        assert (report.tau < cfg.horizon).any()
        # each member is stepped up to its stopping time, at each step size
        assert len(euler_rows) == n_ref
        assert sum(euler_rows) == round(float(np.sum(report.tau)) * n_ref / cfg.horizon)
        for eps, n in zip(report.eps, report.n_steps):
            assert sum(comp_rows[eps]) == round(float(np.sum(report.tau)) * n / cfg.horizon)

    def test_cfl_blow_up_names_member_eps_and_dt(self, monkeypatch):
        def fails_on_row_1(grid, model, stepper, state, dt, dW, stats=None):
            raise SimulationError("CFL violation: boom", state.rows(1), 1)

        monkeypatch.setattr(sweep, "step_em", fails_on_row_1)
        with pytest.raises(SimulationError, match=r"member 1: eps=1\.0, dt=\d\.\d{3}e-\d\d: "
                                                  r"CFL violation: boom"):
            run_sweep(self.config(3, np.inf))

    def test_non_finite_step_names_member_eps_and_dt(self, monkeypatch):
        # a non-finite state is reported as such, not as a CFL failure, with
        # the member's state at the start of the step
        n_half = int(run_sweep(self.config(3, np.inf)).n_steps[1])
        step = sweep.step_em

        def blows_up_at_half(grid, model, stepper, state, dt, dW, stats=None):
            def rhs(*args):
                rho_h, mom_h, dmom_h = rhs_deterministic(*args)
                if model.eps == 0.5:
                    dmom_h[2] = np.inf
                return rho_h, mom_h, dmom_h
            return step(grid, model, stepper, state, dt, dW, rhs_fn=rhs, stats=stats)

        monkeypatch.setattr(sweep, "step_em", blows_up_at_half)
        with np.errstate(invalid="ignore"), pytest.raises(SimulationError) as err:
            run_sweep(self.config(3, np.inf))  # inf * 0 in the step makes NaNs
        message = str(err.value)
        assert message.startswith(f"member 2: eps=0.5, dt={0.25 / n_half:.3e}: non-finite")
        assert message.endswith("non-finite state after step 0 (t=0.0000)")
        assert err.value.member == 2
        rho0, mom0 = well_prepared_data(Grid((16, 16)), 0.5, taylor_green(Grid((16, 16))), 0.5)
        np.testing.assert_array_equal(err.value.state.rho, rho0)
        np.testing.assert_array_equal(err.value.state.mom, mom0)

    def test_failure_in_later_range_names_ensemble_member(self, monkeypatch):
        # --threads 2 marches members [0, 3) and [3, 5); row 1 of the second
        # range is member 4 of the ensemble
        step = sweep.step_em

        def second_range_fails(grid, model, stepper, state, dt, dW, stats=None):
            if len(state.rho) == 2:
                raise SimulationError("boom", state.rows(1), 1)
            return step(grid, model, stepper, state, dt, dW, stats=stats)

        monkeypatch.setattr(sweep, "step_em", second_range_fails)
        with pytest.raises(SimulationError, match=r"member 4: eps=1\.0, dt=\S+: boom") as err:
            run_sweep(self.config(5, np.inf), threads=2)
        assert err.value.member == 4

    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_earliest_failure_at_any_thread_count(self, monkeypatch, threads):
        # member 7's path turns non-finite at step 1 and member 2's at step 6:
        # one batch fails on member 7, and so does every split into ranges
        monkeypatch.setattr(ensemble.os, "cpu_count", lambda: 8)
        calls = []

        def poisoned(table, n):
            out = coarsen(table, n)
            calls.append(n)
            if len(calls) > 1:  # the first call coarsens the reference's table
                out = out.copy()
                out[7, 1] = out[2, 6] = np.nan
            return out

        monkeypatch.setattr(sweep, "coarsen", poisoned)
        cfg = SweepConfig(grid_sizes=(16, 16), eps_schedule=(1.0,), horizon=0.25,
                          members=10, n_samples=4, seed=0)

        def failure(threads):
            calls.clear()
            with pytest.raises(SimulationError, match="member 7: eps=1.0, dt=") as err:
                run_sweep(cfg, threads)
            return err.value

        exc = failure(threads)
        assert exc.member == 7
        assert str(exc).endswith("non-finite state after step 1 (t=0.0156)")
        assert exc.state.t == 0.015625 and np.isfinite(exc.state.mom).all()  # the step's start
        one = failure(1)
        assert str(exc) == str(one)
        np.testing.assert_array_equal(exc.state.mom, one.state.mom)

    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_first_failure_in_interval_order(self, monkeypatch, threads):
        # the reference and every eps advance interval by interval, the
        # reference first and then each eps in schedule order, so the failure
        # raised is the first in that order: eps 1.0's at interval 1 before
        # the reference's at interval 2, and eps 0.5's at interval 0 before
        # eps 1.0's at interval 1
        monkeypatch.setattr(ensemble.os, "cpu_count", lambda: 8)
        cfg = self.config(5, np.inf)
        n_steps = run_sweep(cfg).n_steps
        calls = []

        def failure(threads, poison):  # {march: (member, interval)}, march 0 the reference
            def poisoned(table, n):
                out = coarsen(table, n)
                calls.append(n)  # the reference's table first, then each eps's
                if len(calls) - 1 in poison:
                    member, interval = poison[len(calls) - 1]
                    out = out.copy()
                    out[member, interval * n // cfg.n_samples] = np.nan
                return out

            monkeypatch.setattr(sweep, "coarsen", poisoned)
            calls.clear()
            with pytest.raises(SimulationError) as err:
                run_sweep(cfg, threads)
            return err.value

        exc = failure(threads, {0: (3, 2)})
        assert str(exc).startswith("member 3: reference non-finite flow at step")
        for poison, member, eps, march, interval in (({0: (3, 2), 1: (1, 1)}, 1, 1.0, 0, 1),
                                                     ({1: (1, 1), 2: (4, 0)}, 4, 0.5, 1, 0)):
            exc = failure(threads, poison)
            n = n_steps[march]
            step = interval * n // cfg.n_samples
            assert str(exc) == (f"member {member}: eps={eps}, dt={0.25 / n:.3e}: non-finite "
                                f"state after step {step} (t={step * 0.25 / n:.4f})")
            assert exc.member == member and np.isfinite(exc.state.mom).all()
            one = failure(1, poison)
            assert str(exc) == str(one)
            np.testing.assert_array_equal(exc.state.mom, one.state.mom)

    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_reference_cfl_violation_names_member(self, monkeypatch, threads):
        # a large increment speeds up member 4's reference flow at step 0 and
        # member 1's at step 2: one batch exceeds its bound at step 1 on
        # member 4, and so does every split into ranges.  A NaN increment of
        # member 4 at step 1 and member 1 at step 2 fails the same way as a
        # non-finite flow.  Each failure carries member 4's state at step 1.
        monkeypatch.setattr(ensemble.os, "cpu_count", lambda: 8)
        calls = []

        def failure(threads, steps, value):
            def kicked(table, n):
                out = coarsen(table, n)
                calls.append(n)
                if len(calls) == 1:  # the first call coarsens the reference's table
                    out = out.copy()
                    out[4, steps[0]] = out[1, steps[1]] = value
                return out

            monkeypatch.setattr(sweep, "coarsen", kicked)
            calls.clear()
            with pytest.raises(SimulationError) as err:
                run_sweep(self.config(5, np.inf), threads)
            return err.value

        for steps, value in (((0, 2), 500.0), ((1, 2), np.nan)):
            exc = failure(threads, steps, value)
            if value == 500.0:
                match = re.fullmatch(r"member 4: reference CFL violation: dt=(\S+) exceeds "
                                     r"bound (\S+) at step 1 \(t=(\S+)\)", str(exc))
                dt, bound, t = map(float, match.groups())
                assert bound < dt / 20 and t == pytest.approx(dt, abs=1e-4)
            else:  # at the CFL case's step 1 and t
                assert str(exc) == f"member 4: reference non-finite flow at step 1 (t={t:.4f})"
            assert exc.member == 4 and exc.state.t == pytest.approx(t, abs=1e-4)
            one = failure(1, steps, value)
            assert str(exc) == str(one)
            np.testing.assert_array_equal(exc.state.fields, one.state.fields)

    def test_reference_step_count_is_its_own(self):
        # the reference's step count comes from its own bound, whatever the
        # eps schedule, and no eps needs fewer steps
        def report(schedule):
            cfg = SweepConfig(grid_sizes=(16, 16), eps_schedule=schedule, horizon=0.25,
                              members=2, n_samples=4, seed=0, se_groups=2)
            return run_sweep(cfg)

        coarse, fine = report((1.0,)), report((0.5, 0.25))
        h = 2 * np.pi / 16
        assert coarse.n_ref == fine.n_ref == sweep._step_count(
            SweepConfig(horizon=0.25, n_samples=4), 0.4 * h)  # Taylor-Green |v| <= 1
        assert coarse.n_ref <= min(coarse.n_steps.min(), fine.n_steps.min())
        assert 0.0 < fine.ref_cfl_ratio <= 0.6


def test_data_below_the_floor_raises_before_any_step(monkeypatch):
    # eps * delta = 4 at eps = 2: the prepared density 1 + 2 sin x dips below zero
    def no_step(*args, **kwargs):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(sweep, "step_em", no_step)
    monkeypatch.setattr(sweep, "step_em_euler", no_step)
    cfg = SweepConfig(grid_sizes=(16,), eps_schedule=(1.0, 2.0), horizon=0.05, members=2,
                      n_samples=1, v0_kind="zero", se_groups=2)
    with pytest.raises(SweepError, match=r"eps = 2\.0: density -\S+ is not above "
                                         r"stepper\.rho_floor = 1e-08"):
        run_sweep(cfg)


def test_fewer_members_than_se_groups_is_rejected(monkeypatch):
    # 3 members in 4 standard-error groups would leave one group empty and
    # its defect NaN, failing the fit whatever the data
    calls = []
    monkeypatch.setattr(sweep, "member_tables", lambda *args: calls.append(args))
    cfg = SweepConfig(grid_sizes=(16,), eps_schedule=(1.0,), horizon=0.1, members=3,
                      n_samples=2, v0_kind="zero", se_groups=4)
    with pytest.raises(SweepError, match="members = 3 < se_groups = 4"):
        run_sweep(cfg)
    assert not calls


def test_se_groups_cover_every_member(monkeypatch):
    # 10 members in 4 standard-error groups: contiguous groups of 3, 3, 2
    # and 2 members, whose sums, added in group order, are the pooled sums
    calls = []
    defect = sweep.dissipation_defect

    def record(grid, sums, n, law):
        calls.append((n, sums.copy(), defect(grid, sums, n, law)[1]))
        return None, calls[-1][2]

    monkeypatch.setattr(sweep, "dissipation_defect", record)
    cfg = SweepConfig(grid_sizes=(16,), eps_schedule=(1.0,), horizon=0.1, members=10,
                      noise=NoiseModel(K=(0.1,), L=(0.05,)), n_samples=2, v0_kind="zero",
                      grad_threshold=1e9, seed=3)
    report = run_sweep(cfg)
    assert len(calls) == (cfg.n_samples + 1) * (1 + cfg.se_groups)
    group_d = []
    for i in range(0, len(calls), 1 + cfg.se_groups):
        *groups, (n, pooled, _) = calls[i:i + 1 + cfg.se_groups]
        assert [m for m, _, _ in groups] == [3, 3, 2, 2] and n == cfg.members
        assert np.array_equal(sum(sums for _, sums, _ in groups), pooled)
        group_d.append([d for _, _, d in groups])
    assert report.d_sup_se[0] == member_se(np.max(group_d, axis=0))

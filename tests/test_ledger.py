import numpy as np
import pytest

from torusgas.constitutive import PressureLaw, Viscosity, potential_delta
from torusgas.dynamics import (ModelConfig, State, StepperConfig, energy_total,
                               step_em)
from torusgas.ensemble import EmpiricalYoungMeasure, build_ym
from torusgas.grid import Grid, random_smooth_scalar, random_smooth_vector
from torusgas.ledger import (EnergyLedger, LedgerAccumulator, SmoothItoProcess,
                             cross_variation_audit, poincare_ratio,
                             total_energy)
from torusgas.noise import NoiseModel, WienerPath

LAW = PressureLaw(1.0, 2.0)


def run_member_ledger(grid, model, state0, dt, n_steps, seed=0, member=0,
                      stepper=StepperConfig()):
    """March one member and return its (sampled every step) ledger."""
    law = model.law_eff
    table = WienerPath(seed, member, model.modes, dt).table(n_steps)
    acc = LedgerAccumulator(grid, law, model.visc, model.noise, stepper.rho_floor)
    ledger = EnergyLedger()
    state = state0.copy()
    for step in range(n_steps + 1):
        ledger.append(state.t, energy_total(grid, law, state), 0.0,
                      acc.diss_cum, acc.ito_cum, acc.mart)
        if step < n_steps:
            acc.step_increments(state, table[step], dt)
            state = step_em(grid, model, stepper, state, dt, table[step])
    return ledger


def run_batch_residuals(grid, model, state0, dt, n_steps, seed, members,
                        stepper=StepperConfig()):
    """March ``members`` members as one batch; each member's residual over the run.

    The residual is :meth:`EnergyLedger.residual` from the first to the last
    step, member by member.
    """
    law = model.law_eff
    table = np.stack([WienerPath(seed, m, model.modes, dt).table(n_steps)
                      for m in range(members)])
    acc = LedgerAccumulator(grid, law, model.visc, model.noise, stepper.rho_floor,
                            members=members)
    state = state0.batch(members)
    energy0 = energy_total(grid, law, state)
    for step in range(n_steps):
        acc.step_increments(state, table[:, step], dt)
        state = step_em(grid, model, stepper, state, dt, table[:, step])
    return ((energy_total(grid, law, state) + acc.diss_cum)
            - (energy0 + acc.ito_cum + acc.mart))


@pytest.mark.parametrize("sizes", [(32,), (16, 16)])
def test_batched_accumulator_matches_member_loop(sizes):
    grid = Grid(sizes)
    rng = np.random.default_rng(8)
    members, dt, n_steps = 3, 1e-3, 4
    model = ModelConfig(law=LAW, visc=Viscosity(1e-2, 5e-3),
                        noise=NoiseModel(K=(0.1, 0.0), L=(0.05, 0.1)))
    batch = State(np.stack([1.0 + 0.1 * random_smooth_scalar(grid, rng)
                            for _ in range(members)]),
                  np.stack([0.1 * random_smooth_vector(grid, rng)
                            for _ in range(members)]))
    table = np.stack([WienerPath(2, m, model.modes, dt).table(n_steps)
                      for m in range(members)])
    acc = LedgerAccumulator(grid, LAW, model.visc, model.noise, members=members)
    singles = [LedgerAccumulator(grid, LAW, model.visc, model.noise)
               for _ in range(members)]
    for step in range(n_steps):
        acc.step_increments(batch, table[:, step], dt)
        for m, one in enumerate(singles):
            one.step_increments(batch.member(m), table[m, step], dt)
        batch = step_em(grid, model, StepperConfig(), batch, dt, table[:, step])
    for m, one in enumerate(singles):
        assert (acc.diss_cum[m], acc.ito_cum[m], acc.mart[m]) == (
            one.diss_cum, one.ito_cum, one.mart)
    assert np.all(acc.diss_cum > 0) and np.all(acc.mart != 0)


class TestTotalEnergy:
    def test_dirac_at_unit_rest(self, grid1d):
        ym = build_ym(grid1d, [State(np.ones(64), np.zeros((1, 64)))])
        assert total_energy(grid1d, ym, 0.0, LAW) == pytest.approx(0.0, abs=1e-14)

    def test_hand_value(self, grid1d):
        # Dirac at (2, 2 e1) on the 1-torus: (0.5 * 4/2 + P(2)) * 2 pi = 3 * 2 pi
        ym = build_ym(grid1d, [State(np.full(64, 2.0), np.full((1, 64), 2.0))])
        assert total_energy(grid1d, ym, 0.0, LAW) == pytest.approx(6 * np.pi)

    def test_brute_force_oracle(self, grid1d, rng):
        rho = rng.uniform(0.4, 2.0, (5, 64))
        mom = rng.normal(0.0, 0.7, (5, 1, 64))
        ym = EmpiricalYoungMeasure(grid1d, rho, mom)
        acc = 0.0
        for c in range(64):
            for i in range(5):
                acc += (0.5 * mom[i, 0, c] ** 2 / rho[i, c]
                        + potential_delta(LAW, rho[i, c]))
        expected = acc / 5 * grid1d.cell_volume + 0.25
        assert total_energy(grid1d, ym, 0.25, LAW) == pytest.approx(expected, rel=1e-12)


class TestResidual:
    def test_equilibrium_zero(self, grid1d):
        model = ModelConfig(law=LAW, visc=Viscosity(1e-2, 2e-2))
        ledger = run_member_ledger(grid1d, model,
                                   State(np.ones(64), np.zeros((1, 64))), 1e-3, 50)
        assert abs(ledger.residual(0, -1)) < 1e-12

    def test_deterministic_bound(self, grid1d):
        # K = 0: the martingale vanishes and the residual is the discrete
        # energy-balance error, O(dt) small
        x = grid1d.coordinates()[0]
        model = ModelConfig(law=LAW, visc=Viscosity(1e-2, 2e-2))
        st = State(1 + 0.1 * np.sin(x), (0.05 * np.cos(x))[None].copy())
        dt, n = 2e-3, 250
        ledger = run_member_ledger(grid1d, model, st, dt, n)
        e0 = ledger.energy[0]
        t_span = ledger.times[-1] - ledger.times[0]
        assert ledger.residual(0, -1) <= 5.0 * dt * e0 * t_span

    def test_residual_halves_with_dt(self, grid1d):
        x = grid1d.coordinates()[0]
        model = ModelConfig(law=LAW, visc=Viscosity(1e-2, 2e-2))
        st = State(1 + 0.1 * np.sin(x), (0.05 * np.cos(x))[None].copy())
        r1 = abs(run_member_ledger(grid1d, model, st, 2e-3, 250).residual())
        r2 = abs(run_member_ledger(grid1d, model, st, 1e-3, 500).residual())
        assert 1.5 <= r1 / r2 <= 2.5

    def test_stochastic_member_mean(self, grid1d):
        # mean member residual <= 5 SE + fitted O(dt) bias
        noise = NoiseModel(K=(0.1,), L=(0.05,))
        model = ModelConfig(law=LAW, visc=Viscosity(1e-2, 2e-2), noise=noise)
        x = grid1d.coordinates()[0]
        st = State(1 + 0.1 * np.sin(x), (0.05 * np.cos(x))[None].copy())
        members = 64
        res = {}
        for dt, n in ((4e-3, 125), (2e-3, 250)):
            vals = run_batch_residuals(grid1d, model, st, dt, n, seed=5, members=members)
            res[dt] = (vals.mean(), vals.std(ddof=1) / np.sqrt(members))
        h = 4e-3
        bias_slope = (h * res[h][0] + (h / 2) * res[h / 2][0]) / (h * h + h * h / 4)
        mean, se = res[h]
        assert mean <= 5 * se + bias_slope * h + 1e-12

    def test_requires_order(self):
        ledger = EnergyLedger()
        ledger.append(0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        ledger.append(1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            ledger.residual(1, 0)


class TestMartingaleStatistics:
    def test_zero_mean_over_members(self, grid1d):
        noise = NoiseModel(K=(0.1,), L=(0.05,))
        model = ModelConfig(law=LAW, visc=Viscosity(1e-2, 2e-2), noise=noise)
        x = grid1d.coordinates()[0]
        st = State(1 + 0.1 * np.sin(x), (0.05 * np.cos(x))[None].copy())
        members = 64
        marts = np.stack([
            np.asarray(run_member_ledger(grid1d, model, st, 4e-3, 60, seed=9,
                                         member=m).martingale)
            for m in range(members)])
        mean = marts.mean(axis=0)
        se = marts.std(axis=0, ddof=1) / np.sqrt(members)
        live = se > 0
        assert np.all(np.abs(mean[live]) <= 5 * se[live])


class TestPoincare:
    def test_dirac_passes(self, grid1d):
        ym = build_ym(grid1d, [State(np.ones(64), np.zeros((1, 64)))])
        assert poincare_ratio(ym, LAW) == 0.0

    def test_two_atom_hand_value(self, grid1d):
        rho = np.ones((2, 64))
        mom = np.stack([np.ones((1, 64)), -np.ones((1, 64))])
        ym = EmpiricalYoungMeasure(grid1d, rho, mom)
        assert poincare_ratio(ym, LAW) == pytest.approx(2.0, abs=1e-12)

    def test_bounded_density_stable_under_doubling(self, grid1d, rng):
        # empirical bound sweep: with rho in [1/2, 2] the ratio stays <= 4
        # and is stable when the member count doubles
        def make(members):
            rho = rng.uniform(0.5, 2.0, (members, 64))
            mom = rng.normal(0.0, 0.7, (members, 1, 64))
            return poincare_ratio(EmpiricalYoungMeasure(grid1d, rho, mom), LAW)

        r8, r16 = make(8), make(16)
        assert r8 <= 4.0 + 1e-9 and r16 <= 4.0 + 1e-9
        assert abs(r8 - r16) <= 2.0  # same order under doubling


class TestCrossVariation:
    def setup_audit(self, process, n_paths=400, seed=21):
        grid = Grid((16,))
        noise = NoiseModel(K=(0.1,), L=(0.05,))
        model = ModelConfig(law=LAW, visc=Viscosity(1e-2, 2e-2), noise=noise)
        x = grid.coordinates()[0]
        st = State(1 + 0.1 * np.sin(x), (0.05 * np.cos(x))[None].copy())
        return cross_variation_audit(grid, model, StepperConfig(), st,
                                     horizon=0.2, n_steps=20, n_paths=n_paths,
                                     process=process, seed=seed)

    def test_deterministic_process_vanishes(self):
        report = self.setup_audit(SmoothItoProcess(ds=(0.0,)))
        assert report["pass"]
        assert np.max(np.abs(report["mean_diff"])) < 1e-14

    def test_first_wiener_component(self):
        report = self.setup_audit(SmoothItoProcess(ds=(1.0,)))
        assert report["pass"]

    def test_independent_path_vanishes(self):
        report = self.setup_audit(SmoothItoProcess(ds=(1.0,), independent_seed=777))
        assert report["pass"]


def test_ledger_columns_roundtrip():
    ledger = EnergyLedger()
    for i in range(4):
        ledger.append(0.1 * i, 1.0 + i, 0.1, 0.2 * i, 0.05 * i, 0.01 * i)
    cols = ledger.as_columns()
    assert list(cols["t"]) == pytest.approx([0.0, 0.1, 0.2, 0.3])
    assert cols["residual"][0] == 0.0
    assert len(cols) == 7

import numpy as np
import pytest

from torusgas.constitutive import PressureLaw, Viscosity, potential_delta, stress_contract
from torusgas.dynamics import ModelConfig, State, StepperConfig, step_em
from torusgas.ensemble import EmpiricalYoungMeasure, dissipation_defect, member_sums
from torusgas.grid import Grid, random_smooth_scalar, random_smooth_vector
from torusgas.ledger import (EnergyLedger, LedgerAccumulator, dissipation_rate, march,
                             poincare_ratio, pooled_ledger)
from torusgas.noise import NoiseModel, member_tables

from oracles import SmoothItoProcess, build_ym, cross_variation_audit, sampled_march

LAW = PressureLaw(1.0, 2.0)


def deterministic_ledger(grid, model, state0, dt, n_steps):
    """The ledger of a noiseless march, sampled every step."""
    return sampled_march(grid, model, StepperConfig(), state0, dt, np.zeros((n_steps, 0)),
                         1)[0]


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
    table = member_tables(2, members, model.modes, dt, n_steps)
    acc = LedgerAccumulator(grid, LAW, model.visc, model.noise, members=members)
    singles = [LedgerAccumulator(grid, LAW, model.visc, model.noise)
               for _ in range(members)]
    for step in range(n_steps):
        for m, one in enumerate(singles):
            step_em(grid, model, StepperConfig(), batch.rows(m), dt, table[m, step], ledger=one)
        batch = step_em(grid, model, StepperConfig(), batch, dt, table[:, step], ledger=acc)
    for m, one in enumerate(singles):
        assert (acc.diss_cum[m], acc.ito_cum[m], acc.mart[m]) == (
            one.diss_cum, one.ito_cum, one.mart)
    assert np.all(acc.diss_cum > 0) and np.all(acc.mart != 0)


@pytest.mark.parametrize("sizes", [(32,), (16, 16)], ids=["1-D", "2-D"])
def test_martingale_matches_mode_sum(sizes):
    # one step's martingale increment against its per-mode form
    # sum_k (int u . G_k dx) dW_k; in 2-D mode 1's density term acts on axis 1
    grid = Grid(sizes)
    rng = np.random.default_rng(5)
    members = 3
    noise = NoiseModel(K=(0.1, 0.2), L=(0.05, -0.1))
    batch = State(np.stack([1.0 + 0.1 * random_smooth_scalar(grid, rng)
                            for _ in range(members)]),
                  np.stack([0.1 * random_smooth_vector(grid, rng)
                            for _ in range(members)]))
    dW = rng.normal(0.0, 0.03, (members, noise.modes))
    acc = LedgerAccumulator(grid, LAW, None, noise, members=members)
    step_em(grid, ModelConfig(law=LAW, noise=noise), StepperConfig(), batch, 1e-3, dW,
            ledger=acc)
    u = batch.mom / batch.rho[grid.comp(None)]
    oracle = sum(grid.integrate(np.sum(u * noise.apply_mode(k, grid, batch.rho, batch.mom),
                                       axis=1)) * dW[:, k]
                 for k in range(noise.modes))
    assert np.all(oracle != 0)
    np.testing.assert_allclose(acc.mart, oracle, rtol=1e-13, atol=0)


@pytest.mark.parametrize("sizes", [(32,), (16, 8), (8, 8, 8)], ids=["1-D", "2-D", "3-D"])
@pytest.mark.parametrize("batch", [None, 3], ids=["single", "batch"])
def test_dissipation_rate_matches_stress_contraction(sizes, batch):
    # Parseval on the velocity spectrum against the real-space integral of
    # S(grad u) : grad u, on white noise, so the Nyquist modes are populated
    grid = Grid(sizes)
    rng = np.random.default_rng(12)
    visc = Viscosity(0.7, 0.3)
    lead = () if batch is None else (batch,)
    u = rng.standard_normal((*lead, grid.dim, *sizes))
    grad_u = grid.gradient_vector(u)
    c = -grid.dim - 1  # stress_contract reads the tensor axes first
    direct = grid.integrate(stress_contract(visc, np.moveaxis(grad_u, (c - 1, c), (0, 1))))
    rate = dissipation_rate(grid, visc, grid.fwd(u))
    assert np.shape(rate) == lead
    assert np.all(np.asarray(direct) > 0)
    np.testing.assert_allclose(rate, direct, rtol=1e-13, atol=0)


@pytest.mark.parametrize("sizes", [(32,), (16, 16)], ids=["1-D", "2-D"])
def test_ledger_step_makes_only_the_drift_transforms(sizes, monkeypatch):
    # the ledger reuses the drift's velocity spectrum: a viscous, noisy march
    # step makes the drift's 4 forward and 2 inverse FFT calls, no more
    grid = Grid(sizes)
    rng = np.random.default_rng(3)
    model = ModelConfig(law=LAW, visc=Viscosity(1e-2, 5e-3),
                        noise=NoiseModel(K=(0.1, 0.0), L=(0.05, 0.1)))
    state = State(1.0 + 0.1 * random_smooth_scalar(grid, rng),
                  0.1 * random_smooth_vector(grid, rng)).batch(2)
    table = member_tables(6, 2, model.modes, 1e-3, 1)
    acc = LedgerAccumulator(grid, LAW, model.visc, model.noise, members=2)
    calls = []

    def counted(fn):
        def call(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return call

    for name in ("rfft", "irfft", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    march(grid, model, StepperConfig(), state, 1e-3, table, acc)
    assert len(calls) == 6
    assert sum(name.startswith("irfft") for name in calls) == 2
    assert np.all(acc.diss_cum > 0) and np.all(acc.ito_cum > 0) and np.all(acc.mart != 0)


def test_ledger_refuses_the_imex_step():
    grid = Grid((16,))
    state = State(np.ones(16), np.zeros((1, 16)))
    acc = LedgerAccumulator(grid, LAW, None, NoiseModel())
    with pytest.raises(ValueError, match="explicit step"):
        step_em(grid, ModelConfig(law=LAW), StepperConfig(semi_implicit=True), state, 1e-3,
                ledger=acc)


@pytest.mark.parametrize("sizes", [(32,), (16, 16)], ids=["1-D", "2-D"])
def test_batched_march_matches_member_marches(sizes):
    # every member of a batch march keeps the ledger and the sampled states
    # of its own single-member march, at every sample and to the last bit
    grid = Grid(sizes)
    rng = np.random.default_rng(8)
    members, dt, n_steps, stride = 3, 1e-3, 6, 2
    model = ModelConfig(law=LAW, visc=Viscosity(1e-2, 5e-3),
                        noise=NoiseModel(K=(0.1, 0.0), L=(0.05, 0.1)))
    state0 = State(1.0 + 0.1 * random_smooth_scalar(grid, rng),
                   0.1 * random_smooth_vector(grid, rng))
    table = member_tables(4, members, model.modes, dt, n_steps)
    batch, batch_states = sampled_march(grid, model, StepperConfig(), state0, dt, table,
                                        stride)
    assert batch.energy.shape == (members, n_steps // stride + 1)
    assert np.all(np.diff(batch.martingale, axis=1) != 0)  # a row per sample
    for m in range(members):
        one, states = sampled_march(grid, model, StepperConfig(), state0, dt, table[m],
                                    stride)
        np.testing.assert_array_equal(batch.times, one.times)
        for name in ("energy", "defect", "diss_cum", "ito_cum", "martingale"):
            np.testing.assert_array_equal(getattr(batch, name)[m], getattr(one, name))
        assert batch.residual(0, -1)[m] == one.residual(0, -1)
        for b, single in zip(batch_states, states, strict=True):
            np.testing.assert_array_equal(b.rho[m], single.rho)
            np.testing.assert_array_equal(b.mom[m], single.mom)


class TestTotalEnergy:
    # the pooled ledger's energy: int <nu; 0.5|m|^2/rho + P(rho)> dx + D, from
    # the atoms' member sums at one sample
    @staticmethod
    def total_energy(grid, ym):
        members = EnergyLedger.of_rows([0.0], [np.zeros((4, ym.n_atoms))])
        sums = member_sums(LAW, ym.rho_atoms, ym.mom_atoms)
        return pooled_ledger(members, grid, LAW, None, [sums], ym.n_atoms).energy[0]

    def test_dirac_at_unit_rest(self, grid1d):
        ym = build_ym(grid1d, [State(np.ones(64), np.zeros((1, 64)))])
        assert self.total_energy(grid1d, ym) == pytest.approx(0.0, abs=1e-14)

    def test_hand_value(self, grid1d):
        # Dirac at (2, 2 e1) on the 1-torus: (0.5 * 4/2 + P(2)) * 2 pi = 3 * 2 pi
        ym = build_ym(grid1d, [State(np.full(64, 2.0), np.full((1, 64), 2.0))])
        assert self.total_energy(grid1d, ym) == pytest.approx(6 * np.pi)

    def test_brute_force_oracle(self, grid1d, rng):
        rho = rng.uniform(0.4, 2.0, (5, 64))
        mom = rng.normal(0.0, 0.7, (5, 1, 64))
        ym = EmpiricalYoungMeasure(grid1d, rho, mom)
        acc = 0.0
        for c in range(64):
            for i in range(5):
                acc += (0.5 * mom[i, 0, c] ** 2 / rho[i, c]
                        + potential_delta(LAW, rho[i, c]))
        expected = (acc / 5 * grid1d.cell_volume
                    + dissipation_defect(grid1d, member_sums(LAW, rho, mom), 5, LAW)[1])
        assert self.total_energy(grid1d, ym) == pytest.approx(expected, rel=1e-12)


class TestResidual:
    def test_equilibrium_zero(self, grid1d):
        model = ModelConfig(law=LAW, visc=Viscosity(1e-2, 2e-2))
        ledger = deterministic_ledger(grid1d, model,
                                      State(np.ones(64), np.zeros((1, 64))), 1e-3, 50)
        assert abs(ledger.residual(0, -1)) < 1e-12

    def test_deterministic_bound(self, grid1d):
        # K = 0: the martingale vanishes and the residual is the discrete
        # energy-balance error, O(dt) small
        x = grid1d.coordinates()[0]
        model = ModelConfig(law=LAW, visc=Viscosity(1e-2, 2e-2))
        st = State(1 + 0.1 * np.sin(x), (0.05 * np.cos(x))[None].copy())
        dt, n = 2e-3, 250
        ledger = deterministic_ledger(grid1d, model, st, dt, n)
        e0 = ledger.energy[0]
        t_span = ledger.times[-1] - ledger.times[0]
        assert ledger.residual(0, -1) <= 5.0 * dt * e0 * t_span

    def test_residual_halves_with_dt(self, grid1d):
        x = grid1d.coordinates()[0]
        model = ModelConfig(law=LAW, visc=Viscosity(1e-2, 2e-2))
        st = State(1 + 0.1 * np.sin(x), (0.05 * np.cos(x))[None].copy())
        r1 = abs(deterministic_ledger(grid1d, model, st, 2e-3, 250).residual())
        r2 = abs(deterministic_ledger(grid1d, model, st, 1e-3, 500).residual())
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
            table = member_tables(5, members, noise.modes, dt, n)
            vals = sampled_march(grid1d, model, StepperConfig(), st, dt, table,
                                 n)[0].residual(0, -1)
            res[dt] = (vals.mean(), vals.std(ddof=1) / np.sqrt(members))
        h = 4e-3
        bias_slope = (h * res[h][0] + (h / 2) * res[h / 2][0]) / (h * h + h * h / 4)
        mean, se = res[h]
        assert mean <= 5 * se + bias_slope * h + 1e-12

    def test_requires_order(self):
        ledger = EnergyLedger(np.array([0.0, 1.0]), np.ones(2), *np.zeros((4, 2)))
        with pytest.raises(ValueError):
            ledger.residual(1, 0)


class TestMartingaleStatistics:
    def test_zero_mean_over_members(self, grid1d):
        noise = NoiseModel(K=(0.1,), L=(0.05,))
        model = ModelConfig(law=LAW, visc=Viscosity(1e-2, 2e-2), noise=noise)
        x = grid1d.coordinates()[0]
        st = State(1 + 0.1 * np.sin(x), (0.05 * np.cos(x))[None].copy())
        members = 64
        table = member_tables(9, members, noise.modes, 4e-3, 60)
        marts = sampled_march(grid1d, model, StepperConfig(), st, 4e-3, table,
                              1)[0].martingale
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
    i = np.arange(4.0)
    ledger = EnergyLedger(0.1 * i, 1.0 + i, np.full(4, 0.1), 0.2 * i, 0.05 * i, 0.01 * i)
    cols = ledger.as_columns()
    assert list(cols["t"]) == pytest.approx([0.0, 0.1, 0.2, 0.3])
    assert cols["residual"][0] == 0.0
    assert list(cols["residual"]) == [ledger.residual(0, k) for k in range(4)]
    assert len(cols) == 7
    # a batch ledger: one residual row per member
    batch = EnergyLedger(ledger.times, *(np.stack([c, 2 * c]) for c in (
        ledger.energy, ledger.defect, ledger.diss_cum, ledger.ito_cum, ledger.martingale)))
    np.testing.assert_array_equal(batch.as_columns()["residual"],
                                  np.stack([cols["residual"], 2 * cols["residual"]]))

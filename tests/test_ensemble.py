import threading
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusgas.constitutive import PressureLaw, potential_delta
from torusgas import config, driver, ensemble
from torusgas.dynamics import SimulationError, State
from torusgas.ensemble import (ConvexityError, EmpiricalYoungMeasure,
                               EnsembleError, Observable, by_member_range,
                               defect_domination_audit, dissipation_defect,
                               expect, fit_line, member_sums, momentum_defect,
                               momentum_defect_total, velocity_oscillation_field)
from torusgas.grid import Grid
from torusgas.sweep import SweepConfig, run_sweep

from oracles import build_ym

LAW = PressureLaw(1.0, 2.0)


def random_ym(grid, members, rng, rho_lo=0.3, rho_hi=2.5):
    rho = rng.uniform(rho_lo, rho_hi, (members, *grid.sizes))
    mom = rng.normal(0.0, 0.8, (members, grid.dim, *grid.sizes))
    return EmpiricalYoungMeasure(grid, rho, mom)


def defect(ym, law=LAW):
    """The defect field and D of a measure's atoms, from their member sums."""
    return dissipation_defect(ym.grid, member_sums(law, ym.rho_atoms, ym.mom_atoms),
                              ym.n_atoms, law)


def two_atom_ym(grid):
    """The hand-computed example: atoms (rho=1, m=+1) and (rho=1, m=-1)."""
    rho = np.ones((2, *grid.sizes))
    mom = np.stack([np.ones((grid.dim, *grid.sizes)),
                    -np.ones((grid.dim, *grid.sizes))])
    if grid.dim > 1:
        mom[:, 1:] = 0.0
    return EmpiricalYoungMeasure(grid, rho, mom)


class TestBuild:
    def test_single_member_is_dirac(self, grid1d, rng):
        st_ = State(rng.uniform(0.5, 2, 64), rng.normal(size=(1, 64)))
        ym = build_ym(grid1d, [st_])
        assert ym.n_atoms == 1
        assert np.array_equal(ym.rho_atoms[0], st_.rho)

    def test_duplicated_member_same_expectations(self, grid1d, rng):
        st_ = State(rng.uniform(0.5, 2, 64), rng.normal(size=(1, 64)))
        one = build_ym(grid1d, [st_])
        two = build_ym(grid1d, [st_, State(st_.rho.copy(), st_.mom.copy())])
        obs = Observable(lambda r, m: r * np.sum(m, axis=1), name="rho m")
        assert np.allclose(expect(one, obs), expect(two, obs), atol=0)

    def test_weights_sum_to_one(self, grid2d, rng):
        ym = random_ym(grid2d, 100, rng)
        unit = expect(ym, Observable(lambda r, m: np.ones_like(r)))
        assert np.array_equal(unit, np.ones(grid2d.sizes))

    def test_empty_rejected(self, grid1d):
        with pytest.raises(EnsembleError):
            build_ym(grid1d, [])


class TestExpect:
    def test_dirac(self, grid1d):
        ym = EmpiricalYoungMeasure(grid1d, np.full((1, 64), 2.0),
                                   np.zeros((1, 1, 64)))
        out = expect(ym, Observable(lambda r, m: r, name="rho"))
        assert np.array_equal(out, np.full(64, 2.0))

    def test_linear_observable_equals_mean(self, grid1d, rng):
        ym = random_ym(grid1d, 9, rng)
        obs = Observable(lambda r, m: 2 * r + m[:, 0], name="linear")
        expected = 2 * ym.rho_atoms.mean(axis=0) + ym.mom_atoms[:, 0].mean(axis=0)
        assert np.allclose(expect(ym, obs), expected, atol=1e-14)

    def test_brute_force_cells(self, grid1d, rng):
        # independent summation oracle at randomly chosen cells
        ym = random_ym(grid1d, 13, rng)
        obs = Observable(lambda r, m: np.sum(m * m, axis=1) / r, name="|m|^2/rho")
        field = expect(ym, obs)
        cells = rng.integers(0, 64, size=10)
        for c in cells:
            acc = 0.0
            for i in range(13):
                acc += float(ym.mom_atoms[i, 0, c] ** 2 / ym.rho_atoms[i, c])
            assert field[c] == pytest.approx(acc / 13, rel=1e-14)

    def test_nonfinite_reported_with_cell(self, grid1d, rng):
        ym = random_ym(grid1d, 3, rng)
        bad = Observable(lambda r, m: np.where(r > 0, 1.0, 1.0) / 0.0, name="bad")
        with pytest.raises(EnsembleError, match="bad"):
            with np.errstate(divide="ignore"):
                expect(ym, bad)


class TestDissipationDefect:
    def test_dirac_zero(self, grid1d, rng):
        ym = build_ym(grid1d, [State(rng.uniform(0.5, 2, 64),
                                     rng.normal(size=(1, 64)))])
        field, D = defect(ym)
        assert np.max(np.abs(field)) < 1e-14
        assert abs(D) < 1e-13

    def test_two_atom_hand_value(self, grid1d):
        # kinetic part <|m|^2/rho>/2 = 1/2, barycenter kinetic 0, P defect 0
        ym = two_atom_ym(grid1d)
        field, D = defect(ym)
        assert np.allclose(field, 0.5, atol=1e-14)
        assert D == pytest.approx(0.5 * 2 * np.pi)

    def test_brute_force_oracle(self, grid1d, rng):
        # direct evaluation of both sides on random 2-atom measures
        for _ in range(20):
            ym = random_ym(grid1d, 2, rng)
            field, _ = defect(ym)
            c = int(rng.integers(0, 64))
            atoms = [(ym.rho_atoms[i, c], ym.mom_atoms[i, 0, c]) for i in range(2)]
            mean_e = np.mean([0.5 * m * m / r + potential_delta(LAW, r)
                              for r, m in atoms])
            br = np.mean([r for r, _ in atoms])
            bm = np.mean([m for _, m in atoms])
            bary_e = 0.5 * bm * bm / br + potential_delta(LAW, br)
            assert field[c] == pytest.approx(mean_e - bary_e, abs=1e-12)

    def test_jensen_nonnegative_thousand_measures(self, grid1d, rng):
        violations = 0
        for _ in range(1000):
            rho = rng.uniform(0.1, 4.0, (2, 1))
            mom = rng.normal(0.0, 1.5, (2, 1, 1))
            grid = None
            mean_e = np.mean(0.5 * mom[:, 0, 0] ** 2 / rho[:, 0]
                             + potential_delta(LAW, rho[:, 0]))
            br, bm = rho.mean(), mom.mean()
            if mean_e - (0.5 * bm * bm / br + potential_delta(LAW, br)) < -1e-12:
                violations += 1
        assert violations == 0

    def test_convexity_violation_raises(self, grid1d, rng, monkeypatch, tmp_path):
        # a negative gap stops the estimator, the sweep and simulate alike
        ym = random_ym(grid1d, 4, rng)

        def fake(sums, n, law):
            cells = sums.shape[1:]
            return np.zeros(cells), np.full(cells, -1.0)

        monkeypatch.setattr(ensemble, "energy_jensen_gap", fake)
        with pytest.raises(ConvexityError):
            defect(ym)
        with pytest.raises(ConvexityError):
            run_sweep(SweepConfig(grid_sizes=(16,), eps_schedule=(1.0,), horizon=0.05,
                                  members=2, n_samples=1, v0_kind="zero", se_groups=2))
        cfg = config.resolve({}, {"grid.sizes": [16], "run.T": 0.01, "run.n_steps": 2,
                                  "run.samples": 1, "ensemble.members": 2,
                                  "init.kind": "density_wave", "init.amplitude": 0.1})
        with pytest.raises(ConvexityError):
            driver.run_simulate(cfg, str(tmp_path / "sim"))


class TestMomentumDefect:
    def test_dirac_zero(self, grid2d, rng):
        ym = build_ym(grid2d, [State(rng.uniform(0.5, 2, grid2d.sizes),
                                     rng.normal(size=(2, *grid2d.sizes)))])
        kin, press = momentum_defect(ym, LAW)
        assert np.max(np.abs(kin)) < 1e-13
        assert np.max(np.abs(press)) < 1e-13

    def test_two_atom_hand_value(self, grid2d):
        # atoms (1, +e1), (1, -e1): kinetic defect = e1 x e1, pressure defect 0
        ym = two_atom_ym(grid2d)
        kin, press = momentum_defect(ym, LAW)
        assert np.allclose(kin[0, 0], 1.0, atol=1e-14)
        assert np.max(np.abs(kin[0, 1])) < 1e-14
        assert np.max(np.abs(kin[1, 1])) < 1e-14
        assert np.max(np.abs(press)) < 1e-14

    def test_kinetic_part_psd(self, grid2d, rng):
        ym = random_ym(grid2d, 6, rng)
        kin, _ = momentum_defect(ym, LAW)
        mats = kin.reshape(2, 2, -1).transpose(2, 0, 1)
        eigs = np.linalg.eigvalsh(0.5 * (mats + mats.transpose(0, 2, 1)))
        assert eigs.min() > -1e-12

    @pytest.mark.parametrize("gamma", [1.4, 2.0, 3.0])
    def test_trace_identity(self, grid2d, rng, gamma):
        # symbolic identity: trace = 2 kinetic-energy defect
        # + N (gamma - 1) potential defect, exact for the power law
        law = PressureLaw(1.0, gamma)
        ym = random_ym(grid2d, 5, rng)
        total = momentum_defect_total(ym, law)
        trace = np.trace(total, axis1=0, axis2=1)
        rho, mom = ym.rho_atoms, ym.mom_atoms
        kin_def = (np.mean(0.5 * np.sum(mom**2, axis=1) / rho, axis=0)
                   - 0.5 * np.sum(mom.mean(axis=0) ** 2, axis=0) / rho.mean(axis=0))
        pot_def = (np.mean(potential_delta(law, rho), axis=0)
                   - potential_delta(law, rho.mean(axis=0)))
        rhs = 2 * kin_def + 2 * (gamma - 1) * pot_def
        assert np.max(np.abs(trace - rhs)) < 1e-12


class TestDominationAudit:
    def test_dirac_passes(self, grid1d, rng):
        ym = build_ym(grid1d, [State(np.ones(64), np.zeros((1, 64)))])
        audit = defect_domination_audit(ym, LAW)
        assert audit["pass"]
        assert audit["max_ratio"] == 0.0

    def test_two_atom_ratio_meets_bound(self, grid1d):
        # hand computation: |e1 x e1| / (1/2) = 2 = c exactly
        audit = defect_domination_audit(two_atom_ym(grid1d), LAW)
        assert audit["constant"] == 2.0
        assert audit["max_ratio"] == pytest.approx(2.0, abs=1e-12)
        assert audit["pass"]

    def test_random_ensembles_thousand_cells(self, rng):
        grid = Grid((1024,))
        for gamma in (1.4, 2.0, 3.0):
            audit = defect_domination_audit(random_ym(grid, 7, rng),
                                            PressureLaw(1.0, gamma))
            assert audit["max_ratio"] <= audit["constant"] + 1e-9


class TestPermutationInvariance:
    def test_defects_invariant(self, grid1d, rng):
        ym = random_ym(grid1d, 8, rng)
        perm = rng.permutation(8)
        ym_p = EmpiricalYoungMeasure(grid1d, ym.rho_atoms[perm], ym.mom_atoms[perm])
        f1, d1 = defect(ym)
        f2, d2 = defect(ym_p)
        # summation order changes under permutation; only roundoff may differ
        assert np.max(np.abs(f1 - f2)) < 1e-14
        assert d1 == pytest.approx(d2, abs=1e-13)


@given(m1=st.floats(-3, 3), m2=st.floats(-3, 3),
       r1=st.floats(0.1, 4), r2=st.floats(0.1, 4))
@settings(max_examples=150, deadline=None)
def test_jensen_property_two_atoms(m1, m2, r1, r2):
    grid = Grid((8,))
    rho = np.stack([np.full(8, r1), np.full(8, r2)])
    mom = np.stack([np.full((1, 8), m1), np.full((1, 8), m2)])
    field, D = defect(EmpiricalYoungMeasure(grid, rho, mom))
    assert D >= -1e-12
    # equality iff the atoms coincide
    if abs(m1 - m2) < 1e-12 and abs(r1 - r2) < 1e-12:
        assert np.max(np.abs(field)) < 1e-10


def test_velocity_oscillation_two_atoms(grid1d):
    osc = velocity_oscillation_field(two_atom_ym(grid1d))
    assert np.allclose(osc, 1.0, atol=1e-14)


class TestFitLine:
    def test_matches_polyfit(self, rng):
        for n in (2, 3, 5, 20):
            x = rng.uniform(-3.0, 3.0, n)
            y = rng.normal(0.0, 1.0, n) + 0.7 * x
            slope, intercept = fit_line(x, y)
            want_slope, want_intercept = np.polyfit(x, y, 1)
            assert slope == pytest.approx(want_slope, rel=1e-12)
            assert intercept == pytest.approx(want_intercept, rel=1e-12)

    def test_repeated_x_is_rejected(self):
        # np.polyfit returns an arbitrary slope here and only warns
        with pytest.raises(ValueError, match="two distinct x values"):
            fit_line(np.log([0.5, 0.5, 0.5]), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="two distinct x values"):
            fit_line([1.0], [2.0])


class TestByMemberRange:
    @staticmethod
    def bounds(lo, hi):
        return lo, hi

    @staticmethod
    def cpus(monkeypatch, n):
        monkeypatch.setattr(ensemble.os, "cpu_count", lambda: n)

    def test_contiguous_ranges_in_member_order(self, monkeypatch):
        self.cpus(monkeypatch, 8)
        assert by_member_range(10, 4, self.bounds) == [(0, 3), (3, 6), (6, 8), (8, 10)]
        assert by_member_range(3, 8, self.bounds) == [(0, 1), (1, 2), (2, 3)]

    def test_one_range_runs_without_a_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a single range started a pool")

        monkeypatch.setattr(ensemble, "_pool", no_pool)
        assert by_member_range(5, 1, self.bounds) == [(0, 5)]
        self.cpus(monkeypatch, 1)
        assert by_member_range(5, 8, self.bounds) == [(0, 5)]

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        # a huge thread count makes one range per CPU, each on its own
        # worker; no thread is started here
        workers = []

        class SerialPool:
            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        def serial_pool(max_workers):
            workers.append(max_workers)
            return SerialPool()

        monkeypatch.setattr(ensemble, "_pool", serial_pool)
        self.cpus(monkeypatch, 2)
        assert by_member_range(1000, 100000, self.bounds) == [(0, 500), (500, 1000)]
        assert workers == [2]

    def test_pool_kept_between_calls(self, monkeypatch):
        # a march of one call per sample interval reuses one pool's threads
        self.cpus(monkeypatch, 2)
        names = set()

        def march(lo, hi):
            names.add(threading.current_thread().name)
            return lo

        for _ in range(6):
            assert by_member_range(4, 2, march) == [0, 2]
        assert len(names) <= 2

    def test_first_failing_range_raises(self, monkeypatch):
        # failures that the one batch does not repeat keep range order
        self.cpus(monkeypatch, 8)

        def march(lo, hi):
            if lo > 0:
                raise ValueError(f"range from {lo}")
            return lo

        with pytest.raises(ValueError, match="range from 3"):
            by_member_range(10, 4, march)

    def test_split_run_raises_the_one_batch_failure(self, monkeypatch):
        # members 4 and 7 fail in ranges [3, 6) and [6, 8); the one batch of
        # all ten members fails first on member 7, and that is what is raised
        self.cpus(monkeypatch, 8)
        ran = []

        def march(lo, hi):
            ran.append((lo, hi))
            if lo <= 7 < hi:
                raise SimulationError("boom at step 1", None, 7 - lo)
            if lo <= 4 < hi:
                raise SimulationError("boom at step 6", None, 4 - lo)
            return lo

        with pytest.raises(SimulationError, match="member 7: boom at step 1"):
            by_member_range(10, 4, march)
        # every range is joined, then the one batch is replayed
        assert sorted(ran[:4]) == [(0, 3), (3, 6), (6, 8), (8, 10)]
        assert ran[4:] == [(0, 10)]

    def test_failure_of_one_range_only_is_raised(self, monkeypatch):
        # a failure keyed on the range length passes in the one batch, so
        # the failing range's own failure is raised
        self.cpus(monkeypatch, 8)

        def march(lo, hi):
            if hi - lo == 2 and lo > 6:
                raise ValueError(f"range from {lo}")
            return lo

        with pytest.raises(ValueError, match="range from 8"):
            by_member_range(10, 4, march)

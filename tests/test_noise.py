import binascii
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.random import Generator, Philox

from oracles import accepted_normals, probe_ziggurat
from torusgas import noise, verify
from torusgas.grid import Grid
from torusgas.noise import (NoiseError, NoiseModel, WienerPath, _philox_normals,
                            coarsen, domination_audit, lipschitz_audit, member_tables)


@pytest.fixture
def model():
    return NoiseModel(K=(0.1, 0.0, 0.3), L=(0.0, 0.5, 0.2))


class TestWienerPath:
    def test_zero_dt_gives_zeros(self):
        path = WienerPath(1, 0, 4, 0.0)
        assert np.array_equal(path.increments(3), np.zeros(4))

    def test_determinism(self):
        a = WienerPath(12, 5, 3, 0.25)
        b = WienerPath(12, 5, 3, 0.25)
        for step in (0, 1, 17):
            assert np.array_equal(a.increments(step), b.increments(step))

    def test_distinct_keys_differ(self):
        base = WienerPath(12, 5, 3, 0.25).increments(0)
        assert not np.array_equal(base, WienerPath(13, 5, 3, 0.25).increments(0))
        assert not np.array_equal(base, WienerPath(12, 6, 3, 0.25).increments(0))
        assert not np.array_equal(base, WienerPath(12, 5, 3, 0.25).increments(1))

    def test_clt_mean_bound(self):
        # CLT oracle: |mean| < 4 sqrt(dt / n) for n i.i.d. N(0, dt) draws
        dt = 0.01
        n = 1_000_000
        path = WienerPath(7, 0, 1, dt)
        draws = np.concatenate([path.increments(s) for s in range(200)])
        # 200 steps x 1 mode is too few; draw one big step instead
        big = WienerPath(7, 0, n, dt)
        sample = big.increments(0)
        assert abs(sample.mean()) < 4 * np.sqrt(dt / n)
        assert sample.var() == pytest.approx(dt, rel=0.02)
        assert draws.size == 200

    def test_variance_scale(self):
        path = WienerPath(3, 1, 20000, 0.25)
        sample = path.increments(0)
        assert sample.var() == pytest.approx(0.25, rel=0.05)


class TestPhiloxDraw:
    @staticmethod
    def fresh(seed, member, step, count):
        """The draw from a newly built generator keyed (seed, member), counter step."""
        key = np.array([seed, member], dtype=np.uint64)
        counter = np.array([0, 0, 0, step], dtype=np.uint64)
        return Generator(Philox(key=key, counter=counter)).standard_normal(count)

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 3])
    @pytest.mark.parametrize("step", [0, 1, 2**40])
    def test_matches_fresh_generator(self, seed, step):
        # counts straddling the 4-word Philox buffer; a partial draw before
        # each one must not leak into the next key
        for count in (0, 1, 3, 4, 5, 9):
            _philox_normals(seed + 1, 11, step + 1, 3)
            expected = self.fresh(seed, 5, step, count)
            np.testing.assert_allclose(_philox_normals(seed, 5, step, count), expected,
                                       rtol=0, atol=0)

    @pytest.mark.parametrize("count", [129, 70_001])
    def test_long_row_matches_fresh_generator(self, count):
        # past 32 blocks a row's Philox words are computed by numpy, and past
        # 2**14 blocks in more than one batch
        assert (_philox_normals(3, 2**64 - 1, 2**63, count).tobytes()
                == self.fresh(3, 2**64 - 1, 2**63, count).tobytes())

    def test_threads_draw_same_tables(self):
        paths = [WienerPath(4, m, 3, 0.01) for m in range(8)]
        serial = [p.table(200) for p in paths]
        # switch threads often, so that a generator shared between them
        # would be re-keyed between another thread's keying and drawing
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(lambda p: p.table(200), paths, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, threaded):
            assert np.array_equal(a, b)


class TestTable:
    def test_rows_are_step_increments(self):
        path = WienerPath(9, 2, 3, 0.125)
        table = path.table(16)
        assert table.shape == (16, 3)
        for step in (0, 5, 15):
            assert np.array_equal(table[step], path.increments(step))

    def test_zero_modes(self):
        assert WienerPath(9, 2, 0, 0.125).table(4).shape == (4, 0)

    @staticmethod
    def oracle(seed, members, modes, dt, n_steps):
        """Row ``(m, s)`` drawn by numpy from the ``(seed, m)`` stream at step ``s``."""
        out = np.zeros((len(members), n_steps, modes))
        for i, member in enumerate(members):
            for step in range(n_steps):
                out[i, step] = (TestPhiloxDraw.fresh(seed & noise._U64, member, step, modes)
                                * np.sqrt(dt))
        return out

    @staticmethod
    def count_slow_rows(monkeypatch):
        rows = []
        draw = WienerPath.increments

        def counted(path, step):
            rows.append((path.member, path.modes, step))
            return draw(path, step)

        monkeypatch.setattr(WienerPath, "increments", counted)
        return rows

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 3, -1])
    @pytest.mark.parametrize("modes", [0, 1, 3, 4, 5])
    def test_equals_per_row_draws(self, seed, modes, monkeypatch):
        slow = self.count_slow_rows(monkeypatch)
        members, dt, n_steps = [0, 5, 2**63], 0.03, 128
        expected = self.oracle(seed, members, modes, dt, n_steps)
        for m, member in enumerate(members):
            table = WienerPath(seed, member, modes, dt).table(n_steps)
            np.testing.assert_allclose(table, expected[m], rtol=0, atol=0)
            assert table.tobytes() == expected[m].tobytes()
        if modes > 4:
            assert len(slow) == len(members) * n_steps
        elif modes:  # both the decoded rows and the per-step draw ran
            assert 0 < len(slow) < len(members) * n_steps

    def test_ensemble_equals_per_row_draws(self, monkeypatch):
        # seed 1 at 48 x 256 leaves 194 of its 12,288 rows to the per-step draw
        slow = self.count_slow_rows(monkeypatch)
        table = member_tables(1, 48, 1, 0.01, 256)
        expected = self.oracle(1, range(48), 1, 0.01, 256)
        np.testing.assert_allclose(table, expected, rtol=0, atol=0)
        assert table.tobytes() == expected.tobytes()
        assert 0 < len(slow) < 0.05 * table.shape[0] * table.shape[1]
        assert len(set(slow)) == len(slow)

    def test_verify_guards_the_decoded_rows(self, monkeypatch):
        slow = self.count_slow_rows(monkeypatch)
        assert verify.check_noise_determinism()[0]
        # verify draws every row of its key set one at a time, so a row that
        # its table also left to the per-step draw is counted twice: the key
        # set holds 4-mode rows of members 0 and 1 walked past a rejected
        # word, and a 5-mode row
        walked = {row for row in slow if slow.count(row) > 1}
        assert any(member < 2 and modes == 4 for member, modes, _ in walked)
        assert any(modes == 5 for _, modes, _ in walked)
        ki, wi, fi = noise._TABLES
        monkeypatch.setattr(noise, "_TABLES", (ki, wi * (1.0 + 2.0**-52), fi))
        assert not verify.check_noise_determinism()[0]

    def test_threads_set_up_tables_alike(self, monkeypatch):
        serial = member_tables(4, 8, 3, 0.01, 200)
        # tables decoded afresh from the embedded constant draw the serial
        # tables in every thread, and no thread can write to them
        raw = binascii.a2b_base64(noise._TABLES_BASE64)
        dtypes = ("<u8", "<f8", "<f8")
        monkeypatch.setattr(noise, "_TABLES", tuple(np.frombuffer(raw, dtype, 256, 2048 * i)
                                                    for i, dtype in enumerate(dtypes)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(lambda m: WienerPath(4, m, 3, 0.01).table(200),
                                         range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert not any(table.flags.writeable for table in noise._TABLES)
        for m, table in enumerate(threaded):
            assert table.tobytes() == serial[m].tobytes()

    def test_rows_equal_numpy_draws(self, monkeypatch):
        # 10^5 keyed rows of 1 to 8 modes, each against numpy's own generator
        slow = self.count_slow_rows(monkeypatch)
        tails = 0
        for modes in range(1, 9):
            table = member_tables(2**64 - modes, 50, modes, 1.0, 250)
            expected = self.oracle(2**64 - modes, range(50), modes, 1.0, 250)
            assert table.tobytes() == expected.tobytes()
            tails += np.count_nonzero(np.abs(table) > noise._R)
        # rows of up to 4 modes walked past words rejected in their first
        # 4-word block, rows of more modes walked across a block boundary,
        # and draws from the tail beyond the base layer
        assert sum(modes <= 4 for _, modes, _ in slow) > 100
        assert sum(modes > 4 for _, modes, _ in slow) == 4 * 50 * 250
        assert tails > 0


def test_embedded_ziggurat_tables_are_numpys():
    ki, wi, _ = noise._TABLES
    probed_wi, proven_ki = probe_ziggurat()
    assert probed_wi[1:].tobytes() == wi[1:].tobytes()
    assert np.all(proven_ki <= ki)
    # numpy accepts a word at once just below each bound and not at it
    layers = np.flatnonzero(ki)
    gen = Generator(Philox())
    below = accepted_normals(gen, [(int(ki[i] - 1) << 9) | int(i) for i in layers])
    at = accepted_normals(gen, [(int(ki[i]) << 9) | int(i) for i in layers])
    assert np.all(np.isfinite(below)) and np.all(np.isnan(at))


class TestCoarsen:
    def test_pairwise_aggregation(self):
        fine = WienerPath(9, 2, 3, 2.0 / 16).table(16)
        coarse = coarsen(fine, 8)
        for step in range(8):
            agg = fine[2 * step] + fine[2 * step + 1]
            assert np.allclose(agg, coarse[step], atol=0, rtol=0)

    def test_identity_and_total(self):
        fine = WienerPath(9, 2, 3, 2.0 / 16).table(16)
        assert np.array_equal(coarsen(fine, 16), fine)
        assert np.allclose(coarsen(fine, 1)[0], fine.sum(axis=0), rtol=1e-12, atol=1e-15)

    def test_member_stack_along_step_axis(self):
        tables = [WienerPath(9, m, 3, 2.0 / 16).table(16) for m in range(3)]
        stacked = coarsen(np.stack(tables), 4)
        assert stacked.shape == (3, 4, 3)
        for m, table in enumerate(tables):
            assert np.array_equal(stacked[m], coarsen(table, 4))

    def test_rejects_nondivisor(self):
        table = WienerPath(0, 0, 1, 1.0 / 16).table(16)
        for n_steps in (5, 0, 32):
            with pytest.raises(NoiseError):
                coarsen(table, n_steps)


class TestApplyG:
    def test_zero_state_maps_to_zero(self, model):
        grid = Grid((16,))
        for mode in range(model.modes):
            out = model.apply_mode(mode, grid, np.zeros(16), np.zeros((1, 16)))
            assert np.max(np.abs(out)) == 0.0

    def test_density_coupling_gives_constant(self):
        grid = Grid((16,))
        model = NoiseModel(K=(0.1,), L=(0.0,))
        rng = np.random.default_rng(0)
        out = model.apply_mode(0, grid, np.ones(16), rng.normal(size=(1, 16)))
        assert np.allclose(out, 0.1)

    def test_momentum_coupling_scales_momentum(self):
        grid = Grid((64,))
        x = grid.coordinates()[0]
        model = NoiseModel(K=(0.0,), L=(0.5,))
        mom = np.sin(x)[None]
        out = model.apply_mode(0, grid, np.ones(64), mom)
        assert np.allclose(out, 0.5 * mom)

    def test_mode_out_of_range(self, model):
        grid = Grid((16,))
        with pytest.raises(NoiseError):
            model.apply_mode(3, grid, np.ones(16), np.zeros((1, 16)))

    def test_momentum_kick_matches_mode_sum(self, model):
        grid = Grid((16, 16))
        rng = np.random.default_rng(1)
        rho = rng.uniform(0.5, 2.0, grid.sizes)
        mom = rng.normal(size=(2, *grid.sizes))
        dW = rng.normal(size=model.modes)
        direct = model.momentum_kick(grid, rho, mom, dW)
        manual = sum(dW[k] * model.apply_mode(k, grid, rho, mom)
                     for k in range(model.modes))
        assert np.allclose(direct, manual, atol=1e-14)


class TestItoCorrection:
    def test_zero_state(self, model):
        grid = Grid((16,))
        out = model.ito_density(grid, np.zeros(16), np.zeros((1, 16)))
        assert np.max(np.abs(out)) == 0.0

    def test_single_mode_density_coupling(self):
        # rho |K|^2 = 2 for K = 1 at rho = 2
        grid = Grid((16,))
        model = NoiseModel(K=(1.0,), L=(0.0,))
        out = model.ito_density(grid, np.full(16, 2.0), np.zeros((1, 16)))
        assert np.allclose(out, 2.0)

    def test_matches_definition(self, model):
        # sum_k |G_k(rho, m)|^2 / rho at the velocity u = m / rho
        grid = Grid((16,))
        rng = np.random.default_rng(2)
        rho = rng.uniform(0.5, 2.0, grid.sizes)
        mom = rng.normal(size=(1, *grid.sizes))
        direct = model.ito_density(grid, rho, mom / rho)
        manual = sum(
            np.sum(model.apply_mode(k, grid, rho, mom) ** 2, axis=0) / rho
            for k in range(model.modes)
        )
        assert np.allclose(direct, manual, atol=1e-13)

    def test_domination_bound(self, model):
        # pointwise sub-linearity audit with c = 2 sum(K^2 + L^2)
        audit = domination_audit(model, Grid((32,)), n_states=16, seed=5)
        assert audit["pass"]
        assert audit["constant"] == pytest.approx(
            2 * sum(k * k + l * l for k, l in zip(model.K, model.L)))


class TestGeneralKind:
    def test_declared_constant_violation_detected(self, monkeypatch):
        # a coefficient 50 times steeper in rho than the declared |K| + |L|
        def too_steep(self, mode, grid, rho, mom):
            out = np.zeros_like(mom)
            out[0] = 5.0 * rho
            return out

        monkeypatch.setattr(NoiseModel, "apply_mode", too_steep)
        model = NoiseModel(K=(0.05,), L=(0.05,))
        report = lipschitz_audit(model, Grid((16,)), n_pairs=2000, seed=4)
        assert not report["pass"]
        assert report["violations"] > 0

    def test_affine_lipschitz_exact(self, model):
        report = lipschitz_audit(model, Grid((16,)), n_pairs=2000, seed=6)
        assert report["pass"]


def test_alpha_sum(model):
    assert model.alpha_sum == pytest.approx(0.1 + 0.5 + 0.5)

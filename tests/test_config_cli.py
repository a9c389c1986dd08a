import os
import sys

import numpy as np
import pytest

from torusgas import config as config_mod
from torusgas import snapshots
from torusgas.cli import main
from torusgas.config import ConfigError, parse_text, resolve
from torusgas.dynamics import SimulationError, initial_flow
from torusgas.sweep import SweepError


MINIMAL_1D = """
# minimal stochastic 1-D run
grid.sizes = 64
run.T = 0.05
run.n_steps = 20
run.samples = 10
model.nu = 0.01
noise.modes = 1
noise.K = 0.1
noise.L = 0.05
ensemble.members = 3
init.kind = density_wave
"""


class TestConfigParsing:
    def test_roundtrip(self):
        cfg = resolve(parse_text(MINIMAL_1D))
        assert cfg["grid.sizes"] == [64]
        assert cfg["noise.K"] == [0.1]
        assert cfg["model.gamma"] == 2.0  # default filled
        again = resolve(parse_text(config_mod.dumps(cfg)))
        assert again == cfg

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError, match=r"model\.spice"):
            resolve(parse_text("model.spice = 1.0"))

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match=r"run\.T"):
            resolve(parse_text("run.T = fast"))

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_text("run.T = 1\nrun.T = 2")

    def test_cross_validation(self):
        with pytest.raises(ConfigError, match="gamma"):
            resolve(parse_text("model.gamma = 0.9"))
        with pytest.raises(ConfigError, match="noise"):
            resolve(parse_text("noise.modes = 2\nnoise.K = 0.1\nnoise.L = 0.1,0.2"))
        with pytest.raises(ConfigError, match="sizes"):
            resolve(parse_text("grid.sizes = 48"))

    def test_comments_and_blanks(self):
        raw = parse_text("# comment only\n\nrun.T = 2.0  # trailing\n")
        assert raw == {"run.T": "2.0"}


class TestSnapshots:
    def test_field_roundtrip(self, tmp_path, grid2d, rng):
        values = rng.standard_normal((3, *grid2d.sizes))
        path = tmp_path / "f.snap"
        snapshots.write_field(path, grid2d, values, 0.75)
        out, t = snapshots.read_field(path)
        assert t == 0.75
        assert np.array_equal(out, values)

    def test_scalar_roundtrip(self, tmp_path, grid1d, rng):
        values = rng.standard_normal(grid1d.sizes)
        path = tmp_path / "s.snap"
        snapshots.write_field(path, grid1d, values, 0.0)
        out, _ = snapshots.read_field(path)
        assert np.array_equal(out[0], values)

    def test_tampered_header_raises(self, tmp_path, grid1d, rng):
        path = tmp_path / "t.snap"
        snapshots.write_field(path, grid1d, rng.standard_normal(grid1d.sizes), 0.0)
        blob = path.read_bytes()
        path.write_bytes(b"9 bogus header\n" + blob.split(b"\n", 1)[1])
        with pytest.raises(snapshots.SnapshotError):
            snapshots.read_field(path)

    def test_truncated_payload_raises(self, tmp_path, grid1d, rng):
        path = tmp_path / "p.snap"
        snapshots.write_field(path, grid1d, rng.standard_normal(grid1d.sizes), 0.0)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(snapshots.SnapshotError, match="payload"):
            snapshots.read_field(path)


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.mark.parametrize("command,line", [
    ("weak-strong", "ws.members = 0"),
    ("weak-strong", "ws.n_steps = 0"),
    ("weak-strong", "ws.samples = 0"),
    ("weak-strong", "ws.n_steps = 16\nws.samples = 5"),  # ws.samples must divide ws.n_steps
    ("weak-strong", "ws.samples = 40\nws.n_steps = 16"),
    ("weak-strong", "ws.refine = 0"),
    ("weak-strong", "ws.refine = 3"),
    ("limit-sweep", "sweep.members = 2"),
    ("limit-sweep", "sweep.eps = "),
    ("limit-sweep", "sweep.eps = 0.5,-0.25"),
    ("limit-sweep", "sweep.eps = 0.5,0.5,0.5"),  # no rate slope from repeated eps
    ("limit-sweep", "sweep.v0 = vortex"),
    ("limit-sweep", "sweep.v0 = density_wave"),  # the limit data needs density 1
    ("limit-sweep", "sweep.v0 = shear\ngrid.sizes = 16"),  # not solenoidal in 1-D
    ("limit-sweep", "grid.sizes = 64"),
    ("limit-sweep", "grid.sizes = 16,16,16"),
    ("simulate", "run.T = -0.5"),
    ("simulate", "run.T = 0"),
    ("simulate", "run.T = inf"),
    ("simulate", "run.T = nan"),
    ("weak-strong", "run.T = 0"),
    ("simulate", "run.n_steps = -20"),
    ("simulate", "run.n_steps = 25"),  # run.samples = 10 must divide it
    ("simulate", "stepper.dt = -0.01"),
    ("limit-sweep", "sweep.nu_coupling = zero"),
    ("limit-sweep", "sweep.nu_coupling = const\nsweep.const_nu = 0"),
    ("limit-sweep", "sweep.nu_coupling = const\nsweep.const_nu = -0.01"),
    ("limit-sweep", "sweep.lambda_coupling = const\nsweep.const_nu = -0.01"),
    ("limit-sweep", "sweep.nu_coupling = eps3"),
    ("limit-sweep", "sweep.lambda_coupling = eps3"),
    ("limit-sweep", "sweep.delta_coupling = const"),
    ("simulate", "init.kind = taylor_green\ngrid.sizes = 16"),
    ("simulate", "init.kind = vortex"),
    ("simulate", "run.snapshot_every = -2"),
    ("weak-strong", "ws.eta = -1"),
])
def test_bad_experiment_value_is_config_error(tmp_path, capsys, command, line):
    # rejected up front with the key named, not as a crash mid-run (exit 1)
    cfg = write_cfg(tmp_path, line + "\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert line.split("=")[0].strip() in capsys.readouterr().err


@pytest.mark.parametrize("command,driver_fn,exc", [
    ("simulate", "run_simulate",
     SimulationError("CFL violation: dt=2.000e-02 exceeds bound 1.959e-02 "
                     "at step 97 (t=1.9400)", None, 31)),
    ("weak-strong", "run_weak_strong",
     SimulationError("restricted reference density lost positivity at step 16 (t=0.2500)",
                     None, 4)),
    ("limit-sweep", "run_limit_sweep",
     SweepError("prepared density lost positivity; shrink eps or delta")),
    ("limit-sweep", "run_limit_sweep",
     SimulationError("reference non-finite flow at step 5 (t=0.1562)", None, 3)),
], ids=["simulation", "relative-energy", "sweep", "euler"])
def test_run_failure_exits_3(tmp_path, capsys, monkeypatch, command, driver_fn, exc):
    # a failed run prints one line naming the command and exits 3; code 1
    # stays reserved for a failed criterion
    from torusgas import driver

    def fails(*args, **kwargs):
        raise exc

    monkeypatch.setattr(driver, driver_fn, fails)
    assert main([command, "--out", str(tmp_path / "x")]) == 3
    assert capsys.readouterr().err == f"{command} failed: {exc}\n"


class TestSimulateCommand:
    def test_artifacts_and_csv_rows(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL_1D)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        names = sorted(os.listdir(out))
        assert "ledger.csv" in names
        assert "config.resolved.cfg" in names
        assert "FORMAT" in names
        assert "summary.json" in names
        assert "ym_rho.snap" in names and "ym_mom.snap" in names
        with open(os.path.join(out, "ledger.csv")) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "t,E,D,dissipation_cum,ito_cum,martingale,residual"
        assert len(lines) == 1 + 11  # samples + initial time

    def test_determinism_same_seed(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL_1D)
        outs = []
        for tag in ("a", "b"):
            out = str(tmp_path / tag)
            assert main(["simulate", "--config", cfg, "--out", out, "--seed", "5"]) == 0
            with open(os.path.join(out, "ledger.csv"), "rb") as fh:
                outs.append(fh.read())
        assert outs[0] == outs[1]

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL_1D)
        blobs = []
        for threads in ("1", "2", "8"):
            out = str(tmp_path / f"w{threads}")
            assert main(["simulate", "--config", cfg, "--out", out,
                         "--threads", threads]) == 0
            with open(os.path.join(out, "ledger.csv"), "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_different_seed_changes_martingale(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL_1D)
        columns = []
        for seed in ("1", "2"):
            out = str(tmp_path / f"s{seed}")
            main(["simulate", "--config", cfg, "--out", out, "--seed", seed])
            with open(os.path.join(out, "ledger.csv")) as fh:
                lines = fh.read().strip().splitlines()[1:]
            columns.append([line.split(",")[5] for line in lines])
        assert columns[0] != columns[1]

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, "model.spice = 1\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_snapshot_cadence(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL_1D + "run.snapshot_every = 2\n")
        out = str(tmp_path / "snap")
        main(["simulate", "--config", cfg, "--out", out])
        snaps = [n for n in os.listdir(out) if n.startswith("state_")]
        assert len(snaps) == 6  # samples 0,2,4,6,8 plus the final one

    def test_shared_paths_collapse_defect(self, tmp_path):
        # one Wiener path for all members: identical trajectories, D = 0
        cfg = write_cfg(tmp_path, MINIMAL_1D + "ensemble.shared_paths = true\n")
        out = str(tmp_path / "shared")
        main(["simulate", "--config", cfg, "--out", out])
        with open(os.path.join(out, "ledger.csv")) as fh:
            rows = fh.read().strip().splitlines()[1:]
        d_col = [abs(float(r.split(",")[2])) for r in rows]
        assert max(d_col) < 1e-13

    def test_cfl_failure_leaves_one_member_snapshot(self, tmp_path, monkeypatch):
        # 10 steps over T = 2 is far beyond the CFL bound: the first batched
        # step fails, naming the member, and leaves that member's state, the
        # same at any thread count
        from torusgas import driver, ensemble
        from torusgas.dynamics import SimulationError

        monkeypatch.setattr(ensemble.os, "cpu_count", lambda: 8)
        text = (MINIMAL_1D.replace("run.T = 0.05", "run.T = 2.0")
                .replace("run.n_steps = 20", "run.n_steps = 10"))
        cfg = config_mod.load(write_cfg(tmp_path, text))
        state0 = initial_flow(driver.build_grid(cfg), cfg["init.kind"], cfg["init.amplitude"])
        messages = set()
        for threads in (1, 2, 8):
            out = str(tmp_path / f"fail{threads}")
            with pytest.raises(SimulationError, match="member 0: CFL violation") as err:
                driver.run_simulate(cfg, out, threads=threads)
            messages.add(str(err.value))
            values, t = snapshots.read_field(os.path.join(out, "diagnostic_failure.snap"))
            assert values.shape == (1 + 1, 64) and t == 0.0
            np.testing.assert_array_equal(values[0], state0.rho)
            np.testing.assert_array_equal(values[1:], state0.mom)
        assert len(messages) == 1

    def test_failure_in_later_chunk_names_ensemble_member(self, tmp_path, monkeypatch):
        # --threads 2 splits 3 members into chunks [0, 2) and [2, 3); a failure
        # of the second chunk's first member is member 2 of the ensemble
        from torusgas import driver, ledger
        from torusgas.dynamics import SimulationError

        march = ledger.march

        def second_chunk_fails(*args):
            if len(args[5]) == 1:  # the chunk's increment table
                raise SimulationError("boom", args[3], 0)
            return march(*args)

        monkeypatch.setattr(ledger, "march", second_chunk_fails)
        cfg = config_mod.load(write_cfg(tmp_path, MINIMAL_1D))
        with pytest.raises(SimulationError, match="member 2: boom") as err:
            driver.run_simulate(cfg, str(tmp_path / "fail"), threads=2)
        assert err.value.member == 2

    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_earliest_failure_at_any_thread_count(self, tmp_path, monkeypatch, threads):
        # member 7's path turns non-finite at step 1 and member 2's at step 6:
        # one batch fails on member 7, and so does every split into ranges;
        # the snapshot is member 7's state at the start of step 1
        from torusgas import driver, ensemble
        from torusgas.dynamics import step_em

        monkeypatch.setattr(ensemble.os, "cpu_count", lambda: 8)
        tables = driver.member_tables

        def poisoned(*args):
            out = tables(*args).copy()
            out[7, 1] = out[2, 6] = np.nan
            return out

        monkeypatch.setattr(driver, "member_tables", poisoned)
        cfg = config_mod.load(write_cfg(tmp_path, MINIMAL_1D), {"ensemble.members": 10})

        def failure(threads):
            out = str(tmp_path / f"t{threads}")
            with pytest.raises(SimulationError) as err:
                driver.run_simulate(cfg, out, threads=threads)
            snap = snapshots.read_field(os.path.join(out, "diagnostic_failure.snap"))
            return err.value, snap

        exc, (values, t) = failure(threads)
        dt = cfg["run.T"] / cfg["run.n_steps"]
        assert str(exc) == f"member 7: non-finite state after step 1 (t={dt:.4f})"
        assert exc.member == 7 and t == exc.state.t == pytest.approx(dt)
        grid = driver.build_grid(cfg)
        model, stepper = driver.build_model(cfg), driver.build_stepper(cfg)
        row = poisoned(cfg["run.seed"], 10, model.modes, dt, cfg["run.n_steps"])[7]
        state0 = initial_flow(grid, cfg["init.kind"], cfg["init.amplitude"])
        start = step_em(grid, model, stepper, state0, dt, row[0])
        np.testing.assert_array_equal(values, np.concatenate([start.rho[None], start.mom]))
        with pytest.raises(SimulationError, match="non-finite state after step 1"):
            step_em(grid, model, stepper, exc.state, dt, row[1])
        one_exc, (one_values, _) = failure(1)
        assert str(exc) == str(one_exc)
        np.testing.assert_array_equal(values, one_values)

    def test_summary_reports_floor_and_noise_metadata(self, tmp_path):
        import json

        cfg = write_cfg(tmp_path, MINIMAL_1D)
        out = str(tmp_path / "meta")
        main(["simulate", "--config", cfg, "--out", out])
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        assert summary["floored_cells_total"] == 0
        assert summary["noise_alpha_sum"] == pytest.approx(0.15)


class TestVerifyCommand:
    def test_default_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_injected_fault_fails(self, capsys, monkeypatch):
        # convexity-violating estimator must trip the Jensen check
        from torusgas import ensemble as ens

        def fake(rho, mom, law):
            cells = rho.shape[1:]
            return np.zeros(cells), np.full(cells, -1.0)

        monkeypatch.setattr(ens, "energy_jensen_gap", fake)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "ensemble.jensen" in out
        assert "FAIL" in out

    def test_rejects_threads(self, capsys):
        # the invariant suite has no member axis to split over threads
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "weak-strong", "limit-sweep"])
@pytest.mark.parametrize("threads", ["0", "-5"])
def test_threads_below_one_rejected(command, threads, capsys):
    # refused by the parser, before any configuration is read or run started
    with pytest.raises(SystemExit) as exc:
        main([command, "--threads", threads])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


WS_FREEZING = """
# strong multiplicative noise: members 0 and 7 cross the gradient threshold
# at t = 0.0625, the others never do
grid.sizes = 16
run.T = 0.5
model.nu = 0.01
model.grad_threshold = 0.12
noise.modes = 1
noise.K = 0.1
noise.L = 1.0
ws.n_steps = 32
ws.members = 8
ws.samples = 8
"""

SWEEP_FREEZING = """
# members 0, 7 and 9 stop mid-run and the others run to T; 10 members make
# standard-error groups of unequal size
grid.sizes = 16,16
run.T = 0.25
sweep.eps = 1.0,0.5,0.25
sweep.members = 10
sweep.samples = 4
sweep.grad_threshold = 1.15
noise.modes = 1
noise.K = 0.1
noise.L = 0.5
"""


@pytest.mark.parametrize("command,text,csv", [
    ("weak-strong", WS_FREEZING, "weak_strong.csv"),
    ("limit-sweep", SWEEP_FREEZING, "sweep.csv"),
], ids=["weak-strong", "limit-sweep"])
def test_thread_count_does_not_change_bytes(tmp_path, monkeypatch, command, text, csv):
    # criterion 9 for the other two commands, on runs where members freeze;
    # frequent thread switches would expose a lost write to a shared array.
    # Eight CPUs are reported, so --threads 8 makes eight ranges on any host
    import json

    from torusgas import ensemble

    monkeypatch.setattr(ensemble.os, "cpu_count", lambda: 8)
    cfg = write_cfg(tmp_path, text)
    blobs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for threads in ("1", "2", "8"):
            out = tmp_path / f"t{threads}"
            assert main([command, "--config", cfg, "--out", str(out),
                         "--threads", threads]) in (0, 1)
            blobs.append([(out / name).read_bytes() for name in (csv, "summary.json")])
    finally:
        sys.setswitchinterval(interval)
    assert blobs[0] == blobs[1] == blobs[2]
    tau_min = np.min(json.loads(blobs[0][1])["tau_min"])
    assert 0.0 < tau_min < config_mod.load(cfg)["run.T"]


class TestWeakStrongCommand:
    def test_self_comparison(self, tmp_path):
        text = """
grid.sizes = 32
run.T = 0.125
model.nu = 0.01
noise.modes = 1
noise.K = 0.1
noise.L = 0.05
ws.n_steps = 16
ws.members = 2
ws.refine = 1
ws.samples = 4
"""
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "ws")
        assert main(["weak-strong", "--config", cfg, "--out", out]) == 0
        with open(os.path.join(out, "weak_strong.csv")) as fh:
            header, *rows = fh.read().strip().splitlines()
        assert header.split(",")[:3] == ["t", "Emv_mean", "Emv_se"]
        assert "remainder_term_1" in header and "remainder_term_9" in header
        assert header.split(",")[-1] == "gronwall_residual"
        emv = [float(r.split(",")[1]) for r in rows]
        assert max(emv) < 1e-12

    def test_cfl_failure_names_member(self, tmp_path):
        # 4 steps over T = 2 is far beyond the CFL bound of the coarse grid
        from torusgas import driver
        from torusgas.dynamics import SimulationError

        text = """
grid.sizes = 32
run.T = 2.0
model.nu = 0.01
noise.modes = 1
noise.K = 0.1
noise.L = 0.05
ws.n_steps = 4
ws.members = 3
ws.samples = 4
"""
        cfg = config_mod.load(write_cfg(tmp_path, text))
        with pytest.raises(SimulationError, match=r"member \d: CFL violation") as err:
            driver.run_weak_strong(cfg, str(tmp_path / "fail"))
        assert err.value.member in range(3)

    def test_fine_failure_leaves_member_snapshot(self, tmp_path, monkeypatch):
        # a NaN fine increment of member 1 fails its fine march at fine step
        # 3, while its coarse run sees the path without it; the snapshot is
        # the member's state on the fine grid at the start of that step
        from torusgas import driver, relative

        tables, coarsen = relative.member_tables, relative.coarsen

        def poisoned(*args):
            out = tables(*args).copy()
            out[1, 3] = np.nan
            return out

        monkeypatch.setattr(relative, "member_tables", poisoned)
        monkeypatch.setattr(relative, "coarsen",
                            lambda table, n: coarsen(np.nan_to_num(table), n))
        text = """
grid.sizes = 32
run.T = 0.125
model.nu = 0.01
noise.modes = 1
noise.K = 0.1
noise.L = 0.05
ws.n_steps = 16
ws.members = 2
ws.samples = 4
"""
        cfg = config_mod.load(write_cfg(tmp_path, text))
        out = str(tmp_path / "fail")
        with pytest.raises(SimulationError) as err:
            driver.run_weak_strong(cfg, out)
        dt_f = 0.125 / 32
        assert str(err.value) == f"member 1: non-finite state after step 3 (t={3 * dt_f:.4f})"
        values, t = snapshots.read_field(os.path.join(out, "diagnostic_failure.snap"))
        state = err.value.state
        assert values.shape == (1 + 1, 64) and t == state.t == pytest.approx(3 * dt_f)
        np.testing.assert_array_equal(values, np.concatenate([state.rho[None], state.mom]))
        assert np.isfinite(values).all()


class TestLimitSweepCommand:
    TEXT = """
grid.sizes = 16,16
run.T = 0.125
sweep.eps = 1.0,0.5,0.25
sweep.members = 4
sweep.samples = 2
noise.modes = 1
noise.K = 0.1
noise.L = 0.05
"""

    def test_three_point_sweep(self, tmp_path):
        cfg = write_cfg(tmp_path, self.TEXT)
        out = str(tmp_path / "sweep")
        code = main(["limit-sweep", "--config", cfg, "--out", out])
        with open(os.path.join(out, "sweep.csv")) as fh:
            header, *rows = fh.read().strip().splitlines()
        assert header == "eps,t,Emv_mean,Emv_se,D_sup,tau_M"
        eps_values = {row.split(",")[0] for row in rows}
        assert len(eps_values) == 3
        import json

        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        assert "slope" in summary and "monotone" in summary
        assert code in (0, 1)  # rate fit may fail at this tiny scale

    def test_zero_and_constant_are_one_flow(self, tmp_path):
        # "zero", the sweep's older name for the fluid at rest, still loads
        outputs = []
        for v0 in ("zero", "constant"):
            cfg = write_cfg(tmp_path, self.TEXT + f"sweep.v0 = {v0}\n", f"{v0}.cfg")
            assert main(["limit-sweep", "--config", cfg, "--out", str(tmp_path / v0)]) in (0, 1)
            outputs.append([(tmp_path / v0 / name).read_bytes()
                            for name in ("summary.json", "sweep.csv")])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("poisoned_call", [0, 1], ids=["reference", "compressible"])
    def test_failure_leaves_member_snapshot(self, tmp_path, monkeypatch, poisoned_call):
        # a NaN increment of member 1 at step 1 fails its reference flow (the
        # first table coarsened) or its compressible step at eps = 1 (the
        # second); the snapshot is the state at the start of that step: the
        # reference's velocity, or density plus momentum
        from torusgas import driver, sweep

        coarsen, calls = sweep.coarsen, []

        def poisoned(table, n):
            out = coarsen(table, n)
            if len(calls) == poisoned_call:
                out = out.copy()
                out[1, 1] = np.nan
            calls.append(n)
            return out

        monkeypatch.setattr(sweep, "coarsen", poisoned)
        cfg = config_mod.load(write_cfg(tmp_path, self.TEXT))
        out = str(tmp_path / "fail")
        with pytest.raises(SimulationError, match="member 1: .*non-finite") as err:
            driver.run_limit_sweep(cfg, out)
        values, t = snapshots.read_field(os.path.join(out, "diagnostic_failure.snap"))
        state = err.value.state
        if poisoned_call == 0:
            assert values.shape == (2, 16, 16)
            np.testing.assert_array_equal(values, state.v)
        else:
            assert values.shape == (1 + 2, 16, 16)
            np.testing.assert_array_equal(values, np.concatenate([state.rho[None], state.mom]))
        assert t == state.t > 0 and np.isfinite(values).all()


def test_snapshot_loader_surfaces_cli_level(tmp_path, grid1d, rng):
    # a tampered artifact must raise the dedicated error, not garbage output
    path = tmp_path / "x.snap"
    snapshots.write_field(path, grid1d, rng.standard_normal(grid1d.sizes), 0.0)
    data = bytearray(path.read_bytes())
    data[0:1] = b"z"
    path.write_bytes(bytes(data))
    with pytest.raises(snapshots.SnapshotError):
        snapshots.read_field(path)

"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion (the PASS lines print on success; pytest's own PASSED/
FAILED markers track the same outcomes without ``-s``).
"""

import os
import time

import numpy as np

from torusgas.cli import main
from torusgas.constitutive import (PressureLaw, Viscosity, potential_delta,
                                   pressure_delta, relative_h)
from torusgas.dynamics import ModelConfig, State, StepperConfig, step_em
from torusgas.ensemble import (EmpiricalYoungMeasure,
                               defect_domination_audit, dissipation_defect, member_sums,
                               expect, momentum_defect_total, Observable)
from torusgas.grid import Grid, random_smooth_scalar, random_smooth_vector, random_solenoidal
from torusgas.noise import NoiseModel, member_tables
from torusgas.relative import WeakStrongConfig, weak_strong_experiment
from torusgas.sweep import SweepConfig, fit_rate, run_sweep

from oracles import SmoothItoProcess, cross_variation_audit, sampled_march

LAW2 = PressureLaw(1.0, 2.0)


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, detail


def test_criterion_1_structural_identities():
    t0 = time.perf_counter()
    worst_pair = worst_gamma = 0.0
    rho = np.linspace(0.1, 10.0, 400)
    h = 1e-6
    for gamma in (1.4, 2.0, 3.0):
        law = PressureLaw(1.0, gamma)
        dP = (potential_delta(law, rho + h) - potential_delta(law, rho - h)) / (2 * h)
        p = pressure_delta(law, rho)
        worst_pair = max(worst_pair, float(np.max(
            np.abs(rho * dP - potential_delta(law, rho) - p) / p)))
        alt = (gamma - 1.0) * potential_delta(law, rho) + law.a * rho
        worst_gamma = max(worst_gamma, float(np.max(np.abs(p - alt) / p)))
    # two-regime lower bound by grid search at alpha = 1/2
    alpha = 0.5
    law = PressureLaw(1.0, 2.0)
    r = np.linspace(alpha, 1 / alpha, 97)
    rho_in = np.linspace(alpha, 1 / alpha, 101)
    R, Rho = np.meshgrid(r, rho_in)
    H = relative_h(law, Rho, R)
    assert float(np.min(H)) >= -1e-12
    gap = np.abs(Rho - R)
    inner = gap > 1e-9
    c1 = float(np.min(H[inner] / gap[inner] ** 2))
    rho_out = np.concatenate([np.linspace(1e-9, alpha / 2, 101),
                              np.linspace(2 / alpha, 60.0, 101)])
    Ro, Rr = np.meshgrid(r, rho_out)
    c2 = float(np.min(relative_h(law, Rr, Ro) / (1.0 + Rr**2)))
    elapsed = time.perf_counter() - t0
    ok = worst_pair < 1e-8 and worst_gamma < 1e-8 and c1 > 0 and c2 > 0 and elapsed < 1.0
    report(1, ok, f"pair {worst_pair:.1e}, gamma-id {worst_gamma:.1e}, "
                  f"c1 {c1:.3f}, c2 {c2:.4f}, {elapsed:.2f}s")


def test_criterion_2_field_calculus():
    t0 = time.perf_counter()
    grid = Grid((64, 64))
    rng = np.random.default_rng(2)
    phi = random_smooth_scalar(grid, rng, kmax=6)
    e_grad = np.max(np.abs(grid.helmholtz_project(grid.gradient(phi))))
    sol = random_solenoidal(grid, rng, kmax=6)
    e_fix = np.max(np.abs(grid.helmholtz_project(sol) - sol))
    v = random_smooth_vector(grid, rng, kmax=6)
    pv = grid.helmholtz_project(v)
    e_idem = np.max(np.abs(grid.helmholtz_project(pv) - pv))
    e_div = np.max(np.abs(grid.divergence(pv)))
    elapsed = time.perf_counter() - t0
    worst = max(e_grad, e_fix, e_idem, e_div)
    ok = worst < 1e-10 and elapsed < 1.0
    report(2, ok, f"max residual {worst:.2e} on 64^2, {elapsed:.2f}s")


def test_criterion_3_conservation_and_energy():
    t0 = time.perf_counter()
    grid = Grid((256,))
    model = ModelConfig(law=LAW2, visc=Viscosity(1e-2, 1e-2))
    x = grid.coordinates()[0]
    state0 = State(1 + 0.1 * np.sin(x), (0.05 * np.cos(x))[None].copy())
    mass0 = grid.integrate(state0.rho)

    drifts = {}
    mass_ok = True
    energy_ok = True
    for dt, n in ((4e-3, 250), (2e-3, 500)):
        ledger, _ = sampled_march(grid, model, StepperConfig(), state0, dt,
                                  np.zeros((n, 0)), 1)
        drifts[dt] = abs(ledger.residual(0, -1))
        e = np.asarray(ledger.energy)
        tol_rate = 5.0 * dt * e[0]
        energy_ok &= bool(np.all(np.diff(e) <= tol_rate * dt + 1e-15))
        # re-run mass by stepping once more (ledger does not track mass)
    st = state0.copy()
    for step in range(250):
        st = step_em(grid, model, StepperConfig(), st, 4e-3)
    mass_ok = abs(grid.integrate(st.rho) - mass0) / mass0 < 1e-12
    ratio = drifts[4e-3] / drifts[2e-3]
    elapsed = time.perf_counter() - t0
    ok = mass_ok and energy_ok and 1.7 <= ratio <= 2.3 and elapsed < 10.0
    report(3, ok, f"mass ok {mass_ok}, energy nonincreasing {energy_ok}, "
                  f"drift ratio {ratio:.2f}, {elapsed:.1f}s")


def test_criterion_4_stochastic_energy_inequality():
    t0 = time.perf_counter()
    grid = Grid((64,))
    noise = NoiseModel(K=(0.1,), L=(0.05,))
    model = ModelConfig(law=LAW2, visc=Viscosity(1e-2, 1e-2), noise=noise)
    x = grid.coordinates()[0]
    state0 = State(1 + 0.1 * np.sin(x), (0.05 * np.cos(x))[None].copy())
    members = 256
    stepper = StepperConfig()

    stats = {}
    marts = None
    for dt, n in ((4e-3, 125), (2e-3, 250)):
        # all members marched as one batch, each on its own Wiener path
        ledger, _ = sampled_march(grid, model, stepper, state0, dt,
                                  member_tables(11, members, noise.modes, dt, n), n // 25)
        residuals = ledger.residual(0, -1)
        stats[dt] = (residuals.mean(), residuals.std(ddof=1) / np.sqrt(members))
        if dt == 4e-3:
            marts = ledger.martingale  # one martingale row per member

    h = 4e-3
    r1, se1 = stats[h]
    r2, _ = stats[h / 2]
    bias_slope = (h * r1 + (h / 2) * r2) / (h * h + h * h / 4)
    residual_ok = r1 <= 5 * se1 + bias_slope * h + 1e-12

    mean = marts.mean(axis=0)
    se = marts.std(axis=0, ddof=1) / np.sqrt(members)
    live = se > 0
    mart_ok = bool(np.all(np.abs(mean[live]) <= 5 * se[live]))
    elapsed = time.perf_counter() - t0
    ok = residual_ok and mart_ok and elapsed < 120.0
    report(4, ok, f"mean residual {r1:.2e} <= 5SE {5 * se1:.2e} + bias "
                  f"{bias_slope * h:.2e}; martingale zero-mean {mart_ok}; "
                  f"{elapsed:.0f}s")


def test_criterion_5_young_measure_layer():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    grid = Grid((8,))
    unit_ok = True
    jensen_violations = 0
    for _ in range(1000):
        rho = rng.uniform(0.1, 4.0, (2, *grid.sizes))
        mom = rng.normal(0.0, 1.5, (2, 1, *grid.sizes))
        ym = EmpiricalYoungMeasure(grid, rho, mom)
        ones = expect(ym, Observable(lambda r, m: np.ones_like(r)))
        unit_ok &= bool(np.all(ones == 1.0))
        field, _ = dissipation_defect(grid, member_sums(LAW2, rho, mom), 2, LAW2)
        jensen_violations += int(np.count_nonzero(field < -1e-12))

    grid_big = Grid((1024,))
    trace_gap = 0.0
    dom_ok = True
    for gamma in (1.4, 2.0, 3.0):
        law = PressureLaw(1.0, gamma)
        rho = rng.uniform(0.3, 2.5, (6, 1024))
        mom = rng.normal(0.0, 0.8, (6, 1, 1024))
        ym = EmpiricalYoungMeasure(grid_big, rho, mom)
        total = momentum_defect_total(ym, law)
        trace = np.trace(total, axis1=0, axis2=1)
        kin_def = (np.mean(0.5 * np.sum(mom**2, axis=1) / rho, axis=0)
                   - 0.5 * np.sum(mom.mean(axis=0) ** 2, axis=0) / rho.mean(axis=0))
        pot_def = (np.mean(potential_delta(law, rho), axis=0)
                   - potential_delta(law, rho.mean(axis=0)))
        rhs = 2 * kin_def + 1 * (gamma - 1) * pot_def
        trace_gap = max(trace_gap, float(np.max(np.abs(trace - rhs))))
        audit = defect_domination_audit(ym, law)
        dom_ok &= audit["max_ratio"] <= audit["constant"] + 1e-9
    elapsed = time.perf_counter() - t0
    ok = (unit_ok and jensen_violations == 0 and trace_gap < 1e-12 and dom_ok
          and elapsed < 5.0)
    report(5, ok, f"<nu;1>=1 {unit_ok}, jensen violations {jensen_violations}, "
                  f"trace gap {trace_gap:.1e}, domination {dom_ok}, {elapsed:.1f}s")


def test_criterion_6_cross_variation():
    t0 = time.perf_counter()
    grid = Grid((16,))
    noise = NoiseModel(K=(0.1,), L=(0.05,))
    model = ModelConfig(law=LAW2, visc=Viscosity(1e-2, 1e-2), noise=noise)
    x = grid.coordinates()[0]
    st = State(1 + 0.1 * np.sin(x), (0.05 * np.cos(x))[None].copy())
    rep = cross_variation_audit(grid, model, StepperConfig(), st, horizon=0.1,
                                n_steps=10, n_paths=10_000,
                                process=SmoothItoProcess(ds=(1.0,)), seed=6)
    elapsed = time.perf_counter() - t0
    ok = rep["pass"] and elapsed < 60.0
    report(6, ok, f"mean diff {rep['mean_diff']} vs 5SE {5 * rep['se']}, "
                  f"{elapsed:.0f}s")


def test_criterion_7_weak_strong_stability():
    t0 = time.perf_counter()
    model = ModelConfig(law=LAW2, visc=Viscosity(1e-2, 1e-2),
                        noise=NoiseModel(K=(0.1,), L=(0.05,)))

    self_cfg = WeakStrongConfig(grid_sizes=(64,), model=model, horizon=0.5,
                                n_steps=128, members=4, seed=7, refine=1,
                                sample_every=16)
    self_max = float(np.max(weak_strong_experiment(self_cfg).emv))

    def gap(sizes, steps):
        cfg = WeakStrongConfig(grid_sizes=(sizes,), model=model, horizon=0.5,
                               n_steps=steps, members=8, seed=2, refine=2,
                               sample_every=steps // 8)
        return float(weak_strong_experiment(cfg).emv_mean[-1])

    shrink = gap(64, 128) / gap(128, 256)

    def fit_c(members):
        cfg = WeakStrongConfig(grid_sizes=(64,), model=model, horizon=0.5,
                               n_steps=128, members=members, seed=3, refine=2,
                               eta=1e-4, sample_every=16)
        return weak_strong_experiment(cfg).gronwall_c

    c1, c2 = fit_c(8), fit_c(16)
    c_stable = abs(c1 - c2) <= 0.3 * max(abs(c1), abs(c2))
    elapsed = time.perf_counter() - t0
    ok = self_max < 1e-12 and shrink >= 1.5 and c_stable and elapsed < 300.0
    report(7, ok, f"self-comparison {self_max:.1e}, refinement shrink "
                  f"{shrink:.2f}x, c {c1:.3f}->{c2:.3f}, {elapsed:.0f}s")


def test_criterion_8_incompressible_inviscid_limit():
    t0 = time.perf_counter()
    cfg = SweepConfig(grid_sizes=(64, 64), eps_schedule=(1.0, 0.5, 0.25, 0.125),
                      law=PressureLaw(1.0, 2.0), horizon=0.5, grad_threshold=2.0,
                      members=64, seed=8, noise=NoiseModel(K=(0.1,), L=(0.05,)),
                      n_samples=8, v0_kind="taylor_green", se_groups=4)
    rep = run_sweep(cfg)
    fit = fit_rate(rep, gamma=cfg.law.gamma)
    elapsed = time.perf_counter() - t0
    ok = (fit["monotone"] and fit["slope"] >= 0.5 and fit["d_sup_nonincreasing"]
          and elapsed < 900.0)
    report(8, ok, f"final E_mv {np.round(rep.final_emv, 4).tolist()}, slope "
                  f"{fit['slope']:.2f} (>= 0.5), D_sup {np.round(rep.d_sup, 4).tolist()} "
                  f"within 2SE {fit['d_sup_nonincreasing']}, {elapsed:.0f}s")


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg_text = """
grid.sizes = 64
run.T = 0.05
run.n_steps = 20
run.samples = 10
model.nu = 0.01
noise.K = 0.1
noise.L = 0.05
ensemble.members = 8
init.kind = density_wave
"""
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(cfg_text)
    blobs = []
    for threads in ("1", "2", "8"):
        out = str(tmp_path / f"t{threads}")
        code = main(["simulate", "--config", str(cfg_path), "--out", out,
                     "--seed", "42", "--threads", threads])
        assert code == 0
        with open(os.path.join(out, "ledger.csv"), "rb") as fh:
            ledger_blob = fh.read()
        with open(os.path.join(out, "observables.csv"), "rb") as fh:
            obs_blob = fh.read()
        blobs.append((ledger_blob, obs_blob))
    elapsed = time.perf_counter() - t0
    ok = blobs[0] == blobs[1] == blobs[2] and elapsed < 60.0
    report(9, ok, f"byte-identical CSVs across 1/2/8 workers, {elapsed:.0f}s")

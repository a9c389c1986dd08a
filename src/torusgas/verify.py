"""Invariant suite behind the ``verify`` subcommand.

Each check returns ``(ok, detail)``; the registry order matches the module
layering.  The checks call the same library surface the simulations use, so
a broken estimator (or an injected fault in a test) shows up here.
"""

from __future__ import annotations

import numpy as np

from .constitutive import (PressureLaw, Viscosity, potential_delta,
                           potential_delta_prime, pressure_delta, relative_h,
                           stress, stress_contract)
from .dynamics import ModelConfig, State, StepperConfig, energy_total, step_em
from .ensemble import (ConvexityError, EmpiricalYoungMeasure, Observable,
                       defect_domination_audit, dissipation_defect,
                       energy_jensen_gap, expect, member_sums, momentum_defect)
from .euler import advection, make_state, pressure_from_projection, step_em_euler
from .grid import Grid, random_smooth_scalar, random_smooth_vector, random_solenoidal
from .ledger import dissipation_rate, poincare_ratio
from .noise import (NoiseModel, WienerPath, coarsen, domination_audit, lipschitz_audit,
                    member_tables)
from .relative import gronwall_check, relative_energy


def _rng(tag: int) -> np.random.Generator:
    return np.random.default_rng((0xC0FFEE, tag))


def check_parseval():
    grid = Grid((64, 64))
    rng = _rng(1)
    worst = 0.0
    for _ in range(3):
        f = random_smooth_scalar(grid, rng, kmax=8)
        a = grid.modal_norm_sq(f)
        b = grid.integrate(f * f)
        worst = max(worst, abs(a - b) / max(abs(b), 1e-30))
    return worst < 1e-12, f"max relative Parseval gap {worst:.2e}"


def check_helmholtz():
    grid = Grid((64, 64))
    rng = _rng(2)
    v = random_smooth_vector(grid, rng, kmax=6)
    pv = grid.helmholtz_project(v)
    e1 = np.max(np.abs(grid.divergence(pv)))
    e2 = np.max(np.abs(grid.helmholtz_project(pv) - pv))
    grad = grid.gradient(random_smooth_scalar(grid, rng, kmax=6))
    e3 = np.max(np.abs(grid.helmholtz_project(grad)))
    sol = random_solenoidal(grid, rng, kmax=6)
    e4 = np.max(np.abs(grid.helmholtz_project(sol) - sol))
    worst = max(e1, e2, e3, e4)
    return worst < 1e-10, f"worst projection residual {worst:.2e}"


def check_grad_div_adjoint():
    grid = Grid((32, 32))
    rng = _rng(3)
    worst = 0.0
    for _ in range(3):
        f = random_smooth_scalar(grid, rng, kmax=5)
        v = random_smooth_vector(grid, rng, kmax=5)
        lhs = grid.integrate(f * grid.divergence(v))
        rhs = -grid.integrate(np.sum(grid.gradient(f) * v, axis=0))
        worst = max(worst, abs(lhs - rhs))
    return worst < 1e-10, f"max adjointness gap {worst:.2e}"


def check_pressure_pair():
    worst = 0.0
    for law in (PressureLaw(1.0, 1.4), PressureLaw(2.0, 2.0),
                PressureLaw(1.0, 3.0), PressureLaw(1.0, 2.0, 0.1, 6.0)):
        rho = np.linspace(0.1, 10.0, 200)
        lhs = rho * potential_delta_prime(law, rho) - potential_delta(law, rho)
        rhs = pressure_delta(law, rho)
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.maximum(rhs, 1e-30))))
    return worst < 1e-12, f"max |rho P' - P - p| / p = {worst:.2e}"


def check_gamma_identity():
    worst = 0.0
    for gamma in (1.4, 2.0, 3.0):
        law = PressureLaw(1.0, gamma)
        rho = np.linspace(0.1, 10.0, 200)
        lhs = pressure_delta(law, rho)
        rhs = (gamma - 1.0) * potential_delta(law, rho) + law.a * rho
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.maximum(lhs, 1e-30))))
    return worst < 1e-12, f"max |p - (g-1)P - a rho| / p = {worst:.2e}"


def check_potential_convexity():
    law = PressureLaw(1.0, 1.4, 0.05, 6.0)
    rho = np.linspace(0.05, 8.0, 400)
    h = rho[1] - rho[0]
    P = potential_delta(law, rho)
    second = P[2:] - 2 * P[1:-1] + P[:-2]
    ok = bool(np.all(second >= -1e-12 * np.maximum(np.abs(P[1:-1]), 1.0) * h))
    return ok, f"min second difference {np.min(second):.2e}"


def check_relative_h():
    rng = _rng(4)
    worst = np.inf
    for law in (PressureLaw(1.0, 1.4), PressureLaw(1.0, 2.0, 0.1, 6.0)):
        rho = rng.uniform(0.05, 5.0, 500)
        r = rng.uniform(0.2, 4.0, 500)
        h = relative_h(law, rho, r)
        worst = min(worst, float(np.min(h)))
        if abs(relative_h(law, 1.7, 1.7)) > 1e-12:
            return False, "H(r, r) != 0"
    return worst >= -1e-12, f"min H = {worst:.2e}"


def check_stress():
    rng = _rng(5)
    grid = Grid((16, 16))
    visc = Viscosity(0.7, 0.3)
    v = random_smooth_vector(grid, rng, kmax=4)
    grad_u = grid.gradient_vector(v)
    S = stress(visc, grad_u)
    div_u = np.trace(grad_u, axis1=0, axis2=1)
    trace_gap = float(np.max(np.abs(np.trace(S, axis1=0, axis2=1)
                                    - grid.dim * visc.lam * div_u)))
    diss_min = float(np.min(stress_contract(visc, grad_u)))
    ok = trace_gap < 1e-12 and diss_min >= -1e-12
    return ok, f"trace gap {trace_gap:.2e}, min dissipation {diss_min:.2e}"


def check_noise_conditions():
    grid = Grid((16,))
    model = NoiseModel(K=(0.1, 0.02), L=(0.05, 0.01))
    lip = lipschitz_audit(model, grid, n_pairs=2000, seed=7)
    dom = domination_audit(model, grid, n_states=8, seed=8)
    ok = lip["pass"] and dom["pass"]
    return ok, (f"lipschitz violations {lip['violations']}, zero-at-zero "
                f"{lip['zero_at_zero']:.1e}, domination ratio {dom['max_ratio']:.3f}")


def check_noise_determinism():
    a = WienerPath(11, 3, 4, 0.01).table(8)
    same = np.array_equal(a, WienerPath(11, 3, 4, 0.01).table(8))
    differ = not np.array_equal(a[0], WienerPath(11, 4, 4, 0.01).table(1)[0])
    pairs = np.array_equal(coarsen(a, 4), a[0::2] + a[1::2])
    # tables against their rows drawn one at a time, and those against
    # numpy's own Philox generator: seed 11's first two 4-mode paths hold
    # rows decoded from their first Philox block and three rows with a word
    # the ziggurat does not accept at once, which the per-step draw walks,
    # as it does every 5-mode row
    exact = True
    for table in (member_tables(11, 2, 4, 0.01, 8), member_tables(11, 1, 5, 0.01, 1)):
        members, n_steps, modes = table.shape
        keys = [(m, s) for m in range(members) for s in range(n_steps)]
        rows = [WienerPath(11, m, modes, 0.01).increments(s) for m, s in keys]
        drawn = [np.random.Generator(np.random.Philox(key=[11, m], counter=[0, 0, 0, s]))
                 .standard_normal(modes) * np.sqrt(0.01) for m, s in keys]
        exact &= (table.tobytes() == np.concatenate(rows).tobytes()
                  == np.concatenate(drawn).tobytes())
    return same and differ and pairs and exact, (
        "keyed tables reproducible, member-distinct and equal to their per-step draws "
        "and numpy's, coarsening sums consecutive steps")


def check_equilibrium_and_mass():
    grid = Grid((32,))
    model = ModelConfig(law=PressureLaw(1.0, 2.0), visc=Viscosity(1e-2, 2e-2))
    stepper = StepperConfig()
    x = grid.coordinates()[0]
    eq = State(np.ones(grid.sizes), np.zeros((1, *grid.sizes)))
    st = eq.copy()
    for _ in range(10):
        st = step_em(grid, model, stepper, st, 1e-3)
    eq_drift = max(np.max(np.abs(st.rho - 1.0)), np.max(np.abs(st.mom)))
    st = State(1.0 + 0.1 * np.sin(x), 0.05 * np.cos(x)[None].copy())
    mass0 = grid.integrate(st.rho)
    e0 = energy_total(grid, model.law_eff, st)
    for _ in range(200):
        st = step_em(grid, model, stepper, st, 1e-3)
    mass_drift = abs(grid.integrate(st.rho) - mass0) / mass0
    e1 = energy_total(grid, model.law_eff, st)
    energy_ok = e1 <= e0 * (1.0 + 5.0 * 1e-3 * st.t)
    ok = eq_drift < 1e-14 and mass_drift < 1e-12 and energy_ok
    return ok, (f"equilibrium drift {eq_drift:.1e}, mass drift {mass_drift:.1e}, "
                f"energy {e0:.6f} -> {e1:.6f}")


def _random_ym(grid, members, rng):
    rho = rng.uniform(0.3, 2.5, (members, *grid.sizes))
    mom = rng.normal(0.0, 0.8, (members, grid.dim, *grid.sizes))
    return EmpiricalYoungMeasure(grid, rho, mom)


def check_jensen_defect():
    grid = Grid((32,))
    law = PressureLaw(1.0, 2.0)
    rng = _rng(6)
    try:
        for members in (2, 5, 16):
            ym = _random_ym(grid, members, rng)
            field, D = dissipation_defect(grid, member_sums(law, ym.rho_atoms, ym.mom_atoms),
                                          members, law)
            if np.min(field) < -1e-12 or D < 0:
                return False, f"negative defect {np.min(field):.2e}"
    except ConvexityError as exc:
        return False, str(exc)
    return True, "energy defect nonnegative on random ensembles"


def check_partition_and_linearity():
    grid = Grid((16,))
    rng = _rng(7)
    ym = _random_ym(grid, 7, rng)
    one = expect(ym, Observable(lambda r, m: np.ones_like(r), name="1"))
    f = Observable(lambda r, m: r, name="rho")
    g = Observable(lambda r, m: np.sum(m * m, axis=1), name="|m|^2")
    lin = expect(ym, Observable(lambda r, m: 2.0 * r + 3.0 * np.sum(m * m, axis=1)))
    gap = np.max(np.abs(lin - 2.0 * expect(ym, f) - 3.0 * expect(ym, g)))
    perm = np.random.default_rng(0).permutation(7)
    ym_p = EmpiricalYoungMeasure(grid, ym.rho_atoms[perm], ym.mom_atoms[perm])
    perm_gap = np.max(np.abs(expect(ym_p, f) - expect(ym, f)))
    ok = np.max(np.abs(one - 1.0)) == 0.0 and gap < 1e-12 and perm_gap < 1e-14
    return ok, f"<nu;1>=1, linearity gap {gap:.1e}, permutation gap {perm_gap:.1e}"


def check_trace_identity():
    grid = Grid((16,))
    law = PressureLaw(1.0, 1.7)
    rng = _rng(8)
    worst = 0.0
    for members in (2, 9):
        ym = _random_ym(grid, members, rng)
        kin, press = momentum_defect(ym, law)
        _, defect = energy_jensen_gap(member_sums(law, ym.rho_atoms, ym.mom_atoms), members,
                                      law)
        kin_energy_defect = _kinetic_defect(ym)
        pot_defect = defect - kin_energy_defect
        lhs = np.trace(kin, axis1=0, axis2=1) + grid.dim * press
        rhs = 2.0 * kin_energy_defect + grid.dim * (law.gamma - 1.0) * pot_defect
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst < 1e-12, f"trace identity gap {worst:.2e}"


def _kinetic_defect(ym):
    rho = ym.rho_atoms
    mom = ym.mom_atoms
    mean_k = np.mean(0.5 * np.sum(mom**2, axis=1) / rho, axis=0)
    b_rho = np.mean(rho, axis=0)
    b_mom = np.mean(mom, axis=0)
    return mean_k - 0.5 * np.sum(b_mom**2, axis=0) / b_rho


def check_defect_domination():
    grid = Grid((16, 16))
    rng = _rng(9)
    worst_margin = np.inf
    for gamma in (1.4, 2.0, 3.0):
        law = PressureLaw(1.0, gamma)
        ym = _random_ym(grid, 6, rng)
        audit = defect_domination_audit(ym, law)
        if not audit["pass"]:
            return False, f"ratio {audit['max_ratio']:.4f} > c {audit['constant']:.4f}"
        worst_margin = min(worst_margin, audit["constant"] - audit["max_ratio"])
    return True, f"minimal slack to the domination constant {worst_margin:.3f}"


def check_poincare():
    grid = Grid((16,))
    law = PressureLaw(1.0, 2.0)
    dirac = EmpiricalYoungMeasure(grid, np.ones((1, 16)), np.zeros((1, 1, 16)))
    r0 = poincare_ratio(dirac, law)
    rho = np.ones((2, 16))
    mom = np.stack([np.ones((1, 16)), -np.ones((1, 16))])
    two = EmpiricalYoungMeasure(grid, rho, mom)
    r2 = poincare_ratio(two, law)
    rng = _rng(10)
    rho_b = rng.uniform(0.5, 2.0, (8, 16))
    mom_b = rng.normal(0.0, 0.7, (8, 1, 16))
    rb = poincare_ratio(EmpiricalYoungMeasure(grid, rho_b, mom_b), law)
    ok = r0 == 0.0 and abs(r2 - 2.0) < 1e-12 and rb <= 4.0 + 1e-9
    return ok, f"dirac {r0}, two-atom {r2:.6f}, bounded-density ratio {rb:.3f}"


def check_relative_energy_forms():
    grid = Grid((16,))
    law = PressureLaw(1.3, 1.6)
    rng = _rng(11)
    ym = _random_ym(grid, 5, rng)
    r = rng.uniform(0.5, 2.0, grid.sizes)
    U = rng.normal(0.0, 0.5, (1, *grid.sizes))
    D = 0.123
    e1 = relative_energy(grid, law, ym, D, r, U, form="regrouped")
    e2 = relative_energy(grid, law, ym, D, r, U, form="five_term")
    gap = abs(e1 - e2) / max(abs(e1), 1.0)
    # Dirac exactly at the reference
    dirac = EmpiricalYoungMeasure(grid, r[None], (r * U)[None])
    e0 = relative_energy(grid, law, dirac, 0.0, r, U)
    ok = gap < 1e-10 and abs(e0) < 1e-10 and e1 >= 0
    return ok, f"form gap {gap:.2e}, dirac value {e0:.2e}"


def check_relative_energy_scaling():
    grid = Grid((16,))
    rng = _rng(12)
    ym = _random_ym(grid, 4, rng)
    r = rng.uniform(0.5, 2.0, grid.sizes)
    U = np.zeros((1, *grid.sizes))
    s = 3.7
    h1 = relative_energy(grid, PressureLaw(1.0, 1.8), ym, 0.0, r, U)
    h2 = relative_energy(grid, PressureLaw(s, 1.8), ym, 0.0, r, U)
    kin = relative_energy(grid, PressureLaw(1e-14, 1.8), ym, 0.0, r, U)
    gap = abs((h2 - kin) - s * (h1 - kin)) / max(abs(h2), 1.0)
    return gap < 1e-10, f"pressure-scaling coherence gap {gap:.2e}"


def check_euler_structure():
    grid = Grid((32, 32))
    rng = _rng(13)
    v = random_solenoidal(grid, rng, kmax=4)
    pi = pressure_from_projection(grid, v)
    adv = advection(grid, v)
    residual = np.max(np.abs(grid.gradient(pi) - (grid.helmholtz_project(adv) - adv)))
    state = make_state(grid, v)
    nxt = step_em_euler(grid, NoiseModel(), state, 1e-3)
    div_norm = np.max(np.abs(grid.divergence(nxt.v)))
    ok = residual < 1e-10 and div_norm < 1e-10 and abs(np.mean(pi)) < 1e-14
    return ok, f"pressure identity {residual:.1e}, div after step {div_norm:.1e}"


def check_gronwall():
    t = np.linspace(0.0, 1.0, 11)
    zero = gronwall_check(t, np.zeros_like(t), 1.0, 0.0)
    exact = gronwall_check(t, 2.0 * np.exp(0.7 * t), 0.7, 0.0)
    breach = gronwall_check(t, 2.0 * np.exp(1.4 * t), 0.7, 0.0)  # grows too fast
    ok = zero <= 1e-12 and abs(exact) < 1e-12 and breach > 0.4
    return ok, f"zero {zero:.1e}, exact {exact:.1e}, breach {breach:.3f}"


def check_dissipation():
    # the ledger's Parseval form against the real-space stress contraction
    rng = _rng(14)
    visc = Viscosity(0.7, 0.3)
    worst = 0.0
    for sizes in ((64,), (32, 16), (8, 8, 8)):
        grid = Grid(sizes)
        u = random_smooth_vector(grid, rng, kmax=4)
        direct = grid.integrate(stress_contract(visc, grid.gradient_vector(u)))
        worst = max(worst, abs(dissipation_rate(grid, visc, grid.fwd(u)) - direct) / direct)
    return worst < 1e-12, f"max relative gap to int S(grad u) : grad u {worst:.2e}"


CHECKS = [
    ("grid.parseval", check_parseval),
    ("grid.helmholtz", check_helmholtz),
    ("grid.adjoint", check_grad_div_adjoint),
    ("constitutive.pair_identity", check_pressure_pair),
    ("constitutive.gamma_identity", check_gamma_identity),
    ("constitutive.convexity", check_potential_convexity),
    ("constitutive.relative_h", check_relative_h),
    ("constitutive.stress", check_stress),
    ("noise.conditions", check_noise_conditions),
    ("noise.determinism", check_noise_determinism),
    ("dynamics.equilibrium_mass_energy", check_equilibrium_and_mass),
    ("ensemble.jensen", check_jensen_defect),
    ("ensemble.partition_linearity", check_partition_and_linearity),
    ("ensemble.trace_identity", check_trace_identity),
    ("ensemble.defect_domination", check_defect_domination),
    ("ledger.poincare", check_poincare),
    ("ledger.dissipation", check_dissipation),
    ("relative.forms_agree", check_relative_energy_forms),
    ("relative.scaling", check_relative_energy_scaling),
    ("euler.structure", check_euler_structure),
    ("relative.gronwall", check_gronwall),
]


def run_all():
    """Run every check; returns ``(results, all_passed)``."""
    results = []
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, bool(ok), detail))
    return results, all(r[1] for r in results)

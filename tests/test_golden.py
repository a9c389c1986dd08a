"""Pinned outputs of the three experiment commands at toy size.

Each case runs one command (``simulate``, ``weak-strong``, ``limit-sweep``)
on its checked-in config with small overrides (the toy sizes of
``bench/worker.py``) and compares every entry of ``summary.json`` and every
CSV column against ``tests/golden/<case>.json``.  A refactor that keeps the
numerics keeps these values; one that moves roundoff shows by how much.

Numbers agree when ``|actual - golden| <= ATOL + RTOL |golden|``.  The
absolute floor keeps roundoff-level entries, such as the relative mass drift
near 1e-16, from making the comparison machine-specific.  Non-numeric
summary entries (flags, command names) must match exactly.

Regenerate the golden files, in a change that says why, with

    PYTHONPATH=src python tests/test_golden.py

or name the cases to rewrite (``... tests/test_golden.py limit-sweep``).
Before it rewrites a file, it prints the largest absolute and relative
deviation of the new values from the ones it replaces, over the keys both
hold, and names the keys the new record adds or removes.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

from torusgas import config, driver, noise

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN_DIR = os.path.join(HERE, "golden")

RTOL = 1e-10
ATOL = 1e-12
SEED = 0

CASES = {
    "simulate": {
        "config": "configs/simulate_1d.cfg",
        "overrides": {"run.T": 0.5, "ensemble.members": 4, "run.snapshot_every": 1},
        "run": driver.run_simulate,
        "csv": ("ledger.csv", "observables.csv"),
    },
    "weak-strong": {
        "config": "configs/weak_strong.cfg",
        "overrides": {"grid.sizes": [16], "ws.members": 2, "ws.n_steps": 16,
                      "ws.samples": 4},
        "run": driver.run_weak_strong,
        "csv": ("weak_strong.csv",),
    },
    "limit-sweep": {
        "config": "configs/limit_sweep.cfg",
        "overrides": {"grid.sizes": [16, 16], "sweep.eps": [1.0, 0.5, 0.25],
                      "sweep.members": 8, "sweep.samples": 2, "run.T": 0.125},
        "run": driver.run_limit_sweep,
        "csv": ("sweep.csv",),
    },
}


# exact header lines: the comparison below reads columns by name, not in order
HEADERS = {
    "ledger.csv": "t,E,D,dissipation_cum,ito_cum,martingale,residual",
    "observables.csv": "t,cell,rho_mean,mom_mean_0,energy_defect",
    "weak_strong.csv": ",".join(["t", "Emv_mean", "Emv_se",
                                 *(f"remainder_term_{j}" for j in range(1, 10)),
                                 "gronwall_residual"]),
    "sweep.csv": "eps,t,Emv_mean,Emv_se,D_sup,tau_M",
}


def _read_csv(path) -> dict:
    with open(path, encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, j].tolist() for j, name in enumerate(header)}


def case_config(name: str, extra: dict | None = None) -> dict:
    case = CASES[name]
    overrides = dict(case["overrides"], **{"run.seed": SEED}, **(extra or {}))
    return config.load(os.path.join(ROOT, case["config"]), overrides)


def run_case(name: str, out_dir: str, extra: dict | None = None) -> dict:
    """Run one case, with optional extra overrides, and collect its outputs."""
    case = CASES[name]
    case["run"](case_config(name, extra), out_dir)
    with open(os.path.join(out_dir, "summary.json"), encoding="ascii") as fh:
        summary = json.load(fh)
    return {"summary": summary,
            "csv": {f: _read_csv(os.path.join(out_dir, f)) for f in case["csv"]}}


def _golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.json")


def _compare(actual, golden, where: str):
    if isinstance(golden, dict):
        assert sorted(actual) == sorted(golden), f"{where}: keys differ"
        for key in golden:
            _compare(actual[key], golden[key], f"{where}.{key}")
    elif isinstance(golden, bool) or golden is None or isinstance(golden, str):
        assert actual == golden, f"{where}: {actual!r} != {golden!r}"
    else:
        np.testing.assert_allclose(np.asarray(actual, dtype=np.float64),
                                   np.asarray(golden, dtype=np.float64),
                                   rtol=RTOL, atol=ATOL, err_msg=where)


def _deviation(actual, golden) -> tuple[float, float]:
    """Largest absolute and relative deviation over the numbers both records hold.

    Keys found in one record only are skipped (:func:`_key_changes` names
    them).  The relative deviation skips golden entries at or below
    ``ATOL``, the roundoff floor of the comparison; a mismatched entry reads
    as an infinite deviation.
    """
    if isinstance(golden, dict):
        if not isinstance(actual, dict):
            return np.inf, np.inf
        devs = [_deviation(actual[key], golden[key]) for key in golden if key in actual]
        return max((d[0] for d in devs), default=0.0), max((d[1] for d in devs), default=0.0)
    if isinstance(golden, bool) or golden is None or isinstance(golden, str):
        return (0.0, 0.0) if actual == golden else (np.inf, np.inf)
    a = np.asarray(actual, dtype=np.float64)
    g = np.asarray(golden, dtype=np.float64)
    if a.shape != g.shape:
        return np.inf, np.inf
    diff = np.abs(a - g)
    big = np.abs(g) > ATOL
    return (float(np.max(diff, initial=0.0)),
            float(np.max(diff[big] / np.abs(g[big]), initial=0.0)))


def _key_changes(actual, golden, where: str = "") -> tuple[list, list]:
    """Dotted paths of the keys that ``actual`` adds to ``golden``, and of those it drops."""
    if not (isinstance(actual, dict) and isinstance(golden, dict)):
        return [], []
    added = [where + key for key in sorted(actual.keys() - golden.keys())]
    removed = [where + key for key in sorted(golden.keys() - actual.keys())]
    for key in sorted(actual.keys() & golden.keys()):
        more, fewer = _key_changes(actual[key], golden[key], f"{where}{key}.")
        added += more
        removed += fewer
    return added, removed


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, tmp_path):
    with open(_golden_path(name), encoding="ascii") as fh:
        golden = json.load(fh)
    _compare(run_case(name, str(tmp_path)), golden, name)
    for fname in CASES[name]["csv"]:
        with open(os.path.join(tmp_path, fname), encoding="ascii") as fh:
            assert fh.readline() == HEADERS[fname] + "\n", fname


def test_deviation_compares_shared_keys():
    golden = {"summary": {"dt": 0.5, "gone": 1.0}, "csv": {"a": [1.0, 2.0]}}
    actual = {"summary": {"dt": 0.5, "new": {"x": 3.0}}, "csv": {"a": [1.0, 2.5]}}
    assert _deviation(actual, golden) == (0.5, 0.25)
    assert _key_changes(actual, golden) == (["summary.new"], ["summary.gone"])


def _expected_draws(name: str, cfg: dict, summary: dict) -> int:
    """One draw per member and step of the finest lattice the run uses."""
    if name == "simulate":
        if cfg["ensemble.shared_paths"]:  # one path for every member
            return summary["n_steps"]
        return cfg["ensemble.members"] * summary["n_steps"]
    if name == "weak-strong":
        return cfg["ws.members"] * cfg["ws.refine"] * cfg["ws.n_steps"]
    return cfg["sweep.members"] * max(summary["n_steps"])


@pytest.mark.parametrize("name, extra", [
    *(pytest.param(name, {}, id=name) for name in sorted(CASES)),
    pytest.param("simulate", {"ensemble.shared_paths": True}, id="simulate-shared-paths"),
])
def test_each_increment_drawn_once(name, extra, tmp_path, monkeypatch):
    keys = []
    draw = noise._table

    def counted(seed, members, modes, dt, n_steps):
        keys.extend((seed, member, step) for member in members for step in range(n_steps))
        return draw(seed, members, modes, dt, n_steps)

    monkeypatch.setattr(noise, "_table", counted)
    cfg = case_config(name, extra)
    summary = run_case(name, str(tmp_path), extra)["summary"]
    assert len(keys) == _expected_draws(name, cfg, summary)
    assert len(set(keys)) == len(keys)


if __name__ == "__main__":
    import tempfile

    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for case_name in sys.argv[1:] or sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            record = run_case(case_name, tmp)
        if os.path.exists(_golden_path(case_name)):
            with open(_golden_path(case_name), encoding="ascii") as fh:
                replaced = json.load(fh)
            abs_dev, rel_dev = _deviation(record, replaced)
            print(f"{case_name}: largest deviation from the replaced file: "
                  f"absolute {abs_dev:.3e}, relative {rel_dev:.3e}")
            for change, keys in zip(("added", "removed"), _key_changes(record, replaced)):
                if keys:
                    print(f"{case_name}: keys {change}: {', '.join(keys)}")
        with open(_golden_path(case_name), "w", encoding="ascii") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {_golden_path(case_name)}", file=sys.stderr)

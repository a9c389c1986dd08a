"""Self-test of the benchmark harness at toy sizes.

Run from the repository root with ``python3 -m pytest bench/tests``.  Each
workload runs tiny (a warm-up plus two rounds of one untraced and one traced
sample); the test checks that every metric named in BENCHMARK.json comes out
with its unit, that the traced layer times add up to the traced wall time,
and that the exact work counters repeat between two runs.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
    SPEC = json.load(fh)


@pytest.fixture(scope="module", params=sorted(run.WORKLOADS))
def toy(request):
    name = request.param
    results = run.measure([name], seed=1, seconds=0, trace=True, size="toy")
    return name, results[name]


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


def test_samples_pass_their_output_check(toy):
    _, res = toy
    assert res["errors"] == [] and res["inconsistent"] == []
    assert res["attempted"] == 1 + 2 * run.MIN_ROUNDS


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_with_its_unit(toy, trace, capsys):
    name, res = toy
    result = run.report(name, res, seed=1, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(s["name"] for s in specs)
    for s in specs:
        got = result["metrics"][s["name"]]
        assert got["unit"] == s["unit"]
        assert isinstance(got["value"], (int, float))
    out = capsys.readouterr().out
    for s in specs:
        assert s["name"] in out


def test_layer_self_times_account_for_wall_time(toy):
    _, res = toy
    for record in res["records"]:
        if not record["traced"]:
            continue
        layers = record["layers"]
        self_times = [v for k, v in layers.items() if k.endswith(".self_s")]
        assert layers["driver.self_s"] >= 0.0
        assert sum(self_times) == pytest.approx(record["wall_s"], rel=1e-9)


def test_exact_counters_repeat_between_runs(toy):
    name, res = toy
    traced = [r for r in res["records"] if r["traced"]]
    again = run.measure([name], seed=1, seconds=0, trace=True, size="toy")[name]
    traced += [r for r in again["records"] if r["traced"]]
    assert len(traced) == 2 * run.MIN_ROUNDS
    for key in run.EXACT:
        assert len({r["layers"][key] for r in traced}) == 1, key
    assert traced[0]["layers"]["grid.fft_calls_per_member_step"] > 0
    assert traced[0]["layers"]["noise.draws_per_member_step"] > 0


def test_fails_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "simulate-1d",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout

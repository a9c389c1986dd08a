"""Memory model: simulate and limit-sweep keep no member state per sample.

Each sample is reduced from the joined ensemble state as soon as the
members reach it, so the heap peak of a run does not grow with the number
of samples by as much as one ensemble state ``(M, 1 + N, *sizes)``.  The
sweep's incompressible reference advances one sample interval at a time
beside every eps, so it keeps no velocity per sample either.  The step
counts are the same at both sample counts.
"""

import tracemalloc

import numpy as np

from torusgas import config as config_mod
from torusgas import driver

SIMULATE = """
grid.sizes = 64
run.T = 0.05
run.n_steps = 32
model.nu = 0.01
noise.K = 0.1
noise.L = 0.05
ensemble.members = 128
init.kind = density_wave
"""

# a horizon long enough that every march takes more than 16 steps
SWEEP = """
grid.sizes = 16,16
run.T = 1.5
sweep.eps = 1.0,0.5
sweep.members = 32
sweep.grad_threshold = 1e9
noise.K = 0.1
noise.L = 0.05
"""


def heap_peak(run, cfg, out_dir):
    """The run's summary and the tracemalloc heap peak of the call, in bytes."""
    tracemalloc.start()
    try:
        summary = run(cfg, out_dir)
        return summary, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def state_bytes(members, dim, sizes):
    return 8 * members * (1 + dim) * int(np.prod(sizes))


def test_simulate_peak_does_not_grow_with_samples(tmp_path):
    text = config_mod.parse_text(SIMULATE)
    runs = {}
    for samples in (2, 16):
        cfg = config_mod.resolve(text, {"run.samples": samples})
        runs[samples] = heap_peak(driver.run_simulate, cfg, str(tmp_path / f"s{samples}"))
    assert runs[2][0]["n_steps"] == runs[16][0]["n_steps"] == 32
    growth = runs[16][1] - runs[2][1]
    assert growth < state_bytes(128, 1, (64,)), growth


def test_limit_sweep_peak_does_not_grow_with_samples(tmp_path):
    text = config_mod.parse_text(SWEEP)
    runs = {}
    for samples in (2, 16):
        cfg = config_mod.resolve(text, {"sweep.samples": samples})
        runs[samples] = heap_peak(driver.run_limit_sweep, cfg, str(tmp_path / f"s{samples}"))
    for key in ("n_steps", "reference_n_steps"):
        assert np.array_equal(runs[2][0][key], runs[16][0][key])
    assert min(runs[2][0]["n_steps"]) > 16 and runs[2][0]["reference_n_steps"] >= 16
    growth = runs[16][1] - runs[2][1]
    assert growth < state_bytes(32, 2, (16, 16)), growth

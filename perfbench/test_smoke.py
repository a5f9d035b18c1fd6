"""Smoke test of the benchmark: every workload at a few trials per cell, with
the fewest sweeps a run makes (`--seconds 0`).

Checks the result line and the manifest against BENCHMARK.json: metric
names and units, sample counts, and that a checkout without the package
source is refused.  Also checks the sweep seeds and the C4 band tolerance
without running a sweep.  Run with ``python -m pytest -q perfbench/test_smoke.py``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_all_workloads_report_every_metric(trace, kind):
    proc, lines = bench("--workload", "all", "--trials", "3", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2 * 3 * len(WORKLOADS)
    expected = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())

    manifest = json.loads(next(l for l in lines if l.startswith("manifest "))[9:])
    assert set(manifest) == set(run.MANIFEST_KEYS)
    assert manifest["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1"}
    assert set(manifest["config_hash"]) == set(WORKLOADS)
    report = "\n".join(lines)
    for w in WORKLOADS:
        assert f"workload {w} " in report
    if trace:
        for receiver_layers in run.PATH_LAYERS.values():
            for name, _ in receiver_layers:
                assert f"  {name} " in report
        assert "missing" not in report
        assert "cell n_p=8 snr=20.0: hihtp.converged_frac" in report
    else:
        for name, _ in run.END_TO_END + run.REPORTED_ONLY:
            assert f"  {name} " in report
        # the fewest sweeps: one seed swept twice; every per-sweep figure,
        # the wall time and the host pace among them, has two samples
        assert report.count(" n=2 ") == (len(run.TIMED) + 2) * len(WORKLOADS)
        assert report.count("sweeps 2  seeds 1 ") == len(WORKLOADS)


def test_single_workload_line_matches_benchmark_spec():
    proc, lines = bench("--workload", "subnyquist_snr", "--trials", "2", "--seed", "5")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(lines[-1])
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["attempted"] == 2 * 2 * 3


def test_checkout_without_package_is_refused(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc, lines = bench("--workload", "paper_sweep", "--seed", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(l.startswith("{") for l in lines)


def test_sweep_seeds_are_distinct_and_start_at_the_run_seed():
    seeds = [run.sweep_seed(7, i) for i in range(50)]
    assert seeds[0] == 7 and len(set(seeds)) == 50
    assert seeds == [run.sweep_seed(7, i) for i in range(50)]
    assert not set(seeds[1:]) & {run.sweep_seed(8, i) for i in range(50)}


def paper_cell(n_pilots, mse, stderr):
    return SimpleNamespace(
        n_pilots=n_pilots, snr_db=20.0, config_hash="h", master_seed=1,
        trials_failed=0, trials_ok=100, mse=mse, mse_stderr=stderr,
    )


@pytest.mark.parametrize("mse, stderr, ok", [
    (2.2e-4, 1.5e-6, True),   # typical n_p=16 cell
    (5.9e-4, 3.7e-4, True),   # one trial missed its support
    (4.4e-4, 1.5e-6, False),  # the whole cell moved
    (2.0e-5, 1.0e-6, False),  # implausibly low
    (math.nan, 0.0, False),
])
def test_c4_band_holds_the_cell_mean_within_two_standard_errors(mse, stderr, ok):
    cfg = SimpleNamespace(
        n_pilots=(16, 32), snr_db=(20.0,), trials=100, master_seed=1,
        config_hash=lambda: "h",
    )
    records = [paper_cell(16, mse, stderr), paper_cell(32, 1.1e-4, 7e-7)]
    errors = run.check_records(run.WORKLOADS["paper_sweep"], cfg, records)
    assert (errors == []) is ok, errors


def test_times_are_scaled_to_the_reference_pace():
    sweep = {"sweep_s": 4.0, "setup_s": 0.4, "trials_per_s": 100.0}
    run.scale_to_pace(sweep, 2 * run.PACE_REF_S)
    assert sweep == {"sweep_s": 2.0, "setup_s": 0.2, "trials_per_s": 200.0,
                     "wall_sweep_s": 4.0, "pace_s": 2 * run.PACE_REF_S}


def test_pace_helper_measures_and_ends():
    with run.HostPace() as host:
        paces = [host.measure() for _ in range(2)]
    assert all(0 < p < 30 for p in paces) and paces[0] != paces[1]
    assert host.proc.returncode == 0

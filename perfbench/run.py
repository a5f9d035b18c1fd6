#!/usr/bin/env python3
"""afdm-sense benchmark: seeded Monte-Carlo sweeps run through the CLI.

Each sweep is a fresh ``python -m afdm_sense.cli run CFG --format json``
process, timed from spawn to exit, with its peak memory taken from its own
rusage.  Its times are scaled to a reference host pace, which ``pace.py``
measures between sweeps.  The sweeps of a run draw distinct master seeds
derived from ``--seed``; the second repeats the first seed to check that
the CSV output is byte-identical.  ``--trace 1`` pairs every untraced sweep
with one run under ``tracer.py`` and reports per-layer figures instead of
end-to-end ones.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --trace 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every correctness check passed.  See README.md for the
workloads and metric definitions.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is imported here and inherited by every
# child; two OpenBLAS threads on a 2-core host make the sweep slower and noisier
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import hashlib
import json
import math
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"

C4_SEED = 20260809
# every run must end well inside three minutes, children included
DEADLINE_S = 165.0
# the all-zero estimate's squared error has expectation equal to the
# channel power, which the channel model normalises to one
ALL_ZERO_MSE = 1.0
C4_BAND = (3e-5, 3e-4)
MIB = float(1 << 20)

WORKLOADS = {
    # the headline C4/C9 sweep; the n_p=8 cell (below 2Q+1 pilots) runs at
    # the iteration cap on every trial and is kept on purpose
    "paper_sweep": {
        "config": {
            "n": 4096, "l_taps": 30, "q_max": 7, "model": "type1",
            "p_delay": 0.2, "p_doppler": 0.2, "margin": 1.5, "trials": 100,
            "n_pilots": [8, 16, 32], "snr_db": [20.0],
            "pilot_amplitude": 25.0, "cpp_len": 64,
        },
        "band_pilots": (16, 32),
    },
    # the de-chirp receiver at decimation 2 over three SNR cells sharing one
    # operator; the pilot train nearly wraps the frame because shorter
    # reduced trains are unidentifiable (MSE 1e10 and worse) today
    "subnyquist_snr": {
        "config": {
            "n": 4096, "l_taps": 8, "q_max": 3, "model": "type2",
            "p_delay": 0.3, "p_doppler": 0.3, "trials": 100,
            "n_pilots": [255], "snr_db": [10.0, 20.0, 30.0],
            "overlap_mode": "reduced", "receiver": "subnyquist",
        },
        "band_pilots": (),
    },
}

# timing figures are medians over a run's sweeps, each scaled to the host
# pace (below); quality figures pool every cell of every distinct seed the
# run swept
TIMED = ("sweep_s", "trials_per_s", "setup_s", "peak_rss_mb")
# the shared host runs a single-threaded process 30% slower or faster for
# minutes at a time, with no time stolen from it: CPU time tracks wall time.
# A fixed kernel timed between sweeps gives the pace of the host just then,
# and the times are scaled to a host on which the kernel takes PACE_REF_S
PACE_REF_S = 0.2
# (name, unit); the order is the order of the report
END_TO_END = (
    ("sweep_s", "s"),
    ("trials_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("support_rate", "fraction"),
)
# printed with the end-to-end table, absent from the result line: the seed
# spread of the cell MSE is wider than any bound a run could be held to,
# the failed fraction is zero whenever the run is correct, and the raw wall
# time and host pace are what the timing figures are derived from
REPORTED_ONLY = (
    ("mse_geomean", "1"),
    ("trial_fail_frac", "fraction"),
    ("wall_sweep_s", "s"),
    ("pace_s", "s"),
)

PER_LAYER = (
    ("channel.sample_profile.ms_per_trial", "ms"),
    ("channel.apply_channel.ms_per_trial", "ms"),
    ("channel.active_paths_per_trial", "count"),
    ("receiver.ms_per_trial", "ms"),
    ("subnyquist.decimation", "ratio"),
    ("sensing_model.build_measurement_operator.s_per_cell", "s"),
    ("sensing_model.operator_mb", "MB"),
    ("hihtp.recover.ms_per_trial", "ms"),
    ("hihtp.restricted_least_squares.ms_per_call", "ms"),
    ("hihtp.restricted_least_squares.calls_per_trial", "count"),
    ("hihtp.threshold.ms_per_call", "ms"),
    ("hihtp.threshold.calls_per_trial", "count"),
    ("hihtp.pursuit_self.ms_per_trial", "ms"),
    ("hihtp.iterations_per_trial", "count"),
    ("hihtp.converged_frac", "fraction"),
    ("hihtp.mse_geomean", "1"),
    ("harness.self.ms_per_trial", "ms"),
    ("trace.coverage", "fraction"),
    ("trace.overhead_frac", "fraction"),
)
# receiver layers exist on one receiver path only; they are printed in the
# report of the workloads that use them
PATH_LAYERS = {
    "fullrate": (
        ("daft_core.daft_demodulate.ms_per_trial", "ms"),
        ("sensing_model.extract_measurements.ms_per_trial", "ms"),
    ),
    "subnyquist": (("subnyquist.dechirp_decimate_receive.ms_per_trial", "ms"),),
}
RECEIVER_SPANS = {
    "fullrate": ("daft_core.daft_demodulate", "sensing_model.extract_measurements"),
    "subnyquist": ("subnyquist.dechirp_decimate_receive",),
}
COMMON_SPANS = (
    "channel.sample_profile",
    "channel.apply_channel",
    "hihtp.recover",
    "hihtp.threshold",
    "hihtp.restricted_least_squares",
    "sensing_model.build_measurement_operator",
    "sensing_model.build_pilot_frame",
    "daft_core.idaft_modulate",
)
MANIFEST_KEYS = (
    "workloads", "seed", "config_hash", "trace", "seconds", "nproc",
    "cpus_usable", "python", "numpy", "blas", "blas_threads",
    "afdm_sense_threads", "git_commit",
)


def _load_package():
    """Import the package from this checkout's ``src``, or exit with code 2."""
    if not (SRC / "afdm_sense" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'afdm_sense'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import afdm_sense

    if SRC not in Path(afdm_sense.__file__).resolve().parents:
        print(f"error: afdm_sense imported from {afdm_sense.__file__}", file=sys.stderr)
        raise SystemExit(2)
    from afdm_sense import harness

    return harness


def child_env() -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = str(SRC)
    # the program's own default decides its parallelism
    env.pop("AFDM_SENSE_THREADS", None)
    return env


def spawn(cmd: list[str], cwd: Path, timeout: float) -> tuple[int, float, float, str]:
    """Run one child to its end: exit code, wall seconds, peak RSS MB, stderr.

    Peak memory comes from this child's own rusage (``wait4``); the
    RUSAGE_CHILDREN maximum would carry an earlier child's peak forward.
    """
    err_path = cwd / "stderr.txt"
    with open(cwd / "stdout.txt", "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    return proc.returncode, wall, usage.ru_maxrss * 1024 / MIB, stderr


def sweep_seed(seed: int, index: int) -> int:
    """Master seed of a run's ``index``-th distinct sweep: the run's own seed
    first, then seeds hashed from ``(seed, index)``, unrelated across runs."""
    if index == 0:
        return seed
    digest = hashlib.sha256(f"{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


class HostPace:
    """The ``pace.py`` helper process; ``measure()`` times its kernel once."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "pace.py")], env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def measure(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"pace helper ended with code {self.proc.wait()}")
        return float(line)

    def __exit__(self, *exc):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()


def check_records(spec: dict, cfg, records) -> list[str]:
    """Correctness of one sweep's records; an empty list means correct."""
    errors = []
    cells = [(n_p, snr) for n_p in cfg.n_pilots for snr in cfg.snr_db]
    got = [(r.n_pilots, r.snr_db) for r in records]
    if got != cells:
        return [f"cells {got} differ from the configured {cells}"]
    for r in records:
        where = f"cell n_p={r.n_pilots} snr={r.snr_db}"
        if r.config_hash != cfg.config_hash() or r.master_seed != cfg.master_seed:
            errors.append(f"{where}: record is not from the benchmark config")
        if r.trials_failed != 0 or r.trials_ok != cfg.trials:
            errors.append(f"{where}: {r.trials_failed} failed, {r.trials_ok} ok")
        if not (math.isfinite(r.mse) and r.mse <= ALL_ZERO_MSE):
            errors.append(f"{where}: mse {r.mse!r} is worse than the all-zero estimate")
        # the band holds the cell mean within two standard errors, the
        # tolerance C4 uses between cells: one trial that misses its support
        # at 20 dB moves a 100-trial mean out of the band at about one seed
        # in seven, a shift of the whole cell does not pass
        margin = 2 * r.mse_stderr
        if r.n_pilots in spec["band_pilots"] and not (
            C4_BAND[0] <= r.mse + margin and r.mse - margin <= C4_BAND[1]
        ):
            errors.append(
                f"{where}: mse {r.mse:.3e} +- {margin:.1e} outside the C4 band {C4_BAND}"
            )
    return errors


def run_sweep(harness, spec, cfg, cfg_path: Path, work: Path, index: int,
              traced: bool, timeout: float) -> dict:
    """One CLI process on ``cfg``: its timings, checks and records."""
    sweep_dir = work / f"sweep{index}"
    sweep_dir.mkdir()
    out = sweep_dir / "records.json"
    cli_args = ["run", str(cfg_path), "--format", "json", "--out", str(out)]
    if traced:
        trace_path = sweep_dir / "trace.json"
        cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_path)] + cli_args
    else:
        cmd = [sys.executable, "-m", "afdm_sense.cli"] + cli_args
    code, wall, rss, stderr = spawn(cmd, sweep_dir, timeout)
    sweep = {"traced": traced, "seed": cfg.master_seed, "sweep_s": wall,
             "peak_rss_mb": rss, "errors": []}
    if code != 0:
        tail = " | ".join(stderr.strip().splitlines()[-3:])
        sweep["errors"].append(f"exit code {code}: {tail}")
        return sweep
    records = harness.load_records_json(out)
    sweep["errors"] = check_records(spec, cfg, records)
    sweep["records"] = records
    sweep["csv"] = harness.records_to_csv_str(records)
    cell_s = sum(r.wall_time_s for r in records)
    sweep["setup_s"] = wall - cell_s
    sweep["trials_per_s"] = sum(r.trials_ok for r in records) / cell_s
    if traced:
        with open(trace_path, encoding="utf-8") as fh:
            sweep["trace"] = json.load(fh)
    return sweep


def scale_to_pace(sweep: dict, pace: float) -> None:
    """Scale a sweep's times to the reference pace, keeping its wall time."""
    sweep["pace_s"] = pace
    sweep["wall_sweep_s"] = sweep["sweep_s"]
    factor = PACE_REF_S / pace
    sweep["sweep_s"] *= factor
    if "setup_s" in sweep:
        sweep["setup_s"] *= factor
        sweep["trials_per_s"] /= factor


def mse_geomean(records) -> float:
    mses = [r.mse for r in records]
    if not all(m > 0 and math.isfinite(m) for m in mses):
        return float("nan")
    return math.exp(statistics.fmean(math.log(m) for m in mses))


def layer_metrics(trace: dict, records, receiver: str) -> tuple[dict, dict, list]:
    """Per-layer figures of one traced sweep: (metrics, per-cell, missing).

    Self time is a span's duration minus its child spans; harness self time
    is cell wall time minus the top-level spans of the trials, and coverage
    is the trials' layer self time over cell wall time.  A figure whose
    layer saw no call is left out, never reported as zero.
    """
    spans, counts = trace["spans"], trace["counts"]
    trials_per_cell = records[0].trials_ok + records[0].trials_failed
    trials = trials_per_cell * len(records)
    cell_wall = sum(r.wall_time_s for r in records)
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    total, self_time, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    top_level = layer_self = 0.0
    for s in spans:
        dur = s["end"] - s["start"]
        total[s["name"]] += dur
        self_time[s["name"]] += dur - child[s["id"]]
        calls[s["name"]] += 1
        if s["trial"] is not None:
            layer_self += dur - child[s["id"]]
            if s["parent"] is None:
                top_level += dur
    missing = [n for n in COMMON_SPANS + RECEIVER_SPANS[receiver] if not calls[n]]
    if receiver == "subnyquist" and not counts["decimation"]:
        missing.append("subnyquist.decimation_plan")

    def per_trial(name, table=total, scale=1e3):
        return scale * table[name] / trials if calls[name] else None

    def per_call(name, scale=1e3):
        return scale * total[name] / calls[name] if calls[name] else None

    def mean(values):
        values = list(values)
        return statistics.fmean(values) if values else None

    recoveries = counts["recovery"]
    receivers = [per_trial(n) for n in RECEIVER_SPANS[receiver]]
    harness_self = cell_wall - top_level
    m = {
        "channel.sample_profile.ms_per_trial": per_trial("channel.sample_profile"),
        "channel.apply_channel.ms_per_trial": per_trial("channel.apply_channel"),
        "channel.active_paths_per_trial": mean(v for _, v in counts["active_paths"]),
        "receiver.ms_per_trial": None if None in receivers else sum(receivers),
        "subnyquist.decimation": (
            mean(counts["decimation"]) if receiver == "subnyquist" else 1.0
        ),
        "sensing_model.build_measurement_operator.s_per_cell":
            per_call("sensing_model.build_measurement_operator", scale=1.0),
        "sensing_model.operator_mb":
            max(counts["operator_bytes"]) / MIB if counts["operator_bytes"] else None,
        "hihtp.recover.ms_per_trial": per_trial("hihtp.recover"),
        "hihtp.restricted_least_squares.ms_per_call":
            per_call("hihtp.restricted_least_squares"),
        "hihtp.restricted_least_squares.calls_per_trial":
            per_trial("hihtp.restricted_least_squares", calls, scale=1.0),
        "hihtp.threshold.ms_per_call": per_call("hihtp.threshold"),
        "hihtp.threshold.calls_per_trial": per_trial("hihtp.threshold", calls, scale=1.0),
        "hihtp.pursuit_self.ms_per_trial": per_trial("hihtp.recover", self_time),
        "hihtp.iterations_per_trial": mean(r[1] for r in recoveries),
        "hihtp.converged_frac": mean(r[2] == "support_fixed" for r in recoveries),
        "hihtp.mse_geomean": mse_geomean(records),
        "harness.self.ms_per_trial": 1e3 * harness_self / trials,
        "trace.coverage": layer_self / cell_wall,
    }
    for name, _ in PATH_LAYERS[receiver]:
        m[name] = per_trial(name.rsplit(".", 1)[0])
    cells = {}
    for index, r in enumerate(records):
        mine = [x for x in recoveries if x[0] // trials_per_cell == index]
        cells[f"n_p={r.n_pilots} snr={r.snr_db!r}"] = {
            "hihtp.converged_frac": mean(x[2] == "support_fixed" for x in mine),
            "hihtp.iterations_per_trial": mean(x[1] for x in mine),
            "mse": r.mse,
            "support_rate": r.support_rate,
            "wall_time_s": r.wall_time_s,
        }
    return {k: v for k, v in m.items() if v is not None}, cells, missing


def run_workload(harness, name: str, seed: int, seconds: float, trace: bool,
                 trials: int | None, work: Path, host: HostPace) -> dict:
    """Sweep one workload for ``seconds``: a repeated seed, then new ones.

    Untraced rounds sweep the first seed twice, then take the next derived
    seed until one more round would overrun.  A traced round runs its seed
    twice, untraced and under the tracer.  Either way some seed is swept
    twice however soon the run ends, and every sweep of one seed must emit
    the same CSV bytes (C9).
    """
    spec = WORKLOADS[name]
    work = work / name
    work.mkdir(parents=True)
    configs: dict[int, tuple] = {}

    def config(index: int) -> tuple:
        if index not in configs:
            doc = dict(spec["config"], master_seed=sweep_seed(seed, index))
            if trials is not None:
                doc["trials"] = trials
            cfg = harness.ExperimentConfig.from_dict(doc)
            path = work / f"config{index}.json"
            path.write_text(json.dumps(cfg.to_dict(), sort_keys=True), encoding="utf-8")
            configs[index] = (cfg, path)
        return configs[index]

    started = time.perf_counter()
    pace = host.measure()
    sweeps: list[dict] = []
    longest = 0.0
    min_rounds = 1 if trace else 2
    rounds = 0
    while True:
        elapsed = time.perf_counter() - started
        if rounds >= min_rounds and elapsed + longest > seconds:
            break
        if elapsed + longest > DEADLINE_S:
            break
        cfg, cfg_path = config(rounds if trace else max(rounds - 1, 0))
        round_start = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            timeout = DEADLINE_S - (time.perf_counter() - started)
            sweep = run_sweep(harness, spec, cfg, cfg_path, work, len(sweeps), traced, timeout)
            # the pace of a sweep is the mean of the kernel timed just before
            # and just after it
            before, pace = pace, host.measure()
            scale_to_pace(sweep, (before + pace) / 2)
            sweeps.append(sweep)
        rounds += 1
        longest = max(longest, time.perf_counter() - round_start)
        if any(s["errors"] for s in sweeps):
            break

    by_seed: dict[int, list[dict]] = defaultdict(list)
    for s in sweeps:
        if "csv" in s:
            by_seed[s["seed"]].append(s)
    run_errors = []
    for master_seed, group in by_seed.items():
        if len({s["csv"] for s in group}) > 1:
            run_errors.append(f"CSV output differs between {len(group)} sweeps of seed {master_seed}")
    if not any(s["errors"] for s in sweeps) and all(len(g) < 2 for g in by_seed.values()):
        run_errors.append("no seed was swept twice, so C9 was not checked")
    cfg = config(0)[0]
    per_sweep = cfg.trials * len(cfg.n_pilots) * len(cfg.snr_db)
    attempted = per_sweep * len(sweeps)
    failed = sum(
        per_sweep if (s["errors"] or run_errors) else 0 for s in sweeps
    )
    good = [s for s in sweeps if not s["errors"] and "csv" in s]
    plain = [s for s in good if not s["traced"]]
    # one sweep per seed; repeats of a seed carry the same records (C9)
    distinct = list({s["seed"]: s for s in plain}.values())
    samples = {key: [s[key] for s in plain] for key in TIMED}
    samples["support_rate"] = [
        statistics.fmean(r.support_rate for r in s["records"]) for s in distinct
    ]
    samples["mse_geomean"] = [mse_geomean(s["records"]) for s in distinct]
    samples["trial_fail_frac"] = [failed / attempted]
    pooled = [r for s in distinct for r in s["records"]]
    samples["wall_sweep_s"] = [s["wall_sweep_s"] for s in plain]
    samples["pace_s"] = [s["pace_s"] for s in plain]
    values = {
        key: statistics.median(samples[key])
        for key in TIMED + ("wall_sweep_s", "pace_s") if samples[key]
    }
    if pooled:
        values["support_rate"] = statistics.fmean(r.support_rate for r in pooled)
        values["mse_geomean"] = mse_geomean(pooled)
    values["trial_fail_frac"] = failed / attempted
    result = {
        "workload": name,
        "config_hash": cfg.config_hash(),
        "receiver": cfg.receiver,
        "errors": [e for s in sweeps for e in s["errors"]] + run_errors,
        "attempted": attempted,
        "failed": failed,
        "sweeps": len(sweeps),
        "seeds": len(by_seed),
        "samples": samples,
        "metrics": {},
        "cells": {},
        "missing": [],
    }
    if not trace:
        for key, unit in END_TO_END + REPORTED_ONLY:
            if key in values:
                result["metrics"][key] = {
                    "value": values[key], "unit": unit, "n": len(samples[key])
                }
        return result

    traced = [s for s in good if s["traced"]]
    layer_runs = [layer_metrics(s["trace"], s["records"], cfg.receiver) for s in traced]
    units = dict(PER_LAYER + PATH_LAYERS[cfg.receiver])
    for key in units:
        figures = [m[key] for m, _, _ in layer_runs if key in m]
        if figures:
            result["metrics"][key] = {
                "value": statistics.median(figures), "unit": units[key], "n": len(figures)
            }
    if plain and traced:
        overhead = (
            statistics.median(s["sweep_s"] for s in traced)
            / statistics.median(s["sweep_s"] for s in plain) - 1.0
        )
        result["metrics"]["trace.overhead_frac"] = {
            "value": overhead, "unit": "fraction", "n": len(traced)
        }
    if layer_runs:
        result["cells"] = layer_runs[-1][1]
        result["missing"] = sorted({n for _, _, miss in layer_runs for n in miss})
    return result


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def manifest(results: list[dict], seed: int, trace: bool, seconds: float) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workloads": [r["workload"] for r in results],
        "seed": seed,
        "config_hash": {r["workload"]: r["config_hash"] for r in results},
        "trace": int(trace),
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {"OPENBLAS_NUM_THREADS": child_env()["OPENBLAS_NUM_THREADS"]},
        "afdm_sense_threads": "unset (program default)",
        "git_commit": git_commit(),
    }


def report(result: dict, trace: bool) -> None:
    print(f"workload {result['workload']}  config {result['config_hash']}  "
          f"sweeps {result['sweeps']}  seeds {result['seeds']}  "
          f"trials {result['attempted']}  "
          f"failed {result['failed']}")
    for key, metric in result["metrics"].items():
        spread = ""
        values = result["samples"].get(key, [])
        if len(values) > 1:
            spread = f"  (min {min(values):.6g}, max {max(values):.6g})"
        print(f"  {key:<52} {metric['value']:>14.6g} {metric['unit']:<9} "
              f"n={metric['n']}{spread}")
    if trace:
        expected = dict(PER_LAYER + PATH_LAYERS[result["receiver"]])
        for key in expected:
            if key not in result["metrics"]:
                print(f"  {key:<52} {'missing':>14}")
        for cell, figures in result["cells"].items():
            parts = "  ".join(
                f"{k} {v:.4g}" for k, v in figures.items() if v is not None
            )
            print(f"  cell {cell}: {parts}")
        if result["missing"]:
            print(f"  missing layers (no call seen): {', '.join(result['missing'])}")
    for error in result["errors"]:
        print(f"  CHECK FAILED: {error}")
    print(f"  checks: {'ok' if not result['errors'] else 'FAILED'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=C4_SEED)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="measuring time per workload (at least two sweeps, one when traced)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int, default=None,
                        help="override trials per cell (smoke tests only)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    harness = _load_package()
    # a terminated benchmark still kills and reaps the sweep it is waiting on
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    work = WORK_DIR / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        with HostPace() as host:
            results = [
                run_workload(harness, name, args.seed, args.seconds, bool(args.trace),
                             args.trials, work, host)
                for name in names
            ]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for result in results:
        report(result, bool(args.trace))
    info = manifest(results, args.seed, bool(args.trace), args.seconds)
    print("manifest " + json.dumps(info, sort_keys=True))

    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "."
        for key, _ in wanted:
            if key in result["metrics"]:
                metric = result["metrics"][key]
                metrics[prefix + key] = {"value": metric["value"], "unit": metric["unit"]}
    correct = not any(r["errors"] for r in results)
    line = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

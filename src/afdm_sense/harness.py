"""Monte-Carlo experiment driver, metrics and result emission.

Experiments are described by a single config record (JSON on disk); the
driver sweeps pilot counts and SNR points, runs seeded independent trials
through the full chain (profile draw, frame synthesis, channel, receiver,
recovery) and aggregates squared-error and support statistics.  Trial
randomness is keyed by (master seed, pilot count, SNR, trial index), so
serial and threaded runs produce identical records.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import math
import os
import time
import typing
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass

import numpy as np

from .channel import NoiseConfig, SparsityConfig, apply_channel, sample_profile, vectorize_profile
from .daft_core import AfdmParams, cpp_extend, daft_demodulate, idaft_modulate, select_chirp_rate
from .hihtp import hihtp_recover, htp_recover
from .sensing_model import (
    PilotScheme,
    build_measurement_operator,
    build_pilot_frame,
    extract_measurements,
)
from .subnyquist import RadarConfig, dechirp_decimate_receive, sampling_rate

__all__ = [
    "ExperimentConfig",
    "ResultRecord",
    "run_monte_carlo",
    "pilot_overhead",
    "emit_report",
    "records_to_csv_str",
    "load_records_json",
]

log = logging.getLogger(__name__)

_THREAD_ENV = "AFDM_SENSE_THREADS"

CSV_COLUMNS = (
    "config_hash",
    "n",
    "l_taps",
    "q_max",
    "p_delay",
    "p_doppler",
    "n_pilots",
    "snr_db",
    "mse",
    "support_rate",
    "overhead",
    "f_s_hz",
    "master_seed",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment description; derived quantities are computed.

    ``chirp_num`` defaults to the smallest value whose per-pilot window
    covers the mean number of unknowns; the solver sparsity levels come
    from the margin-inflated config.  Set ``pilot_amplitude`` above one to
    boost pilot power relative to unit-power data symbols.
    """

    n: int
    l_taps: int
    q_max: int
    model: str
    p_delay: float
    p_doppler: float = 0.0
    cluster_len: int | None = None
    margin: float = 0.5
    trials: int = 100
    master_seed: int = 0
    n_pilots: tuple[int, ...] = (16,)
    snr_db: tuple[float, ...] = (20.0,)
    pilot_amplitude: float = 1.0
    overlap_mode: str = "disjoint"
    contiguous: bool = False
    receiver: str = "fullrate"
    solver: str = "hihtp"
    chirp_num: int | None = None
    chirp_sign: int = 1
    c2: float = 0.0
    cpp_len: int | None = None
    k_max: int = 20
    htp_sparsity: int | None = None
    bandwidth_hz: float = 30e6
    include_cpp_in_duration: bool = False

    def __post_init__(self) -> None:
        if self.receiver not in ("fullrate", "subnyquist"):
            raise ValueError(f"unknown receiver {self.receiver!r}")
        if self.solver not in ("hihtp", "htp"):
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be a non-negative integer")
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        if self.htp_sparsity is not None and self.htp_sparsity < 1:
            raise ValueError(f"htp_sparsity must be >= 1, got {self.htp_sparsity}")
        if not math.isfinite(self.pilot_amplitude) or self.pilot_amplitude == 0:
            raise ValueError(
                f"pilot_amplitude must be finite and nonzero, got {self.pilot_amplitude}"
            )
        if not math.isfinite(self.c2):
            raise ValueError(f"c2 must be finite, got {self.c2}")
        if not (math.isfinite(self.bandwidth_hz) and self.bandwidth_hz > 0):
            raise ValueError(f"bandwidth_hz must be finite and positive, got {self.bandwidth_hz}")
        object.__setattr__(self, "n_pilots", _as_int_tuple(self.n_pilots, "n_pilots"))
        object.__setattr__(self, "snr_db", _as_float_tuple(self.snr_db, "snr_db"))
        if self.receiver == "subnyquist" and not (
            self.contiguous or self.overlap_mode == "reduced"
        ):
            raise ValueError("the sub-Nyquist receiver needs a contiguous pilot layout")

    # -- derived pieces -------------------------------------------------

    def sparsity(self) -> SparsityConfig:
        return SparsityConfig(
            model=self.model,
            l_taps=self.l_taps,
            q_max=self.q_max,
            p_delay=self.p_delay,
            p_doppler=self.p_doppler,
            cluster_len=self.cluster_len,
            margin=self.margin,
        )

    def resolved_chirp_num(self) -> int:
        if self.chirp_num is not None:
            return self.chirp_num
        s_d, s_dop = self.sparsity().mean_sparsity_levels()
        return select_chirp_rate(self.l_taps, self.q_max, s_d, s_dop)

    def afdm_params(self) -> AfdmParams:
        cpp = self.cpp_len if self.cpp_len is not None else self.l_taps - 1
        return AfdmParams(
            n=self.n,
            chirp_num=self.resolved_chirp_num(),
            chirp_sign=self.chirp_sign,
            c2=self.c2,
            cpp_len=cpp,
        )

    def radar_config(self) -> RadarConfig:
        return RadarConfig(
            bandwidth_hz=self.bandwidth_hz,
            n=self.n,
            cpp_len=self.afdm_params().cpp_len,
            include_cpp_in_duration=self.include_cpp_in_duration,
        )

    def config_hash(self) -> str:
        doc = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(doc.encode()).hexdigest()[:12]

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["n_pilots"] = list(self.n_pilots)
        doc["snr_db"] = list(self.snr_db)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ValueError(f"a config must be an object of fields, got {type(doc).__name__}")
        hints = typing.get_type_hints(cls)
        extra = set(doc) - set(hints)
        if extra:
            raise ValueError(f"unknown config fields: {sorted(extra)}")
        for name, value in doc.items():
            if not _json_type_ok(value, hints[name]):
                declared = cls.__dataclass_fields__[name].type
                raise ValueError(f"config field {name!r} must be {declared}, got {value!r}")
        return cls(**doc)

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _json_type_ok(value, hint) -> bool:
    """Whether a decoded JSON value fits a config field's annotation."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:  # a list of numbers, or one number
        items = value if isinstance(value, (list, tuple)) else [value]
        return all(_json_type_ok(v, args[0]) for v in items)
    if args:  # an optional field
        return any(_json_type_ok(value, a) for a in args)
    # a JSON boolean is no number, although Python's bool is an int
    numeric = (int, float) if hint is float else hint
    return isinstance(value, numeric) and (hint is bool or not isinstance(value, bool))


def _as_int_tuple(value, name) -> tuple[int, ...]:
    if isinstance(value, (int, np.integer)):
        value = (value,)
    out = tuple(int(v) for v in value)
    if not out or any(v < 1 for v in out):
        raise ValueError(f"{name} must be one or more positive integers, got {list(out)}")
    return out


def _as_float_tuple(value, name) -> tuple[float, ...]:
    if isinstance(value, (int, float, np.floating)):
        value = (value,)
    out = tuple(float(v) for v in value)
    if not out or not all(math.isfinite(v) for v in out):
        raise ValueError(f"{name} must be one or more finite numbers, got {list(out)}")
    return out


@dataclass
class ResultRecord:
    """Aggregates for one (pilot count, SNR) cell of the sweep."""

    config_hash: str
    n: int
    l_taps: int
    q_max: int
    p_delay: float
    p_doppler: float
    n_pilots: int
    snr_db: float
    mse: float
    mse_stderr: float
    support_rate: float
    mean_iterations: float
    overhead: int
    f_s_hz: float
    wall_time_s: float
    trials_ok: int
    trials_failed: int
    master_seed: int


def _trial_rng(cfg: ExperimentConfig, n_p: int, snr_db: float, trial: int) -> np.random.Generator:
    snr_key = int(round(snr_db * 1000)) + (1 << 20)
    return np.random.default_rng([cfg.master_seed, n_p, snr_key, trial])


def _support_matches(alpha_hat: np.ndarray, truth: np.ndarray) -> bool:
    # every true entry must outrank every other by a relative 1e-9, so a tie
    # at the boundary is a miss whatever round-off did; an empty truth matches
    mags = np.abs(alpha_hat)
    on = truth != 0
    return not on.any() or bool(mags[on].min() > (1 + 1e-9) * mags[~on].max(initial=0.0))


def _run_trial(cfg, sparsity, levels, op, s_cpp, noise, rng):
    profile = sample_profile(sparsity, rng)
    truth = vectorize_profile(profile)
    received = apply_channel(s_cpp, profile, op.params, noise, rng)
    if cfg.receiver == "subnyquist":
        y_p = dechirp_decimate_receive(
            received, op.scheme, op.params, cfg.l_taps, cfg.q_max
        )
    else:
        y_p = extract_measurements(daft_demodulate(received, op.params), op.row_indices)
    if cfg.solver == "hihtp":
        result = hihtp_recover(op, y_p, levels[0], levels[1], k_max=cfg.k_max)
    else:
        s = cfg.htp_sparsity if cfg.htp_sparsity is not None else levels[0] * levels[1]
        result = htp_recover(op, y_p, s, k_max=cfg.k_max)
    err = float(np.linalg.norm(result.alpha - truth) ** 2)
    return err, _support_matches(result.alpha, truth), result.iterations


def _thread_count() -> int:
    """Trial threads from ``AFDM_SENSE_THREADS`` (default 1), capped at the CPU count."""
    raw = os.environ.get(_THREAD_ENV) or "1"
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"{_THREAD_ENV} must be an integer >= 1, got {raw!r}")
    return min(threads, os.cpu_count() or 1)


def run_monte_carlo(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Sweep pilot counts and SNR points; one record per cell.

    Trials are independent and identically keyed, so results do not depend
    on execution order or thread count.  Failed trials are counted and
    logged, never silently dropped.
    """
    records: list[ResultRecord] = []
    params = cfg.afdm_params()
    sparsity = cfg.sparsity()
    levels = sparsity.sparsity_levels()
    chash = cfg.config_hash()
    threads = _thread_count()
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        trial_map = pool.map if pool is not None else map
        for n_p in cfg.n_pilots:
            scheme = PilotScheme.uniform(
                cfg.n,
                n_p,
                cfg.l_taps,
                cfg.q_max,
                params.chirp_num,
                chirp_sign=params.chirp_sign,
                amplitude=cfg.pilot_amplitude,
                overlap_mode=cfg.overlap_mode,
                contiguous=cfg.contiguous,
            )
            op = build_measurement_operator(scheme, params, cfg.l_taps, cfg.q_max)
            frame = build_pilot_frame(scheme, params, cfg.l_taps, cfg.q_max)
            s_cpp = cpp_extend(idaft_modulate(frame, params), params)
            overhead = pilot_overhead(
                "afdm",
                {
                    "n_pilots": n_p,
                    "l_taps": cfg.l_taps,
                    "q_max": cfg.q_max,
                    "chirp_num": params.chirp_num,
                },
            )
            if cfg.receiver == "subnyquist":
                f_s = sampling_rate(n_p, cfg.l_taps, params.chirp_num, cfg.radar_config()).f_s_hz
            else:
                f_s = cfg.bandwidth_hz
            for snr_db in cfg.snr_db:
                noise = NoiseConfig.from_snr_db(snr_db)
                started = time.perf_counter()

                # captures this cell's loop variables; every call ends inside the map below
                def one(trial):
                    try:
                        rng = _trial_rng(cfg, n_p, snr_db, trial)
                        return _run_trial(cfg, sparsity, levels, op, s_cpp, noise, rng)
                    except Exception:
                        log.exception(
                            "trial %d failed (n_pilots=%d, snr=%.1f)", trial, n_p, snr_db
                        )
                        return None

                outcomes = list(trial_map(one, range(cfg.trials)))
                good = [o for o in outcomes if o is not None]
                errs = np.array([o[0] for o in good]) if good else np.array([np.nan])
                matches = [o[1] for o in good]
                iters = [o[2] for o in good]
                records.append(
                    ResultRecord(
                        config_hash=chash,
                        n=cfg.n,
                        l_taps=cfg.l_taps,
                        q_max=cfg.q_max,
                        p_delay=cfg.p_delay,
                        p_doppler=sparsity.p_doppler,
                        n_pilots=n_p,
                        snr_db=snr_db,
                        mse=float(errs.mean()),
                        mse_stderr=float(errs.std(ddof=1) / np.sqrt(len(errs)))
                        if len(errs) > 1
                        else 0.0,
                        support_rate=float(np.mean(matches)) if matches else 0.0,
                        mean_iterations=float(np.mean(iters)) if iters else 0.0,
                        overhead=overhead,
                        f_s_hz=f_s,
                        wall_time_s=time.perf_counter() - started,
                        trials_ok=len(good),
                        trials_failed=cfg.trials - len(good),
                        master_seed=cfg.master_seed,
                    )
                )
    return records


def pilot_overhead(waveform: str, parameters: dict) -> int:
    """Frame samples consumed by pilots and guards, per waveform family.

    Pure closed-form accounting:

    * afdm: ``n_pilots ((L-1) P + 1) + (L-1) P + 4 Q``
    * ofdm: ``n_pilots_td * n_pilots_fd + (n_symbols - 1)(L - 1)``
    * otfs: ``min(4 Q + 1, n_otfs) * min(2 L - 1, m_otfs)``
    """
    required = {
        "afdm": ("n_pilots", "l_taps", "q_max", "chirp_num"),
        "ofdm": ("n_pilots_td", "n_pilots_fd", "n_symbols", "l_taps"),
        "otfs": ("n_otfs", "m_otfs", "l_taps", "q_max"),
    }
    if waveform not in required:
        raise ValueError(f"waveform must be one of {sorted(required)}, got {waveform!r}")
    missing = [k for k in required[waveform] if k not in parameters]
    if missing:
        raise ValueError(f"{waveform} overhead needs parameters {missing}")
    p = parameters
    if waveform == "afdm":
        spread = (p["l_taps"] - 1) * p["chirp_num"]
        return p["n_pilots"] * (spread + 1) + spread + 4 * p["q_max"]
    if waveform == "ofdm":
        return p["n_pilots_td"] * p["n_pilots_fd"] + (p["n_symbols"] - 1) * (p["l_taps"] - 1)
    return min(4 * p["q_max"] + 1, p["n_otfs"]) * min(2 * p["l_taps"] - 1, p["m_otfs"])


def records_to_csv_str(records: list[ResultRecord]) -> str:
    """Stable-order CSV text; floats use shortest round-trip formatting."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        doc = asdict(rec)
        writer.writerow([_cell(doc[c]) for c in CSV_COLUMNS])
    return buf.getvalue()


def _cell(value):
    if isinstance(value, float):
        return repr(value)
    return value


def emit_report(records: list[ResultRecord], fmt: str, out_path) -> str:
    """Write records as csv, json or plot-ready (snr, mse) series."""
    if not records:
        raise ValueError("no records to emit")
    out_path = str(out_path)
    if fmt == "csv":
        text = records_to_csv_str(records)
    elif fmt == "json":
        text = json.dumps([asdict(r) for r in records], indent=2) + "\n"
    elif fmt == "plotdata":
        lines = []
        seen: dict[tuple, list] = {}
        for rec in records:
            seen.setdefault((rec.config_hash, rec.n_pilots), []).append(rec)
        for (chash, n_p), group in seen.items():
            lines.append(f"# series config={chash} n_pilots={n_p}")
            for rec in sorted(group, key=lambda r: r.snr_db):
                lines.append(f"{rec.snr_db!r} {rec.mse!r}")
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"format must be csv, json or plotdata, got {fmt!r}")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return out_path


def load_records_json(path) -> list[ResultRecord]:
    with open(path, encoding="utf-8") as fh:
        return [ResultRecord(**doc) for doc in json.load(fh)]

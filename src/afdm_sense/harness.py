"""Monte-Carlo experiment driver, metrics and result emission.

Experiments are described by a single config record (JSON on disk); the
driver sweeps pilot counts and SNR points, runs seeded independent trials
through the full chain (profile draw, channel, receiver, recovery) and
aggregates squared-error and support statistics.  Trials run in chunks,
stage by stage: every trial of a chunk draws its profile before any passes
the channel, and every one passes the channel and the receiver before any
is recovered.  Trial randomness is keyed by (master seed, pilot count, SNR,
trial index) and each trial makes its draws in the same order whatever its
chunk, so serial runs and runs on any number of worker processes produce
identical records.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import os
import pickle
import select
import sys
import threading
import time
import typing
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

# CPython's own SHA-256: hashlib would map OpenSSL's libcrypto (3.3 MB of
# the CLI process's peak) to hash one config
try:
    from _sha2 import sha256 as _sha256  # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # 3.10 and 3.11
    except ImportError:  # a build without the builtin hashes
        from hashlib import sha256 as _sha256

from . import channel, daft_core, hihtp, sensing_model, subnyquist
from .channel import (
    NoiseConfig,
    SparsityConfig,
    apply_channel,
    doppler_phase,
    sample_profile,
    vectorize_profile,
)
from .daft_core import AfdmParams, cpp_extend, daft_demodulate, idaft_modulate, select_chirp_rate
from .hihtp import _GRAM_COND_MAX, hihtp_recover, htp_recover
from .sensing_model import (
    MeasurementOperator,
    PilotScheme,
    _check_column_energy,
    build_measurement_operator,
    build_pilot_frame,
    data_slots,
    extract_measurements,
    observation_index_set,
)
from .subnyquist import DecimationPlan, RadarConfig, dechirp_decimate_receive

__all__ = [
    "ExperimentConfig",
    "ResultRecord",
    "run_monte_carlo",
    "pilot_overhead",
    "emit_report",
    "records_to_csv_str",
    "load_records_json",
]

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

    Construction checks every field against its declared type, also for
    ``from_dict``: ``int`` takes any integral number and ``float`` any real
    one, never a bool; a tuple field takes one value or a non-empty list,
    tuple or array.  It refuses ``n_pilots`` or ``snr_db`` entries that
    would rerun the same trials, checks the receiver and solver rules and
    builds, once, the parts that own the rest and that the sweep runs on,
    kept as attributes off the fields: the channel model ``sparsity``
    (``SparsityConfig``), the solver's ``levels`` and ``support`` size, the
    waveform ``params`` (``AfdmParams``), the ``radar`` constants and
    ``schemes``, every pilot count's layout (``PilotScheme.uniform``), whose
    observations must hold the support.  Every operator column has the
    energy ``n_p pilot_amplitude**2``; the pursuit multiplies two such
    energies and divides by them, so their square must be a normal float.
    Last, it refuses a field that the run does not read unless the field
    keeps its default, since it would give one run two hashes.
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
        for name, hint in _HINTS.items():
            value = getattr(self, name)
            if not _type_ok(value, hint):
                declared = self.__dataclass_fields__[name].type
                raise ValueError(f"config field {name!r} must be {declared}, got {value!r}")
            if isinstance(value, np.generic):  # to_dict and the hash take Python numbers
                object.__setattr__(self, name, value.item())
        object.__setattr__(self, "n_pilots", tuple(int(v) for v in _entries(self.n_pilots)))
        object.__setattr__(self, "snr_db", tuple(float(v) for v in _entries(self.snr_db)))
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
        unknowns = self.l_taps * (2 * self.q_max + 1)
        if self.htp_sparsity is not None and not 1 <= self.htp_sparsity <= unknowns:
            raise ValueError(
                f"htp_sparsity must lie in [1, l_taps (2 q_max + 1) = {unknowns}], "
                f"got {self.htp_sparsity}"
            )
        # entries with one trial key would run the same trials again
        for name, key in (("n_pilots", int), ("snr_db", _snr_key)):
            values = getattr(self, name)
            keys = [key(v) for v in values]  # refuses an SNR that has no trial key
            for i, v in enumerate(values):
                twin = next((u for u, k in zip(values, keys[:i]) if k == keys[i]), None)
                if twin == v:
                    raise ValueError(f"{name} repeats the entry {v!r}")
                if twin is not None:
                    raise ValueError(f"{name} entries {twin!r} and {v!r} share one trial key")
        # the de-chirp receiver runs on the reduced train only: at the K its
        # observation count gives, a spread train's windows fold onto one another,
        # and a packed one samples more for its pilots; pilots that fold on
        # purpose are item 1 of ROADMAP.md
        if self.receiver == "subnyquist" and self.overlap_mode != "reduced":
            raise ValueError("the sub-Nyquist receiver needs overlap_mode 'reduced'")
        if self.cpp_len is not None and self.cpp_len < self.l_taps - 1:  # the channel refuses it
            raise ValueError(f"cpp_len {self.cpp_len} is below l_taps - 1 = {self.l_taps - 1}")
        # build each part of the run once; each refuses what it cannot describe
        def part(cls, **resolved):
            # a part takes the config fields of its own field names, but those resolved here
            return cls(**{f.name: getattr(self, f.name) for f in fields(cls)} | resolved)

        sparsity = part(SparsityConfig)
        levels = sparsity.sparsity_levels()
        chirp_num = self.chirp_num
        if chirp_num is None:
            chirp_num = select_chirp_rate(self.l_taps, self.q_max, *sparsity.mean_sparsity_levels())
        cpp_len = self.l_taps - 1 if self.cpp_len is None else self.cpp_len
        params = part(AfdmParams, chirp_num=chirp_num, cpp_len=cpp_len)
        radar = part(RadarConfig, cpp_len=cpp_len)
        # entries of every support the solver selects
        support = levels[0] * levels[1]
        if self.solver == "htp" and self.htp_sparsity is not None:
            support = self.htp_sparsity
        schemes = {}
        for n_p in self.n_pilots:
            schemes[n_p] = PilotScheme.uniform(
                params, n_p, self.l_taps, self.q_max, amplitude=self.pilot_amplitude,
                overlap_mode=self.overlap_mode, contiguous=self.contiguous,
            )
            _check_column_energy(
                schemes[n_p], f"pilot_amplitude {self.pilot_amplitude!r} gives n_pilots={n_p}"
            )
            rows = len(observation_index_set(schemes[n_p], params, self.l_taps, self.q_max))
            if rows < support:  # every trial's refit would refuse it
                raise ValueError(
                    f"n_pilots={n_p} gives {rows} observations, fewer than the "
                    f"{support} entries of the {self.solver} support"
                )
        # a field the run does not read would give one run two hashes
        for name, unread, reader in (
            ("htp_sparsity", self.solver != "htp", "solver 'htp'"),
            ("margin", self.solver == "htp" and self.htp_sparsity is not None,
             "htp_sparsity unset"),
            ("p_doppler", self.model == "type3", "model 'type1' or 'type2'"),
            ("cluster_len", self.model != "type3", "model 'type3'"),
            ("include_cpp_in_duration", self.receiver != "subnyquist", "receiver 'subnyquist'"),
        ):
            value = getattr(self, name)
            if unread and value != self.__dataclass_fields__[name].default:
                raise ValueError(f"{name} is read only with {reader}, got {value!r}")
        # kept off the fields, so to_dict, equality and the hash never see them
        vars(self).update(
            sparsity=sparsity, levels=levels, support=support, params=params,
            radar=radar, schemes=schemes,
        )

    def config_hash(self) -> str:
        doc = json.dumps(self.to_dict(), sort_keys=True)
        return _sha256(doc.encode()).hexdigest()[:12]

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
        extra = set(doc) - set(_HINTS)
        if extra:
            raise ValueError(f"unknown config fields: {sorted(extra)}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in doc]
        if missing:
            raise ValueError(f"missing config fields: {missing}")
        return cls(**doc)

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


_HINTS = typing.get_type_hints(ExperimentConfig)


def _type_ok(value, hint) -> bool:
    """Whether a value fits a config field's annotation."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        items = _entries(value)
        return bool(items) and all(_type_ok(v, args[0]) for v in items)
    if args:  # an optional field
        return any(_type_ok(value, a) for a in args)
    # Python's bool is an int, but no config number
    kind = {int: numbers.Integral, float: numbers.Real}.get(hint, hint)
    if not isinstance(value, kind) or (hint is not bool and isinstance(value, bool)):
        return False
    if hint in (int, float):
        try:  # every config number converts to a float, as the run's arithmetic needs
            float(value)
        except OverflowError:
            return False
    return True


def _entries(value) -> list:
    """A tuple field's entries: the items of a list, tuple or array, or the one value."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    return list(value) if isinstance(value, (list, tuple)) else [value]


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
    overhead: int  # the frame's pilot and guard slots
    f_s_hz: float  # the receiver's rate: K / T de-chirped, else the bandwidth
    wall_time_s: float
    trials_ok: int
    trials_failed: int
    master_seed: int


_FLOAT_FIELDS = {
    name for name, hint in typing.get_type_hints(ResultRecord).items() if hint is float
}


def _snr_key(snr_db: float) -> int:
    """An SNR's part of its trials' RNG key, in thousandths of a dB; SNRs with
    one key run the same trials.  Outside its range a key is negative or infinite."""
    if not -1048.576 <= snr_db <= 1e300:
        raise ValueError(f"snr_db entries must lie in [-1048.576, 1e300], got {snr_db!r}")
    return int(round(snr_db * 1000)) + (1 << 20)


def _trial_rng(cfg: ExperimentConfig, n_p: int, snr_db: float, trial: int) -> np.random.Generator:
    return np.random.default_rng([cfg.master_seed, n_p, _snr_key(snr_db), trial])


def _support_matches(alpha_hat: np.ndarray, truth: np.ndarray) -> bool:
    # every true entry must outrank every other by a relative 1e-9, so a tie
    # at the boundary is a miss whatever round-off did; an empty truth matches
    mags = np.abs(alpha_hat)
    on = truth != 0
    return not on.any() or bool(mags[on].min() > (1 + 1e-9) * mags[~on].max(initial=0.0))


def _run_trial(cfg, cell, rng):
    """One trial as a generator of three stages: it yields after the profile
    draw and again after the receiver, and returns ``(error, match,
    iterations)``.  The received frame is dropped before the second yield,
    so a trial waiting on the others of its chunk holds only its profile
    and observations."""
    profile = sample_profile(cfg.sparsity, rng)
    truth = vectorize_profile(profile)
    yield
    received = apply_channel(cell.s_cpp, profile, cell.op.params, cell.noise, rng)
    if cell.plan is not None:
        y_p = dechirp_decimate_receive(received, cell.plan)
    else:
        y_p = extract_measurements(daft_demodulate(received, cell.op.params), cell.op.row_indices)
    del received
    yield
    if cfg.solver == "hihtp":
        result = hihtp_recover(cell.op, y_p, *cfg.levels, k_max=cfg.k_max)
    else:
        result = htp_recover(cell.op, y_p, cfg.support, k_max=cfg.k_max)
    err = float(np.linalg.norm(result.alpha - truth) ** 2)
    return err, _support_matches(result.alpha, truth), result.iterations


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _worker_count() -> int:
    """Trial worker processes: the usable CPUs, or ``AFDM_SENSE_THREADS`` capped at them."""
    cpus = _usable_cpus()
    raw = os.environ.get(_THREAD_ENV)
    if not raw:
        return cpus
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"{_THREAD_ENV} must be an integer >= 1, got {raw!r}")
    return min(workers, cpus)


# trials one chunk runs at most: it steps them stage by stage, and each
# waiting trial holds its profile and observations
_CHUNK_MAX = 32


class _TrialPool:
    """Worker processes forked once, each running chunks of trial indices.

    ``run(job, start, stop)`` runs trials ``start`` to ``stop`` of a job as
    one chunk, stage by stage, and returns their outcomes in order.  It and
    all it reads exist before the fork, so the workers inherit them: only
    ``(job, start, stop)`` and a chunk's outcomes cross the pipes.  Chunks
    shrink as a job nears its end, so no worker waits long on another.  With
    fewer than two workers, where the platform cannot fork, while other
    threads run (a forked copy could deadlock on a lock one of them held), or
    while a public function of the package is rebound (a profiler's or a
    test's wrapper keeps what it sees in the process it runs in, so a
    worker's copy would see the trials unseen), ``map`` runs the chunks in
    this process.
    """

    def __init__(self, run, workers: int) -> None:
        self.run = run
        self.workers: list[tuple[int, typing.BinaryIO, typing.BinaryIO]] = []
        if (
            workers < 2
            or not hasattr(os, "fork")
            or threading.active_count() > 1
            or _rebound()
        ):
            return
        # a child must not write out again what this process still buffers
        sys.stdout.flush()
        sys.stderr.flush()
        try:
            for _ in range(workers):
                self._fork()
        except OSError as exc:  # out of processes or memory
            self.close()
            import logging  # imported only where a sweep logs

            logging.getLogger(__name__).warning(
                "cannot fork trial workers (%s); running trials in this process", exc
            )
        except BaseException:
            self.close()
            raise

    def _fork(self) -> None:
        tasks_r, tasks_w = os.pipe()
        results_r, results_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (tasks_r, tasks_w, results_r, results_w):
                os.close(fd)
            raise
        if pid == 0:
            code = 1
            try:
                os.close(tasks_w)
                os.close(results_r)
                for _, tasks, results in self.workers:  # the earlier workers' pipes
                    tasks.close()
                    results.close()
                self._serve(tasks_r, results_w)
                code = 0
            finally:
                os._exit(code)
        os.close(tasks_r)
        os.close(results_w)
        self.workers.append((pid, open(tasks_w, "wb"), open(results_r, "rb")))

    def _serve(self, tasks_fd: int, results_fd: int) -> None:
        with open(tasks_fd, "rb") as tasks, open(results_fd, "wb") as results:
            while True:
                try:
                    job, start, stop = pickle.load(tasks)
                except EOFError:  # the pool is closed
                    return
                pickle.dump(self.run(job, start, stop), results)
                results.flush()

    def map(self, job, count: int) -> list:
        """Outcomes of trials ``0`` to ``count`` of a job, run in chunks of at
        most ``_CHUNK_MAX`` trials spread over the workers."""
        if not self.workers:
            out = []
            for start in range(0, count, _CHUNK_MAX):
                out += self.run(job, start, min(start + _CHUNK_MAX, count))
            return out
        out: list = [None] * count
        idle = list(self.workers)
        busy = {}  # result pipe -> (worker, first trial of its chunk)
        start = 0
        while start < count or busy:
            while idle and start < count:
                worker = idle.pop()
                _, tasks, results = worker
                share = (count - start) // (2 * len(self.workers))
                stop = start + min(_CHUNK_MAX, max(1, share))
                pickle.dump((job, start, stop), tasks)
                tasks.flush()
                busy[results.fileno()] = (worker, start)
                start = stop
            for fd in select.select(list(busy), [], [])[0]:
                worker, first = busy.pop(fd)
                pid, _, results = worker
                try:
                    chunk = pickle.load(results)
                except EOFError:
                    raise RuntimeError(f"trial worker {pid} ended mid-chunk") from None
                out[first : first + len(chunk)] = chunk
                idle.append(worker)
        return out

    def close(self) -> None:
        """End the workers: each reads the end of its task pipe and exits."""
        workers, self.workers = self.workers, []
        for _, tasks, results in workers:
            tasks.close()
            results.close()
        for pid, _, _ in workers:
            os.waitpid(pid, 0)

    def __enter__(self) -> "_TrialPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _Cell(typing.NamedTuple):
    """Fixed state of one (pilot count, SNR) cell, shared by its trials."""

    n_p: int
    snr_db: float
    op: MeasurementOperator  # the one the trials run on: the plan's fold for the de-chirp receiver
    plan: DecimationPlan | None  # the de-chirp receiver's, None at full rate
    s_cpp: np.ndarray
    noise: NoiseConfig
    overhead: int
    f_s: float


def _log_failure(index: int, cell: _Cell) -> None:
    import logging  # imported only where a sweep logs

    logging.getLogger(__name__).exception(
        "trial %d failed (n_pilots=%d, snr=%.1f)", index, cell.n_p, cell.snr_db
    )


def run_monte_carlo(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Sweep pilot counts and SNR points; one record per cell.

    Trials are independent and identically keyed, so results do not depend
    on execution order or worker count.  Every cell's fixed state is built
    here before the trial workers fork, with the lazily cached tables the
    trials read, so no worker rebuilds them.  Failed trials are counted and
    logged, never silently dropped.
    """
    workers = min(_worker_count(), cfg.trials)
    params = cfg.params
    chash = cfg.config_hash()
    cells: list[_Cell] = []
    for n_p in cfg.n_pilots:
        scheme = cfg.schemes[n_p]
        op = build_measurement_operator(scheme, params, cfg.l_taps, cfg.q_max)
        plan = None
        f_s = cfg.bandwidth_hz
        if cfg.receiver == "subnyquist":
            # through the module, where a wrapper installed after import sees it
            plan = subnyquist.decimation_plan(op)
            op = plan.op  # the trials measure and recover on the K-point fold
            f_s = plan.k_points / cfg.radar.frame_duration_s
        if op.columns.refit == "svd":  # no refit is certified on this operator
            # the de-chirp receiver takes only the reduced train, which has no spread placement
            fix = (
                "use more pilots"
                if cfg.receiver == "subnyquist"
                else "spread the pilots (disjoint, not packed) or use more of them"
            )
            raise ValueError(
                f"n_pilots={n_p} gives an operator whose conditioning certificate "
                f"{op.columns.cond:.3g} exceeds the bound {_GRAM_COND_MAX:g}; {fix}"
            )
        frame = build_pilot_frame(scheme, params, cfg.l_taps, cfg.q_max)
        s_cpp = cpp_extend(idaft_modulate(frame, params), params)
        # the row states what its cell ran: the frame's pilots and guards, and
        # the rate of the receiver's K-point fold or the full bandwidth
        overhead = cfg.n - len(data_slots(scheme, params, cfg.l_taps, cfg.q_max))
        for snr_db in cfg.snr_db:
            noise = NoiseConfig.from_snr_db(snr_db)
            cells.append(_Cell(n_p, snr_db, op, plan, s_cpp, noise, overhead, f_s))
    for q in range(-cfg.q_max, cfg.q_max + 1):
        doppler_phase(cfg.n, q)

    def run(job: int, start: int, stop: int) -> list:
        # every live trial takes its next stage before any takes the one
        # after; a trial that raises at any step is one failure, None
        cell = cells[job]
        out: list = [None] * (stop - start)
        live = {}
        for index in range(start, stop):
            try:
                rng = _trial_rng(cfg, cell.n_p, cell.snr_db, index)
                live[index] = _run_trial(cfg, cell, rng)
            except Exception:
                _log_failure(index, cell)
        while live:
            for index, stages in list(live.items()):
                try:
                    next(stages)
                except StopIteration as done:
                    out[index - start] = done.value
                    del live[index]
                except Exception:
                    _log_failure(index, cell)
                    del live[index]
        return out

    # Freeing a never-touched 2 MB block raises glibc's dynamic mmap
    # threshold to its size at no resident cost.  The forked workers inherit
    # the threshold and reuse heap pages for their trial arrays instead of
    # faulting in fresh mappings: without it, the subnyquist_snr workers took
    # about 29k minor faults per CLI run, against 10.1k with it.
    np.empty(1 << 17, dtype=np.complex128)
    records: list[ResultRecord] = []
    with _TrialPool(run, workers) as pool:
        for index, cell in enumerate(cells):
            started = time.perf_counter()
            outcomes = pool.map(index, cfg.trials)
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
                    p_doppler=cfg.sparsity.p_doppler,
                    n_pilots=cell.n_p,
                    snr_db=cell.snr_db,
                    mse=float(errs.mean()),
                    mse_stderr=float(errs.std(ddof=1) / np.sqrt(len(errs)))
                    if len(errs) > 1
                    else 0.0,
                    support_rate=float(np.mean(matches)) if matches else 0.0,
                    mean_iterations=float(np.mean(iters)) if iters else 0.0,
                    overhead=cell.overhead,
                    f_s_hz=cell.f_s,
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

    Each waveform takes exactly its formula's parameters.  Pilot counts and
    ``q_max`` below 0 are refused, as are ``l_taps``, ``chirp_num`` and the
    grid sizes ``n_symbols``, ``n_otfs`` and ``m_otfs`` below 1; zero pilots
    leaves the guard-only overhead.
    """
    # each waveform's parameters, in the order a missing one is named, with their floors
    floors = {
        "afdm": {"n_pilots": 0, "l_taps": 1, "q_max": 0, "chirp_num": 1},
        "ofdm": {"n_pilots_td": 0, "n_pilots_fd": 0, "n_symbols": 1, "l_taps": 1},
        "otfs": {"n_otfs": 1, "m_otfs": 1, "l_taps": 1, "q_max": 0},
    }
    if waveform not in floors:
        raise ValueError(f"waveform must be one of {sorted(floors)}, got {waveform!r}")
    required = floors[waveform]
    missing = [k for k in required if k not in parameters]
    if missing:
        raise ValueError(f"{waveform} overhead needs parameters {missing}")
    unread = sorted(set(parameters) - set(required))
    if unread:
        raise ValueError(f"{waveform} overhead does not read parameters {unread}")
    p = parameters
    for key, floor in required.items():
        if p[key] < floor:
            raise ValueError(f"{key} must be >= {floor}, got {p[key]}")
    if waveform == "afdm":
        spread = (p["l_taps"] - 1) * p["chirp_num"]
        return p["n_pilots"] * (spread + 1) + spread + 4 * p["q_max"]
    if waveform == "ofdm":
        return p["n_pilots_td"] * p["n_pilots_fd"] + (p["n_symbols"] - 1) * (p["l_taps"] - 1)
    return min(4 * p["q_max"] + 1, p["n_otfs"]) * min(2 * p["l_taps"] - 1, p["m_otfs"])


def records_to_csv_str(records: list[ResultRecord]) -> str:
    """Stable-order CSV text; the csv module writes floats in shortest round-trip form."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        doc = asdict(rec)
        writer.writerow([doc[c] for c in CSV_COLUMNS])
    return buf.getvalue()


def emit_report(records: list[ResultRecord], fmt: str, out_path) -> str:
    """Write records as csv or json."""
    if not records:
        raise ValueError("no records to emit")
    out_path = str(out_path)
    if fmt == "csv":
        text = records_to_csv_str(records)
    elif fmt == "json":
        # JSON has no non-finite numbers: such a float is written as the CSV
        # spells it ("nan", "inf" or "-inf"), and load_records_json reads it back
        docs = [
            {k: str(v) if isinstance(v, float) and not math.isfinite(v) else v
             for k, v in asdict(r).items()}
            for r in records
        ]
        text = json.dumps(docs, indent=2, allow_nan=False) + "\n"
    else:
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return out_path


def load_records_json(path) -> list[ResultRecord]:
    """Records that ``emit_report`` wrote as json, each float field as written."""
    with open(path, encoding="utf-8") as fh:
        docs = json.load(fh)
    # a non-finite float comes back from its string; a finite one keeps its
    # JSON form, so an integral config float still writes as the CSV did
    return [
        ResultRecord(**{k: float(v) if isinstance(v, str) and k in _FLOAT_FIELDS else v
                        for k, v in doc.items()})
        for doc in docs
    ]


# (module, name, value) of every public callable a trial can reach, as imported
_AS_IMPORTED = [
    (module, name, value)
    for module in (sys.modules[__name__], channel, daft_core, hihtp, sensing_model, subnyquist)
    for name, value in vars(module).items()
    if not name.startswith("_") and callable(value)
]


def _rebound() -> bool:
    """Whether a public callable of the package was replaced since import."""
    return any(getattr(m, name, None) is not value for m, name, value in _AS_IMPORTED)

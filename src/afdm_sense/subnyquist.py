"""Discrete-time emulation of the de-chirp sub-Nyquist sensing receiver.

Multiplying the received frame by the conjugate zero-th chirp carrier
turns the pilot response into a signal whose DFT occupies exactly the
observation index set.  Keeping every (n / K)-th sample folds bin k onto
k mod K: each kept bin is the sum of the D = n / K full-rate bins of its
residue, each divided by its second chirp, so a K-point DFT measures the
K-point fold of the full-rate operator.  K is the smallest divisor of the
frame length no smaller than the observation count.  ``decimation_plan``
folds an operator once and holds the folded operator with the receiver's
tables (the decimated chirp, the folded bins and their scale); a sweep
builds one per pilot count, and every trial receives and recovers on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .daft_core import AfdmParams
from .hihtp import _Columns
from .sensing_model import MeasurementOperator

__all__ = [
    "RadarConfig",
    "RateInfo",
    "DecimationPlan",
    "sampling_rate",
    "decimation_plan",
    "dechirp_decimate_receive",
]


@dataclass(frozen=True)
class RadarConfig:
    """Physical sampling constants for a sensing deployment."""

    bandwidth_hz: float
    n: int
    cpp_len: int = 0
    include_cpp_in_duration: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.bandwidth_hz) and self.bandwidth_hz > 0):
            raise ValueError(f"bandwidth_hz must be finite and positive, got {self.bandwidth_hz}")
        if self.n <= 0 or self.cpp_len < 0:
            raise ValueError("frame length must be positive and prefix length >= 0")
        if math.isinf(self.frame_duration_s):  # every rate over it would be 0
            raise ValueError(f"bandwidth_hz {self.bandwidth_hz} gives an infinite frame duration")

    @property
    def sample_period_s(self) -> float:
        return 1.0 / self.bandwidth_hz

    @property
    def frame_duration_s(self) -> float:
        samples = self.n + (self.cpp_len if self.include_cpp_in_duration else 0)
        try:
            return samples * self.sample_period_s
        except OverflowError:  # raised at construction, so a built config never does
            raise ValueError(f"a frame of {samples} samples converts to no float") from None


class RateInfo(NamedTuple):
    f_s_hz: float
    compression_ratio: float


def sampling_rate(n_pilots: int, l_taps: int, chirp_num: int, cfg: RadarConfig) -> RateInfo:
    """Minimal de-chirped sampling rate and its ratio to the bandwidth.

    The rate is ``n_pilots ((l_taps - 1) chirp_num + 1) / T`` with ``T``
    taken from ``cfg``; the ratio is always quoted against the
    prefix-free frame duration, i.e. equals
    ``n_pilots ((l_taps - 1) chirp_num + 1) / n``.  A frame (``n``,
    ``chirp_num``, ``cpp_len``) that ``AfdmParams`` refuses, or a reduced
    train that ``PilotScheme.uniform`` refuses at ``q_max = 0``, raises.
    """
    if n_pilots < 1 or l_taps < 1:
        raise ValueError("n_pilots and l_taps must both be >= 1")
    AfdmParams(n=cfg.n, chirp_num=chirp_num, cpp_len=cfg.cpp_len)  # refuses what no frame has
    per_frame = n_pilots * ((l_taps - 1) * chirp_num + 1)
    if per_frame > cfg.n:
        raise ValueError(f"{n_pilots} pilots need {per_frame} samples, more than n = {cfg.n}")
    return RateInfo(
        f_s_hz=per_frame / cfg.frame_duration_s,
        compression_ratio=per_frame / cfg.n,
    )


class DecimationPlan(NamedTuple):
    k_points: int
    decimation: int
    first: np.ndarray  # the zero-th chirp at every decimation-th sample
    bins: np.ndarray  # every folded row's residue mod K
    scale: np.ndarray  # the second chirp at the rows' representatives, times decimation / sqrt(n)
    op: MeasurementOperator  # the K-point fold of the full-rate operator


def decimation_plan(op: MeasurementOperator) -> DecimationPlan:
    """Fold an operator onto the K bins its decimated receiver measures.

    K is the smallest divisor of the frame length that is at least the
    observation count; the emulated receiver then keeps one sample in
    every n / K, so it samples at ``K / T``, at least the minimal rate
    ``sampling_rate`` gives.  Each residue mod K is represented by its
    first observed row, and the folded rows keep the representatives'
    order; ``row_indices`` of the folded operator holds their full-rate
    bins.  A hit on a row that is not its residue's representative moves
    there, times the second chirp at the representative over the second
    chirp at its row, and the column structure adds up a column's hits on
    one row.  The folded operator carries its own conditioning certificate,
    which judges the fold; where no two observed bins share a residue the
    plan holds the full-rate operator itself.  The plan's tables are
    read-only.
    """
    indices, params = op.row_indices, op.params
    n, m = params.n, len(indices)
    k_points = next(k for k in range(m, n + 1) if n % k == 0)
    step = n // k_points
    residue = indices % k_points
    # every row's representative, its residue's first row, and its folded row
    first_row = np.full(k_points, m)
    np.minimum.at(first_row, residue, np.arange(m))
    rep = first_row[residue]
    reps = np.flatnonzero(rep == np.arange(m))
    first, second = params.chirps
    kept = indices[reps]
    tables = (first[::step].copy(), residue[reps], second[kept] * (step / np.sqrt(n)), kept)
    for table in tables:
        table.setflags(write=False)
    if len(reps) == m:  # no two observed bins share a residue: the fold is the operator
        return DecimationPlan(k_points, step, *tables[:3], op)
    # every hit's folded row and weight; the padding row m goes to the fold's
    to_row = np.append(np.searchsorted(reps, rep), len(reps))
    weight = np.append(second[indices[rep]] / second[indices], 1.0)
    weight[reps] = 1.0  # a chirp over itself is off 1 by round-off; staying hits keep their bytes
    hits = op.columns.rows
    cols = _Columns(len(reps), to_row[hits], op.columns.vals * weight[hits])
    return DecimationPlan(k_points, step, *tables[:3], replace(op, columns=cols, row_indices=kept))


def dechirp_decimate_receive(r, plan: DecimationPlan, frame=None) -> np.ndarray:
    """Measure a decimated de-chirped frame on the plan's folded operator.

    Takes the prefix-free frame of ``n`` samples, as ``daft_demodulate``
    does.  The frame must be pilot-only; passing the transmitted frame via
    ``frame`` enables that check.  Returns one sample per row of
    ``plan.op``: the scaled K-point DFT bin of each row's residue, which
    is ``plan.op.columns.matvec`` of the profile plus noise of
    ``decimation * sigma_w2`` per bin.  Where no two observed bins share a
    residue, it is the vector that full-rate demodulation followed by
    index gathering would produce.
    """
    r = np.asarray(r, dtype=np.complex128)
    n = plan.decimation * plan.k_points
    if r.shape != (n,):
        raise ValueError(
            f"received frame must have {n} samples, got {r.shape}; strip the prefix first"
        )
    if frame is not None:
        off_pilot = np.delete(np.asarray(frame, dtype=np.complex128), plan.op.scheme.positions)
        if np.any(np.abs(off_pilot) > 0):
            raise ValueError("data symbols present: the folded band would be corrupted")
    spectrum = np.fft.fft(plan.first * r[:: plan.decimation])
    return plan.scale * spectrum[plan.bins]

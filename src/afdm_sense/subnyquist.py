"""Discrete-time emulation of the de-chirp sub-Nyquist sensing receiver.

Multiplying the received frame by the conjugate zero-th chirp carrier
turns the pilot response into a signal whose DFT occupies exactly the
observation index set.  Keeping every (n / K)-th sample folds bin k onto
k mod K; when the observed bins have distinct residues mod K, as a
circular interval of length at most K has, a K-point DFT recovers the
observed samples at a fraction of the full rate.  K is the smallest
divisor of the frame length no smaller than the observation count.
``decimation_plan`` reads an operator's observation set once and holds the
receiver's tables (the decimated chirp, the folded bins and their scale);
a sweep builds one per pilot count and hands it to every trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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

    @property
    def sample_period_s(self) -> float:
        return 1.0 / self.bandwidth_hz

    @property
    def frame_duration_s(self) -> float:
        samples = self.n + (self.cpp_len if self.include_cpp_in_duration else 0)
        return samples * self.sample_period_s

    @property
    def cpp_duration_s(self) -> float:
        return self.cpp_len * self.sample_period_s

    def max_delay_s(self, l_taps: int) -> float:
        return (l_taps - 1) * self.sample_period_s


class RateInfo(NamedTuple):
    f_s_hz: float
    compression_ratio: float


def sampling_rate(n_pilots: int, l_taps: int, chirp_num: int, cfg: RadarConfig) -> RateInfo:
    """Minimal de-chirped sampling rate and its ratio to the bandwidth.

    The rate is ``n_pilots ((l_taps - 1) chirp_num + 1) / T`` with ``T``
    taken from ``cfg``; the ratio is always quoted against the
    prefix-free frame duration, i.e. equals
    ``n_pilots ((l_taps - 1) chirp_num + 1) / n``.  A ``chirp_num`` or a
    train that ``AfdmParams`` or ``PilotScheme.uniform`` refuses raises.
    """
    if n_pilots < 1 or l_taps < 1:
        raise ValueError("n_pilots and l_taps must both be >= 1")
    if not 1 <= chirp_num < 2 * cfg.n:
        raise ValueError(f"chirp numerator must lie in [1, {2 * cfg.n}), got {chirp_num}")
    per_frame = n_pilots * ((l_taps - 1) * chirp_num + 1)
    if per_frame > cfg.n:
        raise ValueError(f"{n_pilots} pilots need {per_frame} samples, more than n = {cfg.n}")
    return RateInfo(
        f_s_hz=per_frame / cfg.frame_duration_s,
        compression_ratio=per_frame / cfg.n,
    )


class DecimationPlan(NamedTuple):
    n_observed: int
    k_points: int
    decimation: int
    first: np.ndarray  # the zero-th chirp at every decimation-th sample
    bins: np.ndarray  # every observed bin's residue mod K
    scale: np.ndarray  # the second chirp at the observed bins, times decimation / sqrt(n)
    positions: tuple[int, ...]  # the only bins a pilot-only frame fills


def decimation_plan(op) -> DecimationPlan:
    """Choose the folded DFT size for an operator's observation set.

    K is the smallest divisor of the frame length that is at least the
    observation count; the emulated receiver then keeps one sample in
    every n / K, so it samples at ``K / T``, at least the minimal rate
    ``sampling_rate`` gives.  The plan holds the receiver's read-only
    tables; bins sharing a residue mod K raise.
    """
    indices, params = op.row_indices, op.params
    n = params.n
    k_points = next(k for k in range(len(indices), n + 1) if n % k == 0)
    bins = indices % k_points
    # sort and compare neighbours: np.unique would import numpy.ma on first use
    folded = np.sort(bins)
    if np.any(folded[1:] == folded[:-1]):
        raise ValueError("observation set folds with collisions at this rate")
    step = n // k_points
    first, second = params.chirps
    tables = (first[::step].copy(), bins, second[indices] * (step / np.sqrt(n)))
    for table in tables:
        table.setflags(write=False)
    return DecimationPlan(len(indices), k_points, step, *tables, op.scheme.positions)


def dechirp_decimate_receive(r, plan: DecimationPlan, frame=None) -> np.ndarray:
    """Recover the observed samples from a decimated de-chirped frame.

    Takes the prefix-free frame of ``n`` samples, as ``daft_demodulate``
    does.  The frame must be pilot-only; passing the transmitted frame via
    ``frame`` enables that check.  Returns the same vector, in the same
    sorted order, that full-rate demodulation followed by index gathering
    would produce.
    """
    r = np.asarray(r, dtype=np.complex128)
    n = plan.decimation * plan.k_points
    if r.shape != (n,):
        raise ValueError(
            f"received frame must have {n} samples, got {r.shape}; strip a prefix with cpp_strip"
        )
    if frame is not None:
        off_pilot = np.delete(np.asarray(frame, dtype=np.complex128), plan.positions)
        if np.any(np.abs(off_pilot) > 0):
            raise ValueError("data symbols present: the folded band would be corrupted")
    spectrum = np.fft.fft(plan.first * r[:: plan.decimation])
    return plan.scale * spectrum[plan.bins]

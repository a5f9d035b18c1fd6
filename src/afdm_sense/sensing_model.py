"""Pilot frames, observation bookkeeping and the measurement operator.

A pilot placed at transform-domain index ``m`` spreads, after passing
through an on-grid channel, over the observation window
``W = {(m + q - chirp_sign * P * l) mod n}`` for Doppler ``q`` in
``[-q_max, q_max]`` and delay ``l`` in ``[0, l_taps)``.  Collecting the
windows of all pilots gives the observation index set; the measurement
operator maps the vectorized delay-Doppler profile to the observed
samples.  A Doppler shift moves the de-chirped spectrum of a delayed
frame by whole bins, so the operator takes one transform per delay tap.

``PilotScheme.uniform`` lays pilots on an ``AfdmParams`` frame, each with
the window ``window_offsets`` gives, in three placements.  Spread pilots sit
``n // n_pilots`` apart and packed ones (``contiguous=True``) put their
windows back to back, giving ``n_pilots * ((L-1) P + 2 Q + 1)``
observations.  Reduced pilots sit exactly ``(L-1) P + 1`` apart so
neighbouring windows share their Doppler fringes, giving ``n_pilots *
((L-1) P + 1) + 2 Q`` observations (capped at ``n`` when the train wraps).
``PilotScheme.uniform`` owns the layout rules, so a config is checked by
building the scheme of each of its pilot counts.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .daft_core import AfdmParams, idaft_modulate
from .hihtp import _Columns

__all__ = [
    "PilotScheme",
    "MeasurementOperator",
    "window_offsets",
    "observation_index_set",
    "data_slots",
    "build_pilot_frame",
    "build_measurement_operator",
    "extract_measurements",
]

_OVERLAP_MODES = ("disjoint", "reduced")
# l2 norm of each delay tap's full de-chirped spectrum off the pilot bins,
# relative to the norm on them, still taken for transform round-off
# (measured 2.3e-16 to 4.1e-16 for n = 128 to 16384, both chirp signs,
# c2 != 0, disjoint, contiguous and reduced layouts)
_STRAY_TOL = 1e-12


@dataclass(frozen=True)
class PilotScheme:
    """Pilot positions and values."""

    positions: tuple[int, ...]
    values: tuple[complex, ...]

    def __post_init__(self) -> None:
        # tuples, not lists: a scheme built from lists then equals and hashes
        # as the one built from tuples
        object.__setattr__(self, "positions", tuple(self.positions))
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.positions) == 0:
            raise ValueError("at least one pilot is required")
        if len(self.positions) != len(self.values):
            raise ValueError("positions and values must have equal length")
        if len(set(self.positions)) != len(self.positions):
            raise ValueError("pilot positions must be distinct")

    @property
    def n_pilots(self) -> int:
        return len(self.positions)

    @classmethod
    def uniform(
        cls,
        params: AfdmParams,
        n_pilots: int,
        l_taps: int,
        q_max: int,
        amplitude: float = 1.0,
        overlap_mode: str = "disjoint",
        contiguous: bool = False,
        start: int | None = None,
    ) -> "PilotScheme":
        """Equal-value pilots at uniform spacing on the frame of ``params``.

        Each window is ``window_offsets(params, l_taps, q_max)``, no wider
        than the frame.  Disjoint non-contiguous placement spreads pilots
        ``n // n_pilots`` apart; disjoint contiguous placement packs the
        windows back to back; reduced placement spaces pilots the window's
        width less ``2 q_max`` apart and refuses ``contiguous=True``.
        """
        if overlap_mode not in _OVERLAP_MODES:
            raise ValueError(f"overlap_mode must be one of {_OVERLAP_MODES}, got {overlap_mode!r}")
        # only a disjoint train has a spread and a packed placement
        if contiguous and overlap_mode != "disjoint":
            raise ValueError(
                f"contiguous=True needs overlap_mode 'disjoint', got {overlap_mode!r}"
            )
        if n_pilots < 1:
            raise ValueError(f"at least one pilot is required, got n_pilots={n_pilots}")
        n = params.n
        offsets = window_offsets(params, l_taps, q_max)
        width = len(offsets)
        if overlap_mode == "reduced":
            spacing = width - 2 * q_max
        elif contiguous:
            spacing = width
        else:
            spacing = n // n_pilots
        if spacing < 1 or n_pilots * spacing > n:
            raise ValueError(
                f"{n_pilots} pilots with spacing {spacing} do not fit in a frame of {n}"
            )
        if overlap_mode == "disjoint" and spacing < width:
            raise ValueError(
                f"disjoint windows of width {width} need spacing >= {width}, got {spacing}"
            )
        if start is None:
            start = -int(offsets[0]) % n  # the first window starts at index 0
        positions = tuple(int((start + p * spacing) % n) for p in range(n_pilots))
        return cls(positions=positions, values=(complex(amplitude),) * n_pilots)


def window_offsets(params: AfdmParams, l_taps: int, q_max: int) -> np.ndarray:
    """Sorted transform-domain shifts a path can apply to a pilot."""
    delay = -params.chirp_sign * params.chirp_num * (l_taps - 1)
    lo, hi = min(0, delay) - q_max, max(0, delay) + q_max
    if hi - lo >= params.n:  # it would alias onto itself; refused before it is built
        raise ValueError(f"observation window of {hi - lo + 1} exceeds the frame length {params.n}")
    return np.arange(lo, hi + 1)


def observation_index_set(
    scheme: PilotScheme, params: AfdmParams, l_taps: int, q_max: int
) -> np.ndarray:
    """Sorted union of the per-pilot observation windows (read-only).

    Refuses a pilot position outside ``[0, n)``: distinct positions in range
    put distinct pilots on distinct rows of every operator column.
    """
    n = params.n
    offsets = window_offsets(params, l_taps, q_max)
    outside = [m for m in scheme.positions if not 0 <= m < n]
    if outside:
        raise ValueError(f"pilot positions {outside} lie outside [0, {n})")
    mask = np.zeros(n, dtype=bool)
    mask[(np.asarray(scheme.positions)[:, None] + offsets) % n] = True
    indices = np.flatnonzero(mask)
    indices.setflags(write=False)
    return indices


def data_slots(scheme: PilotScheme, params: AfdmParams, l_taps: int, q_max: int) -> np.ndarray:
    """Indices where data symbols cannot disturb any pilot observation."""
    obs = np.zeros(params.n, dtype=bool)
    obs[observation_index_set(scheme, params, l_taps, q_max)] = True
    # positions whose channel response would land inside the observation set
    forbidden = np.zeros(params.n, dtype=bool)
    for delta in window_offsets(params, l_taps, q_max):
        forbidden |= np.roll(obs, -int(delta))
    return np.flatnonzero(~forbidden)


def build_pilot_frame(
    scheme: PilotScheme,
    params: AfdmParams,
    l_taps: int,
    q_max: int,
    data=None,
) -> np.ndarray:
    """Transform-domain frame with pilots, guard zeros and optional data.

    Guard zeros cover every position whose channel response could land in
    an observation window; remaining positions are filled from ``data`` in
    increasing index order (zero when ``data`` is shorter or absent).
    """
    observation_index_set(scheme, params, l_taps, q_max)  # refuses positions outside the frame
    x = np.zeros(params.n, dtype=np.complex128)
    for m, v in zip(scheme.positions, scheme.values):
        x[m] = v
    if data is not None:
        data = np.asarray(data, dtype=np.complex128).reshape(-1)
        slots = data_slots(scheme, params, l_taps, q_max)
        if len(data) > len(slots):
            raise ValueError(f"{len(data)} data symbols exceed the {len(slots)} free slots")
        x[slots[: len(data)]] = data
    return x


@dataclass
class MeasurementOperator:
    """Sensing matrix from vectorized profile to observed samples.

    ``columns`` stores the hits, one observation row and value per pilot and
    column, and the structure the pursuit runs on.  ``matrix`` is the dense
    view, exact zeros off the hits, built on first access only.
    """

    columns: _Columns
    row_indices: np.ndarray
    params: AfdmParams
    scheme: PilotScheme
    l_taps: int
    q_max: int

    @property
    def block_size(self) -> int:
        return 2 * self.q_max + 1

    @property
    def shape(self) -> tuple[int, int]:
        return self.columns.shape

    @cached_property
    def matrix(self) -> np.ndarray:
        return self.columns.dense(np.arange(self.shape[1]))


def _check_column_energy(scheme: PilotScheme, source: str) -> None:
    """Refuse pilots whose operator columns' energy has no normal square.

    A column hits one observation per pilot, with the pilot's magnitude, so
    every column has the energy ``sum |v_p|^2``; the build's norms and the
    pursuit's pair test multiply two such energies and divide by them.
    """
    # on Python floats an overflow gives inf, not a warning
    energy = math.fsum(x * x for v in map(complex, scheme.values) for x in (v.real, v.imag))
    if not sys.float_info.min <= energy * energy < math.inf:
        raise ValueError(
            f"{source} columns of energy {energy:.3g}, whose square is not a normal float"
        )


def build_measurement_operator(
    scheme: PilotScheme, params: AfdmParams, l_taps: int, q_max: int
) -> MeasurementOperator:
    """Assemble the operator from one transform chain per delay tap.

    Column (l, q) holds the observed samples of the pilot frame passed
    through a unit-gain path with delay ``l`` and Doppler ``q``.  The
    Doppler factor ``e^{i2pi q m/n}`` shifts the de-chirped spectrum by
    exactly ``q`` bins, so each delayed frame is transformed once: pilot
    ``m_p`` sits in bin ``base = (m_p - chirp_sign P l) mod n`` and column
    (l, q) hits row ``(base + q) mod n`` with ``second[(base + q) mod n] *
    spectrum_l[base]``; only these hits are stored.  The build raises if the
    spectra carry more than round-off outside the pilot bins, and it refuses
    first pilot values whose column energy squared is not a normal float.
    """
    _check_column_energy(scheme, "the pilot values give")
    n, nd = params.n, 2 * q_max + 1
    indices = observation_index_set(scheme, params, l_taps, q_max)
    s_p = idaft_modulate(build_pilot_frame(scheme, params, l_taps, q_max), params)
    first, second = params.chirps
    taps = np.arange(l_taps)
    # row l of the batch is the frame delayed circularly by l samples: a
    # window of the frame with its last l_taps - 1 samples put in front
    wrapped = np.concatenate((s_p[n - l_taps + 1 :], s_p))
    delayed = np.lib.stride_tricks.sliding_window_view(wrapped, n)[::-1]
    # One FFT over the whole batch, not one per tap.  Per-tap transforms cut
    # the build's peak memory, but freeing the batch's L x n temporaries
    # (0.5 MB on the sub-Nyquist benchmark workload, 2 MB on the paper
    # sweep) is what raises glibc's mmap threshold to their size; the forked
    # trial workers inherit that threshold and then reuse heap pages for
    # their arrays instead of faulting in fresh mappings.  Transformed per
    # tap, the sub-Nyquist workers took 10x the minor faults and 1.37x the
    # CPU time.
    spectra = np.fft.fft(first * delayed, axis=1, norm="ortho")
    shift = params.chirp_sign * params.chirp_num
    base = (np.asarray(scheme.positions)[:, None] - shift * taps) % n
    kept = spectra[taps, base]
    spectra[taps, base] = 0.0
    # norms by dot products over every tap's full spectrum
    stray = math.sqrt(np.vdot(spectra, spectra).real / max(np.vdot(kept, kept).real, 1e-300))
    if not stray <= _STRAY_TOL:  # a NaN norm is refused too
        raise ValueError(f"operator norm off the hit pattern is {stray:.3g} of the norm on it")
    # one hit per pilot in column l * nd + q + q_max
    hits = ((base[:, :, None] + np.arange(-q_max, q_max + 1)) % n).reshape(len(base), -1)
    vals = second[hits] * kept.repeat(nd, 1)
    return MeasurementOperator(
        columns=_Columns(len(indices), np.searchsorted(indices, hits).T, vals.T),
        row_indices=indices,
        params=params,
        scheme=scheme,
        l_taps=l_taps,
        q_max=q_max,
    )


def extract_measurements(y, indices) -> np.ndarray:
    """Gather entries of a full transform-domain frame in sorted index order."""
    y = np.asarray(y)
    indices = np.asarray(indices, dtype=np.int64)
    if np.any(indices[1:] <= indices[:-1]):
        indices = np.sort(indices)
    if len(indices) and (indices[0] < 0 or indices[-1] >= len(y)):
        raise ValueError("observation index out of range")
    return y[indices]


"""Pilot frames, observation bookkeeping and the measurement operator.

A pilot placed at transform-domain index ``m`` spreads, after passing
through an on-grid channel, over the observation window
``W = {(m + q - chirp_sign * P * l) mod n}`` for Doppler ``q`` in
``[-q_max, q_max]`` and delay ``l`` in ``[0, l_taps)``.  Collecting the
windows of all pilots gives the observation index set; the measurement
operator maps the vectorized delay-Doppler profile to the observed
samples.  A Doppler shift moves the de-chirped spectrum of a delayed
frame by whole bins, so the operator takes one transform per delay tap.

``PilotScheme.uniform`` offers three placements.  Spread pilots sit
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
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .daft_core import AfdmParams, idaft_modulate, _chirp_tables
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
    "export_operator",
    "load_operator",
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
        # tuples keep the scheme hashable, as the per-scheme caches need
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
        n: int,
        n_pilots: int,
        l_taps: int,
        q_max: int,
        chirp_num: int,
        chirp_sign: int = 1,
        amplitude: float = 1.0,
        overlap_mode: str = "disjoint",
        contiguous: bool = False,
        start: int | None = None,
    ) -> "PilotScheme":
        """Equal-value pilots at uniform spacing.

        Disjoint non-contiguous placement spreads pilots ``n // n_pilots``
        apart; disjoint contiguous placement packs the windows back to
        back; reduced placement spaces pilots exactly ``(l_taps - 1)
        chirp_num + 1`` apart and refuses ``contiguous=True``.
        """
        if overlap_mode not in _OVERLAP_MODES:
            raise ValueError(f"overlap_mode must be one of {_OVERLAP_MODES}, got {overlap_mode!r}")
        # only a disjoint train has a spread and a packed placement
        if contiguous and overlap_mode != "disjoint":
            raise ValueError(
                f"contiguous=True needs overlap_mode 'disjoint', got {overlap_mode!r}"
            )
        if n_pilots < 1:
            raise ValueError(f"at least one pilot is required, got {n_pilots}")
        width = (l_taps - 1) * chirp_num + 2 * q_max + 1
        stride = (l_taps - 1) * chirp_num + 1
        if overlap_mode == "reduced":
            spacing = stride
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
            # anchor so the first window starts at index 0
            lo = min(-q_max, -q_max - chirp_sign * chirp_num * (l_taps - 1))
            start = (-lo) % n
        positions = tuple(int((start + p * spacing) % n) for p in range(n_pilots))
        values = tuple(complex(amplitude) for _ in range(n_pilots))
        return cls(positions=positions, values=values)


def window_offsets(params: AfdmParams, l_taps: int, q_max: int) -> np.ndarray:
    """Sorted transform-domain shifts a path can apply to a pilot."""
    shift = params.chirp_sign * params.chirp_num
    ends = (-q_max, q_max, -q_max - shift * (l_taps - 1), q_max - shift * (l_taps - 1))
    return np.arange(min(ends), max(ends) + 1)


@lru_cache(maxsize=64)
def observation_index_set(
    scheme: PilotScheme, params: AfdmParams, l_taps: int, q_max: int
) -> np.ndarray:
    """Sorted union of the per-pilot observation windows (cached, read-only).

    Refuses a pilot position outside ``[0, n)``: distinct positions in range
    put distinct pilots on distinct rows of every operator column.
    """
    n = params.n
    offsets = window_offsets(params, l_taps, q_max)
    width = len(offsets)
    if width > n:
        raise ValueError(f"observation window of {width} exceeds the frame length {n}")
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
    spectra carry more than round-off outside the pilot bins.
    """
    n, nd = params.n, 2 * q_max + 1
    indices = observation_index_set(scheme, params, l_taps, q_max)
    s_p = idaft_modulate(build_pilot_frame(scheme, params, l_taps, q_max), params)
    first, second = _chirp_tables(params)
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


def export_operator(op: MeasurementOperator, path) -> None:
    """Write the operator in a plain-text format for cross-tool comparison.

    Header: frame geometry and matrix shape; one line per nonzero entry
    with row, column, real and imaginary parts (17 significant digits).
    """
    rows, cols = op.shape
    p = op.params
    lines = [
        "afdm-sense operator v1",
        f"n {p.n} chirp_num {p.chirp_num} chirp_sign {p.chirp_sign} c2 {p.c2!r} "
        f"l_taps {op.l_taps} q_max {op.q_max}",
        f"rows {rows} cols {cols}",
        "indices " + " ".join(str(int(k)) for k in op.row_indices),
    ]
    nz_r, nz_c = np.nonzero(op.matrix)
    for i, j, v in zip(nz_r, nz_c, op.matrix[nz_r, nz_c]):
        lines.append(f"{i} {j} {float(v.real)!r} {float(v.imag)!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_operator(path) -> tuple[np.ndarray, np.ndarray]:
    """Read back an exported operator; returns (matrix, row_indices).

    A malformed file raises ``ValueError`` naming the file and the line.
    """
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "afdm-sense operator v1":
        raise ValueError(f"{path} is not an exported operator file")
    if len(lines) < 4:
        raise ValueError(f"{path}, line {len(lines) + 1}: the file ends inside the header")

    def error(lineno: int, reason: str) -> ValueError:
        return ValueError(f"{path}, line {lineno}: {reason}")

    # the file is ASCII, so isdigit accepts exactly the non-negative integers
    shape = lines[2].split()
    if len(shape) != 4 or shape[0::2] != ["rows", "cols"] or not all(
        tok.isdigit() for tok in shape[1::2]
    ):
        raise error(3, "expected 'rows R cols C'")
    rows, cols = int(shape[1]), int(shape[3])
    tokens = lines[3].split()
    if tokens[:1] != ["indices"] or not all(tok.isdigit() for tok in tokens[1:]):
        raise error(4, "expected 'indices' and non-negative integers")
    indices = np.array([int(tok) for tok in tokens[1:]], dtype=np.int64)
    if len(indices) != rows:
        raise error(4, f"{len(indices)} indices for {rows} rows")
    matrix = np.zeros((rows, cols), dtype=np.complex128)
    for lineno, line in enumerate(lines[4:], start=5):
        if not line:
            continue
        try:
            i, j, re, im = line.split()
            i, j, value = int(i), int(j), complex(float(re), float(im))
        except ValueError:
            raise error(lineno, "expected 'row col real imag'") from None
        if not (0 <= i < rows and 0 <= j < cols):
            raise error(lineno, f"entry ({i}, {j}) lies outside the {rows} x {cols} matrix")
        matrix[i, j] = value
    return matrix, indices

"""Pilot frames, observation bookkeeping and the measurement operator.

A pilot placed at transform-domain index ``m`` spreads, after passing
through an on-grid channel, over the observation window
``W = {(m + q - chirp_sign * P * l) mod n}`` for Doppler ``q`` in
``[-q_max, q_max]`` and delay ``l`` in ``[0, l_taps)``.  Collecting the
windows of all pilots gives the observation index set; the measurement
operator maps the vectorized delay-Doppler profile to the observed
samples.  AFDM's input-output relation gives each of its hits in closed
form, so the operator is built without a frame or a transform.

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

from .daft_core import AfdmParams
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
    ) -> "PilotScheme":
        """Equal-value pilots at uniform spacing on the frame of ``params``.

        Each window is ``window_offsets(params, l_taps, q_max)``, no wider
        than the frame, and the first window starts at index 0.  Disjoint
        non-contiguous placement spreads pilots ``n // n_pilots`` apart;
        disjoint contiguous placement packs the windows back to back; reduced
        placement spaces pilots the window's width less ``2 q_max`` apart and
        refuses ``contiguous=True``.
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
        start = -int(offsets[0]) % n
        positions = tuple(int((start + p * spacing) % n) for p in range(n_pilots))
        return cls(positions=positions, values=(complex(amplitude),) * n_pilots)


def window_offsets(params: AfdmParams, l_taps: int, q_max: int) -> np.ndarray:
    """Sorted transform-domain shifts a path can apply to a pilot."""
    if l_taps < 1 or q_max < 0:
        raise ValueError("l_taps must be >= 1 and q_max >= 0")
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
    scheme: PilotScheme, params: AfdmParams, l_taps: int, q_max: int
) -> np.ndarray:
    """Pilot-only transform-domain frame: the pilots, and zeros elsewhere.

    The zeros include the guard around every observation window; data may
    go only at the ``data_slots`` indices, which no sweep fills.
    """
    observation_index_set(scheme, params, l_taps, q_max)  # refuses positions outside the frame
    x = np.zeros(params.n, dtype=np.complex128)
    for m, v in zip(scheme.positions, scheme.values):
        x[m] = v
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
    every column has the energy ``sum |v_p|^2``; the pursuit's pair test
    multiplies two such energies and divides by them.
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
    """Assemble the operator from AFDM's input-output relation.

    On an on-grid channel the relation gives every hit in closed form: a
    pilot of value ``v`` at ``m`` through a unit-gain path with delay ``l``
    and Doppler ``q`` lands on row ``r = (m + q - chirp_sign P l) mod n``
    with the value ``v conj(second[m]) e^{-i pi (2 m l - chirp_sign P l^2) / n}
    second[r]`` (Bemani, Ksairi and Kountouris, IEEE TWC 2023).  The phase
    numerator is reduced mod ``2 n`` in integers, as the chirp tables are,
    so large frames lose no precision; only the hits are stored.  Acceptance
    criterion 1 checks the operator against the transform chain.  Pilot
    values whose column energy squared is not a normal float are refused.
    """
    _check_column_energy(scheme, "the pilot values give")
    n, nd = params.n, 2 * q_max + 1
    indices = observation_index_set(scheme, params, l_taps, q_max)
    second = params.chirps[1]
    shift = params.chirp_sign * params.chirp_num
    taps = np.arange(l_taps)
    m = np.asarray(scheme.positions)[:, None]
    base = (m - shift * taps) % n
    # the phase as the chirp tables take it, e^{-i pi frac / n} with frac in
    # [0, 2 n); taps^2 is reduced first, so no product reaches 4 n^2
    frac = (2 * m * taps - shift * (taps * taps % (2 * n))) % (2 * n)
    gain = np.asarray(scheme.values)[:, None] * second[m].conj() * np.exp(-1j * np.pi * frac / n)
    # one hit per pilot in column l * nd + q + q_max
    hits = ((base[:, :, None] + np.arange(-q_max, q_max + 1)) % n).reshape(len(base), -1)
    vals = second[hits] * gain.repeat(nd, 1)
    return MeasurementOperator(
        columns=_Columns(len(indices), np.searchsorted(indices, hits).T, vals.T),
        row_indices=indices,
        params=params,
        scheme=scheme,
        l_taps=l_taps,
        q_max=q_max,
    )


def extract_measurements(y, indices) -> np.ndarray:
    """Gather entries of a full transform-domain frame at observation indices.

    Refuses indices that are out of range or not strictly increasing;
    ``observation_index_set`` returns them sorted and in range.
    """
    y = np.asarray(y)
    indices = np.asarray(indices, dtype=np.int64)
    if np.any(indices[1:] <= indices[:-1]):
        raise ValueError("observation indices must be strictly increasing")
    if len(indices) and (indices[0] < 0 or indices[-1] >= len(y)):
        raise ValueError("observation index out of range")
    return y[indices]


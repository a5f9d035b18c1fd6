"""Pilot frames, observation bookkeeping and the measurement operator.

A pilot placed at transform-domain index ``m`` spreads, after passing
through an on-grid channel, over the observation window
``W = {(m + q - chirp_sign * P * l) mod n}`` for Doppler ``q`` in
``[-q_max, q_max]`` and delay ``l`` in ``[0, l_taps)``.  Collecting the
windows of all pilots gives the observation index set; the measurement
operator maps the vectorized delay-Doppler profile to the observed
samples.  A Doppler shift moves the de-chirped spectrum of a delayed
frame by whole bins, so the operator takes one transform per delay tap.

Two guard layouts are supported.  In ``disjoint`` mode the per-pilot
windows must not overlap, giving ``n_pilots * ((L-1) P + 2 Q + 1)``
observations.  In ``reduced`` mode pilots sit exactly ``(L-1) P + 1``
apart so neighbouring windows share their Doppler fringes, giving
``n_pilots * ((L-1) P + 1) + 2 Q`` observations (capped at ``n`` when the
pilot train wraps the whole frame).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from .daft_core import AfdmParams, idaft_modulate, _chirp_tables
from .hihtp import _Columns

__all__ = [
    "PilotScheme",
    "MeasurementOperator",
    "HierarchicalForm",
    "KroneckerReport",
    "window_offsets",
    "observation_index_set",
    "data_slots",
    "build_pilot_frame",
    "build_measurement_operator",
    "extract_measurements",
    "hierarchical_permutation",
    "kronecker_diagnostic",
    "hirip_probe",
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
    """Pilot positions and values plus the guard layout they follow."""

    positions: tuple[int, ...]
    values: tuple[complex, ...]
    overlap_mode: str = "disjoint"
    contiguous: bool = False

    def __post_init__(self) -> None:
        # tuples keep the scheme hashable, as the per-scheme caches need
        object.__setattr__(self, "positions", tuple(self.positions))
        object.__setattr__(self, "values", tuple(self.values))
        if self.overlap_mode not in _OVERLAP_MODES:
            raise ValueError(f"overlap_mode must be one of {_OVERLAP_MODES}")
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
        back; reduced placement (always contiguous) spaces pilots exactly
        ``(l_taps - 1) chirp_num + 1`` apart.
        """
        if n_pilots < 1:
            raise ValueError(f"at least one pilot is required, got {n_pilots}")
        width = (l_taps - 1) * chirp_num + 2 * q_max + 1
        stride = (l_taps - 1) * chirp_num + 1
        if overlap_mode == "reduced":
            spacing = stride
            contiguous = True
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
        return cls(positions=positions, values=values, overlap_mode=overlap_mode, contiguous=contiguous)


def window_offsets(params: AfdmParams, l_taps: int, q_max: int) -> np.ndarray:
    """Sorted transform-domain shifts a path can apply to a pilot."""
    shift = params.chirp_sign * params.chirp_num
    ends = (-q_max, q_max, -q_max - shift * (l_taps - 1), q_max - shift * (l_taps - 1))
    return np.arange(min(ends), max(ends) + 1)


def _is_circular_interval(mask: np.ndarray) -> bool:
    size = int(mask.sum())
    if size == 0 or size == mask.size:
        return True
    # exactly one run of missing indices on the circle
    gaps = np.flatnonzero(mask & ~np.roll(mask, -1))
    return len(gaps) == 1


@lru_cache(maxsize=64)
def observation_index_set(
    scheme: PilotScheme, params: AfdmParams, l_taps: int, q_max: int
) -> np.ndarray:
    """Sorted union of the per-pilot observation windows (cached, read-only).

    Validates the guard layout: disjoint mode requires non-overlapping
    windows, reduced mode requires the cardinality the tight pilot spacing
    produces, and the contiguous flag requires the union to be one
    circular interval.
    """
    n = params.n
    offsets = window_offsets(params, l_taps, q_max)
    width = len(offsets)
    if width > n:
        raise ValueError(f"observation window of {width} exceeds the frame length {n}")
    mask = np.zeros(n, dtype=bool)
    mask[(np.asarray(scheme.positions)[:, None] + offsets) % n] = True
    size = int(mask.sum())
    if scheme.overlap_mode == "disjoint" and size != width * scheme.n_pilots:
        raise ValueError("observation windows overlap in disjoint mode")
    if scheme.overlap_mode == "reduced":
        stride = (l_taps - 1) * params.chirp_num + 1
        expected = min(n, scheme.n_pilots * stride + 2 * q_max)
        if size != expected:
            raise ValueError(
                f"reduced mode expects {expected} observation indices "
                f"(pilots spaced {stride} apart), found {size}"
            )
    if scheme.contiguous and not _is_circular_interval(mask):
        raise ValueError("observation set is not a circular interval")
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
    observation_index_set(scheme, params, l_taps, q_max)  # validates the layout
    x = np.zeros(params.n, dtype=np.complex128)
    for m, v in zip(scheme.positions, scheme.values):
        x[m % params.n] = v
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
        dense = np.zeros((self.shape[0] + 1, self.shape[1]), dtype=np.complex128)
        dense[self.columns.rows, np.arange(self.shape[1])[:, None]] = self.columns.vals
        return dense[:-1]  # the last row took the padding


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
    # row l of the batch is the frame delayed circularly by l samples
    spectra = np.fft.fft(first * s_p[(np.arange(n) - taps[:, None]) % n], axis=1, norm="ortho")
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


@dataclass
class HierarchicalForm:
    """Grid partition into transform-domain residue classes.

    ``diagonal_sets[j]`` lists the (delay, Doppler) points whose window
    shift is congruent to ``j`` modulo ``(l_taps - 1) chirp_num + 1``; with
    a negative chirp slope the congruence reads
    ``(q + chirp_num * l) mod block_count == j`` and with a positive slope
    the Doppler sign flips.  ``column_permutation[new] = old`` reorders the
    vectorized profile into the concatenation of the classes.
    """

    l_taps: int
    q_max: int
    chirp_num: int
    chirp_sign: int
    block_count: int
    diagonal_sets: tuple[tuple[tuple[int, int], ...], ...]
    column_permutation: np.ndarray

    @property
    def block_widths(self) -> tuple[int, ...]:
        return tuple(len(d) for d in self.diagonal_sets)


def hierarchical_permutation(
    l_taps: int, q_max: int, chirp_num: int, chirp_sign: int = -1
) -> HierarchicalForm:
    """Partition the grid by the residue of the window shift.

    The default negative slope matches the congruence
    ``(q + chirp_num * l) mod ((l_taps - 1) chirp_num + 1)``; classes come
    out as whole or wrapped grid diagonals.  Residues are canonicalized to
    ``[0, (l_taps - 1) chirp_num]``.
    """
    if chirp_sign not in (-1, 1):
        raise ValueError("chirp_sign must be +1 or -1")
    block_count = (l_taps - 1) * chirp_num + 1
    nd = 2 * q_max + 1
    groups: list[list[tuple[int, int]]] = [[] for _ in range(block_count)]
    for l, q in product(range(l_taps), range(-q_max, q_max + 1)):
        groups[(q - chirp_sign * chirp_num * l) % block_count].append((l, q))
    diagonal_sets = tuple(tuple(sorted(g)) for g in groups)
    perm = np.fromiter(
        (l * nd + q + q_max for group in diagonal_sets for (l, q) in group),
        dtype=np.int64,
        count=l_taps * nd,
    )
    return HierarchicalForm(
        l_taps=l_taps,
        q_max=q_max,
        chirp_num=chirp_num,
        chirp_sign=chirp_sign,
        block_count=block_count,
        diagonal_sets=diagonal_sets,
        column_permutation=perm,
    )


@dataclass
class KroneckerReport:
    """Result of tiling the permuted operator into residue-class blocks.

    ``off_block_mass`` is the largest entry magnitude outside the paired
    row/column blocks.  When the tiling is uniform, ``block_matrix`` holds
    the first diagonal block, ``max_block_deviation`` the largest entrywise
    distance of any block from it, ``gram_deviation`` the largest distance
    of any block Gram matrix from ``n_pilots x identity`` after row
    rescaling (the partial-Fourier signature), ``unit_modulus_deviation``
    the largest deviation of block entry magnitudes from the contributing
    pilot magnitude, and ``row_scales`` the per-row pilot magnitudes
    recovered from unwrapped columns.
    """

    block_count: int
    block_widths: tuple[int, ...]
    group_sizes: tuple[int, ...]
    tiling_uniform: bool
    off_block_mass: float
    block_matrix: np.ndarray | None
    max_block_deviation: float | None = None
    gram_deviation: float | None = None
    unit_modulus_deviation: float | None = None
    row_scales: np.ndarray | None = None


def kronecker_diagnostic(op: MeasurementOperator, hf: HierarchicalForm) -> KroneckerReport:
    """Permute the operator into residue-class blocks and measure structure.

    Rows are grouped by the residue of their index relative to the first
    pilot position, columns by ``hf.diagonal_sets``.  With equal-magnitude
    pilots spaced so that the whole frame is covered periodically, the
    permuted operator is exactly block diagonal with unit-modulus
    partial-Fourier blocks; other layouts are reported with
    ``tiling_uniform`` false rather than rejected.
    """
    if hf.l_taps != op.l_taps or hf.q_max != op.q_max:
        raise ValueError("hierarchical form and operator grids disagree")
    if hf.chirp_num != op.params.chirp_num or hf.chirp_sign != op.params.chirp_sign:
        raise ValueError("hierarchical form and operator chirp conventions disagree")
    n = op.params.n
    blocks = hf.block_count
    anchor = op.scheme.positions[0]
    rel = (op.row_indices - anchor) % n
    residues = rel % blocks
    order = np.lexsort((rel // blocks, residues))
    group_sizes = tuple(int((residues == b).sum()) for b in range(blocks))
    permuted = op.matrix[np.ix_(order, hf.column_permutation)]

    widths = hf.block_widths
    uniform = len(set(group_sizes)) == 1 and len(set(widths)) == 1

    row_edges = np.concatenate([[0], np.cumsum(group_sizes)])
    col_edges = np.concatenate([[0], np.cumsum(widths)])
    off = permuted.copy()
    block_list = []
    for b in range(blocks):
        r0, r1 = row_edges[b], row_edges[b + 1]
        c0, c1 = col_edges[b], col_edges[b + 1]
        block_list.append(permuted[r0:r1, c0:c1].copy())
        off[r0:r1, c0:c1] = 0.0
    off_mass = float(np.abs(off).max()) if off.size else 0.0

    if not uniform:
        return KroneckerReport(
            block_count=blocks,
            block_widths=widths,
            group_sizes=group_sizes,
            tiling_uniform=False,
            off_block_mass=off_mass,
            block_matrix=block_list[0],
        )

    n_rows = group_sizes[0]
    first = block_list[0]
    max_dev = max(float(np.abs(blk - first).max()) for blk in block_list)

    # per-entry expected magnitude: the pilot the entry travelled through
    pilot_mags = np.abs(np.asarray(op.scheme.values))
    mod_dev = 0.0
    scales = None
    gram_dev = 0.0
    for b, blk in enumerate(block_list):
        shifts = [q - hf.chirp_sign * hf.chirp_num * l for (l, q) in hf.diagonal_sets[b]]
        wraps = (np.array(shifts) - b) // blocks
        rows = np.arange(n_rows)
        pilot_of_entry = (rows[:, None] - wraps[None, :]) % n_rows
        if len(pilot_mags) == n_rows:
            expected = pilot_mags[pilot_of_entry]
            mod_dev = max(mod_dev, float(np.abs(np.abs(blk) - expected).max()))
            normalized = blk / np.where(expected == 0, 1.0, expected)
        else:
            normalized = blk
        gram = normalized.conj().T @ normalized
        gram_dev = max(
            gram_dev, float(np.abs(gram - n_rows * np.eye(gram.shape[0])).max())
        )
        if b == 0 and len(pilot_mags) == n_rows:
            unwrapped = np.flatnonzero(wraps == 0)
            if len(unwrapped):
                scales = np.abs(blk[:, unwrapped[0]])
    return KroneckerReport(
        block_count=blocks,
        block_widths=widths,
        group_sizes=group_sizes,
        tiling_uniform=True,
        off_block_mass=off_mass,
        block_matrix=first,
        max_block_deviation=max_dev,
        gram_deviation=gram_dev,
        unit_modulus_deviation=mod_dev if len(pilot_mags) == n_rows else None,
        row_scales=scales,
    )


def hirip_probe(
    op: MeasurementOperator,
    s_block: int,
    s_entry: int,
    trials: int,
    rng: np.random.Generator,
) -> dict:
    """Monte-Carlo isometry probe over random hierarchically sparse vectors.

    Ratios are ``|M x|^2 / |x|^2`` normalized by the common squared column
    norm; a well conditioned operator keeps them close to one.
    """
    nd = 2 * op.q_max + 1
    col_sq = float(np.sum(np.abs(np.asarray(op.scheme.values)) ** 2))
    ratios = np.empty(trials)
    for t in range(trials):
        blocks = rng.choice(op.l_taps, size=s_block, replace=False)
        x = np.zeros(op.l_taps * nd, dtype=np.complex128)
        for b in blocks:
            entries = rng.choice(nd, size=s_entry, replace=False)
            x[b * nd + entries] = rng.standard_normal(s_entry) + 1j * rng.standard_normal(s_entry)
        ratios[t] = np.linalg.norm(op.columns.matvec(x)) ** 2 / (np.linalg.norm(x) ** 2 * col_sq)
    return {
        "min_ratio": float(ratios.min()),
        "max_ratio": float(ratios.max()),
        "mean_ratio": float(ratios.mean()),
    }


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

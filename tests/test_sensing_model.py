import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from afdm_sense import (
    AfdmParams,
    PilotScheme,
    SparsityConfig,
    apply_channel,
    build_measurement_operator,
    build_pilot_frame,
    cpp_extend,
    daft_demodulate,
    data_slots,
    extract_measurements,
    idaft_modulate,
    load_operator,
    export_operator,
    observation_index_set,
    sample_profile,
    vectorize_profile,
)
from afdm_sense import sensing_model
from afdm_sense.channel import DelayDopplerProfile, doppler_phase


def simulate_observations(scheme, params, l_taps, q_max, profile, data=None):
    frame = build_pilot_frame(scheme, params, l_taps, q_max, data=data)
    s = cpp_extend(idaft_modulate(frame, params), params)
    r = apply_channel(s, profile, params)
    indices = observation_index_set(scheme, params, l_taps, q_max)
    return extract_measurements(daft_demodulate(r, params), indices)


def test_window_example():
    params = AfdmParams(n=64, chirp_num=2)
    scheme = PilotScheme(positions=(20,), values=(1.0,))
    idx = observation_index_set(scheme, params, 3, 2)
    assert idx.tolist() == list(range(14, 23))
    assert len(idx) == (3 - 1) * 2 + 2 * 2 + 1


def test_window_from_index_map_oracle():
    # brute-force oracle: enumerate k = (m + q - P l) mod n over the grid
    params = AfdmParams(n=64, chirp_num=2)
    scheme = PilotScheme(positions=(20,), values=(1.0,))
    oracle = sorted({(20 + q - 2 * l) % 64 for q in range(-2, 3) for l in range(3)})
    assert observation_index_set(scheme, params, 3, 2).tolist() == oracle


def test_cardinalities_disjoint_and_reduced():
    n, l_taps, q_max, p = 128, 3, 2, 2
    params = AfdmParams(n=n, chirp_num=p)
    disjoint = PilotScheme.uniform(n, 2, l_taps, q_max, p)
    assert len(observation_index_set(disjoint, params, l_taps, q_max)) == 2 * ((l_taps - 1) * p + 2 * q_max + 1)
    reduced = PilotScheme.uniform(n, 2, l_taps, q_max, p, overlap_mode="reduced")
    assert len(observation_index_set(reduced, params, l_taps, q_max)) == 2 * ((l_taps - 1) * p + 1) + 2 * q_max


def test_trivial_window():
    params = AfdmParams(n=16, chirp_num=1)
    scheme = PilotScheme(positions=(5,), values=(1.0,))
    assert observation_index_set(scheme, params, 1, 0).tolist() == [5]


def test_overlapping_windows_match_the_chain():
    # overlapping windows share observations, as those of a reduced train do
    n, l_taps, q_max = 64, 3, 1
    params = AfdmParams(n=n, chirp_num=1, cpp_len=l_taps - 1)
    scheme = PilotScheme(positions=(10, 12), values=(1.0, 1.0))
    op = build_measurement_operator(scheme, params, l_taps, q_max)
    unit = np.eye(op.shape[1], dtype=complex)
    for j in range(op.shape[1]):
        gains = unit[j].reshape(l_taps, 2 * q_max + 1)
        path = DelayDopplerProfile(gains=gains, mask=gains != 0, gain_var=1.0)
        chain = simulate_observations(scheme, params, l_taps, q_max, path)
        assert np.abs(chain - op.matrix[:, j]).max() <= 1e-12
        assert np.abs(chain - op.columns.matvec(unit[j])).max() <= 1e-12


@pytest.mark.parametrize("positions", [(10, 74), (10, -54)])
def test_positions_outside_the_frame_rejected(positions):
    # both pilots would land on bin 10 and give every column two hits on one row
    params = AfdmParams(n=64, chirp_num=1)
    scheme = PilotScheme(positions=positions, values=(1.0, 1.0))
    for build in (observation_index_set, build_pilot_frame, build_measurement_operator):
        with pytest.raises(ValueError, match=r"outside \[0, 64\)"):
            build(scheme, params, 3, 1)


def test_contiguous_placement_packs_windows():
    params = AfdmParams(n=64, chirp_num=1)
    packed = PilotScheme.uniform(64, 2, 2, 1, 1, contiguous=True)
    idx = observation_index_set(packed, params, 2, 1)
    assert np.array_equal(np.diff(idx), np.ones(len(idx) - 1, dtype=np.int64))


def test_pilot_frame_single_nonzero():
    params = AfdmParams(n=32, chirp_num=1)
    scheme = PilotScheme(positions=(9,), values=(2.0,))
    frame = build_pilot_frame(scheme, params, 2, 1)
    assert np.flatnonzero(frame).tolist() == [9]
    assert frame[9] == 2.0


def test_pilot_frame_rejects_distinct_violations():
    with pytest.raises(ValueError, match="distinct"):
        PilotScheme(positions=(3, 3), values=(1.0, 1.0))


@pytest.mark.parametrize("n_pilots", [0, -1])
def test_uniform_scheme_rejects_no_pilots(n_pilots):
    # the default spread layout would divide the frame by the pilot count
    with pytest.raises(ValueError, match="at least one pilot"):
        PilotScheme.uniform(4096, n_pilots, 30, 7, 1)


def test_uniform_scheme_owns_the_layout_rules():
    # a reduced train is spaced the same either way; only a disjoint one is packed
    with pytest.raises(ValueError, match="contiguous=True needs overlap_mode 'disjoint', got 'reduced'"):
        PilotScheme.uniform(64, 2, 3, 1, 1, overlap_mode="reduced", contiguous=True)
    with pytest.raises(ValueError, match="overlap_mode must be one of .*, got 'foo'"):
        PilotScheme.uniform(64, 2, 3, 1, 1, overlap_mode="foo")
    # a train longer than the frame
    with pytest.raises(ValueError, match="do not fit in a frame of 64"):
        PilotScheme.uniform(64, 30, 3, 1, 1, overlap_mode="reduced")


def test_data_fills_only_safe_slots_and_guard_isolation():
    """Random data outside the guards leaves the observations untouched."""
    n, l_taps, q_max = 64, 3, 2
    params = AfdmParams(n=n, chirp_num=2, cpp_len=l_taps - 1)
    scheme = PilotScheme(positions=(20,), values=(1.0,))
    slots = data_slots(scheme, params, l_taps, q_max)
    # forbidden zone: the window dilated by the offset range on both sides
    assert len(slots) == n - (2 * ((l_taps - 1) * 2 + 2 * q_max) + 1)
    rng = np.random.default_rng(0)
    qam = rng.choice([-1, 1], size=len(slots)) + 1j * rng.choice([-1, 1], size=len(slots))
    cfg = SparsityConfig("type2", l_taps=l_taps, q_max=q_max, p_delay=0.7, p_doppler=0.7)
    prof = sample_profile(cfg, rng)
    y_quiet = simulate_observations(scheme, params, l_taps, q_max, prof)
    y_loud = simulate_observations(scheme, params, l_taps, q_max, prof, data=qam)
    assert np.abs(y_loud - y_quiet).max() < 1e-10


def test_data_overflow_rejected():
    params = AfdmParams(n=32, chirp_num=1)
    scheme = PilotScheme(positions=(8,), values=(1.0,))
    free = len(data_slots(scheme, params, 2, 1))
    with pytest.raises(ValueError, match="free slots"):
        build_pilot_frame(scheme, params, 2, 1, data=np.ones(free + 1))


def test_operator_column_structure():
    n, l_taps, q_max, p = 128, 4, 2, 1
    params = AfdmParams(n=n, chirp_num=p, c2=0.3)
    scheme = PilotScheme.uniform(n, 3, l_taps, q_max, p)
    op = build_measurement_operator(scheme, params, l_taps, q_max)
    nd = 2 * q_max + 1
    for l in range(l_taps):
        for q in range(-q_max, q_max + 1):
            col = op.matrix[:, l * nd + q_max + q]
            nz = np.flatnonzero(np.abs(col) > 1e-12)
            assert len(nz) == scheme.n_pilots
            assert np.abs(np.abs(col[nz]) - 1.0).max() < 1e-12
            rows = sorted(op.row_indices[nz].tolist())
            assert rows == sorted((m + q - p * l) % n for m in scheme.positions)


HIT_PATTERN_CASES = [
    ("disjoint", False, 1, 0.0, None),
    ("disjoint", False, -1, 0.29, None),
    ("disjoint", True, 1, -0.4, None),
    ("reduced", False, 1, 0.13, None),
    ("reduced", False, -1, 0.0, None),
    # a pilot at index 0: its window wraps past n - 1
    ("disjoint", False, 1, 0.21, 0),
]


@pytest.mark.parametrize(
    "mode,contiguous,sign,c2,start",
    HIT_PATTERN_CASES,
    # an unset start (the default anchoring) is left out of the id
    ids=["-".join(map(str, c[:4] if c[4] is None else c)) for c in HIT_PATTERN_CASES],
)
def test_operator_hit_pattern(mode, contiguous, sign, c2, start):
    n, l_taps, q_max, p, n_pilots = 256, 4, 2, 2, 3
    params = AfdmParams(n=n, chirp_num=p, chirp_sign=sign, c2=c2, cpp_len=(l_taps - 1) * p)
    scheme = PilotScheme.uniform(
        n,
        n_pilots,
        l_taps,
        q_max,
        p,
        chirp_sign=sign,
        overlap_mode=mode,
        contiguous=contiguous,
        start=start,
    )
    op = build_measurement_operator(scheme, params, l_taps, q_max)
    nd = 2 * q_max + 1
    for l in range(l_taps):
        for q in range(-q_max, q_max + 1):
            col = op.matrix[:, l * nd + q_max + q]
            rows = op.row_indices[np.flatnonzero(col)]
            assert sorted(rows.tolist()) == sorted(
                (m + q - sign * p * l) % n for m in scheme.positions
            )
            # the kept column is the transform chain's output for a unit path:
            # whatever was set to zero was round-off
            gains = np.zeros((l_taps, nd), dtype=complex)
            gains[l, q + q_max] = 1.0
            path = DelayDopplerProfile(gains=gains, mask=gains != 0, gain_var=1.0)
            chain = simulate_observations(scheme, params, l_taps, q_max, path)
            assert np.abs(chain - col).max() < 1e-13


def test_operator_off_pattern_energy_rejected(monkeypatch):
    # a transmitter whose chirp differs from the receiver's spreads each
    # pilot over the whole spectrum: the chain no longer matches the on-grid
    # pattern and the build must refuse it
    monkeypatch.setattr(
        sensing_model,
        "idaft_modulate",
        lambda x, p: idaft_modulate(x, replace(p, chirp_num=p.chirp_num + 1)),
    )
    params = AfdmParams(n=64, chirp_num=1)
    scheme = PilotScheme.uniform(64, 2, 3, 1, 1)
    with pytest.raises(ValueError, match="off the hit pattern"):
        build_measurement_operator(scheme, params, 3, 1)


@pytest.mark.parametrize("amplitude, c2", [(float("nan"), 0.0), (1.0, float("nan"))])
def test_operator_with_nan_rejected(amplitude, c2):
    # a NaN chirp parameter is refused by the waveform itself; a NaN pilot
    # makes every stray norm NaN, which the build refuses
    if np.isnan(c2):
        with pytest.raises(ValueError, match="c2 must be finite"):
            AfdmParams(n=64, chirp_num=1, c2=c2)
        return
    params = AfdmParams(n=64, chirp_num=1, c2=c2)
    scheme = PilotScheme.uniform(64, 2, 3, 1, 1, amplitude=amplitude)
    with pytest.raises(ValueError, match="off the hit pattern"):
        build_measurement_operator(scheme, params, 3, 1)


def test_operator_single_column_degenerate():
    params = AfdmParams(n=16, chirp_num=1)
    scheme = PilotScheme(positions=(7,), values=(1.0,))
    op = build_measurement_operator(scheme, params, 1, 0)
    assert op.shape == (1, 1)
    assert abs(abs(op.matrix[0, 0]) - 1.0) < 1e-12
    assert op.row_indices.tolist() == [7]


@pytest.mark.parametrize("sign,c2", [(1, 0.0), (1, 0.37), (-1, 0.0), (-1, -0.21)])
def test_cross_path_consistency(sign, c2):
    """Simulated chain equals operator times vector for both chirp slopes."""
    n, l_taps, q_max = 128, 5, 2
    params = AfdmParams(n=n, chirp_num=1, chirp_sign=sign, c2=c2, cpp_len=l_taps - 1)
    scheme = PilotScheme.uniform(n, 2, l_taps, q_max, 1, chirp_sign=sign)
    op = build_measurement_operator(scheme, params, l_taps, q_max)
    cfg = SparsityConfig("type2", l_taps=l_taps, q_max=q_max, p_delay=0.5, p_doppler=0.5)
    rng = np.random.default_rng(1)
    for _ in range(10):
        prof = sample_profile(cfg, rng)
        ref = op.matrix @ vectorize_profile(prof)
        if np.linalg.norm(ref) == 0:
            continue
        y = simulate_observations(scheme, params, l_taps, q_max, prof)
        assert np.linalg.norm(y - ref) / np.linalg.norm(ref) < 1e-12


def test_extract_measurements_examples():
    y = np.arange(64, dtype=complex)
    assert np.array_equal(extract_measurements(y, np.arange(64)), y)
    assert extract_measurements(y, np.arange(14, 23)).tolist() == list(range(14, 23))
    with pytest.raises(ValueError):
        extract_measurements(y, [64])
    # gather then scatter back reproduces the observed entries
    idx = np.array([3, 9, 11])
    got = extract_measurements(y, idx)
    z = np.zeros_like(y)
    z[idx] = got
    assert np.array_equal(extract_measurements(z, idx), got)
    # unsorted input is gathered in sorted order and still range-checked
    assert np.array_equal(extract_measurements(y, [11, 3, 9]), got)
    with pytest.raises(ValueError):
        extract_measurements(y, [9, -1])


def window_shifts(op):
    """Every column's window shift ``q - chirp_sign P l``, in column order."""
    l, q = np.divmod(np.arange(op.shape[1]), op.block_size)
    return q - op.q_max - op.params.chirp_sign * op.params.chirp_num * l


def same_partition(a, b):
    """Whether two labellings group the same items alike."""
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


def component_shapes(cols):
    """Rows and columns of every component, its rows counted from the hits."""
    m = cols.shape[0]
    hit = cols.rows < m  # padding points at row m
    comp = np.broadcast_to(cols.comp[:, None], cols.rows.shape)[hit]
    keys = np.unique(comp * (m + 1) + cols.rows[hit])  # distinct (component, row)
    return np.bincount(keys // (m + 1)), np.bincount(cols.comp)


def reduced_train_operator(l_taps, q_max, p, n_pilots, chirp_sign=-1):
    """The operator of a reduced pilot train that wraps the frame exactly."""
    n = n_pilots * ((l_taps - 1) * p + 1)
    params = AfdmParams(n=n, chirp_num=p, chirp_sign=chirp_sign)
    scheme = PilotScheme.uniform(
        n, n_pilots, l_taps, q_max, p, chirp_sign=chirp_sign, overlap_mode="reduced"
    )
    return build_measurement_operator(scheme, params, l_taps, q_max)


def component_cells(op):
    """The delay-Doppler cells ``(l, q)`` of every component, as a set of sets."""
    l, q = np.divmod(np.arange(op.shape[1]), op.block_size)
    cells = {}
    for c, li, qi in zip(op.columns.comp.tolist(), l.tolist(), (q - op.q_max).tolist()):
        cells.setdefault(c, set()).add((li, qi))
    return {frozenset(s) for s in cells.values()}


def test_hierarchical_permutation_degenerate_single_tap():
    op = reduced_train_operator(1, 2, 1, 8)
    assert component_cells(op) == {frozenset((0, q) for q in range(-2, 3))}  # the whole grid in one class


def test_hierarchical_permutation_small_case_oracle():
    op = reduced_train_operator(3, 1, 1, 4)
    oracle = {j: set() for j in range(3)}
    for l in range(3):
        for q in (-1, 0, 1):
            oracle[(q + l) % 3].add((l, q))
    assert component_cells(op) == {frozenset(s) for s in oracle.values()}


def test_hierarchical_permutation_partitions_grid():
    rng = np.random.default_rng(2)
    for _ in range(20):
        l_taps = int(rng.integers(1, 9))
        q_max = int(rng.integers(0, 5))
        p = int(rng.integers(1, 4))
        params = AfdmParams(n=256, chirp_num=p)
        scheme = PilotScheme.uniform(256, 2, l_taps, q_max, p)
        op = build_measurement_operator(scheme, params, l_taps, q_max)
        cells = component_cells(op)
        assert sum(len(s) for s in cells) == l_taps * (2 * q_max + 1)
        assert set().union(*cells) == {(l, q) for l in range(l_taps) for q in range(-q_max, q_max + 1)}
        assert sorted(np.unique(op.columns.comp).tolist()) == list(range(len(cells)))


def full_wrap_setup(n=256, l_taps=8, q_max=3, values=None):
    p = 1
    params = AfdmParams(n=n, chirp_num=p, chirp_sign=-1, cpp_len=l_taps - 1)
    n_pilots = n // ((l_taps - 1) * p + 1)
    scheme = PilotScheme.uniform(
        n, n_pilots, l_taps, q_max, p, chirp_sign=-1, overlap_mode="reduced"
    )
    if values is not None:
        scheme = PilotScheme(positions=scheme.positions, values=tuple(values))
    return build_measurement_operator(scheme, params, l_taps, q_max)


def test_components_are_the_residue_classes():
    grids = list(product((1, 2, 3, 5, 8), range(4), range(1, 4), (-1, 1)))
    # a reduced train that wraps the frame: the window shift mod (L-1)P+1
    reduced = 0
    for (l_taps, q_max, p, sign), n_pilots in product(grids, (2, 4, 6)):
        stride = (l_taps - 1) * p + 1
        n = n_pilots * stride
        if (l_taps - 1) * p + 2 * q_max + 1 > n:
            continue  # one window would exceed the frame
        params = AfdmParams(n=n, chirp_num=p, chirp_sign=sign)
        scheme = PilotScheme.uniform(
            n, n_pilots, l_taps, q_max, p, chirp_sign=sign, overlap_mode="reduced"
        )
        op = build_measurement_operator(scheme, params, l_taps, q_max)
        assert same_partition(op.columns.comp, window_shifts(op) % stride), (params, l_taps, q_max)
        reduced += 1
    assert reduced == 306  # of the 360 reduced grids, those whose window fits the frame
    # spread disjoint pilots: the window shift itself
    for (l_taps, q_max, p, sign), n_pilots in product(grids, (1, 2, 4)):
        params = AfdmParams(n=256, chirp_num=p, chirp_sign=sign)
        scheme = PilotScheme.uniform(256, n_pilots, l_taps, q_max, p, chirp_sign=sign)
        op = build_measurement_operator(scheme, params, l_taps, q_max)
        assert same_partition(op.columns.comp, window_shifts(op)), (n_pilots, params, l_taps, q_max)


def test_kronecker_block_diagonal_support_and_modulus():
    op = full_wrap_setup()
    cols = op.columns
    assert same_partition(cols.comp, window_shifts(op) % 8)
    rows, widths = component_shapes(cols)
    assert rows.tolist() == [32] * 8 and widths.tolist() == [7] * 8
    hits = cols.vals[cols.rows < cols.shape[0]]
    assert np.abs(np.abs(hits) - 1.0).max() < 1e-9
    # every Gram block is 32 I: the partial-Fourier signature
    assert all(np.abs(cols.gram[c, :7, :7] - 32 * np.eye(7)).max() < 1e-9 for c in range(8))
    assert cols.refit == "scale"


def test_kronecker_recovers_pilot_magnitudes():
    rng = np.random.default_rng(3)
    mags = rng.uniform(0.5, 2.0, 32)
    cols = full_wrap_setup(values=mags.astype(complex)).columns
    # every column passes each pilot once, so it carries each magnitude once
    got = np.sort(np.abs(cols.vals), axis=1)
    assert np.abs(got - np.sort(mags)).max() < 1e-12


def test_kronecker_single_pilot_single_row_blocks():
    params = AfdmParams(n=32, chirp_num=1, chirp_sign=-1)
    scheme = PilotScheme(positions=(0,), values=(1.0,))
    op = build_measurement_operator(scheme, params, 4, 0)
    rows, widths = component_shapes(op.columns)
    assert rows.tolist() == [1, 1, 1, 1] and widths.tolist() == [1, 1, 1, 1]


def test_kronecker_nonuniform_reported_not_fatal():
    # disjoint spread pilots: the shift classes, of unequal widths, are not
    # folded into (L-1)P+1 residues, and the build reports them as they are
    n, l_taps, q_max, p = 256, 8, 3, 1
    params = AfdmParams(n=n, chirp_num=p, chirp_sign=-1)
    scheme = PilotScheme.uniform(n, 16, l_taps, q_max, p, chirp_sign=-1)
    op = build_measurement_operator(scheme, params, l_taps, q_max)
    assert same_partition(op.columns.comp, window_shifts(op))
    rows, widths = component_shapes(op.columns)
    assert len(widths) == 14 and sorted(set(widths.tolist())) == list(range(1, 8))
    assert rows.tolist() == [16] * 14


def test_isometry_band_from_gram_blocks():
    n, l_taps, q_max = 64, 4, 1
    params = AfdmParams(n=n, chirp_num=1)
    scheme = PilotScheme.uniform(n, 6, l_taps, q_max, 1)
    cols = build_measurement_operator(scheme, params, l_taps, q_max).columns
    # every column carries the pilot energy 6, so the ratios average exactly 1
    assert np.abs(cols.diag - 6.0).max() < 1e-12
    # M^H M is block-diagonal over the components, so by the Rayleigh quotient
    # every ratio ||M x||^2 / ||x||^2 lies between the blocks' extreme eigenvalues
    widths = np.bincount(cols.comp)
    eig = [np.linalg.eigvalsh(g[:k, :k]) for g, k in zip(cols.gram, widths)]
    lo = min(e[0] for e in eig) / 6.0
    hi = max(e[-1] for e in eig) / 6.0
    assert 0.3 < lo <= hi < 1.7
    assert cols.cond == pytest.approx(np.sqrt(hi / lo), rel=1e-12)
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.standard_normal(cols.shape[1]) + 1j * rng.standard_normal(cols.shape[1])
        ratio = np.linalg.norm(cols.matvec(x)) ** 2 / (6.0 * np.linalg.norm(x) ** 2)
        assert lo * (1 - 1e-12) <= ratio <= hi * (1 + 1e-12)


def test_paper_build_allocates_no_dense_matrix():
    # the paper n_p=32 cell, whose dense operator alone is 1408 x 450
    # complex entries (9.7 MB); the build keeps 32 hits per column
    params = AfdmParams(n=4096, chirp_num=1, cpp_len=64)
    scheme = PilotScheme.uniform(4096, 32, 30, 7, 1, amplitude=25.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        op = build_measurement_operator(scheme, params, 30, 7)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20
    assert op.columns.rows.shape == (450, 32) and "matrix" not in vars(op)


def test_operator_export_roundtrip(tmp_path):
    params = AfdmParams(n=64, chirp_num=2, c2=0.11)
    scheme = PilotScheme.uniform(64, 2, 3, 2, 2)
    op = build_measurement_operator(scheme, params, 3, 2)
    path = tmp_path / "operator.txt"
    export_operator(op, path)
    matrix, indices = load_operator(path)
    assert np.array_equal(indices, op.row_indices)
    assert np.array_equal(matrix, op.matrix)


def _drop_last_index(lines):
    lines[3] = lines[3].rsplit(" ", 1)[0]
    return lines


@pytest.mark.parametrize(
    "corrupt, lineno",
    [
        (lambda lines: lines[:4] + ["-1 0 1.0 0.0"] + lines[5:], 5),
        (lambda lines: lines[:3], 4),
        (lambda lines: lines[:6] + [f"{lines[2].split()[1]} 0 1.0 0.0"], 7),
        (lambda lines: lines[:5] + ["0 -1 1.0 0.0"], 6),
        (_drop_last_index, 4),
        (lambda lines: lines[:5] + ["0 1 1.0"], 6),
    ],
    ids=["negative-row", "truncated", "row-outside", "negative-col", "index-count", "short-entry"],
)
def test_load_operator_rejects_malformed_files(tmp_path, corrupt, lineno):
    params = AfdmParams(n=64, chirp_num=2, c2=0.11)
    op = build_measurement_operator(PilotScheme.uniform(64, 2, 3, 2, 2), params, 3, 2)
    path = tmp_path / "operator.txt"
    export_operator(op, path)
    lines = corrupt(path.read_text(encoding="ascii").splitlines())
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    with pytest.raises(ValueError, match=rf"operator\.txt, line {lineno}: "):
        load_operator(path)


def test_operator_export_writes_structural_entries_only(tmp_path):
    # the paper n_p=8 operator: one entry per pilot and column
    n, l_taps, q_max, n_pilots = 4096, 30, 7, 8
    params = AfdmParams(n=n, chirp_num=1, cpp_len=64)
    op = build_measurement_operator(
        PilotScheme.uniform(n, n_pilots, l_taps, q_max, 1), params, l_taps, q_max
    )
    path = tmp_path / "operator.txt"
    export_operator(op, path)
    entries = path.read_text(encoding="ascii").splitlines()[4:]
    assert len(entries) == n_pilots * l_taps * (2 * q_max + 1)


def test_list_built_scheme_matches_tuple_built():
    n, l_taps, q_max = 64, 3, 2
    params = AfdmParams(n=n, chirp_num=2, cpp_len=l_taps - 1)
    from_lists = PilotScheme(positions=[11, 43], values=[1.0, 2.0j])
    from_tuples = PilotScheme(positions=(11, 43), values=(1.0, 2.0j))
    assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
    for build in (observation_index_set, build_pilot_frame):
        assert np.array_equal(
            build(from_lists, params, l_taps, q_max), build(from_tuples, params, l_taps, q_max)
        )
    op_lists = build_measurement_operator(from_lists, params, l_taps, q_max)
    op_tuples = build_measurement_operator(from_tuples, params, l_taps, q_max)
    assert np.array_equal(op_lists.matrix, op_tuples.matrix)


def test_cached_arrays_are_read_only():
    params = AfdmParams(n=64, chirp_num=2)
    scheme = PilotScheme(positions=(20,), values=(1.0,))
    indices = observation_index_set(scheme, params, 3, 2)
    for cached in (indices, doppler_phase(64, 3)):
        with pytest.raises(ValueError):
            cached[0] = 0
    assert observation_index_set(scheme, params, 3, 2).tolist() == list(range(14, 23))

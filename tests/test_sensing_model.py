import tracemalloc
import warnings
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
    observation_index_set,
    sample_profile,
    vectorize_profile,
    window_offsets,
)
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
    disjoint = PilotScheme.uniform(params, 2, l_taps, q_max)
    assert len(observation_index_set(disjoint, params, l_taps, q_max)) == 2 * ((l_taps - 1) * p + 2 * q_max + 1)
    reduced = PilotScheme.uniform(params, 2, l_taps, q_max, overlap_mode="reduced")
    assert len(observation_index_set(reduced, params, l_taps, q_max)) == 2 * ((l_taps - 1) * p + 1) + 2 * q_max


def test_trivial_window():
    params = AfdmParams(n=16, chirp_num=1)
    scheme = PilotScheme(positions=(5,), values=(1.0,))
    assert observation_index_set(scheme, params, 1, 0).tolist() == [5]
    # 8 delay shifts and 9 Dopplers span 17 bins of a 16-bin frame
    with pytest.raises(ValueError, match="observation window of 17 exceeds the frame length 16"):
        observation_index_set(scheme, params, 9, 4)


def test_overlapping_windows_match_the_chain():
    # overlapping windows share observations, as those of a reduced train do
    n, l_taps, q_max = 64, 3, 1
    params = AfdmParams(n=n, chirp_num=1, cpp_len=l_taps - 1)
    scheme = PilotScheme(positions=(10, 12), values=(1.0, 1.0))
    op = build_measurement_operator(scheme, params, l_taps, q_max)
    unit = np.eye(op.shape[1], dtype=complex)
    for j in range(op.shape[1]):
        gains = unit[j].reshape(l_taps, 2 * q_max + 1)
        path = DelayDopplerProfile(gains=gains, mask=gains != 0)
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
    packed = PilotScheme.uniform(params, 2, 2, 1, contiguous=True)
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
    with pytest.raises(ValueError, match="at least one pilot is required"):
        PilotScheme(positions=(), values=())
    with pytest.raises(ValueError, match="positions and values must have equal length"):
        PilotScheme(positions=(3, 5), values=(1.0,))


@pytest.mark.parametrize("n_pilots", [0, -1])
def test_uniform_scheme_rejects_no_pilots(n_pilots):
    # the default spread layout would divide the frame by the pilot count
    with pytest.raises(ValueError, match="at least one pilot"):
        PilotScheme.uniform(AfdmParams(4096, 1), n_pilots, 30, 7)


def test_uniform_scheme_owns_the_layout_rules():
    # a reduced train is spaced the same either way; only a disjoint one is packed
    with pytest.raises(ValueError, match="contiguous=True needs overlap_mode 'disjoint', got 'reduced'"):
        PilotScheme.uniform(AfdmParams(64, 1), 2, 3, 1, overlap_mode="reduced", contiguous=True)
    with pytest.raises(ValueError, match="overlap_mode must be one of .*, got 'foo'"):
        PilotScheme.uniform(AfdmParams(64, 1), 2, 3, 1, overlap_mode="foo")
    # a train longer than the frame
    with pytest.raises(ValueError, match="do not fit in a frame of 64"):
        PilotScheme.uniform(AfdmParams(64, 1), 30, 3, 1, overlap_mode="reduced")


def reference_layout(n, n_pilots, l_taps, q_max, chirp_num, chirp_sign, mode, contiguous):
    """The layout arithmetic written out: window width, reduced stride and anchor."""
    width = (l_taps - 1) * chirp_num + 2 * q_max + 1
    stride = (l_taps - 1) * chirp_num + 1
    if mode == "reduced":
        spacing = stride
    elif contiguous:
        spacing = width
    else:
        spacing = n // n_pilots
    if spacing < 1 or n_pilots * spacing > n:
        raise ValueError(f"{n_pilots} pilots with spacing {spacing} do not fit in a frame of {n}")
    if mode == "disjoint" and spacing < width:
        raise ValueError(
            f"disjoint windows of width {width} need spacing >= {width}, got {spacing}"
        )
    lo = min(-q_max, -q_max - chirp_sign * chirp_num * (l_taps - 1))
    return tuple((-lo + p * spacing) % n for p in range(n_pilots))


@pytest.mark.parametrize("n", [64, 256, 4096])
@pytest.mark.parametrize(
    "mode, contiguous", [("disjoint", False), ("disjoint", True), ("reduced", False)]
)
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("sign", [1, -1])
def test_uniform_layout_matches_the_written_out_arithmetic(sign, p, mode, contiguous, n):
    params = AfdmParams(n=n, chirp_num=p, chirp_sign=sign)
    for l_taps, q_max, n_pilots in product((1, 3, 8, 30), (0, 1, 3, 7), (1, 2, 3, 7, 16, 32, 255)):
        args = (n_pilots, l_taps, q_max)
        width = (l_taps - 1) * p + 2 * q_max + 1
        try:
            expected = reference_layout(n, *args, p, sign, mode, contiguous)
        except ValueError as exc:
            expected = str(exc)
        try:
            got = PilotScheme.uniform(params, *args, overlap_mode=mode, contiguous=contiguous)
        except ValueError as exc:
            got = str(exc)
        else:
            got = got.positions
        if width > n:
            # a window wider than the frame is refused before it is built, also
            # where a reduced train of it would fit; no operator can use it
            assert got == f"observation window of {width} exceeds the frame length {n}"
        else:
            assert got == expected, (l_taps, q_max, n_pilots)


def test_window_wider_than_the_frame_refused_before_it_is_built():
    # two million Doppler bins: a 16 MB window for a 64-bin frame
    params = AfdmParams(n=64)
    wide = "observation window of 2000003 exceeds the frame length 64"
    tracemalloc.start()
    try:
        for build in (
            lambda: window_offsets(params, 3, 10**6),
            lambda: PilotScheme.uniform(params, 2, 3, 10**6, overlap_mode="reduced"),
            lambda: PilotScheme.uniform(params, 2, 3, 10**6),
        ):
            with pytest.raises(ValueError, match=f"^{wide}$"):
                build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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
    scheme = PilotScheme.uniform(params, 3, l_taps, q_max)
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
        params, n_pilots, l_taps, q_max, overlap_mode=mode, contiguous=contiguous, start=start
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
            path = DelayDopplerProfile(gains=gains, mask=gains != 0)
            chain = simulate_observations(scheme, params, l_taps, q_max, path)
            assert np.abs(chain - col).max() < 1e-13


@pytest.mark.parametrize("amplitude, c2", [(float("nan"), 0.0), (1.0, float("nan"))])
def test_operator_with_nan_rejected(amplitude, c2):
    # a NaN chirp parameter is refused by the waveform itself; a NaN pilot
    # gives every column a NaN energy, which the build refuses
    if np.isnan(c2):
        with pytest.raises(ValueError, match="c2 must be finite"):
            AfdmParams(n=64, chirp_num=1, c2=c2)
        return
    params = AfdmParams(n=64, chirp_num=1, c2=c2)
    scheme = PilotScheme.uniform(params, 2, 3, 1, amplitude=amplitude)
    with pytest.raises(ValueError, match="columns of energy nan, whose square is not a normal"):
        build_measurement_operator(scheme, params, 3, 1)


@pytest.mark.parametrize(
    "amplitude, energy",
    [(1e160, "inf"), (1e150, "6e\\+300"), (1e-160, "6e-320"), (1e-300, "0")],
    ids=["1e160", "1e150", "1e-160", "1e-300"],
)
def test_operator_refuses_column_energy_without_normal_square(amplitude, energy):
    # built directly, outside a sweep's config, which refuses these amplitudes too
    params = AfdmParams(64, 1, cpp_len=2)
    scheme = PilotScheme.uniform(params, 6, 3, 2, amplitude=amplitude)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"columns of energy {energy}, whose square is not"):
            build_measurement_operator(scheme, params, 3, 2)


def test_operator_builds_for_normal_column_energy():
    params = AfdmParams(64, 1, cpp_len=2)
    schemes = [PilotScheme.uniform(params, 6, 3, 2, amplitude=a) for a in (1.0, 25.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        unit, loud = [build_measurement_operator(s, params, 3, 2) for s in schemes]
    assert np.allclose(loud.columns.vals, 25.0 * unit.columns.vals, rtol=1e-13, atol=0.0)


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
    scheme = PilotScheme.uniform(params, 2, l_taps, q_max)
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
    scheme = PilotScheme.uniform(params, n_pilots, l_taps, q_max, overlap_mode="reduced")
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
        scheme = PilotScheme.uniform(params, 2, l_taps, q_max)
        op = build_measurement_operator(scheme, params, l_taps, q_max)
        cells = component_cells(op)
        assert sum(len(s) for s in cells) == l_taps * (2 * q_max + 1)
        assert set().union(*cells) == {(l, q) for l in range(l_taps) for q in range(-q_max, q_max + 1)}
        assert sorted(np.unique(op.columns.comp).tolist()) == list(range(len(cells)))


def full_wrap_setup(n=256, l_taps=8, q_max=3, values=None):
    p = 1
    params = AfdmParams(n=n, chirp_num=p, chirp_sign=-1, cpp_len=l_taps - 1)
    n_pilots = n // ((l_taps - 1) * p + 1)
    scheme = PilotScheme.uniform(params, n_pilots, l_taps, q_max, overlap_mode="reduced")
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
        scheme = PilotScheme.uniform(params, n_pilots, l_taps, q_max, overlap_mode="reduced")
        op = build_measurement_operator(scheme, params, l_taps, q_max)
        assert same_partition(op.columns.comp, window_shifts(op) % stride), (params, l_taps, q_max)
        reduced += 1
    assert reduced == 306  # of the 360 reduced grids, those whose window fits the frame
    # spread disjoint pilots: the window shift itself
    for (l_taps, q_max, p, sign), n_pilots in product(grids, (1, 2, 4)):
        params = AfdmParams(n=256, chirp_num=p, chirp_sign=sign)
        scheme = PilotScheme.uniform(params, n_pilots, l_taps, q_max)
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
    scheme = PilotScheme.uniform(params, 16, l_taps, q_max)
    op = build_measurement_operator(scheme, params, l_taps, q_max)
    assert same_partition(op.columns.comp, window_shifts(op))
    rows, widths = component_shapes(op.columns)
    assert len(widths) == 14 and sorted(set(widths.tolist())) == list(range(1, 8))
    assert rows.tolist() == [16] * 14


def test_isometry_band_from_gram_blocks():
    n, l_taps, q_max = 64, 4, 1
    params = AfdmParams(n=n, chirp_num=1)
    scheme = PilotScheme.uniform(params, 6, l_taps, q_max)
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
    scheme = PilotScheme.uniform(params, 32, 30, 7, amplitude=25.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        op = build_measurement_operator(scheme, params, 30, 7)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20
    assert op.columns.rows.shape == (450, 32) and "matrix" not in vars(op)


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


def test_scheme_hash_follows_positions_and_values():
    scheme = PilotScheme.uniform(AfdmParams(4096, 1), 255, 8, 3, overlap_mode="reduced")
    assert hash(scheme) == hash((scheme.positions, scheme.values))
    changed = replace(scheme, values=(2.0,) * 255)
    assert hash(changed) == hash((changed.positions, changed.values)) != hash(scheme)
    # an equal scheme built separately from lists compares and hashes equal
    twin = PilotScheme(positions=list(scheme.positions), values=list(scheme.values))
    assert twin is not scheme and twin == scheme and hash(twin) == hash(scheme)
    assert len({scheme: 0, twin: 1}) == 1


def test_cached_arrays_are_read_only():
    params = AfdmParams(n=64, chirp_num=2)
    scheme = PilotScheme(positions=(20,), values=(1.0,))
    indices = observation_index_set(scheme, params, 3, 2)
    for cached in (indices, doppler_phase(64, 3)):
        with pytest.raises(ValueError):
            cached[0] = 0
    assert observation_index_set(scheme, params, 3, 2).tolist() == list(range(14, 23))

from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from afdm_sense import (
    AfdmParams,
    ExperimentConfig,
    NoiseConfig,
    PilotScheme,
    RadarConfig,
    SparsityConfig,
    apply_channel,
    build_pilot_frame,
    cpp_extend,
    daft_demodulate,
    dechirp_decimate_receive,
    decimation_plan,
    extract_measurements,
    hihtp_recover,
    build_measurement_operator,
    idaft_modulate,
    observation_index_set,
    sample_profile,
    sampling_rate,
    vectorize_profile,
)
from afdm_sense.hihtp import _Columns


def plan_of(scheme, params, l_taps, q_max):
    return decimation_plan(build_measurement_operator(scheme, params, l_taps, q_max))


def received_frame(scheme, params, l_taps, q_max, profile, noise=None, rng=None):
    frame = build_pilot_frame(scheme, params, l_taps, q_max)
    s = cpp_extend(idaft_modulate(frame, params), params)
    return frame, apply_channel(s, profile, params, noise, rng)


def test_sampling_rate_reference_values():
    cfg = RadarConfig(bandwidth_hz=30e6, n=4096)
    info = sampling_rate(16, 30, 1, cfg)
    assert info.f_s_hz == pytest.approx(3.515625e6)
    assert info.compression_ratio == pytest.approx(480 / 4096)
    with_cpp = RadarConfig(bandwidth_hz=30e6, n=4096, cpp_len=64, include_cpp_in_duration=True)
    info2 = sampling_rate(16, 30, 1, with_cpp)
    assert info2.f_s_hz == pytest.approx(3.45e6, rel=0.01)
    assert info2.compression_ratio == pytest.approx(480 / 4096)  # always prefix-free


def test_sampling_rate_full_rate_limit_and_linearity():
    cfg = RadarConfig(bandwidth_hz=10e6, n=120)
    # n_pilots ((L-1)P + 1) == n  ->  f_s == bandwidth
    info = sampling_rate(12, 10, 1, cfg)
    assert info.f_s_hz == pytest.approx(10e6)
    assert info.compression_ratio == pytest.approx(1.0)
    assert sampling_rate(4, 10, 1, cfg).f_s_hz == pytest.approx(
        2 * sampling_rate(2, 10, 1, cfg).f_s_hz
    )


def test_sampling_rate_refuses_rates_no_frame_has():
    cfg = RadarConfig(bandwidth_hz=30e6, n=4096)
    # AfdmParams's chirp rule; with one tap the numerator leaves the rate as it is
    with pytest.raises(ValueError, match=r"^chirp numerator must lie in \[1, 8192\), got 10000$"):
        sampling_rate(16, 30, 10000, cfg)
    with pytest.raises(ValueError, match=r"^chirp numerator must lie in \[1, 8192\), got 8192$"):
        sampling_rate(16, 1, 8192, cfg)
    assert sampling_rate(16, 1, 8191, cfg).compression_ratio == 16 / 4096
    # a train that PilotScheme.uniform refuses: n_pilots ((L-1) P + 1) > n
    with pytest.raises(ValueError, match=r"^5000 pilots need 150000 samples, more than n = 4096$"):
        sampling_rate(5000, 30, 1, cfg)
    with pytest.raises(ValueError, match="137 pilots need 4110 samples"):
        sampling_rate(137, 30, 1, cfg)
    with pytest.raises(ValueError, match="do not fit in a frame of 4096"):
        PilotScheme.uniform(AfdmParams(4096, 1), 137, 30, 7, overlap_mode="reduced")
    assert sampling_rate(136, 30, 1, cfg).compression_ratio == 4080 / 4096
    # AfdmParams's frame rules: an odd frame and a prefix longer than the frame
    with pytest.raises(ValueError, match="^frame length must be positive and even, got 4095$"):
        sampling_rate(16, 30, 1, RadarConfig(bandwidth_hz=30e6, n=4095))
    with pytest.raises(ValueError, match=r"^prefix length must lie in \[0, n = 4096\], got 5000$"):
        sampling_rate(16, 30, 1, RadarConfig(bandwidth_hz=30e6, n=4096, cpp_len=5000))
    # a bandwidth whose sample period, or frame duration, overflows to inf,
    # over which every rate would be 0
    for bandwidth in (1e-320, 1e-305):
        with pytest.raises(ValueError, match=f"^bandwidth_hz {bandwidth} gives an infinite "):
            RadarConfig(bandwidth_hz=bandwidth, n=4096)
    assert sampling_rate(16, 30, 1, RadarConfig(bandwidth_hz=1e-300, n=4096)).f_s_hz > 0.0
    # a sample count that converts to no float: the frame, or the frame and
    # its prefix where the prefix counts
    huge = 10**400
    with pytest.raises(ValueError, match=f"^a frame of {huge} samples converts to no float$"):
        RadarConfig(bandwidth_hz=30e6, n=huge)
    with pytest.raises(ValueError, match=f"^a frame of {huge + 4096} samples converts to no float$"):
        RadarConfig(bandwidth_hz=30e6, n=4096, cpp_len=huge, include_cpp_in_duration=True)
    # a prefix that does not count leaves the duration alone; the waveform refuses it
    with pytest.raises(ValueError, match=r"^prefix length must lie in \[0, n = 4096\], got 10{400}$"):
        sampling_rate(16, 30, 1, RadarConfig(bandwidth_hz=30e6, n=4096, cpp_len=huge))
    assert sampling_rate(16, 30, 1, RadarConfig(bandwidth_hz=30e6, n=2**1023)).f_s_hz > 0.0


def test_sampling_rate_refuses_exactly_the_trains_uniform_refuses():
    # the rate has no Doppler span: it is the reduced train's at q_max = 0
    def refused(build):
        try:
            build()
        except ValueError:
            return True
        return False

    grid = product(
        (2, 4, 64, 192, 256, 1024, 4096), (1, 2, 3, 8, 30), range(1, 10),
        (1, 2, 3, 8, 16, 32, 64, 128, 300),
    )
    outcomes = []
    for n, l_taps, p, n_p in grid:
        rate = refused(lambda: sampling_rate(n_p, l_taps, p, RadarConfig(bandwidth_hz=30e6, n=n)))
        layout = refused(
            lambda: PilotScheme.uniform(AfdmParams(n, p), n_p, l_taps, 0, overlap_mode="reduced")
        )
        assert rate == layout, (n, l_taps, p, n_p)
        outcomes.append(rate)
    assert len(outcomes) == 2835 and 0 < sum(outcomes) < len(outcomes)


def test_radar_config_derived_quantities():
    cfg = RadarConfig(bandwidth_hz=30e6, n=4096, cpp_len=64)
    assert cfg.sample_period_s == pytest.approx(1 / 30e6)
    assert cfg.frame_duration_s == pytest.approx(4096 / 30e6)
    incl = RadarConfig(bandwidth_hz=30e6, n=4096, cpp_len=64, include_cpp_in_duration=True)
    assert incl.frame_duration_s == pytest.approx(4160 / 30e6)
    for n, cpp_len in ((0, 0), (4096, -1)):
        with pytest.raises(ValueError, match="frame length must be positive and prefix length >= 0"):
            RadarConfig(bandwidth_hz=30e6, n=n, cpp_len=cpp_len)


def test_no_decimation_equals_full_rate_exactly():
    n, l_taps, q_max, p = 64, 3, 2, 1
    params = AfdmParams(n=n, chirp_num=p, cpp_len=l_taps - 1, c2=0.17)
    # enough pilots that no divisor below n fits the observations: K == n
    scheme = PilotScheme.uniform(params, 11, l_taps, q_max, overlap_mode="reduced")
    plan = plan_of(scheme, params, l_taps, q_max)
    assert plan.k_points == n and plan.decimation == 1
    cfg = SparsityConfig("type2", l_taps=l_taps, q_max=q_max, p_delay=0.6, p_doppler=0.6)
    prof = sample_profile(cfg, np.random.default_rng(0))
    frame, r = received_frame(scheme, params, l_taps, q_max, prof)
    idx = observation_index_set(scheme, params, l_taps, q_max)
    y_full = extract_measurements(daft_demodulate(r, params), idx)
    y_sub = dechirp_decimate_receive(r, plan, frame=frame)
    assert np.array_equal(y_sub, y_full)


@pytest.mark.parametrize("c2", [0.0, 0.29])
def test_decimated_receiver_matches_full_rate(c2):
    n, l_taps, q_max, p = 64, 3, 2, 1
    params = AfdmParams(n=n, chirp_num=p, cpp_len=l_taps - 1, c2=c2)
    scheme = PilotScheme.uniform(params, 4, l_taps, q_max, overlap_mode="reduced")
    plan = plan_of(scheme, params, l_taps, q_max)
    assert plan.op.shape[0] == 16 and plan.k_points == 16 and plan.decimation == 4
    cfg = SparsityConfig("type2", l_taps=l_taps, q_max=q_max, p_delay=0.6, p_doppler=0.6)
    rng = np.random.default_rng(1)
    for _ in range(5):
        prof = sample_profile(cfg, rng)
        frame, r = received_frame(scheme, params, l_taps, q_max, prof)
        idx = observation_index_set(scheme, params, l_taps, q_max)
        y_full = extract_measurements(daft_demodulate(r, params), idx)
        y_sub = dechirp_decimate_receive(r, plan, frame=frame)
        denom = np.linalg.norm(y_full)
        if denom > 0:
            assert np.linalg.norm(y_sub - y_full) / denom < 1e-12


def test_prefixed_frame_refused_asking_to_strip_the_prefix():
    n, l_taps, q_max = 64, 3, 2
    params = AfdmParams(n=n, chirp_num=1, cpp_len=l_taps - 1)
    scheme = PilotScheme.uniform(params, 4, l_taps, q_max, overlap_mode="reduced")
    plan = plan_of(scheme, params, l_taps, q_max)
    cfg = SparsityConfig("type2", l_taps=l_taps, q_max=q_max, p_delay=0.6, p_doppler=0.6)
    prof = sample_profile(cfg, np.random.default_rng(2))
    _, r = received_frame(scheme, params, l_taps, q_max, prof)
    with_prefix = np.concatenate([r[-params.cpp_len :] * 0, r])  # any prefix content
    for frame in (with_prefix, with_prefix[1:]):
        shape = rf"\({len(frame)},\)"
        with pytest.raises(ValueError, match=rf"must have 64 samples, got {shape}; strip the prefix"):
            dechirp_decimate_receive(frame, plan)
    y = dechirp_decimate_receive(with_prefix[params.cpp_len :], plan)
    assert y.tobytes() == dechirp_decimate_receive(r, plan).tobytes()


def merged_fold_columns(op):
    """The folded column structure from a hit table that the fold sorts and
    merges itself: a moved hit times its chirp ratio, and a column's hits
    on one folded row added up in row order on the first of them."""
    indices, n = op.row_indices, op.params.n
    m = len(indices)
    k_points = next(k for k in range(m, n + 1) if n % k == 0)
    residue = indices % k_points
    first_row = np.full(k_points, m)
    np.minimum.at(first_row, residue, np.arange(m))
    rep = first_row[residue]
    reps = np.flatnonzero(rep == np.arange(m))
    second = op.params.chirps[1]
    to_row = np.append(np.searchsorted(reps, rep), len(reps))
    moved = np.append(rep != np.arange(m), False)
    weight = np.append(second[indices[rep]] / second[indices], 1.0)
    hits = op.columns.rows
    rows = to_row[hits]
    vals = np.where(moved[hits], op.columns.vals * weight[hits], op.columns.vals)
    order = np.argsort(rows, axis=1, kind="stable")
    rows = np.take_along_axis(rows, order, axis=1)
    vals = np.take_along_axis(vals, order, axis=1)
    repeat = np.zeros(rows.shape, dtype=bool)
    repeat[:, 1:] = (rows[:, 1:] == rows[:, :-1]) & (rows[:, 1:] < len(reps))
    col, pos = np.nonzero(repeat)
    head = np.maximum.accumulate(np.where(repeat, 0, np.arange(rows.shape[1])), axis=1)
    np.add.at(vals, (col, head[col, pos]), vals[col, pos])
    rows[col, pos], vals[col, pos] = len(reps), 0.0
    return _Columns(len(reps), rows, vals)


@pytest.mark.parametrize("c2", [0.0, 0.137])
@pytest.mark.parametrize("chirp_sign", [1, -1])
@pytest.mark.parametrize("layout", ["two-windows", "three-rows-per-residue", "shifted-three-rows"])
def test_colliding_fold_is_the_folded_operator(layout, chirp_sign, c2):
    l_taps, q_max = 3, 2
    if layout == "two-windows":
        # windows 32 apart at K = 16: both fold onto the first one's residues
        n, k_points = 64, 16
        scheme = PilotScheme.uniform(AfdmParams(n, 1, chirp_sign), 2, l_taps, q_max)
    else:
        # windows 48 apart at K = 24: every residue holds three observed rows.
        # Started at 17, some representatives' second chirp over itself is
        # not exactly 1 at c2 = 0.137, so their hits keep their bytes only
        # through the fold's unit weight
        n, k_points = 192, 24
        start = 17 if layout == "shifted-three-rows" else 10
        scheme = PilotScheme(positions=(start, start + 48, start + 96), values=(1.0, 1.0, 1.0))
    params = AfdmParams(n=n, chirp_num=1, chirp_sign=chirp_sign, cpp_len=l_taps - 1, c2=c2)
    op = build_measurement_operator(scheme, params, l_taps, q_max)
    plan = decimation_plan(op)
    assert plan.k_points == k_points and plan.decimation == n // k_points
    # the first window's rows represent every residue, in their order
    window = len(op.row_indices) // len(scheme.positions)
    assert plan.op.shape[0] == window
    assert np.array_equal(plan.op.row_indices, op.row_indices[:window])
    assert np.array_equal(plan.bins, op.row_indices[:window] % k_points)
    # 7 folded rows for 15 columns: the fold's own certificate is infinite
    assert plan.op.columns.cond == np.inf
    ref = merged_fold_columns(op)
    for name in ("rows", "vals", "gram", "diag", "comp", "cell", "alias"):
        got, want = getattr(plan.op.columns, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    for name in ("cond", "sq_norm", "refit"):
        assert getattr(plan.op.columns, name) == getattr(ref, name), name
    cfg = SparsityConfig("type2", l_taps=l_taps, q_max=q_max, p_delay=0.6, p_doppler=0.6)
    rng = np.random.default_rng(8)
    for _ in range(5):
        profile = sample_profile(cfg, rng)
        frame, r = received_frame(scheme, params, l_taps, q_max, profile)
        y_sub = dechirp_decimate_receive(r, plan, frame=frame)
        truth = vectorize_profile(profile)
        # relative to the full-rate samples: at c2 = 0 the two windows' hits
        # of every delay-1 column cancel in the fold, so a profile active
        # only there leaves the folded samples zero
        scale = np.linalg.norm(op.columns.matvec(truth))
        assert scale > 0
        assert np.linalg.norm(y_sub - plan.op.columns.matvec(truth)) <= 1e-12 * scale


def parent_tables(op):
    """The receiver's tables as a plan formed them before it folded the
    operator: one per observed bin, which owned its residue alone."""
    indices, n = op.row_indices, op.params.n
    k_points = next(k for k in range(len(indices), n + 1) if n % k == 0)
    step = n // k_points
    first, second = op.params.chirps
    return first[::step], indices % k_points, second[indices] * (step / np.sqrt(n))


# (config, observed bins, K) of collision-free de-chirp trains
IDENTITY_TRAINS = {
    # the subnyquist_snr benchmark train
    "subnyquist_snr": (
        dict(n=4096, l_taps=8, q_max=3, model="type2", p_delay=0.3, p_doppler=0.3,
             n_pilots=[255], overlap_mode="reduced", receiver="subnyquist"),
        2046, 2048,
    ),
    # the CI de-chirp train
    "ci_subnyquist": (
        dict(n=64, l_taps=3, q_max=2, model="type2", p_delay=0.3, p_doppler=0.3,
             n_pilots=[6], overlap_mode="reduced", receiver="subnyquist"),
        22, 32,
    ),
    # a reduced train of 16 bins started so that they cross 16 = K
    "crossing": (None, 16, 16),
}


@pytest.mark.parametrize("c2", [0.0, 0.137])
@pytest.mark.parametrize("chirp_sign", [1, -1])
@pytest.mark.parametrize("train", IDENTITY_TRAINS)
def test_collision_free_fold_is_the_full_rate_operator(train, chirp_sign, c2):
    doc, observed, k_points = IDENTITY_TRAINS[train]
    if doc is None:
        l_taps, q_max = 3, 2
        params = AfdmParams(n=64, chirp_num=1, chirp_sign=chirp_sign, cpp_len=l_taps - 1, c2=c2)
        reduced = PilotScheme.uniform(params, 4, l_taps, q_max, overlap_mode="reduced")
        shift = 14 - reduced.positions[0]  # the same train, its first pilot at 14
        scheme = replace(reduced, positions=[(m + shift) % 64 for m in reduced.positions])
    else:
        cfg = ExperimentConfig.from_dict({**doc, "chirp_sign": chirp_sign, "c2": c2})
        l_taps, q_max, params = cfg.l_taps, cfg.q_max, cfg.params
        scheme = cfg.schemes[doc["n_pilots"][0]]
    op = build_measurement_operator(scheme, params, l_taps, q_max)
    plan = decimation_plan(op)
    assert plan.op is op and len(op.row_indices) == observed and plan.k_points == k_points
    if doc is None:
        assert op.row_indices[0] < k_points <= op.row_indices[-1]
    for got, want in zip((plan.first, plan.bins, plan.scale), parent_tables(op)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("c2", [0.0, 0.137, -0.21])
@pytest.mark.parametrize("chirp_sign", [1, -1])
def test_collision_free_fold_of_a_non_interval_set(chirp_sign, c2):
    n, l_taps, q_max = 64, 3, 2
    params = AfdmParams(n=n, chirp_num=1, chirp_sign=chirp_sign, cpp_len=l_taps - 1, c2=c2)
    # two 7-bin windows 23 bins apart: not one interval, but 23 = 7 mod 16
    # puts the second window's residues right after the first's
    scheme = PilotScheme(positions=(10, 33), values=(1.0, 1.0))
    idx = observation_index_set(scheme, params, l_taps, q_max)
    assert len(idx) == 14 and np.count_nonzero(np.diff(idx) > 1) == 1
    plan = plan_of(scheme, params, l_taps, q_max)
    assert plan.k_points == 16 and plan.decimation == 4
    cfg = SparsityConfig("type2", l_taps=l_taps, q_max=q_max, p_delay=0.6, p_doppler=0.6)
    rng = np.random.default_rng(6)
    for _ in range(5):
        frame, r = received_frame(scheme, params, l_taps, q_max, sample_profile(cfg, rng))
        y_full = extract_measurements(daft_demodulate(r, params), idx)
        y_sub = dechirp_decimate_receive(r, plan, frame=frame)
        assert np.linalg.norm(y_sub - y_full) <= 1e-12 * np.linalg.norm(y_full)


def uncached_receive(r, scheme, params, l_taps, q_max):
    """The receiver's formula with every table formed on the call."""
    indices = observation_index_set(scheme, params, l_taps, q_max)
    plan = plan_of(scheme, params, l_taps, q_max)
    step = plan.decimation
    first, second = replace(params).chirps  # an equal waveform's tables, formed on this call
    spectrum = np.fft.fft(first[::step] * r[::step])
    return second[indices] * (step / np.sqrt(params.n)) * spectrum[indices % plan.k_points]


@pytest.mark.parametrize("c2", [0.0, 0.137])
@pytest.mark.parametrize("chirp_sign", [1, -1])
def test_cached_fold_tables_give_the_uncached_bytes(chirp_sign, c2):
    n, l_taps, q_max = 256, 4, 2
    params = AfdmParams(n=n, chirp_num=1, chirp_sign=chirp_sign, cpp_len=l_taps - 1, c2=c2)
    cfg = SparsityConfig("type2", l_taps=l_taps, q_max=q_max, p_delay=0.6, p_doppler=0.6)
    rng = np.random.default_rng(7)
    # decimations 4 (K = 64) and 2 (K = 128)
    for n_p in (12, 30):
        scheme = PilotScheme.uniform(params, n_p, l_taps, q_max, overlap_mode="reduced")
        plan = plan_of(scheme, params, l_taps, q_max)
        for k in range(10):
            _, r = received_frame(
                scheme, params, l_taps, q_max, sample_profile(cfg, rng), NoiseConfig(0.01), rng
            )
            if k == 9:
                r[::2] = 0.0
            got = dechirp_decimate_receive(r, plan)
            ref = uncached_receive(r, scheme, params, l_taps, q_max)
            assert got.tobytes() == ref.tobytes()
        # the plan decimates the waveform's own chirp table
        assert plan.first.tobytes() == params.chirps[0][:: plan.decimation].tobytes()
        # the receiver's tables are the plan's, which every trial of a cell reads
        for table in (plan.first, plan.bins, plan.scale):
            with pytest.raises(ValueError):
                table[0] = 0


def test_data_symbols_rejected():
    n, l_taps, q_max = 64, 3, 2
    params = AfdmParams(n=n, chirp_num=1)
    scheme = PilotScheme.uniform(params, 4, l_taps, q_max, overlap_mode="reduced")
    frame = build_pilot_frame(scheme, params, l_taps, q_max)
    plan = plan_of(scheme, params, l_taps, q_max)
    dechirp_decimate_receive(np.zeros(n, complex), plan, frame=frame)  # pilots only
    frame[1] += 1.0  # sneak a data symbol in
    with pytest.raises(ValueError, match="data symbols"):
        dechirp_decimate_receive(np.zeros(n, complex), plan, frame=frame)


def test_folding_is_injective_for_interval_sets():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.choice([32, 64, 128]))
        k = int(rng.choice([d for d in range(2, n + 1) if n % d == 0]))
        size = int(rng.integers(1, k + 1))
        start = int(rng.integers(0, n))
        interval = (start + np.arange(size)) % n
        assert len(np.unique(interval % k)) == size


def test_noise_survives_the_decimated_path():
    n, l_taps, q_max = 64, 3, 2
    params = AfdmParams(n=n, chirp_num=1, cpp_len=l_taps - 1)
    scheme = PilotScheme.uniform(params, 4, l_taps, q_max, overlap_mode="reduced")
    cfg = SparsityConfig("type2", l_taps=l_taps, q_max=q_max, p_delay=0.6, p_doppler=0.6)
    rng = np.random.default_rng(4)
    prof = sample_profile(cfg, rng)
    _, r = received_frame(scheme, params, l_taps, q_max, prof, NoiseConfig(0.05), rng)
    y = dechirp_decimate_receive(r, plan_of(scheme, params, l_taps, q_max))
    assert y.shape == (16,)
    assert np.all(np.isfinite(y))


def test_paper_scale_equivalence_and_same_recovery():
    n, l_taps, q_max, p = 4096, 30, 7, 1
    params = AfdmParams(n=n, chirp_num=p, cpp_len=64)
    scheme = PilotScheme.uniform(params, 16, l_taps, q_max, overlap_mode="reduced")
    op = build_measurement_operator(scheme, params, l_taps, q_max)
    plan = decimation_plan(op)
    assert plan.op.shape[0] == 16 * 30 + 14
    assert plan.k_points == 512 and plan.decimation == 8
    radar = RadarConfig(30e6, n, 64, include_cpp_in_duration=True)
    formula = sampling_rate(16, l_taps, p, radar).f_s_hz
    assert formula == pytest.approx(3.45e6, rel=0.01)
    # the receiver keeps K samples per frame, at least the minimal rate
    assert plan.k_points / radar.frame_duration_s >= formula
    cfg = SparsityConfig("type1", l_taps=l_taps, q_max=q_max, p_delay=0.2, p_doppler=0.2)
    rng = np.random.default_rng(5)
    prof = sample_profile(cfg, rng)
    frame, r = received_frame(scheme, params, l_taps, q_max, prof)
    idx = observation_index_set(scheme, params, l_taps, q_max)
    y_full = extract_measurements(daft_demodulate(r, params), idx)
    y_sub = dechirp_decimate_receive(r, plan, frame=frame)
    assert np.linalg.norm(y_sub - y_full) / np.linalg.norm(y_full) < 1e-9
    # realized levels: every selected slot then carries signal, so the
    # support comparison is not polluted by numerically-zero padding
    s_d = int(prof.mask.any(axis=1).sum())
    s_dop = int(prof.mask.sum(axis=1).max())
    assert s_d >= 1 and s_dop >= 1
    res_full = hihtp_recover(op, y_full, s_d, s_dop)
    res_sub = hihtp_recover(op, y_sub, s_d, s_dop)
    assert res_full.support == res_sub.support
    assert np.abs(res_full.alpha - res_sub.alpha).max() < 1e-8


def test_compression_for_paper_configuration():
    cfg = RadarConfig(bandwidth_hz=30e6, n=4096, cpp_len=64)
    info = sampling_rate(16, 30, 1, cfg)
    assert info.compression_ratio <= 0.2

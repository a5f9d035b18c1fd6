import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from afdm_sense import (
    AfdmParams,
    DelayDopplerProfile,
    NoiseConfig,
    PilotScheme,
    SparsityConfig,
    apply_channel,
    build_pilot_frame,
    chernoff_tail_bound,
    cpp_extend,
    doppler_phase,
    empirical_sparsity_stats,
    idaft_modulate,
    sample_profile,
    vectorize_profile,
)


def binom_tail_above(n, p, level):
    """Exact P[Binomial(n, p) > level] by direct summation."""
    return sum(math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(level + 1, n + 1))


def test_gain_variance_normalization_constant():
    cfg = SparsityConfig("type2", l_taps=30, q_max=7, p_delay=0.2, p_doppler=0.2)
    assert cfg.gain_variance == pytest.approx(1.0 / (30 * 0.2 * 15 * 0.2))


def test_sparsity_levels_and_mean_levels():
    cfg = SparsityConfig("type1", l_taps=30, q_max=7, p_delay=0.2, p_doppler=0.2)
    assert cfg.mean_sparsity_levels() == (6, 3)
    assert cfg.sparsity_levels() == (9, 5)
    cfg4 = SparsityConfig("type1", l_taps=30, q_max=7, p_delay=0.2, p_doppler=0.4)
    assert cfg4.mean_sparsity_levels() == (6, 6)
    assert cfg4.sparsity_levels() == (9, 9)


def test_type3_derives_p_doppler():
    cfg = SparsityConfig("type3", l_taps=10, q_max=7, p_delay=0.3, cluster_len=3)
    assert cfg.p_doppler == pytest.approx(3 / 15)
    with pytest.raises(ValueError):
        SparsityConfig("type3", l_taps=10, q_max=2, p_delay=0.3, cluster_len=6)
    with pytest.raises(ValueError):
        SparsityConfig("type3", l_taps=10, q_max=2, p_delay=0.3)


def test_degenerate_probabilities_activate_everything():
    cfg = SparsityConfig("type2", l_taps=6, q_max=2, p_delay=1 - 1e-12, p_doppler=1 - 1e-12)
    prof = sample_profile(cfg, np.random.default_rng(0))
    assert prof.mask.all()


def test_mean_active_taps_matches_probability():
    # type3 rows always carry a full cluster, so row activity equals the
    # delay indicator and the count averages p_delay * l_taps
    cfg = SparsityConfig("type3", l_taps=30, q_max=2, p_delay=0.2, cluster_len=2)
    rng = np.random.default_rng(1)
    counts = [sample_profile(cfg, rng).mask.any(axis=1).sum() for _ in range(10_000)]
    assert np.mean(counts) == pytest.approx(6.0, abs=0.15)


def test_type1_active_rows_share_one_pattern():
    cfg = SparsityConfig("type1", l_taps=12, q_max=3, p_delay=0.5, p_doppler=0.4)
    rng = np.random.default_rng(2)
    for _ in range(50):
        prof = sample_profile(cfg, rng)
        rows = prof.mask[prof.mask.any(axis=1)]
        assert all(np.array_equal(rows[0], row) for row in rows)


def test_type2_rows_vary():
    cfg = SparsityConfig("type2", l_taps=20, q_max=5, p_delay=1 - 1e-12, p_doppler=0.5)
    prof = sample_profile(cfg, np.random.default_rng(3))
    patterns = {row.tobytes() for row in prof.mask}
    assert len(patterns) > 1


def test_type3_rows_are_circular_clusters():
    cfg = SparsityConfig("type3", l_taps=40, q_max=7, p_delay=0.5, cluster_len=3)
    rng = np.random.default_rng(4)
    nd = 15
    for _ in range(20):
        prof = sample_profile(cfg, rng)
        for row in prof.mask[prof.mask.any(axis=1)]:
            assert row.sum() == 3
            # contiguous modulo nd: some rotation packs the cluster at the front
            packed = [np.roll(row, r)[:3].all() for r in range(nd)]
            assert any(packed)


# a reordered or added draw changes these digests, dicts and next draws
_STREAM_PINS = {
    "type1": (
        {"p_doppler": 0.3},
        "1c67def275df69a7ec789bc426571f0496bed373bdc5f864ffaaff30a3d292b2",
        {"doppler_level": 4, "prob_doppler_exceed_joint": 0.022,
         "chernoff_doppler_bound": 0.3310256824218749, "prob_hierarchically_sparse": 0.9165},
        2575898164,
    ),
    "type2": (
        {"p_doppler": 0.3},
        "56453808e6a489820630898159ac583b4421945f0991cfce4e532469f62d0c2c",
        {"doppler_level": 4, "prob_doppler_exceed_joint": 0.0755,
         "chernoff_doppler_bound": 0.7944616378124998, "prob_hierarchically_sparse": 0.87},
        648247490,
    ),
    "type3": (
        {"cluster_len": 3},
        "e4ba8fb63a6116f304715a9c13b26360364b53d9fe7f807f6fd6ea6c40ff23f1",
        {"doppler_level": 5, "prob_doppler_exceed_joint": 0.0,
         "chernoff_doppler_bound": 0.0, "prob_hierarchically_sparse": 0.937},
        4260124445,
    ),
}


@pytest.mark.parametrize("model", sorted(_STREAM_PINS))
def test_sampler_stream_is_pinned(model):
    kwargs, digest, doppler_stats, next_draw = _STREAM_PINS[model]
    cfg = SparsityConfig(model, l_taps=8, q_max=3, p_delay=0.3, **kwargs)
    rng = np.random.default_rng(29)
    h = hashlib.sha256()
    for _ in range(20):
        prof = sample_profile(cfg, rng)
        h.update(prof.gains.tobytes())
        h.update(prof.mask.tobytes())
    assert h.hexdigest() == digest
    rng = np.random.default_rng(29)
    stats = empirical_sparsity_stats(cfg, 2000, rng)
    expected = {"trials": 2000, "delay_level": 4, "prob_delay_exceed": 0.063,
                "chernoff_delay_bound": 0.4978713599999999, **doppler_stats}
    # a changed count moves a frequency by 1/2000; the bounds may differ in the last digit
    assert stats == pytest.approx(expected, rel=1e-12)
    # type3's statistics read only the delay draws, but must consume the starts too
    assert rng.integers(2**32) == next_draw


# (count of delay exceedances, of joint Doppler exceedances, of hierarchically
# sparse realizations, next draw) of 10007 realizations at seed 12, as drawn
# when every realization's Doppler activity was one array
_SLICED_STREAM_PINS = {
    "type1": ({"p_doppler": 0.2}, (588, 595, 8859), 1590220916),
    "type2": ({"p_doppler": 0.2}, (588, 3084, 6614), 2611922278),
    "type3": ({"cluster_len": 6}, (588, 0, 9419), 1590220916),
}


@pytest.mark.parametrize("model", sorted(_SLICED_STREAM_PINS))
def test_sliced_tail_statistics_keep_the_stream(model):
    # 10007 realizations cross three slice boundaries and end in a partial slice
    kwargs, counts, next_draw = _SLICED_STREAM_PINS[model]
    cfg = SparsityConfig(model, l_taps=30, q_max=7, p_delay=0.2, **kwargs)
    rng = np.random.default_rng(12)
    stats = empirical_sparsity_stats(cfg, 10_007, rng)
    keys = ("prob_delay_exceed", "prob_doppler_exceed_joint", "prob_hierarchically_sparse")
    assert tuple(round(stats[k] * 10_007) for k in keys) == counts
    assert rng.integers(2**32) == next_draw


def test_tail_statistics_hold_one_slice_of_doppler_draws():
    # the Doppler activity of all 100000 realizations drawn at once peaked near 400 MB
    cfg = SparsityConfig("type2", l_taps=30, q_max=7, p_delay=0.2, p_doppler=0.2)
    tracemalloc.start()
    try:
        empirical_sparsity_stats(cfg, 100_000, np.random.default_rng(107))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 120e6


def test_power_normalization_monte_carlo():
    for model, kwargs in [
        ("type1", dict(p_doppler=0.2)),
        ("type2", dict(p_doppler=0.2)),
        ("type3", dict(cluster_len=3)),
    ]:
        cfg = SparsityConfig(model, l_taps=30, q_max=7, p_delay=0.2, **kwargs)
        rng = np.random.default_rng(5)
        total = 0.0
        draws = 10_000
        for _ in range(draws):
            prof = sample_profile(cfg, rng)
            total += float(np.sum(np.abs(prof.gains) ** 2))
        assert total / draws == pytest.approx(1.0, rel=0.03)


def test_vectorize_single_row_and_index_arithmetic():
    prof = DelayDopplerProfile(np.array([[1, 2, 3]], dtype=complex), np.ones((1, 3), bool))
    assert np.array_equal(vectorize_profile(prof), np.array([1, 2, 3], dtype=complex))
    gains = np.zeros((2, 3), dtype=complex)
    gains[1, 0] = 2j  # (l=1, q=-1) -> flat index 1*3 + 1 + (-1) = 3
    prof = DelayDopplerProfile(gains, gains != 0)
    assert np.array_equal(vectorize_profile(prof), np.array([0, 0, 0, 2j, 0, 0]))


def test_profile_rejects_bad_grids():
    with pytest.raises(ValueError, match="gains and mask must be 2-d arrays of equal shape"):
        DelayDopplerProfile(np.zeros(3), np.zeros(3, bool))
    # the Doppler axis runs from -q_max to q_max
    with pytest.raises(ValueError, match=r"Doppler dimension must be odd \(2 q_max \+ 1\)"):
        DelayDopplerProfile(np.zeros((2, 4)), np.zeros((2, 4), bool))


def identity_profile(l_taps, q_max):
    gains = np.zeros((l_taps, 2 * q_max + 1), dtype=complex)
    gains[0, q_max] = 1.0
    return DelayDopplerProfile(gains, gains != 0)


def test_apply_channel_identity_path():
    params = AfdmParams(n=16, chirp_num=1, cpp_len=3)
    rng = np.random.default_rng(7)
    s = cpp_extend(rng.standard_normal(16) + 1j * rng.standard_normal(16), params)
    r = apply_channel(s, identity_profile(4, 2), params)
    assert np.abs(r - s[3:]).max() < 1e-15


def test_apply_channel_single_path_closed_form():
    n = 16
    params = AfdmParams(n=n, chirp_num=1, cpp_len=3)
    rng = np.random.default_rng(8)
    a0 = 0.7 - 0.2j
    gains = np.zeros((3, 3), dtype=complex)
    gains[2, 2] = a0  # l=2, q=1
    prof = DelayDopplerProfile(gains, gains != 0)
    base = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    s = cpp_extend(base, params)
    r = apply_channel(s, prof, params)
    expected = a0 * np.exp(2j * np.pi * np.arange(n) / n) * np.roll(base, 2)
    assert np.abs(r - expected).max() < 1e-13


def test_apply_channel_linearity():
    params = AfdmParams(n=32, chirp_num=1, cpp_len=5)
    cfg = SparsityConfig("type2", l_taps=6, q_max=2, p_delay=0.5, p_doppler=0.5)
    rng = np.random.default_rng(9)
    p1, p2 = sample_profile(cfg, rng), sample_profile(cfg, rng)
    gains = p1.gains + p2.gains
    both = DelayDopplerProfile(gains, gains != 0)
    s = cpp_extend(rng.standard_normal(32) + 1j * rng.standard_normal(32), params)
    r = apply_channel(s, p1, params) + apply_channel(s, p2, params)
    assert np.abs(apply_channel(s, both, params) - r).max() < 1e-12


def test_apply_channel_time_invariant_is_circular_convolution():
    # q_max = 0: channel collapses to a circular convolution via the prefix
    n = 24
    params = AfdmParams(n=n, chirp_num=1, cpp_len=4)
    rng = np.random.default_rng(10)
    taps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    gains = taps.reshape(4, 1)
    prof = DelayDopplerProfile(gains, gains != 0)
    base = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    r = apply_channel(cpp_extend(base, params), prof, params)
    oracle = np.zeros(n, dtype=complex)
    for l in range(4):
        oracle += taps[l] * np.roll(base, l)
    assert np.abs(r - oracle).max() < 1e-13


def test_apply_channel_prefix_too_short():
    params = AfdmParams(n=16, chirp_num=1, cpp_len=1)
    s = cpp_extend(np.ones(16, dtype=complex), params)
    with pytest.raises(ValueError, match="prefix too short"):
        apply_channel(s, identity_profile(4, 1), params)
    with pytest.raises(ValueError, match=r"prefixed frame must have shape \(17,\), got \(16,\)"):
        apply_channel(s[1:], identity_profile(1, 1), params)
    # noise of positive variance is drawn from a generator the caller passes
    with pytest.raises(ValueError, match="rng required"):
        apply_channel(s, identity_profile(1, 1), params, NoiseConfig(0.1))


def test_noise_config_from_snr():
    assert NoiseConfig.from_snr_db(20.0).sigma_w2 == pytest.approx(0.01)
    with pytest.raises(ValueError):
        NoiseConfig(sigma_w2=-1.0)


def test_noise_statistics():
    params = AfdmParams(n=4096, chirp_num=1, cpp_len=0)
    s = cpp_extend(np.zeros(4096, dtype=complex), params)
    prof = identity_profile(1, 0)
    r = apply_channel(s, prof, params, NoiseConfig(0.25), np.random.default_rng(11))
    assert np.mean(np.abs(r) ** 2) == pytest.approx(0.25, rel=0.1)


def test_noise_stream_is_pinned():
    # every seeded result rests on this stream: n normals for the real parts,
    # then n for the imaginary parts, added to the noise-free samples
    cfg = SparsityConfig("type2", l_taps=8, q_max=3, p_delay=0.3, p_doppler=0.3)
    params = AfdmParams(n=256, chirp_num=1, cpp_len=7)
    rng = np.random.default_rng(12)
    s = rng.standard_normal(263) + 1j * rng.standard_normal(263)
    prof = sample_profile(cfg, rng)
    noise = NoiseConfig.from_snr_db(10.0)
    got_rng, ref_rng = np.random.default_rng(13), np.random.default_rng(13)
    got = apply_channel(s, prof, params, noise, got_rng)
    r = apply_channel(s, prof, params)
    scale = math.sqrt(noise.sigma_w2 / 2.0)
    ref = r + scale * (ref_rng.standard_normal(256) + 1j * ref_rng.standard_normal(256))
    assert got.tobytes() == ref.tobytes()
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def two_draw_channel(s_cpp, profile, params, noise, rng):
    """The channel as a fresh h per tap and a fresh product per term, each
    sum started from zeros, noise drawn as n real then n imaginary normals:
    the form apply_channel must equal bit for bit, but for the sign of an
    exact zero (``0.0 + -0.0`` is ``0.0``)."""
    n, cpp = params.n, params.cpp_len
    r = np.zeros(n, dtype=np.complex128)
    for l in np.flatnonzero(profile.mask.any(axis=1)):
        h = np.zeros(n, dtype=np.complex128)
        for qi in np.flatnonzero(profile.mask[l]):
            h += profile.gains[l, qi] * doppler_phase(n, int(qi) - profile.q_max)
        r += h * s_cpp[cpp - l : cpp - l + n]
    if noise is not None and noise.sigma_w2 > 0.0:
        scale = math.sqrt(noise.sigma_w2 / 2.0)
        r += scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return r


@pytest.mark.parametrize(
    "model, n, l_taps, q_max, cpp, seeds",
    [("type2", 256, 8, 3, 7, range(60)), ("type1", 4096, 30, 7, 64, range(6))],
    ids=["small", "paper"],
)
def test_apply_channel_equals_two_draw_form(model, n, l_taps, q_max, cpp, seeds):
    cfg = SparsityConfig(model, l_taps=l_taps, q_max=q_max, p_delay=0.3, p_doppler=0.3)
    params = AfdmParams(n=n, chirp_num=1, cpp_len=cpp)
    for seed in seeds:
        rng = np.random.default_rng([seed, 0])
        s = rng.standard_normal(n + cpp) + 1j * rng.standard_normal(n + cpp)
        prof = sample_profile(cfg, rng)
        for snr_db in (None, -10.0, 10.0, 30.0, 4000.0):  # None and 4000 dB: noise free
            noise = None if snr_db is None else NoiseConfig.from_snr_db(snr_db)
            got_rng, ref_rng = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
            got = apply_channel(s, prof, params, noise, got_rng)
            assert got.tobytes() == two_draw_channel(s, prof, params, noise, ref_rng).tobytes()
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("chirp_sign", [1, -1])
@pytest.mark.parametrize(
    "model, kwargs",
    [
        ("type1", dict(p_doppler=0.3)),
        ("type2", dict(p_doppler=0.3)),
        ("type3", dict(cluster_len=2)),
    ],
)
def test_first_terms_written_in_place(model, kwargs, chirp_sign):
    # apply_channel writes each sum's first term straight into it; against
    # the sums started from zeros only the sign of an exact zero may differ,
    # which np.array_equal ignores.  A frame with zeroed samples makes exact
    # zeros, and the empty profile (about 7.6% of the sub-Nyquist benchmark's
    # draws) gives zeros plus noise
    n, l_taps, q_max = 256, 8, 3
    cfg = SparsityConfig(model, l_taps=l_taps, q_max=q_max, p_delay=0.3, **kwargs)
    params = AfdmParams(n=n, chirp_num=1, chirp_sign=chirp_sign, cpp_len=l_taps - 1)
    scheme = PilotScheme.uniform(params, 16, l_taps, q_max, overlap_mode="reduced")
    frame = build_pilot_frame(scheme, params, l_taps, q_max)
    pilots = cpp_extend(idaft_modulate(frame, params), params)
    gapped = pilots.copy()
    gapped[::3] = 0.0
    empty = DelayDopplerProfile(
        np.zeros((l_taps, 2 * q_max + 1), complex), np.zeros((l_taps, 2 * q_max + 1), bool)
    )
    exact_zeros = 0
    for seed in range(30):
        rng = np.random.default_rng([seed, 2])
        prof = empty if seed == 0 else sample_profile(cfg, rng)
        for s in (pilots, gapped):
            for sigma_w2 in (0.0, 0.1):
                noise = NoiseConfig(sigma_w2)
                got_rng, ref_rng = (np.random.default_rng([seed, 3]) for _ in range(2))
                got = apply_channel(s, prof, params, noise, got_rng)
                ref = two_draw_channel(s, prof, params, noise, ref_rng)
                assert np.array_equal(got, ref)
                assert got_rng.bit_generator.state == ref_rng.bit_generator.state
                if prof is empty:
                    assert got.tobytes() == ref.tobytes()
                    assert np.count_nonzero(got) == (n if sigma_w2 else 0)
                elif not sigma_w2:
                    exact_zeros += np.count_nonzero(got.view(float) == 0.0)
    # the zeroed frames do make exact zeros, where the signs may differ
    assert exact_zeros > 0


def test_chernoff_bound_value():
    manual = (0.2 / 0.3) ** 9 * (0.8 / 0.7) ** 21
    assert chernoff_tail_bound(30, 0.2, 9) == pytest.approx(manual, rel=1e-12)
    assert chernoff_tail_bound(30, 0.2, 9) == pytest.approx(0.4296, abs=5e-4)
    assert chernoff_tail_bound(30, 0.2, 30) == pytest.approx(0.2**30)
    assert chernoff_tail_bound(30, 0.2, 31) == 0.0
    for p in (0.0, 1.0, float("nan")):
        with pytest.raises(ValueError, match="p must lie in"):
            chernoff_tail_bound(30, p, 9)


@pytest.mark.parametrize("n, p", [(30, 0.2), (15, 0.3), (8, 0.3)])
def test_chernoff_bound_bounds_every_level(n, p):
    # below the mean the formula bounds nothing, so the bound is the trivial 1
    for level in range(-1, n + 2):
        bound = chernoff_tail_bound(n, p, level)
        assert 0.0 <= bound <= 1.0
        # the exact tail's sum may exceed 1 by round-off
        assert bound >= binom_tail_above(n, p, level) - 1e-12
        if level < n * p:
            assert bound == 1.0


def test_empirical_delay_tail_matches_exact_binomial():
    cfg = SparsityConfig("type2", l_taps=30, q_max=7, p_delay=0.2, p_doppler=0.2)
    stats = empirical_sparsity_stats(cfg, 100_000, np.random.default_rng(12))
    assert stats["delay_level"] == 9
    exact = binom_tail_above(30, 0.2, 9)
    se = math.sqrt(exact * (1 - exact) / stats["trials"])
    assert abs(stats["prob_delay_exceed"] - exact) <= 3 * se
    assert stats["prob_delay_exceed"] <= stats["chernoff_delay_bound"] + 3 * se


@pytest.mark.parametrize(
    "model,kwargs",
    [("type1", dict(p_doppler=0.2)), ("type2", dict(p_doppler=0.2)), ("type3", dict(cluster_len=3))],
)
def test_joint_doppler_event_matches_exact_probability(model, kwargs):
    cfg = SparsityConfig(model, l_taps=30, q_max=7, p_delay=0.2, **kwargs)
    stats = empirical_sparsity_stats(cfg, 100_000, np.random.default_rng(13))
    s_dop = stats["doppler_level"]
    row_tail = binom_tail_above(15, cfg.p_doppler, s_dop)
    if model == "type1":
        exact = (1 - 0.8**30) * row_tail
    elif model == "type2":
        exact = 1 - (1 - 0.2 * row_tail) ** 30
    else:
        exact = 0.0 if cfg.cluster_len <= s_dop else 1 - 0.8**30
    se = math.sqrt(max(exact * (1 - exact), 1e-12) / stats["trials"])
    assert abs(stats["prob_doppler_exceed_joint"] - exact) <= 3 * se + 1e-9
    assert stats["prob_doppler_exceed_joint"] <= stats["chernoff_doppler_bound"] + 3 * se + 1e-9


def test_hierarchical_sparsity_fraction_respects_union_bound():
    for model, kwargs in [
        ("type1", dict(p_doppler=0.2)),
        ("type2", dict(p_doppler=0.2)),
        ("type3", dict(cluster_len=3)),
    ]:
        cfg = SparsityConfig(model, l_taps=30, q_max=7, p_delay=0.2, **kwargs)
        stats = empirical_sparsity_stats(cfg, 20_000, np.random.default_rng(14))
        floor = 1.0 - stats["chernoff_delay_bound"] - stats["chernoff_doppler_bound"]
        se = 3 / math.sqrt(stats["trials"])
        assert stats["prob_hierarchically_sparse"] >= floor - se


def test_vanishing_probability_limit():
    cfg = SparsityConfig("type2", l_taps=30, q_max=7, p_delay=1e-6, p_doppler=1e-6)
    stats = empirical_sparsity_stats(cfg, 5_000, np.random.default_rng(15))
    assert stats["prob_delay_exceed"] == 0.0
    assert stats["prob_doppler_exceed_joint"] == 0.0


def test_stats_requires_enough_trials():
    cfg = SparsityConfig("type2", l_taps=4, q_max=1, p_delay=0.5, p_doppler=0.5)
    with pytest.raises(ValueError):
        empirical_sparsity_stats(cfg, 10, np.random.default_rng(0))

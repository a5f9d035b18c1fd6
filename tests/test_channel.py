import json
import math

import numpy as np
import pytest

from afdm_sense import (
    AfdmParams,
    NoiseConfig,
    SparsityConfig,
    apply_channel,
    chernoff_tail_bound,
    cpp_extend,
    devectorize_profile,
    empirical_sparsity_stats,
    idaft_modulate,
    profile_from_json,
    profile_to_json,
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
    prof = devectorize_profile(np.array([1, 2, 3], dtype=complex), 1, 1)
    assert np.array_equal(vectorize_profile(prof), np.array([1, 2, 3], dtype=complex))
    gains = np.zeros((2, 3), dtype=complex)
    gains[1, 0] = 2j  # (l=1, q=-1) -> flat index 1*3 + 1 + (-1) = 3
    prof = devectorize_profile(gains.reshape(-1), 2, 1)
    assert np.array_equal(vectorize_profile(prof), np.array([0, 0, 0, 2j, 0, 0]))


def test_vectorize_roundtrip():
    cfg = SparsityConfig("type2", l_taps=5, q_max=2, p_delay=0.5, p_doppler=0.5)
    prof = sample_profile(cfg, np.random.default_rng(6))
    back = devectorize_profile(vectorize_profile(prof), 5, 2, gain_var=prof.gain_var)
    assert np.array_equal(back.gains, prof.gains)
    assert np.array_equal(back.mask, prof.mask)


def identity_profile(l_taps, q_max):
    gains = np.zeros((l_taps, 2 * q_max + 1), dtype=complex)
    mask = np.zeros_like(gains, dtype=bool)
    gains[0, q_max] = 1.0
    mask[0, q_max] = True
    return devectorize_profile(gains.reshape(-1), l_taps, q_max)


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
    prof = devectorize_profile(gains.reshape(-1), 3, 1)
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
    both = devectorize_profile(vectorize_profile(p1) + vectorize_profile(p2), 6, 2)
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
    prof = devectorize_profile(gains.reshape(-1), 4, 0)
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


def test_chernoff_bound_value():
    manual = (0.2 / 0.3) ** 9 * (0.8 / 0.7) ** 21
    assert chernoff_tail_bound(30, 0.2, 9) == pytest.approx(manual, rel=1e-12)
    assert chernoff_tail_bound(30, 0.2, 9) == pytest.approx(0.4296, abs=5e-4)
    assert chernoff_tail_bound(30, 0.2, 30) == pytest.approx(0.2**30)
    assert chernoff_tail_bound(30, 0.2, 31) == 0.0


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


def test_profile_json_roundtrip():
    cfg = SparsityConfig("type2", l_taps=6, q_max=2, p_delay=0.5, p_doppler=0.5)
    prof = sample_profile(cfg, np.random.default_rng(16))
    doc = profile_to_json(prof)
    parsed = json.loads(doc)
    assert set(parsed) == {"l_taps", "q_max", "gain_var", "active"}
    back = profile_from_json(doc)
    assert np.array_equal(back.gains, prof.gains)
    assert np.array_equal(back.mask, prof.mask)
    assert back.gain_var == prof.gain_var


@pytest.mark.parametrize(
    "active, reason",
    [
        ([[-1, 0, 1.0, 0.0]], r"active entry 0 \(l=-1, q=0\) lies outside the grid"),
        ([[0, 0, 1.0, 0.0], [1, -3, 1.0, 0.0]], r"active entry 1 \(l=1, q=-3\) lies outside the grid"),
        ([[0, 5, 1.0, 0.0]], r"active entry 0 \(l=0, q=5\) lies outside the grid"),
        (
            [[1, 1, 1.0, 0.0], [1, 1, 2.0, 0.0]],
            r"active entry 1 \(l=1, q=1\) repeats an earlier entry",
        ),
    ],
    ids=["negative-delay", "doppler-below", "doppler-above", "duplicate"],
)
def test_profile_json_rejects_off_grid_and_duplicate_entries(active, reason):
    # each of these used to load: l=-1 on tap 1, q=-3 wrapped onto q=0 and a
    # repeat overwrote the earlier gain; q=5 raised IndexError
    doc = json.dumps({"l_taps": 2, "q_max": 1, "gain_var": 0.5, "active": active})
    with pytest.raises(ValueError, match=reason):
        profile_from_json(doc)

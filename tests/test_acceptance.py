"""Acceptance suite: one test per exit criterion, one status line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass; the paper-scale sweep (criteria 4 and 9) takes well
under two minutes on a laptop.
"""

import math
from itertools import combinations, product

import numpy as np
import pytest

from afdm_sense import (
    AfdmParams,
    ExperimentConfig,
    PilotScheme,
    RadarConfig,
    SparsityConfig,
    SupportSet,
    apply_channel,
    build_measurement_operator,
    build_pilot_frame,
    chernoff_tail_bound,
    cpp_extend,
    daft_demodulate,
    dechirp_decimate_receive,
    empirical_sparsity_stats,
    extract_measurements,
    hierarchical_threshold,
    hihtp_recover,
    idaft_modulate,
    observation_index_set,
    pilot_overhead,
    records_to_csv_str,
    restricted_least_squares,
    run_monte_carlo,
    sample_profile,
    sampling_rate,
    vectorize_profile,
)


def report(criterion, ok, detail):
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ---------------------------------------------------------------- criterion 1


def test_c1_cross_path_consistency():
    n, l_taps, q_max = 256, 8, 3
    params = AfdmParams(n=n, chirp_num=1, cpp_len=l_taps - 1)
    scheme = PilotScheme.uniform(n, 2, l_taps, q_max, 1)
    op = build_measurement_operator(scheme, params, l_taps, q_max)
    cfg = SparsityConfig("type2", l_taps=l_taps, q_max=q_max, p_delay=0.3, p_doppler=0.3)
    frame = build_pilot_frame(scheme, params, l_taps, q_max)
    s_cpp = cpp_extend(idaft_modulate(frame, params), params)
    rng = np.random.default_rng(101)
    worst, done = 0.0, 0
    while done < 100:
        profile = sample_profile(cfg, rng)
        reference = op.matrix @ vectorize_profile(profile)
        norm = np.linalg.norm(reference)
        if norm == 0.0:
            continue  # empty channel draw: relative error undefined
        received = apply_channel(s_cpp, profile, params)
        y_p = extract_measurements(daft_demodulate(received, params), op.row_indices)
        worst = max(worst, float(np.linalg.norm(y_p - reference) / norm))
        done += 1
    report(1, worst <= 1e-9, f"worst relative chain-vs-operator error {worst:.3e} over 100 profiles")


# ---------------------------------------------------------------- criterion 2


def all_hierarchical_supports(n_blocks, block_size, s_block, s_entry):
    for blocks in combinations(range(n_blocks), s_block):
        for picks in product(*(combinations(range(block_size), s_entry) for _ in blocks)):
            yield SupportSet(
                [b * block_size + j for b, pick in zip(blocks, picks) for j in pick], block_size
            )


def test_c2_threshold_matches_exhaustive_best_approximation():
    rng = np.random.default_rng(102)
    checked = 0
    for _ in range(200):
        n_blocks = int(rng.integers(2, 5))
        block_size = int(rng.integers(2, 5))
        s_block = int(rng.integers(1, n_blocks + 1))
        s_entry = int(rng.integers(1, block_size + 1))
        x = rng.standard_normal(n_blocks * block_size) + 1j * rng.standard_normal(
            n_blocks * block_size
        )
        got = hierarchical_threshold(x, n_blocks, block_size, s_block, s_entry)
        best, best_energy = None, -1.0
        for sup in all_hierarchical_supports(n_blocks, block_size, s_block, s_entry):
            energy = sum(abs(x[b * block_size + j]) ** 2 for b, j in sup.pairs)
            if energy > best_energy + 1e-15:
                best, best_energy = sup, energy
        if got != best:
            report(2, False, f"support mismatch at blocks={n_blocks} size={block_size}")
        checked += 1
    report(2, True, f"threshold equals the exhaustive best approximation in {checked} cases")


# ---------------------------------------------------------------- criterion 3


def test_c3_noise_free_exact_recovery():
    n, l_taps, q_max = 32, 4, 1
    params = AfdmParams(n=n, chirp_num=1, cpp_len=l_taps - 1)
    scheme = PilotScheme.uniform(n, 4, l_taps, q_max, 1)
    op = build_measurement_operator(scheme, params, l_taps, q_max)
    nd = 2 * q_max + 1
    wins = 0
    for trial in range(100):
        rng = np.random.default_rng([103, trial])
        truth = np.zeros(op.shape[1], dtype=np.complex128)
        for b in rng.choice(l_taps, 2, replace=False):
            truth[b * nd + int(rng.integers(0, nd))] = rng.standard_normal() + 1j * rng.standard_normal()
        y = op.matrix @ truth
        estimate = hihtp_recover(op, y, 2, 1).alpha
        best, best_res = None, np.inf
        for sup in all_hierarchical_supports(l_taps, nd, 2, 1):
            z = restricted_least_squares(op.matrix, y, sup)
            res = float(np.linalg.norm(y - op.matrix @ z))
            if res < best_res - 1e-12:
                best, best_res = z, res
        if np.linalg.norm(estimate - truth) <= 1e-8 and np.linalg.norm(estimate - best) <= 1e-8:
            wins += 1
    report(3, wins >= 95, f"exhaustive-oracle agreement with error <= 1e-8 in {wins}/100 trials")


# --------------------------------------------------------- criteria 4 and 9


PAPER_SWEEP = ExperimentConfig(
    n=4096,
    l_taps=30,
    q_max=7,
    model="type1",
    p_delay=0.2,
    p_doppler=0.2,
    margin=1.5,
    trials=100,
    master_seed=20260809,
    n_pilots=(8, 16, 32),
    snr_db=(20.0,),
    pilot_amplitude=25.0,
    cpp_len=64,
)


@pytest.fixture(scope="module")
def paper_sweep_records():
    return run_monte_carlo(PAPER_SWEEP)


def test_c4_paper_scale_mse_band(paper_sweep_records):
    records = paper_sweep_records
    in_band = [r for r in records if 3e-5 <= r.mse <= 3e-4]
    below_target = [r.n_pilots for r in records if r.mse <= 2e-4]
    monotone = all(
        hi.mse <= lo.mse + 2 * (lo.mse_stderr + hi.mse_stderr)
        for lo, hi in zip(records, records[1:])
    )
    summary = ", ".join(f"n_p={r.n_pilots}: {r.mse:.2e}" for r in records)
    detail = (
        f"{summary}; in-band pilot counts {[r.n_pilots for r in in_band]}, "
        f"smallest n_p with mse <= 2e-4: {min(below_target) if below_target else None}"
    )
    report(4, bool(in_band) and monotone and all(r.trials_failed == 0 for r in records), detail)


def test_c9_determinism_byte_identical_csv(paper_sweep_records):
    again = run_monte_carlo(PAPER_SWEEP)
    csv_a = records_to_csv_str(paper_sweep_records)
    csv_b = records_to_csv_str(again)
    report(9, csv_a == csv_b, f"re-run CSV identical ({len(csv_b.encode())} bytes)")


# The C4 band is wide enough that a refit or support path gone astray could
# stay inside it; the sweep's exact outcome at the C4 seed pins it down.
PAPER_SWEEP_PIN = {
    8: (0.3200460884430407, 0.05, 20.0),
    16: (2.1656870557527856e-4, 1.0, 2.0),
    32: (1.0774101562628055e-4, 1.0, 2.0),
}


def test_paper_sweep_pinned(paper_sweep_records):
    got = {r.n_pilots: r for r in paper_sweep_records}
    assert sorted(got) == sorted(PAPER_SWEEP_PIN)
    for n_p, (mse, support_rate, mean_iterations) in PAPER_SWEEP_PIN.items():
        rec = got[n_p]
        assert (rec.support_rate, rec.mean_iterations) == (support_rate, mean_iterations), n_p
        assert (rec.trials_ok, rec.trials_failed) == (PAPER_SWEEP.trials, 0), n_p
        assert rec.mse == pytest.approx(mse, rel=1e-12, abs=0.0), n_p


# ---------------------------------------------------------------- criterion 5


def test_c5_kronecker_factorization_structure():
    # a reduced pilot train that wraps the frame: the operator's components
    # are the paper's residue classes, each a partial-Fourier block
    n, l_taps, q_max, p, sign = 256, 8, 3, 1, -1
    params = AfdmParams(n=n, chirp_num=p, chirp_sign=sign, cpp_len=l_taps - 1)
    classes = (l_taps - 1) * p + 1
    n_pilots = n // classes
    scheme = PilotScheme.uniform(
        n, n_pilots, l_taps, q_max, p, chirp_sign=sign, overlap_mode="reduced"
    )
    cols = build_measurement_operator(scheme, params, l_taps, q_max).columns
    m, ncols = cols.shape
    l, q = np.divmod(np.arange(ncols), 2 * q_max + 1)
    residue = (q - q_max - sign * p * l) % classes
    n_comp = len(set(cols.comp.tolist()))
    pairs = set(zip(cols.comp.tolist(), residue.tolist()))
    partition = len(pairs) == n_comp == len(set(residue.tolist()))
    # every component's rows, counted from the hits; padding points at row m
    hit = cols.rows < m
    comp = np.broadcast_to(cols.comp[:, None], cols.rows.shape)[hit]
    keys = np.unique(comp * (m + 1) + cols.rows[hit])
    shapes = set(zip(np.bincount(keys // (m + 1)).tolist(), np.bincount(cols.comp).tolist()))
    mod_dev = float(np.abs(np.abs(cols.vals[hit]) - 1.0).max())
    gram_dev = max(
        float(np.abs(cols.gram[c, :w, :w] - n_pilots * np.eye(w)).max())
        for c, w in enumerate(np.bincount(cols.comp))
    )
    structural = (
        n_comp == classes
        and partition
        and shapes == {(n_pilots, 2 * q_max + 1)}
        and mod_dev <= 1e-9
        and gram_dev <= 1e-9
        and cols.refit == "scale"
    )
    detail = (
        f"{n_comp} components of (rows, columns) {sorted(shapes)}, "
        f"equal to the classes (q - chirp_sign P l) mod {classes}: {partition}; "
        f"hit modulus dev {mod_dev:.1e}, Gram dev from {n_pilots} I {gram_dev:.1e}; "
        f"refit {cols.refit}"
    )
    report(5, structural, detail)


# ---------------------------------------------------------------- criterion 6


def _subnyquist_case(n, l_taps, q_max, n_pilots, seed):
    params = AfdmParams(n=n, chirp_num=1, cpp_len=max(l_taps - 1, 1))
    scheme = PilotScheme.uniform(n, n_pilots, l_taps, q_max, 1, overlap_mode="reduced")
    cfg = SparsityConfig("type2", l_taps=l_taps, q_max=q_max, p_delay=0.4, p_doppler=0.4)
    rng = np.random.default_rng(seed)
    profile = sample_profile(cfg, rng)
    while not profile.mask.any():
        profile = sample_profile(cfg, rng)
    frame = build_pilot_frame(scheme, params, l_taps, q_max)
    s_cpp = cpp_extend(idaft_modulate(frame, params), params)
    received = apply_channel(s_cpp, profile, params)
    indices = observation_index_set(scheme, params, l_taps, q_max)
    y_full = extract_measurements(daft_demodulate(received, params), indices)
    y_sub = dechirp_decimate_receive(received, scheme, params, l_taps, q_max, frame=frame)
    rel = float(np.linalg.norm(y_sub - y_full) / np.linalg.norm(y_full))
    op = build_measurement_operator(scheme, params, l_taps, q_max)
    s_d = int(profile.mask.any(axis=1).sum())
    s_dop = int(profile.mask.sum(axis=1).max())
    same_support = (
        hihtp_recover(op, y_full, s_d, s_dop).support
        == hihtp_recover(op, y_sub, s_d, s_dop).support
    )
    return rel, same_support


def test_c6_subnyquist_equivalence_and_compression():
    rel64, sup64 = _subnyquist_case(64, 3, 2, 4, seed=106)
    rel4096, sup4096 = _subnyquist_case(4096, 30, 7, 16, seed=107)
    info = sampling_rate(16, 30, 1, RadarConfig(30e6, 4096, 64, include_cpp_in_duration=True))
    ratio_ok = (
        info.compression_ratio == pytest.approx(480 / 4096)
        and info.compression_ratio <= 0.2
        and abs(info.f_s_hz - 3.45e6) / 3.45e6 <= 0.10
    )
    detail = (
        f"relative error {rel64:.2e} (n=64) / {rel4096:.2e} (n=4096), supports identical "
        f"{sup64 and sup4096}; f_s/bandwidth {info.compression_ratio:.4f} "
        f"(~0.117), prefix-inclusive rate {info.f_s_hz/1e6:.3f} MHz vs 3.45 MHz"
    )
    report(6, rel64 <= 1e-9 and rel4096 <= 1e-9 and sup64 and sup4096 and ratio_ok, detail)


# ---------------------------------------------------------------- criterion 7


def binom_tail_above(n, p, level):
    return sum(math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(level + 1, n + 1))


def test_c7_sparsity_tail_bounds():
    trials = 100_000
    bound = chernoff_tail_bound(30, 0.2, 9)
    exact = binom_tail_above(30, 0.2, 9)
    cfgs = {
        "type1": SparsityConfig("type1", 30, 7, 0.2, 0.2),
        "type2": SparsityConfig("type2", 30, 7, 0.2, 0.2),
        "type3": SparsityConfig("type3", 30, 7, 0.2, cluster_len=3),
    }
    ok = abs(bound - 0.4296) <= 5e-4
    details = [f"chernoff {bound:.4f}"]
    for name, cfg in cfgs.items():
        stats = empirical_sparsity_stats(cfg, trials, np.random.default_rng(107))
        se = math.sqrt(exact * (1 - exact) / trials)
        ok &= stats["prob_delay_exceed"] <= bound
        ok &= abs(stats["prob_delay_exceed"] - exact) <= 3 * se
        s_dop = stats["doppler_level"]
        row_tail = binom_tail_above(15, cfg.p_doppler, s_dop)
        if name == "type1":
            joint_exact = (1 - 0.8**30) * row_tail
        elif name == "type2":
            joint_exact = 1 - (1 - 0.2 * row_tail) ** 30
        else:
            joint_exact = 0.0 if cfg.cluster_len <= s_dop else 1 - 0.8**30
        se_j = math.sqrt(max(joint_exact * (1 - joint_exact), 1e-12) / trials)
        ok &= stats["prob_doppler_exceed_joint"] <= stats["chernoff_doppler_bound"] + 3 * se_j
        ok &= abs(stats["prob_doppler_exceed_joint"] - joint_exact) <= 3 * se_j + 1e-9
        details.append(
            f"{name}: delay {stats['prob_delay_exceed']:.4f} (exact {exact:.4f}), "
            f"joint {stats['prob_doppler_exceed_joint']:.4f} (exact {joint_exact:.4f})"
        )
    report(7, ok, "; ".join(details))


# ---------------------------------------------------------------- criterion 8


def test_c8_overhead_formulas():
    afdm = pilot_overhead("afdm", dict(n_pilots=16, l_taps=30, q_max=7, chirp_num=1))
    otfs = pilot_overhead("otfs", dict(n_otfs=16, m_otfs=256, l_taps=30, q_max=7))
    report(8, afdm == 537 and otfs == 944, f"afdm overhead {afdm} (537), otfs overhead {otfs} (944)")

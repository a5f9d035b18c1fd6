import dataclasses
import gc
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import threading
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest

from afdm_sense import (
    ExperimentConfig,
    NoiseConfig,
    emit_report,
    load_records_json,
    pilot_overhead,
    records_to_csv_str,
    run_monte_carlo,
)
from afdm_sense import cli, harness, hihtp, sensing_model, subnyquist
from afdm_sense.channel import SparsityConfig, doppler_phase
from afdm_sense.daft_core import AfdmParams
from afdm_sense.sensing_model import PilotScheme, build_measurement_operator, data_slots
from afdm_sense.subnyquist import RadarConfig
from afdm_sense.cli import main as cli_main


def small_config(**overrides):
    # type3 with cluster_len 2 keeps every draw inside the solver's
    # (3, 3) sparsity class, so noise-free recovery is always exact
    base = dict(
        n=64,
        l_taps=3,
        q_max=2,
        model="type3",
        p_delay=0.5,
        cluster_len=2,
        margin=0.5,
        trials=20,
        master_seed=42,
        n_pilots=(4,),
        snr_db=(1000.0,),  # effectively noise free
        cpp_len=4,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_overhead_reference_values():
    assert pilot_overhead("afdm", dict(n_pilots=16, l_taps=30, q_max=7, chirp_num=1)) == 537
    assert pilot_overhead("otfs", dict(n_otfs=16, m_otfs=256, l_taps=30, q_max=7)) == 944
    assert pilot_overhead("afdm", dict(n_pilots=0, l_taps=30, q_max=7, chirp_num=1)) == 29 + 28
    assert (
        pilot_overhead("ofdm", dict(n_pilots_td=4, n_pilots_fd=8, n_symbols=16, l_taps=30))
        == 32 + 15 * 29
    )
    # the smallest grids each waveform accepts
    assert pilot_overhead("ofdm", dict(n_pilots_td=0, n_pilots_fd=0, n_symbols=1, l_taps=1)) == 0
    assert pilot_overhead("otfs", dict(n_otfs=1, m_otfs=1, l_taps=1, q_max=0)) == 1


# (n, l_taps, q_max, chirp_num, n_pilots) of reduced trains whose guards do
# not wrap the frame; the last two are criterion 8's paper cell and the
# subnyquist_snr workload's train
REDUCED_TRAINS = [
    (256, 3, 2, 1, 6), (256, 8, 3, 1, 4), (512, 4, 1, 3, 16), (512, 5, 2, 2, 9),
    (4096, 30, 7, 1, 16), (4096, 8, 3, 1, 255),
]


@pytest.mark.parametrize("chirp_sign", [1, -1])
@pytest.mark.parametrize("n, l_taps, q_max, chirp_num, n_pilots", REDUCED_TRAINS)
def test_afdm_overhead_formula_is_a_reduced_train_frame(n, l_taps, q_max, chirp_num, n_pilots,
                                                        chirp_sign):
    # the closed form counts a reduced train's pilots and guards
    formula = pilot_overhead(
        "afdm", dict(n_pilots=n_pilots, l_taps=l_taps, q_max=q_max, chirp_num=chirp_num)
    )
    assert formula < n  # no wrap
    params = AfdmParams(n=n, chirp_num=chirp_num, chirp_sign=chirp_sign)
    scheme = PilotScheme.uniform(params, n_pilots, l_taps, q_max, overlap_mode="reduced")
    assert formula == n - len(data_slots(scheme, params, l_taps, q_max))


@pytest.mark.parametrize(
    "waveform, key, value",
    [
        ("afdm", "n_pilots", -1),
        ("afdm", "n_pilots", -3),
        ("afdm", "l_taps", 0),
        ("afdm", "q_max", -1),
        ("afdm", "chirp_num", 0),
        ("otfs", "l_taps", 0),
        ("otfs", "q_max", -1),
        ("otfs", "n_otfs", -3),
        ("otfs", "n_otfs", 0),
        ("otfs", "m_otfs", 0),
        ("ofdm", "n_pilots_td", -4),
        ("ofdm", "n_pilots_fd", -1),
        ("ofdm", "n_symbols", 0),
        ("ofdm", "l_taps", 0),
    ],
)
def test_overhead_rejects_out_of_range_counts(waveform, key, value):
    parameters = {
        "afdm": dict(n_pilots=16, l_taps=30, q_max=7, chirp_num=1),
        "otfs": dict(n_otfs=16, m_otfs=256, l_taps=30, q_max=7),
        "ofdm": dict(n_pilots_td=4, n_pilots_fd=8, n_symbols=16, l_taps=30),
    }[waveform]
    parameters[key] = value
    with pytest.raises(ValueError, match=f"{key} must be >="):
        pilot_overhead(waveform, parameters)


def test_overhead_missing_parameters():
    with pytest.raises(ValueError, match="needs parameters"):
        pilot_overhead("afdm", dict(n_pilots=16))
    # a parameter the waveform's formula does not read is refused by name
    ofdm = dict(n_pilots_td=4, n_pilots_fd=8, n_symbols=16, l_taps=30)
    with pytest.raises(ValueError, match=r"does not read parameters \['chirp_num', 'q_max'\]"):
        pilot_overhead("ofdm", {**ofdm, "q_max": 7, "chirp_num": 1})
    with pytest.raises(ValueError, match="waveform"):
        pilot_overhead("fbmc", {})


def test_config_round_trip_and_derived_fields():
    cfg = small_config()
    doc = cfg.to_dict()
    assert ExperimentConfig.from_dict(doc) == cfg
    assert cfg.params.chirp_num == 1
    assert cfg.params.cpp_len == 4
    with pytest.raises(ValueError, match="unknown config fields"):
        ExperimentConfig.from_dict({**doc, "bogus": 1})


@pytest.mark.parametrize(
    "field, value",
    [("trials", "100"), ("trials", 100.0), ("trials", True), ("contiguous", 1),
     ("model", None), ("chirp_num", 2.5), ("n_pilots", ["8"]), ("snr_db", [True])],
)
def test_config_rejects_wrong_json_types(field, value):
    doc = small_config().to_dict()
    with pytest.raises(ValueError, match=f"config field '{field}' must be"):
        ExperimentConfig.from_dict({**doc, field: value})
    # numbers fill float fields, null fills optional ones, one number a list
    ok = {**doc, "snr_db": 20, "pilot_amplitude": 2, "chirp_num": None, "n_pilots": 4}
    assert ExperimentConfig.from_dict(ok).n_pilots == (4,)
    with pytest.raises(ValueError, match="object of fields"):
        ExperimentConfig.from_dict([doc])


@pytest.mark.parametrize(
    "field, value",
    [("trials", 2.5), ("n", 64.0), ("cpp_len", 4.0), ("k_max", 3.5), ("master_seed", 1.5),
     ("trials", True), ("contiguous", 1), ("chirp_num", 2.5), ("margin", "0.5")],
)
def test_constructor_applies_the_type_rule(field, value):
    # a config built in Python goes through the rule a JSON config does, so
    # none of these reaches a sweep
    with pytest.raises(ValueError, match=f"config field '{field}' must be"):
        small_config(**{field: value})


# every field that holds numbers: each must convert to a float
NUMERIC_FIELDS = [
    name for name, hint in harness._HINTS.items()
    if {int, float} & set(typing.get_args(hint) or (hint,))
]


@pytest.mark.parametrize("field", NUMERIC_FIELDS)
def test_numbers_beyond_float_range_are_refused(field):
    # a JSON integer of 401 digits is an int that no float holds
    value = [10**400] if field in ("n_pilots", "snr_db") else 10**400
    doc = {**small_config().to_dict(), field: value}
    with pytest.raises(ValueError, match=rf"^config field '{field}' must be .*, got \[?1000"):
        ExperimentConfig.from_dict(doc)


@pytest.mark.parametrize("field, value", [("k_max", 3.5), ("snr_db", []), ("model", None)])
def test_from_dict_and_constructor_refuse_alike(field, value):
    doc = {**small_config().to_dict(), field: value}
    with pytest.raises(ValueError) as by_dict:
        ExperimentConfig.from_dict(doc)
    with pytest.raises(ValueError) as by_constructor:
        ExperimentConfig(**doc)
    assert str(by_dict.value) == str(by_constructor.value)
    assert str(by_dict.value).startswith(f"config field '{field}' must be")


def test_numpy_scalars_are_kept_as_python_numbers():
    cfg = small_config(n=np.int64(64), pilot_amplitude=np.float32(2.0), n_pilots=np.array([4, 5]))
    assert type(cfg.n) is int and type(cfg.pilot_amplitude) is float
    assert cfg.n_pilots == (4, 5)
    # the hash reads the Python numbers, as a JSON config gives them
    assert cfg.config_hash() == small_config(pilot_amplitude=2.0, n_pilots=[4, 5]).config_hash()


def test_from_dict_names_missing_fields():
    doc = small_config().to_dict()
    del doc["model"], doc["l_taps"]
    with pytest.raises(ValueError, match=r"missing config fields: \['l_taps', 'model'\]$"):
        ExperimentConfig.from_dict(doc)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(receiver="analog")
    with pytest.raises(ValueError):
        small_config(solver="omp")
    with pytest.raises(ValueError):
        small_config(trials=0)
    with pytest.raises(ValueError, match="master_seed must be a non-negative integer"):
        small_config(master_seed=-1)
    with pytest.raises(ValueError, match="overlap_mode must be one of"):
        small_config(overlap_mode="foo")
    # the de-chirp receiver runs on the reduced train only: at the K its
    # observation count gives, a spread train's windows fold onto one another,
    # and a packed one samples more for its pilots; pilots that fold on
    # purpose are item 1 of ROADMAP.md
    for contiguous in (False, True):
        with pytest.raises(ValueError, match="overlap_mode 'reduced'"):
            small_config(receiver="subnyquist", contiguous=contiguous)
    # a reduced train is spaced the same either way; only a disjoint one is packed
    with pytest.raises(ValueError, match="contiguous=True needs overlap_mode 'disjoint'"):
        small_config(overlap_mode="reduced", contiguous=True)
    small_config(overlap_mode="disjoint", contiguous=True)
    with pytest.raises(ValueError, match="n_pilots"):
        small_config(n_pilots=(4, 0))
    # the one type rule: integers for n_pilots and real numbers for snr_db,
    # never a bool or a string, one value or a list of them
    for n_pilots in ((4.7,), 4.7, [True, 4], "4"):
        with pytest.raises(ValueError, match="config field 'n_pilots' must be tuple"):
            small_config(n_pilots=n_pilots)
    for snr_db in ("20", True, [20.0, False], None):
        with pytest.raises(ValueError, match="config field 'snr_db' must be tuple"):
            small_config(snr_db=snr_db)
    cfg = small_config(n_pilots=np.int64(4), snr_db=[np.float32(20.0), 25])
    assert (cfg.n_pilots, cfg.snr_db) == ((4,), (20.0, 25.0))
    # every pilot count's layout is built at construction: a train that does
    # not fit the frame, or holds fewer observations than the support, is refused
    with pytest.raises(ValueError, match="100 pilots with spacing 0 do not fit"):
        small_config(n_pilots=(4, 100))
    # 16 spread pilots sit 4 apart, closer than their windows of 2 + 5 bins
    with pytest.raises(ValueError, match="disjoint windows of width 7 need spacing >= 7, got 4$"):
        small_config(n_pilots=(16,))
    with pytest.raises(ValueError, match="n_pilots=1 gives 7 observations, fewer than the 9"):
        small_config(n_pilots=(4, 1))
    # every entry is one axis point of the sweep: a repeated one would run
    # its cells again with the same trial keys
    for overrides, match in [
        (dict(n_pilots=(4, 5, 4)), "n_pilots repeats the entry 4$"),
        (dict(n_pilots=[4, np.int64(4)]), "n_pilots repeats the entry 4$"),
        (dict(snr_db=(20.0, 20)), r"snr_db repeats the entry 20\.0$"),
        (dict(snr_db=(0.0, 10.0, -0.0)), r"snr_db repeats the entry -0\.0$"),
        # SNRs are keyed in thousandths of a dB
        (dict(snr_db=[20.0, 20.0004]), r"snr_db entries 20\.0 and 20\.0004 share one trial key$"),
    ]:
        with pytest.raises(ValueError, match=match):
            small_config(**overrides)
    assert small_config(snr_db=[20.0, 20.001]).snr_db == (20.0, 20.001)
    with pytest.raises(ValueError, match="k_max"):
        small_config(k_max=0)
    with pytest.raises(ValueError, match="htp_sparsity"):
        small_config(solver="htp", htp_sparsity=0)
    # l_taps (2 q_max + 1) = 15 unknowns
    with pytest.raises(ValueError, match="htp_sparsity"):
        small_config(solver="htp", htp_sparsity=16)
    assert small_config(solver="htp", htp_sparsity=15).htp_sparsity == 15
    # outside [-1048.576, 1e300] dB a trial key is negative or not finite
    for snr in (float("nan"), float("inf"), float("-inf"), -1048.577, 1e306):
        with pytest.raises(ValueError, match="snr_db"):
            small_config(snr_db=(20.0, snr))
    assert small_config(snr_db=[-1048.576, 1e300]).snr_db == (-1048.576, 1e300)
    for amplitude in (float("nan"), float("inf"), 0.0):
        with pytest.raises(ValueError, match="pilot_amplitude"):
            small_config(pilot_amplitude=amplitude)
    for c2 in (float("nan"), float("-inf")):
        with pytest.raises(ValueError, match="c2"):
            small_config(c2=c2)
    for bandwidth in (float("nan"), float("inf"), 0.0, -30e6):
        with pytest.raises(ValueError, match="bandwidth_hz"):
            small_config(bandwidth_hz=bandwidth)
    # the config builds its channel model and waveform, so what only they
    # check is refused at construction, before any sweep
    for margin in (float("nan"), float("inf"), -0.5):
        with pytest.raises(ValueError, match="margin"):
            small_config(margin=margin)
    for overrides, match in [
        (dict(p_delay=1.0), "p_delay"),
        (dict(model="type2", p_doppler=0.0), "p_doppler"),
        (dict(model="type2", p_doppler=1.0), "p_doppler"),
        # the part that owns a field refuses it before an unread field is
        (dict(cluster_len=9, p_doppler=0.3), "cluster_len must lie in"),
        (dict(n=63), "frame length"),
        (dict(chirp_sign=2), "chirp sign"),
        (dict(chirp_num=0), "chirp numerator"),
        # chirp_num and chirp_num + 2n give the same chirp
        (dict(chirp_num=128), r"chirp numerator must lie in \[1, 128\), got 128$"),
        (dict(chirp_num=2**63, l_taps=1), r"must lie in \[1, 128\), got 9223372036854775808$"),
        (dict(model="type4"), "model must be one of .*, got 'type4'$"),
        (dict(l_taps=0), "l_taps must be >= 1 and q_max >= 0$"),
        (dict(q_max=-1), "l_taps must be >= 1 and q_max >= 0$"),
        # l_taps = 3 needs a prefix of at least 2 samples
        (dict(cpp_len=1), "cpp_len"),
        (dict(cpp_len=0), "cpp_len"),
        # the prefix copies the frame's tail, so the waveform refuses one longer than the frame
        (dict(cpp_len=100), r"prefix length must lie in \[0, n = 64\], got 100"),
    ]:
        with pytest.raises(ValueError, match=match):
            small_config(**overrides)
    assert small_config(chirp_num=127, l_taps=1).params.chirp_num == 127
    assert small_config(cpp_len=2).params.cpp_len == 2
    assert small_config(cpp_len=64).params.cpp_len == 64
    # a huge finite margin saturates the sparsity levels instead of overflowing
    assert small_config(margin=1e308).sparsity.sparsity_levels() == (3, 5)
    with pytest.raises(ValueError, match="snr_db"):
        small_config(snr_db=(20.0, -4000.0))
    with pytest.raises(ValueError, match="noise variance"):
        NoiseConfig(float("inf"))
    with pytest.raises(ValueError, match="snr_db must give a finite noise variance, got -4000.0$"):
        NoiseConfig.from_snr_db(-4000.0)
    assert NoiseConfig.from_snr_db(4000.0).sigma_w2 == 0.0


# each overrides a config that does not read the field; its hash is the
# one the config had before such fields were refused, so the rows a config
# wrote with the field at its default keep their name
@pytest.mark.parametrize(
    "field, value, overrides, reader, chash",
    [
        ("htp_sparsity", 5, {}, "solver 'htp'", "c27d3ac53a37"),
        ("p_doppler", 0.3, dict(solver="htp"), "model 'type1' or 'type2'", "f07199c1e0ca"),
        ("cluster_len", 3, dict(model="type2", p_doppler=0.3, cluster_len=None), "model 'type3'",
         "416d47115228"),
        ("include_cpp_in_duration", True, dict(overlap_mode="reduced", n_pilots=(6,)),
         "receiver 'subnyquist'", "43147fc23832"),
        # the support is htp_sparsity, and the default chirp_num takes no margin
        ("margin", 1.5, dict(model="type2", p_delay=0.3, p_doppler=0.3, cluster_len=None,
                             master_seed=0, n_pilots=(6,), snr_db=(20.0,), cpp_len=None,
                             solver="htp", htp_sparsity=4), "htp_sparsity unset", "4259bbb2fc41"),
    ],
)
def test_unread_field_is_refused(field, value, overrides, reader, chash):
    # a field the run does not read would change the hash of the same rows
    with pytest.raises(ValueError, match=f"^{field} is read only with {reader}, got {value!r}$"):
        small_config(**{**overrides, field: value})
    assert small_config(**overrides).config_hash() == chash


# the benchmark workloads' configs; both of their CSVs carry the hash
BENCHMARK_CONFIGS = {
    "paper_sweep": {
        "n": 4096, "l_taps": 30, "q_max": 7, "model": "type1", "p_delay": 0.2,
        "p_doppler": 0.2, "margin": 1.5, "trials": 100, "n_pilots": [8, 16, 32],
        "snr_db": [20.0], "pilot_amplitude": 25.0, "cpp_len": 64,
    },
    "subnyquist_snr": {
        "n": 4096, "l_taps": 8, "q_max": 3, "model": "type2", "p_delay": 0.3,
        "p_doppler": 0.3, "trials": 100, "n_pilots": [255], "snr_db": [10.0, 20.0, 30.0],
        "overlap_mode": "reduced", "receiver": "subnyquist",
    },
}


@pytest.mark.parametrize(
    "workload, chash", [("paper_sweep", "f16a5ba03b6f"), ("subnyquist_snr", "09f84cb3f824")]
)
def test_benchmark_config_hashes_are_pinned(workload, chash):
    doc = {**BENCHMARK_CONFIGS[workload], "master_seed": 20260809}
    assert ExperimentConfig.from_dict(doc).config_hash() == chash


# snr_db: (mse, support_rate, mean_iterations) of the subnyquist_snr
# workload's sweep at the benchmark's master seed
SUBNYQUIST_SWEEP_PIN = {
    10.0: (0.09043370477883972, 0.75, 3.73),
    20.0: (0.15054054672588843, 0.78, 3.69),
    30.0: (0.04716619581278102, 0.84, 3.57),
}


def test_subnyquist_sweep_pinned():
    doc = {**BENCHMARK_CONFIGS["subnyquist_snr"], "master_seed": 20260809}
    got = {r.snr_db: r for r in run_monte_carlo(ExperimentConfig.from_dict(doc))}
    assert sorted(got) == sorted(SUBNYQUIST_SWEEP_PIN)
    for snr_db, (mse, support_rate, mean_iterations) in SUBNYQUIST_SWEEP_PIN.items():
        rec = got[snr_db]
        assert (rec.support_rate, rec.mean_iterations) == (support_rate, mean_iterations), snr_db
        assert (rec.trials_ok, rec.trials_failed) == (100, 0), snr_db
        assert rec.mse == pytest.approx(mse, rel=1e-12, abs=0.0), snr_db


# the CI sweeps' configs
CI_SWEEP = {
    "n": 256, "l_taps": 8, "q_max": 3, "model": "type2", "p_delay": 0.3,
    "p_doppler": 0.3, "trials": 40, "n_pilots": [4, 8], "snr_db": [20.0],
}
CI_REDUCED = {
    "n": 64, "l_taps": 3, "q_max": 2, "model": "type2", "p_delay": 0.3, "p_doppler": 0.3,
    "trials": 40, "n_pilots": [6], "snr_db": [20.0], "overlap_mode": "reduced",
    "receiver": "subnyquist",
}
# config, each pilot count's frame overhead, and f_s_hz
ROW_FACT_CASES = {
    "paper_sweep": (BENCHMARK_CONFIGS["paper_sweep"], {8: 696, 16: 1392, 32: 2784}, 30e6),
    # K = 2048 for 2046 observed bins
    "subnyquist_snr": (BENCHMARK_CONFIGS["subnyquist_snr"], {255: 2059}, 15e6),
    "ci_sweep": (CI_SWEEP, {4: 108, 8: 216}, 30e6),
    "ci_subnyquist": (CI_REDUCED, {6: 28}, 15e6),  # K = 32 for 22 bins
    "ci_htp": ({**CI_SWEEP, "solver": "htp"}, {4: 108, 8: 216}, 30e6),
    "ci_type1": ({**CI_SWEEP, "model": "type1"}, {4: 108, 8: 216}, 30e6),
    "ci_type3": ({**CI_SWEEP, "model": "type3", "p_doppler": 0.0, "cluster_len": 2},
                 {4: 108, 8: 216}, 30e6),
    "packed": ({**CI_SWEEP, "l_taps": 3, "q_max": 2, "n_pilots": [6, 8], "contiguous": True},
               {6: 48, 8: 62}, 30e6),
    # T counts the prefix: 32 samples in 68 / 10 MHz
    "dechirp_with_prefix": ({**CI_REDUCED, "n_pilots": [6, 7], "chirp_sign": -1, "cpp_len": 4,
                             "include_cpp_in_duration": True, "bandwidth_hz": 10e6},
                            {6: 28, 7: 31}, 32 / 6.8e-6),
}


@pytest.mark.parametrize("case", ROW_FACT_CASES)
def test_rows_state_what_their_cells_ran(case):
    # overhead counts the frame's pilots and guards, and f_s_hz is the
    # de-chirp receiver's K / T or the full bandwidth; neither depends on
    # the trials, so two run
    doc, overheads, f_s_hz = ROW_FACT_CASES[case]
    cfg = ExperimentConfig.from_dict({**doc, "trials": 2})
    records = run_monte_carlo(cfg)
    assert [r.n_pilots for r in records] == [n_p for n_p in cfg.n_pilots for _ in cfg.snr_db]
    for rec in records:
        scheme = cfg.schemes[rec.n_pilots]
        free = data_slots(scheme, cfg.params, cfg.l_taps, cfg.q_max)
        assert rec.overhead == cfg.n - len(free) == overheads[rec.n_pilots]
        if cfg.receiver == "subnyquist":
            op = build_measurement_operator(scheme, cfg.params, cfg.l_taps, cfg.q_max)
            k_points = subnyquist.decimation_plan(op).k_points
            assert rec.f_s_hz == k_points / cfg.radar.frame_duration_s
        else:
            assert rec.f_s_hz == cfg.bandwidth_hz
        assert rec.f_s_hz == pytest.approx(f_s_hz, rel=1e-15)


@pytest.mark.parametrize(
    "overrides",
    [dict(n_pilots=(4, 5)), dict(receiver="subnyquist", overlap_mode="reduced", n_pilots=(6, 7))],
    ids=["fullrate", "subnyquist"],
)
def test_config_builds_each_part_once(monkeypatch, overrides):
    # the sweep runs on the parts its config built and builds none again;
    # the trials run here, where the counts are seen
    monkeypatch.setenv("AFDM_SENSE_THREADS", "1")
    doc = small_config(trials=5, snr_db=(10.0, 20.0), **overrides).to_dict()
    built = dict.fromkeys([SparsityConfig, AfdmParams, RadarConfig, PilotScheme], 0)
    for cls in built:
        def counting(self, cls=cls, original=cls.__post_init__):
            built[cls] += 1
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    records = run_monte_carlo(ExperimentConfig.from_dict(doc))
    assert [r.trials_ok for r in records] == [5] * 4
    assert built == {SparsityConfig: 1, AfdmParams: 1, RadarConfig: 1, PilotScheme: 2}


@pytest.mark.parametrize(
    "overrides, observations, support",
    [(dict(n_pilots=(4, 1)), 7, 9), (dict(solver="htp", htp_sparsity=15, n_pilots=(1,)), 7, 15)],
    ids=["hihtp", "htp"],
)
def test_support_above_observations_rejected_before_trials(monkeypatch, overrides, observations, support):
    # one pilot gives (l_taps - 1) + 1 + 2 q_max = 7 observations; every
    # trial's refit would refuse the support, so no trial runs
    monkeypatch.setattr(harness, "_TrialPool", None)
    with pytest.raises(ValueError, match=f"n_pilots=1 gives {observations} .* {support} entries"):
        run_monte_carlo(small_config(**overrides))


def test_uncertified_operator_rejected_before_trials(monkeypatch):
    # three pilots of a reduced train leave components with more columns
    # than rows; the sweep refuses the cell and names the fix
    monkeypatch.setattr(harness, "_TrialPool", None)
    with pytest.raises(ValueError, match="n_pilots=3 .* certificate inf exceeds the bound 1000; spread"):
        run_monte_carlo(small_config(overlap_mode="reduced", n_pilots=(4, 3)))


def test_uncertified_subnyquist_cell_advises_only_more_pilots(monkeypatch):
    # the de-chirp receiver takes only the reduced train, so spreading the
    # pilots is no fix there
    monkeypatch.setattr(harness, "_TrialPool", None)
    cfg = ExperimentConfig(
        n=64, l_taps=3, q_max=2, model="type2", p_delay=0.3, p_doppler=0.3, trials=5,
        n_pilots=(3,), overlap_mode="reduced", receiver="subnyquist",
    )
    with pytest.raises(ValueError, match="n_pilots=3 .* certificate") as refused:
        run_monte_carlo(cfg)
    assert str(refused.value).endswith("exceeds the bound 1000; use more pilots")


def test_noise_free_run_recovers_exactly():
    records = run_monte_carlo(small_config())
    assert len(records) == 1
    rec = records[0]
    assert rec.trials_failed == 0
    assert rec.mse <= 1e-12
    assert rec.support_rate == 1.0


def test_run_is_deterministic_byte_for_byte():
    cfg = small_config(trials=10, snr_db=(15.0, 25.0))
    csv1 = records_to_csv_str(run_monte_carlo(cfg))
    csv2 = records_to_csv_str(run_monte_carlo(cfg))
    assert csv1 == csv2
    assert csv1.splitlines()[0].startswith("config_hash,n,l_taps")


def test_mse_monotone_in_snr():
    cfg = small_config(trials=30, snr_db=(0.0, 10.0, 20.0, 30.0), pilot_amplitude=2.0)
    records = run_monte_carlo(cfg)
    for lo, hi in zip(records, records[1:]):
        assert hi.mse <= lo.mse + 2 * (lo.mse_stderr + hi.mse_stderr)


def test_doubling_trials_shrinks_standard_error():
    cfg_a = small_config(trials=40, snr_db=(10.0,))
    cfg_b = small_config(trials=160, snr_db=(10.0,), master_seed=43)
    se_a = run_monte_carlo(cfg_a)[0].mse_stderr
    se_b = run_monte_carlo(cfg_b)[0].mse_stderr
    # quadrupling the trial count roughly halves the standard error
    assert se_b < se_a
    assert se_b == pytest.approx(se_a / 2, rel=0.75)


def test_receiver_equivalence_noise_free():
    shared = dict(
        overlap_mode="reduced",
        trials=15,
        snr_db=(1000.0,),
        n_pilots=(6,),
    )
    full = run_monte_carlo(small_config(receiver="fullrate", **shared))[0]
    sub = run_monte_carlo(small_config(receiver="subnyquist", **shared))[0]
    assert abs(full.mse - sub.mse) <= 1e-8
    assert full.support_rate == sub.support_rate
    assert sub.f_s_hz < full.f_s_hz  # compressed sampling reported


def test_htp_solver_path():
    rec = run_monte_carlo(small_config(solver="htp", trials=10))[0]
    assert rec.mse <= 1e-10


def test_json_report_is_strict_json_with_non_finite_floats(tmp_path):
    # an all-failed cell has a NaN MSE; JSON has no token for it, so it is
    # written as the CSV spells it and read back to the same CSV bytes, while
    # an integral rate (a config's "bandwidth_hz": 30000000) stays integral
    record = run_monte_carlo(small_config(trials=2))[0]
    records = [
        dataclasses.replace(record, mse=math.nan, mse_stderr=0.0, support_rate=0.0,
                            mean_iterations=0.0, trials_ok=0, trials_failed=2),
        dataclasses.replace(record, mse=math.inf, mse_stderr=-math.inf, snr_db=20.0,
                            f_s_hz=30000000),
    ]
    path = emit_report(records, "json", tmp_path / "out.json")
    text = Path(path).read_text()

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    docs = json.loads(text, parse_constant=refuse)
    assert [(d["mse"], d["mse_stderr"]) for d in docs] == [("nan", 0.0), ("inf", "-inf")]
    loaded = load_records_json(path)
    assert records_to_csv_str(loaded) == records_to_csv_str(records)
    assert math.isnan(loaded[0].mse) and loaded[1:] == records[1:]
    _, nan_row, inf_row = records_to_csv_str(loaded).splitlines()
    assert ",nan," in nan_row and ",inf," in inf_row and ",30000000," in inf_row


def test_emit_csv_json_roundtrip(tmp_path):
    records = run_monte_carlo(small_config(trials=5))
    csv_path = emit_report(records, "csv", tmp_path / "out.csv")
    with open(csv_path) as fh:
        text = fh.read()
    assert text.count("\n") == len(records) + 1
    json_path = emit_report(records, "json", tmp_path / "out.json")
    assert load_records_json(json_path) == records
    for fmt in ("xml", "plotdata"):
        with pytest.raises(ValueError, match=f"format must be csv or json, got '{fmt}'"):
            emit_report(records, fmt, tmp_path / f"out.{fmt}")
    with pytest.raises(ValueError, match="no records"):
        emit_report([], "csv", tmp_path / "empty.csv")


def test_doppler_tables_warmed_once_per_sweep(monkeypatch):
    # the sweep warms all 2 q_max + 1 = 65 tables, and no trial evicts one
    monkeypatch.setenv("AFDM_SENSE_THREADS", "1")
    cfg = ExperimentConfig(
        n=1024, l_taps=4, q_max=32, model="type2", p_delay=0.5, p_doppler=0.5,
        trials=20, n_pilots=(8,), snr_db=(20.0,),
    )
    doppler_phase.cache_clear()
    assert run_monte_carlo(cfg)[0].trials_ok == 20
    assert doppler_phase.cache_info().misses == 65


@pytest.mark.parametrize(
    "overrides, planned",
    [(dict(receiver="subnyquist", overlap_mode="reduced"), [6, 7]), ({}, [])],
    ids=["subnyquist", "fullrate"],
)
def test_sweep_builds_one_plan_per_dechirp_pilot_count(monkeypatch, overrides, planned):
    # the sweep builds each pilot count's plan from its operator before the
    # trials, which only read it; counted through the module attribute, which
    # is also what a wrapper installed after import replaces
    monkeypatch.setenv("AFDM_SENSE_THREADS", "1")
    cfg = small_config(trials=7, n_pilots=(6, 7), snr_db=(10.0, 20.0), **overrides)
    reference = records_to_csv_str(run_monte_carlo(cfg))
    original, ops = subnyquist.decimation_plan, []

    def counting(op):
        ops.append(op)
        return original(op)

    monkeypatch.setattr(subnyquist, "decimation_plan", counting)
    records = run_monte_carlo(cfg)
    assert [len(op.scheme.positions) for op in ops] == planned
    assert records_to_csv_str(records) == reference


def test_sweep_builds_one_pilot_frame_per_pilot_count(monkeypatch):
    # the operator comes from the closed-form relation, so the frame the
    # trials transmit is the only one a cell builds; one counter sees the
    # builds of both modules
    monkeypatch.setenv("AFDM_SENSE_THREADS", "1")
    cfg = small_config(trials=3, n_pilots=(4, 6), snr_db=(10.0, 20.0))
    original, frames = sensing_model.build_pilot_frame, []

    def counting(scheme, *args, **kwargs):
        frames.append(len(scheme.positions))
        return original(scheme, *args, **kwargs)

    monkeypatch.setattr(sensing_model, "build_pilot_frame", counting)
    monkeypatch.setattr(harness, "build_pilot_frame", counting)
    assert [r.trials_ok for r in run_monte_carlo(cfg)] == [3] * 4
    assert frames == [4, 6]


def test_dechirp_trials_run_on_the_plans_fold(monkeypatch):
    # the trials' pursuit reads the plan's folded operator, and the sweep
    # judges that operator's certificate; counted here, on one worker
    monkeypatch.setenv("AFDM_SENSE_THREADS", "1")
    cfg = small_config(trials=3, n_pilots=(6,), receiver="subnyquist", overlap_mode="reduced")
    original_plan, original_recover = subnyquist.decimation_plan, harness.hihtp_recover
    plans, ops = [], []

    def planning(op):
        plans.append(original_plan(op))
        return plans[-1]

    def recovering(op, *args, **kwargs):
        ops.append(op)
        return original_recover(op, *args, **kwargs)

    monkeypatch.setattr(subnyquist, "decimation_plan", planning)
    monkeypatch.setattr(harness, "hihtp_recover", recovering)
    assert run_monte_carlo(cfg)[0].trials_ok == 3
    assert len(plans) == 1 and len(ops) == 3 and all(op is plans[0].op for op in ops)
    # a plan whose operator takes no certified refit: the cell is refused,
    # although its full-rate operator is certified
    assert plans[0].op.columns.refit == "solve"
    three = PilotScheme.uniform(cfg.params, 3, cfg.l_taps, cfg.q_max, overlap_mode="reduced")
    uncertified = build_measurement_operator(three, cfg.params, cfg.l_taps, cfg.q_max)
    assert uncertified.columns.refit == "svd"
    monkeypatch.setattr(
        subnyquist, "decimation_plan", lambda op: original_plan(op)._replace(op=uncertified)
    )
    with pytest.raises(ValueError, match=r"^n_pilots=6 gives an operator whose conditioning "
                       r"certificate .* exceeds the bound .*; use more pilots$"):
        run_monte_carlo(cfg)


def harness_log(caplog):
    return [(r.levelname, r.getMessage(), r.exc_info) for r in caplog.records
            if r.name == "afdm_sense.harness"]


def test_failed_trials_counted_not_fatal(monkeypatch, caplog):
    # the call counter lives in one process, so the trials run serially
    monkeypatch.setenv("AFDM_SENSE_THREADS", "1")
    original = harness._run_trial
    calls = {"k": 0}

    def flaky(*args, **kwargs):
        calls["k"] += 1
        if calls["k"] == 3:
            raise RuntimeError("synthetic failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "_run_trial", flaky)
    rec = run_monte_carlo(small_config(trials=6))[0]
    assert rec.trials_failed == 1
    assert rec.trials_ok == 5
    # the failure is logged once, with the exception that ended the trial
    [(level, message, exc_info)] = harness_log(caplog)
    assert (level, message) == ("ERROR", "trial 2 failed (n_pilots=4, snr=1000.0)")
    assert exc_info[0] is RuntimeError and str(exc_info[1]) == "synthetic failure"


def test_failed_trials_in_workers_are_counted(monkeypatch):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setenv("AFDM_SENSE_THREADS", "2")
    parent, original = os.getpid(), harness._run_trial

    def fails_in_workers(*args):
        if os.getpid() != parent:
            raise RuntimeError("synthetic failure")
        return original(*args)

    monkeypatch.setattr(harness, "_run_trial", fails_in_workers)
    records = run_monte_carlo(small_config(trials=6, snr_db=(20.0, 30.0)))
    assert [(r.trials_ok, r.trials_failed) for r in records] == [(0, 6), (0, 6)]
    assert all(np.isnan(r.mse) for r in records)


def test_worker_ending_mid_chunk_is_raised_and_reaped(monkeypatch):
    # a worker that dies before it writes its chunk's outcomes ends the sweep,
    # and the pool reaps every worker on the way out
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setenv("AFDM_SENSE_THREADS", "2")
    parent, original = os.getpid(), harness._run_trial

    def dies_in_workers(*args):
        if os.getpid() != parent:
            os._exit(3)
        return original(*args)

    monkeypatch.setattr(harness, "_run_trial", dies_in_workers)
    with pytest.raises(RuntimeError, match=r"trial worker \d+ ended mid-chunk"):
        run_monte_carlo(small_config(trials=6))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def trial_key(rng):
    """(n_pilots, SNR key, trial index) of a trial's generator."""
    return tuple(int(v) for v in rng.bit_generator.seed_seq.entropy[1:])


def trial_by_trial(monkeypatch, cfg):
    """Outcomes by trial key and CSV of a sweep whose trials each run to
    completion as they are created, one trial at a time, in this process."""
    monkeypatch.setenv("AFDM_SENSE_THREADS", "1")
    original, outcomes = harness._run_trial, {}

    def finished(outcome):
        return outcome
        yield  # a generator with no stage left

    def one_at_a_time(*args):
        stages = original(*args)
        while True:
            try:
                next(stages)
            except StopIteration as done:
                outcomes[trial_key(args[-1])] = done.value
                return finished(done.value)

    monkeypatch.setattr(harness, "_run_trial", one_at_a_time)
    records = run_monte_carlo(cfg)
    monkeypatch.setattr(harness, "_run_trial", original)
    return outcomes, records_to_csv_str(records)


def aggregate_fields(records):
    return [(r.mse, r.mse_stderr, r.support_rate, r.mean_iterations, r.trials_ok, r.trials_failed)
            for r in records]


def expected_fields(cfg, outcomes, failed=()):
    """Record fields a sweep gives from these per-trial outcomes, trials ``failed`` left out."""
    fields = []
    for n_p in cfg.n_pilots:
        for snr_db in cfg.snr_db:
            snr_key = int(round(snr_db * 1000)) + (1 << 20)
            good = [outcomes[(n_p, snr_key, t)] for t in range(cfg.trials) if t not in failed]
            errs = np.array([o[0] for o in good])
            fields.append((
                float(errs.mean()), float(errs.std(ddof=1) / np.sqrt(len(errs))),
                float(np.mean([o[1] for o in good])), float(np.mean([o[2] for o in good])),
                len(good), cfg.trials - len(good),
            ))
    return fields


STAGE_CONFIGS = {
    "fullrate": dict(trials=40, snr_db=(10.0, 20.0), n_pilots=(4, 5)),
    "subnyquist": dict(
        trials=40, receiver="subnyquist", overlap_mode="reduced", n_pilots=(6,), snr_db=(10.0,)
    ),
    "htp": dict(trials=40, solver="htp", snr_db=(15.0,)),
}


@pytest.mark.parametrize("overrides", STAGE_CONFIGS.values(), ids=STAGE_CONFIGS.keys())
def test_stage_major_chunks_match_trial_by_trial(monkeypatch, overrides):
    cfg = small_config(**overrides)
    reference, reference_csv = trial_by_trial(monkeypatch, cfg)
    original, outcomes, events = harness._run_trial, {}, []

    def staged(key, stages):
        for stage in (1, 2):
            next(stages)
            events.append((stage, key[2]))
            yield
        outcomes[key] = yield from stages
        return outcomes[key]

    def recording(*args):
        key = trial_key(args[-1])
        events.append((0, key[2]))  # created
        return staged(key, original(*args))

    monkeypatch.setattr(harness, "_run_trial", recording)
    records = run_monte_carlo(cfg)  # one worker: the chunks run in this process
    assert outcomes == reference
    assert records_to_csv_str(records) == reference_csv
    assert aggregate_fields(records) == expected_fields(cfg, reference)
    # the first chunk holds the first 32 trials: all are created, then all
    # take their first stage, then all their second
    chunk = harness._CHUNK_MAX
    assert events[: 3 * chunk] == [(stage, t) for stage in (0, 1, 2) for t in range(chunk)]
    # and with two workers, whose chunks hold ten trials and fewer
    monkeypatch.setattr(harness, "_run_trial", original)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.delenv("AFDM_SENSE_THREADS")
    records = run_monte_carlo(cfg)
    assert records_to_csv_str(records) == reference_csv
    assert aggregate_fields(records) == expected_fields(cfg, reference)


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("failing_stage", [2, 3])
def test_trial_failing_in_a_later_stage_is_one_failure(monkeypatch, failing_stage, workers):
    cfg = small_config(**STAGE_CONFIGS["fullrate"])
    reference, _ = trial_by_trial(monkeypatch, cfg)
    victims = {1, 12, 39}  # inside chunks of several trials, and the last trial
    original = harness._run_trial

    def breaking(*args):
        trial = trial_key(args[-1])[2]
        stages = original(*args)
        for stage in (1, 2, 3):
            if trial in victims and stage == failing_stage:
                raise RuntimeError("synthetic failure")
            try:
                next(stages)
            except StopIteration as done:
                return done.value
            yield

    monkeypatch.setattr(harness, "_run_trial", breaking)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setenv("AFDM_SENSE_THREADS", workers)
    records = run_monte_carlo(cfg)
    assert [(r.trials_ok, r.trials_failed) for r in records] == [(37, 3)] * 4
    assert aggregate_fields(records) == expected_fields(cfg, reference, victims)


def sweep_trial_pids(monkeypatch):
    """Process ids that a small sweep with two workers allowed ran trials in."""
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.delenv("AFDM_SENSE_THREADS", raising=False)
    original, pids = harness._run_trial, set()

    def recording(*args):
        pids.add(os.getpid())  # a worker adds to its own copy of the set
        return original(*args)

    monkeypatch.setattr(harness, "_run_trial", recording)
    assert run_monte_carlo(small_config(trials=4))[0].trials_ok == 4
    return pids


def test_sweep_without_fork_runs_in_process(monkeypatch):
    monkeypatch.delattr(harness.os, "fork")
    assert sweep_trial_pids(monkeypatch) == {os.getpid()}


def test_sweep_runs_in_process_when_fork_fails(monkeypatch, caplog):
    def refuse():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(harness.os, "fork", refuse)
    assert sweep_trial_pids(monkeypatch) == {os.getpid()}
    assert harness_log(caplog) == [(
        "WARNING",
        "cannot fork trial workers ([Errno 11] Resource temporarily unavailable); "
        "running trials in this process",
        None,
    )]


def test_sweep_runs_in_process_beside_other_threads(monkeypatch):
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        assert sweep_trial_pids(monkeypatch) == {os.getpid()}
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()


def test_sweep_runs_in_process_while_a_public_function_is_wrapped(monkeypatch):
    # unwrapped, every trial runs in a worker and adds its pid to a copy
    assert sweep_trial_pids(monkeypatch) == set()
    calls, real = [], harness.hihtp_recover

    def counted(*args, **kwargs):
        calls.append(os.getpid())
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "hihtp_recover", counted)
    assert sweep_trial_pids(monkeypatch) == {os.getpid()}
    assert calls == [os.getpid()] * 4


def test_sweep_never_builds_dense_operator(monkeypatch):
    # trials in worker processes would build a dense view only in their copies
    monkeypatch.setenv("AFDM_SENSE_THREADS", "1")
    built, real_build = [], harness.build_measurement_operator

    def build(*args):
        built.append(real_build(*args))
        return built[-1]

    monkeypatch.setattr(harness, "build_measurement_operator", build)
    for solver in ("hihtp", "htp"):
        rec = run_monte_carlo(small_config(trials=3, solver=solver))[0]
        assert rec.trials_ok == 3
    assert len(built) == 2 and not any("matrix" in vars(op) for op in built)


def test_thread_env_override_matches_serial(monkeypatch):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 4)
    configs = {
        "fullrate": small_config(trials=13, snr_db=(15.0, 25.0), n_pilots=(4, 5)),
        "subnyquist": small_config(
            trials=13, receiver="subnyquist", overlap_mode="reduced", n_pilots=(6,),
            snr_db=(10.0, 20.0),
        ),
        "htp": small_config(trials=13, solver="htp", snr_db=(20.0,)),
    }
    for name, cfg in configs.items():
        csv = {}
        for workers in ("1", "2", "4"):
            monkeypatch.setenv("AFDM_SENSE_THREADS", workers)
            csv[workers] = records_to_csv_str(run_monte_carlo(cfg))
        assert csv["2"] == csv["1"] and csv["4"] == csv["1"], name


def test_serial_sweep_forms_no_residual(monkeypatch):
    # a sweep reads no residual trace, so no trial scatters an estimate
    calls = []
    matvec = hihtp._Columns.matvec

    def counting(self, x):
        calls.append(1)
        return matvec(self, x)

    monkeypatch.setattr(hihtp._Columns, "matvec", counting)
    monkeypatch.setenv("AFDM_SENSE_THREADS", "1")
    for cfg in (
        small_config(trials=5, snr_db=(20.0,)),
        small_config(trials=5, snr_db=(20.0,), solver="htp"),
        small_config(trials=5, receiver="subnyquist", overlap_mode="reduced", n_pilots=(6,)),
    ):
        assert run_monte_carlo(cfg)[0].trials_ok == 5
    assert not calls


def test_import_and_serial_sweep_leave_unread_modules_unmapped():
    # hashlib maps OpenSSL's libcrypto, and logging is read only when a trial
    # or a fork fails; numpy.random, which a trial imports, maps OpenSSL itself
    src = Path(harness.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "import afdm_sense.cli\n"
        "from afdm_sense import ExperimentConfig, run_monte_carlo\n"
        "cfg = ExperimentConfig(n=64, l_taps=3, q_max=2, model='type2', p_delay=0.3,\n"
        "    p_doppler=0.3, trials=2, n_pilots=(6,), overlap_mode='reduced',\n"
        "    receiver='subnyquist')\n"
        "cfg.config_hash()\n"
        "print(sorted(m for m in ('_hashlib', 'logging') if m in sys.modules))\n"
        "assert run_monte_carlo(cfg)[0].trials_ok == 2\n"
        "print(sorted(m for m in ('logging', 'numpy.ma') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src), AFDM_SENSE_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    imported, swept = proc.stdout.splitlines()
    # without a builtin SHA-256 the hash takes hashlib's, and OpenSSL with it
    builtin_sha = any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256"))
    assert imported == ("[]" if builtin_sha else "['_hashlib']")
    assert swept == "[]"


@pytest.mark.parametrize(
    "overrides",
    [
        {},  # type3, the hierarchical pursuit, full rate
        dict(model="type2", p_delay=0.3, p_doppler=0.3, cluster_len=None, n_pilots=(6,),
             overlap_mode="reduced", receiver="subnyquist", include_cpp_in_duration=True),
        dict(solver="htp", htp_sparsity=5, snr_db=(10.0, 20.0)),
        dict(n=np.int64(64), p_delay=np.float64(0.5), pilot_amplitude=np.float32(2.0),
             n_pilots=np.array([4, 5])),
    ],
    ids=["type3", "subnyquist", "htp", "numpy_scalars"],
)
def test_config_hash_is_sha256_of_the_sorted_config(overrides):
    # the builtin digest is OpenSSL's: every config_hash an earlier build wrote stays
    cfg = small_config(**overrides)
    doc = json.dumps(cfg.to_dict(), sort_keys=True)
    assert cfg.config_hash() == hashlib.sha256(doc.encode()).hexdigest()[:12]


def test_cli_overhead_and_rate(capsys):
    assert (
        cli_main(
            ["overhead", "afdm", "--n-pilots", "16", "--l-taps", "30", "--q-max", "7", "--chirp-num", "1"]
        )
        == 0
    )
    assert capsys.readouterr().out.strip() == "537"
    # the floors are pilot_overhead's: zero pilots is the guard-only overhead
    assert cli_main(["overhead", "afdm", "--n-pilots", "0", "--l-taps", "30", "--q-max", "7"]) == 0
    assert capsys.readouterr().out.strip() == "57"
    assert (
        cli_main(
            [
                "rate",
                "--n-pilots", "16",
                "--l-taps", "30",
                "--n", "4096",
                "--bandwidth-hz", "30e6",
                "--cpp-len", "64",
                "--include-cpp",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "f_s_hz" in out and "compression_ratio" in out
    assert float(out.splitlines()[0].split()[1]) == pytest.approx(3.45e6, rel=0.01)


def test_module_entry_matches_in_process_main(tmp_path, monkeypatch):
    # python -m runs the sweep through entry(): same status, message and CSV
    # bytes as main() called in this process
    src = Path(harness.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(small_config(trials=4).to_dict()))
    sub_csv, main_csv = tmp_path / "sub.csv", tmp_path / "main.csv"

    def module_cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "afdm_sense.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )

    proc = module_cli("run", str(cfg_path), "--out", str(sub_csv))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"wrote 1 records to {sub_csv}\n"
    assert cli_main(["run", str(cfg_path), "--out", str(main_csv)]) == 0
    assert sub_csv.read_bytes() == main_csv.read_bytes()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**small_config().to_dict(), "trials": "100"}))
    proc = module_cli("run", str(bad), "--out", str(tmp_path / "bad.csv"))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and not proc.stdout
    assert not (tmp_path / "bad.csv").exists()
    # the entry function exits with main's status after freezing the collector
    monkeypatch.setattr(sys, "argv", ["afdm-sense", "run", str(bad)])
    try:
        with pytest.raises(SystemExit) as exit_info:
            cli.entry()
        assert exit_info.value.code == 1 and gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


def test_cli_run_writes_csv(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(small_config(trials=4).to_dict()))
    out_path = tmp_path / "results.csv"
    assert cli_main(["run", str(cfg_path), "--out", str(out_path)]) == 0
    assert out_path.exists()
    assert "config_hash" in out_path.read_text().splitlines()[0]


def test_cli_refuses_an_unknown_format(tmp_path, capsys, monkeypatch):
    # argparse exits 2 on a format outside its choices, before the sweep runs
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(small_config(trials=4).to_dict()))
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["run", str(cfg_path), "--format", "plotdata"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'plotdata'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_cli_errors_are_reported(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nonsense": True}))
    assert cli_main(["run", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err
    no_pilots = tmp_path / "no_pilots.json"
    no_pilots.write_text(json.dumps({**small_config().to_dict(), "n_pilots": [0]}))
    assert cli_main(["run", str(no_pilots)]) == 1
    assert "error:" in capsys.readouterr().err
    # a field of the wrong JSON type is refused before any comparison on it
    wrong_type = tmp_path / "wrong_type.json"
    wrong_type.write_text(json.dumps({**small_config().to_dict(), "trials": "100"}))
    assert cli_main(["run", str(wrong_type)]) == 1
    assert "'trials' must be int" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["overhead", "afdm", "--n-pilots", "-3", "--l-taps", "30", "--q-max", "7"],
        ["overhead", "afdm", "--n-pilots", "16", "--l-taps", "0", "--q-max", "7"],
        ["overhead", "afdm", "--n-pilots", "16", "--l-taps", "30", "--q-max", "-1"],
        ["overhead", "afdm", "--n-pilots", "16", "--l-taps", "30", "--q-max", "7", "--chirp-num", "0"],
        ["overhead", "otfs", "--n-otfs", "0", "--m-otfs", "256", "--l-taps", "30", "--q-max", "7"],
        ["rate", "--n-pilots", "16", "--l-taps", "30", "--n", "4096", "--bandwidth-hz", "nan"],
        ["rate", "--n-pilots", "16", "--l-taps", "30", "--n", "4096", "--bandwidth-hz", "inf"],
        ["rate", "--n-pilots", "0", "--l-taps", "30", "--n", "4096", "--bandwidth-hz", "30e6"],
        ["rate", "--n-pilots", "16", "--l-taps", "30", "--chirp-num", "0", "--n", "4096",
         "--bandwidth-hz", "30e6"],
        # a chirp numerator beyond [1, 2n), and a train longer than the frame
        ["rate", "--n-pilots", "16", "--l-taps", "30", "--chirp-num", "10000", "--n", "4096",
         "--bandwidth-hz", "30e6"],
        ["rate", "--n-pilots", "5000", "--l-taps", "30", "--n", "4096", "--bandwidth-hz", "30e6"],
        # a frame that AfdmParams refuses, and a bandwidth whose sample period overflows
        ["rate", "--n-pilots", "16", "--l-taps", "30", "--n", "4095", "--bandwidth-hz", "30e6"],
        ["rate", "--n-pilots", "16", "--l-taps", "30", "--n", "4096", "--bandwidth-hz", "30e6",
         "--cpp-len", "5000"],
        ["rate", "--n-pilots", "16", "--l-taps", "30", "--n", "4096", "--bandwidth-hz", "1e-320"],
        # a sample count that converts to no float: a 401-digit frame, and a
        # 401-digit prefix that counts
        ["rate", "--n-pilots", "16", "--l-taps", "30", "--n", "1" + "0" * 400,
         "--bandwidth-hz", "30e6"],
        ["rate", "--n-pilots", "16", "--l-taps", "30", "--n", "4096", "--bandwidth-hz", "30e6",
         "--cpp-len", "1" + "0" * 400, "--include-cpp"],
        # a dict overrides the small config; one pilot gives fewer observations than the support
        ["run", {"n_pilots": [4, 1]}],
        ["run", {"solver": "htp", "htp_sparsity": 1000}],
        # the default solver does not read htp_sparsity, nor this one margin
        ["run", {"htp_sparsity": 5}],
        ["run", {"solver": "htp", "htp_sparsity": 4, "margin": 1.5}],
        # a 401-digit JSON integer converts to no float
        ["run", {"c2": 10**400}],
        ["run", {"master_seed": -1}],
        # 16 spread pilots are closer than their windows are wide
        ["run", {"n_pilots": [16]}],
        # json writes and reads these as Infinity and NaN
        ["run", {"margin": float("inf")}],
        ["run", {"margin": float("nan")}],
        ["run", {"snr_db": [-4000.0]}],
        ["run", {"snr_db": [20.0, 20.0004]}],
        # every trial's channel would refuse a prefix shorter than l_taps - 1 = 2
        ["run", {"cpp_len": 0}],
        ["run", {"overlap_mode": "foo"}],
        ["run", {"receiver": "subnyquist", "contiguous": True}],
        ["run", {"overlap_mode": "reduced", "contiguous": True}],
        # three pilots of a reduced train give components wider than their rows
        ["run", {"overlap_mode": "reduced", "n_pilots": [3]}],
        ["run", {"model": "type4"}],
        ["run", {"l_taps": 0}],
        ["run", {"q_max": -1}],
        # 2^63 overflowed the chirp table's int64 product
        ["run", {"chirp_num": 2**63, "l_taps": 1}],
        # a 2^50-sample frame exceeds the address space: the allocation fails at once
        ["run", {"n": 2**50}],
        # column energies 4 A^2 whose square leaves the normal floats: the build's
        # norm, the pair test or the refit overflowed, or every estimate was zero
        ["run", {"pilot_amplitude": 1e160}],
        ["run", {"pilot_amplitude": 1e150}],
        ["run", {"pilot_amplitude": 1e-150}],
        ["run", {"pilot_amplitude": 1e-160}],
        ["run", {"pilot_amplitude": 1e-300}],
        # a frame that lasts an infinite time, whose rows' de-chirped rate would be 0
        ["run", {"bandwidth_hz": 1e-320}],
        ["overhead", "ofdm", "--n-pilots-td", "4", "--n-pilots-fd", "8", "--n-symbols", "16",
         "--l-taps", "30", "--q-max", "-5"],
        ["overhead", "ofdm", "--n-pilots-td", "4", "--n-pilots-fd", "8", "--n-symbols", "16",
         "--l-taps", "30", "--chirp-num", "0"],
        ["overhead", "otfs", "--n-otfs", "16", "--m-otfs", "256", "--l-taps", "30", "--q-max", "7",
         "--n-pilots", "-3"],
    ],
    ids=["pilots", "taps", "q-max", "chirp-num", "otfs-grid", "nan-bandwidth", "inf-bandwidth",
         "rate-pilots", "rate-chirp-num", "rate-huge-chirp", "rate-long-train", "rate-odd-frame",
         "rate-long-prefix", "rate-tiny-bandwidth", "rate-huge-frame", "rate-huge-prefix",
         "run-one-pilot", "run-htp-sparsity",
         "run-unread-htp-sparsity", "run-unread-margin", "run-huge-c2", "run-negative-seed",
         "run-spread-pilots", "run-inf-margin",
         "run-nan-margin", "run-snr-overflow", "run-snr-trial-key", "run-short-prefix",
         "run-unknown-overlap-mode", "run-disjoint-subnyquist", "run-reduced-contiguous",
         "run-uncertified", "run-unknown-model", "run-zero-taps", "run-negative-q-max",
         "run-huge-chirp", "run-huge-frame", "run-amplitude-1e160", "run-amplitude-1e150",
         "run-amplitude-1e-150", "run-amplitude-1e-160", "run-amplitude-1e-300",
         "run-tiny-bandwidth",
         "ofdm-q-max", "ofdm-chirp-num", "otfs-pilots"],
)
def test_cli_rejects_out_of_range_inputs(argv, capsys, tmp_path):
    if argv[0] == "run":
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**small_config().to_dict(), **argv[1]}))
        argv = ["run", str(cfg_path), "--out", str(tmp_path / "out.csv")]
    assert cli_main(argv) == 1
    assert not (tmp_path / "out.csv").exists()
    captured = capsys.readouterr()
    # one error line, never a traceback
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert not captured.out


def test_pilot_amplitude_bounded_by_column_energy(monkeypatch):
    # every column of the n_p = 6 operator has the energy 6 A^2, whose square
    # must be a normal float; at both edges a noise-free sweep gives the unit
    # amplitude's support rate and MSE without a warning, and one step past
    # either edge is refused
    monkeypatch.setenv("AFDM_SENSE_THREADS", "1")
    top = math.sqrt(math.sqrt(sys.float_info.max) / 6)
    bottom = math.sqrt(math.sqrt(sys.float_info.min) / 6)
    over = dict(model="type2", p_delay=0.3, p_doppler=0.3, cluster_len=None, n_pilots=6)
    unit = run_monte_carlo(small_config(trials=10, snr_db=4000.0, **over))[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for amplitude in (top * (1 - 1e-12), bottom * (1 + 1e-12)):
            cfg = small_config(pilot_amplitude=amplitude, trials=10, snr_db=4000.0, **over)
            rec = run_monte_carlo(cfg)[0]
            assert rec.trials_ok == 10 and rec.support_rate == unit.support_rate
            assert rec.mse == pytest.approx(unit.mse, rel=1e-9)
        for amplitude in (top * (1 + 1e-12), bottom * (1 - 1e-12)):
            with pytest.raises(ValueError, match=r"^pilot_amplitude .* n_pilots=6 .*normal float$"):
                small_config(pilot_amplitude=amplitude, **over)


def test_cli_names_missing_fields(capsys, tmp_path):
    doc = small_config().to_dict()
    del doc["model"]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "out.csv")]) == 1
    assert not (tmp_path / "out.csv").exists()
    assert capsys.readouterr().err == "error: missing config fields: ['model']\n"


def test_support_rate_counts_true_set_size():
    # truth has ~s_d s_D actives; the metric compares against the top-|truth|
    cfg = small_config(trials=25, snr_db=(40.0,), pilot_amplitude=4.0)
    rec = run_monte_carlo(cfg)[0]
    assert 0.0 <= rec.support_rate <= 1.0
    assert rec.support_rate > 0.8


def test_support_match_is_not_decided_by_round_off():
    truth = np.array([1.0, 0.0, 0.0, 2.0j])
    # a true entry tied with a false one at the boundary is a miss, even
    # when index order would rank the true one first
    assert not harness._support_matches(np.array([0.5, 0.5, 0.1, 1.0]), truth)
    assert harness._support_matches(np.array([0.5, 0.2, 0.1, 1.0]), truth)
    assert harness._support_matches(np.array([0.3, 0.0, 1.0, 0.0]), np.zeros(4))
    # one ulp on either side of the tie does not change the outcome
    for nudged in (np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0)):
        assert not harness._support_matches(np.array([nudged, 0.5, 0.1, 1.0]), truth)
        assert not harness._support_matches(np.array([0.5, nudged, 0.1, 1.0]), truth)


@pytest.mark.parametrize("raw, workers", [(None, 4), ("", 4), ("1", 1), ("3", 3), ("64", 4)])
def test_thread_count_default_and_cap(monkeypatch, raw, workers):
    # the usable CPUs are those of the affinity mask, not the machine's
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
    if raw is None:
        monkeypatch.delenv("AFDM_SENSE_THREADS", raising=False)
    else:
        monkeypatch.setenv("AFDM_SENSE_THREADS", raw)
    assert harness._worker_count() == workers


def test_worker_count_without_affinity_call(monkeypatch):
    monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    monkeypatch.delenv("AFDM_SENSE_THREADS", raising=False)
    assert harness._worker_count() == 3
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    assert harness._worker_count() == 1


@pytest.mark.parametrize("raw", ["abc", "1.5", "0", "-2"])
def test_thread_count_rejects_bad_values(monkeypatch, raw):
    monkeypatch.setenv("AFDM_SENSE_THREADS", raw)
    with pytest.raises(ValueError, match="AFDM_SENSE_THREADS"):
        harness._worker_count()

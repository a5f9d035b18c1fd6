import importlib
import types

import afdm_sense

MODULES = ("daft_core", "channel", "sensing_model", "hihtp", "subnyquist", "harness")


def test_every_exported_name_resolves():
    for name in MODULES:
        module = importlib.import_module(f"afdm_sense.{name}")
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert not missing, f"afdm_sense.{name}.__all__ names {missing}"
        assert len(set(module.__all__)) == len(module.__all__)


def test_package_reexports_exactly_the_module_exports():
    union = set()
    for name in MODULES:
        module = importlib.import_module(f"afdm_sense.{name}")
        union |= set(module.__all__)
        for attr in module.__all__:
            assert getattr(afdm_sense, attr, None) is getattr(module, attr)
    public = {
        attr
        for attr, value in vars(afdm_sense).items()
        if not attr.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == union


# the package's public names; a new public name is added here on purpose
PUBLIC_API = [
    "AfdmParams", "DecimationPlan", "DelayDopplerProfile", "ExperimentConfig",
    "MeasurementOperator", "NoiseConfig", "PilotScheme", "RadarConfig", "RateInfo",
    "RecoveryResult", "ResultRecord", "SparsityConfig", "SupportSet", "apply_channel",
    "build_measurement_operator", "build_pilot_frame", "chernoff_tail_bound", "cpp_extend",
    "daft_demodulate", "data_slots", "dechirp_decimate_receive",
    "decimation_plan", "doppler_phase", "emit_report", "empirical_sparsity_stats",
    "extract_measurements", "flat_threshold", "hierarchical_threshold", "hihtp_recover",
    "htp_recover", "idaft_modulate", "load_records_json", "observation_index_set",
    "pilot_overhead", "records_to_csv_str", "restricted_least_squares", "run_monte_carlo",
    "sample_profile", "sampling_rate", "select_chirp_rate", "vectorize_profile",
    "window_offsets",
]


def test_public_surface_is_the_listed_names():
    union = set()
    for name in MODULES:
        union |= set(importlib.import_module(f"afdm_sense.{name}").__all__)
    assert sorted(union) == PUBLIC_API

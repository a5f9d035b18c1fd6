"""AFDM chirp-waveform compressed sensing of doubly sparse channels."""

from .daft_core import (
    AfdmParams,
    cpp_extend,
    cpp_strip,
    daft_demodulate,
    daft_domain_shift,
    idaft_modulate,
    select_chirp_rate,
)
from .channel import (
    DelayDopplerProfile,
    NoiseConfig,
    SparsityConfig,
    apply_channel,
    chernoff_tail_bound,
    devectorize_profile,
    doppler_phase,
    empirical_sparsity_stats,
    profile_from_json,
    profile_to_json,
    sample_profile,
    vectorize_profile,
)
from .sensing_model import (
    MeasurementOperator,
    PilotScheme,
    build_measurement_operator,
    build_pilot_frame,
    data_slots,
    export_operator,
    extract_measurements,
    load_operator,
    observation_index_set,
    window_offsets,
)
from .hihtp import (
    RecoveryResult,
    SupportSet,
    flat_threshold,
    hierarchical_threshold,
    hihtp_recover,
    htp_recover,
    restricted_least_squares,
)
from .subnyquist import (
    DecimationPlan,
    RadarConfig,
    RateInfo,
    dechirp_decimate_receive,
    decimation_plan,
    sampling_rate,
)
from .harness import (
    ExperimentConfig,
    ResultRecord,
    emit_report,
    load_records_json,
    pilot_overhead,
    records_to_csv_str,
    run_monte_carlo,
)

__version__ = "0.1.0"

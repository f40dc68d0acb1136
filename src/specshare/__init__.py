"""Spectrum-sharing co-design between a matrix-completion MIMO radar and a
MIMO communication system: interference metrics, covariance design,
sampling-mask optimization, matrix-completion recovery and an experiment
harness."""

from .config import ScenarioConfig, Scheme, SpecshareError, load_config, save_config
from .covdesign import DesignSolution, InfeasibleError, solve_weighted_eip
from .interference import (
    average_capacity,
    fmfb_weights,
    interference_diag_matrix,
    noise_covariances,
    scheme_weights,
    tip_weights,
    weighted_eip,
)
from .completion import CompletionParams, RecoveryReport, complete, radar_pipeline, relative_error
from .harness import ExperimentSpec, ResultRow, run_compare, sweep, write_csv
from .samplingopt import JointDesignResult, hungarian, joint_design, optimize_mask, spectral_gap
from .scenario import (
    Scenario,
    generate_channels,
    generate_phase_offsets,
    generate_sampling_mask,
    generate_target_response,
    generate_waveforms,
    make_scenario,
    synthesize_radar_rx,
)
from .streams import stream

__version__ = "0.1.0"

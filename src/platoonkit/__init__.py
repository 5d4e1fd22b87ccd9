"""Simulation and analysis toolkit for ACC/CACC vehicle strings under lossy V2V links."""

__version__ = "0.1.0"

from .channel import GilbertParams, channel_step, gamma_analytic, iid_channel
from .control import ControllerConfig, acc_control, cacc_control, min_headway, saturate
from .dynamics import (
    LeaderProfile,
    LeaderSegment,
    VehicleParams,
    VehicleState,
    leader_input,
    spacing_error,
    step_vehicle,
)
from .montecarlo import (
    ChannelSpec,
    DecelDistribution,
    RealizationResult,
    SafetyStats,
    ScenarioConfig,
    detect_collisions,
    run_realization,
    run_safety_study,
    validate_mean_trajectory,
)
from .scenario import RunManifest, load_scenario, parse_scenario
from .stability import (
    BoundReport,
    ErrorSystem,
    TransferFunction,
    build_error_system,
    cacc_error_tf,
    freq_response_mag,
    hinf_norm,
    impulse_l1,
    is_string_stable,
    l2_norm_signal,
    lyapunov_solve,
    uniform_error_bound,
)

__all__ = [
    "__version__",
    "GilbertParams", "channel_step", "gamma_analytic", "iid_channel",
    "ControllerConfig", "acc_control", "cacc_control", "min_headway", "saturate",
    "LeaderProfile", "LeaderSegment", "VehicleParams", "VehicleState",
    "leader_input", "spacing_error", "step_vehicle",
    "ChannelSpec", "DecelDistribution", "RealizationResult", "SafetyStats",
    "ScenarioConfig", "detect_collisions", "run_realization",
    "run_safety_study", "validate_mean_trajectory",
    "load_scenario", "parse_scenario", "RunManifest",
    "BoundReport", "ErrorSystem", "TransferFunction", "build_error_system",
    "cacc_error_tf", "freq_response_mag", "hinf_norm", "impulse_l1",
    "is_string_stable", "l2_norm_signal", "lyapunov_solve", "uniform_error_bound",
]

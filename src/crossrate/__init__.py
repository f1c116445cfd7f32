"""Collision probability rates and bounds at a host-vehicle boundary.

The package computes the entry intensity of a stochastically predicted
target state across the host rectangle, integrates it to
collision-probability upper bounds, and ships a seeded Monte-Carlo
simulator as built-in ground truth.
"""
from .errors import (
    ConfigError,
    ConvergenceError,
    CrossrateError,
    DomainError,
    NumericsError,
)
from .gaussian import GaussianDensity, condition, marginalize, normal_cdf, normal_pdf
from .dynamics import (
    MotionModel,
    RadarNoise,
    SalientOffset,
    StateVector,
    measurement_function,
    measurement_jacobian,
    predict_density,
    predict_mean,
    process_noise_cov,
    salient_transform_density,
    salient_transform_state,
    steady_state_covariance,
    transition_matrix,
)
from .geometry import (
    BoundarySegment,
    ChordCrossing,
    CrossingEvent,
    HostRectangle,
    chord_crossings,
    detect_crossings,
    segments,
    to_segment_frame,
)
from .intensity import (
    RateSample,
    segment_intensity,
    segment_intensity_quadrature,
    segment_intensity_taylor0,
    segment_intensity_taylor1_cov,
    segment_intensity_taylor1_inv,
    total_intensity,
)
from .probability import (
    ProbabilityBound,
    RateCurve,
    adaptive_sample,
    deterministic_ttc_seeds,
    integrate_intensity,
    spatial_overlap_probability,
)
from .montecarlo import (
    CampaignResult,
    CollisionRecord,
    RateHistogram,
    run_campaign,
    sample_initial,
    simulate_trajectory,
    ttc_monte_carlo,
)
from .scenarios import ScenarioConfig, build_config, load_config, preset_config

__version__ = "0.1.0"

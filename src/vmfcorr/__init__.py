"""Exact closed-form spatial and temporal correlation functions for wireless
channels with von Mises-Fisher distributed scatterers, with independent
quadrature and Monte-Carlo verification paths and applications to antenna
arrays and radar target fluctuation."""

from .arrays import (
    ArrayGeometry,
    StationarityReport,
    circular_array,
    correlation_matrix,
    linear_array,
    planar_grid,
    scf_along_path,
    stationarity_check,
)
from .correlation import (
    LARGE_KAPPA_THRESHOLD,
    DecorrelationNotFound,
    DopplerParams,
    MotionState,
    acf,
    decorrelation_time,
    doppler_params,
    scf,
    scf_exact_log,
    scf_isotropic,
    scf_large_kappa,
    scf_multicluster,
)
from .oracles import (
    MultipathEnsemble,
    QuadratureSpec,
    QuadratureToleranceError,
    build_ensemble,
    scf_montecarlo,
    scf_quadrature,
    transfer_function,
)
from .radar import (
    SPEED_OF_LIGHT,
    RadarScenario,
    decorrelation_table,
    radar_acf_curve,
    scenario_to_cluster_and_motion,
)
from .vmf import (
    VmfCluster,
    angles_from_direction,
    csinc_sqrt,
    direction_from_angles,
    kappa_from_angular_width,
    mean_resultant_length,
    sample_vmf,
    vmf_pdf,
)

__version__ = "0.4.0"

__all__ = [
    "ArrayGeometry",
    "DecorrelationNotFound",
    "DopplerParams",
    "LARGE_KAPPA_THRESHOLD",
    "MotionState",
    "MultipathEnsemble",
    "QuadratureSpec",
    "QuadratureToleranceError",
    "RadarScenario",
    "SPEED_OF_LIGHT",
    "StationarityReport",
    "VmfCluster",
    "acf",
    "angles_from_direction",
    "build_ensemble",
    "circular_array",
    "correlation_matrix",
    "csinc_sqrt",
    "decorrelation_table",
    "decorrelation_time",
    "direction_from_angles",
    "doppler_params",
    "kappa_from_angular_width",
    "linear_array",
    "mean_resultant_length",
    "planar_grid",
    "radar_acf_curve",
    "sample_vmf",
    "scenario_to_cluster_and_motion",
    "scf",
    "scf_along_path",
    "scf_exact_log",
    "scf_isotropic",
    "scf_large_kappa",
    "scf_montecarlo",
    "scf_multicluster",
    "scf_quadrature",
    "stationarity_check",
    "transfer_function",
    "vmf_pdf",
]

"""demest: state and input estimation for LTI systems under colored noise.

A variational observer over generalized coordinates (stacked temporal
derivatives), classical benchmark estimators (Kalman filter, state
augmentation, SMIKF, unknown input observer), and a reproducible experiment
harness with a batch CLI.
"""

__version__ = "0.1.0"

from .benchmarks import (ArModel, KalmanResult, UioResult, fit_ar,
                         kalman_filter, smikf, sse, state_augmentation_filter,
                         uio_batch)
from .dem import (DemConfig, ObserverMatrices, ObserverRun,
                  assemble_observer, estimate_precision, free_energy,
                  free_energy_landscape, prediction_error, run_observer)
from .gencoord import (embed_series, lift_matrix, shift_matrix,
                       taylor_embedding_matrix)
from .noise import (GeneralizedPrecision, NoiseSpec, autocorrelation,
                    gaussian_fit, gaussian_kernel, generalized_precision,
                    generate_colored_noise, temporal_precision)
from .systems import (ExperimentData, LtiModel, discretize, load_flight_log,
                      normalize_inputs, quadrotor_roll_model,
                      residual_process_noise, save_flight_log, simulate)

__all__ = [
    "__version__",
    "ArModel", "KalmanResult", "UioResult", "fit_ar", "kalman_filter",
    "smikf", "sse", "state_augmentation_filter", "uio_batch",
    "DemConfig", "ObserverMatrices", "ObserverRun",
    "assemble_observer", "estimate_precision", "free_energy",
    "free_energy_landscape", "prediction_error", "run_observer",
    "embed_series", "lift_matrix", "shift_matrix", "taylor_embedding_matrix",
    "GeneralizedPrecision", "NoiseSpec", "autocorrelation", "gaussian_fit",
    "gaussian_kernel", "generalized_precision", "generate_colored_noise",
    "temporal_precision",
    "ExperimentData", "LtiModel", "discretize", "load_flight_log",
    "normalize_inputs", "quadrotor_roll_model", "residual_process_noise",
    "save_flight_log", "simulate",
]

"""Information-theoretic measurement thresholds for approximate support
recovery from phaseless (intensity-only) linear observations, plus the
Monte Carlo / quadrature machinery to check the claims behind them.

Layout: :mod:`phaselim.model` (signal and observation models),
:mod:`phaselim.densities` (conditional output laws, information density,
concentration constants), :mod:`phaselim.limits` (mutual-information rate
forms and threshold optimization), :mod:`phaselim.verify` (statistical
check suites), :mod:`phaselim.simulate` (tiny exhaustive-decoder
simulator), :mod:`phaselim.cli` (command line front end).
"""

from .densities import (ConcentrationConstants, GaussianNoise,
                        concentration_constant, concentration_rate,
                        concentration_tail_bound, conditional_output_logpdf,
                        golden_max, info_density,
                        noncentral_chi2_scaled_logpdf)
from .limits import (ThresholdInfeasibleError, ThresholdQuery,
                     ThresholdResult, c_beta_from_snr_db, figure_curves,
                     measurement_thresholds, mi_pair_lower, mi_pair_upper,
                     snr_db, tail_power_fraction, write_figure_csv)
from .model import (DiscreteFlat, DiscreteGeneral, GaussianIID, SortedSignal,
                    floor_count, observe, partition_powers,
                    sample_signal_vector, sample_support)
from .rng import parallel_map, sample_circular_gaussian, substream
from .simulate import (ErrorCurve, SimConfig, decode, error_curve,
                       isotonic_residual, pava_nonincreasing)
from .verify import (SUITE_NAMES, VerificationReport, concentration_check,
                     logconcavity_check, logconcavity_negative_control,
                     mi_estimate, run_suite, sandwich_check,
                     tail_fraction_convergence_check)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "DiscreteFlat", "DiscreteGeneral", "GaussianIID", "SortedSignal",
    "floor_count", "partition_powers",
    "sample_support", "sample_signal_vector", "observe",
    # densities
    "GaussianNoise", "ConcentrationConstants",
    "noncentral_chi2_scaled_logpdf", "conditional_output_logpdf",
    "info_density", "concentration_rate", "concentration_constant",
    "concentration_tail_bound", "golden_max",
    # limits
    "ThresholdQuery", "ThresholdResult", "ThresholdInfeasibleError",
    "tail_power_fraction", "mi_pair_lower", "mi_pair_upper",
    "measurement_thresholds", "snr_db", "c_beta_from_snr_db",
    "figure_curves", "write_figure_csv",
    # verify
    "VerificationReport", "SUITE_NAMES", "mi_estimate", "sandwich_check",
    "concentration_check", "tail_fraction_convergence_check",
    "logconcavity_check", "logconcavity_negative_control", "run_suite",
    # simulate
    "SimConfig", "ErrorCurve", "decode", "error_curve",
    "pava_nonincreasing", "isotonic_residual",
    # rng
    "substream", "sample_circular_gaussian", "parallel_map",
]

"""Site-based stochastic ground-motion simulation with an explicitly
optimized high-pass corner frequency, plus the catalog-level statistics and
regression machinery needed to study its effect on long-period spectra."""

from .catalog_io import (AccelerogramRecord, Catalog, load_catalog, parse_at2,
                         write_at2)
from .catalog_stats import (extract_simple_params, spectral_correlation,
                            spectral_quantiles, spectral_std)
from .fc_opt import FcResult, FcSearchConfig, epsilon, optimize_fc
from .gm_model import (GMParams, ModulatorCoeffs, SimBatch, apply_highpass,
                       highpass, simulate, simulate_spectral,
                       simulate_temporal, solve_modulator)
from .param_dist import (JointParamModel, MarginalModel, fit_copula,
                         fit_marginal, sample_params)
from .resp_spectrum import (ResponseSpectrum, batch_log_sa, compute_sa,
                            standard_period_grid)
from .sensitivity import (DesignMatrix, RegressionBundle, covariance_decompose,
                          covariance_percentages, fit_bundle,
                          modified_sigma_tt, ols_fit, r2_curve,
                          scenario_neglect_fc, variance_decompose,
                          weighted_coefficients)

__version__ = "0.1.0"

__all__ = [
    "AccelerogramRecord", "Catalog", "load_catalog", "parse_at2", "write_at2",
    "extract_simple_params", "spectral_correlation",
    "spectral_quantiles", "spectral_std",
    "FcResult", "FcSearchConfig", "epsilon", "optimize_fc",
    "GMParams", "ModulatorCoeffs", "SimBatch", "apply_highpass", "highpass",
    "simulate", "simulate_spectral", "simulate_temporal", "solve_modulator",
    "JointParamModel", "MarginalModel", "fit_copula", "fit_marginal",
    "sample_params",
    "ResponseSpectrum", "batch_log_sa", "compute_sa", "standard_period_grid",
    "DesignMatrix", "RegressionBundle", "covariance_decompose",
    "covariance_percentages", "fit_bundle", "modified_sigma_tt", "ols_fit",
    "r2_curve", "scenario_neglect_fc", "variance_decompose",
    "weighted_coefficients",
]

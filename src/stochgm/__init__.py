"""Site-based stochastic ground-motion simulation with an explicitly
optimized high-pass corner frequency, plus the catalog-level statistics and
regression machinery needed to study its effect on long-period spectra.

The public names load on first use (PEP 562), so importing the package or
one light submodule does not pay for scipy's signal, stats and optimize.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    # catalog_io
    "AccelerogramRecord", "Catalog", "GMParams", "load_catalog", "parse_at2",
    "write_at2",
    # catalog_stats
    "extract_simple_params", "spectral_correlation", "spectral_quantiles",
    "spectral_std",
    # fc_opt
    "FcResult", "FcSearchConfig", "epsilon", "optimize_fc",
    # gm_model
    "ModulatorCoeffs", "SimBatch", "apply_highpass", "highpass", "simulate",
    "simulate_spectral", "simulate_temporal", "solve_modulator",
    # param_dist
    "JointParamModel", "MarginalModel", "fit_copula", "fit_marginal",
    "sample_params",
    # resp_spectrum
    "ResponseSpectrum", "batch_log_sa", "compute_sa", "standard_period_grid",
    # sensitivity
    "DesignMatrix", "RegressionBundle", "covariance_decompose",
    "covariance_percentages", "fit_bundle", "modified_sigma_tt", "ols_fit",
    "r2_curve", "scenario_neglect_fc", "variance_decompose",
    "weighted_coefficients",
]

# the submodules that define __all__, in its order, each with its count
_SPANS = (("catalog_io", 6), ("catalog_stats", 4), ("fc_opt", 4),
          ("gm_model", 8), ("param_dist", 5), ("resp_spectrum", 4),
          ("sensitivity", 11))
_HOME = dict(zip(__all__, [m for m, count in _SPANS for _ in range(count)],
                 strict=True))


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))

"""Estimation of finite mixtures with nonparametric error densities.

The package covers the full workflow for two related problems on the line:

* vanilla mixtures, where samples come from a convex combination of shifted
  copies of an unknown error density (a Gaussian blurred by a compactly
  supported mixing measure), and
* mixed regression, where each response follows one of several regression
  curves plus that error, with component membership drawn at random.

``measures`` holds the shared value types (discrete measures, grid densities,
interval sets) and the metrics between them.  ``synth`` specifies ground-truth
models and samples from them.  ``kde`` provides box-kernel density estimators.
``mixfit`` recovers mixture components from a density estimate by projection
onto finite Gaussian mixtures, smoothing, and level-set partitioning.
``regfit`` turns per-covariate minimum-distance fits into regression curve
estimates.  ``spec`` parses and checks experiment files, ``cli`` runs the
command-line workflow over them and owns its dataset and artifact files,
and ``demos`` holds the ``demo-nonident`` demonstrations.
"""

from .measures import (
    DiscreteMeasure,
    GridDensity,
    GridSpec,
    IntervalSet,
    box_mixture_density,
    convolve_gaussian,
    density_mean,
    l1_distance,
    wasserstein1,
)
from .synth import (
    CovariateSpec,
    Dataset,
    MixedRegressionModel,
    MixingSpec,
    RegressionCurve,
    VanillaMixtureModel,
    sample_mixed_regression,
    sample_vanilla_mixture,
    true_conditional_density,
)
from .kde import (
    BandwidthSchedule,
    ConditionalKde,
    conditional_density_at,
    univariate_kde,
)
from .mixfit import (
    DenoiseConfig,
    MixtureFit,
    ProjectionConfig,
    ProjectionResult,
    estimate_components,
    fit_mixture_from_density,
    fit_vanilla_mixture,
    outlier_mass,
    project_to_gaussian_mixture,
    smooth,
    threshold_partition,
    voronoi_extend,
)
from .regfit import (
    MdeConfig,
    RegressionFit,
    evaluate_regression_fit,
    find_separation_point,
    fit_mixed_regression,
    mde_at_x,
)
from .errors import (
    DegenerateComponentError,
    EmptyWindowError,
    InsufficientDataError,
    PipelineError,
    ProjectionError,
    ThresholdTooHighError,
    UnderResolutionError,
)

__version__ = "0.1.0"

__all__ = [
    "BandwidthSchedule",
    "ConditionalKde",
    "CovariateSpec",
    "Dataset",
    "DegenerateComponentError",
    "DenoiseConfig",
    "DiscreteMeasure",
    "EmptyWindowError",
    "GridDensity",
    "GridSpec",
    "InsufficientDataError",
    "IntervalSet",
    "MdeConfig",
    "MixedRegressionModel",
    "MixingSpec",
    "MixtureFit",
    "PipelineError",
    "ProjectionConfig",
    "ProjectionError",
    "ProjectionResult",
    "RegressionCurve",
    "RegressionFit",
    "ThresholdTooHighError",
    "UnderResolutionError",
    "VanillaMixtureModel",
    "box_mixture_density",
    "conditional_density_at",
    "convolve_gaussian",
    "density_mean",
    "estimate_components",
    "evaluate_regression_fit",
    "find_separation_point",
    "fit_mixed_regression",
    "fit_mixture_from_density",
    "fit_vanilla_mixture",
    "l1_distance",
    "mde_at_x",
    "outlier_mass",
    "project_to_gaussian_mixture",
    "sample_mixed_regression",
    "sample_vanilla_mixture",
    "smooth",
    "threshold_partition",
    "true_conditional_density",
    "univariate_kde",
    "voronoi_extend",
    "wasserstein1",
]

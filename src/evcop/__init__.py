"""Semiparametric bivariate extreme-value copulas.

Builds Pickands dependence functions by composing zero-integral splines,
the inverse centered-log-ratio map, the Williamson transform and an affine
rotation; fits them to data by penalized likelihood; evaluates association
measures; and simulates from the resulting copulas.
"""

from .errors import EvcopError, InputError, NumericalError
from .splinebasis import (
    KnotConfig,
    ZBasis,
    CurvatureMatrix,
    build_zb_basis,
    eval_basis,
    curvature_matrix,
    project_center,
    quantile_knots,
)
from .bayes import ClrDensity, clr, clr_inverse, perturb, power, tvd
from .williamson import (
    WilliamsonGrid,
    williamson_from_density,
    normalize_w,
    w_power_complement,
    w_uniform_power,
    fixed_point,
)
from .pickands import (
    PickandsModel,
    SpectralMeasure,
    rotate,
    rotate_inverse,
    h_density,
    spectral_from_w,
    gini_from_pickands,
    gini_from_density,
    gini_from_copula,
    blomqvist_beta,
    upper_tail,
    khoudraji,
    symmetrize,
    mirror,
    validate_pickands,
)
from .families import (
    ParametricPickands,
    pickands_estimator,
    greatest_convex_minorant,
    cfg_estimator,
)
from .copula import EvCopula, tvd_copulas, supnorm_bound_check
from .fit import (
    FitConfig,
    FittedModel,
    z_transform,
    empirical_w_grid,
    build_h_hat,
    penalized_loglik,
    penalized_loglik_grad,
    optimize,
    ordering_heuristic,
    fit_univariate_density,
    mcmc_sample,
    random_pickands,
)

__version__ = "0.1.0"

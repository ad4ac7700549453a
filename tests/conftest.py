import numpy as np
import pytest

from evcop.copula import EvCopula
from evcop.families import ParametricPickands
from evcop.fit import (
    FitConfig,
    optimize,
    pipeline_pickands,
    random_pickands,
    z_transform,
)
from evcop.splinebasis import KnotConfig, build_zb_basis


@pytest.fixture(scope="session")
def basis13():
    """Cubic basis with 10 uniform interior knots (13 functions)."""
    knots = tuple(np.linspace(0.0, 1.0, 12)[1:-1])
    return build_zb_basis(KnotConfig(interior_knots=knots, degree=3))


@pytest.fixture(scope="session")
def gumbel2():
    return EvCopula(ParametricPickands("gumbel", 2.0))


@pytest.fixture(scope="session")
def gumbel2_sample(gumbel2):
    return gumbel2.simulate(1000, seed=11)


@pytest.fixture(scope="session")
def gumbel2_fit(gumbel2_sample):
    return optimize(z_transform(gumbel2_sample), FitConfig(lam=1e-5))


@pytest.fixture(scope="session")
def center_model(basis13):
    """Pickands model of the affine center (zero coefficients)."""
    model, dens, grid = pipeline_pickands(basis13, np.zeros(13), True, False)
    return model, dens, grid


@pytest.fixture(scope="session")
def random_models_200():
    """200 random models from the truncated curvature prior, lam=1e-4, R=5."""
    return random_pickands(1e-4, 5.0, 200, seed=20250810)


def random_spline_density(basis, rng, scale=0.5, center=True):
    from evcop.bayes import ClrDensity

    theta = scale * rng.standard_normal(basis.dim)
    return ClrDensity(basis, theta, center_enabled=center)

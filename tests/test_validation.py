"""Integer arguments are validated the same way at every public entry point.

Bool, non-integral, infinite and NaN values must raise ``DomainError``; none
may escape as ``OverflowError`` or a bare ``ValueError``, and none may be
silently accepted.
"""

import math

import pytest

from zerocount.bayes import PriorKind, fisher_information, posterior_from_sufficient, prior_params
from zerocount.classical import CountData, simple_probability_upper_limit
from zerocount.decision import ThetaMode, bayes_mean_counts, bias_mean
from zerocount.distributions import PoissonParams, poisson_pmf
from zerocount.errors import DomainError
from zerocount.marginal import make_theta_grid
from zerocount.montecarlo import coverage_experiment, sample
from zerocount.numerics import ToleranceConfig

BL = prior_params(PriorKind.BL)
POISSON = PoissonParams(theta=1.0)
INF, NAN = math.inf, math.nan

CALLS = {
    "posterior_inf_S": lambda: posterior_from_sufficient(INF, 1, 1.0, BL),
    "posterior_nan_S": lambda: posterior_from_sufficient(NAN, 1, 1.0, BL),
    "posterior_inf_n": lambda: posterior_from_sufficient(0, INF, 1.0, BL),
    "posterior_bool_S": lambda: posterior_from_sufficient(True, 1, 1.0, BL),
    "count_data_inf": lambda: CountData([INF]),
    "count_data_nan": lambda: CountData([0, NAN]),
    "poisson_pmf_inf": lambda: poisson_pmf(INF, 1.0),
    "poisson_pmf_nan": lambda: poisson_pmf(NAN, 1.0),
    "sample_inf_seed": lambda: sample(POISSON, 10, seed=INF),
    "sample_nan_draws": lambda: sample(POISSON, NAN, seed=0),
    "coverage_inf_reps": lambda: coverage_experiment(0.5, 1.0, 1, BL, 0.95, INF, 0),
    "bias_mean_bool_plug_in": lambda: bias_mean(True, 1, 1.0, 0.0, ThetaMode.PLUG_IN),
    "bias_mean_inf_plug_in": lambda: bias_mean(INF, 1, 1.0, 0.0, ThetaMode.PLUG_IN),
    "bayes_mean_counts_nan": lambda: bayes_mean_counts(NAN, 1, 1.0, 0.0),
    "simple_limit_inf_n": lambda: simple_probability_upper_limit(INF, 1.0, 0.05),
    "fisher_information_nan_n": lambda: fisher_information(NAN, 1.0),
    "theta_grid_inf_x": lambda: make_theta_grid(INF),
    "tolerance_inf_max_iter": lambda: ToleranceConfig(max_iter=INF),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_bad_integer_raises_domain_error(name):
    with pytest.raises(DomainError):
        CALLS[name]()


def test_integral_floats_are_still_accepted():
    assert posterior_from_sufficient(2.0, 1.0, 1.0, BL).A == 3.0
    assert poisson_pmf(0.0, 1.0) == math.exp(-1.0)

"""Integer arguments are validated the same way at every public entry point.

Bool, non-integral, infinite and NaN values must raise ``DomainError``; none
may escape as ``OverflowError`` or a bare ``ValueError``, and none may be
silently accepted. Real-valued parameters reject infinity, NaN and
non-numbers with a ``DomainError`` that names the parameter, rather than
failing later as a numerical error.
"""

import math

import pytest

from zerocount.bayes import (
    PriorKind,
    PriorSpec,
    fisher_information,
    jj_divergence_demo,
    jj_truncated_evidence,
    posterior_from_sufficient,
    prior_density,
    prior_params,
    upper_limit,
)
from zerocount.classical import (
    CountData,
    log_likelihood,
    ml_estimates,
    simple_probability_upper_limit,
)
from zerocount.decision import ThetaMode, bayes_mean_counts, bias_mean, validate_risk_oracle
from zerocount.distributions import (
    DetectorConfig,
    GammaDist,
    NBParams,
    PoissonParams,
    ZPoissonParams,
    expectation_over_poisson,
    gamma_pdf,
    poisson_pmf,
)
from zerocount.errors import DomainError
from zerocount.marginal import make_theta_grid, nb_marginal_numeric
from zerocount.montecarlo import coverage_experiment, sample
from zerocount.numerics import inv_reg_inc_gamma_lower, reg_inc_gamma_lower

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
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_bad_integer_raises_domain_error(name):
    with pytest.raises(DomainError):
        CALLS[name]()


def test_integral_floats_are_still_accepted():
    assert posterior_from_sufficient(2.0, 1.0, 1.0, BL).A == 3.0
    assert poisson_pmf(0.0, 1.0) == math.exp(-1.0)


# case -> (parameter named in the message, call)
NON_FINITE_CALLS = {
    "count_data_inf_t": ("t", lambda: CountData([0], t=INF)),
    "count_data_nan_t": ("t", lambda: CountData([0], t=NAN)),
    "prior_spec_inf_a": ("prior shape a", lambda: PriorSpec(PriorKind.BL, INF, 1.0)),
    "prior_spec_inf_b": ("prior rate b", lambda: PriorSpec(PriorKind.BL, 1.0, INF)),
    "jj_evidence_inf_epsilon": ("epsilon", lambda: jj_truncated_evidence(INF)),
    "jj_demo_inf_epsilon": ("epsilon", lambda: jj_divergence_demo(INF, 2.0)),
    "jj_demo_inf_u_theta": ("U_theta", lambda: jj_divergence_demo(1e-8, INF)),
    "nb_marginal_inf_a_lower": (
        "a_lower", lambda: nb_marginal_numeric(0, make_theta_grid(0, 1.0), a_lower=INF)
    ),
    "reg_inc_gamma_inf_shape": ("shape parameter", lambda: reg_inc_gamma_lower(INF, 1.0)),
    "inv_reg_inc_gamma_inf_shape": ("shape parameter", lambda: inv_reg_inc_gamma_lower(INF, 0.5)),
    "poisson_params_inf_theta": ("theta", lambda: PoissonParams(theta=INF)),
    "poisson_params_nan_theta": ("theta", lambda: PoissonParams(theta=NAN)),
    "zpoisson_params_inf_theta": ("theta", lambda: ZPoissonParams(theta=INF, psi=1.0)),
    "zpoisson_params_inf_psi": ("psi", lambda: ZPoissonParams(theta=1.0, psi=INF)),
    "nb_params_inf_theta": ("theta", lambda: NBParams(theta=INF, a=1.0)),
    "nb_params_inf_a": ("shape a", lambda: NBParams(theta=1.0, a=INF)),
    "coverage_inf_true_rho": ("true_rho", lambda: coverage_experiment(INF, 1.0, 1, BL, 0.95, 10, 0)),
    "coverage_inf_t": ("t", lambda: coverage_experiment(0.0, INF, 1, BL, 0.95, 10, 0)),
    "poisson_pmf_inf_theta": ("theta", lambda: poisson_pmf(0, INF)),
    "gamma_pdf_inf_rho": ("rho", lambda: gamma_pdf(INF, GammaDist(2.0, 1.0))),
    "log_likelihood_inf_theta": ("theta", lambda: log_likelihood(INF, CountData([1]))),
    "prior_density_inf_t": ("t", lambda: prior_density(PriorKind.ME, 1.0, t=INF)),
    "expectation_inf_theta": ("theta", lambda: expectation_over_poisson(float, INF)),
    "risk_oracle_inf_theta": ("theta", lambda: validate_risk_oracle(INF, 1, BL)),
    "gamma_dist_inf_a": ("shape a", lambda: GammaDist(INF, 1.0)),
    "detector_inf_n_atoms": ("n_atoms", lambda: DetectorConfig(INF, 1e-3, 0.5, 1.0)),
    "posterior_inf_t": ("t", lambda: posterior_from_sufficient(0, 1, INF, BL)),
    "theta_grid_inf_step": ("step", lambda: make_theta_grid(0, step=INF)),
    # not a number at all: a DomainError, not a TypeError from the comparison
    "poisson_pmf_str_theta": ("theta", lambda: poisson_pmf(0, "1")),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_CALLS))
def test_non_finite_float_raises_domain_error(case):
    name, call = NON_FINITE_CALLS[case]
    with pytest.raises(DomainError, match=f"^{name} must be finite"):
        call()


# finite inputs whose exposure overflows: case -> (message prefix, call)
OVERFLOW_CALLS = {
    "ml_estimates_huge_t": (
        "t must be small enough", lambda: ml_estimates(CountData([0, 0], t=1.4e154))
    ),
    "upper_limit_huge_exposure": (
        "exposure n t \\+ b must be finite",
        lambda: upper_limit(posterior_from_sufficient(3, 10, 1e308, BL), 0.95),
    ),
}


@pytest.mark.parametrize("case", sorted(OVERFLOW_CALLS))
def test_overflowing_exposure_raises_domain_error(case):
    prefix, call = OVERFLOW_CALLS[case]
    with pytest.raises(DomainError, match=f"^{prefix}"):
        call()

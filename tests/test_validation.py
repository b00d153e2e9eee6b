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
    jj_divergence_demo,
    jj_truncated_evidence,
    posterior_from_sufficient,
    prior_density,
    prior_params,
    upper_limit,
)
from zerocount.classical import (
    CountData,
    ml_estimates,
    one_count_upper_limit,
    simple_probability_estimates,
    simple_probability_upper_limit,
)
from zerocount.decision import (
    ThetaMode,
    bias_mean,
    bias_var,
    compare_priors,
    risk_mean,
    risk_var,
    validate_risk_oracle,
)
from zerocount.distributions import (
    GammaDist,
    NBParams,
    PoissonParams,
    ZPoissonParams,
    expectation_over_poisson,
    gamma_pdf,
    nb_pmf,
    poisson_pmf,
    prob_all_zero,
    zpoisson_pmf,
)
from zerocount.errors import DomainError, _require_int, _require_real
from zerocount.marginal import (
    make_theta_grid,
    nb_joint_density,
    nb_marginal_numeric,
    zpoisson_joint_posterior,
    zpoisson_marginal,
)
from zerocount.montecarlo import coverage_experiment, sample
from zerocount.numerics import inv_reg_inc_gamma_lower, reg_inc_gamma_lower

BL = prior_params(PriorKind.BL)
POISSON = PoissonParams(theta=1.0)
INF, NAN = math.inf, math.nan
BIG = 10**400  # past the float range

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
    "bias_var_nan_S": lambda: bias_var(NAN, 1, 1.0, 0.0),
    "simple_limit_inf_n": lambda: simple_probability_upper_limit(INF, 1.0, 0.05),
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
    "prior_density_inf_t": ("t", lambda: prior_density(PriorKind.ME, 1.0, t=INF)),
    "expectation_inf_theta": ("theta", lambda: expectation_over_poisson(float, INF)),
    "risk_oracle_inf_theta": ("theta", lambda: validate_risk_oracle(INF, 1, BL)),
    # the decision functions check a and b as PriorSpec does
    "bias_mean_inf_a": ("prior shape a", lambda: bias_mean(1, 1, INF, 0.0, "PlugIn")),
    "risk_mean_nan_a": ("prior shape a", lambda: risk_mean(1, 1, NAN, 0.0)),
    "bias_var_negative_a": ("prior shape a", lambda: bias_var(1, 1, -5.0, 0.0)),
    "risk_var_nan_b": ("prior rate b", lambda: risk_var(1, 1, 1.0, NAN)),
    "gamma_dist_inf_a": ("shape a", lambda: GammaDist(INF, 1.0)),
    "posterior_inf_t": ("t", lambda: posterior_from_sufficient(0, 1, INF, BL)),
    "theta_grid_inf_step": ("step", lambda: make_theta_grid(0, step=INF)),
    "theta_grid_huge_x": ("x", lambda: make_theta_grid(BIG)),
    "zpoisson_marginal_huge_x": ("x", lambda: zpoisson_marginal(BIG, make_theta_grid(0))),
    "nb_marginal_huge_x": ("x", lambda: nb_marginal_numeric(BIG, make_theta_grid(0))),
    "poisson_pmf_huge_x": ("x", lambda: poisson_pmf(BIG, 2.0)),
    "nb_pmf_huge_x": ("x", lambda: nb_pmf(BIG, NBParams(1, 2))),
    "zpoisson_pmf_huge_x": ("x", lambda: zpoisson_pmf(BIG, ZPoissonParams(1, 1.5))),
    "prob_all_zero_huge_n": ("n", lambda: prob_all_zero(BIG, 1.0)),
    "simple_estimates_huge_n": ("n", lambda: simple_probability_estimates(BIG)),
    "simple_limit_huge_n": ("n", lambda: simple_probability_upper_limit(BIG, 1.0, 0.05)),
    "bias_mean_huge_S": ("S", lambda: bias_mean(BIG, 1, 1, 0, "PlugIn")),
    "risk_mean_huge_S": ("S", lambda: risk_mean(BIG, 1, 1, 0)),
    "compare_priors_huge_S": ("S", lambda: compare_priors(BIG, 1)),
    "risk_oracle_huge_n": ("n", lambda: validate_risk_oracle(1.0, BIG, BL)),
    "coverage_huge_n": ("n", lambda: coverage_experiment(0.5, 1.0, BIG, BL, 0.95, 10, 0)),
    "zpoisson_joint_huge_x": ("x", lambda: zpoisson_joint_posterior(1.0, 1.0, BIG)),
    "nb_joint_huge_x": ("x", lambda: nb_joint_density(1.0, 1.0, BIG)),
    # not a number at all: a DomainError, not a TypeError from the comparison
    "poisson_pmf_str_theta": ("theta", lambda: poisson_pmf(0, "1")),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_CALLS))
def test_non_finite_float_raises_domain_error(case):
    name, call = NON_FINITE_CALLS[case]
    with pytest.raises(DomainError, match=f"^{name} must be finite"):
        call()


# finite inputs whose exposure, total or product overflows a float:
# case -> (message prefix, call)
OVERFLOW_CALLS = {
    "count_data_huge_total": (
        "total count S must be within the float range", lambda: CountData([2**1023, 2**1023])
    ),
    "posterior_huge_S": (
        "S must be within the float range",
        lambda: posterior_from_sufficient(10**400, 1, 1.0, BL),
    ),
    "posterior_huge_n": (
        "n must be within the float range",
        lambda: posterior_from_sufficient(0, 10**400, 1.0, BL),
    ),
    "ml_estimates_huge_t": (
        "t must be small enough", lambda: ml_estimates(CountData([0, 0], t=1.4e154))
    ),
    "upper_limit_huge_exposure": (
        "exposure n t \\+ b must be finite",
        lambda: upper_limit(posterior_from_sufficient(3, 10, 1e308, BL), 0.95),
    ),
    # ints whose exact product passes the float range: the float's answer
    "posterior_int_exposure": (
        "exposure n t \\+ b must be finite",
        lambda: posterior_from_sufficient(1, 10**10, 10**300, BL),
    ),
    "coverage_int_poisson_mean": (
        "cannot draw Poisson counts",
        lambda: coverage_experiment(10**200, 10**200, 1, BL, 0.95, 10, 0),
    ),
    "simple_estimates_int_t": (
        "t must be small enough", lambda: simple_probability_estimates(1, 10**200)
    ),
    "risk_mean_huge_b": ("risk_mean passes the float range at S=1, n=1, b=1e\\+200$",
                         lambda: risk_mean(1, 1, 1.0, 1e200)),
    "risk_var_huge_b": ("risk_var passes the float range at S=1, n=1, b=1e\\+100$",
                        lambda: risk_var(1, 1, 1.0, 1e100)),
}


@pytest.mark.parametrize("case", sorted(OVERFLOW_CALLS))
def test_overflowing_exposure_raises_domain_error(case):
    prefix, call = OVERFLOW_CALLS[case]
    with pytest.raises(DomainError, match=f"^{prefix}"):
        call()


# int arguments whose exact product passes the float range give the float
# call's answer, not an OverflowError: case -> (int call, float call)
INT_PRODUCT_CALLS = {
    "prior_density_me": (lambda: prior_density(PriorKind.ME, 10**10, t=10**300),
                         lambda: prior_density(PriorKind.ME, 1e10, t=1e300)),
    "gamma_pdf": (lambda: gamma_pdf(10**300, GammaDist(2, 10**10)),
                  lambda: gamma_pdf(1e300, GammaDist(2.0, 1e10))),
    "one_count_upper_limit": (lambda: one_count_upper_limit(10**200, 10**200),
                              lambda: one_count_upper_limit(1e200, 1e200)),
}


@pytest.mark.parametrize("case", sorted(INT_PRODUCT_CALLS))
def test_an_int_product_past_the_float_range_gives_the_float_answer(case):
    int_call, float_call = INT_PRODUCT_CALLS[case]
    assert int_call() == float_call() == 0.0


# ints of more than 4,300 digits, which repr cannot print: a message shows
# them by their bit length. case -> (message, call)
HUGE = 10**5000
UNPRINTABLE_CALLS = {
    "require_int_negative": ("n must be an integer >= 0, got a negative 16610-bit integer",
                             lambda: _require_int(-HUGE, "n")),
    "require_real": ("x must be finite and in [0, inf), got a 16610-bit integer",
                     lambda: _require_real(HUGE, "x", 0.0)),
    "sample_draws": ("n_draws must be at most 10000000, got a 16610-bit integer",
                     lambda: sample(PoissonParams(1.0), HUGE, 0)),
    "sample_seed": ("seed must be an unsigned 64-bit integer, got a 16610-bit integer",
                    lambda: sample(PoissonParams(1.0), 10, HUGE)),
    "theta_grid_x": ("x must be finite and in [0, inf), got a 16610-bit integer",
                     lambda: make_theta_grid(HUGE)),
}


@pytest.mark.parametrize("case", sorted(UNPRINTABLE_CALLS))
def test_an_unprintable_int_is_shown_by_its_bit_length(case):
    message, call = UNPRINTABLE_CALLS[case]
    with pytest.raises(DomainError) as caught:
        call()
    assert str(caught.value) == message


@pytest.mark.parametrize("marginal", [zpoisson_marginal, nb_marginal_numeric])
def test_caller_built_theta_grid_is_capped(marginal):
    # make_theta_grid's cap holds for a grid built by the caller too: one
    # point past it raises before any quadrature runs
    grid = [12.0 * i / 100_000 for i in range(100_001)]
    with pytest.raises(DomainError, match="^theta_grid must have at most 100000 points, got 100001"):
        marginal(0, grid)


# the NB joint's cost grows with x, so a count past the cap raises before any
# work, naming x and the cap. case -> call
NB_COUNT_CALLS = {
    "nb_joint_density": lambda: nb_joint_density(1.0, 1.0, 301),
    "nb_marginal_numeric": lambda: nb_marginal_numeric(301, make_theta_grid(301)),
}


@pytest.mark.parametrize("case", sorted(NB_COUNT_CALLS))
def test_an_nb_count_past_the_cap_raises_domain_error(case):
    with pytest.raises(DomainError, match=r"^x must be finite and in \[0, 300\], got 301$"):
        NB_COUNT_CALLS[case]()

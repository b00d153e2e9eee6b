"""Tests for classical estimation: ML, simple-probability, 1-count limit."""

import math
from fractions import Fraction

import numpy as np
import pytest

from zerocount.classical import (
    CountData,
    ml_estimates,
    one_count_upper_limit,
    simple_probability_estimates,
    simple_probability_upper_limit,
)
from zerocount.distributions import expectation_over_poisson, prob_all_zero
from zerocount.errors import DomainError


class TestCountData:
    def test_derived_fields(self):
        data = CountData([2, 4], t=1.0)
        assert data.n == 2
        assert data.total == 6

    def test_validation(self):
        with pytest.raises(DomainError):
            CountData([], t=1.0)
        with pytest.raises(DomainError):
            CountData([1, -2], t=1.0)
        with pytest.raises(DomainError):
            CountData([0.5], t=1.0)
        with pytest.raises(DomainError):
            CountData([0], t=0.0)


class TestSufficientStatistic:
    """S is the total count and the ML mean S/n its one float."""

    @staticmethod
    def statistic(counts):
        data = CountData(counts)
        return (data.total, ml_estimates(data).theta_hat)

    def test_all_zero(self):
        assert self.statistic([0, 0, 0]) == (0, 0.0)

    def test_direct_sum(self):
        assert self.statistic([2, 4]) == (6, 3.0)

    def test_single_measurement(self):
        assert self.statistic([5]) == (5, 5.0)

    def test_exact_mean(self):
        # int / int is correctly rounded: the double nearest the exact ratio
        assert self.statistic([1] + [0] * 9) == (1, 0.1)
        for counts in ([10**300 + 1, 0, 0], [2**1022, 2**1022 - 1, 5], [1, 1, 0, 0, 0, 0, 0]):
            exact = Fraction(sum(counts), len(counts))
            assert self.statistic(counts) == (sum(counts), float(exact))


class TestMLEstimates:
    def test_pathological_all_zero(self):
        report = ml_estimates(CountData([0, 0, 0], t=1.0))
        assert report.pathological
        assert report.theta_hat == 0.0
        assert report.rho_hat == 0.0
        assert report.var_counts == 0.0
        assert report.var_mean == 0.0
        assert report.var_rate == 0.0

    def test_hand_case(self):
        report = ml_estimates(CountData([2, 4], t=1.0))
        assert not report.pathological
        assert report.theta_hat == 3.0
        assert report.rho_hat == 3.0
        assert report.var_counts == 3.0
        assert report.var_mean == 1.5
        assert report.var_rate == 1.5

    def test_rate_results_depend_only_on_total_exposure(self):
        pooled = ml_estimates(CountData([6], t=2.0))
        assert pooled.rho_hat == 3.0
        assert pooled.var_rate == 1.5

    def test_sufficiency_invariant(self):
        # splitting the record changes nothing about the rate inference
        split = ml_estimates(CountData([1, 2, 0, 4], t=0.5))
        pooled = ml_estimates(CountData([7], t=4 * 0.5))
        assert split.rho_hat == pooled.rho_hat
        assert split.var_rate == pooled.var_rate

    def test_tiny_exposure(self):
        # (n t)^2 underflows to 0 here; an all-zero record still has zero
        # rate estimates, and a count gives rates past the float range
        report = ml_estimates(CountData([0], t=1e-320))
        assert (report.rho_hat, report.var_rate) == (0.0, 0.0)
        with pytest.raises(DomainError, match="^t must be large enough"):
            ml_estimates(CountData([1], t=1e-160))

    @pytest.mark.parametrize("theta", [0.5, 2.0])
    @pytest.mark.parametrize("n", [1, 5])
    def test_mean_estimator_unbiased(self, theta, n):
        # E[xbar] = theta, evaluated through the Poisson sum of S ~ (n theta)
        value = expectation_over_poisson(lambda s: s / n, n * theta)
        np.testing.assert_allclose(value, theta, atol=1e-10)

    def test_sample_variance_bias(self):
        # the 1/n sample variance underestimates theta; 1/(n-1) does not
        rng = np.random.default_rng(42)
        theta, n, reps = 2.0, 4, 100_000
        draws = rng.poisson(theta, size=(reps, n))
        biased = draws.var(axis=1, ddof=0)
        unbiased = draws.var(axis=1, ddof=1)
        se_biased = biased.std(ddof=1) / math.sqrt(reps)
        se_unbiased = unbiased.std(ddof=1) / math.sqrt(reps)
        assert biased.mean() + 3.0 * se_biased < theta
        assert abs(unbiased.mean() - theta) < 3.0 * se_unbiased


class TestSimpleProbability:
    def test_single_measurement_unit_time(self):
        assert simple_probability_estimates(1, 1.0) == (1.0, 1.0, 1.0, 1.0)

    def test_four_measurements(self):
        mean_theta, var_theta, mean_rho, var_rho = simple_probability_estimates(4, 1.0)
        assert mean_theta == 0.25
        assert var_theta == 0.0625
        assert mean_rho == 0.25
        assert var_rho == 0.0625

    def test_rate_rescaling(self):
        mean_theta, _, mean_rho, var_rho = simple_probability_estimates(1, 2.0)
        assert mean_theta == 1.0
        assert mean_rho == 0.5
        assert var_rho == 0.25

    def test_tiny_exposure(self):
        with pytest.raises(DomainError, match="^t must be large enough"):
            simple_probability_estimates(2, 1e-300)

    def test_upper_limits(self):
        u_theta, u_rho = simple_probability_upper_limit(1, 1.0, 0.10)
        np.testing.assert_allclose(u_theta, 2.30258509299404568, rtol=1e-13)
        assert u_rho == u_theta
        u_theta, _ = simple_probability_upper_limit(1, 1.0, 0.37)
        np.testing.assert_allclose(u_theta, 0.994252273343867, rtol=1e-12)
        assert round(u_theta, 1) == 1.0
        u_theta, _ = simple_probability_upper_limit(2, 1.0, 0.05)
        np.testing.assert_allclose(u_theta, 1.49786613677699549, rtol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("alpha", [0.01, 0.10, 0.37, 0.5])
    def test_tail_mass_identity(self, n, alpha):
        # the mass of n e^{-n theta} beyond U_theta is exactly alpha
        u_theta, _ = simple_probability_upper_limit(n, 1.0, alpha)
        np.testing.assert_allclose(prob_all_zero(n, u_theta), alpha, rtol=1e-12)

    @pytest.mark.parametrize("alpha", [5e-324, 1e-310])
    @pytest.mark.parametrize("n", [1, 3])
    def test_subnormal_alpha_gives_a_finite_limit(self, n, alpha):
        # 1/alpha overflows here, but ln(1/alpha) = -ln(alpha) is about 710-745
        u_theta, u_rho = simple_probability_upper_limit(n, 2.0, alpha)
        assert u_theta == -math.log(alpha) / n
        assert u_rho == u_theta / 2.0

    @pytest.mark.parametrize(
        "alpha, expected",
        [
            # -ln(alpha) of each double, from mpmath at 40 digits
            (0.5000000000000001, 0.6931471805599451),
            (0.75, 0.2876820724517809),
            (0.999999999999999, 9.992007221626415e-16),
            (1.0 - 2.0**-53, 1.1102230246251565e-16),
        ],
    )
    def test_alpha_near_one_keeps_its_digits(self, alpha, expected):
        # ln(1/alpha) rounds 1/alpha first: 11% high at 1 - 1e-15, double at
        # 1 - 2^-53
        u_theta, _ = simple_probability_upper_limit(1, 1.0, alpha)
        assert abs(u_theta - expected) <= 2.0**-52 * expected

    def test_domain(self):
        with pytest.raises(DomainError):
            simple_probability_estimates(0, 1.0)
        with pytest.raises(DomainError):
            simple_probability_upper_limit(1, 1.0, 0.0)
        with pytest.raises(DomainError):
            simple_probability_upper_limit(1, 1.0, 1.0)


class TestOneCountUpperLimit:
    def test_unit_conversion(self):
        assert one_count_upper_limit(1.0, 1.0) == 1.0

    def test_direct_evaluation(self):
        np.testing.assert_allclose(one_count_upper_limit(100.0, 0.5), 0.02, rtol=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            one_count_upper_limit(0.0, 1.0)
        with pytest.raises(DomainError):
            one_count_upper_limit(1.0, 0.0)

"""Tests for count/rate distributions and their moments.

Closed-form reference values were computed with mpmath at 30 significant
digits; summation oracles are brute-force loops written out in the tests.
"""

import math

import numpy as np
import pytest

from zerocount.distributions import (
    GammaDist,
    NBParams,
    PoissonParams,
    ZPoissonParams,
    expectation_over_poisson,
    gamma_pdf,
    nb_dispersion,
    nb_pmf,
    poisson_pmf,
    prob_all_zero,
    zpoisson_moments,
    zpoisson_pmf,
)
from zerocount.errors import ConvergenceError, DomainError
from zerocount.numerics import integrate_semi_infinite


def truncation_limit(mean: float, variance: float) -> int:
    return int(mean + 40.0 * math.sqrt(variance) + 40.0)


class TestPoisson:
    def test_zero_class_value(self):
        # reported zero-count probability at the dead-time-corrected mean
        np.testing.assert_allclose(
            poisson_pmf(0, 2.8787), 5.621e-2, atol=5e-6
        )
        np.testing.assert_allclose(
            poisson_pmf(0, 2.8787), 0.056207785480254051, rtol=1e-13
        )

    def test_point_mass_at_zero(self):
        assert poisson_pmf(0, 0.0) == 1.0
        assert poisson_pmf(4, 0.0) == 0.0

    def test_hand_value(self):
        # 2^3 e^{-2} / 3!
        np.testing.assert_allclose(
            poisson_pmf(3, 2.0), 0.180447044315483589, rtol=1e-13
        )

    @pytest.mark.parametrize("theta", [0.5, 2.8787, 10.0])
    def test_normalization(self, theta):
        upper = truncation_limit(theta, theta)
        total = sum(poisson_pmf(x, theta) for x in range(upper + 1))
        assert abs(total - 1.0) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            poisson_pmf(0, -0.5)
        with pytest.raises(DomainError):
            poisson_pmf(-1, 1.0)
        with pytest.raises(DomainError):
            PoissonParams(theta=-1.0)


class TestZeroClass:
    def test_prob_all_zero(self):
        np.testing.assert_allclose(prob_all_zero(1, math.log(10.0)), 0.1, rtol=1e-14)
        np.testing.assert_allclose(prob_all_zero(1, 2.8787), 5.621e-2, atol=5e-6)
        np.testing.assert_allclose(
            prob_all_zero(3, 1.0), 0.049787068367863943, rtol=1e-13
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            prob_all_zero(0, 1.0)

    def test_int_arguments_past_the_float_range_in_product(self):
        # n theta = 1e310 as an exact int raised OverflowError in exp; as a
        # float it is inf, and e^-inf is the right answer, 0
        assert prob_all_zero(10**300, 10**10) == prob_all_zero(10**300, 1e10) == 0.0
        assert prob_all_zero(3, 2) == prob_all_zero(3, 2.0) == math.exp(-6.0)


class TestGamma:
    def test_pdf_values(self):
        assert gamma_pdf(0.0, GammaDist(a=1.0, b=1.0)) == 1.0
        np.testing.assert_allclose(
            gamma_pdf(1.0, GammaDist(a=1.0, b=2.0)), 0.270670566473225384, rtol=1e-13
        )

    def test_pdf_origin_limits(self):
        assert gamma_pdf(0.0, GammaDist(a=0.5, b=1.0)) == math.inf
        assert gamma_pdf(0.0, GammaDist(a=2.0, b=1.0)) == 0.0
        assert gamma_pdf(0.0, GammaDist(a=1.0, b=3.0)) == 3.0

    def test_pdf_normalizes_with_singular_origin(self):
        # the rho^{-1/2} origin singularity is integrable; substitute
        # rho = u^2 so the quadrature sees a bounded integrand
        dist = GammaDist(a=0.5, b=3.0)
        total = integrate_semi_infinite(
            lambda us: np.array([2.0 * u * gamma_pdf(u * u, dist) if u > 0 else 0.0 for u in us])
        )
        np.testing.assert_allclose(total, 1.0, rtol=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            GammaDist(a=0.0, b=1.0)
        with pytest.raises(DomainError):
            GammaDist(a=1.0, b=-1.0)
        with pytest.raises(DomainError):
            gamma_pdf(-0.5, GammaDist(a=1.0, b=1.0))


class TestZPoisson:
    def test_zero_class(self):
        params = ZPoissonParams(theta=1.0, psi=2.0)
        np.testing.assert_allclose(
            zpoisson_pmf(0, params), 0.735758882342884643, rtol=1e-13
        )

    def test_poisson_reduction(self):
        params = ZPoissonParams(theta=3.2, psi=1.0)
        for x in range(25):
            np.testing.assert_allclose(
                zpoisson_pmf(x, params), poisson_pmf(x, 3.2), rtol=1e-13
            )
        assert zpoisson_moments(params) == pytest.approx((3.2, 1.0), rel=1e-13)

    def test_normalization(self):
        params = ZPoissonParams(theta=4.0, psi=1.5)
        total = sum(zpoisson_pmf(x, params) for x in range(201))
        assert abs(total - 1.0) <= 1e-12

    def test_degenerate_top_of_range(self):
        # psi = 1/P0 concentrates everything on the zero class
        params = ZPoissonParams(theta=1.0, psi=math.e)
        np.testing.assert_allclose(zpoisson_pmf(0, params), 1.0, rtol=1e-12)
        assert zpoisson_pmf(1, params) <= 1e-15

    def test_moments_against_brute_force(self):
        params = ZPoissonParams(theta=2.0, psi=1.3)
        mean, dispersion = zpoisson_moments(params)
        brute_mean = sum(x * zpoisson_pmf(x, params) for x in range(501))
        brute_second = sum(x * x * zpoisson_pmf(x, params) for x in range(501))
        brute_var = brute_second - brute_mean**2
        np.testing.assert_allclose(mean, brute_mean, atol=1e-10)
        np.testing.assert_allclose(dispersion, brute_var / brute_mean, atol=1e-10)

    def test_matched_overdispersion_target(self):
        # theta and psi solved so that the mean is 4 and the dispersion 1.5
        params = ZPoissonParams(theta=4.5, psi=10.8907923667246459)
        mean, dispersion = zpoisson_moments(params)
        np.testing.assert_allclose(mean, 4.0, rtol=1e-12)
        np.testing.assert_allclose(dispersion, 1.5, rtol=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            ZPoissonParams(theta=0.0, psi=1.0)
        with pytest.raises(DomainError):
            ZPoissonParams(theta=1.0, psi=0.5)
        with pytest.raises(DomainError):
            # psi beyond 1/P0: zero-class mass would exceed 1
            ZPoissonParams(theta=1.0, psi=2.8)


class TestNegativeBinomial:
    def test_zero_class(self):
        np.testing.assert_allclose(nb_pmf(0, NBParams(theta=1.0, a=1.0)), 0.5, rtol=1e-13)

    def test_poisson_limit(self):
        params = NBParams(theta=2.0, a=1e8)
        for x in range(12):
            np.testing.assert_allclose(
                nb_pmf(x, params), poisson_pmf(x, 2.0), atol=1e-6, rtol=1e-6
            )

    def test_mean_by_summation(self):
        params = NBParams(theta=4.0, a=8.0)
        mean = sum(x * nb_pmf(x, params) for x in range(1001))
        np.testing.assert_allclose(mean, 4.0, atol=1e-9)

    @pytest.mark.parametrize(
        "theta, a", [(4.0, 8.0), (1.0, 1.0), (2.5, 0.7)]
    )
    def test_normalization_and_dispersion(self, theta, a):
        params = NBParams(theta=theta, a=a)
        variance = theta * nb_dispersion(params)
        upper = truncation_limit(theta, variance)
        probs = [nb_pmf(x, params) for x in range(upper + 1)]
        assert abs(sum(probs) - 1.0) <= 1e-12
        brute_mean = sum(x * p for x, p in zip(range(upper + 1), probs))
        brute_second = sum(x * x * p for x, p in zip(range(upper + 1), probs))
        brute_dispersion = (brute_second - brute_mean**2) / brute_mean
        np.testing.assert_allclose(brute_dispersion, nb_dispersion(params), atol=1e-10)

    def test_dispersion_values(self):
        assert nb_dispersion(NBParams(theta=4.0, a=8.0)) == 1.5
        assert nb_dispersion(NBParams(theta=2.0, a=2.0)) == 2.0
        assert nb_dispersion(NBParams(theta=1.0, a=1e12)) == pytest.approx(1.0, abs=1e-11)

    def test_domain(self):
        with pytest.raises(DomainError):
            NBParams(theta=-1.0, a=1.0)
        with pytest.raises(DomainError):
            NBParams(theta=1.0, a=0.0)


class TestExpectationOverPoisson:
    def test_mean(self):
        np.testing.assert_allclose(
            expectation_over_poisson(lambda x: float(x), 3.0), 3.0, atol=1e-10
        )

    def test_central_second_moment(self):
        np.testing.assert_allclose(
            expectation_over_poisson(lambda x: (x - 3.0) ** 2, 3.0), 3.0, atol=1e-10
        )

    def test_second_moment(self):
        np.testing.assert_allclose(
            expectation_over_poisson(lambda x: float(x * x), 2.0), 6.0, atol=1e-10
        )

    def test_matches_explicit_sum(self):
        theta = 4.2
        f = lambda x: (x + 1.5) ** 3
        explicit = sum(f(x) * poisson_pmf(x, theta) for x in range(200))
        np.testing.assert_allclose(
            expectation_over_poisson(f, theta), explicit, rtol=1e-12
        )

    def test_theta_zero(self):
        assert expectation_over_poisson(lambda x: 7.0 + x, 0.0) == 7.0

    def test_nonconvergence_for_fast_growth(self):
        with pytest.raises(ConvergenceError):
            expectation_over_poisson(lambda x: math.exp(2.0 * x) * 1e6, 20.0)

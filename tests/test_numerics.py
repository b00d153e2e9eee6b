"""Tests for the numerical kernel: special functions and quadrature.

Reference values were computed with mpmath at 30 significant digits and are
frozen here as literals.
"""

import dataclasses
import math

import numpy as np
import pytest

from zerocount import numerics
from zerocount.errors import ConvergenceError, DomainError, QuadratureError
from zerocount.numerics import (
    DEFAULT_TOL,
    EULER_GAMMA,
    ToleranceConfig,
    exp_integral_e1,
    integrate_semi_infinite,
    inv_reg_inc_gamma_lower,
    log_gamma,
    reg_inc_gamma_lower,
)

# Tightened configuration for the dual-route identity checks below.
TIGHT = ToleranceConfig(abs_tol=1e-15, max_iter=200, quad_rel_tol=1e-13)


class TestToleranceConfig:
    def test_defaults(self):
        assert DEFAULT_TOL.abs_tol == 1e-12
        assert DEFAULT_TOL.max_iter == 200
        assert DEFAULT_TOL.quad_rel_tol == 1e-9

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_TOL.abs_tol = 1e-6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": 0.0},
            {"abs_tol": -1e-12},
            {"quad_rel_tol": 0.0},
            {"quad_rel_tol": -1.0},
            {"max_iter": 0},
            {"abs_tol": math.inf},
            {"abs_tol": math.nan},
            {"quad_rel_tol": math.inf},
            {"quad_rel_tol": math.nan},
        ],
    )
    def test_rejects_nonpositive(self, kwargs):
        (name,) = kwargs
        with pytest.raises(DomainError, match=f"^{name} must be"):
            ToleranceConfig(**kwargs)


class TestLogGamma:
    def test_half_integer_value(self):
        # ln Gamma(1/2) = ln sqrt(pi)
        np.testing.assert_allclose(
            log_gamma(0.5), 0.572364942924700087, rtol=1e-14
        )

    def test_factorials(self):
        for n in range(1, 12):
            np.testing.assert_allclose(
                log_gamma(n + 1.0), math.log(math.factorial(n)), rtol=1e-13
            )

    def test_recurrence(self):
        # Gamma(z+1) = z Gamma(z), checked in log space across the range
        for z in np.geomspace(0.1, 100.0, 40):
            lhs = log_gamma(z + 1.0)
            rhs = log_gamma(z) + math.log(z)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("z", [0.0, -1.0, -0.5])
    def test_domain(self, z):
        with pytest.raises(DomainError):
            log_gamma(z)


class TestRegIncGammaLower:
    def test_exponential_shape(self):
        # a = 1 reduces to the exponential CDF
        for x in [0.01, 0.3, 1.0, 2.5, 10.0]:
            np.testing.assert_allclose(
                reg_inc_gamma_lower(1.0, x), -math.expm1(-x), rtol=1e-13
            )

    def test_frozen_value(self):
        np.testing.assert_allclose(
            reg_inc_gamma_lower(0.5, 1.92073), 0.950000035166252575, rtol=1e-12
        )

    def test_at_zero_and_saturation(self):
        assert reg_inc_gamma_lower(2.5, 0.0) == 0.0
        assert reg_inc_gamma_lower(2.5, 1e4) == 1.0
        assert reg_inc_gamma_lower(2.5, math.inf) == 1.0
        assert reg_inc_gamma_lower(1e6, math.inf) == 1.0

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 12.0, 200)
        vals = [reg_inc_gamma_lower(1.7, x) for x in xs]
        assert np.all(np.diff(vals) >= 0.0)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0])
    def test_complement_via_quadrature(self, a, x):
        # Independent route: Q(a, x) as the integral of the Gamma(a, 1)
        # density over the upper tail. P + Q must reproduce 1.
        log_norm = log_gamma(a)

        def density(u: float) -> float:
            return math.exp((a - 1.0) * math.log(u) - u - log_norm)

        q = integrate_semi_infinite(density, lower=x, tol=TIGHT)
        p = reg_inc_gamma_lower(a, x)
        assert abs(p + q - 1.0) <= 1e-12

    def test_complement_doubling_route(self):
        a, x = 2.5, 1.0
        log_norm = log_gamma(a)
        q = integrate_semi_infinite(
            lambda u: math.exp((a - 1.0) * math.log(u) - u - log_norm),
            lower=x,
            tol=TIGHT,
            strategy="doubling",
        )
        assert abs(reg_inc_gamma_lower(a, x) + q - 1.0) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            reg_inc_gamma_lower(0.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_gamma_lower(-2.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_gamma_lower(1.0, -0.1)


class TestInvRegIncGammaLower:
    def test_exponential_quantiles(self):
        # a = 1: the quantile is -ln(1 - p)
        np.testing.assert_allclose(
            inv_reg_inc_gamma_lower(1.0, 0.95), 2.99573227355399099, rtol=1e-12
        )
        np.testing.assert_allclose(
            inv_reg_inc_gamma_lower(1.0, 0.90), 2.30258509299404568, rtol=1e-12
        )

    def test_half_shape_quantiles(self):
        np.testing.assert_allclose(
            inv_reg_inc_gamma_lower(0.5, 0.95), 1.92072941034706298, rtol=1e-11
        )
        np.testing.assert_allclose(
            inv_reg_inc_gamma_lower(0.5, 0.99), 3.31744830051060757, rtol=1e-11
        )

    def test_right_inverse_randomized(self):
        rng = np.random.default_rng(20260817)
        worst = 0.0
        for _ in range(100):
            a = float(np.exp(rng.uniform(np.log(0.1), np.log(20.0))))
            p = float(rng.uniform(0.02, 0.98))
            x = inv_reg_inc_gamma_lower(a, p)
            worst = max(worst, abs(reg_inc_gamma_lower(a, x) - p))
        assert worst <= DEFAULT_TOL.abs_tol

    def test_round_trip(self):
        for a in [0.5, 1.0, 2.5, 7.0]:
            for x in [0.3, 1.0, 4.0]:
                p = reg_inc_gamma_lower(a, x)
                x_back = inv_reg_inc_gamma_lower(a, p)
                assert abs(reg_inc_gamma_lower(a, x_back) - p) <= 1e-12

    def test_monotone_in_p(self):
        qs = [inv_reg_inc_gamma_lower(2.0, p) for p in np.linspace(0.05, 0.99, 30)]
        assert np.all(np.diff(qs) > 0.0)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_p_domain(self, p):
        with pytest.raises(DomainError):
            inv_reg_inc_gamma_lower(1.0, p)

    def test_shape_domain(self):
        with pytest.raises(DomainError):
            inv_reg_inc_gamma_lower(0.0, 0.5)


class TestExpIntegralE1:
    @pytest.mark.parametrize(
        "x, expected",
        [
            (0.001, 6.33153936413614933),
            (0.5, 0.55977359477616081),
            (1.0, 0.21938393439552027),
            (2.0, 0.04890051070806112),
            (10.0, 4.15696892968532428e-6),
        ],
    )
    def test_frozen_values(self, x, expected):
        np.testing.assert_allclose(exp_integral_e1(x), expected, rtol=1e-11)

    def test_small_argument_logarithmic_form(self):
        # E1(x) approaches -gamma_E - ln x as x -> 0
        x = 1e-8
        np.testing.assert_allclose(
            exp_integral_e1(x), 17.8434650890508326, rtol=1e-12
        )
        assert abs(exp_integral_e1(x) - (-EULER_GAMMA - math.log(x))) < 2e-8

    def test_branch_consistency(self):
        # series (x <= 1) and continued fraction (x > 1) agree across the seam
        np.testing.assert_allclose(
            exp_integral_e1(1.000001), 0.21938356651644698, rtol=1e-11
        )
        gap = abs(exp_integral_e1(1.0 - 1e-9) - exp_integral_e1(1.0 + 1e-9))
        assert gap < 1e-8

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_recurrence_via_quadrature(self, x):
        # E1(x) = e^{-x}/x - int_x^inf e^{-u}/u^2 du
        tail = integrate_semi_infinite(
            lambda u: math.exp(-u) / (u * u), lower=x, tol=TIGHT
        )
        lhs = exp_integral_e1(x)
        rhs = math.exp(-x) / x - tail
        assert abs(lhs - rhs) <= 1e-9

    def test_monotone_decreasing(self):
        xs = np.geomspace(0.01, 20.0, 60)
        vals = [exp_integral_e1(x) for x in xs]
        assert np.all(np.diff(vals) < 0.0)

    def test_infinite_argument(self):
        assert exp_integral_e1(math.inf) == 0.0

    @pytest.mark.parametrize("x", [0.0, -1.0])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            exp_integral_e1(x)


class TestIntegrateSemiInfinite:
    @pytest.mark.parametrize("strategy", ["transform", "doubling"])
    def test_unit_exponential(self, strategy):
        value = integrate_semi_infinite(lambda x: math.exp(-x), strategy=strategy)
        np.testing.assert_allclose(value, 1.0, rtol=1e-9)

    @pytest.mark.parametrize("strategy", ["transform", "doubling"])
    def test_first_moment(self, strategy):
        value = integrate_semi_infinite(lambda x: x * math.exp(-x), strategy=strategy)
        np.testing.assert_allclose(value, 1.0, rtol=1e-9)

    @pytest.mark.parametrize("strategy", ["transform", "doubling"])
    def test_gaussian_tail(self, strategy):
        value = integrate_semi_infinite(lambda x: math.exp(-x * x), strategy=strategy)
        np.testing.assert_allclose(value, 0.886226925452758014, rtol=1e-9)

    @pytest.mark.parametrize("strategy", ["transform", "doubling"])
    def test_shifted_lower_bound(self, strategy):
        value = integrate_semi_infinite(
            lambda x: math.exp(-x), lower=2.0, strategy=strategy
        )
        np.testing.assert_allclose(value, math.exp(-2.0), rtol=1e-9)

    def test_strategies_agree(self):
        log_norm = log_gamma(2.5)
        f = lambda x: math.exp(1.5 * math.log(x) - x - log_norm) if x > 0 else 0.0
        via_transform = integrate_semi_infinite(f, strategy="transform")
        via_doubling = integrate_semi_infinite(f, strategy="doubling")
        np.testing.assert_allclose(via_transform, 1.0, rtol=1e-9)
        np.testing.assert_allclose(via_doubling, 1.0, rtol=1e-9)
        np.testing.assert_allclose(via_transform, via_doubling, rtol=1e-8)

    def test_divergent_integrand_transform(self):
        # 1/theta near the origin is not integrable; the failure must carry
        # the partial sum instead of silently returning a number
        with pytest.raises(QuadratureError) as excinfo:
            integrate_semi_infinite(lambda x: math.exp(-x) / x if x > 0 else 0.0)
        assert excinfo.value.partial_sum is not None
        assert excinfo.value.error_estimate is not None

    def test_divergent_integrand_doubling(self):
        with pytest.raises(QuadratureError) as excinfo:
            integrate_semi_infinite(lambda x: 1.0 / (1.0 + x), strategy="doubling")
        assert excinfo.value.partial_sum is not None
        assert excinfo.value.partial_sum > 10.0

    def test_non_finite_integrand(self):
        def bad(x: float) -> float:
            return float("nan") if x > 3.0 else math.exp(-x)

        with pytest.raises(QuadratureError, match="non-finite"):
            integrate_semi_infinite(bad)

    def test_invalid_arguments(self):
        with pytest.raises(DomainError):
            integrate_semi_infinite(lambda x: math.exp(-x), lower=-1.0)
        with pytest.raises(DomainError):
            integrate_semi_infinite(lambda x: math.exp(-x), strategy="romberg")


class TestGaussLegendreRule:
    RULES = {
        7: (numerics._G7_NODES, numerics._G7_WEIGHTS),
        15: (numerics._G15_NODES, numerics._G15_WEIGHTS),
    }

    @pytest.mark.parametrize("n", sorted(RULES))
    def test_literals_equal_leggauss_exactly(self, n):
        nodes, weights = self.RULES[n]
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        assert list(nodes) == ref_nodes.tolist()
        assert list(weights) == ref_weights.tolist()

    @pytest.mark.parametrize("n", sorted(RULES))
    def test_exact_on_polynomials_up_to_degree_2n_minus_1(self, n):
        nodes, weights = self.RULES[n]
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            approx = math.fsum(w * x**k for x, w in zip(nodes, weights))
            assert abs(approx - exact) <= 1e-14, k

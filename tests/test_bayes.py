"""Tests for priors, Gamma posteriors, upper limits, and related diagnostics.

Reference values were computed with mpmath at 30 significant digits.
"""

import math
import random

import numpy as np
import pytest

from zerocount import bayes, numerics
from zerocount.bayes import (
    GammaPosterior,
    PriorKind,
    PriorSpec,
    differential_entropy_gamma,
    jj_divergence_demo,
    jj_truncated_evidence,
    posterior,
    posterior_from_sufficient,
    prior_density,
    prior_params,
    upper_limit,
)
from zerocount.classical import CountData, ml_estimates, one_count_upper_limit
from zerocount.distributions import (
    GammaDist,
    gamma_pdf,
    poisson_pmf,
    prob_all_zero,
)
from zerocount.errors import DomainError, ImproperPosteriorError


def theta_density(post: GammaPosterior, theta: float) -> float:
    # posterior density of theta = rho * t: Gamma(A, B/t) in theta
    return gamma_pdf(theta, GammaDist(a=post.A, b=post.B / post.t))


class TestPriorCatalog:
    def test_table_rows(self):
        assert prior_params(PriorKind.BL) == PriorSpec(PriorKind.BL, 1.0, 0.0)
        assert prior_params(PriorKind.JJ) == PriorSpec(PriorKind.JJ, 0.0, 0.0)
        assert prior_params(PriorKind.JR) == PriorSpec(PriorKind.JR, 0.5, 0.0)
        assert prior_params(PriorKind.ME, t=1.0) == PriorSpec(PriorKind.ME, 1.0, 1.0)
        assert prior_params(PriorKind.ME, t=7.0).b == 7.0

    def test_me_requires_t(self):
        with pytest.raises(DomainError):
            prior_params(PriorKind.ME)
        with pytest.raises(DomainError):
            prior_params(PriorKind.CUSTOM)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            PriorSpec(PriorKind.CUSTOM, -1.0, 0.0)
        with pytest.raises(DomainError):
            PriorSpec(PriorKind.CUSTOM, 1.0, -2.0)

    def test_densities(self):
        assert prior_density(PriorKind.BL, 3.7) == 1.0
        assert prior_density(PriorKind.JJ, 2.0) == 0.5
        assert prior_density(PriorKind.JR, 4.0) == 0.5
        assert prior_density(PriorKind.ME, 0.0, t=1.0) == 1.0
        np.testing.assert_allclose(
            prior_density(PriorKind.ME, 1.0, t=2.0),
            2.0 * math.exp(-2.0),
            rtol=1e-13,
        )

    def test_divergence_at_origin(self):
        with pytest.raises(DomainError):
            prior_density(PriorKind.JJ, 0.0)
        with pytest.raises(DomainError):
            prior_density(PriorKind.JR, 0.0)
        assert prior_density(PriorKind.BL, 0.0) == 1.0

    def test_custom_has_no_catalog_density(self):
        with pytest.raises(DomainError):
            prior_density(PriorKind.CUSTOM, 1.0)


class TestPosteriorConstruction:
    def test_me_single_zero(self):
        post = posterior(CountData([0], t=1.0), prior_params(PriorKind.ME, t=1.0))
        assert (post.A, post.B) == (1.0, 2.0)

    def test_bl_two_zeros(self):
        post = posterior(CountData([0, 0], t=1.0), prior_params(PriorKind.BL))
        assert (post.A, post.B) == (1.0, 2.0)

    def test_jj_all_zero_is_improper(self):
        with pytest.raises(ImproperPosteriorError) as excinfo:
            posterior(CountData([0], t=1.0), prior_params(PriorKind.JJ))
        assert excinfo.value.shape == 0.0
        assert excinfo.value.total_counts == 0
        assert "diverges" in str(excinfo.value)

    def test_custom_zero_shape_depends_on_data(self):
        flat_zero = PriorSpec(PriorKind.CUSTOM, 0.0, 5.0)
        with pytest.raises(ImproperPosteriorError):
            posterior(CountData([0]), flat_zero)
        post = posterior(CountData([2]), flat_zero)
        assert (post.A, post.B) == (2.0, 6.0)

    def test_jj_with_counts_is_proper(self):
        post = posterior(CountData([1]), prior_params(PriorKind.JJ))
        assert (post.A, post.B) == (1.0, 1.0)

    def test_source_retained(self):
        prior = prior_params(PriorKind.JR)
        post = posterior(CountData([0, 1, 2], t=0.5), prior)
        assert post.t == 0.5

    def test_sufficient_form_agrees(self):
        prior = prior_params(PriorKind.BL)
        via_data = posterior(CountData([1, 0, 3], t=2.0), prior)
        via_stats = posterior_from_sufficient(4, 3, 2.0, prior)
        assert (via_data.A, via_data.B) == (via_stats.A, via_stats.B)


class TestPosteriorMoments:
    def test_me_zero_record(self):
        post = posterior_from_sufficient(0, 1, 1.0, prior_params(PriorKind.ME, t=1.0))
        assert post.mean == 0.5
        assert post.variance == 0.25

    def test_bl_zero_record(self):
        post = posterior_from_sufficient(0, 1, 1.0, prior_params(PriorKind.BL))
        assert post.mean == 1.0
        assert post.variance == 1.0

    def test_jj_matches_ml(self):
        post = posterior_from_sufficient(1, 1, 2.0, prior_params(PriorKind.JJ))
        report = ml_estimates(CountData([1], t=2.0))
        assert post.mean == report.rho_hat == 0.5

    def test_variance_past_a_squared_rate_overflow(self):
        # B**2 overflows past B ~ 1.3e154; the variance A/B^2 is still finite
        post = posterior_from_sufficient(10**300, 1, 1e155, prior_params(PriorKind.JJ))
        np.testing.assert_allclose(post.variance, 1e-10, rtol=1e-15)

    def test_variance_past_a_squared_rate_underflow(self):
        # B**2 underflows to 0 below B ~ 2e-162; A/B^2 is still finite here
        post = posterior_from_sufficient(0, 1, 1e-163, PriorSpec(PriorKind.CUSTOM, 1e-20, 0.0))
        np.testing.assert_allclose(post.variance, 1e306, rtol=1e-15)
        # B**2 = 1e-312 is subnormal, with about 38 bits: A/B/B keeps all 53
        post = GammaPosterior(1e-20, 1e-156, 1.0)
        np.testing.assert_allclose(post.variance, 1e292, rtol=1e-15)

    def test_variance_past_the_float_range_names_the_rate(self):
        post = posterior_from_sufficient(0, 1, 1e-300, prior_params(PriorKind.BL))
        assert math.isfinite(post.mean)
        with pytest.raises(DomainError, match="past the float range for B = 1e-300"):
            post.variance
        # B**2 = 1e-310 is subnormal, not 0, and A/B/B overflows
        for post in (GammaPosterior(1.0, 1e-155, 1.0),
                     posterior_from_sufficient(0, 1, 1e-155, prior_params(PriorKind.BL))):
            with pytest.raises(DomainError, match="past the float range for B = 1e-155"):
                post.variance

    def test_jj_ml_identity_grid(self):
        # with counts observed, JJ reproduces the ML point and variance exactly
        prior = prior_params(PriorKind.JJ)
        for s in range(1, 11):
            for n in range(1, 6):
                for t in [0.5, 1.0, 3.0]:
                    post = posterior_from_sufficient(s, n, t, prior)
                    assert abs(post.mean - s / (n * t)) <= 1e-12 * post.mean
                    assert abs(post.variance - s / (n * t) ** 2) <= 1e-12 * post.variance


class TestPosteriorDensityIdentities:
    @pytest.mark.parametrize("s", [0, 1, 3])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_bl_closed_form(self, s, n):
        # BL posterior density in theta: n (n theta)^S e^{-n theta} / S!
        post = posterior_from_sufficient(s, n, 1.0, prior_params(PriorKind.BL))
        for theta in np.linspace(0.05, 8.0, 60):
            expected = (
                n
                * (n * theta) ** s
                * math.exp(-n * theta)
                / math.factorial(s)
            )
            assert abs(theta_density(post, theta) - expected) <= 1e-12 * max(1.0, expected)

    def test_reduction_chain(self):
        # n=1: the BL posterior in theta is the Poisson likelihood reshaped
        grid = np.linspace(0.01, 10.0, 40)
        for s in [0, 2, 5]:
            post = posterior_from_sufficient(s, 1, 1.0, prior_params(PriorKind.BL))
            for theta in grid:
                assert abs(theta_density(post, theta) - poisson_pmf(s, theta)) <= 1e-12
        # S=0: it collapses to the renormalized zero-class density n e^{-n theta}
        for n in [1, 2, 4]:
            post = posterior_from_sufficient(0, n, 1.0, prior_params(PriorKind.BL))
            for theta in grid:
                assert (
                    abs(theta_density(post, theta) - n * math.exp(-n * theta))
                    <= 1e-12 * n
                )
        # S=0, n=1: bare zero-class probability
        post = posterior_from_sufficient(0, 1, 1.0, prior_params(PriorKind.BL))
        for theta in grid:
            assert abs(theta_density(post, theta) - prob_all_zero(1, theta)) <= 1e-12


class TestUpperLimits:
    @pytest.mark.parametrize(
        "kind, cl, expected",
        [
            (PriorKind.BL, 0.90, 2.30258509299404568),
            (PriorKind.BL, 0.95, 2.99573227355399099),
            (PriorKind.BL, 0.99, 4.60517018598809137),
            (PriorKind.JR, 0.90, 1.35277172704770728),
            (PriorKind.JR, 0.95, 1.92072941034706298),
            (PriorKind.JR, 0.99, 3.31744830051060757),
            (PriorKind.ME, 0.90, 1.15129254649702284),
            (PriorKind.ME, 0.95, 1.49786613677699549),
            (PriorKind.ME, 0.99, 2.30258509299404568),
        ],
    )
    def test_zero_record_limits(self, kind, cl, expected):
        prior = prior_params(kind, t=1.0)
        post = posterior_from_sufficient(0, 1, 1.0, prior)
        result = upper_limit(post, cl)
        np.testing.assert_allclose(result.U_theta, expected, rtol=1e-9)
        assert abs(result.solver_residual) <= 1e-12

    def test_rounded_reference_values(self):
        rounded = {}
        for kind in [PriorKind.BL, PriorKind.JR, PriorKind.ME]:
            post = posterior_from_sufficient(0, 1, 1.0, prior_params(kind, t=1.0))
            rounded[kind] = [
                round(upper_limit(post, cl).U_theta, 1) for cl in (0.90, 0.95, 0.99)
            ]
        assert rounded[PriorKind.BL] == [2.3, 3.0, 4.6]
        assert rounded[PriorKind.JR] == [1.4, 1.9, 3.3]
        assert rounded[PriorKind.ME] == [1.2, 1.5, 2.3]

    def test_monotone_in_cl(self):
        post = posterior_from_sufficient(0, 1, 1.0, prior_params(PriorKind.BL))
        limits = [upper_limit(post, cl).U_rho for cl in np.linspace(0.5, 0.995, 25)]
        assert np.all(np.diff(limits) > 0.0)

    @pytest.mark.parametrize("cl", [0.90, 0.95, 0.99])
    def test_prior_ordering_at_zero_record(self, cl):
        def limit(kind):
            post = posterior_from_sufficient(0, 1, 1.0, prior_params(kind, t=1.0))
            return upper_limit(post, cl).U_theta

        assert limit(PriorKind.BL) > limit(PriorKind.JR) > limit(PriorKind.ME)

    @pytest.mark.parametrize("q", [0.1, 10.0])
    @pytest.mark.parametrize("kind", [PriorKind.BL, PriorKind.JR, PriorKind.ME])
    def test_time_scaling_zero_record(self, q, kind):
        # stretching the clock by q divides the rate limit by q
        t = 1.0
        base = upper_limit(
            posterior_from_sufficient(0, 2, t, prior_params(kind, t=t)), 0.95
        )
        scaled = upper_limit(
            posterior_from_sufficient(0, 2, q * t, prior_params(kind, t=q * t)), 0.95
        )
        np.testing.assert_allclose(q * scaled.U_rho, base.U_rho, rtol=1e-10)

    @pytest.mark.parametrize("q", [0.1, 10.0])
    def test_time_scaling_jj_with_counts(self, q):
        base = upper_limit(
            posterior_from_sufficient(2, 1, 1.0, prior_params(PriorKind.JJ)), 0.95
        )
        scaled = upper_limit(
            posterior_from_sufficient(2, 1, q, prior_params(PriorKind.JJ)), 0.95
        )
        np.testing.assert_allclose(q * scaled.U_rho, base.U_rho, rtol=1e-10)

    def test_u_theta_is_u_rho_times_t(self):
        post = posterior_from_sufficient(0, 3, 100.0, prior_params(PriorKind.BL))
        result = upper_limit(post, 0.90)
        np.testing.assert_allclose(result.U_theta, result.U_rho * 100.0, rtol=1e-13)
        np.testing.assert_allclose(result.U_rho, 2.30258509299404568 / 300.0, rtol=1e-9)

    def test_cl_near_one(self):
        # the double nearest 1 - 1e-12 has tail 1 - CL = 9.999778782798785e-13,
        # so the exact limit is -ln(1 - CL), not -ln(1e-12) = 27.631021115928547
        post = posterior_from_sufficient(0, 1, 1.0, prior_params(PriorKind.BL))
        result = upper_limit(post, 1.0 - 1e-12)
        np.testing.assert_allclose(result.U_theta, 27.63104323789336, rtol=1e-14)
        assert abs(result.solver_residual) <= 1e-12

    @pytest.mark.parametrize("cl", [0.5, 0.9, 0.95, 0.99, 1 - 1e-12])
    @pytest.mark.parametrize("kind", [PriorKind.BL, PriorKind.ME])
    def test_zero_count_limit_is_one_evaluation(self, monkeypatch, kind, cl):
        # the posterior shape is 1, where P(1, x) = 1 - e^-x: the inverse
        # starts at the root and stops on its first step, so the limit costs
        # one forward evaluation and the residual one more
        calls = 0
        gamma_pq = numerics._gamma_pq

        def counting(a, x, exponent=None):
            nonlocal calls
            calls += 1
            return gamma_pq(a, x, exponent)

        monkeypatch.setattr(numerics, "_gamma_pq", counting)
        monkeypatch.setattr(bayes, "_gamma_pq", counting)
        n, t = 3, 2.5
        post = posterior_from_sufficient(0, n, t, prior_params(kind, t=t))
        result = upper_limit(post, cl)
        assert calls == 2
        # ME's prior adds t to the exposure n t
        exposure = n * t + (t if kind is PriorKind.ME else 0.0)
        np.testing.assert_allclose(result.U_rho, -math.log1p(-cl) / exposure, rtol=1e-14)

    @pytest.mark.parametrize("cl", [1e-9, 1e-6, 0.3, 0.5, 0.7, 1 - 1e-6, 1 - 1e-9])
    def test_residual_is_relative_to_the_matched_tail(self, cl):
        # an absolute residual of 1e-12 would pass at any of these CLs
        post = posterior_from_sufficient(2, 1, 1.0, prior_params(PriorKind.BL))
        result = upper_limit(post, cl)
        assert abs(result.solver_residual) <= 1e-13

    def test_large_totals_all_give_a_limit(self):
        # the bracket-and-Newton solver this replaced failed on 55 of these
        rng = np.random.default_rng(7)
        bl = prior_params(PriorKind.BL)
        for total in rng.integers(1000, 60000, size=300, endpoint=True):
            result = upper_limit(posterior_from_sufficient(int(total), 1, 1.0, bl), 0.95)
            assert result.U_rho > total
            # rounding in P near a = 6e4 is about 2e-10 of P
            assert abs(result.solver_residual) <= 1e-9

    def test_limit_past_the_float_range_raises(self):
        # a subnormal rate B: once U_rho = inf with solver_residual 1.0
        post = posterior_from_sufficient(0, 1, 1e-310, prior_params(PriorKind.BL))
        with pytest.raises(DomainError, match="passes the float range"):
            upper_limit(post, 0.95)

    def test_huge_shape_gives_a_limit(self):
        # P^-1(3e305, CL) once raised a bare OverflowError from lgamma
        post = posterior_from_sufficient(1, 1, 1.0, PriorSpec(PriorKind.CUSTOM, a=3e305, b=1.0))
        assert upper_limit(post, 0.95).U_rho == 1.5e305

    def test_huge_total_gives_its_limit(self):
        # A + z sqrt(A) + (z^2 - 1)/3 at A = 1e20 + 1, exact far below an ulp;
        # a ln x - lgamma(A) in the solver's step once gave 1.000000000042956e20
        # with a residual of -5.68
        post = posterior_from_sufficient(10**20, 1, 1.0, prior_params(PriorKind.BL))
        result = upper_limit(post, 0.95)
        assert result.U_rho == 1.0000000001644854e20
        assert abs(result.solver_residual) < 1e-7

    def test_cl_domain(self):
        post = posterior_from_sufficient(0, 1, 1.0, prior_params(PriorKind.BL))
        with pytest.raises(DomainError):
            upper_limit(post, 0.0)
        with pytest.raises(DomainError):
            upper_limit(post, 1.0)

    @pytest.mark.parametrize(
        "B, t, name",
        [
            pytest.param(0.0, 1.0, "posterior rate B", id="B-zero"),
            pytest.param(-1.0, 1.0, "posterior rate B", id="B-negative"),
            pytest.param(math.nan, 1.0, "posterior rate B", id="B-nan"),
            pytest.param(math.inf, 1.0, "posterior rate B", id="B-inf"),
            pytest.param(1.0, math.nan, "measurement duration t", id="t-nan"),
            pytest.param(1.0, -1.0, "measurement duration t", id="t-negative"),
            pytest.param(1.0, math.inf, "measurement duration t", id="t-inf"),
        ],
    )
    def test_caller_built_posterior_fields_are_checked(self, B, t, name):
        # GammaPosterior stores what it is given; these once gave a
        # ZeroDivisionError, a negative, NaN, zero or infinite limit
        with pytest.raises(DomainError, match=f"^{name} must be finite and in \\(0, inf\\)"):
            upper_limit(GammaPosterior(2.0, B, t), 0.9)

    def test_one_count_limit_equals_bl_mean(self):
        post = posterior_from_sufficient(0, 1, 1.0, prior_params(PriorKind.BL))
        assert one_count_upper_limit(1.0, 1.0) == post.mean == 1.0


def tail_records():
    """50 seeded custom-prior records like the tail of the limits benchmark:
    shape 0.5 to 3, rate 0 to 5, S <= 10 (40% all-zero), CL 0.9 to 0.99."""
    rng = random.Random(31)
    for _ in range(50):
        a, b = rng.uniform(0.5, 3.0), rng.uniform(0.0, 5.0)
        S = 0 if rng.random() < 0.4 else rng.randint(1, 10)
        n, t, cl = rng.randint(1, 10), 10.0 ** rng.uniform(-1.0, 3.0), rng.uniform(0.9, 0.99)
        yield S, n, t, PriorSpec(PriorKind.CUSTOM, a=a, b=b), cl


# float.hex of (U_rho, solver_residual) of tail_records(), frozen before the
# continued fraction lost its tiny-guards: a change to the kernel that moves
# one bit of these limits fails here by name
TAIL_LIMIT_BITS = (
    ("0x1.a27ad7028827ap+0", "-0x1.6407aab0ce44ap-49"),
    ("0x1.b450d273f65a5p-5", "-0x1.11a2ad1a6b1a0p-48"),
    ("0x1.ae7f56e9e6b70p+2", "-0x1.04c69d7f962cep-49"),
    ("0x1.5f402571a51f2p-2", "0x1.1ce748c86029cp-52"),
    ("0x1.adae52f90ecdcp-6", "-0x1.46489d6048f9dp-49"),
    ("0x1.5e07db68be967p+3", "0x0.0p+0"),
    ("0x1.87d65f560c504p-8", "0x0.0p+0"),
    ("0x1.f846a8f529e3dp-2", "-0x1.ee8c53466f72bp-51"),
    ("0x1.e92b14ef3e74ep-10", "-0x1.79e9a63a417dcp-53"),
    ("0x1.2e5eb2dbea4e9p-10", "-0x1.45d546065e361p-52"),
    ("0x1.2e91c0e574ad9p-3", "0x1.447d91c6866aap-50"),
    ("0x1.b748fffda9598p+0", "-0x1.258556699a26ep-47"),
    ("0x1.09391d233764fp+0", "0x1.757ad6f9593a5p-52"),
    ("0x1.b396ad14e6ba7p-6", "0x1.59d7634b6d571p-50"),
    ("0x1.22ec394c96b82p-9", "-0x1.d14eb32b738d1p-50"),
    ("0x1.92c8902c875c5p-9", "0x1.a46c1af8c4de4p-48"),
    ("0x1.58ad9f73dbc21p+1", "-0x1.e324cb91fe91ep-53"),
    ("0x1.7940dcf5f9647p-4", "-0x1.6582b74d159b1p-52"),
    ("0x1.e9b3ef1c9fb2fp-3", "0x1.41b818c22720dp-53"),
    ("0x1.29b27ac6386c2p+0", "0x1.6601c3c9bcc81p-53"),
    ("0x1.5c86a98b36e10p-1", "-0x1.0f0217f4d57fbp-51"),
    ("0x1.db9575ec52293p+1", "0x1.782ea1b077043p-49"),
    ("0x1.7ad3a9cf26601p+0", "0x0.0p+0"),
    ("0x1.cd1cc95a65ab4p+1", "0x1.bfab1f3956f87p-51"),
    ("0x1.d4361b8122401p-1", "0x1.49e956b90a51fp-50"),
    ("0x1.f7b84678bc885p-3", "0x0.0p+0"),
    ("0x1.815325ace4973p-9", "0x1.a9ce03f83a268p-53"),
    ("0x1.8b3977dc20321p+1", "-0x1.2c796c3f7f6b1p-49"),
    ("0x1.a6386d0b6e428p-1", "0x1.a7f8e9f25e1bbp-50"),
    ("0x1.41b078093e930p-3", "-0x1.0a29ad7c40911p-53"),
    ("0x1.61c2bde1769dfp-7", "-0x1.c5c2245379dabp-50"),
    ("0x1.07eb325bbc472p-4", "0x1.7782bafdc118ap-51"),
    ("0x1.3783cf02e1cdap-4", "0x1.2bcc700f20226p-47"),
    ("0x1.2119158420648p+0", "-0x1.f10c9fab6265ep-50"),
    ("0x1.3a92d9d1d9ad0p+2", "-0x1.5d5a0fa1ec690p-50"),
    ("0x1.f3e912f5540aep-7", "0x1.f75a203029cfbp-52"),
    ("0x1.ce89879ae07e5p-2", "-0x1.5c7034a6089e8p-51"),
    ("0x1.8746a6b59b7bfp-1", "-0x1.788e72faccba1p-51"),
    ("0x1.25cb29626002ap-4", "-0x1.b814cb1104a60p-50"),
    ("0x1.51c67723b2b38p-5", "-0x1.7d826eaaa53cfp-51"),
    ("0x1.1a477aab26501p-1", "-0x1.9a678ed28566dp-48"),
    ("0x1.3b4696d45d550p-2", "0x1.4bb9c003c6b82p-51"),
    ("0x1.6f86911f5f835p-1", "0x1.cee70383174e6p-51"),
    ("0x1.72e54f3bca0d8p+1", "0x1.b31d6ce872adbp-50"),
    ("0x1.df293bd7468c4p-5", "0x1.f3741fa1e9c14p-50"),
    ("0x1.4c3e41458681bp+0", "-0x1.1d9b5d2f26e3ap-52"),
    ("0x1.ef231e7d07fa1p-5", "-0x1.52ea828c74a63p-48"),
    ("0x1.fd5459aa679cap-4", "0x1.66cf56210c2a1p-48"),
    ("0x1.b9e50f940e800p-4", "0x1.51d075b11f89ep-53"),
    ("0x1.17c345ab8426dp-6", "-0x1.fc0c83c954295p-50"),
)


class TestTailLimitBits:
    def test_frozen_bits(self, monkeypatch):
        calls = 0
        fraction = numerics._upper_gamma_fraction

        def counting(a, x):
            nonlocal calls
            calls += 1
            return fraction(a, x)

        monkeypatch.setattr(numerics, "_upper_gamma_fraction", counting)
        for (S, n, t, spec, cl), bits in zip(tail_records(), TAIL_LIMIT_BITS, strict=True):
            result = upper_limit(posterior_from_sufficient(S, n, t, spec), cl)
            got = (result.U_rho.hex(), result.solver_residual.hex())
            assert got == bits, (S, n, t, spec, cl)
        assert calls >= 100  # the records run the fraction, 137 times


CATALOG = (PriorKind.BL, PriorKind.JJ, PriorKind.JR, PriorKind.ME)


def limit_path_records():
    """60 seeded records through posterior_from_sufficient + upper_limit: 24
    catalog-prior records at S <= 10 and CL 0.9 to 0.99, 16 at totals 1e3 to
    1e6 (posterior shapes past 50, on the Temme paths), 16 at CL = 1 - 10^-k
    for k 6 to 12, and 4 of JJ with no counts, whose posterior is improper."""
    rng = random.Random(32)
    for i in range(60):
        kind = rng.choice(CATALOG)
        n, t = rng.randint(1, 10), 10.0 ** rng.uniform(-1.0, 3.0)
        if i < 24:
            S, cl = rng.randint(0, 10), rng.uniform(0.9, 0.99)
        elif i < 40:
            S, cl = round(10.0 ** rng.uniform(3.0, 6.0)), rng.uniform(0.9, 0.99)
        elif i < 56:
            S, cl = rng.randint(0, 10), 1.0 - 10.0 ** -rng.randint(6, 12)
        else:
            kind, S, cl = PriorKind.JJ, 0, rng.uniform(0.9, 0.99)
        if kind is PriorKind.JJ and S == 0 and i < 56:
            S = 1  # the improper records are the last four
        yield S, n, t, prior_params(kind, t=t), cl


# float.hex of (U_rho, U_theta, solver_residual) of limit_path_records(),
# frozen before the records stored their fields through slot descriptors and
# the gamma inverse shared Temme's exponent with P; None where the posterior
# is improper
LIMIT_PATH_BITS = (
    ("0x1.40ed565263ba5p+2", "0x1.e6759ef00ca6ap+0", "-0x1.2122d29e30c40p-52"),
    ("0x1.7918799991b69p+1", "0x1.773c1538f6896p+2", "0x1.0d72905e52db6p-49"),
    ("0x1.606d987e7abd3p-4", "0x1.17bfece37d362p+1", "-0x1.76b23412468c7p-51"),
    ("0x1.d81b74eebababp+2", "0x1.9be2159b16e6dp-1", "0x1.e5ac166cbcdf6p-52"),
    ("0x1.60af01cffb005p+0", "0x1.2ad8bb9c59573p-2", "-0x1.4a74dde4a9868p-52"),
    ("0x1.3e5aac2312e9ap-1", "0x1.c53052a33fc87p+1", "0x1.250263686a115p-50"),
    ("0x1.0c748045ffd2dp-2", "0x1.5ab6bd6b700c9p-1", "0x1.146fab739fc69p-51"),
    ("0x1.560deb9004053p-3", "0x1.2621b9d2f3d1dp+1", "0x1.47a5adbe90048p-52"),
    ("0x1.487dab696c133p-2", "0x1.c9e8a07c8e987p+2", "0x1.b02e37fcaa697p-53"),
    ("0x1.926d088bde682p-5", "0x1.1a07f03a35718p+1", "0x1.85a8afbdc2318p-50"),
    ("0x1.bccde3aea5dd2p+2", "0x1.830385d7302a3p-1", "-0x1.0b1c210748c39p-51"),
    ("0x1.7dd18934d4c2bp+4", "0x1.0243193b29b2fp+3", "0x1.f5cc32c79ec42p-51"),
    ("0x1.5fdb81451514ep-1", "0x1.2ff2723448547p+1", "0x1.54c98b6a0fa5ap-51"),
    ("0x1.7026725435c00p-1", "0x1.df1150f5e3e84p+2", "-0x1.070a7c72c4e94p-49"),
    ("0x1.c0fa5b6b2c7f9p-4", "0x1.cd1125239cf2fp-1", "0x1.0e688b57be5bap-50"),
    ("0x1.1b2fe98abf5edp+0", "0x1.e441c4bd601ddp+1", "0x1.c9f1b1c3e7132p-52"),
    ("0x1.71e2827bd6300p+2", "0x1.e3bebbc5bba14p+0", "0x1.934ed59612fc8p-49"),
    ("0x1.491a019d7d5bdp-6", "0x1.3a04f7169055ap-1", "-0x1.2287d0ef11efcp-53"),
    ("0x1.302d7a87a9d75p-2", "0x1.bfad8920260d1p+2", "-0x1.0ceb149a0777ap-52"),
    ("0x1.cbd0d218a2f8ep-9", "0x1.b81b8e6423419p+0", "0x1.38c988b28107fp-50"),
    ("0x1.6badb2038dbb9p+1", "0x1.507793ee8728cp+0", "0x1.b7ec6d0cd311cp-53"),
    ("0x1.18ff7123ea669p-5", "0x1.217d249bacf9ap+2", "-0x1.bcf11a9fdfcd8p-49"),
    ("0x1.36e065398bce4p+0", "0x1.251139a641f0bp-2", "-0x1.61103a9dd22c9p-52"),
    ("0x1.83e3f80958f25p+6", "0x1.e4065f294f261p+3", "0x1.c8362d977ea59p-50"),
    ("0x1.77b5a49200eccp+11", "0x1.1eab4d178198ep+11", "0x1.21ab598b2a742p-50"),
    ("0x1.9ea9eaf413ef0p+3", "0x1.863940ca89189p+8", "0x1.d09c4c289be3cp-50"),
    ("0x1.76da8778c7dabp+15", "0x1.521d563c03c3dp+18", "0x1.0547cf1f5ec77p-44"),
    ("0x1.4231c2238411ep+14", "0x1.8caa76cee7469p+15", "-0x1.14eee8d301676p-44"),
    ("0x1.6bd49fac962a3p+1", "0x1.22b11e6f6c21cp+8", "-0x1.5f57578f29160p-48"),
    ("0x1.84aaf996033d4p+0", "0x1.d3b136d361adbp+7", "0x1.1cfc71c824861p-53"),
    ("0x1.275193c9c9b38p+13", "0x1.1f6099100e614p+13", "0x1.428ebf79cb9efp-46"),
    ("0x1.9cb6fff00eba6p+3", "0x1.76bbabecc4981p+8", "0x1.f63e7a9c03deap-48"),
    ("0x1.21fd62e3c647dp+6", "0x1.3f0ea40c59ea0p+10", "0x1.dd5dd351a8f2ep-49"),
    ("0x1.853af3da5a857p+9", "0x1.43dfa2b6008eap+15", "-0x1.12b5305d77d37p-45"),
    ("0x1.042dbe17d971fp+9", "0x1.1da1214238dc9p+14", "-0x1.3c91fa96457a5p-48"),
    ("0x1.bda1d1b46c553p+2", "0x1.04c5a956d4ef6p+11", "0x1.84c567798fa56p-46"),
    ("0x1.86f81d79609aap+18", "0x1.7b76f319611aep+19", "-0x1.3999f9b580fc4p-43"),
    ("0x1.9aaddd88af71dp+2", "0x1.75b03e37af577p+10", "-0x1.49a85310c0954p-48"),
    ("0x1.be53e3d58d8c1p+13", "0x1.73a95c9acd134p+17", "0x1.11346c20c4451p-44"),
    ("0x1.ef9af2b5cfc36p+16", "0x1.7ac879b6edbb8p+17", "0x1.9474c3a9493ffp-46"),
    ("0x1.0e1786626e277p+3", "0x1.ba18c0cb51d29p+1", "-0x1.05f0b572bdb0dp-48"),
    ("0x1.2c1bb8975b11ap+2", "0x1.1b0955c4fbf9bp+2", "0x1.6e35ffffd2c57p-51"),
    ("0x1.e49f4209a2c6ap-8", "0x1.92d9d66940138p+2", "-0x1.2a05f28d68df9p-50"),
    ("0x1.b27a3c69d75d8p-2", "0x1.a50b4c16ce98dp+1", "0x1.4f46ae6e95e03p-50"),
    ("0x1.6e99d949b65a0p+1", "0x1.82e6a9427006fp+1", "0x1.4dc937e3dc815p-50"),
    ("0x1.b96265a3541a0p+3", "0x1.cf731b8bcba74p+1", "-0x1.2a05f28d68df9p-49"),
    ("0x1.e01c31f5fc1ffp-2", "0x1.ef505618b8f4ep+3", "-0x1.ab3effffcb3bbp-49"),
    ("0x1.97efc505496e5p-3", "0x1.0a79466e93df8p+2", "-0x1.f6ea05a5e0d04p-49"),
    ("0x1.94f3bf9f33719p+5", "0x1.3b3352faac140p+3", "0x1.d1abed3dc3017p-53"),
    ("0x1.c867de614e7e4p-1", "0x1.0e2b840794f54p+2", "-0x1.74876c7adf6adp-51"),
    ("0x1.a4b06232fd716p-8", "0x1.f940c1d3692bbp+0", "-0x1.e847ffffc3b1fp-53"),
    ("0x1.dd39d3a3316f1p-8", "0x1.6d0f4a9b82a3bp+2", "0x1.0bc155f85094dp-48"),
    ("0x1.b701261ffb307p-2", "0x1.ba18c0cb51d2ap+3", "0x0.0p+0"),
    ("0x1.98ec7b843079bp-6", "0x1.cf2606e86d122p+1", "-0x1.74876c7adf6adp-51"),
    ("0x1.1b1b08b093c14p-4", "0x1.0fed114dcf00ap+1", "0x1.c9c380040adb9p-49"),
    ("0x1.c377884e0865cp-1", "0x1.59d902ed88ecfp+2", "0x1.836e21b7d522ap-49"),
    None,
    None,
    None,
    None,
)


class TestLimitPathBits:
    def test_frozen_bits(self):
        for (S, n, t, spec, cl), bits in zip(limit_path_records(), LIMIT_PATH_BITS, strict=True):
            if bits is None:
                with pytest.raises(ImproperPosteriorError):
                    posterior_from_sufficient(S, n, t, spec)
                continue
            result = upper_limit(posterior_from_sufficient(S, n, t, spec), cl)
            got = (result.U_rho.hex(), result.U_theta.hex(), result.solver_residual.hex())
            assert got == bits, (S, n, t, spec, cl)


class TestJJDivergence:
    @pytest.mark.parametrize(
        "epsilon, expected",
        [
            (1e-2, 0.053561087312448781),
            (1e-4, 0.025407619786858979),
            (1e-6, 0.016571889981950052),
            (1e-8, 0.012294917480702455),
        ],
    )
    def test_frozen_values(self, epsilon, expected):
        np.testing.assert_allclose(
            jj_divergence_demo(epsilon, 1.0), expected, rtol=1e-10
        )

    def test_strictly_decreasing_to_zero(self):
        values = [jj_divergence_demo(10.0**-k, 1.0) for k in range(2, 13, 2)]
        assert all(lo < hi for lo, hi in zip(values[1:], values[:-1]))
        assert values[-1] < 0.01

    def test_truncated_evidence(self):
        np.testing.assert_allclose(
            jj_truncated_evidence(1e-3), 6.33153936413614933, rtol=1e-11
        )
        # the cutoff evidence grows like -gamma_E - ln(eps) as eps -> 0
        eps = 1e-8
        np.testing.assert_allclose(
            jj_truncated_evidence(eps),
            -0.5772156649015329 - math.log(eps),
            rtol=1e-3,
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            jj_divergence_demo(0.0, 1.0)
        with pytest.raises(DomainError):
            jj_divergence_demo(1e-4, 0.0)
        with pytest.raises(DomainError):
            # denominator -gamma_E - ln(eps) is negative here
            jj_divergence_demo(1.0, 1.0)

    @pytest.mark.parametrize("epsilon,u_theta", [(0.56, 1.0), (0.5, 0.4)])
    def test_a_ratio_past_one_is_refused(self, epsilon, u_theta):
        # these once returned alpha = 35.1632 and 2.24429, no tail probability
        with pytest.raises(DomainError, match="so alpha would exceed 1$"):
            jj_divergence_demo(epsilon, u_theta)

    def test_the_ratio_may_reach_one(self):
        # the largest epsilon accepted at U_theta = 1 gives a ratio just below 1
        accepted, refused = 0.0, 0.5615
        for _ in range(60):
            middle = 0.5 * (accepted + refused)
            try:
                jj_divergence_demo(middle, 1.0)
                accepted = middle
            except DomainError:
                refused = middle
        assert 0.999 < jj_divergence_demo(accepted, 1.0) <= 1.0


# The Gamma entropy H = a - ln b + lnGamma(a) + (1 - a) psi(a), as the double
# nearest its mpmath value at 40 digits; tests/make_entropy_references.py
# prints these literals. The rows hold shapes and rates far out (a from 1e-20
# to 1e6, b at 1e-300 and 1e300) and shapes beside the a = 50 switch to the
# Stirling series; the grid spans a in [1e-3, 1e6] x b in [1e-3, 1e3].
ENTROPY_ROWS = {
    (50.0, 0.001): 10.276005227360306,
    (1000.0, 1.0): 4.8724827560179715,
    (1000000.0, 1.0): 8.326693478853393,
    (0.001, 1.0): -992.6668174744946,
    (1e-20, 1.0): -1e+20,
    (2.0, 1e-300): 692.3527435631153,
    (2.0, 1e+300): -689.1983122333122,
    (49.5, 1.0): 3.3631567609169513,
    (49.99999999999999, 1.0): 3.3682499483781685,
    (50.0, 1.0): 3.3682499483781685,
    (50.00000000000001, 1.0): 3.3682499483781685,
    (50.5, 1.0): 3.373291779765224,
}
ENTROPY_RATES = (0.001, 0.03162277660168379, 1.0, 31.622776601683793, 1000.0)
ENTROPY_GRID = {
    0.001: (
        -985.7590621955125, -989.2129398350036, -992.6668174744946, -996.1206951139857,
        -999.5745727534768,
    ),
    0.0031622776601683794: (
        -303.132419840216, -306.58629747970707, -310.0401751191981, -313.4940527586892,
        -316.9479303981803,
    ),
    0.01: (
        -88.03804144626582, -91.49191908575689, -94.94579672524796, -98.39967436473903,
        -101.8535520042301,
    ),
    0.03162277660168379: (
        -20.756685937341558, -24.210563576832627, -27.664441216323695, -31.118318855814763,
        -34.57219649530583,
    ),
    0.1: (
        -0.12091151565362561, -3.574789155144694, -7.028666794635763, -10.482544434126831,
        -13.9364220736179,
    ),
    0.31622776601683794: (
        5.999017040383004, 2.545139400891936, -0.9087382385991327, -4.362615878090201,
        -7.81649351758127,
    ),
    1.0: (
        7.907755278982137, 4.453877639491068, 1.0, -2.4538776394910684, -5.907755278982137,
    ),
    3.1622776601683795: (
        8.788339619253062, 5.334461979761993, 1.8805843402709248, -1.5732932992201438,
        -5.027170938711213,
    ),
    10.0: (
        9.443809457463116, 5.989931817972049, 2.53605417848098, -0.9178234610100888,
        -4.3717011005011575,
    ),
    31.622776601683793: (
        10.043008030180735, 6.589130390689666, 3.1352527511985984, -0.3186248882924703,
        -3.772502527783539,
    ),
    100.0: (
        10.625937227486883, 7.172059587995815, 3.7181819485047463, 0.26430430901367763,
        -3.189573330477391,
    ),
    316.22776601683796: (
        11.203870252192115, 7.749992612701046, 4.296114973209978, 0.8422373337189093,
        -2.611640305772159,
    ),
    1000.0: (
        11.780238035000108, 8.32636039550904, 4.8724827560179715, 1.4186051165269034,
        -2.0352725229641653,
    ),
    3162.2776601683795: (
        12.356112307337366, 8.902234667846297, 5.448357028355229, 1.9944793888641608,
        -1.4593982506269079,
    ),
    10000.0: (
        12.931830664008224, 9.477953024517156, 6.024075385026086, 2.570197745535018,
        -0.8836798939560507,
    ),
    31622.776601683792: (
        13.507499730414544, 10.053622090923476, 6.599744451432408, 3.1458668119413393,
        -0.30801082754972914,
    ),
    100000.0: (
        14.083153211330258, 10.62927557183919, 7.17539793234812, 3.721520292857052,
        0.2676426533659832,
    ),
    316227.7660168379: (
        14.658801763827048, 11.20492412433598, 7.751046484844911, 4.297168845353843,
        0.8432912058627745,
    ),
    1000000.0: (
        15.23444875783553, 11.780571118344461, 8.326693478853393, 4.872815839362325,
        1.418938199871256,
    ),
}

# |H - exact| <= ENTROPY_BOUND (|exact| + |ln b| + 1): H itself cancels to
# near 0 where ln b offsets the rest. The measured worst case was 1.4e-14 over
# 6,000 points (a log-uniform in [1e-3, 1e6] or uniform in [0.001, 60], b
# log-uniform in [1e-3, 1e3]), at a = 44.9, and 6.6e-15 over these references.
ENTROPY_BOUND = 2e-14


def assert_entropy(a: float, b: float, exact: float) -> None:
    error = abs(differential_entropy_gamma(GammaDist(a=a, b=b)) - exact)
    assert error <= ENTROPY_BOUND * (abs(exact) + abs(math.log(b)) + 1.0), (a, b, exact)


class TestGammaEntropy:
    def test_unit_exponential(self):
        np.testing.assert_allclose(
            differential_entropy_gamma(GammaDist(a=1.0, b=1.0)), 1.0, rtol=1e-8
        )

    def test_rate_scaling(self):
        np.testing.assert_allclose(
            differential_entropy_gamma(GammaDist(a=1.0, b=2.0)),
            1.0 - math.log(2.0),
            rtol=1e-8,
        )

    def test_exponential_maximizes_entropy_at_fixed_mean(self):
        # mean is pinned at 1 by taking b = a; closed-form references below
        expected = {
            0.25: -0.246273264214231,
            0.5: 0.783757110473934,
            1.0: 1.0,
            2.0: 0.884068484341588,
            4.0: 0.637112102812763,
        }
        computed = {
            a: differential_entropy_gamma(GammaDist(a=a, b=a)) for a in expected
        }
        for a, value in expected.items():
            np.testing.assert_allclose(computed[a], value, rtol=1e-7, atol=1e-9)
        best = max(computed, key=computed.get)
        assert best == 1.0
        margins = [computed[1.0] - v for a, v in computed.items() if a != 1.0]
        assert min(margins) > 1e-3


class TestGammaEntropyAgainstMpmath:
    @pytest.mark.parametrize("a, b", sorted(ENTROPY_ROWS))
    def test_rows(self, a, b):
        assert_entropy(a, b, ENTROPY_ROWS[a, b])

    @pytest.mark.parametrize("a", sorted(ENTROPY_GRID))
    def test_grid(self, a):
        for b, exact in zip(ENTROPY_RATES, ENTROPY_GRID[a]):
            assert_entropy(a, b, exact)

    def test_subnormal_shape_is_a_domain_error(self):
        # 1/a overflows, so H = -1/a + ... is below the float range
        with pytest.raises(DomainError, match=r"shape a = 1e-310"):
            differential_entropy_gamma(GammaDist(a=1e-310, b=1.0))

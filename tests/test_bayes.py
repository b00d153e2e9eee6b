"""Tests for priors, Gamma posteriors, upper limits, and related diagnostics.

Reference values were computed with mpmath at 30 significant digits.
"""

import math

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

    def test_normalized_mode_passes_through_unit_point(self):
        for kind in [PriorKind.BL, PriorKind.JJ, PriorKind.JR]:
            assert prior_density(kind, 1.0, normalized=True) == 1.0
        np.testing.assert_allclose(
            prior_density(PriorKind.ME, 1.0, t=3.0, normalized=True), 1.0, rtol=1e-13
        )
        # the rescaling shifts the ME origin value from t e^0 to e^t
        np.testing.assert_allclose(
            prior_density(PriorKind.ME, 0.0, t=1.0, normalized=True),
            math.e,
            rtol=1e-13,
        )

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

    def test_variance_past_the_float_range_names_the_rate(self):
        post = posterior_from_sufficient(0, 1, 1e-300, prior_params(PriorKind.BL))
        assert math.isfinite(post.mean)
        with pytest.raises(DomainError, match="past the float range for B = 1e-300"):
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

        def counting(a, x):
            nonlocal calls
            calls += 1
            return gamma_pq(a, x)

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

    def test_cl_domain(self):
        post = posterior_from_sufficient(0, 1, 1.0, prior_params(PriorKind.BL))
        with pytest.raises(DomainError):
            upper_limit(post, 0.0)
        with pytest.raises(DomainError):
            upper_limit(post, 1.0)

    def test_one_count_limit_equals_bl_mean(self):
        post = posterior_from_sufficient(0, 1, 1.0, prior_params(PriorKind.BL))
        assert one_count_upper_limit(1.0, 1.0) == post.mean == 1.0


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

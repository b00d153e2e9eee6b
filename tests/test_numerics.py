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
TIGHT = ToleranceConfig(abs_tol=1e-15, quad_rel_tol=1e-13)


class TestToleranceConfig:
    def test_defaults(self):
        assert DEFAULT_TOL.abs_tol == 1e-12
        assert DEFAULT_TOL.quad_rel_tol == 1e-9
        assert [f.name for f in dataclasses.fields(ToleranceConfig)] == ["abs_tol", "quad_rel_tol"]

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
            {"abs_tol": -math.inf},
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

        def density(u):
            return np.exp((a - 1.0) * np.log(u) - u - log_norm)

        q = integrate_semi_infinite(density, lower=x, tol=TIGHT)
        p = reg_inc_gamma_lower(a, x)
        assert abs(p + q - 1.0) <= 1e-12

    def test_complement_doubling_route(self):
        a, x = 2.5, 1.0
        log_norm = log_gamma(a)
        q = integrate_semi_infinite(
            lambda u: np.exp((a - 1.0) * np.log(u) - u - log_norm),
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


# Roots of P(a, x) = p for the double p, from mpmath at 40 digits (findroot
# on the smaller tail: P - p for p <= 1/2, (1 - p) - Q otherwise), rounded to
# the nearest double. Rows are shapes; columns follow INVERSE_CLS.
INVERSE_CLS = (
    1e-6, 1e-3, 0.05, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12,
)
INVERSE_ROOTS = {
    0.5: (
        7.853981633978594e-13, 7.85398574631245e-07, 0.0019660700000097616,
        0.007895387046715613, 0.2274682115597864, 1.3527717270477075,
        1.9207294103470622, 3.317448300510607, 5.4137830853313655,
        11.964063488439734, 18.66244655325936, 25.422085666224586,
    ),
    1.0: (
        1.0000005000003334e-06, 0.0010005003335835335, 0.051293294387550536,
        0.10536051565782631, 0.6931471805599453, 2.302585092994046,
        2.99573227355399, 4.605170185988091, 6.907755278982136,
        13.815510557935518, 20.723265865228342, 27.63104323789336,
    ),
    1.5: (
        0.00012090524360062141, 0.012148792907846366, 0.1759231588746357,
        0.2921871870775916, 1.182986942187669, 3.1256943155851618,
        3.907363951625589, 5.672433365072185, 8.133118098119064,
        15.332424853077134, 22.42063769418063, 29.459900332952348,
    ),
    2.0: (
        0.001414880661479343, 0.04540201776948956, 0.35536151069866206,
        0.5318116083896121, 1.6783469900166605, 3.8897201698674295,
        4.743864518390577, 6.638352067993811, 9.233413476451585,
        16.68842079082944, 23.939727895037286, 31.099896029053795,
    ),
    3.0: (
        0.018254282963279293, 0.1905333775684032, 0.8176914471639534,
        1.1020653282493211, 2.6740603137235603, 5.32232033783421,
        6.295793621871988, 8.405946914885464, 11.228872242412661,
        19.129168188572923, 26.672286589132252, 34.05239764948628,
    ),
    5.0: (
        0.16906300162147725, 0.7393717319178326, 1.97014956805953,
        2.4325910259626644, 4.670908882795984, 7.9935895860526305,
        9.153519026637571, 11.604625579477178, 14.794149222537209,
        23.43152342335784, 31.47272874252078, 39.2358478401201,
    ),
    10.0: (
        1.276818787864408, 2.9605203727437597, 5.425405697091293,
        6.221304605225033, 9.668714614714132, 14.205990292152817,
        15.70521642211546, 18.783117393312523, 22.65737330906293,
        32.71034051748481, 41.73956221662375, 50.27991130602983,
    ),
    30.0: (
        10.710858650758844, 15.869170797140358, 21.593979226994882,
        23.229444150101724, 29.66733313822123, 37.1985028596843,
        39.540972243924365, 44.189709450724656, 49.803616534924686,
        63.54818012481632, 75.24037981905084, 85.92954232248108,
    ),
    100.0: (
        59.43632069812289, 71.9213974950004, 84.13927721831419,
        87.41763649959366, 99.66686491931549, 113.01052385984448,
        116.99713444616246, 124.7225614907208, 133.7702639113786,
        154.91904599496158, 172.07103987000212, 187.24800173918598,
    ),
    1000.0: (
        856.8146512793919, 905.1207909349766, 948.5598493836511,
        959.6939327288333, 999.6666864269652, 1040.73430801369,
        1052.5771180823206, 1075.032832086435, 1100.5780982933145,
        1157.577911008724, 1201.4728731116943, 1238.8645816054106,
    ),
    10000.0: (
        9531.835117189807, 9693.824385823726, 9836.085110855192,
        9872.060875049736, 9999.666668642047, 10128.367373674177,
        10165.051911966126, 10234.104379158054, 10311.875224539537,
        10482.561164638257, 10611.486364888995, 10719.692099677293,
    ),
    30000.0: (
        29183.8691485772, 29467.604632153358, 29715.67264101783,
        29778.24398340006, 29999.66666732511, 30222.184265914657,
        30285.46438590226, 30404.40530586294, 30538.095031615292,
        30830.527408769085, 31050.536246434585, 31234.617822599397,
    ),
    100000.0: (
        98504.02706509772, 99025.63189050092, 99480.42074678872,
        99594.95253927626, 99999.6666668642, 100405.47571024523,
        100520.7162815659, 100737.12609678283, 100980.06779195923,
        101510.36958867917, 101908.34622530905, 102240.6875730043,
    ),
}
# (shape, p) -> root for perfbench's LIMIT_PROBE records: BL with S = 3e4 at
# CL 0.9, S = 1e5 at 0.95 and S = 1e6 at 0.95, all with n = 1 and t = 1
PROBE_ROOTS = {
    (30001.0, 0.9): 30223.187965422894,
    (100001.0, 0.95): 100521.71888230444,
    (1000001.0, 0.95): 1001646.4227676168,
}


def inverse_bound(a):
    """Relative accuracy the inverse reaches at shape ``a``.

    Past a few thousand, rounding in P's prefactor ``a ln x - x`` (about
    ulp(a ln a)) moves P near the root by up to 3.4e-11 at a = 3e4, which is
    5e-13 of the root; the inverse cannot be closer than P allows.
    """
    if a <= 100.0:
        return 1e-14
    return 2e-13 if a <= 1e4 else 2e-12


class TestInverseAgainstMpmath:
    @pytest.mark.parametrize("a", sorted(INVERSE_ROOTS))
    def test_grid(self, a):
        got = [inv_reg_inc_gamma_lower(a, p) for p in INVERSE_CLS]
        np.testing.assert_allclose(got, INVERSE_ROOTS[a], rtol=inverse_bound(a), atol=0)

    @pytest.mark.parametrize("a, p", sorted(PROBE_ROOTS))
    def test_limit_probe_inputs(self, a, p):
        np.testing.assert_allclose(
            inv_reg_inc_gamma_lower(a, p), PROBE_ROOTS[a, p], rtol=2e-12, atol=0
        )

    def test_root_below_the_smallest_double_is_a_convergence_error(self):
        # P(0.5, x) = 1e-200 at x ~ 1e-400, which underflows
        with pytest.raises(ConvergenceError):
            inv_reg_inc_gamma_lower(0.5, 1e-200)


class TestInverseWorkCount:
    """Forward (P, Q) evaluations per inverse on the frozen grid. The counts
    are deterministic: a mean of 3.99 and a maximum of 9, where the bracket
    search with Newton polishing that this loop replaced needed 6 to 85 (mean
    18.5) and failed at 3 of the 156 points."""

    def test_evaluations_are_capped(self, monkeypatch):
        calls = 0
        gamma_pq = numerics._gamma_pq

        def counting(a, x):
            nonlocal calls
            calls += 1
            return gamma_pq(a, x)

        monkeypatch.setattr(numerics, "_gamma_pq", counting)
        counts = []
        for a in INVERSE_ROOTS:
            for p in INVERSE_CLS:
                calls = 0
                inv_reg_inc_gamma_lower(a, p)
                counts.append(calls)
        assert sum(counts) / len(counts) <= 5.0
        assert max(counts) <= 10


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
            lambda u: np.exp(-u) / (u * u), lower=x, tol=TIGHT
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
        value = integrate_semi_infinite(lambda x: np.exp(-x), strategy=strategy)
        np.testing.assert_allclose(value, 1.0, rtol=1e-9)

    @pytest.mark.parametrize("strategy", ["transform", "doubling"])
    def test_first_moment(self, strategy):
        value = integrate_semi_infinite(lambda x: x * np.exp(-x), strategy=strategy)
        np.testing.assert_allclose(value, 1.0, rtol=1e-9)

    @pytest.mark.parametrize("strategy", ["transform", "doubling"])
    def test_gaussian_tail(self, strategy):
        value = integrate_semi_infinite(lambda x: np.exp(-x * x), strategy=strategy)
        np.testing.assert_allclose(value, 0.886226925452758014, rtol=1e-9)

    @pytest.mark.parametrize("strategy", ["transform", "doubling"])
    def test_shifted_lower_bound(self, strategy):
        value = integrate_semi_infinite(
            lambda x: np.exp(-x), lower=2.0, strategy=strategy
        )
        np.testing.assert_allclose(value, math.exp(-2.0), rtol=1e-9)

    def test_strategies_agree(self):
        log_norm = log_gamma(2.5)
        f = lambda x: x**1.5 * np.exp(-x - log_norm)
        via_transform = integrate_semi_infinite(f, strategy="transform")
        via_doubling = integrate_semi_infinite(f, strategy="doubling")
        np.testing.assert_allclose(via_transform, 1.0, rtol=1e-9)
        np.testing.assert_allclose(via_doubling, 1.0, rtol=1e-9)
        np.testing.assert_allclose(via_transform, via_doubling, rtol=1e-8)

    def test_divergent_integrand_transform(self):
        # 1/theta near the origin is not integrable; the failure must carry
        # the partial sum instead of silently returning a number
        with pytest.raises(QuadratureError) as excinfo:
            integrate_semi_infinite(
                lambda x: np.divide(np.exp(-x), x, out=np.zeros_like(x), where=x > 0.0)
            )
        assert excinfo.value.partial_sum is not None
        assert excinfo.value.error_estimate is not None

    def test_divergent_integrand_doubling(self):
        with pytest.raises(QuadratureError) as excinfo:
            integrate_semi_infinite(lambda x: 1.0 / (1.0 + x), strategy="doubling")
        assert excinfo.value.partial_sum is not None
        assert excinfo.value.partial_sum > 10.0

    def test_non_finite_integrand(self):
        def bad(x):
            return np.where(x > 3.0, np.nan, np.exp(-x))

        with pytest.raises(QuadratureError, match="non-finite"):
            integrate_semi_infinite(bad)

    @pytest.mark.parametrize("strategy", ["transform", "doubling"])
    def test_vector_integrand(self, strategy):
        # one call per panel: the 15 nodes in, a (15, K) block out
        rates = np.array([0.5, 1.0, 4.0, 50.0])
        shapes = []

        def f(x):
            shapes.append(x.shape)
            return np.exp(-np.outer(x, rates))

        value = integrate_semi_infinite(f, strategy=strategy)
        assert isinstance(value, np.ndarray) and value.shape == (4,)
        np.testing.assert_allclose(value, 1.0 / rates, rtol=1e-9)
        assert set(shapes) == {(15,)}
        assert isinstance(integrate_semi_infinite(lambda x: np.exp(-x)), float)

    def test_every_component_meets_its_tolerance(self):
        # a component a billion times smaller than its neighbour still gets
        # its own relative tolerance
        tol = ToleranceConfig(abs_tol=1e-300, quad_rel_tol=1e-9)
        value = integrate_semi_infinite(
            lambda x: np.stack([np.exp(-x), 1e-9 * x * np.exp(-x)], axis=1), tol=tol
        )
        np.testing.assert_allclose(value, [1.0, 1e-9], rtol=1e-9)

    def test_bad_integrand_shape(self):
        with pytest.raises(DomainError, match="shape"):
            integrate_semi_infinite(lambda x: np.exp(-x)[:-1])
        with pytest.raises(DomainError, match="shape"):
            integrate_semi_infinite(lambda x: 1.0)

    def test_invalid_arguments(self):
        with pytest.raises(DomainError):
            integrate_semi_infinite(lambda x: np.exp(-x), lower=-1.0)
        with pytest.raises(DomainError):
            integrate_semi_infinite(lambda x: np.exp(-x), strategy="romberg")


class TestKronrodRule:
    # The G7/K15 pair derived with mpmath at 50 digits (roots of P7 and of
    # the Stieltjes polynomial E8, weights from the moment equations),
    # frozen at 36 digits; the QUADPACK QK15 table agrees to 1e-24.
    K15_NODES = (
        "0.991455371120812639206854697526328517", "0.949107912342758524526189684047851262",
        "0.864864423359769072789712788640926201", "0.741531185599394439863864773280788407",
        "0.586087235467691130294144838258729598", "0.405845151377397166906606412076961463",
        "0.207784955007898467600689403773244913", "0.0",
    )
    K15_WEIGHTS = (
        "0.022935322010529224963732008058969592", "0.0630920926299785532907006631892042867",
        "0.104790010322250183839876322541518017", "0.14065325971552591874518959051023792",
        "0.169004726639267902826583426598550284", "0.190350578064785409913256402421013683",
        "0.204432940075298892414161999234649085", "0.209482141084727828012999174891714264",
    )
    G7_WEIGHTS = (
        "0.129484966168869693270611432679082018", "0.279705391489276667901467771423779582",
        "0.381830050505118944950369775488975134", "0.417959183673469387755102040816326531",
    )

    @staticmethod
    def symmetric(half, sign):
        # frozen values run from the outermost node to the centre; sign -1
        # makes them the left half of the nodes
        values = [float(v) for v in half]
        return [sign * v for v in values] + [v for v in reversed(values[:-1])]

    @pytest.mark.parametrize("rule", ["K15", "G7"])
    def test_literals_equal_frozen_derivation(self, rule):
        # the G7 nodes are the odd-indexed K15 nodes, checked with K15
        assert list(numerics._K15_NODES) == self.symmetric(self.K15_NODES, -1.0)
        if rule == "K15":
            assert list(numerics._K15_WEIGHTS) == self.symmetric(self.K15_WEIGHTS, 1.0)
        else:
            assert list(numerics._G7_WEIGHTS) == self.symmetric(self.G7_WEIGHTS, 1.0)

    @pytest.mark.parametrize(
        "weights,stride,degree",
        [(numerics._K15_WEIGHTS, 1, 22), (numerics._G7_WEIGHTS, 2, 13)],
        ids=["K15", "G7"],
    )
    def test_exact_on_polynomials(self, weights, stride, degree):
        # the Gauss nodes are every other Kronrod node
        nodes = numerics._K15_NODES[stride - 1 :: stride]
        for k in range(degree + 1):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            approx = math.fsum(w * x**k for x, w in zip(nodes, weights))
            assert abs(approx - exact) <= 1e-14, k

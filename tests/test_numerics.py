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

    def test_huge_shape_at_the_median(self):
        # the series needed ~10^7 terms here and raised; mpmath's series cannot
        # converge either, so the reference is scipy.special.gammainc (1.17.1),
        # which equals 1/2 + (1/3 - ...)/sqrt(2 pi a) from the exact d_{k,0}
        np.testing.assert_allclose(
            reg_inc_gamma_lower(1e12, 1e12), 0.5000001329807602, rtol=1e-15, atol=0
        )

    def test_huge_argument_saturates(self):
        # Q underflows with the continued fraction's prefactor, which could
        # not settle once x passed 2^53
        assert numerics._gamma_pq(0.05735840335074297, 6.535661950733763e89) == (1.0, 0.0)
        assert numerics._gamma_pq(67881277.6678195, 8.126175282122717e273) == (1.0, 0.0)

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


# (a, x, P, Q) from mpmath at 120 digits (P as x^a e^-x / Gamma(a + 1) times
# 1F1(1; a + 1; x), Q = 1 - P, checked against mpmath's gammainc below
# a = 1000), rounded to doubles. x sits at smaller tails of 0.2, 1e-6 and
# 1e-60 on both sides, and 1e-13 either side of every switch between regions:
# x = 3/2 for a < 1/2, 1.5a + 1.2 for non-integer 1/2 < a < 3, a + 1 up to
# a = 50, a -+ 0.3a above it, and a = 1/2, 3 and 50 themselves. Points whose
# smaller tail is below 1e-70 are left out.
FORWARD_REFERENCES = (
    (1e-06, 0.26473704390035446, 0.999999, 9.999999999999995e-07),
    (1e-06, 1.49999999999985, 0.9999998999802843, 1.0001971577314906e-07),
    (1e-06, 1.5000000000001499, 0.9999998999802843, 1.0001971577310443e-07),
    (1e-06, 119.54762321449276, 1.0, 1.000000000000006e-60),
    (0.001, 6.912934354188501e-98, 0.7999999999999999, 0.20000000000000004),
    (0.001, 1.49999999999985, 0.999899847040343, 0.00010015295965703674),
    (0.001, 1.5000000000001499, 0.999899847040343, 0.00010015295965699207),
    (0.001, 5.12002508378954, 0.999999, 9.99999999999998e-07),
    (0.001, 126.40546004855226, 1.0, 1.0000000000000062e-60),
    (0.05, 5.844632057286552e-121, 9.999999999999997e-07, 0.999999),
    (0.05, 6.128540904101326e-15, 0.20000000000000004, 0.7999999999999999),
    (0.05, 0.006781997575174137, 0.8, 0.19999999999999998),
    (0.05, 1.49999999999985, 0.9946644061205129, 0.005335593879487157),
    (0.05, 1.5000000000001499, 0.9946644061205152, 0.005335593879484818),
    (0.05, 8.696862667919895, 0.999999, 9.999999999999997e-07),
    (0.05, 130.5508552925047, 1.0, 1.0000000000000056e-60),
    (0.3, 6.972699096409037e-201, 9.999999999999911e-61, 1.0),
    (0.3, 6.97269909640939e-21, 1.0000000000000019e-06, 0.999999),
    (0.3, 0.0032703395246849493, 0.20000000000000007, 0.7999999999999999),
    (0.3, 0.4600738869878513, 0.8, 0.2),
    (0.3, 1.49999999999985, 0.9578905367041022, 0.04210946329589782),
    (0.3, 1.5000000000001499, 0.957890536704119, 0.04210946329588097),
    (0.3, 10.984835632135779, 0.999999, 1.0000000000000014e-06),
    (0.3, 133.62758136997076, 1.0, 9.999999999999777e-61),
    (0.49999999999995, 1.0, 0.8427007929497343, 0.15729920705026562),
    (0.49999999999995, 2.0, 0.9544997361036484, 0.04550026389635163),
    (0.5, 7.85398163397479e-121, 1.0000000000000196e-60, 1.0),
    (0.5, 7.853981633978593e-13, 1e-06, 0.999999),
    (0.5, 0.0320923773336508, 0.20000000000000004, 0.7999999999999999),
    (0.5, 0.8211872075748946, 0.7999999999999963, 0.20000000000000373),
    (0.5, 1.49999999999985, 0.9167354833364342, 0.08326451666356582),
    (0.5, 1.5000000000001499, 0.916735483336465, 0.083264516663535),
    (0.5, 11.964063488467414, 0.999999, 1.000000000000001e-06),
    (0.5, 135.12597027829707, 1.0, 9.9999999999999e-61),
    (0.50000000000005, 1.0, 0.8427007929496954, 0.15729920705030462),
    (0.50000000000005, 2.0, 0.9544997361036348, 0.04550026389636519),
    (0.7, 1.683732939061459e-86, 9.999999999999921e-61, 1.0),
    (0.7, 2.3395393357732745e-09, 1.0000000000000031e-06, 0.999999),
    (0.7, 0.09233859795061868, 0.20000000000000004, 0.7999999999999999),
    (0.7, 1.1506443435653346, 0.8000000000000008, 0.1999999999999992),
    (0.7, 2.249999999999775, 0.9421595675302011, 0.05784043246979884),
    (0.7, 2.2500000000002247, 0.9421595675302298, 0.057840432469770206),
    (0.7, 12.768858085344487, 0.999999, 1.0000000000000008e-06),
    (0.7, 136.41734177163914, 1.0, 1.000000000000005e-60),
    (1.0, 1.0000000000000139e-60, 1.0000000000000139e-60, 1.0),
    (1.0, 1.0000005000003338e-06, 1.0000000000000004e-06, 0.999999),
    (1.0, 0.22314355131420974, 0.19999999999999998, 0.8),
    (1.0, 1.6094379124341, 0.7999999999999999, 0.20000000000000007),
    (1.0, 1.9999999999998, 0.8646647167633602, 0.13533528323663976),
    (1.0, 2.0000000000002, 0.8646647167634144, 0.13533528323658564),
    (1.0, 13.815510557964274, 0.999999, 1.0000000000000004e-06),
    (1.0, 138.15510557964274, 1.0, 1.0000000000000048e-60),
    (1.5, 1.2089939655123503e-40, 9.999999999999976e-61, 1.0),
    (1.5, 0.00012090524360062132, 9.99999999999999e-07, 0.999999),
    (1.5, 0.5025870065261746, 0.19999999999999998, 0.8),
    (1.5, 2.320813838043724, 0.8000000000000003, 0.1999999999999998),
    (1.5, 3.449999999999655, 0.9248456574361893, 0.0751543425638107),
    (1.5, 3.450000000000345, 0.9248456574362351, 0.07515434256376483),
    (1.5, 15.332424853106799, 0.999999, 1.0000000000000006e-06),
    (1.5, 140.75292442613096, 1.0, 1.0000000000000196e-60),
    (2.5, 1.6167038902915715e-24, 1.0000000000000114e-60, 1.0),
    (2.5, 0.0064480801032485435, 9.99999999999998e-07, 0.999999),
    (2.5, 1.1712671529205605, 0.20000000000000004, 0.7999999999999999),
    (2.5, 3.6446380633244826, 0.8000000000000003, 0.19999999999999973),
    (2.5, 4.9499999999995055, 0.9218812023396942, 0.07811879766030581),
    (2.5, 4.950000000000495, 0.9218812023397522, 0.07811879766024775),
    (2.5, 17.944093439836433, 0.999999, 1.0000000000000023e-06),
    (2.5, 145.34943591627496, 1.0, 9.999999999999885e-61),
    (2.9999999999997, 4.5, 0.8264219290900073, 0.1735780709099926),
    (3.0, 1.8171205928321334e-20, 9.999999999999896e-61, 1.0),
    (3.0, 0.018254282963279297, 1.0000000000000006e-06, 0.999999),
    (3.0, 1.5350442026446436, 0.20000000000000004, 0.7999999999999999),
    (3.0, 3.9999999999996, 0.7618966944463971, 0.23810330555360298),
    (3.0, 4.0000000000004, 0.7618966944465142, 0.23810330555348577),
    (3.0, 4.279029860125333, 0.7999999999999999, 0.20000000000000004),
    (3.0, 19.129168188604844, 0.999999, 9.999999999999995e-07),
    (3.0, 147.4626708717913, 1.0, 9.99999999999982e-61),
    (3.0000000000002998, 4.5, 0.8264219290899206, 0.1735780709100794),
    (7.5, 3.5723928540712025e-08, 1.0000000000000085e-60, 1.0),
    (7.5, 0.6079999579469528, 1.0000000000000002e-06, 0.999999),
    (7.5, 5.153479503312644, 0.20000000000000018, 0.7999999999999998),
    (7.5, 8.49999999999915, 0.6811355945475835, 0.31886440545241646),
    (7.5, 8.500000000000849, 0.6811355945477868, 0.31886440545221323),
    (7.5, 9.655328555295458, 0.8000000000000002, 0.19999999999999984),
    (7.5, 28.24672124988669, 0.999999, 1.0000000000000016e-06),
    (7.5, 163.80226279300783, 1.0, 1.0000000000000076e-60),
    (30.0, 0.12091565519526183, 9.999999999999795e-61, 1.0),
    (30.0, 10.71085865075884, 9.999999999999932e-07, 0.999999),
    (30.0, 25.32030896555818, 0.19999999999999993, 0.8),
    (30.0, 30.9999999999969, 0.5953478209653964, 0.4046521790346036),
    (30.0, 31.000000000003098, 0.5953478209658252, 0.4046521790341749),
    (30.0, 34.48603436958551, 0.7999999999999999, 0.20000000000000012),
    (30.0, 63.5481801248681, 0.999999, 9.999999999999847e-07),
    (30.0, 223.96980549965636, 1.0, 1.000000000000002e-60),
    (49.999999999995, 50.0, 0.518808315472326, 0.481191684527674),
    (49.999999999995, 60.0, 0.9155933189064146, 0.08440668109358536),
    (50.0, 1.2600535232736672, 9.99999999999968e-61, 1.0),
    (50.0, 23.25066535794657, 9.999999999999743e-07, 0.999999),
    (50.0, 43.97266796137551, 0.2, 0.7999999999999999),
    (50.0, 50.9999999999949, 0.5743948595165806, 0.4256051404834193),
    (50.0, 51.000000000005095, 0.5743948595171382, 0.4256051404828618),
    (50.0, 55.83335657914517, 0.8000000000000002, 0.19999999999999987),
    (50.0, 91.06338855977383, 0.999999, 9.999999999999817e-07),
    (50.0, 267.6926576430016, 1.0, 9.999999999999739e-61),
    (50.000000000004995, 50.0, 0.518808315471761, 0.481191684528239),
    (50.000000000004995, 60.0, 0.9155933189062019, 0.08440668109379815),
    (50.5, 1.3082444586719506, 1.0000000000000005e-60, 1.0),
    (50.5, 23.58492772620111, 1.000000000000017e-06, 0.999999),
    (50.5, 35.34999999999646, 0.009531453604998652, 0.9904685463950014),
    (50.5, 35.35000000000353, 0.009531453605031001, 0.990468546394969),
    (50.5, 44.44288036465899, 0.20000000000000007, 0.7999999999999999),
    (50.5, 56.36313945935877, 0.8, 0.19999999999999998),
    (50.5, 65.64999999999344, 0.9770071042243311, 0.022992895775668914),
    (50.5, 65.65000000000657, 0.9770071042244157, 0.022992895775584294),
    (50.5, 91.7299439507133, 0.999999, 1.000000000000022e-06),
    (50.5, 268.72623093011345, 1.0, 1.0000000000000033e-60),
    (100.0, 10.598594272387789, 1.0000000000000128e-60, 1.0),
    (100.0, 59.43632069812289, 9.999999999999978e-07, 0.999999),
    (100.0, 69.999999999993, 0.00043037259497851187, 0.9995696274050215),
    (100.0, 70.00000000000699, 0.00043037259498126705, 0.9995696274050188),
    (100.0, 91.50139540313432, 0.19999999999999998, 0.8),
    (100.0, 108.30439161901411, 0.7999999999999999, 0.2000000000000001),
    (100.0, 129.99999999998698, 0.9972495916326842, 0.0027504083673157865),
    (100.0, 130.000000000013, 0.9972495916327027, 0.002750408367297286),
    (100.0, 154.91904599503897, 0.999999, 1.0000000000000052e-06),
    (100.0, 362.8404769403811, 1.0, 9.999999999999895e-61),
    (1000.0, 566.7126148444644, 9.999999999998286e-61, 1.0),
    (1000.0, 699.99999999993, 1.0158583345025996e-26, 1.0),
    (1000.0, 700.0000000000699, 1.0158583345639939e-26, 1.0),
    (1000.0, 856.8146512793919, 1.0000000000000031e-06, 0.999999),
    (1000.0, 973.293038491621, 0.1999999999999995, 0.8000000000000005),
    (1000.0, 1026.5125359294482, 0.7999999999999998, 0.20000000000000015),
    (1000.0, 1157.5779110089263, 0.999999, 1.0000000000000095e-06),
    (1000.0, 1299.99999999987, 1.0, 1.8736155716355813e-18),
    (1000.0, 1300.0000000001298, 1.0, 1.8736155715216286e-18),
    (1000.0, 1611.3299384247923, 1.0, 9.99999999999312e-61),
    (10000.0, 8448.342357462905, 1.0000000000000308e-60, 1.0),
    (10000.0, 9531.835117189807, 1.0000000000000046e-06, 0.999999),
    (10000.0, 9915.742124149649, 0.1999999999999995, 0.8000000000000005),
    (10000.0, 10084.063429072321, 0.8, 0.2),
    (10000.0, 10482.561164638855, 0.999999, 1.000000000000027e-06),
    (10000.0, 11730.184142221335, 1.0, 9.999999999999798e-61),
    (100000.0, 94903.63568973969, 9.999999999999862e-61, 1.0),
    (100000.0, 98504.02706509772, 1.0000000000000258e-06, 0.999999),
    (100000.0, 99733.75923816286, 0.20000000000000595, 0.799999999999994),
    (100000.0, 100266.04631293981, 0.7999999999999982, 0.2000000000000018),
    (100000.0, 101510.36958868102, 0.999999, 1.000000000000033e-06),
    (100000.0, 105274.93939799478, 1.0, 1.000000000000217e-60),
)


class TestForwardAgainstMpmath:
    @pytest.mark.parametrize("a", sorted({row[0] for row in FORWARD_REFERENCES}))
    def test_smaller_tail_to_1e13(self, a):
        for _, x, p, q in (row for row in FORWARD_REFERENCES if row[0] == a):
            got_p, got_q = numerics._gamma_pq(a, x)
            (tail, got_tail), (rest, got_rest) = sorted([(p, got_p), (q, got_q)])
            assert abs(got_tail - tail) <= 1e-13 * tail, (a, x)
            assert abs(got_rest - rest) <= 1e-13, (a, x)
            assert reg_inc_gamma_lower(a, x) == got_p


class TestTemmeCoefficients:
    # d_{k,n} of DLMF 8.12.12 derived in exact rational arithmetic (Lagrange
    # inversion of eta(s), s = x/a - 1, then the recursion over Stirling's
    # coefficients g_k), frozen at 30 digits
    TEMME_D = (
        (
            "-3.33333333333333333333333333333e-1", "8.33333333333333333333333333333e-2",
            "-1.48148148148148148148148148148e-2", "1.15740740740740740740740740741e-3",
            "3.52733686067019400352733686067e-4", "-1.78755144032921810699588477366e-4",
            "3.91926317852243778169704095630e-5", "-2.18544851067999216147364295512e-6",
            "-1.85406221071515996070179883623e-6", "8.29671134095308600501624213166e-7",
            "-1.76659527368260793043600542457e-7", "6.70785354340149858036939710030e-9",
            "1.02618097842403080425739573227e-8", "-4.38203601845335318655297462245e-9",
            "9.14769958223679023418248817633e-10",
        ),
        (
            "-1.85185185185185185185185185185e-3", "-3.47222222222222222222222222222e-3",
            "2.64550264550264550264550264550e-3", "-9.90226337448559670781893004115e-4",
            "2.05761316872427983539094650206e-4", "-4.01877572016460905349794238683e-7",
            "-1.80985503344899778370285914868e-5", "7.64916091608111008463742149809e-6",
            "-1.61209008945634460037752218822e-6", "4.64712780280743434226135033939e-9",
            "1.37863344691572095931187533077e-7", "-5.75254560351770496402194531835e-8",
            "1.19516285997781473243076536700e-8", "-1.75432417197476476237547551202e-11",
            "-1.00915437106004126274577504687e-9",
        ),
        (
            "4.13359788359788359788359788360e-3", "-2.68132716049382716049382716049e-3",
            "7.71604938271604938271604938272e-4", "2.00938786008230452674897119342e-6",
            "-1.07366532263651605215391223622e-4", "5.29234488291201254164217127180e-5",
            "-1.27606351886187277133779191392e-5", "3.42357873409613807419020039047e-8",
            "1.37219573090629332055943852926e-6", "-6.29899213838005502290672234278e-7",
            "1.42806142060642417915846008823e-7", "-2.04770984219908660149195854409e-10",
            "-1.40925299108675210532930244154e-8",
        ),
        (
            "6.49434156378600823045267489712e-4", "2.29472093621399176954732510288e-4",
            "-4.69189494395255712128140111679e-4", "2.67720632062838852962309752433e-4",
            "-7.56180167188397641072538191880e-5", "-2.39650511386729665193314027333e-7",
            "1.10826541153473023614770299727e-5", "-5.67495282699159656749963105702e-6",
            "1.42309007324358839145518944706e-6", "-2.78610802915281422405802158211e-11",
            "-1.69584040919302772898641687958e-7", "8.09946490538808236335278504853e-8",
        ),
        (
            "-8.61888290916711698604702719929e-4", "7.84039221720066627474034881442e-4",
            "-2.99072480303190179733389609933e-4", "-1.46384525788434181781232535691e-6",
            "6.64149821546512218665853782452e-5", "-3.96836504717943466443123507595e-5",
            "1.13757269706784190980552042886e-5", "2.50749722623753280165221942390e-10",
            "-1.69541495365583060147164356782e-6", "8.90750753220530968882898422506e-7",
        ),
        (
            "-3.36798553366358150308767592718e-4", "-6.97281375836585777429398828576e-5",
            "2.77275324495939207873364251965e-4", "-1.99325705161888477003360405281e-4",
            "6.79778047793720783881640176604e-5", "1.41906292064396701483392727106e-7",
            "-1.35940481897686932784583938838e-5", "8.01847025633420153971925719804e-6",
        ),
        (
            "5.31307936463992223165748542978e-4", "-5.92166437353693882864836225604e-4",
            "2.70878209671804482771279183488e-4", "7.90235323266032787212032944391e-7",
            "-8.15396936756196875092890088465e-5", "5.61168275310624965003775619041e-5",
        ),
        (
            "3.44367606892377671254279625109e-4", "5.17179090826059219337057843002e-5",
            "-3.34931610811422363116635090580e-4", "2.81269515476323702273722110708e-4",
        ),
        (
            "-6.52623918595309418922034919727e-4", "8.39498720672087279993357516765e-4",
        ),
    )
    # (-1)^k (zeta(k) - 1) / k for k = 2..14, from mpmath at 60 digits
    LGAMMA1P_ZETA = (
        "3.22467033424113218236207583323e-1", "-6.73523010531980951332460538371e-2",
        "2.05808084277845478790009241353e-2", "-7.38555102867398526627309729141e-3",
        "2.89051033074152328575298829849e-3", "-1.19275391170326097711393569283e-3",
        "5.09669524743042422335654813582e-4", "-2.23154758453579379761418803601e-4",
        "9.94575127818085337145958900319e-5", "-4.49262367381331417002075024064e-5",
        "2.05072127756706915531665039783e-5", "-9.43948827526839590398742510442e-6",
        "4.37486678990748780418179322395e-6",
    )

    def test_literals_equal_frozen_derivation(self):
        frozen = tuple(tuple(float(v) for v in row) for row in self.TEMME_D)
        assert numerics._TEMME_D == frozen

    def test_lgamma1p_literals_equal_frozen_values(self):
        assert numerics._LGAMMA1P_ZETA == tuple(float(v) for v in self.LGAMMA1P_ZETA)


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

    Above a = 50 the forward P no longer rounds ``a ln x`` (about ulp(a ln a),
    which cost up to 6.6e-13 of the root at a = 1e5); on this grid the roots
    for a > 100 are within 2.1e-16 (0 from a = 1e4 up).
    """
    return 1e-14 if a <= 100.0 else 1e-15


class TestInverseAgainstMpmath:
    @pytest.mark.parametrize("a", sorted(INVERSE_ROOTS))
    def test_grid(self, a):
        got = [inv_reg_inc_gamma_lower(a, p) for p in INVERSE_CLS]
        np.testing.assert_allclose(got, INVERSE_ROOTS[a], rtol=inverse_bound(a), atol=0)

    @pytest.mark.parametrize("a, p", sorted(PROBE_ROOTS))
    def test_limit_probe_inputs(self, a, p):
        np.testing.assert_allclose(
            inv_reg_inc_gamma_lower(a, p), PROBE_ROOTS[a, p], rtol=1e-15, atol=0
        )

    def test_tiny_shape_upper_tail(self):
        # Q = 5.9e-7 at a = 1.2e-6 is summed, not left as 1 - P (which put
        # this root 1e-9 off); root of Q(a, x) = 1 - p from mpmath at 60 digits
        np.testing.assert_allclose(
            inv_reg_inc_gamma_lower(1.2e-6, 0.99999941), 0.5613295436461045, rtol=1e-14, atol=0
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

    @pytest.mark.parametrize("a", [100.0, 300.0, 556.6167494495816, 1000.0])
    @pytest.mark.parametrize("p", [1e-100, 1e-200, 1e-290, 3.059533864394524e-305])
    def test_deep_lower_tail(self, monkeypatch, a, p):
        # iterating on P itself took up to 34 evaluations here (a = 556.6,
        # p = 3.06e-305, where P at the start underflows); ln P takes at most 6
        calls = 0
        gamma_pq = numerics._gamma_pq

        def counting(a, x):
            nonlocal calls
            calls += 1
            return gamma_pq(a, x)

        monkeypatch.setattr(numerics, "_gamma_pq", counting)
        x = inv_reg_inc_gamma_lower(a, p)
        assert calls <= 10
        assert abs(reg_inc_gamma_lower(a, x) / p - 1.0) <= 1e-12


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

    def test_doubling_waits_for_the_octaves_to_stop_growing(self):
        # the Gamma(51, 1) density holds 7e-44 of its mass in [0, 7]: those
        # octaves are below tolerance but rising, so they are not quiet
        log_norm = log_gamma(51.0)
        value = integrate_semi_infinite(
            lambda x: np.exp(50.0 * np.log(x) - x - log_norm), strategy="doubling"
        )
        np.testing.assert_allclose(value, 1.0, rtol=1e-9)

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
        # one call on the first panel's 15 nodes, then one per split on both
        # halves' 30 nodes; each call returns an (n, K) block
        rates = np.array([0.5, 1.0, 4.0, 50.0])
        calls = []

        def f(x):
            calls.append(x.copy())
            return np.exp(-np.outer(x, rates))

        value = integrate_semi_infinite(f, strategy=strategy)
        assert isinstance(value, np.ndarray) and value.shape == (4,)
        np.testing.assert_allclose(value, 1.0 / rates, rtol=1e-9)
        shapes = [x.shape for x in calls]
        assert shapes[0] == (15,) and set(shapes) == {(15,), (30,)}
        for x in calls:
            if x.size == 30:  # two disjoint panels
                left, right = np.sort(x[:15]), np.sort(x[15:])
                assert left[-1] < right[0] or right[-1] < left[0]
        if strategy == "transform":
            assert shapes.count((15,)) == 1
        else:
            # each doubling octave opens with one 15-node panel, and its
            # splits stay left of the next octave's
            starts = [i for i, shape in enumerate(shapes) if shape == (15,)]
            for i, j in zip(starts, starts[1:]):
                assert np.concatenate(calls[i:j]).max() < np.concatenate(calls[j:]).min()
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

"""Tests for marginalization of the two-parameter posteriors.

Reference values are exact combinations of frozen powers of e (checked
against mpmath at 30 significant digits), or marginal densities computed by
nested mpmath quadrature and frozen as literals; quadrature results are also
checked against analytic identities and between independent strategies.
"""

import hashlib
import math
from decimal import Decimal, localcontext

import numpy as np
import numpy.testing as npt
import pytest

from zerocount import marginal
from zerocount.distributions import GammaDist, gamma_pdf
from zerocount.errors import DomainError, QuadratureError
from zerocount.marginal import (
    MarginalComparison,
    make_theta_grid,
    nb_joint_density,
    nb_marginal_numeric,
    zpoisson_joint_posterior,
    zpoisson_marginal,
)
from zerocount.numerics import DEFAULT_TOL, ToleranceConfig
from zerocount.quadrature import integrate_semi_infinite

E_M1 = 0.367879441171442322
E_M2 = 0.135335283236612692
E_M3 = 0.049787068367863943

TIGHT = ToleranceConfig(abs_tol=1e-15, quad_rel_tol=1e-11)
# forces relative convergence even when the integrand is exponentially small
SCALEFREE = ToleranceConfig(abs_tol=1e-300, quad_rel_tol=1e-9)
# loose enough that the NB strategies' evidences disagree by more than 1e-6
LOOSE = ToleranceConfig(abs_tol=0.1, quad_rel_tol=0.5)


class TestZPoissonJoint:
    def test_reference_value_x0(self):
        npt.assert_allclose(zpoisson_joint_posterior(1.0, 1.0, 0), 2.0 * E_M3, rtol=1e-13)

    def test_reference_value_x1(self):
        npt.assert_allclose(zpoisson_joint_posterior(1.0, 1.0, 1), 4.0 * E_M3, rtol=1e-13)

    def test_psi_profile_x0(self):
        # x = 0 joint is proportional to psi e^{-psi}
        ratio = zpoisson_joint_posterior(0.8, 2.0, 0) / zpoisson_joint_posterior(0.8, 1.0, 0)
        npt.assert_allclose(ratio, 2.0 * E_M1, rtol=1e-13)

    def test_affine_in_psi_for_positive_x(self):
        # after dividing out e^{-psi} the x >= 1 joint is affine in psi
        a = zpoisson_joint_posterior(0.8, 1.0, 1) * math.exp(1.0)
        b = zpoisson_joint_posterior(0.8, 1.5, 1) * math.exp(1.5)
        c = zpoisson_joint_posterior(0.8, 2.0, 1) * math.exp(2.0)
        npt.assert_allclose(c, 2.0 * b - a, rtol=1e-12)

    def test_negative_lobe_beyond_validity(self):
        # psi > e^theta makes the x >= 1 integrand negative; the psi
        # integral cancels these lobes exactly
        assert zpoisson_joint_posterior(1.0, 3.0, 1) < 0.0

    def test_theta_zero_limits(self):
        npt.assert_allclose(
            zpoisson_joint_posterior(0.0, 2.0, 1), -4.0 * E_M2, rtol=1e-13
        )
        assert zpoisson_joint_posterior(0.0, 0.7, 2) == 0.0
        assert zpoisson_joint_posterior(0.0, 0.7, 5) == 0.0

    @pytest.mark.parametrize("x", [0, 1, 2])
    @pytest.mark.parametrize("psi", [0.5, 1.0, 2.5])
    def test_continuity_at_theta_zero(self, x, psi):
        limit = zpoisson_joint_posterior(0.0, psi, x)
        near = zpoisson_joint_posterior(1e-9, psi, x)
        npt.assert_allclose(near, limit, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("x", [0, 1, 3])
    def test_grid_matches_scalar_calls(self, x):
        theta, psi = np.array([0.0, 1e-9, 0.7, 4.0]), np.array([[0.3], [1.0], [2.5]])
        grid = zpoisson_joint_posterior(theta, psi, x)
        assert grid.shape == (3, 4)
        for i, p in enumerate(psi[:, 0]):
            for j, th in enumerate(theta):
                assert grid[i, j] == zpoisson_joint_posterior(th, p, x)

    def test_domain(self):
        with pytest.raises(DomainError):
            zpoisson_joint_posterior(-0.1, 1.0, 0)
        with pytest.raises(DomainError):
            zpoisson_joint_posterior(1.0, 0.0, 0)
        with pytest.raises(DomainError):
            zpoisson_joint_posterior(1.0, -1.0, 0)
        with pytest.raises(DomainError):
            zpoisson_joint_posterior(1.0, 1.0, -1)
        with pytest.raises(DomainError):
            zpoisson_joint_posterior(1.0, 1.0, 1.5)


def _nb_joint_plain(d, theta, x, a_lower=0.0):
    # marginal._nb_joint as it was before its passes were trimmed, verbatim
    a = a_lower + d
    log_joint = -(a * np.log1p(theta / a) + theta + d)
    for first in range(0, x, 8):
        block = 1.0
        for j in range(first, min(first + 8, x)):
            block = block * (theta / (j + 1.0) * ((a + j) / (a + theta)))
        log_joint = log_joint + np.log(block)
    return np.exp(log_joint)


class TestNBJoint:
    @pytest.mark.parametrize("a_lower", [0.0, 5.0, 760.0, 1e305])
    @pytest.mark.parametrize("x", [0, 1, 2, 8, 9, 17])
    def test_same_doubles_as_the_plain_form(self, x, a_lower):
        # the marginal's (nuisance x theta) grid, theta = 0 included
        d = np.geomspace(1e-12, 1e6, 37)[:, None]
        theta = np.concatenate([[0.0], np.geomspace(1e-9, 1e4, 40)])
        with np.errstate(divide="ignore"):
            for d_in, theta_in in ((d, theta), (d[::-1], theta[::3]), (d[5], theta[:1])):
                expected = _nb_joint_plain(d_in, theta_in, x, a_lower)
                assert np.isfinite(expected).all()
                assert np.array_equal(marginal._nb_joint(d_in, theta_in, x, a_lower), expected)

    @pytest.mark.parametrize("x", [0, 1, 2, 9])
    def test_scalars_give_the_plain_float(self, x):
        # a = 0 takes nb_joint_density's point-mass branch instead
        for theta, a in ((1.5, 2.0), (0.0, 2.0), (np.float64(40.0), 1e-12), (3.0, 0.0)):
            value = nb_joint_density(theta, a, x)
            assert type(value) is float
            if a > 0.0:
                with np.errstate(divide="ignore"):
                    assert value == float(_nb_joint_plain(np.asarray(a), np.asarray(theta), x))

    def test_reference_value(self):
        npt.assert_allclose(nb_joint_density(1.0, 1.0, 0), 0.5 * E_M2, rtol=1e-13)
        npt.assert_allclose(nb_joint_density(1.0, 1.0, 0), 0.067667641618306346, rtol=1e-12)

    def test_boundaries(self):
        npt.assert_allclose(nb_joint_density(0.0, 2.5, 0), math.exp(-2.5), rtol=1e-13)
        npt.assert_allclose(nb_joint_density(3.0, 0.0, 0), E_M3, rtol=1e-13)
        assert nb_joint_density(0.0, 1.0, 2) == 0.0
        assert nb_joint_density(2.0, 0.0, 1) == 0.0

    def test_small_a_continuity(self):
        # a -> 0 drives the NB factor to a point mass at x = 0
        npt.assert_allclose(nb_joint_density(1.0, 1e-12, 0), E_M1, rtol=1e-9)
        assert nb_joint_density(1.0, 1e-10, 1) < 1e-8

    @pytest.mark.parametrize(
        "theta,a,x", [(0.5, 2.0, 0), (2.0, 0.7, 3), (4.0, 8.0, 2), (5.0, 3.0, 11), (30.0, 50.0, 20)]
    )
    def test_matches_pmf_route(self, theta, a, x):
        from zerocount.distributions import NBParams, nb_pmf

        expected = nb_pmf(x, NBParams(theta=theta, a=a)) * math.exp(-theta - a)
        npt.assert_allclose(nb_joint_density(theta, a, x), expected, rtol=1e-12)

    @pytest.mark.parametrize("x", [0, 2, 11])
    def test_grid_matches_scalar_calls(self, x):
        theta, a = np.array([0.0, 0.5, 3.0, 9.0]), np.array([[0.0], [1e-6], [0.8], [40.0]])
        grid = nb_joint_density(theta, a, x)
        assert grid.shape == (4, 4)
        for i, ai in enumerate(a[:, 0]):
            for j, th in enumerate(theta):
                assert grid[i, j] == nb_joint_density(th, ai, x)

    def test_domain(self):
        with pytest.raises(DomainError):
            nb_joint_density(-1.0, 1.0, 0)
        with pytest.raises(DomainError):
            nb_joint_density(1.0, -1.0, 0)
        with pytest.raises(DomainError):
            nb_joint_density(1.0, 1.0, -2)


class TestGridHelpers:
    def test_make_theta_grid(self):
        grid = make_theta_grid(0)
        assert grid[0] == 0.0
        npt.assert_allclose(grid[-1], 12.0)
        npt.assert_allclose(np.diff(grid), 0.05)
        grid5 = make_theta_grid(5, step=0.1)
        npt.assert_allclose(grid5[-1], 14.5)

    def test_grid_accepts_list(self):
        comp = zpoisson_marginal(0, list(np.linspace(0.0, 11.0, 23)))
        assert isinstance(comp, MarginalComparison)

    def test_grid_size_is_capped(self):
        # the cap is 10^5 points; x = 1 at step 1e-6 asked for 12.5 million
        # the rounded count decides: 12.5 / (12.5 / 99_999) is 99999.00000000001
        assert make_theta_grid(0, step=12.0 / 99_999).size == 100_000
        assert make_theta_grid(1, step=12.5 / 99_999).size == 100_000
        for x, step in ((1, 1e-6), (0, 12.0 / 100_000), (1, 12.5 / 100_000), (10**31, 0.1),
                        (10**308, 1e-300)):
            with pytest.raises(DomainError, match="^step must give at most 100000 grid points"):
                make_theta_grid(x, step)

    def test_grid_needs_two_points(self):
        # x = 2 reaches 13: 13 / 25 rounds to one step, 13 / 26 = 0.5 to none
        assert make_theta_grid(2, step=25.0).tolist() == [0.0, 13.0]
        for x, step in ((2, 26.0), (2, 100.0), (0, 1e300)):
            with pytest.raises(DomainError, match="^step must give at least 2 grid points"):
                make_theta_grid(x, step)

    def test_grid_validation(self):
        # the endpoints print as floats, not as numpy scalars
        with pytest.raises(DomainError, match=r"^theta_grid must start at 0, got 0\.1$"):
            zpoisson_marginal(0, np.linspace(0.1, 12.0, 50))
        with pytest.raises(
            DomainError, match=r"^theta_grid must extend to at least x/2 \+ 10 = 10\.0, got 5\.0$"
        ):
            zpoisson_marginal(0, np.linspace(0.0, 5.0, 50))
        with pytest.raises(DomainError):
            zpoisson_marginal(0, np.zeros(10))  # not increasing
        for x in (0, 1):
            with pytest.raises(DomainError, match="^theta_grid must be finite, got inf$"):
                zpoisson_marginal(x, np.append(np.linspace(0.0, 12.0, 50), np.inf))
        with pytest.raises(DomainError):
            make_theta_grid(1, step=0.0)
        with pytest.raises(DomainError):
            make_theta_grid(-1)


class TestZPoissonMarginal:
    @pytest.mark.parametrize("x", [0, 1])
    def test_matches_claimed_form(self, x):
        comp = zpoisson_marginal(x, make_theta_grid(x))
        assert comp.linf_distance < 1e-6
        assert comp.l1_distance < 1e-6
        assert comp.numeric_norm_residual < 1e-6

    def test_claimed_density_values(self):
        comp = zpoisson_marginal(0, make_theta_grid(0))
        assert comp.claimed_density[0] == 2.0
        comp1 = zpoisson_marginal(1, make_theta_grid(1))
        idx = int(np.searchsorted(comp1.theta_grid, 0.5))
        assert comp1.theta_grid[idx] == 0.5
        npt.assert_allclose(comp1.claimed_density[idx], 2.0 * E_M1, rtol=1e-12)

    @pytest.mark.parametrize("step", [0.05, 0.37])
    def test_claimed_density_has_the_doubles_of_gamma_pdf(self, step):
        for x in (0, 1, 2, 5, 20, 200):
            comp = zpoisson_marginal(x, make_theta_grid(x, step))
            posterior = GammaDist(a=x + 1.0, b=2.0)
            expected = [gamma_pdf(th, posterior) for th in comp.theta_grid.tolist()]
            assert np.array_equal(comp.claimed_density, expected)

    def test_monotone_decreasing_for_x0(self):
        comp = zpoisson_marginal(0, make_theta_grid(0), tol=TIGHT)
        assert np.all(np.diff(comp.numeric_density) < 0.0)
        assert np.all(np.diff(comp.claimed_density) < 0.0)

    def test_far_mass_normalizes_with_doubling(self):
        # the theta check integral of the default strategy runs "doubling";
        # its first octaves hold ~1e-50 of the mass at x = 50 and once counted
        # as quiet, so the residual read 1 under a PASS verdict
        comp = zpoisson_marginal(50, make_theta_grid(50, step=1.0), strategy="transform")
        assert comp.numeric_norm_residual < 1e-6

    @pytest.mark.parametrize("x,strategy", [(200, "doubling"), (1000, "doubling"),
                                            (400, "transform")])
    def test_far_mass_integrates_to_one(self, x, strategy):
        # from one panel the transform theta check found almost none of the
        # mass near x/2 (4.4e-30 and 3.5e-99); from its graded start it finds
        # it (residuals 2.2e-13 and 4.0e-14, L-inf distances about 1e-17).
        # At x = 400 the doubling theta check stopped on octaves that read 0
        # (exit 4); through its tail map it reads 6.7e-14
        comp = zpoisson_marginal(x, make_theta_grid(x, step=0.1), strategy=strategy)
        assert comp.numeric_norm_residual < 1e-12
        assert comp.linf_distance < 1e-15

    @pytest.mark.parametrize("x,strategy", [(1000, "transform")])
    def test_missed_mass_raises(self, x, strategy):
        # the doubling theta check, that of the transform route, finds the
        # joint underflowed to 0 at every node of its cold start and of its
        # splits, none of which lands near the mass at x/2: a density that
        # does not integrate to 1 is refused, not returned with a residual of 1
        with pytest.raises(QuadratureError, match="is at or above the 1e-06 budget$") as caught:
            zpoisson_marginal(x, make_theta_grid(x, step=0.1), strategy=strategy)
        assert 0.0 <= caught.value.partial_sum < 1e-6

    def test_missed_mass_is_refused_before_the_grid_work(self, monkeypatch):
        # the grid's integral evaluates the joint at every grid point in one
        # batch, before the claimed density
        grid = make_theta_grid(1000, step=0.1)
        batch_sizes = []
        joint_in = marginal._zpoisson_joint_in_psi

        def recording_joint_in(theta, x):
            batch_sizes.append(theta.size)
            return joint_in(theta, x)

        monkeypatch.setattr(marginal, "_zpoisson_joint_in_psi", recording_joint_in)
        with pytest.raises(QuadratureError):
            zpoisson_marginal(1000, grid)
        assert batch_sizes and max(batch_sizes) < grid.size

    def test_strategies_agree(self):
        grid = make_theta_grid(1, step=0.1)
        a = zpoisson_marginal(1, grid, strategy="transform")
        b = zpoisson_marginal(1, grid, strategy="doubling")
        npt.assert_allclose(a.numeric_density, b.numeric_density, atol=1e-8, rtol=0)
        assert abs(a.l1_distance - b.l1_distance) < 1e-8
        assert abs(a.linf_distance - b.linf_distance) < 1e-8


class TestNBMarginalNumeric:
    @pytest.mark.parametrize("x", [0, 1, 3])
    def test_proper_density(self, x):
        comp = nb_marginal_numeric(x, make_theta_grid(x, step=0.2))
        assert comp.numeric_norm_residual < 1e-6

    def test_gap_is_reported_not_asserted(self):
        # the a-integral genuinely differs from the claimed closed form;
        # the comparison must expose a nonzero distance rather than hide it
        comp = nb_marginal_numeric(0, make_theta_grid(0, step=0.2))
        assert comp.linf_distance > 1e-3
        assert comp.l1_distance > 1e-3

    def test_monotone_decreasing_for_x0(self):
        comp = nb_marginal_numeric(0, make_theta_grid(0, step=0.2), tol=TIGHT)
        assert np.all(np.diff(comp.numeric_density) < 0.0)

    def test_strategies_agree(self):
        grid = make_theta_grid(0, step=0.25)
        a = nb_marginal_numeric(0, grid, strategy="transform")
        b = nb_marginal_numeric(0, grid, strategy="doubling")
        npt.assert_allclose(a.numeric_density, b.numeric_density, atol=1e-8, rtol=0)
        assert abs(a.l1_distance - b.l1_distance) < 1e-8
        assert abs(a.linf_distance - b.linf_distance) < 1e-8

    def test_loose_tolerance_residual_is_reported_not_raised(self):
        # the NB residual measures how far the two strategies' evidences agree,
        # so the z-Poisson norm budget does not apply to it (1.6e-4 here)
        comp = nb_marginal_numeric(50, make_theta_grid(50, step=1.0), tol=LOOSE, a_lower=100.0)
        assert 1e-6 < comp.numeric_norm_residual < 1e-3

    def test_shape_cutoff_drives_toward_claimed(self):
        # restricting to a >= cutoff forces the NB toward its Poisson limit,
        # where the claimed Poisson-ME form becomes exact
        grid = make_theta_grid(1, step=0.25)
        linfs = [
            nb_marginal_numeric(1, grid, tol=SCALEFREE, a_lower=cut).linf_distance
            for cut in (0.0, 10.0, 40.0)
        ]
        assert linfs[0] > linfs[1] > linfs[2]

    @pytest.mark.parametrize("strategy", ["transform", "doubling"])
    @pytest.mark.parametrize("cut", [40.0, 1000.0])
    def test_large_shape_cutoff_keeps_its_norm(self, cut, strategy):
        # the a integral runs over the offset from a_lower, so e^{-a_lower}
        # cancels instead of sinking the joint below abs_tol (the residual
        # was 1.9e-2 at 40, and past 745 the evidence was 0)
        comp = nb_marginal_numeric(1, make_theta_grid(1, step=0.5), strategy=strategy,
                                   a_lower=cut)
        assert comp.numeric_norm_residual < 1e-12

    @pytest.mark.parametrize("strategy", ["transform", "doubling"])
    @pytest.mark.parametrize("x", [10, 50, 100, 200, 300])
    def test_large_count_keeps_its_norm(self, x, strategy):
        # the evidence is about 2^-(x + 1); without the Gamma(x + 1, 2)
        # normalizer abs_tol swamped it: x = 100 and a_lower = 100 read 0.0495,
        # and x = 50 and a_lower = 5 on doubling 3.8e-9
        grid = make_theta_grid(x, step=2.0)
        for cut in (0.0, 5.0, 20.0, 100.0, 1000.0):
            comp = nb_marginal_numeric(x, grid, strategy=strategy, a_lower=cut)
            assert comp.numeric_norm_residual < 1e-12, cut

    @pytest.mark.parametrize("cut", [1e300, 1e305, 1.7e308])
    def test_poisson_limit_at_an_extreme_cutoff(self, cut):
        # the NB is Poisson there, so the marginal is the claimed form; from
        # about 1e305 theta (a + j) once overflowed (exit 4 in the CLI)
        comp = nb_marginal_numeric(1, make_theta_grid(1, step=0.5), a_lower=cut)
        assert comp.linf_distance < 1e-12
        assert comp.numeric_norm_residual < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            nb_marginal_numeric(0, make_theta_grid(0, step=0.25), a_lower=-1.0)


# the most a z-Poisson grid density may miss the Gamma(x + 1, 2) density by,
# relative, over x = 0..10 at step 0.1 (see TestWarmGrid)
ZPOISSON_REL_BOUND = 7e-15


# the most an NB grid density at step 0.1 may miss its TestFrozenReferences.NB
# value by, on either route
NB_REFERENCE_BOUND = 1.06e-13


def _gamma_density(x: int, theta: float) -> float:
    """2 (2 theta)^x e^{-2 theta} / x!, the double nearest its 40-digit value."""
    if theta == 0.0:
        return 2.0 if x == 0 else 0.0
    with localcontext() as ctx:
        ctx.prec = 40
        t = Decimal(theta)
        return float(2 ** (x + 1) * t**x * (-2 * t).exp() / math.factorial(x))


def _at(comp, theta):
    idx = int(np.argmin(np.abs(comp.theta_grid - theta)))
    assert abs(comp.theta_grid[idx] - theta) < 1e-12
    return comp.numeric_density[idx]


class TestFrozenReferences:
    # x -> (theta, density): the normalized NB marginal, the a-integral over
    # the theta-and-a evidence, both by mpmath tanh-sinh quadrature at 20
    # digits (scipy.integrate.quad agrees to 3e-15)
    NB = {
        0: ((0.5, 0.6584245367780804), (2.0, 0.090652907989104654), (5.0, 0.0031161726013744207)),
        1: ((0.5, 0.69706685930153432), (1.5, 0.27553950401670773), (4.0, 0.015057361511957482)),
        2: ((1.0, 0.51833168191896843), (2.5, 0.13508766993252297), (6.0, 0.0028452120005534113)),
        3: ((1.5, 0.40546011921267439), (3.0, 0.11193629256658982), (7.0, 0.0015666167092378619)),
    }
    # (x, theta, density): the psi-integral by mpmath quadrature at 30 digits
    ZPOISSON = (
        (0, 0.5, 0.73575888234288464),
        (0, 3.0, 0.0049575043533327168),
        (1, 1.0, 0.54134113294645077),
        (2, 2.5, 0.16844867497713668),
        (3, 4.0, 0.05725228849536202),
    )

    @pytest.mark.parametrize("strategy", ["transform", "doubling"])
    @pytest.mark.parametrize("x", sorted(NB))
    def test_nb_marginal(self, x, strategy):
        comp = nb_marginal_numeric(x, make_theta_grid(x, step=0.1), strategy=strategy)
        for theta, expected in self.NB[x]:
            assert abs(_at(comp, theta) - expected) <= 1e-8, theta

    @pytest.mark.parametrize("strategy", ["transform", "doubling"])
    def test_nb_marginal_is_tight(self, strategy):
        # the worst of the 24 errors is 1.0525e-13 (x = 1, theta = 0.5, on
        # transform); integrating over d itself, whose a ln a endpoint the
        # G7/K15 rule cannot resolve, the x = 0 errors reached 2.08e-13
        for x, references in self.NB.items():
            comp = nb_marginal_numeric(x, make_theta_grid(x, step=0.1), strategy=strategy)
            for theta, expected in references:
                assert abs(_at(comp, theta) - expected) <= NB_REFERENCE_BOUND, (x, theta)

    @pytest.mark.parametrize("strategy", ["transform", "doubling"])
    @pytest.mark.parametrize("x,theta,expected", ZPOISSON)
    def test_zpoisson_marginal(self, x, theta, expected, strategy):
        comp = zpoisson_marginal(x, make_theta_grid(x, step=0.1), strategy=strategy)
        assert abs(_at(comp, theta) - expected) <= 1e-10


# x -> the unnormalized NB marginal at NB_TINY_THETAS, the double nearest its
# 40-digit mpmath value (tests/make_nb_tiny_theta_references.py)
NB_TINY_THETAS = (1e-3, 1e-5, 1e-7)
NB_TINY_THETA = {
    0: (0.998005409877688, 0.9999800007717771, 0.9999998000001002),
    1: (0.00099167955838036, 9.998706446028566e-06, 9.999982459122405e-08),
    2: (3.1600831414840117e-06, 5.467756992285616e-10, 7.770438553433813e-14),
    3: (1.67009295851547e-07, 1.6667774339840156e-11, 1.6666685418357142e-15),
}
# the most an inner w-integral may miss NB_TINY_THETA by, absolute: the
# measured worst, 4.01e-13 at x = 0 and theta = 1e-5 on "doubling"
NB_TINY_THETA_BOUND = 4.1e-13


class TestTinyThetaColumns:
    """The theta = s^2 / (1 + s) map of the NB x <= 2 evidence puts outer
    nodes down to theta = 7.1e-8, and each is a column of an inner integral
    over w. A column meets the kernel's tolerance, max(abs_tol, quad_rel_tol
    |I|) on the joint scaled by 2^(x + 1): columns below abs_tol hold their
    absolute error, not a relative one (3% at x = 3, theta = 1e-7)."""

    @pytest.mark.parametrize("strategy", ["transform", "doubling"])
    @pytest.mark.parametrize("x", sorted(NB_TINY_THETA))
    def test_inner_integral_matches_mpmath(self, x, strategy):
        joint = marginal._nb_joint_in_w(np.array(NB_TINY_THETAS), x)
        scaled = integrate_semi_infinite(lambda w: joint(w[:, None]), DEFAULT_TOL, strategy)
        got = scaled / 2.0 ** (x + 1)
        npt.assert_allclose(got, NB_TINY_THETA[x], rtol=0, atol=NB_TINY_THETA_BOUND)


def _record_integrals(monkeypatch):
    """The marginals' integrals, in the order they start, as dicts: ``outer``,
    whether no other integral encloses it; ``panels``, those of the warm
    partition it starts from (None for a cold start); ``shapes``, the (rows,
    columns) of each integrand call; ``result``; and ``cold``, which
    integrates the same integrand again from a cold start."""
    integrals, depth = [], [0]
    integrate = marginal.integrate_semi_infinite

    def recording(f, tol, strategy, *, warm=None):
        seed = None if warm is None else warm.get(strategy)
        shapes = []
        entry = {"outer": depth[0] == 0, "panels": None if seed is None else len(seed) - 1,
                 "shapes": shapes, "cold": lambda: integrate(f, tol, strategy)}
        integrals.append(entry)

        def recorded(nodes):
            values = f(nodes)
            shapes.append((nodes.size, values.size // nodes.size))
            return values

        depth[0] += 1
        try:
            entry["result"] = integrate(recorded, tol, strategy, warm=warm)
        finally:
            depth[0] -= 1
        return entry["result"]

    monkeypatch.setattr(marginal, "integrate_semi_infinite", recording)
    return integrals


def _grid_blocks(integrals):
    """The grid's blocks: the outer integrals that start warm, as the theta
    integrals do not."""
    return [entry for entry in integrals if entry["outer"] and entry["panels"] is not None]


class TestWorkCount:
    """Integrand calls (one on the panels an integral starts from, then one
    per split on both halves' 30 nodes, inner and outer integrals alike) of
    the marginals at step 0.1. The counts are deterministic. The caps sit
    about 20% above what NB x = 1 and z-Poisson x = 0 need. The pins hold
    the NB marginals that are smooth at theta = 0, x = 3 and a_lower = 5, at
    their counts over theta itself: the theta = s^2 / (1 + s) map must not
    reach them. CHANGES.md holds the history of these counts.

    The comparison grid's integral, a column per grid point, runs in blocks
    whose first call has 15 rows per panel of the partition it starts from,
    at least 8 of them for a cold retry, so no call exceeds the
    30 * _MAX_GRID_POINTS cells of one 30-row split of a full grid."""

    CAPS = {
        ("nb", "transform"): 18,
        ("nb", "doubling"): 23,
        ("zpoisson", "transform"): 4,
        ("zpoisson", "doubling"): 4,
    }
    # (x, a_lower, strategy) -> the NB marginal's integrand calls
    PINS = {
        (3, 0.0, "transform"): 15,
        (3, 0.0, "doubling"): 19,
        (1, 5.0, "transform"): 6,
        (1, 5.0, "doubling"): 7,
    }
    ENVELOPE = 30 * marginal._MAX_GRID_POINTS

    @pytest.mark.parametrize("model,strategy", sorted(CAPS))
    def test_integrand_calls_are_capped(self, monkeypatch, model, strategy):
        integrals = _record_integrals(monkeypatch)
        x = 1 if model == "nb" else 0
        grid = make_theta_grid(x, 0.1)
        marginalize = nb_marginal_numeric if model == "nb" else zpoisson_marginal
        marginalize(x, grid, strategy=strategy)
        shapes = [shape for entry in integrals for shape in entry["shapes"]]
        assert len(shapes) <= self.CAPS[model, strategy]
        # the grid, one block, starts from the partition the last inner
        # integral converged on: 15 rows per panel
        [block] = _grid_blocks(integrals)
        assert block["shapes"][0] == (15 * block["panels"], grid.size)
        assert max(rows * columns for rows, columns in shapes) <= self.ENVELOPE

    @pytest.mark.parametrize("x,a_lower,strategy", sorted(PINS))
    def test_marginals_smooth_at_zero_keep_their_counts(self, monkeypatch, x, a_lower,
                                                        strategy):
        integrals = _record_integrals(monkeypatch)
        nb_marginal_numeric(x, make_theta_grid(x, 0.1), strategy=strategy, a_lower=a_lower)
        calls = sum(len(entry["shapes"]) for entry in integrals)
        assert calls == self.PINS[x, a_lower, strategy]

    @pytest.mark.parametrize("strategy", ["transform", "doubling"])
    @pytest.mark.parametrize("x", [0, 1])
    def test_every_block_width_follows_the_partition_it_starts_from(
            self, monkeypatch, x, strategy):
        # a full grid: each block's width comes from the partition the block
        # before left, 25,000 columns for up to 8 panels
        size = marginal._MAX_GRID_POINTS
        integrals = _record_integrals(monkeypatch)
        zpoisson_marginal(x, np.linspace(0.0, 12.0, size), strategy=strategy)
        blocks = _grid_blocks(integrals)
        widths = [block["shapes"][0][1] for block in blocks]
        limits = [30 * marginal._MAX_GRID_POINTS // (15 * max(block["panels"], 8))
                  for block in blocks]
        assert sum(widths) == size
        assert widths[:-1] == limits[:-1]
        assert 0 < widths[-1] <= limits[-1]
        assert all(block["shapes"][0][0] == 15 * block["panels"] for block in blocks)
        shapes = [shape for entry in integrals for shape in entry["shapes"]]
        assert max(rows * columns for rows, columns in shapes) <= self.ENVELOPE


class TestWarmGrid:
    """The comparison grid starts from the partition the last inner integral
    converged on, and each column still meets its own tolerance."""

    @pytest.mark.parametrize("strategy", ["transform", "doubling"])
    @pytest.mark.parametrize("model,x,a_lower", [
        *(("nb", x, cut) for x in range(4) for cut in (0.0, 5.0)),
        *(("zpoisson", x, None) for x in range(6)),
    ])
    def test_warm_grid_agrees_with_a_cold_start(self, monkeypatch, model, x, a_lower, strategy):
        integrals = _record_integrals(monkeypatch)
        grid = make_theta_grid(x, 0.1)
        if model == "nb":
            nb_marginal_numeric(x, grid, strategy=strategy, a_lower=a_lower)
        else:
            zpoisson_marginal(x, grid, strategy=strategy)
        tol, blocks = DEFAULT_TOL, _grid_blocks(integrals)
        assert blocks
        for block in blocks:
            with np.errstate(divide="ignore"):  # the joints' log at theta = 0
                cold = block["cold"]()
            bound = tol.quad_rel_tol * np.abs(cold) + tol.abs_tol
            assert np.all(np.abs(block["result"] - cold) <= bound)

    @pytest.mark.parametrize("strategy", ["transform", "doubling"])
    def test_zpoisson_densities_are_exact(self, strategy):
        # the worst over x = 0..10 at step 0.1 was 6.56e-15 (transform) and
        # 6.19e-15 (doubling), as with a cold grid; at x = 1, theta = 0 the
        # exact density is 0 and the numeric one 2.9e-16
        for x in range(11):
            comp = zpoisson_marginal(x, make_theta_grid(x, 0.1), strategy=strategy)
            for theta, value in zip(comp.theta_grid.tolist(), comp.numeric_density.tolist()):
                exact = _gamma_density(x, theta)
                bound = ZPOISSON_REL_BOUND * exact if exact else DEFAULT_TOL.abs_tol
                assert abs(value - exact) <= bound, (x, theta)


class TestMarginalPathBits:
    """The marginal path's doubles, frozen at 30e59ea, before the kernel's
    hot path was trimmed: the benchmark's 16 operations (both models, x 0 to
    3, both strategies, step 0.1), NB with a_lower = 5 at x = 1, and the
    z-Poisson mass far out at x = 200 on the doubling route. The ten NB cases
    were frozen again when the shape offset d became w^2, and the six at
    x <= 2 with a_lower = 0 again when their theta integrals moved to
    theta = s^2 / (1 + s). Each case holds
    the first 16 hex digits of the sha256 of the space-joined ``float.hex``
    of ``numeric_density``, then ``float.hex`` of ``numeric_norm``,
    ``l1_distance`` and ``linf_distance``."""

    # (model, x, strategy, a_lower) -> (density digest, norm, l1, linf)
    FROZEN = {
        ("zpoisson", 0, "transform", None):
            ("e085e05fd41050d8", "0x1.0000000000000p+0", "0x1.196b110643334p-52", "0x1.0000000000000p-51"),
        ("zpoisson", 0, "doubling", None):
            ("6bbdad20e0049a0a", "0x1.ffffffffffffep-1", "0x1.a907febb5999ap-54", "0x1.0000000000000p-52"),
        ("zpoisson", 1, "transform", None):
            ("e4c0475bee140ab6", "0x1.fffffffffffffp-1", "0x1.1273c417fffffp-52", "0x1.2000000000000p-51"),
        ("zpoisson", 1, "doubling", None):
            ("ef06d1b86a48d7b7", "0x1.0000000000000p+0", "0x1.1df71b14fb332p-52", "0x1.4000000000000p-51"),
        ("zpoisson", 2, "transform", None):
            ("7daa5d2f8e712f4a", "0x1.0000000000001p+0", "0x1.8a864ab99999bp-54", "0x1.8000000000000p-53"),
        ("zpoisson", 2, "doubling", None):
            ("f35124a3a7ff3285", "0x1.0000000000000p+0", "0x1.b722df3733334p-53", "0x1.0000000000000p-52"),
        ("zpoisson", 3, "transform", None):
            ("f6d013a92f25eca3", "0x1.ffffffffffffbp-1", "0x1.7860a53333332p-54", "0x1.0000000000000p-54"),
        ("zpoisson", 3, "doubling", None):
            ("835eabc214e062c3", "0x1.ffffffffffffep-1", "0x1.e9d8273999999p-54", "0x1.0000000000000p-53"),
        ("nb", 0, "transform", None):
            ("5d2f142231d95904", "0x1.fffffffffffa3p-1", "0x1.1057683ed55b5p-2", "0x1.e69fa2a5cacb4p-2"),
        ("nb", 0, "doubling", None):
            ("0bee641659271f63", "0x1.000000000002fp+0", "0x1.1057683ed57cfp-2", "0x1.e69fa2a5cb7f0p-2"),
        ("nb", 1, "transform", None):
            ("71de5c2d98d1bff0", "0x1.0000000000006p+0", "0x1.f9ed2202caba4p-4", "0x1.66e68af2d19d0p-4"),
        ("nb", 1, "doubling", None):
            ("3106378679f9b941", "0x1.ffffffffffff5p-1", "0x1.f9ed2202cabc0p-4", "0x1.66e68af2d19a8p-4"),
        ("nb", 2, "transform", None):
            ("2ed1407471185cef", "0x1.ffffffffffff6p-1", "0x1.c25e9e7e90233p-3", "0x1.7179e7af9bbe3p-3"),
        ("nb", 2, "doubling", None):
            ("94a9cfd4fbd722c4", "0x1.0000000000004p+0", "0x1.c25e9e7e9022dp-3", "0x1.7179e7af9bbefp-3"),
        ("nb", 3, "transform", None):
            ("63bb42a3af28ba52", "0x1.ffffffffffd27p-1", "0x1.7f26fcab81fddp-2", "0x1.e79c30751f6afp-3"),
        ("nb", 3, "doubling", None):
            ("3d56b1f2137c1925", "0x1.000000000016cp+0", "0x1.7f26fcab81fa1p-2", "0x1.e79c30751fb5fp-3"),
        ("nb", 1, "transform", 5.0):
            ("d4d18f4e68016640", "0x1.fffffffffffffp-1", "0x1.1fb434e44557ep-5", "0x1.58cdada9133c0p-6"),
        ("nb", 1, "doubling", 5.0):
            ("2d3d11c6aa8bacf7", "0x1.0000000000002p+0", "0x1.1fb434e445580p-5", "0x1.58cdada9133c0p-6"),
        ("zpoisson", 200, "doubling", None):
            ("9b2a4fc0a6405307", "0x1.00000000003d2p+0", "0x1.74a0d7af16a85p-54", "0x1.0000000000000p-56"),
    }

    @pytest.mark.parametrize("model,x,strategy,a_lower", sorted(FROZEN, key=str))
    def test_bits(self, model, x, strategy, a_lower):
        grid = make_theta_grid(x, 0.1)
        if model == "nb":
            extra = {} if a_lower is None else {"a_lower": a_lower}
            comp = nb_marginal_numeric(x, grid, strategy=strategy, **extra)
        else:
            comp = zpoisson_marginal(x, grid, strategy=strategy)
        hexes = " ".join(v.hex() for v in comp.numeric_density.tolist())
        digest = hashlib.sha256(hexes.encode()).hexdigest()[:16]
        got = (digest, comp.numeric_norm.hex(), comp.l1_distance.hex(), comp.linf_distance.hex())
        assert got == self.FROZEN[model, x, strategy, a_lower]

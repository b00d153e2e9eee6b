"""Tests for marginalization of the two-parameter posteriors.

Reference values are exact combinations of frozen powers of e (checked
against mpmath at 30 significant digits), or marginal densities computed by
nested mpmath quadrature and frozen as literals; quadrature results are also
checked against analytic identities and between independent strategies.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

from zerocount import marginal
from zerocount.errors import DomainError, QuadratureError
from zerocount.marginal import (
    MarginalComparison,
    make_theta_grid,
    nb_joint_density,
    nb_marginal_numeric,
    zpoisson_joint_posterior,
    zpoisson_marginal,
)
from zerocount.numerics import ToleranceConfig

E_M1 = 0.367879441171442322
E_M2 = 0.135335283236612692
E_M3 = 0.049787068367863943

TIGHT = ToleranceConfig(abs_tol=1e-15, quad_rel_tol=1e-11)
# forces relative convergence even when the integrand is exponentially small
SCALEFREE = ToleranceConfig(abs_tol=1e-300, quad_rel_tol=1e-9)
# loose enough that the NB strategies' evidences disagree by more than 1e-6
LOOSE = ToleranceConfig(abs_tol=1e-4, quad_rel_tol=1e-3)


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


class TestNBJoint:
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
        assert make_theta_grid(0, step=12.0 / 99_999).size == 100_000
        for x, step in ((1, 1e-6), (0, 12.0 / 100_000), (10**31, 0.1), (10**308, 1e-300)):
            with pytest.raises(DomainError, match="^step must give at most 100000 grid points"):
                make_theta_grid(x, step)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            zpoisson_marginal(0, np.linspace(0.1, 12.0, 50))  # must start at 0
        with pytest.raises(DomainError):
            zpoisson_marginal(0, np.linspace(0.0, 5.0, 50))  # too short for x/2+10
        with pytest.raises(DomainError):
            zpoisson_marginal(0, np.zeros(10))  # not increasing
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

    @pytest.mark.parametrize(
        "x,strategy", [(1000, "transform"), (1000, "doubling"), (200, "doubling")]
    )
    def test_missed_mass_raises(self, x, strategy):
        # the theta integrals look for the mass near 0 and find almost none of
        # the mass near x/2 (0.0, 3.5e-99 and 4.4e-30): a density that does not
        # integrate to 1 is refused, not returned with a residual of 1
        with pytest.raises(QuadratureError, match="is at or above the 1e-06 budget$") as caught:
            zpoisson_marginal(x, make_theta_grid(x, step=0.1), strategy=strategy)
        assert 0.0 <= caught.value.partial_sum < 1e-6

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
        # so the z-Poisson norm budget does not apply to it (4.6e-6 here)
        comp = nb_marginal_numeric(0, make_theta_grid(0, step=0.1), tol=LOOSE)
        assert 1e-6 < comp.numeric_norm_residual < 1e-4

    def test_shape_cutoff_drives_toward_claimed(self):
        # restricting to a >= cutoff forces the NB toward its Poisson limit,
        # where the claimed Poisson-ME form becomes exact
        grid = make_theta_grid(1, step=0.25)
        linfs = [
            nb_marginal_numeric(1, grid, tol=SCALEFREE, a_lower=cut).linf_distance
            for cut in (0.0, 10.0, 40.0)
        ]
        assert linfs[0] > linfs[1] > linfs[2]

    def test_domain(self):
        with pytest.raises(DomainError):
            nb_marginal_numeric(0, make_theta_grid(0, step=0.25), a_lower=-1.0)


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
    @pytest.mark.parametrize("x,theta,expected", ZPOISSON)
    def test_zpoisson_marginal(self, x, theta, expected, strategy):
        comp = zpoisson_marginal(x, make_theta_grid(x, step=0.1), strategy=strategy)
        assert abs(_at(comp, theta) - expected) <= 1e-10


class TestWorkCount:
    """Integrand calls (one on the panels an integral or octave starts from,
    then one per split on both halves' 30 nodes, inner and outer integrals
    alike) of the default marginals. The counts are deterministic; the caps
    sit about 20% above what the kernel needs now that the inner integrals of
    the evidence start from the partition the last one converged on (75 and
    99 for NB x = 1, 25 and 25 for z-Poisson x = 0). Each inner integral
    starting from one panel needed 287, 460, 43 and 49; one call per panel
    before that 811, 1148, 83 and 91; and the scalar per-theta quadrature
    before that over 15,000 and 2,000 panels. The call on the comparison
    grid, a column per grid point, starts cold: none of its integrand calls
    gets more than 30 rows."""

    CAPS = {
        ("nb", "transform"): 90,
        ("nb", "doubling"): 120,
        ("zpoisson", "transform"): 30,
        ("zpoisson", "doubling"): 30,
    }

    @pytest.mark.parametrize("model,strategy", sorted(CAPS))
    def test_integrand_calls_are_capped(self, monkeypatch, model, strategy):
        calls = 0
        integrate = marginal.integrate_semi_infinite

        def counting(f, *args, **kwargs):
            def counted(nodes):
                nonlocal calls
                calls += 1
                values = f(nodes)
                if values.ndim == 2 and values.shape[1] > 30:  # the comparison grid
                    assert nodes.size <= 30
                return values

            return integrate(counted, *args, **kwargs)

        monkeypatch.setattr(marginal, "integrate_semi_infinite", counting)
        if model == "nb":
            nb_marginal_numeric(1, make_theta_grid(1, 0.1), strategy=strategy)
        else:
            zpoisson_marginal(0, make_theta_grid(0, 0.1), strategy=strategy)
        assert calls <= self.CAPS[model, strategy]

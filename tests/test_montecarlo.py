"""Tests for the seeded samplers and simulation experiments.

Everything here is deterministic: seeds are pinned, so the statistical
assertions are regression checks with CLT-sized bands, not flaky
probabilistic tests.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

from zerocount.bayes import PriorKind, posterior_from_sufficient, prior_params, upper_limit
from zerocount.distributions import NBParams, PoissonParams, ZPoissonParams, poisson_pmf, zpoisson_pmf
from zerocount.errors import DomainError, ImproperPosteriorError
from zerocount.montecarlo import (
    PRNG_ALGORITHM,
    CoverageResult,
    SimSummary,
    coverage_experiment,
    dispersion_experiment,
    prng_metadata,
    sample,
    summarize,
)
from zerocount.numerics import reg_inc_gamma_lower

BL = prior_params(PriorKind.BL)
ME = prior_params(PriorKind.ME, t=1.0)
JJ = prior_params(PriorKind.JJ)

# seeded regression values, frozen from the first run of each exact
# configuration (coverage has no closed form to assert)
BL_COVERAGE_PIN = 0.97087
BL_COVERAGE_PIN_SE = 0.0005318030001795777


def chi_square_pvalue(observed: np.ndarray, expected: np.ndarray) -> float:
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    dof = len(observed) - 1
    return 1.0 - reg_inc_gamma_lower(dof / 2.0, chi2 / 2.0)


class TestConfigAndMetadata:
    def test_prng_metadata_names_generator(self):
        meta = prng_metadata()
        assert meta["prng_algorithm"] == PRNG_ALGORITHM == "PCG64"
        assert meta["prng_library"].startswith("numpy ")
        assert np.__version__ in meta["prng_library"]

    def test_config_validation(self):
        model = PoissonParams(theta=1.0)
        with pytest.raises(DomainError):
            sample(model, n_draws=0, seed=1)
        with pytest.raises(DomainError):
            sample(model, n_draws=10, seed=-1)
        with pytest.raises(DomainError):
            sample(model, n_draws=10, seed=2**64)
        with pytest.raises(DomainError):
            sample("poisson", n_draws=10, seed=1)

    def test_simulate_is_deterministic(self):
        # the simulate subcommand's pipeline: summarize(sample(...))
        model = NBParams(theta=4.0, a=8.0)
        assert summarize(sample(model, 5000, 99)) == summarize(sample(model, 5000, 99))

    def test_sample_is_deterministic(self):
        for model in (
            PoissonParams(theta=2.5),
            NBParams(theta=4.0, a=8.0),
            ZPoissonParams(theta=2.0, psi=1.3),
        ):
            a = sample(model, 2000, seed=7)
            b = sample(model, 2000, seed=7)
            npt.assert_array_equal(a, b)
            assert a.dtype == np.int64


class TestSamplers:
    def test_degenerate_poisson(self):
        draws = sample(PoissonParams(theta=0.0), 100, seed=3)
        assert np.all(draws == 0)

    def test_poisson_sampler_matches_pmf(self):
        # chi-square goodness of fit: cells 0..12 plus a >=13 tail cell,
        # all with expected count >= 5 at this size
        draws = sample(PoissonParams(theta=2.8787), 1_000_000, seed=20260817)
        observed = np.bincount(np.minimum(draws, 13), minlength=14).astype(float)
        probs = np.array([poisson_pmf(k, 2.8787) for k in range(13)])
        expected = np.append(probs, 1.0 - probs.sum()) * 1_000_000
        assert chi_square_pvalue(observed, expected) > 0.001

    def test_zpoisson_sampler_matches_pmf(self):
        params = ZPoissonParams(theta=2.0, psi=1.3)
        draws = sample(params, 200_000, seed=8)
        observed = np.bincount(np.minimum(draws, 10), minlength=11).astype(float)
        probs = np.array([zpoisson_pmf(k, params) for k in range(10)])
        expected = np.append(probs, 1.0 - probs.sum()) * 200_000
        assert chi_square_pvalue(observed, expected) > 0.001

    def test_nb_sampler_moments(self):
        draws = sample(NBParams(theta=4.0, a=8.0), 1_000_000, seed=11)
        mean = draws.mean()
        var = draws.var(ddof=1)
        se_mean = math.sqrt(var / draws.size)
        m4 = np.mean((draws - mean) ** 4)
        se_var = math.sqrt((m4 - var**2) / draws.size)
        assert abs(mean - 4.0) < 4.0 * se_mean
        assert abs(var - 6.0) < 4.0 * se_var
        assert abs(mean - 4.0) < 0.01
        assert abs(var / mean - 1.5) < 0.01

    def test_zpoisson_poisson_reduction(self):
        summary = summarize(sample(ZPoissonParams(theta=4.0, psi=1.0), 1_000_000, seed=13))
        assert abs(summary.sample_mean - 4.0) < 0.01
        assert abs(summary.dispersion - 1.0) < 0.005

    def test_zpoisson_matched_dispersion_target(self):
        params = ZPoissonParams(theta=4.5, psi=10.8907923667246459)
        summary = summarize(sample(params, 1_000_000, seed=17))
        assert abs(summary.sample_mean - 4.0) < 0.01
        assert abs(summary.dispersion - 1.5) < 0.01


class TestSamplerLimits:
    # numpy refuses Poisson means above about 9.2e18 with a bare ValueError
    @pytest.mark.parametrize(
        "model", [PoissonParams(theta=1e30), NBParams(theta=1e300, a=1.0)], ids=["poisson", "nb"]
    )
    def test_mean_beyond_numpy_limit_is_a_domain_error(self, model):
        with pytest.raises(DomainError):
            sample(model, 10, seed=0)

    @pytest.mark.parametrize("theta", [500.0, 800.0])
    def test_zpoisson_large_mean(self, theta):
        # the summed pmf rounds short of 1 - 1e-13 at these means; the table
        # must stop on its tail bound instead of raising ConvergenceError
        n = 20_000
        summary = summarize(sample(ZPoissonParams(theta=theta, psi=1.0), n, seed=3))
        assert abs(summary.sample_mean - theta) < 4.0 * math.sqrt(theta / n)
        assert abs(summary.dispersion - 1.0) < 0.05

    def test_coverage_rate_beyond_numpy_limit_is_a_domain_error(self):
        with pytest.raises(DomainError):
            coverage_experiment(1e20, 1.0, 1, BL, 0.95, reps=10, seed=0)


class TestSummarize:
    def test_hand_values(self):
        s = summarize(np.array([1, 2, 3]))
        assert s == SimSummary(sample_mean=2.0, sample_variance=1.0, dispersion=0.5, n_draws=3)

    def test_zero_mean_flags_dispersion(self):
        s = summarize(np.zeros(10, dtype=np.int64))
        assert s.sample_mean == 0.0
        assert s.dispersion is None

    def test_single_draw(self):
        s = summarize(np.array([4]))
        assert math.isnan(s.sample_variance)
        assert s.dispersion is None

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            summarize(np.array([]))


class TestDispersionExperiment:
    def test_long_run_concentrates(self):
        summary = dispersion_experiment(2.8787, 1_080_000, seed=101)
        assert abs(summary.sample_mean - 2.8787) < 0.005
        assert abs(summary.dispersion - 1.0) < 0.005
        assert summary.n_draws == 1_080_000

    def test_high_rate(self):
        summary = dispersion_experiment(10.0, 1_000_000, seed=29)
        assert abs(summary.dispersion - 1.0) < 0.005

    def test_hundred_bins_scatter_widely(self):
        # a purely Poisson process at ~100 bins shows dispersion estimates
        # scattered far from 1 in both directions
        disps = [dispersion_experiment(2.8787, 100, seed=5000 + i).dispersion for i in range(200)]
        assert min(disps) < 0.9
        assert max(disps) > 1.1
        assert min(disps) > 0.5
        assert max(disps) < 2.0

    def test_domain(self):
        with pytest.raises(DomainError):
            dispersion_experiment(0.0, 100, seed=1)


class TestCoverageExperiment:
    def test_zero_rate_is_fully_covered(self):
        result = coverage_experiment(0.0, 1.0, 1, BL, 0.95, reps=500, seed=2)
        assert result.coverage == 1.0
        assert result.standard_error == 0.0
        assert result.reps == 500

    def test_jj_aborts_naming_replicate(self):
        with pytest.raises(ImproperPosteriorError, match="replicate") as excinfo:
            coverage_experiment(0.1, 1.0, 1, JJ, 0.95, reps=2000, seed=31)
        first_zero = int(np.argmax(np.random.default_rng(31).poisson(0.1, 2000) == 0))
        assert excinfo.value.replicate == first_zero
        assert excinfo.value.total_counts == 0

    def test_bl_low_rate_covers_always(self):
        # the smallest attainable limit (at S = 0) is ln 20 ~ 3.0, above
        # true_rho, so coverage is exactly 1 regardless of seed
        result = coverage_experiment(0.5, 1.0, 1, BL, 0.95, reps=100_000, seed=424242)
        assert result.coverage == 1.0
        assert result.standard_error == 0.0

    def test_bl_regression_pin(self):
        result = coverage_experiment(10.0, 1.0, 1, BL, 0.95, reps=100_000, seed=424242)
        assert result.coverage == pytest.approx(BL_COVERAGE_PIN, abs=5e-6)
        assert result.standard_error == pytest.approx(BL_COVERAGE_PIN_SE, rel=1e-12)
        # misses happen exactly when S <= 4 under a rate-10 Poisson
        analytic = 1.0 - math.exp(-10.0) * sum(10.0**k / math.factorial(k) for k in range(5))
        assert result.coverage == pytest.approx(analytic, abs=4 * result.standard_error)
        expected_se = math.sqrt(result.coverage * (1.0 - result.coverage) / 100_000)
        assert result.standard_error == pytest.approx(expected_se, rel=1e-12)

    def test_me_prior_reasonable_coverage(self):
        result = coverage_experiment(2.0, 1.0, 3, ME, 0.90, reps=20_000, seed=55)
        assert isinstance(result, CoverageResult)
        assert 0.5 < result.coverage <= 1.0

    def test_equals_one_limit_per_replicate(self):
        # the reference solves each replicate's limit in a loop; the
        # experiment solves one per distinct total and gathers them
        rho, t, n, cl, reps, seed = 2.0, 1.0, 3, 0.9, 2000, 55
        totals = np.random.default_rng(seed).poisson(n * rho * t, reps)
        covered = [
            upper_limit(posterior_from_sufficient(int(s), n, t, ME), cl).U_rho >= rho
            for s in totals
        ]
        result = coverage_experiment(rho, t, n, ME, cl, reps=reps, seed=seed)
        assert 0.0 < result.coverage < 1.0
        assert result.coverage == sum(covered) / reps

    def test_determinism(self):
        a = coverage_experiment(0.5, 1.0, 2, ME, 0.9, reps=3000, seed=77)
        b = coverage_experiment(0.5, 1.0, 2, ME, 0.9, reps=3000, seed=77)
        assert a == b

    def test_domain(self):
        with pytest.raises(DomainError):
            coverage_experiment(-0.1, 1.0, 1, BL, 0.95, reps=10, seed=1)
        with pytest.raises(DomainError):
            coverage_experiment(0.5, 0.0, 1, BL, 0.95, reps=10, seed=1)
        with pytest.raises(DomainError):
            coverage_experiment(0.5, 1.0, 0, BL, 0.95, reps=10, seed=1)
        with pytest.raises(DomainError):
            coverage_experiment(0.5, 1.0, 1, BL, 1.0, reps=10, seed=1)
        with pytest.raises(DomainError):
            coverage_experiment(0.5, 1.0, 1, BL, 0.95, reps=0, seed=1)

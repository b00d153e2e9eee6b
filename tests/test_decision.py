"""Tests for bias/risk closed forms and the admissibility ranking."""

import numpy as np
import pytest

from zerocount.bayes import PriorKind, PriorSpec, posterior_from_sufficient, prior_params
from zerocount.decision import (
    ThetaMode,
    _sampling_variance_mean,
    bias_mean,
    bias_var,
    compare_priors,
    risk_mean,
    risk_var,
    validate_risk_oracle,
)
from zerocount.distributions import expectation_over_poisson
from zerocount.errors import DomainError, ImproperPosteriorError
from zerocount.numerics import ToleranceConfig

TIGHT = ToleranceConfig(abs_tol=1e-14, quad_rel_tol=1e-9)

ME = prior_params(PriorKind.ME, t=1.0)
BL = prior_params(PriorKind.BL)
JR = prior_params(PriorKind.JR)
JJ = prior_params(PriorKind.JJ)


def _posterior(S, n, a, b):
    """The Gamma(a, b) prior's posterior at t = 1, whose moments are the estimates."""
    return posterior_from_sufficient(S, n, 1.0, PriorSpec(PriorKind.CUSTOM, a, b))


class TestPointEstimates:
    def test_bayes_mean_counts(self):
        assert _posterior(0, 1, a=1.0, b=1.0).mean == 0.5
        assert _posterior(0, 1, a=1.0, b=0.0).mean == 1.0
        assert _posterior(6, 2, a=0.0, b=0.0).mean == 3.0

    def test_improper_combination(self):
        # V_B of an improper posterior is undefined
        for call in (bias_var, risk_var):
            with pytest.raises(ImproperPosteriorError):
                call(0, 1, a=0.0, b=0.0)

    def test_bayes_var(self):
        assert _posterior(0, 1, a=1.0, b=1.0).variance == 0.25
        assert _posterior(4, 2, a=1.0, b=0.0).variance == 1.25

    def test_ranking_reads_the_posterior_moments(self):
        # the estimates are (S + a)/(n + b) and (S + a)/(n + b)^2, to the bit
        for S in range(6):
            for n in (1, 2, 7):
                for r in compare_priors(S, n).entries:
                    a, b = r.prior.a, r.prior.b
                    assert r.mean_estimate == (S + a) / (n + b)
                    assert r.var_estimate == (S + a) / (n + b) ** 2
                    assert r.bias_var == (S + a) / (n + b) ** 2 - S / n


class TestBiasForms:
    def test_plug_in_values(self):
        assert bias_mean(0, 1, a=1.0, b=1.0, mode=ThetaMode.PLUG_IN) == 0.5
        assert bias_mean(0, 1, a=0.5, b=0.0, mode=ThetaMode.PLUG_IN) == 0.5

    def test_true_theta_zero_crossing(self):
        # the ME bias vanishes exactly at theta = a/b
        assert bias_mean(1.0, 1, a=1.0, b=1.0, mode=ThetaMode.TRUE_THETA) == 0.0

    def test_modes_differ_in_general(self):
        plug = bias_mean(3, 1, a=1.0, b=1.0, mode=ThetaMode.PLUG_IN)
        true = bias_mean(1.0, 1, a=1.0, b=1.0, mode=ThetaMode.TRUE_THETA)
        assert plug == -1.0
        assert true == 0.0

    def test_bias_var_values(self):
        assert bias_var(0, 1, a=1.0, b=1.0) == 0.25
        assert bias_var(0, 1, a=0.5, b=0.0) == 0.5
        assert bias_var(4, 2, a=1.0, b=0.0) == -0.75


class TestSamplingVariance:
    def test_degenerate(self):
        assert _sampling_variance_mean(0.0, 1, 0.0) == 0.0

    def test_direct(self):
        assert _sampling_variance_mean(1.0, 1, 1.0) == 0.25

    def test_matches_summation_oracle(self):
        # Var(theta_B) over S ~ Poisson(n theta) at (theta=2, n=3, ME)
        theta, n, a, b = 2.0, 3, 1.0, 1.0
        mean = expectation_over_poisson(lambda s: (s + a) / (n + b), n * theta, TIGHT)
        var = expectation_over_poisson(
            lambda s: ((s + a) / (n + b) - mean) ** 2, n * theta, TIGHT
        )
        np.testing.assert_allclose(
            var, _sampling_variance_mean(theta, n, b), atol=1e-10
        )


class TestRiskForms:
    def test_risk_mean_values(self):
        assert risk_mean(0, 1, a=1.0, b=0.0) == 1.0
        assert risk_mean(0, 1, a=1.0, b=1.0) == 0.25
        assert risk_mean(0, 1, a=0.5, b=0.0) == 0.25

    def test_risk_var_values(self):
        assert risk_var(0, 1, a=1.0, b=1.0) == 0.0625
        assert risk_var(0, 1, a=0.5, b=0.0) == 0.25

    def test_hand_case(self):
        # S=4, n=2, BL: V_B = 5/4, bias = -3/4, risk = 9/16 + 4/16 = 13/16
        assert _posterior(4, 2, a=1.0, b=0.0).variance == 1.25
        assert bias_var(4, 2, a=1.0, b=0.0) == -0.75
        assert risk_var(4, 2, a=1.0, b=0.0) == 0.8125


class TestTabulatedGrid:
    def test_all_18_cells(self):
        # the full plug-in grid at S=0, n=1 (t=1)
        expected = {
            PriorKind.BL: (1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
            PriorKind.JR: (0.5, 0.5, 0.25, 0.5, 0.5, 0.25),
            PriorKind.ME: (0.5, 0.5, 0.25, 0.25, 0.25, 0.0625),
        }
        ranking = compare_priors(0, 1)
        by_kind = {r.prior.kind: r for r in ranking.entries}
        for kind, cells in expected.items():
            r = by_kind[kind]
            got = (
                r.mean_estimate,
                r.bias_mean,
                r.risk_mean,
                r.var_estimate,
                r.bias_var,
                r.risk_var,
            )
            np.testing.assert_allclose(got, cells, atol=1e-12)


class TestCompareAndRank:
    def test_zero_record_order(self):
        ranking = compare_priors(0, 1)
        kinds = [r.prior.kind for r in ranking.entries]
        assert kinds == [PriorKind.ME, PriorKind.JR, PriorKind.BL]
        assert ranking.excluded == ((PriorKind.JJ, "improper"),)
        assert "ME" in ranking.verdict

    def test_jj_included_with_counts(self):
        ranking = compare_priors(3, 1)
        jj_report = next(
            r for r in ranking.entries if r.prior.kind is PriorKind.JJ
        )
        assert jj_report.bias_mean == 0.0
        assert ranking.excluded == ()

    def test_jj_unbiased_at_single_measurement(self):
        # a = b = 0: mean bias vanishes for every n, variance bias at n = 1
        for s in range(1, 8):
            assert bias_mean(s, 1, a=0.0, b=0.0, mode=ThetaMode.PLUG_IN) == 0.0
            assert bias_mean(s, 4, a=0.0, b=0.0, mode=ThetaMode.PLUG_IN) == 0.0
            assert bias_var(s, 1, a=0.0, b=0.0) == 0.0

    def test_dominance_at_zero_record(self):
        ranking = compare_priors(0, 1)
        by_kind = {r.prior.kind: r for r in ranking.entries}
        me, jr, bl = by_kind[PriorKind.ME], by_kind[PriorKind.JR], by_kind[PriorKind.BL]
        assert me.risk_mean <= jr.risk_mean <= bl.risk_mean
        assert me.risk_var <= jr.risk_var <= bl.risk_var
        assert me.risk_var < jr.risk_var
        assert jr.risk_mean < bl.risk_mean

    def test_domain(self):
        with pytest.raises(DomainError):
            compare_priors(-1, 1)
        with pytest.raises(DomainError):
            compare_priors(0, 0)


class TestRiskOracle:
    @pytest.mark.parametrize("prior", [BL, JR, ME])
    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [1, 3])
    def test_closed_forms_match_summation(self, prior, theta, n):
        report = validate_risk_oracle(theta, n, prior, TIGHT)
        assert report.max_discrepancy < 1e-10
        assert report.risk_discrepancy < 1e-12

    def test_theta_zero_is_exact(self):
        report = validate_risk_oracle(0.0, 2, ME, TIGHT)
        assert report.mean_discrepancy == 0.0

    def test_report_carries_inputs(self):
        report = validate_risk_oracle(0.5, 1, ME, TIGHT)
        assert report.theta == 0.5
        assert report.n == 1
        assert report.prior == ME

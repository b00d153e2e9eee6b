"""Bias, risk, and admissibility of the Bayesian estimators.

Everything here works in the t = 1 convention, so the posterior mean
(S + a)/(n + b) estimates the count parameter theta directly. Bias and risk
are taken over the Poisson sampling distribution of S at fixed theta, under
quadratic loss.

Two theta conventions coexist and must not be conflated. The closed-form
bias (a - b theta)/(n + b) is defined with the true theta (``TrueTheta``);
the tabulated results substitute the ML estimate S/n for theta (``PlugIn``).
The plug-in forms are what :func:`compare_priors` ranks; the summation
oracle :func:`validate_risk_oracle` checks the TrueTheta forms against a
direct expectation over the sampling distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .bayes import PriorKind, PriorSpec, prior_params
from .distributions import expectation_over_poisson
from .errors import DomainError, ImproperPosteriorError, _require_int
from .numerics import DEFAULT_TOL, ToleranceConfig

__all__ = [
    "ThetaMode",
    "RiskReport",
    "AdmissibilityRanking",
    "RiskOracleReport",
    "bayes_mean_counts",
    "bias_mean",
    "sampling_variance_mean",
    "risk_mean",
    "bayes_var",
    "bias_var",
    "risk_var",
    "compare_priors",
    "validate_risk_oracle",
]


class ThetaMode(str, Enum):
    PLUG_IN = "PlugIn"
    TRUE_THETA = "TrueTheta"


@dataclass(frozen=True)
class RiskReport:
    """Point estimates with their bias and risk for one prior."""

    prior: PriorSpec
    mean_estimate: float
    bias_mean: float
    risk_mean: float
    var_estimate: float
    bias_var: float
    risk_var: float
    theta_mode: ThetaMode


@dataclass(frozen=True)
class AdmissibilityRanking:
    """Priors ordered by ascending (risk_mean, risk_var)."""

    entries: tuple[RiskReport, ...]
    excluded: tuple[tuple[PriorKind, str], ...]
    verdict: str


@dataclass(frozen=True)
class RiskOracleReport:
    """Discrepancies between summation expectations and closed forms."""

    theta: float
    n: int
    prior: PriorSpec
    mean_discrepancy: float
    variance_discrepancy: float
    risk_discrepancy: float

    @property
    def max_discrepancy(self) -> float:
        return max(
            self.mean_discrepancy, self.variance_discrepancy, self.risk_discrepancy
        )


def _check_sn(S: int, n: int) -> tuple[int, int]:
    return _require_int(S, "S"), _require_int(n, "n", 1)


def bayes_mean_counts(S: int, n: int, a: float, b: float) -> float:
    """Bayesian mean-count estimate (S + a)/(n + b) at t = 1."""
    S, n = _check_sn(S, n)
    if S + a <= 0.0:
        raise ImproperPosteriorError(
            f"S + a = {S + a} is not positive; the posterior is improper",
            shape=S + a,
            total_counts=S,
        )
    return (S + a) / (n + b)


def bias_mean(s_or_theta: float, n: int, a: float, b: float, mode: ThetaMode) -> float:
    """Bias (a - b theta)/(n + b) of the Bayesian mean.

    In ``TrueTheta`` mode the first argument is theta itself; in ``PlugIn``
    mode it is the observed total S and theta is replaced by S/n.
    """
    mode = ThetaMode(mode)
    n = _require_int(n, "n", 1)
    if mode is ThetaMode.PLUG_IN:
        theta = _require_int(s_or_theta, "S") / n
    else:
        theta = s_or_theta
        if not (theta >= 0.0):
            raise DomainError(f"theta must be >= 0, got {theta!r}")
    return (a - b * theta) / (n + b)


def sampling_variance_mean(theta: float, n: int, b: float) -> float:
    """Sampling variance n theta / (n + b)^2 of the Bayesian mean."""
    if not (theta >= 0.0):
        raise DomainError(f"theta must be >= 0, got {theta!r}")
    n = _require_int(n, "n", 1)
    return n * theta / (n + b) ** 2


def risk_mean(S: int, n: int, a: float, b: float) -> float:
    """Plug-in risk (S + (a - b S/n)^2)/(n + b)^2 of the Bayesian mean."""
    S, n = _check_sn(S, n)
    return (S + (a - b * S / n) ** 2) / (n + b) ** 2


def bayes_var(S: int, n: int, a: float, b: float) -> float:
    """Bayesian variance estimate V_B = (S + a)/(n + b)^2 at t = 1."""
    S, n = _check_sn(S, n)
    return (S + a) / (n + b) ** 2


def bias_var(S: int, n: int, a: float, b: float) -> float:
    """Plug-in bias of V_B against the ML count variance: V_B - S/n."""
    S, n = _check_sn(S, n)
    return bayes_var(S, n, a, b) - S / n


def risk_var(S: int, n: int, a: float, b: float) -> float:
    """Plug-in risk of V_B: bias^2 + S/(n + b)^4."""
    S, n = _check_sn(S, n)
    return bias_var(S, n, a, b) ** 2 + S / (n + b) ** 4


def _risk_report(S: int, n: int, prior: PriorSpec) -> RiskReport:
    a, b = prior.a, prior.b
    return RiskReport(
        prior=prior,
        mean_estimate=bayes_mean_counts(S, n, a, b),
        bias_mean=bias_mean(S, n, a, b, ThetaMode.PLUG_IN),
        risk_mean=risk_mean(S, n, a, b),
        var_estimate=bayes_var(S, n, a, b),
        bias_var=bias_var(S, n, a, b),
        risk_var=risk_var(S, n, a, b),
        theta_mode=ThetaMode.PLUG_IN,
    )


def compare_priors(S: int, n: int) -> AdmissibilityRanking:
    """Rank the catalog priors by plug-in risk at the observed (S, n).

    JJ participates only when S >= 1; with an all-zero record its posterior
    is improper and it is listed as excluded instead. Ordering is
    lexicographic in (risk_mean, risk_var): equal mean risks are broken by
    the variance risk.
    """
    S, n = _check_sn(S, n)
    candidates = [
        prior_params(PriorKind.BL),
        prior_params(PriorKind.JR),
        prior_params(PriorKind.ME, t=1.0),
    ]
    excluded: list[tuple[PriorKind, str]] = []
    if S >= 1:
        candidates.append(prior_params(PriorKind.JJ))
    else:
        excluded.append((PriorKind.JJ, "improper"))
    reports = [_risk_report(S, n, prior) for prior in candidates]
    reports.sort(key=lambda r: (r.risk_mean, r.risk_var))
    verdict = (
        f"{reports[0].prior.kind.value} minimizes (risk_mean, risk_var) "
        f"at S={S}, n={n}"
    )
    return AdmissibilityRanking(
        entries=tuple(reports), excluded=tuple(excluded), verdict=verdict
    )


def validate_risk_oracle(
    theta: float,
    n: int,
    prior: PriorSpec,
    tol: ToleranceConfig | None = None,
) -> RiskOracleReport:
    """Check the closed-form bias/variance/risk against direct expectations.

    S is modeled as a single Poisson draw with parameter n * theta (the
    sufficient statistic carries everything, so the n-fold convolution is
    unnecessary). The estimator theta_B = (S + a)/(n + b) is pushed through
    the expectation by summation and compared to the TrueTheta closed forms:
    mean (n theta + a)/(n + b), variance n theta/(n + b)^2, and risk
    bias^2 + variance.
    """
    if not (theta >= 0.0):
        raise DomainError(f"theta must be >= 0, got {theta!r}")
    n = _require_int(n, "n", 1)
    tol = tol if tol is not None else DEFAULT_TOL
    a, b = prior.a, prior.b
    denom = n + b

    def theta_b(s: int) -> float:
        return (s + a) / denom

    e_mean = expectation_over_poisson(theta_b, n * theta, tol)
    e_second = expectation_over_poisson(lambda s: theta_b(s) ** 2, n * theta, tol)
    e_risk = expectation_over_poisson(
        lambda s: (theta_b(s) - theta) ** 2, n * theta, tol
    )

    closed_mean = (n * theta + a) / denom
    closed_bias = bias_mean(theta, n, a, b, ThetaMode.TRUE_THETA)
    closed_var = sampling_variance_mean(theta, n, b)
    closed_risk = closed_bias**2 + closed_var

    return RiskOracleReport(
        theta=theta,
        n=n,
        prior=prior,
        mean_discrepancy=abs(e_mean - closed_mean),
        variance_discrepancy=abs((e_second - e_mean**2) - closed_var),
        risk_discrepancy=abs(e_risk - closed_risk),
    )

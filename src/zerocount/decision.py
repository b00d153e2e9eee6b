"""Bias, risk, and admissibility of the Bayesian estimators.

Everything here works in the t = 1 convention, so the posterior mean
(S + a)/(n + b) estimates the count parameter theta directly; it and V_B =
(S + a)/(n + b)^2 are read off :func:`~zerocount.bayes.posterior_from_sufficient`.
Bias and risk are taken over the Poisson sampling distribution of S at fixed
theta, under quadratic loss.

Two theta conventions coexist and must not be conflated. The closed-form
bias (a - b theta)/(n + b) is defined with the true theta (``TrueTheta``);
the tabulated results substitute the ML estimate S/n for theta (``PlugIn``).
The plug-in forms are what :func:`compare_priors` ranks; the summation
oracle :func:`validate_risk_oracle` checks the TrueTheta forms against a
direct expectation over the sampling distribution.
"""

from __future__ import annotations

from enum import Enum

from .bayes import PriorKind, PriorSpec, posterior_from_sufficient, prior_params
from .distributions import expectation_over_poisson
from .errors import DomainError, _Record, _require_int, _require_real
from .numerics import DEFAULT_TOL, ToleranceConfig

__all__ = [
    "ThetaMode",
    "RiskReport",
    "AdmissibilityRanking",
    "RiskOracleReport",
    "bias_mean",
    "risk_mean",
    "bias_var",
    "risk_var",
    "compare_priors",
    "validate_risk_oracle",
]


class ThetaMode(str, Enum):
    PLUG_IN = "PlugIn"
    TRUE_THETA = "TrueTheta"


class RiskReport(_Record):
    """Point estimates with their bias and risk for one prior."""

    __slots__ = ("prior", "mean_estimate", "bias_mean", "risk_mean", "var_estimate",
                 "bias_var", "risk_var", "theta_mode")


class AdmissibilityRanking(_Record):
    """Priors ordered by ascending (risk_mean, risk_var)."""

    __slots__ = ("entries", "excluded", "verdict")


class RiskOracleReport(_Record):
    """Discrepancies between summation expectations and closed forms."""

    __slots__ = ("theta", "n", "prior", "mean_discrepancy", "variance_discrepancy",
                 "risk_discrepancy")

    @property
    def max_discrepancy(self) -> float:
        return max(
            self.mean_discrepancy, self.variance_discrepancy, self.risk_discrepancy
        )


def bias_mean(s_or_theta: float, n: int, a: float, b: float, mode: ThetaMode) -> float:
    """Bias (a - b theta)/(n + b) of the Bayesian mean.

    In ``TrueTheta`` mode the first argument is theta itself; in ``PlugIn``
    mode it is the observed total S and theta is replaced by S/n.
    """
    mode = ThetaMode(mode)
    PriorSpec(PriorKind.CUSTOM, a, b)  # checks a and b
    n = _require_int(n, "n", 1)
    if mode is ThetaMode.PLUG_IN:
        theta = _require_int(s_or_theta, "S") / n
    else:
        theta = _require_real(s_or_theta, "theta", 0.0)
    return (a - b * theta) / (n + b)


def _sampling_variance_mean(theta: float, n: int, b: float) -> float:
    """Sampling variance n theta / (n + b)^2 of the Bayesian mean."""
    _require_real(theta, "theta", 0.0)
    n = _require_int(n, "n", 1)
    try:
        return n * theta / (n + b) ** 2
    except OverflowError:  # its one caller is the oracle
        raise DomainError(
            f"validate_risk_oracle passes the float range at n={n}, b={b!r}") from None


def risk_mean(S: int, n: int, a: float, b: float) -> float:
    """Plug-in risk (S + (a - b S/n)^2)/(n + b)^2 of the Bayesian mean."""
    S, n = _require_int(S, "S"), _require_int(n, "n", 1)
    PriorSpec(PriorKind.CUSTOM, a, b)  # checks a and b
    try:
        return (S + (a - b * S / n) ** 2) / (n + b) ** 2
    except OverflowError:
        raise DomainError(f"risk_mean passes the float range at S={S}, n={n}, b={b!r}") from None


def bias_var(S: int, n: int, a: float, b: float) -> float:
    """Plug-in bias of V_B against the ML count variance: V_B - S/n.

    V_B is the posterior variance at t = 1, so S + a <= 0 raises ``ImproperPosteriorError``.
    """
    S, n = _require_int(S, "S"), _require_int(n, "n", 1)
    prior = PriorSpec(PriorKind.CUSTOM, a, b)
    return posterior_from_sufficient(S, n, 1.0, prior).variance - S / n


def risk_var(S: int, n: int, a: float, b: float) -> float:
    """Plug-in risk of V_B: bias^2 + S/(n + b)^4."""
    S, n = _require_int(S, "S"), _require_int(n, "n", 1)
    try:
        return bias_var(S, n, a, b) ** 2 + S / (n + b) ** 4
    except OverflowError:
        raise DomainError(f"risk_var passes the float range at S={S}, n={n}, b={b!r}") from None


def _risk_report(S: int, n: int, prior: PriorSpec) -> RiskReport:
    a, b = prior.a, prior.b
    post = posterior_from_sufficient(S, n, 1.0, prior)
    return RiskReport(
        prior=prior,
        mean_estimate=post.mean,
        bias_mean=bias_mean(S, n, a, b, ThetaMode.PLUG_IN),
        risk_mean=risk_mean(S, n, a, b),
        var_estimate=post.variance,
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
    S, n = _require_int(S, "S"), _require_int(n, "n", 1)
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
    tol: ToleranceConfig = DEFAULT_TOL,
) -> RiskOracleReport:
    """Check the closed-form bias/variance/risk against direct expectations.

    S is modeled as a single Poisson draw with parameter n * theta (the
    sufficient statistic carries everything, so the n-fold convolution is
    unnecessary). The estimator theta_B = (S + a)/(n + b) is pushed through
    the expectation by summation and compared to the TrueTheta closed forms:
    mean (n theta + a)/(n + b), variance n theta/(n + b)^2, and risk
    bias^2 + variance.
    """
    _require_real(theta, "theta", 0.0)
    n = _require_int(n, "n", 1)
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
    closed_var = _sampling_variance_mean(theta, n, b)
    closed_risk = closed_bias**2 + closed_var

    return RiskOracleReport(
        theta=theta,
        n=n,
        prior=prior,
        mean_discrepancy=abs(e_mean - closed_mean),
        variance_discrepancy=abs((e_second - e_mean**2) - closed_var),
        risk_discrepancy=abs(e_risk - closed_risk),
    )

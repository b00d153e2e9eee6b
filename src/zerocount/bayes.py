"""Bayesian rate inference with conjugate Gamma machinery.

The prior catalog covers four standard choices for a Poisson rate, written
as Gamma(a, b) shapes on rho:

==========  =========  ==============================
name        (a, b)     density shape on rho
==========  =========  ==============================
BL          (1, 0)     constant (flat)
JJ          (0, 0)     1/rho
JR          (1/2, 0)   rho^(-1/2)
ME          (1, t)     t e^(-rho t)
==========  =========  ==============================

With data (S total counts over n measurements of duration t) the posterior
is Gamma(A, B) with A = S + a and B = nt + b. A <= 0 cannot be normalized;
that combination (JJ with an all-zero record, and nothing else in the
catalog) raises :class:`~zerocount.errors.ImproperPosteriorError` at
construction time. The divergence demo quantifies how the failure behaves
under truncation of the evidence integral.
"""

from __future__ import annotations

import math
from enum import Enum

from .classical import CountData
from .distributions import GammaDist
from .errors import DomainError, ImproperPosteriorError, _Record, _require_int, _require_real
from .numerics import (
    DEFAULT_TOL,
    EULER_GAMMA,
    ToleranceConfig,
    exp_integral_e1,
    _gamma_pq,
    integrate_semi_infinite,
    inv_reg_inc_gamma_lower,
)

__all__ = [
    "PriorKind",
    "PriorSpec",
    "PosteriorSource",
    "GammaPosterior",
    "UpperLimitResult",
    "prior_params",
    "prior_density",
    "posterior",
    "posterior_from_sufficient",
    "upper_limit",
    "jj_divergence_demo",
    "jj_truncated_evidence",
    "differential_entropy_gamma",
]


class PriorKind(str, Enum):
    BL = "BL"
    JJ = "JJ"
    JR = "JR"
    ME = "ME"
    CUSTOM = "custom"


class PriorSpec(_Record):
    """A prior as its Gamma (a, b) signature plus its catalog name."""

    __slots__ = ("kind", "a", "b")

    def __init__(self, kind: PriorKind, a: float, b: float):
        _require_real(a, "prior shape a", 0.0)
        _require_real(b, "prior rate b", 0.0)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


class PosteriorSource(_Record):
    """The data and prior a posterior was built from."""

    __slots__ = ("S", "n", "t", "prior")

    def __init__(self, S: int, n: int, t: float, prior: PriorSpec):
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "prior", prior)


class GammaPosterior(_Record):
    """Proper Gamma(A, B) posterior for the rate rho."""

    __slots__ = ("A", "B", "source")

    def __init__(self, A: float, B: float, source: PosteriorSource):
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "source", source)

    @property
    def mean(self) -> float:
        return self.A / self.B

    @property
    def variance(self) -> float:
        try:
            square = self.B**2
        except OverflowError:
            # B past ~1.3e154: the variance itself is tiny, so divide twice
            return self.A / self.B / self.B
        if square == 0.0:
            # B below ~2e-162: divide twice, unless the variance itself overflows
            variance = self.A / self.B / self.B
            if variance == math.inf:
                raise DomainError(
                    f"posterior variance A/B^2 is past the float range for B = {self.B!r}"
                )
            return variance
        return self.A / square


class UpperLimitResult(_Record):
    """A one-sided Bayesian upper limit at confidence level ``CL``."""

    __slots__ = ("CL", "U_rho", "U_theta", "solver_residual")

    def __init__(self, CL: float, U_rho: float, U_theta: float, solver_residual: float):
        object.__setattr__(self, "CL", CL)
        object.__setattr__(self, "U_rho", U_rho)
        object.__setattr__(self, "U_theta", U_theta)
        object.__setattr__(self, "solver_residual", solver_residual)


def prior_params(kind: PriorKind, t: float | None = None) -> PriorSpec:
    """Return the catalog (a, b) for a named prior.

    ME couples the prior to the measurement duration (b = t), so ``t`` is
    required for it and ignored for the others. Custom priors are built
    directly as ``PriorSpec(PriorKind.CUSTOM, a, b)``.
    """
    kind = PriorKind(kind)
    if kind is PriorKind.BL:
        return PriorSpec(PriorKind.BL, 1.0, 0.0)
    if kind is PriorKind.JJ:
        return PriorSpec(PriorKind.JJ, 0.0, 0.0)
    if kind is PriorKind.JR:
        return PriorSpec(PriorKind.JR, 0.5, 0.0)
    if kind is PriorKind.ME:
        return PriorSpec(PriorKind.ME, 1.0, float(_require_real(t, "t", 0.0, strict=True)))
    raise DomainError("custom priors have no catalog row; construct PriorSpec directly")


def prior_density(
    kind: PriorKind,
    rho: float,
    t: float | None = None,
    normalized: bool = False,
) -> float:
    """Evaluate a catalog prior density at ``rho``.

    BL, JJ and JR are unnormalizable on [0, inf) and are returned in their
    conventional unnormalized forms (1, 1/rho, rho^(-1/2)); ME is a proper
    density t e^(-rho t). JJ and JR diverge at rho = 0, which is a domain
    error rather than an inf.

    ``normalized=True`` rescales each curve to pass through the point
    (1, 1). This is a plotting convention only and never enters inference.
    """
    kind = PriorKind(kind)
    _require_real(rho, "rho", 0.0, strict=kind in (PriorKind.JJ, PriorKind.JR))
    if kind is PriorKind.BL:
        return 1.0
    if kind is PriorKind.JJ:
        return 1.0 / rho
    if kind is PriorKind.JR:
        return 1.0 / math.sqrt(rho)
    if kind is PriorKind.ME:
        _require_real(t, "t", 0.0, strict=True)
        value = t * math.exp(-rho * t)
        if normalized:
            # divide by the value at rho = 1 so the curve passes through (1,1)
            return value / (t * math.exp(-t))
        return value
    raise DomainError("custom priors have no catalog density; use gamma_pdf")


def posterior_from_sufficient(
    S: int, n: int, t: float, prior: PriorSpec
) -> GammaPosterior:
    """Build the Gamma posterior from the sufficient statistic directly."""
    S = _require_int(S, "S")
    n = _require_int(n, "n", 1)
    _require_real(t, "t", 0.0, strict=True)
    try:
        a_post = S + prior.a
        b_post = n * t + prior.b
    except OverflowError:  # an int past the float range
        name, value = ("S", S) if S > n else ("n", n)
        raise DomainError(
            f"{name} must be within the float range (about 1.8e308), "
            f"got a {value.bit_length()}-bit integer"
        ) from None
    if b_post == math.inf:
        raise DomainError(
            f"exposure n t + b must be finite, got n={n}, t={t!r}, b={prior.b!r}"
        )
    if a_post <= 0.0:
        raise ImproperPosteriorError(
            f"posterior shape S + a = {a_post} is not positive: the evidence "
            f"integral of rho^(S+a-1) e^(-B rho) diverges at rho = 0, so the "
            f"{prior.kind.value} prior with an all-zero record admits no "
            f"normalizable posterior",
            shape=a_post,
            total_counts=int(S),
        )
    return GammaPosterior(
        A=float(a_post),
        B=float(b_post),
        source=PosteriorSource(S=int(S), n=int(n), t=float(t), prior=prior),
    )


def posterior(data: CountData, prior: PriorSpec) -> GammaPosterior:
    """Conjugate update: Gamma(S + a, nt + b) for the rate rho.

    Raises
    ------
    ImproperPosteriorError
        When S + a <= 0 (the JJ prior, or a custom a = 0, with an all-zero
        record). The posterior cannot be normalized; no object is returned.
    """
    return posterior_from_sufficient(data.total, data.n, data.t, prior)


def upper_limit(post: GammaPosterior, CL: float) -> UpperLimitResult:
    """One-sided upper limit on rho (and theta) at confidence level CL.

    U_rho solves P(A, B U) = CL where P is the regularized lower incomplete
    gamma; U_theta = U_rho * t restates it for the counts parameter. The
    solver matches the smaller tail, and ``solver_residual`` is that tail's
    relative residual at U_rho: (P - CL)/CL for CL <= 1/2, else
    ((1 - CL) - Q)/(1 - CL) with Q = 1 - P summed directly.
    """
    _require_real(CL, "CL", 0.0, 1.0, strict=True)
    u_rho = inv_reg_inc_gamma_lower(post.A, CL) / post.B
    p, q = _gamma_pq(post.A, post.B * u_rho)
    residual = (p - CL) / CL if CL <= 0.5 else ((1.0 - CL) - q) / (1.0 - CL)
    return UpperLimitResult(
        CL=CL,
        U_rho=u_rho,
        U_theta=u_rho * post.source.t,
        solver_residual=residual,
    )


def jj_truncated_evidence(epsilon: float) -> float:
    """Evidence of the JJ prior and an all-zero record, truncated at epsilon.

    The full integral of e^(-theta)/theta over (0, inf) diverges; cutting
    the lower endpoint at epsilon leaves E1(epsilon), which grows like
    -gamma_E - ln(epsilon) as the cutoff is removed.
    """
    _require_real(epsilon, "epsilon", 0.0, strict=True)
    return exp_integral_e1(epsilon)


def jj_divergence_demo(epsilon: float, U_theta: float) -> float:
    """Tail probability alpha assigned beyond U_theta by the truncated JJ posterior.

    alpha = E1(U_theta + epsilon) / (-gamma_E - ln(epsilon)). As epsilon
    shrinks the denominator grows without bound while the numerator is
    pinned, so alpha -> 0: the truncated posterior concentrates all its
    mass at the origin and any fixed upper limit becomes certain. That is
    the quantitative sense in which the JJ prior fails for all-zero data.
    """
    _require_real(epsilon, "epsilon", 0.0, strict=True)
    _require_real(U_theta, "U_theta", 0.0, strict=True)
    denominator = -EULER_GAMMA - math.log(epsilon)
    if denominator <= 0.0:
        raise DomainError(
            f"epsilon = {epsilon!r} is too large: -gamma_E - ln(epsilon) must be positive"
        )
    return exp_integral_e1(U_theta + epsilon) / denominator


def differential_entropy_gamma(
    dist: GammaDist, tol: ToleranceConfig | None = None
) -> float:
    """Differential entropy -int p ln p of a Gamma density, in nats.

    Computed by quadrature; among Gamma priors with a fixed mean this is
    maximized by the exponential shape (a = 1), which is the maximum-entropy
    motivation for the ME prior.
    """
    tol = tol if tol is not None else DEFAULT_TOL
    log_norm = dist.a * math.log(dist.b) - math.lgamma(dist.a)
    # substitute rho = s^m with m*a >= 1 so the rho^{a-1} endpoint
    # singularity (a < 1) becomes a bounded integrand; the panel error
    # estimator is unreliable on unresolved algebraic singularities
    m = max(1, math.ceil(1.0 / dist.a))

    def integrand(s):
        import numpy as np

        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_s = np.log(s)
            log_pdf = log_norm + (dist.a - 1.0) * m * log_s - dist.b * np.exp(m * log_s)
            # pdf and jacobian combined in log space: m*a >= 1 keeps this
            # bounded at s -> 0 even when the pdf itself diverges there
            value = -log_pdf * np.exp(log_pdf + (m - 1.0) * log_s + math.log(m))
        # s = 0 and an overflowing rho (inf * 0) carry no mass
        return np.where(np.isfinite(value), value, 0.0)

    return integrate_semi_infinite(integrand, lower=0.0, tol=tol)

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
is Gamma(A, B) with A = S + a and B = nt + b. A <= 0 has no finite integral;
that combination (JJ with an all-zero record, and nothing else in the
catalog) raises :class:`~zerocount.errors.ImproperPosteriorError` at
construction time. The divergence demo quantifies how the failure behaves
under truncation of the evidence integral.
"""

from __future__ import annotations

import math
from enum import Enum

from .classical import CountData
from .errors import DomainError, ImproperPosteriorError, _Record, _require_int, _require_real
from .numerics import EULER_GAMMA, exp_integral_e1, _gamma_pq, inv_reg_inc_gamma_lower

# typing.TYPE_CHECKING without importing typing: type checkers read any
# TYPE_CHECKING as true, and an estimate never runs distributions
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .distributions import GammaDist

__all__ = [
    "PriorKind",
    "PriorSpec",
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
        self._store(kind, a, b)


class GammaPosterior(_Record):
    """Proper Gamma(A, B) posterior for the rate rho, from measurements of duration t."""

    __slots__ = ("A", "B", "t")

    @property
    def mean(self) -> float:
        return self.A / self.B

    @property
    def variance(self) -> float:
        try:
            square = self.B**2
        except OverflowError:
            square = math.inf
        if 2.0**-1022 <= square < math.inf:  # a normal double
            return self.A / square
        # B past ~1.3e154 or below ~1.5e-154: divide twice, unless that overflows
        variance = self.A / self.B / self.B
        if variance == math.inf:
            raise DomainError(
                f"posterior variance A/B^2 is past the float range for B = {self.B!r}"
            )
        return variance


class UpperLimitResult(_Record):
    """A one-sided Bayesian upper limit at confidence level ``CL``."""

    __slots__ = ("CL", "U_rho", "U_theta", "solver_residual")


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


def prior_density(kind: PriorKind, rho: float, t: float | None = None) -> float:
    """Evaluate a catalog prior density at ``rho``.

    BL, JJ and JR are unnormalizable on [0, inf) and are returned in their
    conventional forms (1, 1/rho, rho^(-1/2)), of infinite mass; ME is a proper
    density t e^(-rho t), formed from the float of ``t``, so an int ``t``
    gives the float's answer. JJ and JR diverge at rho = 0, which is a
    domain error rather than an inf.
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
        t = float(_require_real(t, "t", 0.0, strict=True))
        return t * math.exp(-rho * t)
    raise DomainError("custom priors have no catalog density; use gamma_pdf")


def posterior_from_sufficient(
    S: int, n: int, t: float, prior: PriorSpec
) -> GammaPosterior:
    """Build the Gamma posterior from the sufficient statistic directly.

    The exposure n t + b is formed from the float of ``t``, so an int ``t``
    gives the float's answer.
    """
    S = _require_int(S, "S")
    n = _require_int(n, "n", 1)
    t = float(_require_real(t, "t", 0.0, strict=True))
    a_post = S + prior.a
    b_post = n * t + prior.b
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
    return GammaPosterior(float(a_post), float(b_post), t)


def posterior(data: CountData, prior: PriorSpec) -> GammaPosterior:
    """Conjugate update: Gamma(S + a, nt + b) for the rate rho.

    Raises
    ------
    ImproperPosteriorError
        When S + a <= 0 (the JJ prior, or a custom a = 0, with an all-zero
        record). The posterior has no finite integral; no object is returned.
    """
    return posterior_from_sufficient(data.total, data.n, data.t, prior)


def upper_limit(post: GammaPosterior, CL: float) -> UpperLimitResult:
    """One-sided upper limit on rho (and theta) at confidence level CL.

    U_rho solves P(A, B U) = CL where P is the regularized lower incomplete
    gamma; U_theta = U_rho * t restates it for the counts parameter. The
    solver matches the smaller tail, and ``solver_residual`` is that tail's
    relative residual at U_rho: (P - CL)/CL for CL <= 1/2, else
    ((1 - CL) - Q)/(1 - CL) with Q = 1 - P summed directly. A limit past
    the float range, as from a subnormal rate B, raises ``DomainError``, as
    does a caller-built posterior whose B or t is not a finite positive real.
    """
    _require_real(CL, "CL", 0.0, 1.0, strict=True)
    _require_real(post.B, "posterior rate B", 0.0, strict=True)
    _require_real(post.t, "measurement duration t", 0.0, strict=True)
    u_rho = inv_reg_inc_gamma_lower(post.A, CL) / post.B
    if u_rho == math.inf:
        raise DomainError(
            f"the upper limit at CL = {CL!r} passes the float range: the gamma quantile over "
            f"the posterior rate B = {post.B!r} overflows"
        )
    p, q = _gamma_pq(post.A, post.B * u_rho)
    residual = (p - CL) / CL if CL <= 0.5 else ((1.0 - CL) - q) / (1.0 - CL)
    return UpperLimitResult(CL, u_rho, u_rho * post.t, residual)


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

    The log form is the truncated evidence only as epsilon -> 0: at epsilon
    = 0.56 it is 0.0026 where E1(epsilon) is 0.493. An epsilon whose ratio
    would pass 1, no tail probability, raises ``DomainError``.
    """
    _require_real(epsilon, "epsilon", 0.0, strict=True)
    _require_real(U_theta, "U_theta", 0.0, strict=True)
    denominator = -EULER_GAMMA - math.log(epsilon)
    if denominator <= 0.0:
        raise DomainError(
            f"epsilon = {epsilon!r} is too large: -gamma_E - ln(epsilon) must be positive"
        )
    numerator = exp_integral_e1(U_theta + epsilon)
    if numerator > denominator:
        raise DomainError(
            f"epsilon = {epsilon!r} is too large for U_theta = {U_theta!r}: "
            f"E1(U_theta + epsilon) = {numerator:.6g} exceeds -gamma_E - ln(epsilon) = "
            f"{denominator:.6g}, so alpha would exceed 1"
        )
    return numerator / denominator


_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)  # B_2, B_4, ..., B_12


def _digamma(x: float) -> float:
    """psi(x) for x > 0: the recurrence up to x >= 10, then DLMF 5.11.2 through x^-12."""
    shift = 0.0
    while x < 10.0:
        shift += 1.0 / x
        x += 1.0
    series = sum(B / (j * x**j) for j, B in zip(range(2, 13, 2), _BERNOULLI))
    return math.log(x) - 0.5 / x - series - shift


def differential_entropy_gamma(dist: GammaDist) -> float:
    """Differential entropy -int p ln p of a Gamma(a, b) density, in nats.

    H = a - ln b + lnGamma(a) + (1 - a) psi(a) (Lazo & Rathie, 1978). Among
    Gamma priors with a fixed mean it is largest at the exponential shape
    (a = 1), the maximum-entropy motivation for the ME prior. For a >= 50,
    lnGamma(a) and (1 - a) psi(a) cancel terms of size a ln a, so their sum
    with a is taken as one Stirling series, 1/2 ln(2 pi a) + 1/2 - 1/(2a) +
    sum_k B_2k [a^(1-2k)/(2k-1) - a^(-2k)/(2k)] through k = 4. A subnormal a,
    where 1/a overflows, puts H past the float range and raises DomainError.
    """
    a = dist.a
    if a >= 50.0:
        s = 1.0 / a
        series = sum(
            B * (s ** (j - 1) / (j - 1) - s**j / j) for j, B in zip((2, 4, 6, 8), _BERNOULLI)
        )
        h = 0.5 * math.log(2.0 * math.pi * a) + 0.5 - 0.5 * s + series
    else:
        h = a + math.lgamma(a) + (1.0 - a) * _digamma(a)
    h -= math.log(dist.b)
    if not math.isfinite(h):
        raise DomainError(f"the Gamma entropy is past the float range at shape a = {a!r}")
    return h


def __getattr__(name: str):
    """``GammaDist``, imported from :mod:`zerocount.distributions` on first use."""
    if name == "GammaDist":
        from .distributions import GammaDist

        return GammaDist
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

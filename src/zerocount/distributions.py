"""Count and rate distributions for rare-event measurements.

Covers the Poisson count model and its rate-time rescaling, the Gamma family
used for rate priors and posteriors, and two overdispersed count models: the
zero-inflated Poisson (z-Poisson) and the negative binomial. All pmf and pdf
values are computed in log space and exponentiated once, so the routines stay
usable far into the tails.

Boundary conventions are deliberate rather than errors: a Poisson with
``theta = 0`` is the point mass at zero with dispersion reported as 1, and a
z-Poisson with ``psi`` at either end of its closed validity interval
``[1, 1/P0]`` degenerates smoothly (pure Poisson at 1, all mass on zero at
the top end).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import ConvergenceError, DomainError, _require_int
from .numerics import DEFAULT_TOL, ToleranceConfig, log_gamma

__all__ = [
    "PoissonParams",
    "RateModel",
    "DetectorConfig",
    "GammaDist",
    "ZPoissonParams",
    "NBParams",
    "OverdispersionModel",
    "poisson_pmf",
    "poisson_moments",
    "prob_all_zero",
    "adhoc_zero_density",
    "gamma_pdf",
    "gamma_moment",
    "zpoisson_pmf",
    "zpoisson_moments",
    "nb_pmf",
    "nb_dispersion",
    "expected_theta",
    "rate_variance",
    "expectation_over_poisson",
]


@dataclass(frozen=True)
class PoissonParams:
    """Dimensionless Poisson count parameter."""

    theta: float

    def __post_init__(self):
        if not (self.theta >= 0.0):
            raise DomainError(f"theta must be >= 0, got {self.theta!r}")


@dataclass(frozen=True)
class RateModel:
    """Event rate ``rho`` observed for duration ``t`` in ``n`` measurements."""

    rho: float
    t: float
    n: int = 1

    def __post_init__(self):
        if not (self.rho >= 0.0):
            raise DomainError(f"rho must be >= 0, got {self.rho!r}")
        if not (self.t > 0.0):
            raise DomainError(f"t must be > 0, got {self.t!r}")
        _require_int(self.n, "n", 1)

    @property
    def theta(self) -> float:
        """Counts expected per measurement: theta = rho * t."""
        return self.rho * self.t


@dataclass(frozen=True)
class DetectorConfig:
    """Physical source-plus-detector description.

    ``n_atoms`` radioactive atoms with decay constant ``decay_const`` are
    observed for time ``t`` with detection efficiency ``efficiency``. The
    per-atom detection probability is ``p = decay_const * t * efficiency``;
    the Poisson treatment assumes p is small, and
    :attr:`poisson_regime_warning` is set when p exceeds 0.1.
    """

    n_atoms: float
    decay_const: float
    efficiency: float
    t: float

    def __post_init__(self):
        if not (self.n_atoms > 0.0):
            raise DomainError(f"n_atoms must be > 0, got {self.n_atoms!r}")
        if not (self.decay_const > 0.0):
            raise DomainError(f"decay_const must be > 0, got {self.decay_const!r}")
        if not (0.0 <= self.efficiency <= 1.0):
            raise DomainError(
                f"efficiency must lie in [0, 1], got {self.efficiency!r}"
            )
        if not (self.t > 0.0):
            raise DomainError(f"t must be > 0, got {self.t!r}")

    @property
    def p(self) -> float:
        """Per-atom detection probability over the measurement."""
        return self.decay_const * self.t * self.efficiency

    @property
    def poisson_regime_warning(self) -> bool:
        """True when p > 0.1 and the small-p Poisson approximation is dubious."""
        return self.p > 0.1

    @property
    def rho(self) -> float:
        """Detected event rate N * decay_const * efficiency."""
        return self.n_atoms * self.decay_const * self.efficiency


@dataclass(frozen=True)
class GammaDist:
    """Gamma distribution with shape ``a`` and rate ``b``."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0.0):
            raise DomainError(f"shape a must be > 0, got {self.a!r}")
        if not (self.b > 0.0):
            raise DomainError(f"rate b must be > 0, got {self.b!r}")


@dataclass(frozen=True)
class ZPoissonParams:
    """Zero-inflated Poisson with inflation factor ``psi``.

    Validity is the closed interval 1 <= psi <= 1/P0 with P0 = e^{-theta}.
    psi = 1 is the plain Poisson; psi = 1/P0 puts all mass on x = 0.
    """

    theta: float
    psi: float

    def __post_init__(self):
        if not (self.theta > 0.0):
            raise DomainError(f"theta must be > 0, got {self.theta!r}")
        if not (self.psi >= 1.0):
            raise DomainError(f"psi must be >= 1, got {self.psi!r}")
        # allow psi = 1/P0 up to roundoff; beyond that the zero mass exceeds 1
        if self.psi * math.exp(-self.theta) > 1.0 + 1e-12:
            raise DomainError(
                f"psi * exp(-theta) = {self.psi * math.exp(-self.theta)!r} "
                "exceeds 1; no such distribution exists"
            )

    @property
    def p0(self) -> float:
        return math.exp(-self.theta)


@dataclass(frozen=True)
class NBParams:
    """Negative binomial parametrized by mean ``theta`` and shape ``a``."""

    theta: float
    a: float

    def __post_init__(self):
        if not (self.theta > 0.0):
            raise DomainError(f"theta must be > 0, got {self.theta!r}")
        if not (self.a > 0.0):
            raise DomainError(f"shape a must be > 0, got {self.a!r}")


@dataclass(frozen=True)
class OverdispersionModel:
    """Dispersion coefficient ``delta_x`` with its excess-variation source ``v``."""

    delta_x: float
    v: float = 0.0

    def __post_init__(self):
        if not (self.delta_x > 0.0):
            raise DomainError(f"delta_x must be > 0, got {self.delta_x!r}")
        if not (self.v >= 0.0):
            raise DomainError(f"v must be >= 0, got {self.v!r}")

    @classmethod
    def from_excess_variation(cls, theta: float, v: float) -> "OverdispersionModel":
        """Build from an efficiency variation coefficient ``v``.

        With count variance theta inflated by (v * theta)^2 the dispersion
        coefficient is 1 + theta * v^2, always >= 1.
        """
        if not (theta >= 0.0):
            raise DomainError(f"theta must be >= 0, got {theta!r}")
        if not (v >= 0.0):
            raise DomainError(f"v must be >= 0, got {v!r}")
        return cls(delta_x=1.0 + theta * v * v, v=v)


def poisson_pmf(x: int, theta: float) -> float:
    """Poisson probability of observing ``x`` counts at parameter ``theta``."""
    x = _require_int(x, "x")
    if not (theta >= 0.0):
        raise DomainError(f"theta must be >= 0, got {theta!r}")
    if theta == 0.0:
        return 1.0 if x == 0 else 0.0
    return math.exp(x * math.log(theta) - theta - log_gamma(x + 1.0))


def poisson_moments(theta: float) -> tuple[float, float, float]:
    """Return (mean, variance, dispersion) of the Poisson counts.

    Dispersion is identically 1; the theta = 0 point mass keeps that value
    by convention so downstream dispersion plots have no holes.
    """
    if not (theta >= 0.0):
        raise DomainError(f"theta must be >= 0, got {theta!r}")
    return (theta, theta, 1.0)


def prob_all_zero(n: int, theta: float) -> float:
    """Probability that ``n`` independent measurements all read zero counts."""
    n = _require_int(n, "n", 1)
    if not (theta >= 0.0):
        raise DomainError(f"theta must be >= 0, got {theta!r}")
    return math.exp(-n * theta)


def adhoc_zero_density(theta: float, n: int) -> float:
    """Zero-class probability renormalized into a density in ``theta``.

    Equals n e^{-n theta}, which integrates to 1 over theta in [0, inf).
    This is the simple-probability route to inference: no prior, just the
    zero-class likelihood treated as a distribution for theta.
    """
    if not (theta >= 0.0):
        raise DomainError(f"theta must be >= 0, got {theta!r}")
    n = _require_int(n, "n", 1)
    return n * math.exp(-n * theta)


def gamma_pdf(rho: float, dist: GammaDist) -> float:
    """Gamma density at ``rho``.

    The origin is a boundary of the support: the density diverges for
    a < 1, vanishes for a > 1, and equals the rate b for a = 1. Those limits
    are returned directly so grid evaluations starting at 0 need no special
    casing by the caller.
    """
    if not (rho >= 0.0):
        raise DomainError(f"rho must be >= 0, got {rho!r}")
    if rho == 0.0:
        if dist.a < 1.0:
            return math.inf
        if dist.a > 1.0:
            return 0.0
        return dist.b
    log_pdf = (
        dist.a * math.log(dist.b)
        + (dist.a - 1.0) * math.log(rho)
        - dist.b * rho
        - log_gamma(dist.a)
    )
    return math.exp(log_pdf)


def gamma_moment(dist: GammaDist, r: int) -> float:
    """Raw moment E[rho^r] = (a)_r / b^r with the ascending factorial (a)_r."""
    r = _require_int(r, "r")
    if r == 0:
        return 1.0
    log_ascending = log_gamma(dist.a + r) - log_gamma(dist.a)
    return math.exp(log_ascending - r * math.log(dist.b))


def zpoisson_pmf(x: int, params: ZPoissonParams) -> float:
    """Zero-inflated Poisson pmf.

    The zero class carries probability psi * P0; the positive classes share
    the remainder in Poisson proportions.
    """
    x = _require_int(x, "x")
    p0 = params.p0
    zero_mass = params.psi * p0
    if zero_mass > 1.0 + 1e-12:
        raise DomainError(f"psi * P0 = {zero_mass!r} exceeds 1")
    if x == 0:
        return min(1.0, zero_mass)
    # guard roundoff when psi sits exactly at 1/P0
    remainder = max(0.0, 1.0 - zero_mass)
    if remainder == 0.0:
        return 0.0
    one_minus_p0 = -math.expm1(-params.theta)
    return (remainder / one_minus_p0) * poisson_pmf(x, params.theta)


def zpoisson_moments(params: ZPoissonParams) -> tuple[float, float]:
    """Return (mean, dispersion) of the z-Poisson in closed form."""
    p0 = params.p0
    one_minus_p0 = -math.expm1(-params.theta)
    c = max(0.0, 1.0 - params.psi * p0) / one_minus_p0
    mean = c * params.theta
    dispersion = 1.0 + ((params.psi - 1.0) * p0 / one_minus_p0) * params.theta
    return (mean, dispersion)


def nb_pmf(x: int, params: NBParams) -> float:
    """Negative binomial pmf in the (mean, shape) parametrization.

    log1p keeps the (x + a) * log(1 + theta/a) factor accurate for the very
    large shapes used to check the Poisson limit.
    """
    x = _require_int(x, "x")
    theta, a = params.theta, params.a
    log_pmf = (
        x * math.log(theta)
        + log_gamma(a + x)
        - log_gamma(a)
        - log_gamma(x + 1.0)
        - x * math.log(a)
        - (x + a) * math.log1p(theta / a)
    )
    return math.exp(log_pmf)


def nb_dispersion(params: NBParams) -> float:
    """Dispersion coefficient 1 + theta/a, always > 1."""
    return 1.0 + params.theta / params.a


def expected_theta(cfg: DetectorConfig) -> float:
    """Expected counts N * decay_const * efficiency * t for the detector."""
    return cfg.rho * cfg.t


def rate_variance(rho: float, t: float, delta_x: float = 1.0) -> float:
    """Variance of the rate estimate: delta_x * rho / t.

    delta_x = 1 is the pure Poisson value; larger values model overdispersed
    counts.
    """
    if not (rho >= 0.0):
        raise DomainError(f"rho must be >= 0, got {rho!r}")
    if not (t > 0.0):
        raise DomainError(f"t must be > 0, got {t!r}")
    if not (delta_x > 0.0):
        raise DomainError(f"delta_x must be > 0, got {delta_x!r}")
    return delta_x * rho / t


def expectation_over_poisson(
    f: Callable[[int], float],
    theta: float,
    tol: ToleranceConfig | None = None,
) -> float:
    """Compute E[f(X)] for X ~ Poisson(theta) by direct summation.

    The sum is truncated once a geometric bound on the remaining Poisson
    tail, scaled by a local estimate of |f| on the tail, drops below
    ``tol.abs_tol``. Intended for f of at most polynomial growth; rapidly
    growing f defeats the local scale estimate.

    Raises
    ------
    ConvergenceError
        If the truncation bound is not met by x = 10 * (theta + 10).
    """
    if not (theta >= 0.0):
        raise DomainError(f"theta must be >= 0, got {theta!r}")
    tol = tol if tol is not None else DEFAULT_TOL
    if theta == 0.0:
        return float(f(0))

    budget = int(10.0 * (theta + 10.0))
    total = 0.0
    for x in range(budget + 1):
        pmf_x = poisson_pmf(x, theta)
        total += f(x) * pmf_x
        # Past the mode the term ratio theta/(x+1) is < 1, so the pmf tail
        # is bounded by a geometric series; scale it by a local cap on |f|.
        ratio = theta / (x + 1.0)
        if ratio < 1.0:
            tail_mass = pmf_x * ratio / (1.0 - ratio)
            f_scale = 2.0 * max(abs(float(f(x))), abs(float(f(x + 1))), 1.0)
            if tail_mass * f_scale < tol.abs_tol:
                return total
    raise ConvergenceError(
        f"Poisson expectation did not converge by x = {budget} at theta={theta!r}"
    )

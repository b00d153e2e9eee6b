"""Count and rate distributions for rare-event measurements.

Covers the Poisson count model, the Gamma family used for rate priors and
posteriors, and two overdispersed count models: the zero-inflated Poisson
(z-Poisson) and the negative binomial. All pmf and pdf values are computed in
log space and exponentiated once, so the routines stay usable far into the
tails.

Boundary conventions are deliberate rather than errors: a Poisson with
``theta = 0`` is the point mass at zero with dispersion reported as 1, and a
z-Poisson with ``psi`` at either end of its closed validity interval
``[1, 1/P0]`` degenerates smoothly (pure Poisson at 1, all mass on zero at
the top end).
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, DomainError, _Record, _require_int, _require_real
from .numerics import DEFAULT_TOL, ToleranceConfig

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from collections.abc import Callable

__all__ = [
    "PoissonParams",
    "GammaDist",
    "ZPoissonParams",
    "NBParams",
    "poisson_pmf",
    "prob_all_zero",
    "gamma_pdf",
    "zpoisson_pmf",
    "zpoisson_moments",
    "nb_pmf",
    "nb_dispersion",
    "expectation_over_poisson",
]


class PoissonParams(_Record):
    """Dimensionless Poisson count parameter."""

    __slots__ = ("theta",)

    def __init__(self, theta: float):
        _require_real(theta, "theta", 0.0)
        self._store(theta)


class GammaDist(_Record):
    """Gamma distribution with shape ``a`` and rate ``b``."""

    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        _require_real(a, "shape a", 0.0, strict=True)
        _require_real(b, "rate b", 0.0, strict=True)
        self._store(a, b)


class ZPoissonParams(_Record):
    """Zero-inflated Poisson with inflation factor ``psi``.

    Validity is the closed interval 1 <= psi <= 1/P0 with P0 = e^{-theta}.
    psi = 1 is the plain Poisson; psi = 1/P0 puts all mass on x = 0.
    """

    __slots__ = ("theta", "psi")

    def __init__(self, theta: float, psi: float):
        _require_real(theta, "theta", 0.0, strict=True)
        _require_real(psi, "psi", 1.0)
        # allow psi = 1/P0 up to roundoff; beyond that the zero mass exceeds 1
        if psi * math.exp(-theta) > 1.0 + 1e-12:
            raise DomainError(
                f"psi * exp(-theta) = {psi * math.exp(-theta)!r} "
                "exceeds 1; no such distribution exists"
            )
        self._store(theta, psi)

    @property
    def p0(self) -> float:
        return math.exp(-self.theta)


class NBParams(_Record):
    """Negative binomial parametrized by mean ``theta`` and shape ``a``."""

    __slots__ = ("theta", "a")

    def __init__(self, theta: float, a: float):
        _require_real(theta, "theta", 0.0, strict=True)
        _require_real(a, "shape a", 0.0, strict=True)
        self._store(theta, a)


def poisson_pmf(x: int, theta: float) -> float:
    """Poisson probability of observing ``x`` counts at parameter ``theta``."""
    x = _require_int(x, "x")
    _require_real(theta, "theta", 0.0)
    if theta == 0.0:
        return 1.0 if x == 0 else 0.0
    return math.exp(x * math.log(theta) - theta - math.lgamma(x + 1.0))


def prob_all_zero(n: int, theta: float) -> float:
    """Probability that ``n`` independent measurements all read zero counts."""
    n = _require_int(n, "n", 1)
    _require_real(theta, "theta", 0.0)
    # an int theta would make the product an exact int past exp's float range
    return math.exp(-n * float(theta))


def gamma_pdf(rho: float, dist: GammaDist) -> float:
    """Gamma density at ``rho``.

    The origin is a boundary of the support: the density diverges for
    a < 1, vanishes for a > 1, and equals the rate b for a = 1. Those limits
    are returned directly so grid evaluations starting at 0 need no special
    casing by the caller. The density is formed from the float of ``rho``,
    so an int ``rho`` gives the float's answer.
    """
    rho = float(_require_real(rho, "rho", 0.0))
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
        - math.lgamma(dist.a)
    )
    return math.exp(log_pdf)


def zpoisson_pmf(x: int, params: ZPoissonParams) -> float:
    """Zero-inflated Poisson pmf.

    The zero class carries probability psi * P0; the positive classes share
    the remainder in Poisson proportions.
    """
    x = _require_int(x, "x")
    zero_mass = params.psi * params.p0
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
        + math.lgamma(a + x)
        - math.lgamma(a)
        - math.lgamma(x + 1.0)
        - x * math.log(a)
        - (x + a) * math.log1p(theta / a)
    )
    return math.exp(log_pmf)


def nb_dispersion(params: NBParams) -> float:
    """Dispersion coefficient 1 + theta/a, always > 1."""
    return 1.0 + params.theta / params.a


def expectation_over_poisson(
    f: Callable[[int], float],
    theta: float,
    tol: ToleranceConfig = DEFAULT_TOL,
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
    _require_real(theta, "theta", 0.0)
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

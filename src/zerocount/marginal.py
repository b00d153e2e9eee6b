"""Marginalization of two-parameter posteriors down to a density in theta.

Two overdispersed models are given exponential priors on their second
parameter and a joint posterior for a single observed count x. Integrating
the nuisance parameter out then either reproduces the Poisson posterior
with an exponential prior exactly (z-Poisson: the psi integral is analytic)
or yields something that must be compared numerically (negative binomial:
the claimed closed form rests on a heuristic cancellation, so the gap is
measured and reported, never asserted away).

All nuisance integrals run through :func:`integrate_semi_infinite`; the
normalization of each numeric marginal is computed by a second, independent
quadrature rather than by summing the comparison grid, and the residual
reported is a genuine cross-check between the two quadrature strategies.

Note the deliberate domain widening: the joint posteriors are evaluated for
any psi > 0 (not just the pmf validity range [1, 1/P0]) because the
posterior construction integrates psi over (0, inf); and theta = 0, which
every comparison grid includes, is handled by the analytic limits of the
joint forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .distributions import GammaDist, gamma_pdf
from .errors import DomainError, _require_int
from .numerics import DEFAULT_TOL, ToleranceConfig, integrate_semi_infinite, log_gamma

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MarginalComparison",
    "make_theta_grid",
    "zpoisson_joint_posterior",
    "zpoisson_marginal",
    "nb_joint_density",
    "nb_marginal_numeric",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class MarginalComparison:
    """Grid comparison of a numeric marginal against the claimed closed form.

    ``numeric_norm_residual`` is how far the numeric marginal is from
    integrating to 1, measured with a quadrature strategy independent of the
    one that produced the density values.
    """

    x: int
    theta_grid: np.ndarray
    numeric_density: np.ndarray
    claimed_density: np.ndarray
    l1_distance: float
    linf_distance: float
    numeric_norm_residual: float


def make_theta_grid(x: int, step: float = 0.05) -> np.ndarray:
    """Uniform grid [0, x/2 + 12] suitable for marginal comparisons at count x.

    The endpoint leaves under 1e-7 of the claimed density's mass outside the
    grid even at x = 5, so grid-truncation cannot eat the 1e-6 normalization
    budget.
    """
    import numpy as np

    x = _require_int(x, "x")
    if not (step > 0.0):
        raise DomainError(f"step must be > 0, got {step!r}")
    upper = x / 2.0 + 12.0
    n_points = int(round(upper / step)) + 1
    return np.linspace(0.0, upper, n_points)


def _validate_grid(x: int, theta_grid: np.ndarray) -> np.ndarray:
    import numpy as np

    grid = np.asarray(theta_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise DomainError("theta_grid must be a 1-d vector with at least 2 points")
    if grid[0] != 0.0:
        raise DomainError(f"theta_grid must start at 0, got {grid[0]!r}")
    if not np.all(np.diff(grid) > 0.0):
        raise DomainError("theta_grid must be strictly increasing")
    if grid[-1] < x / 2.0 + 10.0:
        raise DomainError(
            f"theta_grid must extend to at least x/2 + 10 = {x / 2.0 + 10.0}, "
            f"got {grid[-1]!r}"
        )
    return grid


def _trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    import numpy as np

    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))


def _other_strategy(strategy: str) -> str:
    return "doubling" if strategy == "transform" else "transform"


def claimed_poisson_me_density(x: int, theta: float) -> float:
    # 2 (2 theta)^x e^{-2 theta} / x!, the Poisson-ME posterior: Gamma(x+1, 2)
    return gamma_pdf(theta, GammaDist(a=x + 1.0, b=2.0))


def zpoisson_joint_posterior(theta: float, psi: float, x: int) -> float:
    """Joint posterior density of (theta, psi) given one z-Poisson count x.

    Exponential priors e^{-theta} (through the ME route, t = 1 twice) and
    e^{-psi} multiply the likelihood. psi is NOT restricted to the pmf
    validity interval here; the construction integrates it over (0, inf),
    and the integrand is allowed to go negative beyond 1/P0 (the negative
    lobes cancel exactly in the psi integral).

    theta = 0 returns the analytic limit: 2 psi e^{-psi} for x = 0,
    4 (1 - psi) e^{-psi} for x = 1, and 0 for x >= 2.
    """
    x = _require_int(x, "x")
    if not (theta >= 0.0):
        raise DomainError(f"theta must be >= 0, got {theta!r}")
    if not (psi > 0.0):
        raise DomainError(f"psi must be > 0, got {psi!r}")
    if theta == 0.0:
        if x == 0:
            return 2.0 * psi * math.exp(-psi)
        if x == 1:
            return 4.0 * (1.0 - psi) * math.exp(-psi)
        return 0.0
    if x == 0:
        # 2 psi P0 e^{-theta} e^{-psi} with P0 = e^{-theta}
        return 2.0 * psi * math.exp(-2.0 * theta - psi)
    one_minus_psi_p0 = 1.0 - psi * math.exp(-theta)
    one_minus_p0 = -math.expm1(-theta)
    log_core = (
        (x + 1.0) * _LN2
        + x * math.log(theta)
        - 2.0 * theta
        - psi
        - log_gamma(x + 1.0)
    )
    return (one_minus_psi_p0 / one_minus_p0) * math.exp(log_core)


def zpoisson_marginal(
    x: int,
    theta_grid: np.ndarray,
    tol: ToleranceConfig | None = None,
    strategy: str = "transform",
) -> MarginalComparison:
    """Integrate psi out of the z-Poisson joint posterior on a theta grid.

    The psi integral is analytic (the psi-dependent factors integrate to
    exactly the right constants), so the numeric marginal should match the
    claimed Poisson-ME form to quadrature accuracy; the distances reported
    quantify that.
    """
    import numpy as np

    x = _require_int(x, "x")
    grid = _validate_grid(x, theta_grid)
    tol = tol if tol is not None else DEFAULT_TOL

    def marginal_at(theta: float) -> float:
        return integrate_semi_infinite(
            lambda psi: zpoisson_joint_posterior(theta, psi, x),
            lower=0.0,
            tol=tol,
            strategy=strategy,
        )

    numeric = np.array([marginal_at(th) for th in grid])
    claimed = np.array([claimed_poisson_me_density(x, th) for th in grid])
    # independent check that the joint is a normalized posterior: integrate
    # the marginal over theta with the other strategy
    total = integrate_semi_infinite(
        marginal_at, lower=0.0, tol=tol, strategy=_other_strategy(strategy)
    )
    diff = np.abs(numeric - claimed)
    return MarginalComparison(
        x=x,
        theta_grid=grid,
        numeric_density=numeric,
        claimed_density=claimed,
        l1_distance=_trapezoid(diff, grid),
        linf_distance=float(diff.max()),
        numeric_norm_residual=abs(total - 1.0),
    )


def nb_joint_density(theta: float, a: float, x: int) -> float:
    """Unnormalized joint density NB(x | theta, a) e^{-theta} e^{-a}.

    Boundary values keep the integrand finite everywhere: at a = 0 the NB
    factor degenerates to a point mass at x = 0, and at theta = 0 likewise.
    """
    x = _require_int(x, "x")
    if not (theta >= 0.0):
        raise DomainError(f"theta must be >= 0, got {theta!r}")
    if not (a >= 0.0):
        raise DomainError(f"a must be >= 0, got {a!r}")
    if theta == 0.0 or a == 0.0:
        if x == 0:
            return math.exp(-theta - a)
        return 0.0
    log_joint = (
        x * math.log(theta)
        + log_gamma(a + x)
        - log_gamma(a)
        - log_gamma(x + 1.0)
        - x * math.log(a)
        - (x + a) * math.log1p(theta / a)
        - theta
        - a
    )
    return math.exp(log_joint)


def nb_marginal_numeric(
    x: int,
    theta_grid: np.ndarray,
    tol: ToleranceConfig | None = None,
    strategy: str = "transform",
    a_lower: float = 0.0,
) -> MarginalComparison:
    """Marginalize the NB joint posterior over a, numerically.

    The normalization (the evidence integral over theta and a) is computed
    by quadrature rather than by the divergent series manipulations the
    closed-form route would require. The comparison against the claimed
    Poisson-ME form is REPORTED through the distance fields; equality is an
    open question and is deliberately not asserted.

    ``a_lower`` restricts the shape integration to [a_lower, inf); pushing
    it up forces the NB toward its Poisson limit and the marginal toward
    the claimed form.
    """
    import numpy as np

    x = _require_int(x, "x")
    grid = _validate_grid(x, theta_grid)
    tol = tol if tol is not None else DEFAULT_TOL
    if not (0.0 <= a_lower < math.inf):
        raise DomainError(f"a_lower must be finite and >= 0, got {a_lower!r}")

    def raw_marginal_at(theta: float) -> float:
        return integrate_semi_infinite(
            lambda a: nb_joint_density(theta, a, x),
            lower=a_lower,
            tol=tol,
            strategy=strategy,
        )

    evidence = integrate_semi_infinite(
        raw_marginal_at, lower=0.0, tol=tol, strategy=strategy
    )
    numeric = np.array([raw_marginal_at(th) for th in grid]) / evidence
    claimed = np.array([claimed_poisson_me_density(x, th) for th in grid])
    # dual-route propriety check: re-integrate with the other strategy and
    # compare against the evidence used for normalization
    evidence_other = integrate_semi_infinite(
        raw_marginal_at, lower=0.0, tol=tol, strategy=_other_strategy(strategy)
    )
    diff = np.abs(numeric - claimed)
    return MarginalComparison(
        x=x,
        theta_grid=grid,
        numeric_density=numeric,
        claimed_density=claimed,
        l1_distance=_trapezoid(diff, grid),
        linf_distance=float(diff.max()),
        numeric_norm_residual=abs(evidence_other / evidence - 1.0),
    )

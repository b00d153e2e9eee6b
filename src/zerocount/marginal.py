"""Marginalization of two-parameter posteriors down to a density in theta.

Two overdispersed models are given exponential priors on their second
parameter and a joint posterior for a single observed count x. Integrating
the nuisance parameter out then either reproduces the Poisson posterior
with an exponential prior exactly (z-Poisson: the psi integral is analytic)
or yields something that must be compared numerically (negative binomial:
the claimed closed form rests on a heuristic cancellation, so the gap is
measured and reported, never asserted away).

Each joint density is a numpy function over a (nuisance x theta) grid, so
the whole comparison grid is one vector integral of
:func:`integrate_semi_infinite`, and the evidence is an outer integral over
theta whose integrand is one inner vector integral at the outer kernel's 15 or
30 nodes (one panel, or both halves of a split one). The residual reported is
a genuine cross-check between the two strategies.

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
from .errors import DomainError, _require_int, _require_real
from .numerics import DEFAULT_TOL, ToleranceConfig, integrate_semi_infinite

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
    _require_real(step, "step", 0.0, strict=True)
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


def _require_reals(values, name: str, low: float, *, strict: bool = False) -> np.ndarray:
    """``values`` as a float ndarray whose every entry passes ``_require_real``."""
    import numpy as np

    array = np.asarray(values, dtype=float)
    # the extremes decide: a NaN makes both NaN, an infinity is the max
    for extreme in (array.min(), array.max()) if array.size else ():
        _require_real(float(extreme), name, low, strict=strict)
    return array


def _comparison(x: int, grid: np.ndarray, numeric: np.ndarray, residual: float):
    import numpy as np

    # 2 (2 theta)^x e^{-2 theta} / x!, the Poisson-ME posterior: Gamma(x+1, 2)
    claimed = np.array([gamma_pdf(th, GammaDist(a=x + 1.0, b=2.0)) for th in grid.tolist()])
    diff = np.abs(numeric - claimed)
    l1 = float(np.sum(0.5 * (diff[1:] + diff[:-1]) * np.diff(grid)))
    return MarginalComparison(x, grid, numeric, claimed, l1, float(diff.max()), residual)


def _other_strategy(strategy: str) -> str:
    return "doubling" if strategy == "transform" else "transform"


def _zpoisson_joint_in_psi(theta: np.ndarray, x: int):
    """psi -> e^{-psi} (A - psi B): the joint, its theta-only A, B computed once."""
    import numpy as np

    if x == 0:
        # 2 psi P0 e^{-theta} e^{-psi} with P0 = e^{-theta}
        a_coef, b_coef = 0.0, -2.0 * np.exp(-2.0 * theta)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            log_core = (x + 1.0) * _LN2 + x * np.log(theta) - 2.0 * theta - math.lgamma(x + 1.0)
            scale = np.exp(log_core) / -np.expm1(-theta)
        limit = 4.0 if x == 1 else 0.0
        a_coef, b_coef = (np.where(theta > 0.0, v, limit) for v in (scale, scale * np.exp(-theta)))
    return lambda psi: np.exp(-psi) * (a_coef - psi * b_coef)


def zpoisson_joint_posterior(theta, psi, x: int):
    """Joint posterior density of (theta, psi) given one z-Poisson count x.

    Exponential priors e^{-theta} (through the ME route, t = 1 twice) and
    e^{-psi} multiply the likelihood, giving e^{-psi} (A(theta) - psi B(theta)).
    psi is NOT restricted to the pmf validity interval here; the construction
    integrates it over (0, inf), and the integrand is allowed to go negative
    beyond 1/P0 (the negative lobes cancel exactly in the psi integral).

    theta = 0 returns the analytic limit: 2 psi e^{-psi} for x = 0,
    4 (1 - psi) e^{-psi} for x = 1, and 0 for x >= 2. theta and psi may be
    arrays that broadcast; scalars give a float.
    """
    x = _require_int(x, "x")
    theta_arr = _require_reals(theta, "theta", 0.0)
    psi_arr = _require_reals(psi, "psi", 0.0, strict=True)
    out = _zpoisson_joint_in_psi(theta_arr, x)(psi_arr)
    return float(out) if out.ndim == 0 else out


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
    x = _require_int(x, "x")
    grid = _validate_grid(x, theta_grid)
    tol = tol if tol is not None else DEFAULT_TOL

    def marginal(theta: np.ndarray) -> np.ndarray:
        joint = _zpoisson_joint_in_psi(theta, x)
        return integrate_semi_infinite(
            lambda psi: joint(psi[:, None]), lower=0.0, tol=tol, strategy=strategy
        )

    # independent check that the joint is a normalized posterior: integrate
    # the marginal over theta with the other strategy
    total = integrate_semi_infinite(
        marginal, lower=0.0, tol=tol, strategy=_other_strategy(strategy)
    )
    return _comparison(x, grid, marginal(grid), abs(total - 1.0))


def _nb_joint(a: np.ndarray, theta: np.ndarray, x: int) -> np.ndarray:
    """NB(x | theta, a) e^{-theta} e^{-a} for broadcast a > 0, theta >= 0.

    Gamma(a + x) theta^x / (Gamma(a) x! (a + theta)^x) is the product over
    j < x of theta (a + j) / ((j + 1) (a + theta)), the rising factorial
    without lgamma; factors are at most max(1, a), so blocks of 8 cannot
    overflow before their logs join the exponent. At theta = 0 a block is 0
    and its log -inf: callers ignore numpy's divide warning around it.
    """
    import numpy as np

    log_joint = -(a * np.log1p(theta / a) + theta + a)
    for first in range(0, x, 8):
        block = 1.0
        for j in range(first, min(first + 8, x)):
            block = block * (theta * (a + j) / ((j + 1.0) * (a + theta)))
        log_joint = log_joint + np.log(block)
    return np.exp(log_joint)


def nb_joint_density(theta, a, x: int):
    """Unnormalized joint density NB(x | theta, a) e^{-theta} e^{-a}.

    Boundary values keep the integrand finite everywhere: at a = 0 the NB
    factor degenerates to a point mass at x = 0, and at theta = 0 likewise.
    theta and a may be arrays that broadcast; scalars give a float.
    """
    import numpy as np

    x = _require_int(x, "x")
    theta_arr, a_arr = _require_reals(theta, "theta", 0.0), _require_reals(a, "a", 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _nb_joint(a_arr, theta_arr, x)
    out = np.where(a_arr == 0.0, np.exp(-theta_arr) if x == 0 else 0.0, out)
    return float(out) if out.ndim == 0 else out


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
    _require_real(a_lower, "a_lower", 0.0)

    def raw_marginal(theta: np.ndarray) -> np.ndarray:
        return integrate_semi_infinite(
            lambda a: _nb_joint(a[:, None], theta, x), lower=a_lower, tol=tol, strategy=strategy
        )

    # one scope for every _nb_joint call below, theta = 0 included
    with np.errstate(divide="ignore"):
        evidence = integrate_semi_infinite(raw_marginal, lower=0.0, tol=tol, strategy=strategy)
        # dual-route propriety check: re-integrate with the other strategy and
        # compare against the evidence used for normalization
        evidence_other = integrate_semi_infinite(
            raw_marginal, lower=0.0, tol=tol, strategy=_other_strategy(strategy)
        )
        numeric = raw_marginal(grid) / evidence
    return _comparison(x, grid, numeric, abs(evidence_other / evidence - 1.0))

"""Marginalization of two-parameter posteriors down to a density in theta.

Two overdispersed models are given exponential priors on their second
parameter and a joint posterior for a single observed count x. Integrating
the nuisance parameter out then either reproduces the Poisson posterior
with an exponential prior exactly (z-Poisson: the psi integral is analytic)
or yields something that must be compared numerically (negative binomial:
the claimed closed form rests on a heuristic cancellation, so the gap is
measured and reported, never asserted away).

Each joint density is a numpy function over a (nuisance x theta) grid, so
the comparison grid is a vector integral of :func:`integrate_semi_infinite`,
one column per grid point, and the evidence is an outer integral over theta
whose integrand is one inner vector integral at the outer kernel's nodes.
The theta integrals and the first inner one start cold, from the kernel's
graded partition for their route. Every later inner integral, and each
block of the grid, starts from the nuisance partition the integral before
converged on; each still meets its own tolerance. A block's first call has
15 rows per panel of that partition, or of a cold retry's 8, so a
block of 30 * _MAX_GRID_POINTS // (15 * max(m, 8)) columns for m panels
holds no more than the 30 * _MAX_GRID_POINTS cells of one 30-row split of a
full grid. The NB shape a = a_lower + d runs over w = sqrt(d): near a = 0
the joint behaves like exp(a ln(a / (a + theta))), whose a ln a term has an
unbounded derivative that the G7/K15 rule resolves only by bisecting toward
d = 0 panel by panel, and d = w^2 turns it into 2 w^2 ln w, whose first
derivative is continuous (Davis and Rabinowitz, 1984, section 2.12). The
same holds for theta in the NB marginal at x <= 2 with a_lower = 0: the
integral of t (1 + t)^-x over t >= 0 diverges there, so the marginal has a
theta^2 ln theta term at theta = 0, and its evidence and norm integrals run
over s, theta = s^2 / (1 + s), which turns that term into about 2 s^4 ln s.
Every other marginal is smooth at theta = 0 and keeps theta itself: the
map's outer nodes near theta = 0 would deepen the inner partitions that
later integrals and the grid start from. Both models run through one
driver, and their residuals are a genuine cross-check: the marginal's theta
integral by the other strategy. The z-Poisson joint is a posterior of unit
mass, so a residual at or above the 1e-6 budget raises ``QuadratureError``,
before any grid work is spent. The NB residual, the two strategies'
disagreement over the evidence, is only reported: loose tolerances widen
it.

Note the deliberate domain widening: the joint posteriors are evaluated for
any psi > 0 (not just the pmf validity range [1, 1/P0]) because the
posterior construction integrates psi over (0, inf); and theta = 0, which
every comparison grid includes, is handled by the analytic limits of the
joint forms.
"""

from __future__ import annotations

import math
import operator

from .errors import DomainError, QuadratureError, _Record, _require_int, _require_real
from .numerics import DEFAULT_TOL, ToleranceConfig
from .quadrature import integrate_semi_infinite

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
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
# Every grid point is one column of the marginal's vector integral, so memory
# and time grow linearly with the grid: 10^5 points take a process 104 to
# 109 MB at peak and 0.36 s (transform) to 0.52 s (doubling) (NB, x = 1, on a
# shared 2-vCPU VM), and the cap bounds both.
_MAX_GRID_POINTS = 100_000
# NB cost grows with x, as the rising factorial takes x / 8 array passes per
# joint call: at the finest grid x = 300 takes 34 s and x = 1000 took 60 s,
# and at the default step x = 3000 took 28 s (shared 2-vCPU VM)
_MAX_NB_COUNT = 300
# the most a z-Poisson marginal's theta integral may miss 1 by, and the most
# its density may miss the claimed form by for a PASS verdict
_NORM_BUDGET = 1e-6


class MarginalComparison(_Record):
    """Grid comparison of a numeric marginal against the claimed closed form.

    ``numeric_norm`` is the numeric marginal's integral over theta, taken
    with a quadrature strategy independent of the one that produced the
    density values; ``numeric_norm_residual`` is its distance from 1.
    """

    __slots__ = ("x", "theta_grid", "numeric_density", "claimed_density", "l1_distance",
                 "linf_distance", "numeric_norm")

    @property
    def numeric_norm_residual(self) -> float:
        return abs(self.numeric_norm - 1.0)


def make_theta_grid(x: int, step: float = 0.05) -> np.ndarray:
    """Uniform grid [0, x/2 + 12] suitable for marginal comparisons at count x.

    The endpoint leaves under 1e-7 of the claimed density's mass outside the
    grid even at x = 5, so grid-truncation cannot eat the 1e-6 normalization
    budget. A step that gives fewer than 2 points or more than 10^5 raises
    ``DomainError``.
    """
    x = _require_int(x, "x")
    _require_real(step, "step", 0.0, strict=True)
    upper = x / 2.0 + 12.0
    # the cap bounds the count before rounding, which an infinity cannot take
    n_points = int(round(min(upper / step, _MAX_GRID_POINTS))) + 1
    if n_points > _MAX_GRID_POINTS:
        raise DomainError(
            f"step must give at most {_MAX_GRID_POINTS} grid points on "
            f"[0, {upper:g}], got {step!r}"
        )
    if n_points < 2:
        raise DomainError(
            f"step must give at least 2 grid points on [0, {upper:g}], got {step!r}"
        )
    import numpy as np

    return np.linspace(0.0, upper, n_points)


def _validate_grid(x: int, theta_grid: np.ndarray) -> np.ndarray:
    import numpy as np

    reach = x / 2.0 + 10.0
    grid = np.asarray(theta_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise DomainError("theta_grid must be a 1-d vector with at least 2 points")
    if grid.size > _MAX_GRID_POINTS:
        raise DomainError(
            f"theta_grid must have at most {_MAX_GRID_POINTS} points, got {grid.size}"
        )
    if grid[0] != 0.0:
        raise DomainError(f"theta_grid must start at 0, got {float(grid[0])!r}")
    if not np.all(np.diff(grid) > 0.0):
        raise DomainError("theta_grid must be strictly increasing")
    if not math.isfinite(grid[-1]):
        raise DomainError(f"theta_grid must be finite, got {float(grid[-1])!r}")
    if grid[-1] < reach:
        raise DomainError(
            f"theta_grid must extend to at least x/2 + 10 = {reach}, got {float(grid[-1])!r}"
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


def _marginalize(x: int, theta_grid, tol: ToleranceConfig, strategy: str, joint_in,
                 normalize: bool = False, theta_map: bool = False) -> MarginalComparison:
    """Integrate the nuisance over [0, inf) on a theta grid; compare with Gamma(x+1, 2).

    ``joint_in(theta, x)`` computes a theta batch's theta-only coefficients
    once and returns the joint as a function of the nuisance. With
    ``normalize``, the marginal's theta integral by ``strategy`` is the
    evidence that divides it. Without it the joint is a posterior of unit mass
    (z-Poisson), so a norm that misses 1 by the budget raises
    ``QuadratureError`` before any grid work. The norm is the marginal's theta
    integral by the other strategy, over the evidence. With ``theta_map``
    both theta integrals run over s, theta = s^2 / (1 + s). The inner
    integrals and the grid, which runs last in blocks, share one warm state
    (see the module docstring).
    """
    import numpy as np

    grid = _validate_grid(x, theta_grid)
    other = "doubling" if strategy == "transform" else "transform"

    warm = {}

    def marginal(theta: np.ndarray) -> np.ndarray:
        joint = joint_in(theta, x)
        return integrate_semi_infinite(lambda u: joint(u[:, None]), tol, strategy, warm=warm)

    def over_s(s: np.ndarray) -> np.ndarray:
        # theta = s^2 / (1 + s) and dtheta/ds = s (s + 2) / (1 + s)^2, formed
        # through r = s / (1 + s) <= 1 so that neither overflows before theta does
        r = s / (1.0 + s)
        return marginal(s * r) * (r * (1.0 + 1.0 / (1.0 + s)))

    def theta_integral(route: str) -> float:
        return integrate_semi_infinite(over_s if theta_map else marginal, tol, route)

    # one scope for every joint call below, theta = 0 included
    with np.errstate(divide="ignore"):
        evidence = theta_integral(strategy) if normalize else 1.0
        norm = theta_integral(other) / evidence
        if not normalize and abs(norm - 1.0) >= _NORM_BUDGET:
            raise QuadratureError(
                f"the z-Poisson marginal integrates to {norm!r} over theta: "
                f"numeric_norm_residual={abs(norm - 1.0):.6g} is at or above "
                f"the {_NORM_BUDGET:g} budget",
                partial_sum=norm,
            )
        blocks, start = [], 0
        while start < grid.size:
            # the first call holds 15 rows per panel of the partition this block
            # starts from, which the block before may have refined, or of a cold
            # retry's 8: at most 30 * _MAX_GRID_POINTS cells
            width = 30 * _MAX_GRID_POINTS // (15 * max(len(warm[strategy]) - 1, 8))
            blocks.append(marginal(grid[start:start + width]))
            start += width
        numeric = np.concatenate(blocks) / evidence
    # 2 (2 theta)^x e^{-2 theta} / x!, the Poisson-ME posterior: the Gamma(x+1, 2)
    # density by gamma_pdf's operations in its order, its constants hoisted
    a, exp, log = x + 1.0, math.exp, math.log
    head, tail, at_zero = a * _LN2, math.lgamma(a), 2.0 if x == 0 else 0.0
    claimed = np.array([
        exp(head + (a - 1.0) * log(th) - 2.0 * th - tail) if th else at_zero
        for th in grid.tolist()
    ])
    diff = np.abs(numeric - claimed)
    l1 = float(np.sum(0.5 * (diff[1:] + diff[:-1]) * np.diff(grid)))
    return MarginalComparison(x, grid, numeric, claimed, l1, float(diff.max()), norm)


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

    def joint(psi):  # e^{-psi} (A - psi B) by those operations, in one buffer
        out = psi * b_coef
        return np.multiply(np.exp(-psi), np.subtract(a_coef, out, out=out), out=out)

    return joint


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
    # a trailing axis keeps 0-d inputs arrays, which the joint writes into
    out = _zpoisson_joint_in_psi(theta_arr[..., None], x)(psi_arr[..., None])[..., 0]
    return float(out) if out.ndim == 0 else out


def zpoisson_marginal(
    x: int,
    theta_grid: np.ndarray,
    tol: ToleranceConfig = DEFAULT_TOL,
    strategy: str = "transform",
) -> MarginalComparison:
    """Integrate psi out of the z-Poisson joint posterior on a theta grid.

    The psi integral is analytic (the psi-dependent factors integrate to
    exactly the right constants), so the numeric marginal should match the
    claimed Poisson-ME form to quadrature accuracy; the distances reported
    quantify that.

    Raises:
        QuadratureError: the marginal's theta integral by the other strategy
            misses 1 by the 1e-6 budget or more, as at x = 1000 on
            ``"transform"``: the doubling theta integral finds the joint
            underflowed to 0 at every node of its start and its splits, none
            of them near the mass at x/2. ``partial_sum`` is that integral.
            The graded starts find that mass at x = 400 on ``"transform"``
            and at x = 200 and x = 1000 on ``"doubling"``.
    """
    x = _require_int(x, "x")
    return _marginalize(x, theta_grid, tol, strategy, _zpoisson_joint_in_psi)


def _nb_joint(d: np.ndarray, theta: np.ndarray, x: int, a_lower: float = 0.0) -> np.ndarray:
    """NB(x | theta, a) e^{-theta} e^{-d} at a = a_lower + d, for broadcast a > 0, theta >= 0.

    The prior e^{-a} is e^{-a_lower} e^{-d}, and that constant cancels in the
    normalization, so the joint keeps its scale at any a_lower.

    Gamma(a + x) theta^x / (Gamma(a) x! (a + theta)^x) is the product over
    j < x of theta (a + j) / ((j + 1) (a + theta)), the rising factorial
    without lgamma. A factor is at most max(1, a) and about max(1, theta), and
    divides before it multiplies, so neither it nor a block of 8 overflows
    before the logs join the exponent unless a and theta both pass 1e38
    (a_lower may reach the float range). At theta = 0 a block is 0
    and its log -inf: callers ignore numpy's divide warning around it.

    The array passes are trimmed and run in place, so ``d`` and ``theta``
    must broadcast to at least one dimension: a 0-d result is a numpy
    scalar, which takes no ``out=``. They still give the doubles of the
    plain form, -(a log1p(theta/a) + theta + d) plus the blocks' logs with
    each block 1.0 times its factors in turn. Negation is exact and
    rounding to nearest is symmetric, so -a log1p(theta/a) - theta - d
    rounds to the same bits. 1.0 * f is f, so a block starts from its first
    factor. a + theta is the same in every factor, so it is formed once,
    and only when there is a factor. And y * z == z * y exactly.
    """
    import numpy as np

    a = a_lower + d
    log_joint = -a * np.log1p(theta / a)
    log_joint -= theta
    log_joint -= d
    if x:
        a_theta = a + theta

    def factor(j):
        f = (a + j) / a_theta
        f *= theta / (j + 1.0)
        return f

    for first in range(0, x, 8):
        block = factor(first)
        for j in range(first + 1, min(first + 8, x)):
            block *= factor(j)
        log_joint += np.log(block, out=block)
    return np.exp(log_joint, out=log_joint)


def _nb_joint_in_w(theta: np.ndarray, x: int, a_lower: float = 0.0):
    """w -> the NB joint at a = a_lower + w^2, times da/dw = 2 w and 2^(x + 1).

    The evidence is about 2^-(x + 1), which abs_tol swamps at large x: the
    Gamma(x + 1, 2) normalizer, a power of two, rescales every double
    exactly. The Jacobian joins it on the (n, 1) rows, so the joint's cells
    take one in-place pass.
    """
    normalizer = 2.0 ** (x + 1)
    return lambda w: operator.imul(_nb_joint(w * w, theta, x, a_lower), 2.0 * w * normalizer)


def nb_joint_density(theta, a, x: int):
    """Joint density NB(x | theta, a) e^{-theta} e^{-a}, up to its evidence.

    Boundary values keep the integrand finite everywhere: at a = 0 the NB
    factor degenerates to a point mass at x = 0, and at theta = 0 likewise.
    theta and a may be arrays that broadcast; scalars give a float. An x
    above 300 raises ``DomainError``: the cost grows with x.
    """
    import numpy as np

    x = _require_int(x, "x", 0, _MAX_NB_COUNT)
    theta_arr, a_arr = _require_reals(theta, "theta", 0.0), _require_reals(a, "a", 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        # a trailing axis keeps 0-d inputs arrays, which _nb_joint writes into
        out = _nb_joint(a_arr[..., None], theta_arr[..., None], x)[..., 0]
    out = np.where(a_arr == 0.0, np.exp(-theta_arr) if x == 0 else 0.0, out)
    return float(out) if out.ndim == 0 else out


def nb_marginal_numeric(
    x: int,
    theta_grid: np.ndarray,
    tol: ToleranceConfig = DEFAULT_TOL,
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
    the claimed form. The integral runs over w = sqrt(a - a_lower), with
    da = 2 w dw, for every ``a_lower``: at a = 0 the joint's a ln a term
    becomes 2 w^2 ln w, so the kernel need not bisect toward that endpoint.
    At x <= 2 with ``a_lower = 0`` the shapes near 0 give the marginal a
    theta^2 ln theta term at theta = 0, so the evidence and the norm
    integrate over s, theta = s^2 / (1 + s), dtheta = s (s + 2) / (1 + s)^2
    ds, for the same reason. Elsewhere the marginal is smooth at theta = 0,
    and they integrate over theta. An x above 300 raises ``DomainError``:
    the cost grows with x.
    """
    x = _require_int(x, "x", 0, _MAX_NB_COUNT)
    _require_real(a_lower, "a_lower", 0.0)
    return _marginalize(
        x, theta_grid, tol, strategy, lambda theta, x: _nb_joint_in_w(theta, x, a_lower),
        normalize=True, theta_map=x <= 2 and a_lower == 0.0,
    )

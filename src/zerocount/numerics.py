"""Numerical primitives for the inference modules.

Provides the log-gamma function, the regularized lower incomplete gamma
``P(a, x)`` and its inverse, the exponential integral ``E1``, and adaptive
quadrature over semi-infinite intervals. All routines are deterministic and
pure; accuracy is steered by :class:`ToleranceConfig`.

The incomplete gamma uses the classical split, a power series for
``x < a + 1`` and a Lentz-style continued fraction for the complementary
function otherwise, which keeps the accuracy uniform over the shape and
quantile ranges the posterior solver visits. The inverse brackets the root
geometrically away from ``x = 1`` and then mixes Newton steps with bisection.
Quadrature failures always surface as :class:`~zerocount.errors.QuadratureError`
carrying the partial sum, never as a silent NaN.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

from .errors import ConvergenceError, DomainError, QuadratureError, _require_int

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "EULER_GAMMA",
    "log_gamma",
    "reg_inc_gamma_lower",
    "inv_reg_inc_gamma_lower",
    "exp_integral_e1",
    "integrate_semi_infinite",
]

EULER_GAMMA = 0.5772156649015329

# Internal iteration budgets for series/continued fractions; these are not
# user-facing accuracy knobs, they only guard against runaway loops.
_MAX_TERMS = 10_000
_MAX_PANELS = 4096
_MAX_OCTAVES = 64
_SERIES_EPS = 1e-16
_TINY = 1e-300


@dataclass(frozen=True)
class ToleranceConfig:
    """Accuracy targets shared by solvers and quadrature.

    Attributes
    ----------
    abs_tol : float
        Absolute target for root residuals and integral tails.
    max_iter : int
        Iteration budget for bracketing and root polishing.
    quad_rel_tol : float
        Relative error target for adaptive quadrature.
    """

    abs_tol: float = 1e-12
    max_iter: int = 200
    quad_rel_tol: float = 1e-9

    def __post_init__(self):
        for name in ("abs_tol", "quad_rel_tol"):
            value = getattr(self, name)
            if not (0.0 < value < math.inf):
                raise DomainError(f"{name} must be finite and > 0, got {value!r}")
        _require_int(self.max_iter, "max_iter", 1)


DEFAULT_TOL = ToleranceConfig()


def log_gamma(z: float) -> float:
    """Return ``ln Gamma(z)`` for ``z > 0``.

    Thin wrapper over :func:`math.lgamma`, which is accurate to a few ulp
    across the range this package uses; the wrapper adds the strict domain
    check the callers rely on.
    """
    if not (z > 0.0):
        raise DomainError(f"log_gamma requires z > 0, got {z!r}")
    return math.lgamma(z)


def reg_inc_gamma_lower(a: float, x: float) -> float:
    """Regularized lower incomplete gamma ``P(a, x)``.

    ``P(a, x) = gamma(a, x) / Gamma(a)`` is the Gamma(a, 1) CDF at ``x``:
    monotone nondecreasing in ``x``, 0 at ``x = 0``, and 1 in the limit.
    Both evaluation branches iterate to machine-level convergence.
    """
    if not (0.0 < a < math.inf):
        raise DomainError(f"shape parameter must be finite and positive, got {a!r}")
    if not (x >= 0.0):
        raise DomainError(f"x must be nonnegative, got {x!r}")
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    log_prefactor = a * math.log(x) - x - math.lgamma(a)

    if x < a + 1.0:
        # ascending series for P(a, x)
        denom = a
        term = 1.0 / a
        total = term
        for _ in range(_MAX_TERMS):
            denom += 1.0
            term *= x / denom
            total += term
            if abs(term) < abs(total) * _SERIES_EPS:
                break
        else:
            raise ConvergenceError(
                f"incomplete gamma series stalled at a={a!r}, x={x!r}"
            )
        return min(1.0, total * math.exp(log_prefactor))

    # Lentz continued fraction for the complementary Q(a, x)
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _SERIES_EPS:
            q = math.exp(log_prefactor) * h
            return min(1.0, max(0.0, 1.0 - q))
    raise ConvergenceError(
        f"incomplete gamma continued fraction stalled at a={a!r}, x={x!r}"
    )


def inv_reg_inc_gamma_lower(
    a: float, p: float, tol: ToleranceConfig | None = None
) -> float:
    """Solve ``P(a, x) = p`` for ``x``, with ``0 < p < 1``.

    The root is bracketed by doubling (or halving) away from ``x = 1``, then
    polished with Newton steps that fall back to bisection whenever the
    Newton proposal leaves the bracket. Terminates when the CDF residual
    drops below ``tol.abs_tol``.

    Raises
    ------
    ConvergenceError
        If bracketing or polishing exhausts ``tol.max_iter``; the exception
        carries the last bracket.
    """
    if not (0.0 < a < math.inf):
        raise DomainError(f"shape parameter must be finite and positive, got {a!r}")
    if not (0.0 < p < 1.0):
        raise DomainError(f"p must lie strictly inside (0, 1), got {p!r}")
    tol = tol if tol is not None else DEFAULT_TOL

    def residual(x: float) -> float:
        return reg_inc_gamma_lower(a, x) - p

    lo = hi = 1.0
    f_unit = residual(1.0)
    if f_unit == 0.0:
        return 1.0
    if f_unit < 0.0:
        for _ in range(tol.max_iter):
            hi *= 2.0
            if residual(hi) >= 0.0:
                break
        else:
            raise ConvergenceError(
                "failed to bracket the incomplete gamma inverse from above",
                bracket=(lo, hi),
            )
    else:
        for _ in range(tol.max_iter):
            lo *= 0.5
            if residual(lo) <= 0.0:
                break
        else:
            raise ConvergenceError(
                "failed to bracket the incomplete gamma inverse from below",
                bracket=(lo, hi),
            )

    log_gamma_a = math.lgamma(a)
    x = 0.5 * (lo + hi)
    fx = residual(x)
    for _ in range(tol.max_iter):
        if abs(fx) <= tol.abs_tol:
            return x
        if fx > 0.0:
            hi = x
        else:
            lo = x
        # Newton step using the Gamma(a, 1) density; bisect when the density
        # underflows or the proposal escapes the bracket.
        log_pdf = (a - 1.0) * math.log(x) - x - log_gamma_a
        proposal = None
        if log_pdf > -700.0:
            candidate = x - fx / math.exp(log_pdf)
            if lo < candidate < hi and candidate != x:
                proposal = candidate
        x = proposal if proposal is not None else 0.5 * (lo + hi)
        fx = residual(x)
    if abs(fx) <= tol.abs_tol:
        return x
    raise ConvergenceError(
        f"incomplete gamma inverse did not converge for a={a!r}, p={p!r}",
        bracket=(lo, hi),
        residual=fx,
    )


def exp_integral_e1(x: float) -> float:
    """Exponential integral ``E1(x) = int_x^inf e^{-u}/u du`` for ``x > 0``.

    Power series about the origin for ``x <= 1`` (where
    ``E1(x) ~ -gamma_E - ln x``), Lentz continued fraction for ``x > 1``.
    """
    if not (x > 0.0):
        raise DomainError(f"E1 requires x > 0, got {x!r}")
    if x == math.inf:
        return 0.0

    if x <= 1.0:
        total = -EULER_GAMMA - math.log(x)
        term = 1.0
        sign = 1.0
        for k in range(1, _MAX_TERMS):
            term *= x / k
            contribution = sign * term / k
            total += contribution
            if abs(contribution) < abs(total) * _SERIES_EPS:
                return total
            sign = -sign
        raise ConvergenceError(f"E1 series stalled at x={x!r}")

    b = x + 1.0
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_TERMS):
        an = -float(i * i)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _SERIES_EPS:
            return h * math.exp(-x)
    raise ConvergenceError(f"E1 continued fraction stalled at x={x!r}")


# Gauss-Legendre panel rule: a 15-point estimate with the 7-point rule as the
# embedded error reference. Nodes are interior, so integrands may blow up at
# panel endpoints without being sampled there.
#
# The values are the reprs of numpy.polynomial.legendre.leggauss(7) and (15)
# as .tolist() gives them (numpy 2.4.6). They are literals so that importing
# this module does not import numpy; tests/test_numerics.py checks them
# against leggauss bit for bit.
_G7_NODES = (
    -0.9491079123427586, -0.7415311855993945, -0.4058451513773972, 0.0,
    0.4058451513773972, 0.7415311855993945, 0.9491079123427586,
)
_G7_WEIGHTS = (
    0.12948496616886973, 0.27970539148927687, 0.3818300505051187,
    0.4179591836734693, 0.3818300505051187, 0.27970539148927687,
    0.12948496616886973,
)
_G15_NODES = (
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272,
    -0.7244177313601701, -0.5709721726085388, -0.3941513470775634,
    -0.20119409399743451, 0.0, 0.20119409399743451, 0.3941513470775634,
    0.5709721726085388, 0.7244177313601701, 0.8482065834104272,
    0.9372733924007058, 0.9879925180204854,
)
_G15_WEIGHTS = (
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141,
    0.13957067792615444, 0.16626920581699398, 0.1861610000155622,
    0.1984314853271116, 0.2025782419255613, 0.1984314853271116,
    0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
    0.10715922046717141, 0.0703660474881084, 0.030753241996117203,
)


def _panel_rule(f: Callable[[float], float], a: float, b: float):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    coarse = 0.0
    for node, weight in zip(_G7_NODES, _G7_WEIGHTS):
        y = f(mid + half * node)
        if not math.isfinite(y):
            raise QuadratureError(
                f"integrand returned a non-finite value at x={mid + half * node!r}"
            )
        coarse += weight * y
    fine = 0.0
    for node, weight in zip(_G15_NODES, _G15_WEIGHTS):
        y = f(mid + half * node)
        if not math.isfinite(y):
            raise QuadratureError(
                f"integrand returned a non-finite value at x={mid + half * node!r}"
            )
        fine += weight * y
    return half * fine, abs(half * (fine - coarse))


def _adaptive(f, a, b, abs_tol, rel_tol, max_panels=_MAX_PANELS):
    """Globally adaptive bisection on [a, b]; returns (integral, error)."""
    value, err = _panel_rule(f, a, b)
    total, total_err = value, err
    heap = [(-err, a, b, value, err)]
    panels = 1
    while total_err > max(abs_tol, rel_tol * abs(total)):
        if panels >= max_panels:
            raise QuadratureError(
                f"quadrature did not reach tolerance within {max_panels} panels",
                partial_sum=total,
                error_estimate=total_err,
            )
        _, pa, pb, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        left_val, left_err = _panel_rule(f, pa, mid)
        right_val, right_err = _panel_rule(f, mid, pb)
        total += left_val + right_val - pval
        total_err += left_err + right_err - perr
        heapq.heappush(heap, (-left_err, pa, mid, left_val, left_err))
        heapq.heappush(heap, (-right_err, mid, pb, right_val, right_err))
        panels += 1
    return total, total_err


def integrate_semi_infinite(
    f: Callable[[float], float],
    lower: float = 0.0,
    tol: ToleranceConfig | None = None,
    strategy: str = "transform",
) -> float:
    """Integrate ``f`` over ``[lower, inf)``.

    Two independent routes are available. ``"transform"`` maps the tail onto
    (0, 1) through ``x = lower + (1 - u)/u`` and integrates adaptively in
    ``u``. ``"doubling"`` sums adaptive panels of geometrically growing width
    and stops once two consecutive extensions contribute nothing beyond the
    tolerance. Both assume the integrand's mass is reachable from ``lower``
    by decaying tails; mass isolated far out (a narrow bump at huge ``x``)
    can defeat the doubling stop rule.

    Raises
    ------
    QuadratureError
        When the panel budget is exhausted or the tail never stabilizes, for
        example on divergent integrands. The exception carries the partial
        sum and error estimate.
    """
    if not (lower >= 0.0):
        raise DomainError(f"lower must be nonnegative, got {lower!r}")
    if strategy not in ("transform", "doubling"):
        raise DomainError(f"unknown quadrature strategy {strategy!r}")
    tol = tol if tol is not None else DEFAULT_TOL

    if strategy == "transform":

        def mapped(u: float) -> float:
            x = lower + (1.0 - u) / u
            return f(x) / (u * u)

        value, _ = _adaptive(mapped, 0.0, 1.0, tol.abs_tol, tol.quad_rel_tol)
        return value

    total = 0.0
    start = lower
    width = 1.0
    quiet_extensions = 0
    for _ in range(_MAX_OCTAVES):
        value, _ = _adaptive(
            f, start, start + width, 0.25 * tol.abs_tol, 0.25 * tol.quad_rel_tol
        )
        total += value
        if abs(value) <= max(tol.abs_tol, tol.quad_rel_tol * abs(total)):
            quiet_extensions += 1
            if quiet_extensions >= 2:
                return total
        else:
            quiet_extensions = 0
        start += width
        width *= 2.0
    raise QuadratureError(
        f"tail mass did not stabilize within {_MAX_OCTAVES} extensions",
        partial_sum=total,
        error_estimate=float("nan"),
    )

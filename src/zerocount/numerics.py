"""Numerical primitives for the inference modules.

Provides the log-gamma function, the regularized lower incomplete gamma
``P(a, x)`` and its inverse, the exponential integral ``E1``, and adaptive
quadrature over semi-infinite intervals. All routines are deterministic and
pure; the quadrature's accuracy is steered by :class:`ToleranceConfig`.

The incomplete gamma uses the classical split, a power series for
``x < a + 1`` and a Lentz-style continued fraction for the complementary
function otherwise, which keeps the accuracy uniform over the shape and
quantile ranges the posterior solver visits. The inverse is one Halley
iteration on the smaller tail, started near the root (Wilson-Hilferty), kept
inside the bracket its residual signs give, and stopped on step size once the
steps reach one ulp or the rounding of ``P``; there is no tolerance to set.

Quadrature is one adaptive, vector-valued G7/K15 Gauss-Kronrod kernel: the
integrand gets a panel's 15 abscissae as an ndarray and returns shape
``(15,)``, or ``(15, K)`` for K integrals over shared panels; numpy is
imported only when it runs. Its failures always surface as
:class:`~zerocount.errors.QuadratureError` carrying the partial sum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

from .errors import ConvergenceError, DomainError, QuadratureError

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

# Internal iteration budgets for series, continued fractions and the gamma
# inverse; these are not user-facing accuracy knobs, they only guard against
# runaway loops.
_MAX_TERMS = 10_000
_MAX_PANELS = 4096
_MIN_REL_WIDTH = 200.0 * 2.0**-52  # QUADPACK's bound on a panel split
_MAX_OCTAVES = 64
_MAX_HALLEY = 100
_SERIES_EPS = 1e-16
_TINY = 1e-300


@dataclass(frozen=True)
class ToleranceConfig:
    """Accuracy targets of the quadrature and the Poisson expectations.

    Attributes
    ----------
    abs_tol : float
        Absolute target for integrals and truncated series tails.
    quad_rel_tol : float
        Relative error target for adaptive quadrature.
    """

    abs_tol: float = 1e-12
    quad_rel_tol: float = 1e-9

    def __post_init__(self):
        for name in ("abs_tol", "quad_rel_tol"):
            value = getattr(self, name)
            if not (0.0 < value < math.inf):
                raise DomainError(f"{name} must be finite and > 0, got {value!r}")


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
    return _gamma_pq(a, x)[0]


def _gamma_pq(a: float, x: float) -> tuple[float, float]:
    """``(P(a, x), Q(a, x))`` for valid ``a`` and ``x``.

    The series branch sums ``P`` and the continued fraction sums ``Q``; the
    other tail is one minus it, so only the summed tail keeps its relative
    accuracy far out.
    """
    if x == 0.0:
        return 0.0, 1.0
    if x == math.inf:
        return 1.0, 0.0
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
        p = min(1.0, total * math.exp(log_prefactor))
        return p, 1.0 - p

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
            return min(1.0, max(0.0, 1.0 - q)), q
    raise ConvergenceError(
        f"incomplete gamma continued fraction stalled at a={a!r}, x={x!r}"
    )


def inv_reg_inc_gamma_lower(a: float, p: float) -> float:
    """Solve ``P(a, x) = p`` for ``x``, with ``0 < p < 1``.

    One Halley iteration on the smaller tail, ``P - p`` for ``p <= 1/2`` and
    ``(1 - p) - Q`` otherwise, started at the Wilson-Hilferty value but no
    lower than ``(p Gamma(a + 1))^(1/a)``, a lower bound on the root because
    ``P(a, x) <= x^a / Gamma(a + 1)``. The residual signs keep a bracket; a
    step that would leave it halves the bracket instead, or doubles ``x``
    while the bracket has no upper end. The loop stops once a step is below
    ``1e-8 x`` and either within one ulp of ``x`` or more than half the step
    before it, which means the rounding of ``P`` has been reached. Typical
    inputs take three or four evaluations of ``P``.

    Raises
    ------
    ConvergenceError
        If the forward ``P`` fails, the root underflows, or the loop runs out
        of its runaway budget; the exception carries the bracket.
    """
    if not (0.0 < a < math.inf):
        raise DomainError(f"shape parameter must be finite and positive, got {a!r}")
    if not (0.0 < p < 1.0):
        raise DomainError(f"p must lie strictly inside (0, 1), got {p!r}")
    lower = p <= 0.5
    tail = p if lower else 1.0 - p
    # the normal quantile of the smaller tail to 4.5e-4 (A&S 26.2.23)
    t = math.sqrt(-2.0 * math.log(tail))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))
    s = 1.0 / (9.0 * a)
    cube = 1.0 - s + (-z if lower else z) * math.sqrt(s)
    x = max(a * max(cube, 0.0) ** 3, math.exp((math.log(p) + math.lgamma(a + 1.0)) / a))

    log_gamma_a = math.lgamma(a)
    lo, hi, last = 0.0, math.inf, math.inf
    for _ in range(_MAX_HALLEY):
        if x == 0.0:  # the root underflows
            break
        p_x, q_x = _gamma_pq(a, x)
        f = p_x - p if lower else tail - q_x
        if f == 0.0:
            return x
        if f < 0.0:
            lo = x
        else:
            hi = x
        # Newton's correction f / density (capped: far out, the guard steps
        # instead), then Halley's factor from the density's log-derivative
        log_density = (a - 1.0) * math.log(x) - x - log_gamma_a
        newton = math.copysign(math.exp(min(math.log(abs(f)) - log_density, 700.0)), f)
        halley = 1.0 - 0.5 * newton * ((a - 1.0) / x - 1.0)
        step = newton / halley if 0.0 < halley < math.inf else math.nan
        if abs(step) < 1e-8 * x and (abs(step) <= math.ulp(x) or abs(step) > 0.5 * last):
            return x - step
        proposal = x - step
        if not lo < proposal < hi:
            proposal = 2.0 * x if hi == math.inf else 0.5 * (lo + hi)
        last, x = abs(proposal - x), proposal
    raise ConvergenceError(
        f"incomplete gamma inverse did not converge for a={a!r}, p={p!r}",
        bracket=(lo, hi),
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


# Nested Gauss-Kronrod pair G7/K15 (QUADPACK's QK15): the Gauss nodes are the
# odd-indexed Kronrod nodes, and all are interior to the panel. The literals
# are the doubles of the pair derived with mpmath at 50 digits (equal to the
# QK15 table); tests/test_numerics.py checks them against that derivation.
_K15_NODES = (
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691, -0.7415311855993945,
    -0.5860872354676911, -0.4058451513773972, -0.20778495500789848, 0.0, 0.20778495500789848,
    0.4058451513773972, 0.5860872354676911, 0.7415311855993945, 0.8648644233597691,
    0.9491079123427585, 0.9914553711208126,
)
_K15_WEIGHTS = (
    0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
    0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782,
    0.20443294007529889, 0.19035057806478542, 0.1690047266392679, 0.14065325971552592,
    0.10479001032225019, 0.06309209262997856, 0.022935322010529224,
)
_G7_WEIGHTS = (
    0.1294849661688697, 0.27970539148927664, 0.3818300505051189, 0.4179591836734694,
    0.3818300505051189, 0.27970539148927664, 0.1294849661688697,
)


@functools.cache
def _kronrod_rule():
    import numpy as np

    return np.array(_K15_NODES), np.array(_K15_WEIGHTS), np.array(_G7_WEIGHTS)


def _adaptive(g, a, b, abs_tol, rel_tol, shaped):
    """Globally adaptive bisection of ``g`` (15 nodes -> (15, K)) on [a, b].

    Splits the panel whose worst component error over that component's
    tolerance ``max(abs_tol, rel_tol |I_k|)`` is largest, until every
    component's summed error meets it; returns the (K,) integral.
    """
    import numpy as np

    nodes, k15, g7 = _kronrod_rule()

    def panel(lo, hi):
        half = 0.5 * (hi - lo)
        y = g(0.5 * (lo + hi) + half * nodes)
        fine = k15 @ y
        return half * fine, np.abs(half * (fine - g7 @ y[1::2]))

    def fail(message):
        return QuadratureError(message, partial_sum=shaped(total), error_estimate=shaped(total_err))

    total, total_err = panel(a, b)
    bounds = [(a, b)]
    vals, errs = np.empty((16, total.size)), np.empty((16, total.size))
    vals[0], errs[0] = total, total_err
    while True:
        tol = np.maximum(abs_tol, rel_tol * np.abs(total))
        if np.all(total_err <= tol):
            return total
        n = len(bounds)
        if n >= _MAX_PANELS:
            raise fail(f"quadrature did not reach tolerance within {_MAX_PANELS} panels")
        i = int(np.argmax((errs[:n] / tol).max(axis=1)))
        lo, hi = bounds[i]
        if hi - lo <= _MIN_REL_WIDTH * max(abs(lo), abs(hi)):
            # the nodes are about to collapse onto each other: a singularity
            raise fail(f"panel [{lo!r}, {hi!r}] reached float resolution above tolerance")
        mid = 0.5 * (lo + hi)
        left_val, left_err = panel(lo, mid)
        right_val, right_err = panel(mid, hi)
        total = total + left_val + right_val - vals[i]
        total_err = total_err + left_err + right_err - errs[i]
        if n == len(vals):
            vals, errs = np.concatenate([vals, vals]), np.concatenate([errs, errs])
        bounds[i] = (lo, mid)
        bounds.append((mid, hi))
        vals[i], errs[i], vals[n], errs[n] = left_val, left_err, right_val, right_err


def integrate_semi_infinite(
    f: Callable,
    lower: float = 0.0,
    tol: ToleranceConfig | None = None,
    strategy: str = "transform",
):
    """Integrate ``f`` over ``[lower, inf)``, one function or K at once.

    ``f`` receives a panel's 15 abscissae as an ndarray and returns shape
    ``(15,)``, giving a float, or ``(15, K)``, giving a ``(K,)`` ndarray of
    K integrals that share their panels; each must meet
    ``max(tol.abs_tol, tol.quad_rel_tol * |I_k|)``.

    ``"transform"`` integrates in ``u`` through ``x = lower + (1 - u)/u``.
    ``"doubling"``, an independent route, sums panels of doubling width until
    two in a row add nothing beyond the tolerance in any component. Both need
    mass reachable from ``lower``: a narrow bump far out can defeat them.

    Raises
    ------
    QuadratureError
        On a non-finite value of ``f``, or when the panel budget or float
        resolution runs out or the tail never stabilizes (divergent
        integrands). It carries the partial sum and error estimate.
    """
    import numpy as np

    if not (lower >= 0.0):
        raise DomainError(f"lower must be nonnegative, got {lower!r}")
    if strategy not in ("transform", "doubling"):
        raise DomainError(f"unknown quadrature strategy {strategy!r}")
    tol = tol if tol is not None else DEFAULT_TOL
    vector = False

    def g(x):
        nonlocal vector
        y = np.asarray(f(x), dtype=float)
        if y.ndim not in (1, 2) or y.shape[0] != x.size:
            raise DomainError(f"integrand must return shape (15,) or (15, K), got {y.shape}")
        vector = y.ndim == 2
        y = y.reshape(x.size, -1)
        bad = ~np.isfinite(y).all(axis=1)
        if bad.any():
            raise QuadratureError(f"integrand is non-finite at x={float(x[bad][0])!r}")
        return y

    def shaped(value):
        return value if vector else float(value[0])

    if strategy == "transform":
        mapped = lambda u: g(lower + (1.0 - u) / u) / (u * u)[:, None]  # noqa: E731
        return shaped(_adaptive(mapped, 0.0, 1.0, tol.abs_tol, tol.quad_rel_tol, shaped))

    total, start, width, quiet_extensions = 0.0, lower, 1.0, 0
    for _ in range(_MAX_OCTAVES):
        value = _adaptive(g, start, start + width, tol.abs_tol / 4, tol.quad_rel_tol / 4, shaped)
        total = total + value
        quiet = np.all(np.abs(value) <= np.maximum(tol.abs_tol, tol.quad_rel_tol * np.abs(total)))
        quiet_extensions = quiet_extensions + 1 if quiet else 0
        if quiet_extensions == 2:
            return shaped(total)
        start, width = start + width, 2.0 * width
    raise QuadratureError(
        f"tail mass did not stabilize within {_MAX_OCTAVES} extensions",
        partial_sum=shaped(total), error_estimate=float("nan"),
    )

"""Adaptive quadrature over [0, inf).

One adaptive, vector-valued G7/K15 Gauss-Kronrod kernel, its accuracy
steered by :class:`~zerocount.numerics.ToleranceConfig`: the integrand gets
n = 15 m abscissae for the m panels an integral starts from (all in one
call) and n = 30 for each split (both halves in one call) as an ndarray,
and returns shape ``(n,)``, or ``(n, K)`` for K integrals over shared
panels; numpy is imported only when it runs. Each route maps [0, inf) onto
a finite interval, as QUADPACK's QAGI does (Piessens et al., 1983), and a
cold integral starts from eight graded panels of it, mapped once per process,
where converged partitions refine and which one panel reached only by about
ten sequential splits. Finiteness is checked on the difference of each
panel's K15 and G7 sums, then by row; where finite values overflow a sum,
that panel's sums are formed again from the values over 8.
Similar integrals can share a warm state, each starting from the partition
the last one converged on, at the same tolerance. Failures always surface
as :class:`~zerocount.errors.QuadratureError`, carrying the partial sum
where there is one. For [c, inf), integrate ``lambda y: f(c + y)``.
"""

from __future__ import annotations

import functools

from .errors import DomainError, QuadratureError
from .numerics import DEFAULT_TOL, ToleranceConfig

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from collections.abc import Callable

__all__ = ["integrate_semi_infinite"]

# Budgets that guard against runaway loops, not accuracy knobs
_MAX_PANELS = 4096
_MIN_REL_WIDTH = 200.0 * 2.0**-52  # QUADPACK's bound on a panel split
# Each route's cold start. The transform route's u-panels are graded toward
# both ends, where the far tail (u -> 0) and an integrand steep at 0 (u -> 1)
# sit; the doubling route's v-panels are the first six octaves and the tail's
# u-panels [1/16, 1] and (0, 1/16]
_U_START = (0.0, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 3 / 4, 7 / 8, 15 / 16, 1.0)
_V_START = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0 - 1 / 16, 7.0)

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


def _panels(edges, to_x):
    """The (m, 1) half-widths of the m panels between m + 1 ascending
    ``edges``, and x and dv/dx at their 15 m Kronrod nodes, ascending."""
    import numpy as np

    edges = np.asarray(edges, dtype=float)
    centres, half = 0.5 * (edges[:-1] + edges[1:])[:, None], 0.5 * (edges[1:] - edges[:-1])[:, None]
    return half, *to_x((centres + half * _kronrod_rule()[0]).ravel())


@functools.cache
def _cold_start(strategy):
    """A route's graded edges and their panels, built once and never written."""
    to_x, start = _ROUTES[strategy]
    return start, _panels(start, to_x)


def _adaptive(g, strategy, seed, abs_tol, rel_tol, shaped):
    """Globally adaptive bisection of ``g`` ((n,) abscissae -> (n, K)) from a partition.

    ``seed`` holds the m + 1 ascending edges of warm starting panels, or is
    None for the route's graded cold start. Splits the panel whose worst
    component error over that component's tolerance ``max(abs_tol, rel_tol
    |I_k|)`` is largest, until every component's summed error meets it. The
    starting panels are one call of ``g`` on their 15 m nodes, and each split
    one call on both halves' 30 nodes, each panel keeping its own K15 sum and
    G7 error. Returns the (K,) integral and the final partition's edges.
    """
    import numpy as np

    _, k15, g7 = _kronrod_rule()

    def rule(half, x, dv_dx):
        # m panels in one call: (15 m, K) values -> (m, K) K15 sums and G7 errors
        y = g(x)
        # f dx = f / (dv/dx) dv. dv/dx underflows toward u = 0, where inf or NaN
        # is a divergent integrand. Every weight is positive, so a non-finite
        # value makes its panel's sums and their difference non-finite, and
        # only then are rows searched
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            y = (y / dv_dx[:, None]).reshape(half.size, 15, -1)
            fine, coarse = k15 @ y, g7 @ y[:, 1::2]
            diff = fine - coarse
        if not np.isfinite(diff).all():
            bad = ~np.isfinite(y.reshape(x.size, -1)).all(axis=1)
            if bad.any():
                raise QuadratureError(f"integrand is non-finite at x={float(x[bad][0])!r}")
            return overflowed(half, y, fine, diff)
        return half * fine, np.abs(half * diff)

    def overflowed(half, y, fine, diff):
        # finite values passed the float range in a sum or their difference:
        # form those panels' sums from y / 8, exact, which neither can pass,
        # and scale back by 8 past the half-width
        over = ~np.isfinite(diff).all(axis=1)
        scaled = 0.125 * y[over]
        fine_over = k15 @ scaled
        with np.errstate(over="ignore", invalid="ignore"):
            vals, errs = half * fine, np.abs(half * diff)
            vals[over] = 8.0 * (half[over] * fine_over)
            errs[over] = 8.0 * np.abs(half[over] * (fine_over - g7 @ scaled[:, 1::2]))
        if not (np.isfinite(vals).all() and np.isfinite(errs).all()):
            raise QuadratureError(
                "the integral over a panel, or its error estimate, passes the float "
                "range (about 1.8e308)"
            )
        return vals, errs

    def fail(message):
        return QuadratureError(message, partial_sum=shaped(total), error_estimate=shaped(total_err))

    to_x = _ROUTES[strategy][0]
    edges, panels = (seed, _panels(seed, to_x)) if seed else _cold_start(strategy)
    first_vals, first_errs = rule(*panels)
    total, total_err = first_vals.sum(axis=0), first_errs.sum(axis=0)
    tol = np.maximum(abs_tol, rel_tol * np.abs(total))
    if (total_err <= tol).all():  # no split: the starting panels
        return total, list(edges)
    bounds = list(zip(edges[:-1], edges[1:]))
    capacity = max(16, 2 * len(bounds))
    vals, errs = np.empty((capacity, total.size)), np.empty((capacity, total.size))
    vals[:len(bounds)], errs[:len(bounds)] = first_vals, first_errs
    while True:
        n = len(bounds)
        if n >= _MAX_PANELS:
            raise fail(f"quadrature did not reach tolerance within {_MAX_PANELS} panels")
        i = int((errs[:n] / tol).max(axis=1).argmax())
        lo, hi = bounds[i]
        if hi - lo <= _MIN_REL_WIDTH * max(abs(lo), abs(hi)):
            # the nodes are about to collapse onto each other: a singularity
            raise fail(f"panel [{lo!r}, {hi!r}] reached float resolution above tolerance")
        mid = 0.5 * (lo + hi)
        (left_val, right_val), (left_err, right_err) = rule(*_panels((lo, mid, hi), to_x))
        total = total + left_val + right_val - vals[i]
        total_err = total_err + left_err + right_err - errs[i]
        if n == len(vals):
            vals, errs = np.concatenate([vals, vals]), np.concatenate([errs, errs])
        bounds[i] = (lo, mid)
        bounds.append((mid, hi))
        vals[i], errs[i], vals[n], errs[n] = left_val, left_err, right_val, right_err
        tol = np.maximum(abs_tol, rel_tol * np.abs(total))
        if (total_err <= tol).all():
            return total, sorted(lo for lo, _ in bounds) + [float(edges[-1])]


def _transform(u):
    """x = (1 - u)/u for u in (0, 1], and dv/dx = u^2."""
    return (1.0 - u) / u, u * u


def _octaves(v):
    """x(v) and dv/dx for ascending v in [0, 7): on [k, k + 1], k < 6, the
    octave [2^k - 1, 2^(k+1) - 1], linear in x, its width 2^k a scalar where
    all v lie in it; on [6, 7), [63, inf) through x = 63 + (1 - u)/u, u = 7 - v."""
    import numpy as np

    k = int(v[0])
    if k == int(v[-1]) < 6:
        return 2.0**k * (v - k) + (2.0**k - 1.0), np.full(v.size, 0.5**k)
    k = np.minimum(v.astype(int), 6)
    width, u = np.ldexp(1.0, k), 7.0 - v
    tail = k == 6
    return (np.where(tail, 63.0 + (1.0 - u) / u, width * (v - k) + (width - 1.0)),
            np.where(tail, u * u, 1.0 / width))


_ROUTES = {"transform": (_transform, _U_START), "doubling": (_octaves, _V_START)}


def integrate_semi_infinite(f: Callable, tol: ToleranceConfig = DEFAULT_TOL,
                            strategy: str = "transform", *, warm: dict | None = None):
    """Integrate ``f`` over ``[0, inf)``, one function or K at once.

    For ``[c, inf)``, integrate the shifted ``lambda y: f(c + y)``.

    ``f`` receives n abscissae as its own ndarray: 15 m for the m panels an
    integral starts from (8 cold), or 30 for both halves of a split panel.
    It returns shape ``(n,)``, giving a float, or ``(n, K)``, giving a
    ``(K,)`` ndarray of K integrals that share their panels; each must meet
    ``max(tol.abs_tol, tol.quad_rel_tol * |I_k|)``. Row j must depend only
    on abscissa j.

    ``"transform"`` integrates in ``u`` through ``x = (1 - u)/u``, from
    eight u-panels halving toward both ends. ``"doubling"`` integrates in
    ``v`` over [0, 7]: [k, k + 1] is the octave [2^k - 1, 2^(k+1) - 1],
    linear in x, for k < 6, and [6, 7) is [63, inf) through
    ``x = 63 + (1 - u)/u`` with ``u = 7 - v``; it starts from the six
    octaves and the u-panels [1/16, 1] and (0, 1/16]. Below x = 63 the two
    routes share no node, so each checks the other. Both need mass reachable
    from their starts: a bump that no node of the starting panels or their
    splits lands in is missed with no error raised. Of 45 bumps centred at
    1.5 to 40, of widths 0.01 to 0.2, the transform route misses 16 (width
    0.05 at 10 integrates to about 4e-20, not 0.089) and the doubling route
    10; of widths 0.5 and 1, neither misses one.

    ``warm`` is private to the package: a dict shared by a sequence of calls
    on similar integrands. A call starts from the final partition of the last
    one with the same strategy instead of cold, and leaves its own there; if
    that start fails, the call starts again cold. Only the starting
    partition changes, not the tolerance each result meets.

    Raises
    ------
    QuadratureError
        On a non-finite value of ``f`` or of ``f`` times the map's Jacobian, as
        of a divergent integrand far out, naming the call's first such abscissa
        once a panel's K15 or G7 sum is not finite; where finite values
        overflow those sums and the panel's integral or error estimate passes
        the float range even so; or, carrying the partial sum and error
        estimate, when the panel budget or float resolution runs out.
    """
    import numpy as np

    if strategy not in _ROUTES:
        raise DomainError(f"unknown quadrature strategy {strategy!r}")
    vector = False

    def values(x):
        nonlocal vector
        y = np.asarray(f(x.copy()), dtype=float)
        if y.ndim not in (1, 2) or y.shape[0] != x.size:
            raise DomainError(
                f"integrand must return shape (n,) or (n, K) for its n = {x.size} abscissae, "
                f"got {y.shape}"
            )
        vector = y.ndim == 2
        return y.reshape(x.size, -1)

    def shaped(value):
        return value if vector else float(value[0])

    seed = warm.get(strategy) if warm is not None else None
    try:
        total, edges = _adaptive(values, strategy, seed, tol.abs_tol, tol.quad_rel_tol, shaped)
    except QuadratureError:
        if seed is None:
            raise
        # the partition another integrand left need not suit this one
        total, edges = _adaptive(values, strategy, None, tol.abs_tol, tol.quad_rel_tol, shaped)
    if warm is not None:
        warm[strategy] = edges
    return shaped(total)

"""Adaptive quadrature over [0, inf).

One adaptive, vector-valued G7/K15 Gauss-Kronrod kernel, its accuracy
steered by :class:`~zerocount.numerics.ToleranceConfig`: the integrand gets
n = 15 m abscissae for the m panels an integral starts from (all in one
call) and n = 30 for each split (both halves in one call) as an ndarray,
and returns shape ``(n,)``, or ``(n, K)`` for K integrals over shared
panels; numpy is imported only when it runs. A cold integral starts from
its route's graded partition, a fixed initial partition of the QUADPACK
QAGI map (Piessens et al., 1983): eight u-panels, or six octaves, where
converged partitions refine and which one panel reached only by about ten
sequential splits. Similar integrals can share a warm state, each starting
from the partition the last one converged on, at the same tolerance.
Failures always surface as :class:`~zerocount.errors.QuadratureError`
carrying the partial sum. For [c, inf), integrate ``lambda y: f(c + y)``.
"""

from __future__ import annotations

import functools
import math

from .errors import DomainError, QuadratureError
from .numerics import DEFAULT_TOL, ToleranceConfig

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from collections.abc import Callable

__all__ = ["integrate_semi_infinite"]

# Budgets that guard against runaway loops, not accuracy knobs
_MAX_PANELS = 4096
_MIN_REL_WIDTH = 200.0 * 2.0**-52  # QUADPACK's bound on a panel split
_MAX_OCTAVES = 64
# the transform route's cold start: u-panels graded toward both ends, where
# the far tail (u -> 0) and an integrand steep at 0 (u -> 1) sit
_U_START = (0.0, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 3 / 4, 7 / 8, 15 / 16, 1.0)

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


def _adaptive(g, edges, abs_tol, rel_tol, shaped):
    """Globally adaptive bisection of ``g`` ((n,) nodes -> (n, K)) from a partition.

    ``edges`` are the m + 1 ascending edges of the starting panels, graded
    or warm. Splits the panel whose worst component error over that
    component's tolerance ``max(abs_tol, rel_tol |I_k|)`` is largest, until
    every component's summed error meets it. The starting panels are one
    call of ``g`` on their 15 m nodes, and each split is one call on both
    halves' 30 nodes, each panel keeping its own K15 sum and G7 error.
    Returns the (K,) integral, the final partition's edges and its
    panels' (n, K) K15 sums in the order of those edges.
    """
    import numpy as np

    nodes, k15, g7 = _kronrod_rule()

    def rule(centres, half):
        # m panels in one call, from their (m, 1) centres and half-widths:
        # (15 m, K) values -> (m, K) K15 sums and G7 errors
        y = g((centres + half * nodes).ravel()).reshape(half.size, 15, -1)
        fine = k15 @ y
        return half * fine, np.abs(half * (fine - g7 @ y[:, 1::2]))

    def fail(message):
        return QuadratureError(message, partial_sum=shaped(total), error_estimate=shaped(total_err))

    edges = np.asarray(edges, dtype=float)
    first_vals, first_errs = rule(0.5 * (edges[:-1] + edges[1:])[:, None],
                                  0.5 * (edges[1:] - edges[:-1])[:, None])
    total, total_err = first_vals.sum(axis=0), first_errs.sum(axis=0)
    tol = np.maximum(abs_tol, rel_tol * np.abs(total))
    if (total_err <= tol).all():  # no split: the starting panels, in order
        return total, edges.tolist(), first_vals
    bounds = list(zip(edges[:-1].tolist(), edges[1:].tolist()))
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
        # the halves' centres and half-widths by the starting panels' formulas
        (left_val, right_val), (left_err, right_err) = rule(
            np.array([[0.5 * (lo + mid)], [0.5 * (mid + hi)]]),
            np.array([[0.5 * (mid - lo)], [0.5 * (hi - mid)]]),
        )
        total = total + left_val + right_val - vals[i]
        total_err = total_err + left_err + right_err - errs[i]
        if n == len(vals):
            vals, errs = np.concatenate([vals, vals]), np.concatenate([errs, errs])
        bounds[i] = (lo, mid)
        bounds.append((mid, hi))
        vals[i], errs[i], vals[n], errs[n] = left_val, left_err, right_val, right_err
        tol = np.maximum(abs_tol, rel_tol * np.abs(total))
        if (total_err <= tol).all():
            order = sorted(range(n + 1), key=bounds.__getitem__)
            return total, [bounds[i][0] for i in order] + [float(edges[-1])], vals[order]


def _doubling(g, edges, tol, shaped):
    """Octaves of doubling width from ``[0, 1]`` until two in a row add
    nothing beyond the tolerance in any component.

    Octave k starts at ``2^k - 1``, an exact double. ``edges`` partition the
    first octaves, or are ``None`` for a cold start from the first six, one
    panel each. One adaptive pass integrates them, and each pass after it
    the next two octaves, one panel each, all at one octave's tolerance. The
    quiet-octave rule runs over the octaves' sums in order, so ``g`` may be
    evaluated up to one octave past the last one summed. Returns the (K,)
    integral and the edges of the octaves summed.
    """
    import numpy as np

    at = lambda k: 2.0**k - 1.0  # noqa: E731
    octaves, used, total, previous, quiet = 0, [0.0], 0.0, math.inf, 0
    while octaves < _MAX_OCTAVES:
        if edges is None:  # the first six octaves, or the next two
            edges = [at(k) for k in range(octaves, octaves + (3 if octaves else 7))]
        _, edges, vals = _adaptive(g, edges, tol.abs_tol / 4, tol.quad_rel_tol / 4, shaped)
        used += edges[1:]
        end = octaves
        while at(end) < edges[-1]:
            end += 1
        starts = [at(k) for k in range(octaves, end)]
        values = np.add.reduceat(vals, np.searchsorted(edges, starts), axis=0)
        sizes = np.abs(values)
        values[0] += total  # the running totals, added in turn as by a loop
        totals = np.add.accumulate(values)
        # an octave below tolerance is quiet only once the octaves stop
        # growing: mass far from 0 leaves the first ones tiny but rising
        before = np.concatenate((np.broadcast_to(previous, sizes[:1].shape), sizes[:-1]))
        quiets = ((sizes <= np.maximum(tol.abs_tol, tol.quad_rel_tol * np.abs(totals)))
                  & (sizes <= before)).all(axis=1)
        for i, octave_quiet in enumerate(quiets[:_MAX_OCTAVES - octaves].tolist()):
            quiet, total = quiet + 1 if octave_quiet else 0, totals[i]
            if quiet == 2:  # the edges up to this octave's end
                return total, used[:np.searchsorted(used, at(octaves + i + 1), "right")]
        octaves, previous, edges = end, sizes[-1], None
    raise QuadratureError(f"tail mass did not stabilize within {_MAX_OCTAVES} octaves",
                          partial_sum=shaped(total), error_estimate=float("nan"))


def integrate_semi_infinite(f: Callable, tol: ToleranceConfig | None = None,
                            strategy: str = "transform", *, warm: dict | None = None):
    """Integrate ``f`` over ``[0, inf)``, one function or K at once.

    For ``[c, inf)``, integrate the shifted ``lambda y: f(c + y)``.

    ``f`` receives n abscissae as an ndarray: 15 m for the m panels an
    integral starts from (cold, 8, or 6 on the doubling route), or 30 for
    both halves of a split panel. It returns shape ``(n,)``, giving a
    float, or ``(n, K)``, giving a ``(K,)`` ndarray of K integrals that share
    their panels; each must meet ``max(tol.abs_tol, tol.quad_rel_tol * |I_k|)``.
    Row j must depend only on abscissa j.

    ``"transform"`` integrates in ``u`` through ``x = (1 - u)/u``, from
    eight u-panels halving toward both ends. ``"doubling"``, an independent
    route, sums octaves of doubling width, six in its first adaptive pass
    and two per pass after it, until two in a row add nothing beyond the
    tolerance in any component, so it may evaluate ``f`` up to one octave
    past the last one it sums. Both need mass reachable from 0: a bump that
    no node of the starting panels or their splits lands in is missed with
    no error raised. Of 45 bumps centred at 1.5 to 40, of widths 0.01 to
    0.2, the transform route misses 16 (width 0.05 at 10 integrates to
    about 4e-20, not 0.089) and the doubling route 28, every one from 10 on.

    ``warm`` is private to the package: a dict shared by a sequence of calls
    on similar integrands. A call starts from the final partition of the last
    one with the same strategy instead of cold, and leaves its own there; if
    that start fails, the call starts again cold. Only the starting
    partition changes, not the tolerance each result meets.

    Raises
    ------
    QuadratureError
        On a non-finite value of ``f``, or when the panel budget or float
        resolution runs out or the tail never stabilizes (divergent
        integrands). It carries the partial sum and error estimate.
    """
    import numpy as np

    if strategy not in ("transform", "doubling"):
        raise DomainError(f"unknown quadrature strategy {strategy!r}")
    tol = tol if tol is not None else DEFAULT_TOL
    vector = False

    def g(x):
        nonlocal vector
        y = np.asarray(f(x), dtype=float)
        if y.ndim not in (1, 2) or y.shape[0] != x.size:
            raise DomainError(
                f"integrand must return shape (n,) or (n, K) for its n = {x.size} abscissae, "
                f"got {y.shape}"
            )
        vector = y.ndim == 2
        y = y.reshape(x.size, -1)
        if not np.isfinite(y).all():
            bad = ~np.isfinite(y).all(axis=1)
            raise QuadratureError(f"integrand is non-finite at x={float(x[bad][0])!r}")
        return y

    def shaped(value):
        return value if vector else float(value[0])

    def route(edges):  # None starts cold
        if strategy == "doubling":
            return _doubling(g, edges, tol, shaped)
        mapped = lambda u: g((1.0 - u) / u) / (u * u)[:, None]  # noqa: E731
        return _adaptive(mapped, edges or _U_START, tol.abs_tol, tol.quad_rel_tol, shaped)[:2]

    seed = warm.get(strategy) if warm is not None else None
    try:
        total, edges = route(seed)
    except QuadratureError:
        if seed is None:
            raise
        # the partition another integrand left need not suit this one
        total, edges = route(None)
    if warm is not None:
        warm[strategy] = edges
    return shaped(total)

"""Numerical primitives for the inference modules.

Provides the regularized lower incomplete gamma ``P(a, x)`` and its inverse,
the exponential integral ``E1``, and :class:`ToleranceConfig`, the accuracy
targets of the quadrature in :mod:`zerocount.quadrature`, whose
``integrate_semi_infinite`` is also read from here. All routines are
deterministic and pure.

The incomplete gamma ``P(a, x)`` and ``Q = 1 - P`` come from one of three
regions, each at a bounded number of terms (200 at most, under 100 on the
test grids), and each sums one tail, or both, so that the smaller tail keeps
its relative accuracy:

- large shapes, ``a > 50`` and ``|x - a| < 0.3a``: Temme's uniform
  expansion (DLMF 8.12; Temme, SIAM J. Math. Anal. 10, 1979) in ``erfc`` and
  a 9-row table of its coefficients, returning the smaller tail directly;
- small shapes, ``a < 1/2`` and ``x < 3/2``: DiDonato & Morris' series, which
  sums ``Q`` without forming ``1 - P``; ``a = 1/2`` is ``erf``/``erfc``;
- everywhere else the classical split: the power series for ``P`` when
  ``x < a + 1`` (and, for non-integer ``1/2 < a < 3``, up to
  ``x < 1.5a + 1.2``, where ``Q >= 1/21`` and the series is shorter than the
  continued fraction), Lentz's continued fraction for ``Q`` beyond. For
  integer and half-integer ``a <= 50`` (every catalog prior's posterior
  shape) ``Q`` beyond is instead a finite sum of ``floor(a)`` terms, plus
  ``erfc(sqrt(x))`` for half-integer ``a`` (DLMF 8.4.10 and 8.8.2). Above
  ``a = 50`` their prefactor ``x^a e^-x / Gamma(a)`` is formed from
  ``a (s - ln(1 + s))``, ``s = (x - a)/a``, and Stirling's series, not from the
  rounded ``a ln x``.

The regions follow Gil, Segura & Temme (SIAM J. Sci. Comput. 34, 2012). The
inverse is one Halley iteration on the smaller tail, on ``ln P`` while ``P``
is off by more than half of ``p`` in the lower tail, started near the root
(Wilson-Hilferty; for ``a = 1``, where ``P = 1 - e^-x``, at the root itself),
kept inside the bracket its residual signs give, and ended by its first step
below ``1e-8 x``: Halley's steps shrink cubically, so the iterate less that
step is within about ``1e-24 x`` of the root. There is no tolerance to set.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, DomainError, _Record, _require_real

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "EULER_GAMMA",
    "reg_inc_gamma_lower",
    "inv_reg_inc_gamma_lower",
    "exp_integral_e1",
    "integrate_semi_infinite",
]

EULER_GAMMA = 0.5772156649015329

# Internal iteration budgets for series, continued fractions and the gamma
# inverse; these are not user-facing accuracy knobs, they only guard against
# runaway loops.
_MAX_TERMS = 200
_MAX_HALLEY = 100
_SERIES_EPS = 1e-16
_TINY = 1e-300
_MIN_SUBNORMAL = 5e-324
_TWO_PI = 2.0 * math.pi

# Regions of P(a, x), see the module docstring
_TEMME_MIN_SHAPE = 50.0
_TEMME_BAND = 0.3
_SMALL_SHAPE = 0.5
_SMALL_SHAPE_X = 1.5
# Past this shape every quantile of a double p in (0, 1) lies within about
# 39 sqrt(a) of a (|z| < 39), under a hundredth of an ulp of a: the root is a
_HUGE_SHAPE = 1e40

# d_{k,n} of Temme's expansion, C_k(eta) = sum_n d_{k,n} eta^n (DLMF 8.12.12):
# the doubles of the exact rationals, derived with Lagrange inversion of
# eta(s) and the recursion over Stirling's coefficients (as in scipy's
# special/_precompute/gammainc_asy.py, which builds cephes' table). Row k
# keeps the terms that reach 1e-18 of the tail for a > 50 and |x - a| < 0.3a;
# tests/test_numerics.py checks them against that derivation.
_TEMME_D = (
    (
        -0.3333333333333333, 0.08333333333333333, -0.014814814814814815, 0.0011574074074074073,
        0.0003527336860670194, -0.0001787551440329218, 3.919263178522438e-05,
        -2.185448510679992e-06, -1.85406221071516e-06, 8.296711340953087e-07,
        -1.7665952736826078e-07, 6.707853543401498e-09, 1.0261809784240309e-08,
        -4.382036018453353e-09, 9.14769958223679e-10,
    ),
    (
        -0.001851851851851852, -0.003472222222222222, 0.0026455026455026454,
        -0.0009902263374485596, 0.00020576131687242798, -4.018775720164609e-07,
        -1.8098550334489977e-05, 7.64916091608111e-06, -1.6120900894563446e-06,
        4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08,
        1.1951628599778148e-08, -1.7543241719747647e-11, -1.0091543710600413e-09,
    ),
    (
        0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049,
        2.0093878600823047e-06, -0.0001073665322636516, 5.2923448829120125e-05,
        -1.2760635188618728e-05, 3.423578734096138e-08, 1.3721957309062934e-06,
        -6.298992138380055e-07, 1.4280614206064242e-07, -2.0477098421990866e-10,
        -1.409252991086752e-08,
    ),
    (
        0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557,
        0.00026772063206283885, -7.561801671883977e-05, -2.396505113867297e-07,
        1.1082654115347302e-05, -5.6749528269915965e-06, 1.4230900732435883e-06,
        -2.7861080291528143e-11, -1.6958404091930278e-07, 8.099464905388083e-08,
    ),
    (
        -0.0008618882909167117, 0.0007840392217200666, -0.0002990724803031902,
        -1.4638452578843418e-06, 6.641498215465122e-05, -3.968365047179435e-05,
        1.1375726970678419e-05, 2.507497226237533e-10, -1.6954149536558305e-06,
        8.907507532205309e-07,
    ),
    (
        -0.00033679855336635813, -6.972813758365857e-05, 0.0002772753244959392,
        -0.00019932570516188847, 6.797780477937208e-05, 1.419062920643967e-07,
        -1.3594048189768693e-05, 8.018470256334202e-06,
    ),
    (
        0.0005313079364639922, -0.0005921664373536939, 0.0002708782096718045,
        7.902353232660328e-07, -8.153969367561969e-05, 5.61168275310625e-05,
    ),
    (
        0.00034436760689237765, 5.171790908260592e-05, -0.00033493161081142234,
        0.0002812695154763237,
    ),
    (
        -0.0006526239185953094, 0.0008394987206720873,
    ),
)

# (-1)^k (zeta(k) - 1) / k for k = 2..14, the Taylor coefficients of
# ln Gamma(1 + a) beyond (1 - gamma) a - ln(1 + a), from mpmath
_LGAMMA1P_ZETA = (
    0.3224670334241132, -0.0673523010531981, 0.020580808427784546, -0.007385551028673986,
    0.0028905103307415234, -0.001192753911703261, 0.0005096695247430425,
    -0.00022315475845357939, 9.945751278180853e-05, -4.492623673813314e-05,
    2.050721277567069e-05, -9.439488275268397e-06, 4.374866789907488e-06,
)


class ToleranceConfig(_Record):
    """Accuracy targets of the quadrature and the Poisson expectations.

    Attributes
    ----------
    abs_tol : float
        Absolute target for integrals and truncated series tails.
    quad_rel_tol : float
        Relative error target for adaptive quadrature.
    """

    __slots__ = ("abs_tol", "quad_rel_tol")

    def __init__(self, abs_tol: float = 1e-12, quad_rel_tol: float = 1e-9):
        _require_real(abs_tol, "abs_tol", 0.0, strict=True)
        _require_real(quad_rel_tol, "quad_rel_tol", 0.0, strict=True)
        self._store(abs_tol, quad_rel_tol)


DEFAULT_TOL = ToleranceConfig()


def reg_inc_gamma_lower(a: float, x: float) -> float:
    """Regularized lower incomplete gamma ``P(a, x)``.

    ``P(a, x) = gamma(a, x) / Gamma(a)`` is the Gamma(a, 1) CDF at ``x``:
    monotone nondecreasing in ``x``, 0 at ``x = 0``, and 1 in the limit.
    The smaller of ``P`` and ``1 - P`` is accurate to about 1e-13 relative
    in tails down to 1e-70; see the module docstring for the regions.
    """
    _require_real(a, "shape parameter", 0.0, strict=True)
    if not (x >= 0.0):  # x = inf is allowed: P(a, inf) = 1
        raise DomainError(f"x must be nonnegative, got {x!r}")
    return _gamma_pq(a, x)[0]


def _gamma_pq(a: float, x: float, exponent: float | None = None) -> tuple[float, float]:
    """``(P(a, x), Q(a, x))`` for valid ``a`` and ``x``.

    Each branch sums one tail, or both for ``a <= 1/2``, and returns the
    other as one minus it; see the module docstring for the regions. Where
    ``Q`` is summed (``x >= a + 1``, past the series) it is
    ``x^a e^-x / Gamma(a)`` times a factor ``h``: Lentz's continued fraction,
    or for integer and half-integer ``a <= 50`` the finite sum
    ``h = sum_j (a-1)(a-2)...(a-j) / x^(j+1)``, ``j < floor(a)``, with
    ``erfc(sqrt(x))`` added for half-integer ``a``. Above ``a = 50`` a caller
    that has ``_temme_exponent(a, x)`` already may pass it as ``exponent``.
    """
    if x == 0.0:
        return 0.0, 1.0
    if x == math.inf:
        return 1.0, 0.0
    if a > _TEMME_MIN_SHAPE:
        if exponent is None:
            exponent = _temme_exponent(a, x)
        if abs(x - a) < _TEMME_BAND * a:
            return _temme(a, x, exponent)
        # x^a e^-x / Gamma(a) = e^-E sqrt(a / 2 pi) / Gamma*(a), free of the
        # rounding of a ln x, which is about ulp(a ln a)
        log_prefactor = 0.5 * math.log(a / _TWO_PI) - exponent - _log_gamma_star(a)
    elif a == 0.5:
        # the Jeffreys shape: P = erf(sqrt(x)), Q = erfc(sqrt(x))
        root = math.sqrt(x)
        return math.erf(root), math.erfc(root)
    elif a < _SMALL_SHAPE and x < _SMALL_SHAPE_X:
        return _small_shape_pq(a, x)
    else:
        log_prefactor = a * math.log(x) - x - math.lgamma(a)

    # For non-integer a < 3 the continued fraction needs 40-90 terms just
    # above x = a + 1, the series 20-30; the series serves while Q >= 1/21
    if x < a + 1.0 or (_SMALL_SHAPE < a < 3.0 and a % 1.0 != 0.0 and x < 1.5 * a + 1.2):
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

    # the complementary Q(a, x) is below x^a e^-x / Gamma(a) here: when that
    # underflows, so does Q (and for x past 2^53 the fraction could not
    # settle, its steps lost in b)
    scale = math.exp(log_prefactor)
    if scale == 0.0:
        return 1.0, 0.0
    if a <= _TEMME_MIN_SHAPE and a % 0.5 == 0.0:
        # Q as scale h, not as a sum of x^k e^-x / k!: e^-x is subnormal past
        # x = 708 while Q need not be
        h, term = 0.0, 1.0 / x
        for j in range(1, int(a) + 1):
            h += term
            term *= (a - j) / x
        q = scale * h + (math.erfc(math.sqrt(x)) if a % 1.0 else 0.0)
    else:
        q = scale * _upper_gamma_fraction(a, x)
    return min(1.0, max(0.0, 1.0 - q)), q


def _upper_gamma_fraction(a: float, x: float) -> float:
    """Lentz's continued fraction ``h`` with ``Q(a, x) = x^a e^-x / Gamma(a) h``.

    Also ``E1(x) = e^-x h(0, x)``; it settles quickly for ``x > a + 1``.
    The modified Lentz method (Thompson & Barnett, J. Comput. Phys. 64, 1986)
    resets ``C`` and ``1/D`` to a tiny number when one nears 0; this loop
    carries no such guard, since neither nears 0 on the fractions its
    callers build: ``x >= a + 1`` (``x >= 1.3a`` above ``a = 50``) from
    ``_gamma_pq``, ``a = 0`` and ``x > 1`` from ``exp_integral_e1``. Over
    370,000 sampled ``(a, x)`` there, up to ``x = 2^53``, no guard fired,
    and the smallest ``C`` or ``1/D`` of a sweep of large shapes and of the
    edge ``x = a + 1`` was 3.5. ``tests/test_numerics.py`` checks that the
    loop returns the guarded loop's doubles.
    """
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    i = 0.0  # a float, so that -i * (i - a) rounds as it did with an int i
    for _ in range(1, _MAX_TERMS):
        i += 1.0
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        h *= delta
        if -_SERIES_EPS < delta - 1.0 < _SERIES_EPS:
            return h
    raise ConvergenceError(
        f"incomplete gamma continued fraction stalled at a={a!r}, x={x!r}"
    )


def _log_gamma_star(a: float) -> float:
    """``ln Gamma*(a) = ln(Gamma(a) e^a a^(1/2 - a) / sqrt(2 pi))``, Stirling's series, a > 50."""
    a_inv = 1.0 / a
    r2 = a_inv * a_inv
    return a_inv * (1 / 12 - r2 * (1 / 360 - r2 * (1 / 1260 - r2 / 1680)))


def _temme_exponent(a: float, x: float) -> float:
    """``E = a (s - ln(1 + s))`` with ``s = (x - a)/a``, to a few ulp of E.

    With ``u = (x - a)/(x + a)``, ``ln(1 + s) = 2 atanh(u)`` turns E into
    ``(x - a) u - 2a u^3 (1/3 + u^2/5 + ...)``: no cancellation, and
    ``x - a`` is exact near ``a``. Far from ``a`` the direct form is as good.
    """
    d = x - a
    u = d / (0.5 * x + 0.5 * a) * 0.5  # x + a itself may overflow
    if abs(u) >= 0.5:
        return d - a * (math.log(x / a) if x > _TINY * a else math.log(x) - math.log(a))
    u2 = u * u
    power, total = 1.0, 1.0 / 3.0
    for k in range(5, 200, 2):
        power *= u2
        total += power / k
        if power < total * k * _SERIES_EPS:
            break
    return d * u - a * (2.0 * u * u2 * total)


def _temme(a: float, x: float, exponent: float) -> tuple[float, float]:
    """Temme's uniform expansion (DLMF 8.12.3-8.12.4) for large ``a``, x near a.

    ``Q = erfc(eta sqrt(a/2))/2 + R`` and ``P = erfc(-eta sqrt(a/2))/2 - R``
    with ``a eta^2 / 2 = E`` and ``R = e^-E / sqrt(2 pi a) sum_k C_k(eta) a^-k``;
    returns the smaller tail and one minus it.
    """
    eta = math.copysign(math.sqrt(2.0 * exponent / a), x - a)
    total, scale = 0.0, 1.0
    for row in _TEMME_D:
        c = 0.0
        for coef in reversed(row):
            c = c * eta + coef
        total += c * scale
        scale /= a
        if scale < 1e-15:  # later rows, below 1e-3 a^-k, no longer count
            break
    remainder = total * math.exp(-exponent) / math.sqrt(_TWO_PI * a)
    half_erfc = 0.5 * math.erfc(math.sqrt(exponent))
    if x < a:
        p = half_erfc - remainder
        return p, 1.0 - p
    q = half_erfc + remainder
    return 1.0 - q, q


def _small_shape_pq(a: float, x: float) -> tuple[float, float]:
    """Both tails for ``a < 1/2`` and ``x < 3/2`` (after DiDonato & Morris).

    ``P = x^a / Gamma(1 + a) (1 + a J)`` with ``J = sum_{n>=1} (-x)^n /
    (n! (a + n))``, and ``Q = -expm1(t) - e^t a J`` with ``t = a ln x -
    ln Gamma(1 + a)``: a small Q is summed, not left as ``1 - P``.
    """
    j, term = 0.0, 1.0
    for n in range(1, _MAX_TERMS):
        term *= -x / n
        part = term / (a + n)
        j += part
        if abs(part) <= -j * _SERIES_EPS:  # J < 0 for every x > 0
            break
    else:
        raise ConvergenceError(f"incomplete gamma series stalled at a={a!r}, x={x!r}")
    if a < 0.1:
        # ln Gamma(1 + a) = (1 - gamma) a - ln(1 + a) + sum_k (-1)^k (zeta(k) - 1) a^k / k:
        # lgamma(1 + a) would carry the rounding of 1 + a, up to 1e-9 of Q here
        zeta_sum = 0.0
        for coef in reversed(_LGAMMA1P_ZETA):
            zeta_sum = zeta_sum * a + coef
        log_gamma_1p = a * (1.0 - EULER_GAMMA) - math.log1p(a) + a * a * zeta_sum
    else:
        log_gamma_1p = math.lgamma(1.0 + a)
    t = a * math.log(x) - log_gamma_1p
    power = math.exp(t)
    return power * (1.0 + a * j), -math.expm1(t) - power * a * j


def inv_reg_inc_gamma_lower(a: float, p: float) -> float:
    """Solve ``P(a, x) = p`` for ``x``, with ``0 < p < 1``.

    One Halley iteration on the smaller tail, ``P - p`` for ``p <= 1/2`` and
    ``(1 - p) - Q`` otherwise, or ``ln P - ln p`` while ``P`` is below ``p/2``
    or above ``3p/2``, so deep lower tails take a few steps, not dozens. It
    starts at the Wilson-Hilferty value but no
    lower than ``(p Gamma(a + 1))^(1/a)``, a lower bound on the root because
    ``P(a, x) <= x^a / Gamma(a + 1)``; for ``a = 1`` it starts at the root
    ``-ln(1 - p)``. The residual signs keep a bracket; a
    step that would leave it halves the bracket instead, or doubles ``x``
    while the bracket has no upper end; so does a Newton step past ``e^700``,
    which is no step. A step below ``1e-8 x`` whose Halley correction
    ``|newton * curvature|`` is below ``1e-4`` ends the loop, which returns
    ``x`` less that step: Halley's method is then in its cubic regime, so
    the root is far below one ulp away, even where the density's scale is
    far below ``x``. A step of at most two ulps also ends it. Above ``a = 50`` the
    step's density and curvature are formed as the forward ``P``'s
    prefactor is, from ``a (s - ln(1 + s))`` (computed once a step and passed
    to that ``P``) and Stirling's series and from
    the exact ``a - x``, not from ``a ln x - lgamma(a)``, which loses about
    ``ulp(a ln a)``. Every shape up to ``1e40`` then gives a root whose
    residual changes sign within 4 ulps: over 821 shapes from ``1e4`` to
    ``1e45`` and seven ``p`` from ``1e-300`` to ``1 - 2^-53`` none is
    further off. Above ``a = 1e40`` the
    root rounds to ``a`` itself, which is returned with no evaluation
    (``lgamma(a + 1)`` overflows past 2.5e305).
    Catalog shapes at CL 0.9 to 0.99 take two or three evaluations of
    ``P``, and ``a = 1`` takes one. At a subnormal ``x``, where Halley's
    factor overflows, the step is Newton's. When the lower bound underflows and
    ``P(a, 5e-324) >= p``, the root is below every positive double, which
    that one evaluation proves.

    Raises
    ------
    ConvergenceError
        If the forward ``P`` fails, the root underflows, or the loop runs out
        of its runaway budget; the exception carries the bracket and, as
        ``residual``, the last ``f``, or ``P(a, 5e-324) - p`` where that one
        evaluation proves the root below every positive double.
    """
    _require_real(a, "shape parameter", 0.0, strict=True)
    _require_real(p, "p", 0.0, 1.0, strict=True)
    if a > _HUGE_SHAPE:
        return a
    lower = p <= 0.5
    tail = p if lower else 1.0 - p
    if a == 1.0:  # P(1, x) = 1 - e^-x: start at the root itself
        x = -math.log1p(-p)
    else:
        # the normal quantile of the smaller tail to 4.5e-4 (A&S 26.2.23)
        t = math.sqrt(-2.0 * math.log(tail))
        z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
            1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))
        s = 1.0 / (9.0 * a)
        cube = 1.0 - s + (-z if lower else z) * math.sqrt(s)
        bound = math.exp((math.log(p) + math.lgamma(a + 1.0)) / a)
        if bound == 0.0 and (p_least := _gamma_pq(a, _MIN_SUBNORMAL)[0]) >= p:
            # P increases in x, so the root lies below every positive double
            raise ConvergenceError(
                f"incomplete gamma inverse underflows for a={a!r}, p={p!r}: "
                "P(a, 5e-324) >= p, so the root, and the limit solved from it, is below "
                "every positive double",
                bracket=(0.0, _MIN_SUBNORMAL),
                residual=p_least - p,
            )
        x = max(a * max(cube, 0.0) ** 3, bound)

    log_p = math.log(p)
    if a > _TEMME_MIN_SHAPE:
        # ln(x^a e^-x / Gamma(a)) + E, as in _gamma_pq: a ln x - lgamma(a)
        # loses about ulp(a ln a), past 1 near a = 1e15
        log_norm, log_gamma_star = 0.5 * math.log(a / _TWO_PI), _log_gamma_star(a)
    else:
        log_gamma_a = math.lgamma(a)
    lo, hi, f = 0.0, math.inf, None
    for _ in range(_MAX_HALLEY):
        if x == 0.0:  # the root underflows
            break
        # above a = 50, P and the step's density share Temme's exponent at x
        exponent = _temme_exponent(a, x) if a > _TEMME_MIN_SHAPE else None
        p_x, q_x = _gamma_pq(a, x, exponent)
        f = p_x - p if lower else tail - q_x
        if f == 0.0:
            return x
        if f < 0.0:
            lo = x
        else:
            hi = x
        # Newton's correction f / f' (none past e^700: far out, the guard
        # steps instead), then Halley's factor 1 - (f / f') f'' / (2 f'),
        # where f'' / f' is the log-derivative of the density f'
        if a > _TEMME_MIN_SHAPE:
            log_density = log_norm - exponent - log_gamma_star - math.log(x)
            curvature = (a - x - 1.0) / x
        else:
            log_density = (a - 1.0) * math.log(x) - x - log_gamma_a
            curvature = (a - 1.0) / x - 1.0
        if lower and abs(f) > 0.5 * p:
            # P off by more than half of p: iterate on ln P - ln p instead,
            # near linear where P spans orders of magnitude (the deep tail);
            # its f'' / f' gains -density / P. Where P underflows, x < a and
            # its series' bound x^a e^-x / Gamma(a + 1) (a + 1) / (a + 1 - x)
            # stands in: the first term alone puts P / density at 1, not x / (a - x)
            log_p_x = (math.log(p_x) if p_x > 0.0
                       else log_density + math.log(x / a * (a + 1.0) / (a + 1.0 - x)))
            log_ratio = log_p_x - log_density  # ln(P / density)
            ratio = math.exp(max(-700.0, log_ratio)) if log_ratio < 700.0 else math.nan
            newton = (log_p_x - log_p) * ratio
            curvature -= 1.0 / ratio
        else:
            log_newton = math.log(abs(f)) - log_density
            newton = math.copysign(math.exp(log_newton), f) if log_newton < 700.0 else math.nan
        # at a subnormal x, (a - 1)/x overflows: take Newton's step there. A
        # NaN step (no Newton step) ends nothing and leaves the bracket
        halley = 1.0 - 0.5 * newton * curvature if math.isfinite(curvature) else 1.0
        step = newton / halley if 0.0 < halley < math.inf else math.nan
        # cubic once Halley's correction is small; past a = 1e21 and at a
        # subnormal x, where 1e-8 x is below an ulp, a step of two ulps ends it
        if (abs(step) < 1e-8 * x and abs(newton * curvature) < 1e-4
                or abs(step) <= 2.0 * math.ulp(x)):
            return x - step
        proposal = x - step
        if not lo < proposal < hi:
            proposal = 2.0 * x if hi == math.inf else 0.5 * (lo + hi)
        x = proposal
    raise ConvergenceError(
        f"incomplete gamma inverse did not converge for a={a!r}, p={p!r}",
        bracket=(lo, hi),
        residual=f,
    )


def exp_integral_e1(x: float) -> float:
    """Exponential integral ``E1(x) = int_x^inf e^{-u}/u du`` for ``x > 0``.

    Power series about the origin for ``x <= 1`` (where
    ``E1(x) ~ -gamma_E - ln x``), Lentz continued fraction for ``x > 1``.
    """
    if not (x > 0.0):  # x = inf is allowed: E1(inf) = 0
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
    # E1(x) < e^-x / x: once e^-x underflows, so does E1 (and for x past 2^53
    # the fraction could not settle)
    scale = math.exp(-x)
    return _upper_gamma_fraction(0.0, x) * scale if scale != 0.0 else 0.0


def __getattr__(name: str):
    """``integrate_semi_infinite``, imported from :mod:`zerocount.quadrature` on first use."""
    if name == "integrate_semi_infinite":
        from .quadrature import integrate_semi_infinite

        return integrate_semi_infinite
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

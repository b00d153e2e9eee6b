"""Classical (non-Bayesian) estimation for repeated count measurements.

Implements maximum-likelihood point and variance estimates, the
simple-probability treatment of an all-zero record, and the non-statistical
1-count upper limit.

The all-zero case is the whole point of this package: the ML machinery then
returns zeros for every estimate, which is reported through a ``pathological``
flag rather than an error so callers can switch to the simple-probability or
Bayesian routes.
"""

from __future__ import annotations

import math

from .errors import DomainError, _Record, _require_int, _require_real

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from collections.abc import Sequence

__all__ = [
    "CountData",
    "MLReport",
    "ml_estimates",
    "simple_probability_estimates",
    "simple_probability_upper_limit",
    "one_count_upper_limit",
]


class CountData(_Record):
    """Counts from ``n`` repeated measurements of common duration ``t``.

    Unequal per-measurement durations are out of scope; the model assumes a
    single shared ``t``.
    """

    __slots__ = ("counts", "t")

    def __init__(self, counts: Sequence[int], t: float = 1.0):
        values = tuple(_require_int(c, "count") for c in counts)
        if len(values) == 0:
            raise DomainError("counts must contain at least one measurement")
        total = sum(values)
        try:
            float(total)  # every estimate divides the total as a float
        except OverflowError:
            raise DomainError(
                "total count S must be within the float range (about 1.8e308), "
                f"got a {total.bit_length()}-bit integer"
            ) from None
        _require_real(t, "t", 0.0, strict=True)
        self._store(values, float(t))

    @property
    def n(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return sum(self.counts)


class MLReport(_Record):
    """Maximum-likelihood point estimates and their variance estimates.

    ``pathological`` is True exactly when the total count is zero; all five
    estimates are then 0 and carry no uncertainty information.
    """

    __slots__ = ("theta_hat", "rho_hat", "var_counts", "var_mean", "var_rate", "pathological")


def _per_unit_time(mean: float, var: float, scale: float, t: float) -> tuple[float, float]:
    # (mean / scale, var / scale^2); a tiny legal t can underflow scale^2 to 0,
    # a huge one overflow it
    try:
        square = scale**2
    except OverflowError:
        square = math.inf
    if square == math.inf:
        raise DomainError(f"t must be small enough for finite rate estimates, got {t!r}")
    rate = (mean / scale, var / square if square > 0.0 else (0.0 if var == 0.0 else math.inf))
    if not all(map(math.isfinite, rate)):
        raise DomainError(f"t must be large enough for finite rate estimates, got {t!r}")
    return rate


def ml_estimates(data: CountData) -> MLReport:
    """Maximum-likelihood estimates of theta and rho with their variances."""
    s, n, t = data.total, data.n, data.t
    rho_hat, var_rate = _per_unit_time(s, s, n * t, t)
    return MLReport(
        # int / int is correctly rounded, so 10 measurements totalling 1 give 0.1
        theta_hat=s / n,
        rho_hat=rho_hat,
        var_counts=s / n,
        var_mean=s / n**2,
        var_rate=var_rate,
        pathological=(s == 0),
    )


def simple_probability_estimates(
    n: int, t: float = 1.0
) -> tuple[float, float, float, float]:
    """Mean and variance of theta and rho from the zero class as a density.

    For an all-zero record the zero-class probability e^{-n theta}, treated
    as a density n e^{-n theta} in theta, has mean 1/n and variance 1/n^2;
    dividing by t and t^2 converts to the rate, formed from the float of
    ``t``: a t whose square passes the float range raises ``DomainError``.
    """
    n = _require_real(_require_int(n, "n", 1), "n", 1.0)
    t = float(_require_real(t, "t", 0.0, strict=True))
    mean_theta = 1.0 / n
    var_theta = 1.0 / n**2
    return (mean_theta, var_theta, *_per_unit_time(mean_theta, var_theta, t, t))


def simple_probability_upper_limit(
    n: int, t: float, alpha: float
) -> tuple[float, float]:
    """Upper limits (U_theta, U_rho) at tail probability ``alpha``.

    Integrating the zero-class density n e^{-n theta} beyond U leaves mass
    alpha when U_theta = ln(1/alpha)/n.
    """
    n = _require_real(_require_int(n, "n", 1), "n", 1.0)
    _require_real(t, "t", 0.0, strict=True)
    _require_real(alpha, "alpha", 0.0, 1.0, strict=True)
    if alpha > 0.5:  # alpha - 1 is exact here, and near 1 a rounded 1/alpha is far off
        u_theta = -math.log1p(alpha - 1.0) / n
    else:  # 1/alpha overflows below alpha = 5.6e-309, where -ln(alpha) is still exact
        inverse = 1.0 / alpha
        u_theta = (math.log(inverse) if inverse != math.inf else -math.log(alpha)) / n
    return (u_theta, u_theta / t)


def one_count_upper_limit(t: float, calibration: float = 1.0) -> float:
    """The 1-count upper limit on the rate: 1/(t * calibration).

    Pretends a single count was seen and converts it to a rate through the
    measurement time and a multiplicative calibration coefficient (e.g. a
    detection efficiency). This is a non-statistical convention: no
    confidence level is attached to the number. The product is formed from
    the float of ``t``, so int arguments give the float's answer.
    """
    t = float(_require_real(t, "t", 0.0, strict=True))
    _require_real(calibration, "calibration", 0.0, strict=True)
    return 1.0 / (t * calibration)

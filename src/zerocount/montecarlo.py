"""Seeded samplers and simulation experiments.

Three count models can be sampled: plain Poisson, the zero-inflation-style
z-Poisson family, and the negative binomial as a Gamma mixture of Poissons.
On top of the samplers sit two experiments: a dispersion study (many short
bins, empirical variance/mean) and a frequentist coverage study of the
Bayesian upper limits.

Determinism is part of the contract here. All randomness flows through
``numpy.random.default_rng(seed)`` (PCG64); the algorithm and library
version are exposed via :func:`prng_metadata` so emitted records identify
the generator that produced them. The same model, size and seed always
yield the same draws, bit for bit, under the same numpy version.
"""

from __future__ import annotations

import math

from .bayes import PriorSpec, posterior_from_sufficient, upper_limit
from .distributions import NBParams, PoissonParams, ZPoissonParams, zpoisson_pmf
from .errors import (DomainError, ImproperPosteriorError, _Record, _require_int, _require_real,
                     _shown)

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PRNG_ALGORITHM",
    "SimSummary",
    "CoverageResult",
    "prng_metadata",
    "sample",
    "summarize",
    "dispersion_experiment",
    "coverage_experiment",
]

PRNG_ALGORITHM = "PCG64"

# the most draws or replicates one call takes: each is an int64 held in
# memory at once (80 MB at the cap), 9x the most any workload passes
_MAX_DRAWS = 10**7
_ZP_TAIL = 1e-13
# above this mean the z-Poisson sampler draws the zero-inflated form, not a table
_ZP_TABLE_MAX_THETA = 50.0

Model = PoissonParams | ZPoissonParams | NBParams


def prng_metadata() -> dict[str, str]:
    """Identify the generator behind every draw this module produces."""
    import numpy as np

    return {
        "prng_algorithm": PRNG_ALGORITHM,
        "prng_library": f"numpy {np.__version__}",
        "prng_seeding": "numpy.random.default_rng(seed)",
    }


def _require_draws(value, name: str) -> int:
    """``value`` as an int in [1, _MAX_DRAWS], checked before any draw."""
    value = _require_int(value, name, 1)
    if value > _MAX_DRAWS:
        raise DomainError(f"{name} must be at most {_MAX_DRAWS}, got {_shown(value)}")
    return value


def _validate_seed(seed: int) -> int:
    seed = _require_int(seed, "seed")
    if seed >= 2**64:
        raise DomainError(f"seed must be an unsigned 64-bit integer, got {_shown(seed)}")
    return seed


class SimSummary(_Record):
    """First two sample moments of a draw vector.

    ``sample_variance`` uses the 1/(n-1) denominator and is NaN for a single
    draw. ``dispersion`` is variance/mean, or None when the mean is not
    positive (or the variance is undefined): a flagged value, not a crash.
    """

    __slots__ = ("sample_mean", "sample_variance", "dispersion", "n_draws")


class CoverageResult(_Record):
    """Empirical coverage of an upper limit, with its binomial standard error."""

    __slots__ = ("coverage", "standard_error", "reps")


def _poisson(rng: np.random.Generator, lam, size=None) -> np.ndarray:
    """``rng.poisson`` with numpy's refusal of a mean as a ``DomainError``.

    numpy rejects means above about 9.2e18 with a bare ``ValueError``; for
    the negative binomial the mean is a Gamma draw, so no check on the
    input can rule that out in advance.
    """
    try:
        return rng.poisson(lam, size)
    except ValueError as exc:
        raise DomainError(f"cannot draw Poisson counts: {exc}") from None


def _zpoisson_table(params: ZPoissonParams) -> np.ndarray:
    """Cumulative z-Poisson pmf from 0 until all but 1e-13 of the mass is covered.

    At the means the sampler builds it for, up to 50, the sum gets there well
    before the cap on the length for any psi; near 440 it rounds short.
    """
    import numpy as np

    theta = params.theta
    cap = int(theta + 50.0 * math.sqrt(theta + 1.0) + 50.0)
    pmf = []
    cum = 0.0
    for k in range(cap + 1):
        pmf.append(zpoisson_pmf(k, params))
        cum += pmf[-1]
        if cum >= 1.0 - _ZP_TAIL:
            break
    return np.cumsum(np.asarray(pmf))


def _sample_zpoisson(params: ZPoissonParams, n_draws: int, rng: np.random.Generator) -> np.ndarray:
    import numpy as np

    if params.theta > _ZP_TABLE_MAX_THETA:
        # an extra zero with probability w = (psi - 1) P0 / (1 - P0), else a Poisson
        # draw: w + (1 - w) P0 = psi P0 at 0, and (1 - w) Poisson(k) = zpoisson_pmf above
        extra_zero = (params.psi - 1.0) * params.p0 / -math.expm1(-params.theta)
        zero = rng.random(n_draws) < extra_zero
        return np.where(zero, 0, _poisson(rng, params.theta, n_draws)).astype(np.int64)
    # inversion of the cumulative table; a draw past its end clamps to it
    table = _zpoisson_table(params)
    idx = np.searchsorted(table, rng.random(n_draws), side="right")
    return np.minimum(idx, len(table) - 1).astype(np.int64)


def sample(model: Model, n_draws: int, seed: int) -> np.ndarray:
    """Draw ``n_draws`` counts from ``model``, deterministically in ``seed``.

    ``n_draws`` above 10^7 raises ``DomainError``.
    """
    import numpy as np

    n_draws = _require_draws(n_draws, "n_draws")
    seed = _validate_seed(seed)
    rng = np.random.default_rng(seed)
    if isinstance(model, PoissonParams):
        return _poisson(rng, model.theta, n_draws).astype(np.int64)
    if isinstance(model, NBParams):
        lam = rng.gamma(shape=model.a, scale=model.theta / model.a, size=n_draws)
        return _poisson(rng, lam).astype(np.int64)
    if isinstance(model, ZPoissonParams):
        return _sample_zpoisson(model, n_draws, rng)
    raise DomainError(f"unsupported model {model!r}")


def summarize(draws: np.ndarray) -> SimSummary:
    import numpy as np

    draws = np.asarray(draws)
    n = int(draws.size)
    if n < 1:
        raise DomainError("cannot summarize an empty draw vector")
    mean = float(draws.mean())
    variance = float(draws.var(ddof=1)) if n >= 2 else math.nan
    dispersion: float | None = None
    if mean > 0.0 and math.isfinite(variance):
        dispersion = variance / mean
    return SimSummary(
        sample_mean=mean, sample_variance=variance, dispersion=dispersion, n_draws=n
    )


def dispersion_experiment(theta: float, n_bins: int, seed: int) -> SimSummary:
    """Split a long observation into ``n_bins`` Poisson bins and summarize.

    With enough bins the dispersion concentrates at 1; with ~100 bins it
    scatters broadly around 1 even though the underlying process is purely
    Poisson.
    """
    _require_real(theta, "theta", 0.0, strict=True)
    return summarize(sample(PoissonParams(theta=theta), n_bins, seed))


def coverage_experiment(
    true_rho: float,
    t: float,
    n: int,
    prior: PriorSpec,
    cl: float,
    reps: int,
    seed: int,
) -> CoverageResult:
    """Fraction of replicates whose upper limit covers the true rate.

    Each replicate draws the total count S ~ Poisson(n * true_rho * t) and
    asks whether the posterior upper limit at confidence ``cl`` sits at or
    above ``true_rho``. Coverage is unconditional over S. A prior that goes
    improper for a realized S (JJ with zero counts) aborts with an error
    naming the first offending replicate. ``reps`` above 10^7 raises
    ``DomainError``.
    """
    import numpy as np

    # ints would make the Poisson mean n rho t an exact int past the float range
    true_rho = float(_require_real(true_rho, "true_rho", 0.0))
    _require_real(t, "t", 0.0, strict=True)
    n = _require_real(_require_int(n, "n", 1), "n", 1.0)
    _require_real(cl, "cl", 0.0, 1.0, strict=True)
    reps = _require_draws(reps, "reps")
    seed = _validate_seed(seed)

    rng = np.random.default_rng(seed)
    totals = _poisson(rng, n * true_rho * t, reps)
    offending = totals + prior.a <= 0.0
    if np.any(offending):
        idx = int(np.argmax(offending))
        raise ImproperPosteriorError(
            f"prior {prior.kind.value} gives an improper posterior at replicate "
            f"{idx} (S = {int(totals[idx])}, a = {prior.a})",
            shape=float(totals[idx] + prior.a),
            total_counts=int(totals[idx]),
            replicate=idx,
        )
    values, inverse = np.unique(totals, return_inverse=True)
    limits = np.array([
        upper_limit(posterior_from_sufficient(int(s), n, t, prior), cl).U_rho
        for s in values
    ])
    covered = limits[inverse] >= true_rho
    coverage = float(covered.mean())
    se = math.sqrt(coverage * (1.0 - coverage) / reps)
    return CoverageResult(coverage=coverage, standard_error=se, reps=reps)

"""Seeded samplers and simulation experiments.

Three count models can be sampled: plain Poisson, the zero-inflation-style
z-Poisson family, and the negative binomial as a Gamma mixture of Poissons.
On top of the samplers sit two experiments: a dispersion study (many short
bins, empirical variance/mean) and a frequentist coverage study of the
Bayesian upper limits.

Determinism is part of the contract here. All randomness flows through
``numpy.random.default_rng(seed)`` (PCG64); the algorithm and library
version are exposed via :func:`prng_metadata` so emitted records identify
the generator that produced them. The same config always yields the same
draws, bit for bit, under the same numpy version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bayes import PriorSpec, posterior_from_sufficient, upper_limit
from .distributions import NBParams, PoissonParams, ZPoissonParams, zpoisson_pmf
from .errors import ConvergenceError, DomainError, ImproperPosteriorError, _require_int
from .numerics import ToleranceConfig

__all__ = [
    "PRNG_ALGORITHM",
    "SimConfig",
    "SimSummary",
    "CoverageResult",
    "prng_metadata",
    "sample",
    "simulate",
    "summarize",
    "dispersion_experiment",
    "coverage_experiment",
]

PRNG_ALGORITHM = "PCG64"

_ZP_TAIL = 1e-13

Model = PoissonParams | ZPoissonParams | NBParams


def prng_metadata() -> dict[str, str]:
    """Identify the generator behind every draw this module produces."""
    return {
        "prng_algorithm": PRNG_ALGORITHM,
        "prng_library": f"numpy {np.__version__}",
        "prng_seeding": "numpy.random.default_rng(seed)",
    }


def _validate_seed(seed: int) -> int:
    seed = _require_int(seed, "seed")
    if seed >= 2**64:
        raise DomainError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    return seed


@dataclass(frozen=True)
class SimConfig:
    """One reproducible sampling run: model, size, and seed."""

    model: Model
    n_draws: int
    seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.model, (PoissonParams, ZPoissonParams, NBParams)):
            raise DomainError(f"unsupported model {self.model!r}")
        _require_int(self.n_draws, "n_draws", 1)
        _validate_seed(self.seed)


@dataclass(frozen=True)
class SimSummary:
    """First two sample moments of a draw vector.

    ``sample_variance`` uses the 1/(n-1) denominator and is NaN for a single
    draw. ``dispersion`` is variance/mean, or None when the mean is not
    positive (or the variance is undefined): a flagged value, not a crash.
    """

    sample_mean: float
    sample_variance: float
    dispersion: float | None
    n_draws: int


@dataclass(frozen=True)
class CoverageResult:
    """Empirical coverage of an upper limit, with its binomial standard error."""

    coverage: float
    standard_error: float
    reps: int


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


def _sample_zpoisson(params: ZPoissonParams, n_draws: int, rng: np.random.Generator) -> np.ndarray:
    # cumulative-table inversion; the table stops once all but 1e-13 of the
    # mass is covered, and draws past the table clamp to its last entry
    cap = int(params.theta + 50.0 * math.sqrt(params.theta + 1.0) + 50.0)
    pmf = []
    cum = 0.0
    for k in range(cap + 1):
        pmf.append(zpoisson_pmf(k, params))
        cum += pmf[-1]
        if cum >= 1.0 - _ZP_TAIL:
            break
    else:
        raise ConvergenceError(
            f"z-Poisson pmf table did not reach mass {1.0 - _ZP_TAIL} within {cap + 1} terms"
        )
    table = np.cumsum(np.asarray(pmf))
    u = rng.random(n_draws)
    idx = np.searchsorted(table, u, side="right")
    return np.minimum(idx, len(table) - 1).astype(np.int64)


def sample(model: Model, n_draws: int, seed: int) -> np.ndarray:
    """Draw ``n_draws`` counts from ``model``, deterministically in ``seed``."""
    n_draws = _require_int(n_draws, "n_draws", 1)
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


def simulate(config: SimConfig) -> SimSummary:
    return summarize(sample(config.model, config.n_draws, config.seed))


def dispersion_experiment(theta: float, n_bins: int, seed: int) -> SimSummary:
    """Split a long observation into ``n_bins`` Poisson bins and summarize.

    With enough bins the dispersion concentrates at 1; with ~100 bins it
    scatters broadly around 1 even though the underlying process is purely
    Poisson.
    """
    if not (theta > 0.0):
        raise DomainError(f"theta must be > 0, got {theta!r}")
    return simulate(SimConfig(model=PoissonParams(theta=theta), n_draws=n_bins, seed=seed))


def coverage_experiment(
    true_rho: float,
    t: float,
    n: int,
    prior: PriorSpec,
    cl: float,
    reps: int,
    seed: int,
    tol: ToleranceConfig | None = None,
) -> CoverageResult:
    """Fraction of replicates whose upper limit covers the true rate.

    Each replicate draws the total count S ~ Poisson(n * true_rho * t) and
    asks whether the posterior upper limit at confidence ``cl`` sits at or
    above ``true_rho``. Coverage is unconditional over S. A prior that goes
    improper for a realized S (JJ with zero counts) aborts with an error
    naming the first offending replicate.
    """
    if not (true_rho >= 0.0):
        raise DomainError(f"true_rho must be >= 0, got {true_rho!r}")
    if not (t > 0.0):
        raise DomainError(f"t must be > 0, got {t!r}")
    n = _require_int(n, "n", 1)
    if not (0.0 < cl < 1.0):
        raise DomainError(f"cl must lie in (0, 1), got {cl!r}")
    reps = _require_int(reps, "reps", 1)
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
    limits = {
        s: upper_limit(posterior_from_sufficient(int(s), n, t, prior), cl, tol=tol).U_rho
        for s in np.unique(totals)
    }
    covered = np.array([limits[s] for s in totals]) >= true_rho
    coverage = float(covered.mean())
    se = math.sqrt(coverage * (1.0 - coverage) / reps)
    return CoverageResult(coverage=coverage, standard_error=se, reps=reps)

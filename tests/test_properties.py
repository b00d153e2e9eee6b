"""Property tests of the Bayesian upper limit, drawn with hypothesis.

The draws are derandomized with a fixed example budget, so every run checks
the same cases. Each property holds to 1e-12 relative: the limit does not
decrease in CL or in the total count S, and stretching the clock by q divides
the rate limit by q.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from zerocount.bayes import PriorKind, posterior_from_sufficient, prior_params, upper_limit

RTOL = 1e-12
PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)

priors = st.sampled_from([PriorKind.BL, PriorKind.JR, PriorKind.ME])
totals = st.integers(min_value=0, max_value=10_000)
counts = st.integers(min_value=1, max_value=100)
times = st.floats(min_value=1e-3, max_value=1e3)
cls = st.floats(min_value=1e-9, max_value=1.0 - 1e-9)


def limit(kind, S, n, t, cl):
    return upper_limit(posterior_from_sufficient(S, n, t, prior_params(kind, t=t)), cl).U_rho


@PROPERTY
@given(priors, totals, counts, times, cls, cls)
def test_limit_does_not_decrease_in_cl(kind, S, n, t, cl1, cl2):
    lo, hi = sorted((cl1, cl2))
    assert limit(kind, S, n, t, hi) >= limit(kind, S, n, t, lo) * (1.0 - RTOL)


@PROPERTY
@given(priors, totals, totals, counts, times, cls)
def test_limit_does_not_decrease_in_total(kind, S1, S2, n, t, cl):
    lo, hi = sorted((S1, S2))
    assert limit(kind, hi, n, t, cl) >= limit(kind, lo, n, t, cl) * (1.0 - RTOL)


@PROPERTY
@given(priors, totals, counts, times, cls, st.floats(min_value=1e-3, max_value=1e3))
def test_limit_scales_with_the_clock(kind, S, n, t, cl, q):
    base = limit(kind, S, n, t, cl)
    assert abs(q * limit(kind, S, n, q * t, cl) - base) <= RTOL * base

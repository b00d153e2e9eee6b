"""Property tests of the Bayesian upper limit and of P(a, x), drawn with hypothesis.

The draws are derandomized with a fixed example budget, so every run checks
the same cases. Each limit property holds to 1e-12 relative: the limit does
not decrease in CL or in the total count S, and stretching the clock by q
divides the rate limit by q. Across every switch between the regions of
``P(a, x)``, in x or in the shape, the smaller tail moves by what the step
calls for to 2e-13 (1e-12 for shape steps), and P stays monotone.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from zerocount import numerics
from zerocount.bayes import PriorKind, posterior_from_sufficient, prior_params, upper_limit
from zerocount.numerics import reg_inc_gamma_lower

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


# P(a, x) across the switches between the regions of numerics._gamma_pq

shapes = st.one_of(
    st.floats(min_value=-6.0, max_value=5.0).map(lambda e: 10.0**e),
    st.sampled_from([0.5, 1.0, 2.0, 3.0, 50.0, 51.0]),
)


def switches(a):
    """The x at which the evaluation of P(a, .) changes branch."""
    if a > numerics._TEMME_MIN_SHAPE:
        return (a - numerics._TEMME_BAND * a, a + numerics._TEMME_BAND * a)
    if a < numerics._SMALL_SHAPE:
        return (numerics._SMALL_SHAPE_X,)
    if a == 0.5:
        return ()
    return (1.5 * a + 1.2,) if a < 3.0 and a % 1.0 != 0.0 else (a + 1.0,)


def smaller_tail(a, x):
    p, q = numerics._gamma_pq(a, x)
    return (p, 1.0) if p <= q else (q, -1.0)


@PROPERTY
@given(shapes)
def test_p_is_continuous_and_monotone_across_x_switches(a):
    for edge in switches(a):
        lo, hi = edge * (1.0 - 1e-12), edge * (1.0 + 1e-12)
        (t_lo, sign), (t_hi, _) = smaller_tail(a, lo), smaller_tail(a, hi)
        # the step in the tail is the density times the step in x
        density = math.exp((a - 1.0) * math.log(edge) - edge - math.lgamma(a))
        assert abs(sign * (t_hi - t_lo) - density * (hi - lo)) <= 2e-13 * max(t_lo, t_hi)
        wide_lo, wide_hi = edge * (1.0 - 1e-9), edge * (1.0 + 1e-9)
        assert reg_inc_gamma_lower(a, wide_lo) <= reg_inc_gamma_lower(a, wide_hi)
        assert numerics._gamma_pq(a, wide_lo)[1] >= numerics._gamma_pq(a, wide_hi)[1]


@PROPERTY
@given(st.sampled_from([(0.5, 0.01, 20.0), (3.0, 0.5, 20.0), (50.0, 30.0, 80.0)]), st.floats(0, 1))
def test_p_is_continuous_and_monotone_across_shape_switches(edge, frac):
    a, x_min, x_max = edge
    x = x_min + frac * (x_max - x_min)
    (t_lo, _), (t_hi, _) = smaller_tail(a * (1.0 - 1e-14), x), smaller_tail(a * (1.0 + 1e-14), x)
    assert abs(t_hi - t_lo) <= 1e-12 * max(t_lo, t_hi)
    # P falls as the shape grows
    p_lo, q_lo = numerics._gamma_pq(a * (1.0 - 1e-9), x)
    p_hi, q_hi = numerics._gamma_pq(a * (1.0 + 1e-9), x)
    assert p_lo >= p_hi and q_lo <= q_hi

"""Print the frozen deep-tail gamma-inverse roots held in tests/test_numerics.py.

Run once by hand (``python tests/make_gamma_tail_roots.py``) and paste its
output over ``TAIL_ROOTS``. Each value is the double nearest the root of
P(a, x) = p for the double p, solved on the smaller tail (P = p for p <= 1/2,
Q = 1 - p otherwise) with mpmath 1.3.0 to 40 significant digits. The shapes
and p are a sample of the scan in ``test_large_shapes_bracket_their_root``,
at the four p furthest from 1/2. The suite itself never imports mpmath.

mpmath's own ``gammainc`` gives up on these shapes: its series would need
about sqrt(a) terms. So each tail is the integral that the substitution
t = x e^-u (P) or t = x e^u (Q) gives,

    P(a, x) = x^a e^-x / Gamma(a) * integral of exp(-a u - x (e^-u - 1)) du,
    Q(a, x) = x^a e^-x / Gamma(a) * integral of exp(a u - x (e^u - 1)) du,

over u in [0, inf), whose integrand falls monotonically from 1 on the side
of a where that tail is the smaller, on a scale of 1 / (|a - x| + sqrt(x)).
Newton's method on the log of the tail, whose derivative is -+1 / (x I) for
the integral I, runs from the Wilson-Hilferty estimate until its step is
below 1e-45 of the root.
"""

import mpmath

mpmath.mp.dps = 120

SHAPES = [10.0 ** (k / 20) for k in (80, 140, 200, 260, 320, 380, 440, 500, 560, 620, 641, 660,
                                     680, 740, 800, 900)]
PROBABILITIES = (1e-300, 1e-10, 1.0 - 1e-10, 1.0 - 2.0**-53)


def log_tail_and_integral(a, x, lower):
    """ln P(a, x) (``lower``) or ln Q(a, x), and the integral I above."""
    sign = -1 if lower else 1
    scale = 1 / (abs(a - x) + mpmath.sqrt(x))

    def integrand(u):
        return mpmath.exp(sign * a * u - x * mpmath.expm1(sign * u))

    integral = mpmath.quad(integrand, [0] + [scale * m for m in (1, 4, 16, 64, 256)])
    return a * mpmath.log(x) - x - mpmath.loggamma(a) + mpmath.log(integral), integral


def root(a: float, p: float) -> float:
    a, lower = mpmath.mpf(a), p <= 0.5
    target = mpmath.log(mpmath.mpf(p) if lower else 1 - mpmath.mpf(p))
    # the normal quantile of the smaller tail, then Wilson-Hilferty
    z = mpmath.findroot(lambda z: mpmath.log(mpmath.ncdf(z)) - target, -mpmath.sqrt(-2 * target))
    z = z if lower else -z
    x = a * (1 - 1 / (9 * a) + z / (3 * mpmath.sqrt(a))) ** 3
    for _ in range(100):
        log_tail, integral = log_tail_and_integral(a, x, lower)
        assert (x < a) == lower, (a, p)
        step = (log_tail - target) * x * integral * (1 if lower else -1)
        x -= step
        if abs(step) < x * mpmath.mpf(10) ** -45:
            return float(x)
    raise RuntimeError(f"no root for a={a}, p={p}")


def main() -> None:
    print("TAIL_ROOTS = {")
    for a in SHAPES:
        for p in PROBABILITIES:
            print(f"    ({a!r}, {p!r}): {root(a, p)!r},")
    print("}")


if __name__ == "__main__":
    main()

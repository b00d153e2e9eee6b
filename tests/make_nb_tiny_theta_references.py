"""Print the frozen tiny-theta NB marginals held in tests/test_marginal.py.

Run once by hand (``python tests/make_nb_tiny_theta_references.py``) and
paste its output over ``NB_TINY_THETA``. Each value is the double nearest
the unnormalized NB marginal

    m(theta) = integral over a in [0, inf) of NB(x | theta, a) e^-theta e^-a,

with NB(x | theta, a) = Gamma(a + x) / (Gamma(a) x!) (theta / (a + theta))^x
(a / (a + theta))^a, evaluated with mpmath 1.3.0 at 40 significant digits by
tanh-sinh quadrature split at theta times powers of ten, where the joint
turns over, and at 1, 10 and 50. The suite itself never imports mpmath.
"""

import mpmath

mpmath.mp.dps = 40

COUNTS = (0, 1, 2, 3)
THETAS = (1e-3, 1e-5, 1e-7)


def nb_marginal(x: int, theta: float) -> mpmath.mpf:
    theta = mpmath.mpf(theta)

    def joint(a):
        if a == 0:
            return mpmath.exp(-theta) if x == 0 else mpmath.mpf(0)
        nb = (mpmath.rf(a, x) / mpmath.factorial(x) * (theta / (a + theta)) ** x
              * (a / (a + theta)) ** a)
        return nb * mpmath.exp(-theta - a)

    points = [mpmath.mpf(0)]
    points += [theta * mpmath.mpf(10) ** k for k in range(-3, 4) if theta * 10**k < 1]
    points += [1, 10, 50, mpmath.inf]
    return mpmath.quad(joint, points)


def main() -> None:
    print("NB_TINY_THETA = {")
    for x in COUNTS:
        values = ", ".join(repr(float(nb_marginal(x, theta))) for theta in THETAS)
        print(f"    {x}: ({values}),")
    print("}")


if __name__ == "__main__":
    main()

"""Print the frozen Gamma-entropy references held in tests/test_bayes.py.

Run once by hand (``python tests/make_entropy_references.py``) and paste its
output over ``ENTROPY_ROWS``, ``ENTROPY_RATES`` and ``ENTROPY_GRID``. Each
value is the double nearest H = a - ln b + lnGamma(a) + (1 - a) psi(a),
evaluated with mpmath 1.3.0 at 40 significant digits. The suite itself never
imports mpmath.
"""

import math
import textwrap

import mpmath

mpmath.mp.dps = 40

# shapes and rates far out, where a numeric integral of -p ln p goes wrong
# without an error, then shapes beside the a = 50 switch to the Stirling
# series: half a unit and one double either side
ROWS = [
    (50.0, 1e-3), (1000.0, 1.0), (1e6, 1.0), (1e-3, 1.0), (1e-20, 1.0),
    (2.0, 1e-300), (2.0, 1e300),
    (49.5, 1.0), (math.nextafter(50.0, 0.0), 1.0), (50.0, 1.0),
    (math.nextafter(50.0, 100.0), 1.0), (50.5, 1.0),
]
RATES = (1e-3, 10**-1.5, 1.0, 10**1.5, 1e3)
SHAPES = [10 ** (k / 2) for k in range(-6, 13)]  # 1e-3 to 1e6, two per decade


def entropy(a: float, b: float) -> float:
    a, b = mpmath.mpf(a), mpmath.mpf(b)
    return float(a - mpmath.log(b) + mpmath.loggamma(a) + (1 - a) * mpmath.digamma(a))


def main() -> None:
    print("ENTROPY_ROWS = {")
    for a, b in ROWS:
        print(f"    ({a!r}, {b!r}): {entropy(a, b)!r},")
    print("}")
    print(f"ENTROPY_RATES = {RATES!r}")
    print("ENTROPY_GRID = {")
    for a in SHAPES:
        values = ", ".join(repr(entropy(a, b)) for b in RATES) + ","
        print(f"    {a!r}: (")
        print(textwrap.fill(values, 99, initial_indent=" " * 8, subsequent_indent=" " * 8))
        print("    ),")
    print("}")


if __name__ == "__main__":
    main()

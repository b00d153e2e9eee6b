"""Independent reference values, computed with scipy in their own process.

Usage: ``python perfbench/reference.py < request.json > reference.json``.
The request may hold three lists:

- ``limits``: records ``{S, n, t, prior, a, b, CL}``; the answer is the
  upper limit on the rate, ``null`` where the posterior is improper. The
  inverse comes from ``scipy.special.gammainccinv`` on ``1 - CL`` (exact for
  a double ``CL`` near 1) or ``gammaincinv`` on ``CL``.
- ``zpoisson``: ``[x, thetas]``; the closed-form marginal Gamma(x + 1, 2).
- ``nb``: ``[x, thetas]``; the NB marginal over ``a`` normalised by the
  evidence, both by nested ``scipy.integrate.quad`` on scipy's own NB pmf
  algebra.

Kept out of the benchmarked processes so neither scipy's import nor its
memory shows in their numbers.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np
from scipy import integrate, special, stats

import workloads

QUAD = {"epsabs": 0.0, "epsrel": 1e-11, "limit": 400}


def limits(records):
    if not records:
        return []
    ab = [workloads.prior_ab(r["prior"], r["t"], r["a"], r["b"]) for r in records]
    A = np.array([r["S"] + a0 for r, (a0, _) in zip(records, ab)])
    B = np.array([r["n"] * r["t"] + b0 for r, (_, b0) in zip(records, ab)])
    CL = np.array([r["CL"] for r in records])
    proper = A > 0.0
    A_safe = np.where(proper, A, 1.0)
    with np.errstate(all="ignore"):
        x = np.where(CL > 0.5, special.gammainccinv(A_safe, 1.0 - CL),
                     special.gammaincinv(A_safe, CL))
    return [float(u) if ok else None for u, ok in zip(x / B, proper)]


def _nb_joint(a, theta, x):
    if a == 0.0 or theta == 0.0:
        return math.exp(-theta - a) if x == 0 else 0.0
    log_pmf = (special.gammaln(a + x) - special.gammaln(a) - special.gammaln(x + 1.0)
               + a * math.log(a / (a + theta)) + x * math.log(theta / (a + theta)))
    return math.exp(log_pmf - theta - a)


def _nb_raw(theta, x):
    return integrate.quad(_nb_joint, 0.0, math.inf, args=(theta, x), **QUAD)[0]


def nb(requests):
    evidence = {}
    out = []
    for x, thetas in requests:
        if x not in evidence:
            evidence[x] = integrate.quad(_nb_raw, 0.0, math.inf, args=(x,), **QUAD)[0]
        out.append([_nb_raw(th, x) / evidence[x] for th in thetas])
    return out


def zpoisson(requests):
    return [stats.gamma.pdf(np.asarray(thetas), x + 1.0, scale=0.5).tolist()
            for x, thetas in requests]


def main():
    request = json.load(sys.stdin)
    answer = {
        "limits": limits(request.get("limits", [])),
        "zpoisson": zpoisson(request.get("zpoisson", [])),
        "nb": nb(request.get("nb", [])),
    }
    json.dump(answer, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""When counts refuse to be Poisson: two overdispersed relatives.

Compares the zero-class-coupled Poisson and the negative binomial against
a plain Poisson at the same mean, then runs the marginalization check: can
the two-parameter posterior's nuisance dimension be integrated out into a
simple closed form? For one model yes (verified numerically), for the
other the distances are reported without a verdict.
"""

from zerocount.distributions import (
    NBParams,
    PoissonParams,
    ZPoissonParams,
    nb_dispersion,
    nb_pmf,
    poisson_pmf,
    zpoisson_moments,
    zpoisson_pmf,
)
from zerocount.marginal import make_theta_grid, nb_marginal_numeric, zpoisson_marginal

ZP = ZPoissonParams(theta=4.5, psi=10.8907923667246459)
NB = NBParams(theta=4.0, a=8.0)


def main() -> None:
    print("=== three pmfs, one mean ===")
    zp_mean, zp_disp = zpoisson_moments(ZP)
    print("  poisson:  mean 4, dispersion 1")
    print(f"  zpoisson: mean {zp_mean:g}, dispersion {zp_disp:g}")
    print(f"  nb:       mean {NB.theta:g}, dispersion {nb_dispersion(NB):g}")

    print("\n  x   poisson   zpoisson    nb")
    for x in range(9):
        print(
            f"  {x:>2}  {poisson_pmf(x, 4.0):.5f}   {zpoisson_pmf(x, ZP):.5f}"
            f"   {nb_pmf(x, NB):.5f}"
        )
    print("  same center of mass, fatter zero class and tail for the")
    print("  overdispersed pair; that surplus at x = 0 is what a zero-count")
    print("  analysis has to take seriously.")

    print("\n=== marginalizing the zero-class coupling out ===")
    for x in (0, 1, 5):
        comp = zpoisson_marginal(x, make_theta_grid(x, step=0.25))
        # the check's verdict: within the 1e-6 budget of the claimed form
        verdict = "matches" if comp.linf_distance < 1e-6 else "does NOT match"
        print(
            f"  x = {x}: sup|numeric - claimed| = {comp.linf_distance:.2e}, "
            f"norm residual = {comp.numeric_norm_residual:.2e}"
            f"  -> {verdict} the closed form"
        )

    print("\n=== marginalizing the nb shape out ===")
    print("  candidate closed form vs the honest nested quadrature:")
    for x in (0, 1):
        comp = nb_marginal_numeric(x, make_theta_grid(x, step=0.5))
        print(
            f"  x = {x}: l1 = {comp.l1_distance:.4f}, linf = {comp.linf_distance:.4f}, "
            f"norm residual = {comp.numeric_norm_residual:.1e}"
        )
    print("  the numeric marginal is a proper density (residual ~ 1e-12) but")
    print("  sits visibly away from the candidate form, so the comparison is")
    print("  report-only: distances are published, equality is not claimed.")

    print("\n=== where the candidate becomes exact ===")
    # cutting the shape integral off above a_lower pushes the mixture
    # toward the pure-Poisson limit where the candidate form is exact
    x = 1
    grid = make_theta_grid(x, step=0.5)
    for a_lower in (0.0, 10.0, 40.0):
        comp = nb_marginal_numeric(x, grid, a_lower=a_lower)
        print(f"  a_lower = {a_lower:>4g}: linf = {comp.linf_distance:.4e}")
    print("  the gap shrinks as small shapes are excluded: the discrepancy")
    print("  lives in the strongly-overdispersed corner of the shape range.")


if __name__ == "__main__":
    main()

"""Densities by Stieltjes inversion and the score-function identities.

For each family the closed-form density is compared with the numerical
Stieltjes inversion lim_{eps -> 0} -Im G(x + i eps) / pi, and the identity
2 H[mu](x) = V'(x) relating the Hilbert transform of the measure to the
derivative of its potential is checked on a grid.  Run::

    python3 demos/densities_and_scores.py
"""

from fractions import Fraction

from freebeta import FreeBeta, FreeBetaPrime, FreeT, measure_of, support_of
from freebeta.analysis import score_grid, stieltjes_density

FAMILIES = [
    FreeBetaPrime(2, 3),
    FreeBetaPrime(Fraction(1, 2), 2),
    FreeT(2),
    FreeBeta(2, 2),
]


def main():
    for fam in FAMILIES:
        spec = measure_of(fam)
        lo, hi = support_of(fam)
        print(f"\n{fam}  support = [{lo:.6f}, {hi:.6f}]"
              f"  atoms = {spec.atoms}")
        header = "|2H - V'|"
        print(f"{'x':>10} {'closed form':>14} {'inversion':>14} "
              f"{header:>12}")
        worst_density, worst_score = 0.0, 0.0
        for x, score, v_prime in score_grid(fam, 9):
            closed = spec.density(x)
            inverted = stieltjes_density(fam, x)
            score_err = abs(score - v_prime)
            worst_density = max(worst_density, abs(closed - inverted))
            worst_score = max(worst_score, score_err)
            print(f"{x:>10.4f} {closed:>14.8f} {inverted:>14.8f} "
                  f"{score_err:>12.2e}")
        print(f"max |closed - inversion| = {worst_density:.2e}, "
              f"max score deviation = {worst_score:.2e}")


if __name__ == "__main__":
    main()

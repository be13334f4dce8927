"""Compute free beta prime moments by three independent routes.

The moments of the free beta prime law with parameters (a, b) can be
obtained by

1. summing weights over non-crossing linked partitions, one gap length at
   a time, with no enumeration,
2. expanding the closed-form moment generating function as a power series,
3. reading off vacuum expectations of a truncated Fock-space operator.

All three are exact rational computations, so agreement is checked with
``==`` rather than a tolerance.  Run::

    python3 demos/moments_three_routes.py
"""

from fractions import Fraction

from freebeta import FreeBetaPrime, fbp_moment, moment_series
from freebeta.fock import fbp_operator, vacuum_moments

PARAMS = [(Fraction(2), Fraction(3)),
          (Fraction(1, 2), Fraction(2)),
          (Fraction(3), Fraction(3, 2))]
ORDER = 8


def main():
    for a, b in PARAMS:
        print(f"\nfree beta prime with a = {a}, b = {b}")
        print(f"{'n':>3} {'NCL sum':>16} {'series':>16} {'Fock vacuum':>16}")
        ncl = fbp_moment(a, b, ORDER)
        series = moment_series(FreeBetaPrime(a, b), ORDER).moments
        vac = vacuum_moments(fbp_operator(a, b, ORDER), ORDER)
        for n in range(1, ORDER + 1):
            print(f"{n:>3} {str(ncl[n]):>16} {str(series[n]):>16} "
                  f"{str(vac[n]):>16}")
        assert ncl == series == vac
        print("all three routes agree exactly")


if __name__ == "__main__":
    main()

"""Monte Carlo: Fisher matrix eigenvalues against the free F limit.

Eigenvalues of F = S1 S2^{-1}, the ratio of two independent sample
covariance matrices with p/n1 -> 1/a and p/n2 -> 1/b, converge to the
free F(a, b) law.  This script samples spectra at increasing dimension,
prints the Kolmogorov-Smirnov distance to the closed-form limit, and shows
an ASCII histogram against the limiting density.  Run::

    python3 demos/fisher_spectrum_monte_carlo.py
"""

from freebeta import FreeF
from freebeta.randmat import (
    FisherSampleConfig,
    histogram_rows,
    ks_distance,
    sample_fisher_spectrum,
)

A, B, SEED = 2, 3, 42


def main():
    fam = FreeF(A, B)
    print(f"free F({A}, {B}) vs sampled Fisher spectra, seed {SEED}:")
    for p in (50, 100, 250, 500):
        eigs = sample_fisher_spectrum(
            FisherSampleConfig(p=p, a=A, b=B, seed=SEED)
        )
        ks = ks_distance(eigs, fam)
        print(f"  p = {p:>4}: KS distance = {ks:.4f}")

    # eigs is the last sample drawn, at p = 500
    print("\nempirical (#) vs theoretical (|) density, p = 500:")
    rows = histogram_rows(eigs, fam, bins=25)
    peak = max(max(r[2], r[3]) for r in rows)
    for left, right, emp, theo in rows:
        bar_emp = int(round(40 * emp / peak))
        bar_theo = int(round(40 * theo / peak))
        line = ["."] * 41
        line[bar_emp] = "#"
        line[bar_theo] = "|" if bar_theo != bar_emp else "*"
        print(f"  [{left:6.3f}, {right:6.3f})  {''.join(line)}")
    print("  (* marks overlapping bars)")


if __name__ == "__main__":
    main()

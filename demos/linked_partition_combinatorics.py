"""Non-crossing linked partitions: enumeration, statistics, Gamma polynomials.

Non-crossing linked partitions are counted by the large Schroeder numbers;
their joint statistic (doubly covered, singly covered non-singleton,
singleton) has a three-variable generating polynomial Gamma_n computable
three ways: by summing the block walk that enumerates them one gap length
at a time, by a weighted-Motzkin continued fraction, and from a
closed-form quadratic.  The gap sum needs no enumeration, so it counts
the partitions far past the sizes that can be listed.  Run::

    python3 demos/linked_partition_combinatorics.py
"""

from collections import Counter
from fractions import Fraction

from freebeta import LinkedPartition, enumerate_ncl
from freebeta.ncl import gamma_poly, gamma_series, statistics

F = Fraction


def main():
    print("counts of non-crossing linked partitions (large Schroeder),")
    print("listed for n <= 8 and summed by gaps to n = 16:")
    counts = gamma_poly(16, 1, 1, 1)
    for n in range(1, 17):
        if n <= 8:
            assert len(enumerate_ncl(n)) == counts[n]
        print(f"  n = {n}: {counts[n]}")

    print("\nall 6 linked partitions of {1,2,3}:")
    for p in enumerate_ncl(3):
        st = statistics(p)
        print(f"  {p.blocks}  (dc, sc, sg) = ({st.dc}, {st.sc}, {st.sg})")

    print("\njoint statistic distribution at n = 5:")
    dist = Counter(
        (statistics(p).dc, statistics(p).sc, statistics(p).sg)
        for p in enumerate_ncl(5)
    )
    for key in sorted(dist):
        print(f"  (dc, sc, sg) = {key}: {dist[key]} partitions")

    print("\nGamma polynomial, three routes at (alpha, beta, gamma) "
          "= (2, 3/2, 5):")
    abc = (F(2), F(3, 2), F(5))
    cf = gamma_series(6, *abc, route="cf")
    closed = gamma_series(6, *abc, route="closed")
    assert gamma_poly(6, *abc) == cf.coefficients == closed.coefficients
    for n in range(1, 7):
        print(f"  n = {n}: {closed[n]}")

    ref = LinkedPartition(
        10, ((1, 2, 7), (2, 4), (3,), (5, 6), (7, 8, 9), (9, 10))
    )
    st = statistics(ref)
    print(f"\nreference partition {ref.blocks}:")
    print(f"  (dc, sc, sg) = ({st.dc}, {st.sc}, {st.sg})")


if __name__ == "__main__":
    main()

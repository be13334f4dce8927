"""Tests for moment/cumulant transforms and free convolutions."""

import itertools
import random
from fractions import Fraction
from itertools import chain, combinations, product
from typing import Iterator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from freebeta.errors import FreeBetaError
from freebeta.ncl import moment_via_ncl
from freebeta.series import PowerSeries
from freebeta.transforms import (
    MomentSequence,
    free_add_convolve,
    free_mult_convolve,
    moments_to_r,
    moments_to_s,
    r_to_moments,
    s_to_moments,
)

F = Fraction


def noncrossing_partitions(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield all non-crossing set partitions of {1..n} as block tuples.

    The interval recursion: the block of the smallest element of lo..hi-1
    splits the rest into independent gaps, one after each block element.
    """

    def rec(lo: int, hi: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if lo == hi:
            yield ()
            return
        for k in range(hi - lo):
            for picks in combinations(range(lo + 1, hi), k):
                block = (lo,) + picks
                gaps = [rec(x + 1, y) for x, y in zip(block, picks + (hi,))]
                for combo in product(*gaps):
                    yield (block,) + tuple(chain.from_iterable(combo))

    yield from rec(1, n + 1)


def nc_sum_moments(r: PowerSeries) -> MomentSequence:
    """The oracle for r_to_moments: the moment-cumulant formula.

    m_n = sum over non-crossing partitions of the product of
    r_{|B|} = R[|B| - 1] over blocks.
    """
    n = r.order + 1
    moments = [Fraction(1)]
    for k in range(1, n + 1):
        total = Fraction(0)
        for part in noncrossing_partitions(k):
            prod = Fraction(1)
            for block in part:
                prod *= r[len(block) - 1]
            total += prod
        moments.append(total)
    return MomentSequence(tuple(moments))


def semicircle_moments(order):
    """Standard semicircle: Catalan numbers at even orders."""
    def catalan(k):
        out = F(1)
        for i in range(k):
            out = out * 2 * (2 * i + 1) / (i + 2)
        return out

    vals = [catalan(n // 2) if n % 2 == 0 else F(0) for n in range(order + 1)]
    return MomentSequence(tuple(vals))


def poisson_moments(lam, order):
    """Free Poisson moments: every free cumulant is lam."""
    return nc_sum_moments(PowerSeries([F(lam)] * order))


moment_strategy = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    min_size=4,
    max_size=8,
).map(lambda tail: MomentSequence((F(1),) + tuple(tail)))


class TestContainers:
    def test_moment_sequence_requires_unit_mass(self):
        with pytest.raises(ValueError):
            MomentSequence((F(2), F(1)))

    def test_t_coefficients_require_nonzero_head(self):
        with pytest.raises(ValueError):
            moment_via_ncl(PowerSeries((F(0), F(1))), 1)


class TestMomentCumulant:
    def test_semicircle_cumulants(self):
        r = moments_to_r(semicircle_moments(8))
        want = (F(0), F(1)) + (F(0),) * 6
        assert r.coefficients == want

    def test_poisson_cumulants_constant(self):
        lam = F(3, 2)
        r = moments_to_r(poisson_moments(lam, 7))
        assert r.coefficients == (lam,) * 7

    def test_nc_sum_route_matches_series_route(self):
        r = PowerSeries(F(k + 1, 2) for k in range(8))
        assert r_to_moments(r).moments == nc_sum_moments(r).moments

    def test_series_route_matches_nc_sum_to_order_10(self):
        r = PowerSeries(F((-1) ** k * (k + 2), k + 1) for k in range(10))
        assert r_to_moments(r).moments == nc_sum_moments(r).moments

    def test_round_trip_order_24(self):
        m = MomentSequence(
            (F(1),) + tuple(F(k * k - 3, k + 2) for k in range(1, 25))
        )
        r = moments_to_r(m)
        assert r.order == 23
        assert r_to_moments(r).moments == m.moments

    @given(moment_strategy)
    def test_round_trip(self, m):
        back = r_to_moments(moments_to_r(m))
        assert back.moments == m.moments

    def test_noncrossing_counts_are_catalan(self):
        catalan = [1, 2, 5, 14, 42, 132]
        for n, c in enumerate(catalan, start=1):
            assert len(list(noncrossing_partitions(n))) == c

    @pytest.mark.parametrize("n", range(1, 9))
    def test_noncrossing_partitions_match_brute_filter(self, n):
        # all set partitions of {1..n}, blocks in order of their minima
        parts = [[]]
        for x in range(1, n + 1):
            parts = ([p[:i] + [p[i] + [x]] + p[i + 1:]
                      for p in parts for i in range(len(p))]
                     + [p + [[x]] for p in parts])

        def crossing(p):
            return any(a < b < c < d
                       for e, f in itertools.permutations(p, 2)
                       for a, c in itertools.combinations(e, 2)
                       for b, d in itertools.combinations(f, 2))

        want = {tuple(map(tuple, p)) for p in parts if not crossing(p)}
        got = list(noncrossing_partitions(n))
        assert len(got) == len(set(got))
        assert set(got) == want

    def test_noncrossing_excludes_crossings(self):
        parts = set(noncrossing_partitions(4))
        assert ((1, 3), (2, 4)) not in parts
        assert ((1, 4), (2, 3)) in parts


class TestSTransform:
    def test_poisson_s_transform(self):
        # S(z) = 1/(z + lam) for the free Poisson law
        lam = F(2)
        s = moments_to_s(poisson_moments(lam, 8))
        geom = PowerSeries.constant(1, s.order) / PowerSeries(
            [lam] + [F(1)] + [F(0)] * (s.order - 1)
        )
        assert s == geom

    @given(moment_strategy)
    def test_s_round_trip(self, m):
        if m[1] == 0:
            m = MomentSequence((F(1), F(1)) + m.moments[2:])
        s = moments_to_s(m)
        back = s_to_moments(s)
        assert back.moments == m.moments

    def test_s_conversions_at_edge_orders(self):
        # one moment gives S to order 0; S to order n gives n + 1 moments
        lam = F(2)
        assert moments_to_s(poisson_moments(lam, 1)) == \
            PowerSeries.constant(F(1, 2), 0)
        s = moments_to_s(poisson_moments(lam, 8))
        for order in (1, 3, 8):
            m = poisson_moments(lam, order)
            assert s_to_moments(s.truncate(order - 1)) == m

    def test_s_requires_nonzero_mean(self):
        m = MomentSequence((F(1), F(0), F(1), F(0)))
        with pytest.raises(FreeBetaError, match="S-transform needs m_1 != 0"):
            moments_to_s(m)

    def test_s_to_t_is_reciprocal(self):
        lam = F(2)
        s = moments_to_s(poisson_moments(lam, 8))
        t = PowerSeries.constant(1, s.order) / s
        prod = s * t
        assert prod.coefficients[0] == F(1)
        assert all(c == 0 for c in prod.coefficients[1:])


class TestConvolutions:
    def test_add_semigroup(self):
        ma = poisson_moments(F(1, 2), 8)
        mb = poisson_moments(F(5, 3), 8)
        mab = poisson_moments(F(1, 2) + F(5, 3), 8)
        assert free_add_convolve(ma, mb).moments == mab.moments

    def test_add_identity(self):
        m = poisson_moments(F(2), 6)
        delta0 = MomentSequence((F(1),) + (F(0),) * 6)
        assert free_add_convolve(m, delta0).moments == m.moments

    def test_mult_identity(self):
        m = poisson_moments(F(2), 6)
        delta1 = MomentSequence((F(1),) * 7)
        assert free_mult_convolve(m, delta1).moments == m.moments

    def test_mult_requires_nonzero_mean(self):
        sc = semicircle_moments(6)
        with pytest.raises(FreeBetaError,
                           match="multiplicative convolution needs m_1 != 0"):
            free_mult_convolve(sc, sc)

    def test_order_mismatch(self):
        ma = poisson_moments(F(1), 6)
        mb = poisson_moments(F(1), 4)
        with pytest.raises(FreeBetaError, match="share a truncation order"):
            free_mult_convolve(ma, mb)
        with pytest.raises(FreeBetaError, match="share a truncation order"):
            free_add_convolve(ma, mb)

    def _random_moments(self, rng, order=6, positive_mean=False):
        tail = [F(rng.randint(-3, 3), rng.randint(1, 3))
                for _ in range(order)]
        if positive_mean and tail[0] == 0:
            tail[0] = F(1)
        return MomentSequence((F(1),) + tuple(tail))

    def test_add_commutative_and_associative(self):
        rng = random.Random(7)
        for _ in range(5):
            a = self._random_moments(rng)
            b = self._random_moments(rng)
            c = self._random_moments(rng)
            assert (free_add_convolve(a, b).moments
                    == free_add_convolve(b, a).moments)
            lhs = free_add_convolve(free_add_convolve(a, b), c)
            rhs = free_add_convolve(a, free_add_convolve(b, c))
            assert lhs.moments == rhs.moments

    def test_mult_commutative_and_associative(self):
        rng = random.Random(13)
        for _ in range(5):
            a = self._random_moments(rng, positive_mean=True)
            b = self._random_moments(rng, positive_mean=True)
            c = self._random_moments(rng, positive_mean=True)
            assert (free_mult_convolve(a, b).moments
                    == free_mult_convolve(b, a).moments)
            lhs = free_mult_convolve(free_mult_convolve(a, b), c)
            rhs = free_mult_convolve(a, free_mult_convolve(b, c))
            assert lhs.moments == rhs.moments

"""Tests for the truncated Fock-space operator models."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freebeta.errors import FreeBetaError
from freebeta.fock import (
    TruncatedFockOperator,
    fbp_operator,
    vacuum_moments,
)
from freebeta.ncl import fbp_moment, gamma_series, level_weights
from freebeta.series import _truncation
from freebeta.verification import _FBP_PARAMS

F = Fraction


def fraction_walk(op, n_max):
    """vacuum_moments' oracle: v <- X v on levels 0..n_max - j at step j,
    two Fraction products and two sums per level."""
    v = [F(1)] + [F(0)] * op.truncation
    out = [F(1)]
    for j in range(n_max):
        top = min(n_max - j, op.truncation)
        v = [op.diagonal[i] * v[i]
             + (op.products[i - 1] * v[i - 1] if i else 0)
             + (v[i + 1] if i < top else 0) for i in range(top + 1)]
        out.append(v[0])
    return tuple(out)


# Zeros, small rationals of either sign, and 65-bit parts as 2^64 + 1 has.
entries = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.builds(F, st.integers(-2 ** 65, 2 ** 65),
              st.integers(2 ** 64, 2 ** 65)),
)


def canonical(alpha, beta, gamma, n_levels):
    """The canonical operator truncated to levels 0..n_levels."""
    return TruncatedFockOperator(*level_weights(alpha, beta, gamma,
                                                n_levels + 1))


class TestOperatorStructure:
    def test_tridiagonal_entries(self):
        """Column j of the matrix, X e_j, is zero outside rows j-1..j+1."""
        op = canonical(F(2), F(3), F(5), 4)
        dim = op.truncation + 1
        for j in range(dim):
            column = op.apply(tuple(F(int(i == j)) for i in range(dim)))
            for i in range(dim):
                if abs(i - j) > 1:
                    assert column[i] == 0

    def test_band_values(self):
        alpha, beta, gamma = F(2), F(3), F(5)
        op = canonical(alpha, beta, gamma, 4)
        assert len(op.products) == 4
        assert len(op.diagonal) == 5
        # diagonal: flat weights; pair products across an edge: up weights
        assert op.diagonal[0] == gamma
        assert op.diagonal[1] == 1 + alpha + gamma
        assert op.products[0] == beta
        assert op.products[1] == alpha + beta

    def test_apply_is_matrix_action(self):
        op = canonical(F(2), F(3), F(5), 3)
        e1 = (F(0), F(1), F(0), F(0))
        v = op.apply(e1)
        # column 1 holds the entries (0, 1) = 1, (1, 1) and (2, 1)
        assert v == (F(1), op.diagonal[1], op.products[1], F(0))

    def test_apply_on_the_lowest_levels(self):
        """A shorter v is read as zero above its top level."""
        op = canonical(F(2), F(3), F(5), 4)
        v = (F(1), F(-2), F(1, 3))
        assert op.apply(v) == op.apply(v + (F(0), F(0)))[:3]


class TestVacuumMoments:
    def test_semicircle_pattern(self):
        # trivial Jacobi data: vacuum moments are the Catalan/zero pattern
        op = TruncatedFockOperator(diagonal=(F(0),) * 5, products=(F(1),) * 4)
        vac = vacuum_moments(op, 8)
        assert list(vac) == [F(x) for x in [1, 0, 1, 0, 2, 0, 5, 0, 14]]

    def test_unit_weights_give_partition_counts(self):
        op = canonical(F(1), F(1), F(1), 6)
        vac = vacuum_moments(op, 6)
        assert list(vac[1:]) == [F(x) for x in [1, 2, 6, 22, 90, 394]]

    def test_matches_gamma_polynomial(self):
        alpha, beta, gamma = F(1, 2), F(3), F(2, 5)
        op = canonical(alpha, beta, gamma, 7)
        vac = vacuum_moments(op, 7)
        cf = gamma_series(7, alpha, beta, gamma, route="cf")
        for n in range(1, 8):
            assert vac[n] == cf[n]

    def test_truncation_independence(self):
        """Moments up to n are exact for any truncation N >= ceil(n/2)."""
        alpha, beta, gamma = F(2), F(1, 3), F(1)
        small = vacuum_moments(canonical(alpha, beta, gamma, 3), 5)
        large = vacuum_moments(canonical(alpha, beta, gamma, 9), 5)
        assert small == large

    def test_truncation_too_small(self):
        op = canonical(F(1), F(1), F(1), 3)
        assert len(vacuum_moments(op, 6)) == 7  # n_max = 2N is admitted
        with pytest.raises(FreeBetaError,
                           match="n_max = 7 needs truncation N >= 4, "
                                 "got N = 3"):
            vacuum_moments(op, 7)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_fraction_walk(self, data):
        n = data.draw(st.integers(0, 32), label="n")
        levels = _truncation(n) + 1 + data.draw(st.integers(0, 3))
        op = TruncatedFockOperator(
            tuple(data.draw(st.lists(entries, min_size=levels,
                                     max_size=levels))),
            tuple(data.draw(st.lists(entries, min_size=levels - 1,
                                     max_size=levels - 1))))
        assert vacuum_moments(op, n) == fraction_walk(op, n)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_half_depth_is_the_least_exact_truncation(self, n):
        abc = F(1, 2), F(3), F(-2, 5)
        half = (n + 1) // 2
        assert (vacuum_moments(canonical(*abc, half), n)
                == vacuum_moments(canonical(*abc, n), n))
        with pytest.raises(FreeBetaError,
                           match=f"n_max = {n} .* got N = {half - 1}$"):
            vacuum_moments(canonical(*abc, half - 1), n)


class TestFbpOperator:
    def test_pair_at_fbp_2_3(self):
        # the Jacobi bands of FBP(2, 3): a_0 = 1, a_k = 5/2, b_1 = 1,
        # b_k = 3/2
        op = fbp_operator(2, 3, 4)
        assert op.diagonal == (F(1), F(5, 2), F(5, 2), F(5, 2), F(5, 2))
        assert op.products == (F(1), F(3, 2), F(3, 2), F(3, 2))

    @pytest.mark.parametrize(
        "a,b", [(F(2), F(3)), (F(1, 2), F(2)), (F(3), F(3, 2))]
    )
    def test_vacuum_moments_equal_ncl_route(self, a, b):
        op = fbp_operator(a, b, 4)
        assert tuple(vacuum_moments(op, 8)) == fbp_moment(a, b, 8)

    @pytest.mark.parametrize(
        "a,b", _FBP_PARAMS + ((F(2), F(10 ** 20 + 1)),))
    def test_matches_fraction_walk_to_order_40(self, a, b):
        op = fbp_operator(a, b, _truncation(40))
        assert vacuum_moments(op, 40) == fraction_walk(op, 40)

    def test_reference_values(self):
        vac = vacuum_moments(fbp_operator(2, 3, 5), 5)
        assert list(vac[1:]) == [F(1), F(2), F(11, 2), F(71, 4), F(503, 8)]

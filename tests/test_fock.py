"""Tests for the truncated Fock-space operator models."""

from fractions import Fraction

import pytest

from freebeta.errors import FreeBetaError
from freebeta.fock import (
    TruncatedFockOperator,
    build_operator,
    fbp_operator,
    vacuum_moments,
)
from freebeta.ncl import fbp_moment, gamma_series

F = Fraction


class TestOperatorStructure:
    def test_tridiagonal_entries(self):
        """Column j of the matrix, X e_j, is zero outside rows j-1..j+1."""
        op = build_operator(F(2), F(3), F(5), 4)
        for j in range(op.dim):
            column = op.apply(tuple(F(int(i == j)) for i in range(op.dim)))
            for i in range(op.dim):
                if abs(i - j) > 1:
                    assert column[i] == 0

    def test_band_values(self):
        alpha, beta, gamma = F(2), F(3), F(5)
        op = build_operator(alpha, beta, gamma, 4)
        assert len(op.raising) == len(op.lowering) == 4
        assert len(op.diagonal) == 5
        # diagonal: flat weights; subdiagonal pair products: up weights
        assert op.diagonal[0] == gamma
        assert op.diagonal[1] == 1 + alpha + gamma
        assert op.raising[0] * op.lowering[0] == beta
        assert op.raising[1] * op.lowering[1] == alpha + beta

    def test_apply_is_matrix_action(self):
        op = build_operator(F(2), F(3), F(5), 3)
        e1 = (F(0), F(1), F(0), F(0))
        v = op.apply(e1)
        # column 1 holds the entries (0, 1), (1, 1) and (2, 1)
        assert v == (op.lowering[0], op.diagonal[1], op.raising[1], F(0))

    def test_band_length_validation(self):
        with pytest.raises(ValueError):
            TruncatedFockOperator(
                raising=(F(1),), diagonal=(F(0),) * 3, lowering=(F(1),) * 2
            )


class TestVacuumMoments:
    def test_semicircle_pattern(self):
        # trivial Jacobi data: vacuum moments are the Catalan/zero pattern
        op = TruncatedFockOperator(
            raising=(F(1),) * 8, diagonal=(F(0),) * 9, lowering=(F(1),) * 8
        )
        vac = vacuum_moments(op, 8)
        assert list(vac) == [F(x) for x in [1, 0, 1, 0, 2, 0, 5, 0, 14]]

    def test_unit_weights_give_partition_counts(self):
        op = build_operator(F(1), F(1), F(1), 6)
        vac = vacuum_moments(op, 6)
        assert list(vac[1:]) == [F(x) for x in [1, 2, 6, 22, 90, 394]]

    def test_matches_gamma_polynomial(self):
        alpha, beta, gamma = F(1, 2), F(3), F(2, 5)
        op = build_operator(alpha, beta, gamma, 7)
        vac = vacuum_moments(op, 7)
        cf = gamma_series(7, alpha, beta, gamma, route="cf")
        for n in range(1, 8):
            assert vac[n] == cf[n]

    def test_truncation_independence(self):
        """Moments up to n are exact for any truncation level >= n."""
        alpha, beta, gamma = F(2), F(1, 3), F(1)
        small = vacuum_moments(build_operator(alpha, beta, gamma, 5), 5)
        large = vacuum_moments(build_operator(alpha, beta, gamma, 9), 5)
        assert small == large

    def test_truncation_too_small(self):
        op = build_operator(F(1), F(1), F(1), 3)
        with pytest.raises(FreeBetaError,
                           match="n_max = 5 exceeds truncation N = 3"):
            vacuum_moments(op, 5)


class TestFbpOperator:
    @pytest.mark.parametrize(
        "a,b", [(F(2), F(3)), (F(1, 2), F(2)), (F(3), F(3, 2))]
    )
    def test_vacuum_moments_equal_ncl_route(self, a, b):
        op = fbp_operator(a, b, 8)
        vac = vacuum_moments(op, 8)
        for n in range(1, 9):
            assert vac[n] == fbp_moment(a, b, n)

    def test_reference_values(self):
        vac = vacuum_moments(fbp_operator(2, 3, 5), 5)
        assert list(vac[1:]) == [F(1), F(2), F(11, 2), F(71, 4), F(503, 8)]


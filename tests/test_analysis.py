"""Tests for Stieltjes inversion, score identities, atoms, and quadrature."""

import math
from fractions import Fraction

import pytest

import numpy as np

from freebeta.analysis import (
    _GK_NODES,
    _GK_WEIGHTS,
    atom_masses,
    hilbert_score,
    potential_derivative,
    quadrature_moment,
    score_grid,
    stieltjes_density,
    t_density_limits,
)
from freebeta.distributions import (
    FreeBeta,
    FreeBetaPrime,
    FreeF,
    FreeMeixnerStd,
    FreePoisson,
    FreeT,
    InverseFreePoisson,
    MeasureSpec,
    measure_of,
    moment_series,
    support_of,
)
from freebeta.errors import FreeBetaError
from freebeta.verification import _SCORE_GATE

F = Fraction


class TestStieltjesDensity:
    def test_matches_closed_form(self):
        for fam in [FreeBetaPrime(2, 3), FreePoisson(2), FreeT(2),
                    FreeBeta(2, 2), FreeF(2, 3), InverseFreePoisson(3)]:
            spec = measure_of(fam)
            lo, hi = spec.support
            for k in range(1, 8):
                x = lo + (hi - lo) * k / 8
                got = stieltjes_density(fam, x)
                assert abs(got - spec.density(x)) < 1e-8, f"{fam} at {x}"

    def test_semicircle_value(self):
        # fbp(2,3) at x = 1: (b-1) sqrt(-(x-hi)(x-lo)) / (2 pi x (1+x))
        fam = FreeBetaPrime(2, 3)
        lo, hi = support_of(fam)
        want = 2 * math.sqrt((hi - 1) * (1 - lo)) / (2 * math.pi * 1 * 2)
        assert abs(stieltjes_density(fam, 1.0) - want) < 1e-10

    def test_outside_support_raises(self):
        fam = FreeBetaPrime(2, 3)
        lo, _ = support_of(fam)
        with pytest.raises(FreeBetaError, match="not strictly inside"):
            stieltjes_density(fam, lo - 0.5)


class TestEdgeScaledLadder:
    # FreeBeta(4/5, 24) has its support in [0.00047, 0.139], so the points
    # near its edges lie closer to them than the 1e-2 top of the ladder
    fam = FreeBeta(F(4, 5), 24)

    def test_score_near_an_edge_meets_the_verify_gate(self):
        worst = max(abs(score - v_prime)
                    for _, score, v_prime in score_grid(self.fam, 20))
        assert worst <= _SCORE_GATE  # 1.2e-8 with an unscaled ladder

    def test_density_near_an_edge_matches_the_closed_form(self):
        spec = measure_of(self.fam)
        lo, hi = support_of(self.fam)
        xs = [lo + (hi - lo) * k / 21 for k in range(1, 21)]
        worst = max(abs(spec.density(x) - stieltjes_density(self.fam, x))
                    for x in xs)
        assert worst <= 1e-10  # 1.6e-10 with an unscaled ladder


class TestScores:
    @pytest.mark.parametrize(
        "fam",
        [FreeBetaPrime(2, 3), FreeBetaPrime(F(1, 2), 2), FreeT(2),
         FreeT(10), FreeBeta(2, 2), FreeBeta(F(1, 2), F(3, 4))],
        ids=str,
    )
    def test_score_identity(self, fam):
        """Twice the Hilbert transform equals the potential derivative."""
        lo, hi = support_of(fam)
        for k in range(1, 21):
            x = lo + (hi - lo) * k / 21
            err = abs(hilbert_score(fam, x) - potential_derivative(fam, x))
            assert err <= 1e-6, f"x={x}: {err}"

    def test_potential_derivative_reference(self):
        # free T: V'(x) = (m+1) x / (m + x^2)
        assert potential_derivative(FreeT(2), 1.0) == pytest.approx(1.0)
        # free beta prime: V'(x) = ((b+1)x + 1 - a) / (x(1+x))
        assert potential_derivative(
            FreeBetaPrime(2, 3), 1.0
        ) == pytest.approx(1.5)

    def test_domain_guard(self):
        with pytest.raises(FreeBetaError, match="lives on x > 0"):
            potential_derivative(FreeBetaPrime(2, 3), -1.0)
        with pytest.raises(FreeBetaError, match="lives on 0 < x < 1"):
            potential_derivative(FreeBeta(2, 2), 1.5)


class TestAtomMasses:
    def test_poisson_atom(self):
        got = dict(atom_masses(FreePoisson(F(1, 2))))
        assert got == pytest.approx({0.0: 0.5}, abs=1e-6)

    def test_no_atom_above_threshold(self):
        assert atom_masses(FreePoisson(2)) == []
        assert atom_masses(FreeT(2)) == []

    def test_free_beta_two_atoms(self):
        got = dict(atom_masses(FreeBeta(F(1, 2), F(3, 4))))
        assert got == pytest.approx({0.0: 0.5, 1.0: 0.25}, abs=1e-6)

    def test_fbp_atom(self):
        got = dict(atom_masses(FreeBetaPrime(F(1, 2), 2)))
        assert got == pytest.approx({0.0: 0.5}, abs=1e-6)

    @pytest.mark.parametrize("fam", [
        FreeMeixnerStd(F(5, 2), F(-9, 10)),  # atom 2.8e-5 above the edge
        FreeBeta(F(999, 1000), F(1, 2)),  # atom 5.0e-7 below the lower edge
        FreePoisson(1),                   # no atom; site on the lower edge
        FreeBetaPrime(1, 2),
        FreeBeta(1, F(1, 2)),
    ], ids=str)
    def test_limit_matches_closed_form_at_an_edge(self, fam):
        want = dict(measure_of(fam).atoms)
        got = dict(atom_masses(fam))
        for loc in set(want) | set(got):
            assert abs(got.get(loc, 0.0) - want.get(loc, 0.0)) <= 1e-9, loc


class TestQuadrature:
    @pytest.mark.parametrize(
        "fam",
        [FreePoisson(F(1, 2)), FreePoisson(2), InverseFreePoisson(3),
         FreeBetaPrime(2, 3), FreeF(2, 3), FreeT(2), FreeBeta(2, 2)],
        ids=str,
    )
    def test_unit_mass(self, fam):
        spec = measure_of(fam)
        assert abs(quadrature_moment(spec, 0) - 1) < 1e-8

    def test_moments_match_exact(self):
        fam = FreeBetaPrime(2, 3)
        spec = measure_of(fam)
        exact = moment_series(fam, 6)
        for n in range(1, 7):
            got = quadrature_moment(spec, n)
            want = float(exact[n])
            assert abs(got - want) <= 1e-6 * max(abs(want), 1.0)

    def test_atoms_contribute(self):
        # free beta with atoms at 0 and 1: the atom at 1 adds to every moment
        fam = FreeBeta(F(1, 2), F(3, 4))
        spec = measure_of(fam)
        exact = moment_series(fam, 3)
        for n in range(4):
            got = quadrature_moment(spec, n)
            assert abs(got - float(exact[n])) < 1e-8


class TestGaussKronrod:
    def test_kronrod_weights_sum_to_two(self):
        assert _GK_WEIGHTS[0].sum() == pytest.approx(2, abs=1e-15)

    @pytest.mark.parametrize("k", range(23))
    def test_monomials_integrate_exactly(self, k):
        # K15 is exact through degree 22 (3 * 7 + 1), G7 through 13; odd
        # powers vanish by symmetry in both
        exact = 2 / (k + 1) if k % 2 == 0 else 0.0
        kronrod, gauss = _GK_WEIGHTS @ _GK_NODES ** k
        assert abs(kronrod - exact) <= 1e-15
        if k <= 13:
            assert abs(gauss - exact) <= 1e-15
        elif k % 2 == 0:
            assert abs(gauss - exact) > 1e-5

    def test_unresolvable_density_raises(self):
        # 1 + sin(w x) on [0, 1]: 200 subintervals resolve w = 1e3, not 1e5
        def spec(w):
            return MeasureSpec(lambda x: 1 + math.sin(w * x), (0.0, 1.0), ())
        want = 1 + (1 - math.cos(1e3)) / 1e3
        assert quadrature_moment(spec(1e3), 0) == pytest.approx(want,
                                                                 abs=1e-9)
        with pytest.raises(FreeBetaError, match="too large for moment 0"):
            quadrature_moment(spec(1e5), 0)


class TestTLimits:
    def test_limits_within_tolerance(self):
        report = t_density_limits()
        assert report["sup_semicircle"] <= 2e-4
        assert report["sup_cauchy"] <= 1e-4

    def test_pointwise_semicircle(self):
        # large m: density at 0 approaches 1/(2 pi) * sqrt(4) = 1/pi
        fam = FreeT(10 ** 4)
        spec = measure_of(fam)
        assert spec.density(0.0) == pytest.approx(1 / math.pi, abs=1e-4)

    def test_pointwise_cauchy(self):
        # m -> 1: density at 0 approaches the standard Cauchy 1/pi
        fam = FreeT(F(1000001, 1000000))
        spec = measure_of(fam)
        assert spec.density(0.0) == pytest.approx(1 / math.pi, abs=1e-4)

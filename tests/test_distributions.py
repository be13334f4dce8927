"""Tests for the distribution families: Cauchy transforms, measures, moments."""

import cmath
import math
import pickle
import random
from dataclasses import fields, replace
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from freebeta.analysis import (
    atom_masses,
    hilbert_score,
    potential_derivative,
    quadrature_moment,
    stieltjes_density,
)
from freebeta.cli import _FAMILIES
from freebeta.distributions import (
    Family,
    FreeBeta,
    FreeBetaPrime,
    FreeF,
    FreeMeixnerStd,
    FreePoisson,
    FreeT,
    InverseFreePoisson,
    _meixner_class,
    cauchy_eval,
    fbp_t_params,
    measure_of,
    moment_series,
    standardize_to_meixner,
    support_of,
    t_coeffs_of,
)
from freebeta.errors import FreeBetaError
from freebeta.ncl import fbp_moment
from freebeta.series import PowerSeries, _poly, cf_expand
from freebeta.transforms import moments_to_s

F = Fraction

ALL_FAMILIES = [
    FreePoisson(F(1, 2)),
    FreePoisson(2),
    InverseFreePoisson(3),
    FreeBetaPrime(2, 3),
    FreeBetaPrime(F(1, 2), 2),
    FreeF(2, 3),
    FreeT(2),
    FreeT(10),
    FreeBeta(2, 2),
    FreeBeta(F(1, 2), F(3, 4)),
    FreeMeixnerStd(F(3, 2), F(1, 2)),
]


# Free F laws with a far from 1 both ways and b next to 1, and the inverse
# free Poisson laws: each is checked against its base law by the dilation or
# the reciprocal it is defined by.
_FREE_F_LAWS = [FreeF(2, 3), FreeF(F(1, 2), 2), FreeF(1, 10),
                FreeF(F(1, 10 ** 6), 3), FreeF(10 ** 6, 3),
                FreeF(2, 1 + F(1, 10 ** 12))]
_IFP_LAWS = [InverseFreePoisson(3), InverseFreePoisson(F(11, 10)),
             InverseFreePoisson(50), InverseFreePoisson(1 + F(1, 10 ** 12))]

# Standardized free Meixner laws (theta, tau) of every class: the semicircle
# (0, 0), a free Poisson (1, 0), two atoms (0, -1), free binomials with an
# atom, and free negative binomials and pure free Meixner laws with or
# without one; (3, 1) has an atom of 0.829 at -0.382.
_MEIXNER_LAWS = [(0, 0), (1, 0), (0, -1), (F(-7, 3), F(-1, 2)),
                 (F(1, 2), F(-1, 2)), (2, 1), (5, 2), (-4, 3), (3, 1)]


def _across_and_off(fam, seed: int, count: int = 200) -> list[complex]:
    """z over and beside the support, from 1e-6 to 10 widths above it."""
    lo, hi = support_of(fam)
    rng = random.Random(seed)
    return [complex(lo + (hi - lo) * rng.uniform(-1, 2),
                    (hi - lo) * 10 ** rng.uniform(-6, 1))
            for _ in range(count)]


def _g_tolerance(fam, z: complex, roots) -> float:
    """Relative bound on |G - oracle| at z.

    At a real root of Q (0 for both laws, -b/a for the free F) the numerator
    of G vanishes with Q, so next to it the closed form and the oracle both
    subtract nearly equal terms and lose (hi / d)^2 of their digits at
    distance d: the inverse free Poisson's G read 3e-11 apart at
    |z| = 1.2e-3.  Scaled by that factor, 20,000 points per law read at
    most 2.6e-14.
    """
    hi = support_of(fam)[1]
    d = min(abs(z - root) for root in roots)
    return 1e-13 * max(1.0, (hi / d) ** 2)


def _density_tolerance(fam, x: float) -> float:
    """Relative bound on a density against its oracle, inside the support.

    An edge one ulp apart moves sqrt(x - edge) by eps * hi / (x - edge)
    relative at most.  That is the 5e-13 seen at a = 1e-6, where the support
    is a band 5e-3 of hi wide; allow about 4 ulps.
    """
    lo, hi = support_of(fam)
    return 1e-15 * hi / min(x - lo, hi - x)


class TestParameterValidation:
    def test_invalid_parameters(self):
        with pytest.raises(FreeBetaError, match="free Poisson needs lam > 0"):
            FreePoisson(0)
        with pytest.raises(FreeBetaError, match="inverse free Poisson needs"):
            InverseFreePoisson(1)
        with pytest.raises(FreeBetaError, match="free beta prime needs"):
            FreeBetaPrime(2, F(1, 2))
        with pytest.raises(FreeBetaError, match="free F needs"):
            FreeF(-1, 2)
        with pytest.raises(FreeBetaError, match="free T needs m > 1"):
            FreeT(1)
        with pytest.raises(FreeBetaError, match="free beta needs"):
            FreeBeta(F(1, 4), F(1, 2))
        with pytest.raises(FreeBetaError, match="free Meixner needs tau"):
            FreeMeixnerStd(0.0, -1.5)

    @pytest.mark.parametrize("a, b", [(0, 3), (2, 1)])
    @pytest.mark.parametrize("fn", [fbp_t_params, standardize_to_meixner])
    def test_fbp_parameter_functions_share_the_family_check(self, fn, a, b):
        with pytest.raises(FreeBetaError) as want:
            FreeBetaPrime(a, b)
        with pytest.raises(FreeBetaError) as got:
            fn(a, b)
        assert str(got.value) == str(want.value)

    def test_parameters_coerced_to_fractions(self):
        f = FreeBetaPrime(2, 3)
        assert isinstance(f.a, Fraction) and isinstance(f.b, Fraction)


class TestCauchyTransform:
    def test_poisson_reference_value(self):
        # G(z) = (z - sqrt(z^2 - 4z)) / (2z) for rate 1, at z = 8 (from just
        # above the axis, where Im G is about 1e-17)
        got = cauchy_eval(FreePoisson(1), complex(8.0, 1e-15))
        assert abs(got - (2 - math.sqrt(2)) / 4) < 1e-15

    def test_nevanlinna_property(self):
        """Im G < 0 on the open upper half plane, for every family."""
        rng = random.Random(2024)
        for fam in ALL_FAMILIES:
            for _ in range(50):
                z = complex(rng.uniform(-8, 8), rng.uniform(1e-3, 5))
                g = cauchy_eval(fam, z)
                assert g.imag < 0, f"{fam} at {z}"

    def test_conjugate_symmetry(self):
        rng = random.Random(5)
        for fam in ALL_FAMILIES:
            z = complex(rng.uniform(-4, 4), rng.uniform(0.1, 2))
            assert cauchy_eval(fam, z.conjugate()) == complex(
                cauchy_eval(fam, z)
            ).conjugate()

    def test_asymptotics(self):
        for fam in ALL_FAMILIES:
            z = complex(0.3, 2000.0)
            assert abs(z * cauchy_eval(fam, z) - 1) < 1e-2

    def test_series_agreement_far_from_support(self):
        """Closed form matches the moment expansion sum m_n / z^{n+1}."""
        for fam, z, tol in [
            (FreeBetaPrime(2, 3), 50.0, 1e-10),
            (FreeBetaPrime(2, 3), 10.0, 1e-5),
            (FreePoisson(F(3, 2)), 40.0, 1e-10),
            (FreeBeta(2, 2), 30.0, 1e-10),
        ]:
            m = moment_series(fam, 12)
            series = sum(float(m[n]) / z ** (n + 1) for n in range(13))
            assert abs(cauchy_eval(fam, complex(z, 1e-15)) - series) < tol

    def test_dilation_law(self):
        """G of the free F is the rescaled G of the free beta prime."""
        for fam in _FREE_F_LAWS:
            c = float(fam.a) / float(fam.b)
            base = FreeBetaPrime(fam.a, fam.b)
            for z in _across_and_off(fam, 31):
                want = c * cauchy_eval(base, c * z)
                tol = _g_tolerance(fam, z, (0.0, -1 / c))
                assert abs(cauchy_eval(fam, z) - want) <= tol * abs(want), (
                    fam, z)

    @pytest.mark.parametrize("fam", _IFP_LAWS, ids=repr)
    def test_reciprocal_law(self, fam):
        """G of the inverse free Poisson from the free Poisson's at 1/z."""
        base = FreePoisson(fam.b)
        for z in _across_and_off(fam, 37):
            want = 1 / z - cauchy_eval(base, 1 / z) / (z * z)
            tol = _g_tolerance(fam, z, (0.0,))
            assert abs(cauchy_eval(fam, z) - want) <= tol * abs(want), z

    def test_on_support_raises(self):
        # on the support, and at an atom or pole site
        for fam in ALL_FAMILIES:
            lo, hi = support_of(fam)
            for x in ((lo + hi) / 2, 0.0):
                with pytest.raises(FreeBetaError,
                                   match="off the real axis, got z = "):
                    cauchy_eval(fam, x)

    def test_real_axis_outside_support(self):
        # a real z off the support is refused too, signed zero imag included
        for fam in ALL_FAMILIES:
            lo, hi = support_of(fam)
            for x in (-1.0, hi + 1, complex(hi + 1, -0.0)):
                with pytest.raises(FreeBetaError,
                                   match="off the real axis, got z = "):
                    cauchy_eval(fam, x)

    def test_symmetric_square_identity(self):
        rng = random.Random(77)
        for m in (2, 10):
            t, square = FreeT(m), FreeF(1, m)
            for _ in range(20):
                z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
                lhs = cauchy_eval(t, z)
                rhs = z * cauchy_eval(square, z * z)
                assert abs(lhs - rhs) < 1e-12


def _dec(x: Fraction) -> Decimal:
    return Decimal(x.numerator) / Decimal(x.denominator)


# Laws whose edge (0 lower, 1 upper) subtracts nearly equal roots, and that
# edge in decimal arithmetic.
_CANCELLING_EDGES = [
    pytest.param(FreePoisson(1 - F(1, 10 ** 8)), 0,
                 lambda f: (1 - _dec(f.lam).sqrt()) ** 2, id="fp"),
    pytest.param(FreeBeta(1 + F(1, 10 ** 8), 2), 0,
                 lambda f: ((_dec(f.a * (f.a + f.b - 1)).sqrt()
                             - _dec(f.b).sqrt()) / _dec(f.a + f.b)) ** 2,
                 id="fb"),
    pytest.param(FreeBetaPrime(F(3, 2), 1 + F(1, 10 ** 6)), 0,
                 lambda f: ((_dec(f.a * f.b).sqrt()
                             - _dec(f.a + f.b - 1).sqrt())
                            / _dec(f.b - 1)) ** 2,
                 id="fbp"),
    pytest.param(FreeMeixnerStd(3, F(5, 4) - F(1, 10 ** 8)), 0,
                 lambda f: _dec(f.theta) - 2 * _dec(1 + f.tau).sqrt(),
                 id="meixner-lower"),
    pytest.param(FreeMeixnerStd(-3, F(5, 4) - F(1, 10 ** 8)), 1,
                 lambda f: _dec(f.theta) + 2 * _dec(1 + f.tau).sqrt(),
                 id="meixner-upper"),
]


class TestSupportAndMeasure:
    @pytest.mark.parametrize("fam, side, edge", _CANCELLING_EDGES)
    def test_edge_keeps_its_digits_near_cancellation(self, fam, side, edge):
        # the float difference of the roots lost 8 digits at these laws
        with localcontext() as ctx:
            ctx.prec = 60
            want = float(edge(fam))
        assert abs(support_of(fam)[side] - want) <= 1e-14 * abs(want)

    def test_fbp_endpoints(self):
        lo, hi = support_of(FreeBetaPrime(2, 3))
        # ((sqrt(ab) +- sqrt(a+b-1)) / (b-1))^2 with a=2, b=3
        want_lo = ((math.sqrt(6) - 2) / 2) ** 2
        want_hi = ((math.sqrt(6) + 2) / 2) ** 2
        assert abs(lo - want_lo) < 1e-12 and abs(hi - want_hi) < 1e-12

    def test_free_f_support_is_dilated(self):
        # the edges agree to 2 ulps at worst
        for fam in _FREE_F_LAWS:
            c = float(fam.b) / float(fam.a)
            got = support_of(fam)
            want = [c * edge
                    for edge in support_of(FreeBetaPrime(fam.a, fam.b))]
            assert all(abs(g - w) <= 1e-15 * w
                       for g, w in zip(got, want)), fam

    @pytest.mark.parametrize("fam", _FREE_F_LAWS, ids=repr)
    def test_free_f_measure_is_dilated(self, fam):
        c = float(fam.a) / float(fam.b)
        base = measure_of(FreeBetaPrime(fam.a, fam.b))
        spec = measure_of(fam)
        assert spec.atoms == base.atoms
        lo, hi = spec.support
        for k in range(1, 21):
            x = lo + (hi - lo) * k / 21
            want = c * base.density(c * x)
            assert spec.density(x) == pytest.approx(
                want, rel=_density_tolerance(fam, x), abs=0)

    @pytest.mark.parametrize("fam", _IFP_LAWS, ids=repr)
    def test_inverse_free_poisson_measure_is_the_reciprocal(self, fam):
        base = measure_of(FreePoisson(fam.b))
        spec = measure_of(fam)
        assert spec.atoms == ()
        lo, hi = spec.support
        want_lo, want_hi = 1 / base.support[1], 1 / base.support[0]
        assert abs(lo - want_lo) <= 1e-15 * want_lo
        assert abs(hi - want_hi) <= 1e-15 * want_hi
        for k in range(1, 21):
            x = lo + (hi - lo) * k / 21
            want = base.density(1 / x) / (x * x)
            assert spec.density(x) == pytest.approx(
                want, rel=_density_tolerance(fam, x), abs=0)

    def test_free_t_support(self):
        lo, hi = support_of(FreeT(2))
        assert (lo, hi) == (-4.0, 4.0)

    def test_free_beta_support_inside_unit_interval(self):
        lo, hi = support_of(FreeBeta(2, 2))
        assert 0 < lo < hi < 1

    def test_atoms(self):
        assert measure_of(FreePoisson(F(1, 2))).atoms == ((0.0, 0.5),)
        assert measure_of(FreePoisson(2)).atoms == ()
        fb = measure_of(FreeBeta(F(1, 2), F(3, 4)))
        assert dict(fb.atoms) == pytest.approx({0.0: 0.5, 1.0: 0.25})
        assert measure_of(FreeT(2)).atoms == ()

    @pytest.mark.parametrize("fam, exact", [
        (FreePoisson(1 - F(1, 10**6)), [F(1, 10**6)]),
        (FreeBetaPrime(1 - F(1, 10**6), 3), [F(1, 10**6)]),
        (FreeF(F(4, 5), 24), [F(1, 5)]),
        (FreeBeta(1 - F(1, 10**6), 1 - F(1, 10**7)),
         [F(1, 10**6), F(1, 10**7)]),
        (FreeBeta(F(4, 5), 24), [F(1, 5)]),
    ], ids=["fp", "fbp", "ff", "fb", "fb-4/5"])
    def test_atom_masses_are_rounded_once(self, fam, exact):
        # 1 - float(a) rounds a first: FP(1 - 1e-6) read 1.0000000000287557e-06
        # and FB(4/5, 24) 0.19999999999999996
        assert [mass for _, mass in measure_of(fam).atoms] == list(
            map(float, exact))

    @pytest.mark.parametrize("theta,tau", [(2.0, 1.0), (4.0, 4.0),
                                           (0.1, 0.0025), (0.2, 0.01)])
    def test_free_gamma_double_pole_has_no_atom(self, theta, tau):
        # theta^2 = 4 tau: Q has a double root outside the support (in the
        # last two only up to the rounding of the decimals to binary, which
        # splits the root but must not leave an atom)
        fam = FreeMeixnerStd(theta, tau)
        assert measure_of(fam).atoms == ()
        assert atom_masses(fam) == []

    @pytest.mark.parametrize("theta,tau,pole", [
        (F(1, 5), F(1, 100), -10.0), (F(1, 10), F(1, 400), -20.0),
        (F(-3), F(9, 4), 2 / 3)])
    def test_free_gamma_double_pole_is_one_pole(self, theta, tau, pole):
        # decided on the exact parameters: 0.2 and 0.01 as floats split it
        # at -10.00000013 and -9.99999987
        fam = FreeMeixnerStd(theta, tau)
        assert fam._poles() == (pole,)
        assert measure_of(fam).atoms == ()
        assert atom_masses(fam) == []

    def test_meixner_poles(self):
        # tau z^2 + theta z + 1: a simple root at tau = 0, two roots when
        # theta^2 > 4 tau, none when theta^2 < 4 tau or theta = tau = 0
        assert FreeMeixnerStd(2, 0)._poles() == (-0.5,)
        assert FreeMeixnerStd(F(1, 3), 0)._poles() == (-3.0,)
        assert FreeMeixnerStd(0, 0)._poles() == ()
        assert FreeMeixnerStd(3, 2)._poles() == (-1.0, -0.5)
        assert FreeMeixnerStd(F(1, 2), F(1, 4))._poles() == ()
        assert all(type(x) is float for x in FreeMeixnerStd(1, 0)._poles())

    def test_density_positive_inside_support(self):
        for fam in ALL_FAMILIES:
            spec = measure_of(fam)
            lo, hi = spec.support
            for k in range(1, 10):
                x = lo + (hi - lo) * k / 10
                assert spec.density(x) > 0, f"{fam} at {x}"

    def test_density_vanishes_outside(self):
        spec = measure_of(FreeBetaPrime(2, 3))
        lo, hi = spec.support
        assert spec.density(lo - 0.1) == 0.0
        assert spec.density(hi + 0.1) == 0.0

    @pytest.mark.parametrize("fam", [
        InverseFreePoisson(10 ** 300), InverseFreePoisson(10 ** 40),
        FreePoisson(10 ** 300),
    ], ids=["ifp-1e300", "ifp-1e40", "fp-1e300"])
    def test_support_narrower_than_its_rounding_is_refused(self, fam):
        # the edges meet or cross, and no atom holds the mass they lose
        lo, hi = support_of(fam)
        assert not lo < hi
        with pytest.raises(FreeBetaError, match="narrower than float"):
            measure_of(fam)

    @pytest.mark.parametrize("fam", [
        FreeBeta(3, F("1e-300")), FreeBetaPrime(F("1e-300"), 10 ** 300),
        FreeMeixnerStd(0, -1), FreeMeixnerStd(F(-69, 7), -1),
    ], ids=["fb-3-1e-300", "fbp-1e-300-1e300", "meixner-0", "meixner-69/7"])
    def test_edges_that_meet_keep_atoms_that_hold_the_mass(self, fam):
        # the two Meixner atoms at theta = -69/7 sum to 2 ulps under 1
        spec = measure_of(fam)
        lo, hi = spec.support
        assert not lo < hi
        assert sum(mass for _, mass in spec.atoms) == pytest.approx(
            1, rel=0, abs=1e-15)

    @pytest.mark.parametrize("a", [F(1, 2), F(1), F(2)])
    def test_free_beta_prime_next_to_one_has_unit_mass(self, a):
        # b - 1 taken in floats put the mass at 1 + 4e-5 to 1 + 9e-5; the
        # Cauchy pieces and the density each carry it
        fam = FreeBetaPrime(a, F("1.000000000001"))
        spec = measure_of(fam)
        assert quadrature_moment(spec, 0) == pytest.approx(1, abs=1e-9)
        for x in (0.5, 1.0, 2.0, 10.0):
            assert stieltjes_density(fam, x) == pytest.approx(
                spec.density(x), rel=1e-9)

    @pytest.mark.parametrize("m", [F("1.000000000001"),
                                   F("1.0000000000000001")])
    def test_free_t_next_to_one_density(self, m):
        # at x = m/(m - 1), half the edge, ratio * x = 1, so the density is
        # sqrt(3) / (2 pi (1 + m/(m - 1)^2)); m - 1 in floats was 9e-5 off
        # at the first m and 0 at the second
        fam = FreeT(m)
        x = support_of(fam)[1] / 2
        assert x == float(m / (m - 1))
        want = math.sqrt(3) / (2 * math.pi * float(1 + m / (m - 1) ** 2))
        assert measure_of(fam).density(x) == pytest.approx(
            want, rel=1e-12, abs=0)
        assert stieltjes_density(fam, x) == pytest.approx(
            want, rel=1e-9, abs=0)

    def test_density_matches_stieltjes_inversion(self):
        fam = FreeBetaPrime(2, 3)
        spec = measure_of(fam)
        for x in (1.0, 2.0, 3.0):
            g = cauchy_eval(fam, complex(x, 1e-9))
            assert abs(spec.density(x) + g.imag / math.pi) < 1e-6


class TestMomentSeries:
    def test_fbp_matches_ncl(self):
        for a, b in [(F(2), F(3)), (F(1, 2), F(2)), (F(3), F(3, 2))]:
            m = moment_series(FreeBetaPrime(a, b), 8)
            assert m.moments == fbp_moment(a, b, 8)

    def test_poisson_low_moments(self):
        lam = F(3, 2)
        m = moment_series(FreePoisson(lam), 3)
        assert m[1] == lam
        assert m[2] == lam + lam ** 2
        assert m[3] == lam + 3 * lam ** 2 + lam ** 3

    def test_inverse_poisson_mean(self):
        for b in (F(2), F(3), F(7, 2)):
            m = moment_series(InverseFreePoisson(b), 2)
            assert m[1] == 1 / (b - 1)
            assert m[2] == b / (b - 1) ** 3

    def test_free_f_scaling(self):
        # the series-level dilation checks the substitution w -> (b/a) w
        for fam in _FREE_F_LAWS:
            base = moment_series(FreeBetaPrime(fam.a, fam.b), 24)
            mf = moment_series(fam, 24)
            c = fam.b / fam.a
            assert all(mf[k] == c ** k * base[k] for k in range(25)), fam

    def test_free_t_odd_moments_vanish(self):
        # the series-level square checks the substitution w -> m w^2
        for m in (2, 3, F(3, 2), F(7, 3), 10, 1 + F(1, 10 ** 12)):
            mt = moment_series(FreeT(m), 24)
            assert all(mt[k] == 0 for k in range(1, 25, 2)), m
            # even moments come from the squared variable
            half = moment_series(FreeBetaPrime(1, m), 12)
            assert all(mt[2 * k] == F(m) ** k * half[k] for k in range(13))

    def test_free_beta_mean(self):
        for a, b in [(F(2), F(2)), (F(1, 2), F(3, 4))]:
            m = moment_series(FreeBeta(a, b), 1)
            assert m[1] == a / (a + b)

    @pytest.mark.parametrize("theta, tau", _MEIXNER_LAWS, ids=str)
    def test_meixner_matches_jacobi_path_sum(self, theta, tau):
        # the standardized law's Jacobi bands: a = (0, theta, theta, ...),
        # b = (1, 1 + tau, 1 + tau, ...)
        theta, tau = F(theta), F(tau)
        want = cf_expand((F(0),) + (theta,) * 6, (F(1),) + (1 + tau,) * 5, 12)
        assert moment_series(FreeMeixnerStd(theta, tau), 12).moments == (
            want.coefficients)

    @pytest.mark.parametrize("theta, tau", _MEIXNER_LAWS, ids=str)
    def test_meixner_moments_match_quadrature(self, theta, tau):
        # the float density and atoms against the exact moments; the worst
        # honest relative deviation seen is 1.1e-14
        fam = FreeMeixnerStd(theta, tau)
        exact, spec = moment_series(fam, 6), measure_of(fam)
        for k in range(7):
            assert quadrature_moment(spec, k) == pytest.approx(
                float(exact[k]), rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("order", range(4))
    def test_length_is_order_plus_one(self, order):
        for cls in _FAMILIES.values():
            fam = cls(**{f.name: _PARAMS[f.name] for f in fields(cls)})
            assert len(moment_series(fam, order).moments) == order + 1, fam

    @pytest.mark.parametrize("family, edges, lead, linear, denominator", [
        # G = (z + 1-lam - sqrt((z-e-)(z-e+))) / (2z),
        # e+- = (1 +- sqrt(lam))^2, at lam = 2
        (FreePoisson(2), ("(1 - sqrt(2))**2", "(1 + sqrt(2))**2"), 1, (1, -1),
         lambda z: 2 * z),
        # G = ((b+1)z - 1 - (b-1) sqrt((z-e-)(z-e+))) / (2z^2),
        # e+- = ((sqrt(b) +- 1) / (b-1))^2, at b = 3
        (InverseFreePoisson(3), ("((sqrt(3) - 1)/2)**2",
                                 "((sqrt(3) + 1)/2)**2"), 2, (4, -1),
         lambda z: 2 * z * z),
        # G = ((b+1)z + 1-a - (b-1) sqrt((z-e-)(z-e+))) / (2z(1+z)),
        # e+- = ((sqrt(ab) +- sqrt(a+b-1)) / (b-1))^2, at a, b = 2, 3
        (FreeBetaPrime(2, 3), ("((sqrt(6) - 2)/2)**2", "((sqrt(6) + 2)/2)**2"),
         2, (4, -1), lambda z: 2 * z * (1 + z)),
        # G = ((b+1)z + (1-a)r - (b-1) sqrt((z-e-)(z-e+))) / (2z(z+r)),
        # r = b/a, e+- = r((sqrt(ab) +- sqrt(a+b-1)) / (b-1))^2, at a, b = 2, 3
        (FreeF(2, 3), ("3/2*((sqrt(6) - 2)/2)**2", "3/2*((sqrt(6) + 2)/2)**2"),
         2, (4, "-3/2"), lambda z: z * (2 * z + 3)),
        # G = ((m+1)z - (m-1) sqrt((z-e-)(z-e+))) / (2(m + z^2)),
        # e+- = +-2m/(m-1), at m = 3
        (FreeT(3), ("-3", "3"), 2, (4, 0), lambda z: 2 * (3 + z * z)),
        # G = ((a+b-2)z + 1-a - (a+b) sqrt((z-e-)(z-e+))) / (2z(1-z)),
        # e+- = ((sqrt(a(a+b-1)) +- sqrt(b)) / (a+b))^2, at a, b = 2, 2
        (FreeBeta(2, 2), ("((sqrt(6) - sqrt(2))/4)**2",
                          "((sqrt(6) + sqrt(2))/4)**2"), 4, (2, -1),
         lambda z: 2 * z * (1 - z)),
        # G = ((1+2tau)z + theta - sqrt((z-e-)(z-e+))) / (2(tau z^2 + theta z
        # + 1)), e+- = theta +- 2 sqrt(1+tau), at theta, tau = 1, 1/2
        (FreeMeixnerStd(1, F(1, 2)), ("1 - sqrt(6)", "1 + sqrt(6)"), 1,
         (2, 1), lambda z: z * z + 2 * z + 2),
    ], ids=["fp(2)", "ifp(3)", "fbp(2,3)", "ff(2,3)", "ft(3)", "fb(2,2)",
            "meixner(1,1/2)"])
    def test_matches_sympy_expansion_at_infinity(
            self, family, edges, lead, linear, denominator):
        """Series-expand the closed Cauchy transform with sympy: G(z) =
        sum_n m_n z^-(n+1), so m_n is the w^(n+1) coefficient of G(1/w)."""
        sp = pytest.importorskip("sympy")
        order = 16
        w = sp.symbols("w", positive=True)
        e_minus, e_plus = map(sp.sympify, edges)
        linear = tuple(map(sp.sympify, linear))
        # for w > 0, sqrt(1/w - e-) sqrt(1/w - e+) = sqrt(quad(w)) / w
        quad = sp.Poly(sp.expand((1 - e_minus * w) * (1 - e_plus * w)), w)
        radicand = sum(sp.expand(c) * w ** k for (k,), c in quad.terms())
        z = 1 / w
        g = (linear[0] * z + linear[1] - lead * sp.sqrt(radicand) / w) / (
            denominator(z))
        expansion = sp.series(g, w, 0, order + 2).removeO()
        got = [sp.expand(expansion.coeff(w, n + 1)) for n in range(order + 1)]
        assert all(c.is_Rational for c in got)
        assert [F(int(c.p), int(c.q)) for c in got] == list(
            moment_series(family, order).moments)


class TestSTransforms:
    def test_closed_form_matches_moment_route(self):
        fbp = _poly(6, 2, -1) / _poly(6, 2, 1)  # (b - 1 - z)/(a + z)
        closed = {
            FreePoisson(2): _poly(6, 1) / _poly(6, 2, 1),  # 1/(lam + z)
            InverseFreePoisson(3): _poly(6, 2, -1),  # b - 1 - z
            FreeBetaPrime(2, 3): fbp,
            FreeF(2, 3): _poly(6, F(2, 3)) * fbp,  # the dilation by b/a
        }
        for fam, want in closed.items():
            assert moments_to_s(moment_series(fam, 7)).truncate(6) == want

    def test_fbp_s_at_zero(self):
        s = moments_to_s(moment_series(FreeBetaPrime(2, 3), 5))
        assert s[0] == F(2, 2)  # (b-1)/a = 1

    def test_t_coeffs_geometric(self):
        t = t_coeffs_of(FreeBetaPrime(2, 3), 5)
        assert t.coefficients == (
            F(1), F(1), F(1, 2), F(1, 4), F(1, 8), F(1, 16))

    def test_t_coeffs_match_s_route(self):
        fam = FreeBetaPrime(F(1, 2), 2)
        via_closed = t_coeffs_of(fam, 5)
        s = moments_to_s(moment_series(fam, 6))
        via_s = PowerSeries.constant(1, s.order) / s
        assert via_closed == via_s

    def test_unsupported(self):
        # the free T law has mean 0, so it has no S-transform
        with pytest.raises(FreeBetaError, match="S-transform needs m_1 != 0"):
            moments_to_s(moment_series(FreeT(2), 4))


class TestMeixner:
    def test_reference_standardization(self):
        std = standardize_to_meixner(2, 3)
        assert std.tau == F(1, 2)
        assert std.theta_sq == F(9, 4)
        assert std.discriminant == F(1, 4)
        assert std.mean == F(1)
        assert std.variance == F(1)
        assert std.theta == pytest.approx(1.5)

    def test_discriminant_closed_form(self):
        for a in (F(1, 2), F(1), F(2), F(7, 3)):
            for b in (F(3, 2), F(2), F(3)):
                std = standardize_to_meixner(a, b)
                assert std.discriminant == (b - 1) / (a * (a + b - 1))

    def test_standardized_cauchy_transform_matches(self):
        """G of the standardized law equals the shifted/scaled fbp G."""
        a, b = F(2), F(3)
        std = standardize_to_meixner(a, b)
        fam = FreeMeixnerStd(std.theta, std.tau)
        fbp = FreeBetaPrime(a, b)
        mean, sd = float(std.mean), math.sqrt(float(std.variance))
        rng = random.Random(17)
        for _ in range(20):
            z = complex(rng.uniform(-4, 4), rng.uniform(0.2, 3))
            lhs = cauchy_eval(fam, z)
            rhs = sd * cauchy_eval(fbp, sd * z + mean)
            assert abs(lhs - rhs) < 1e-10

    def test_classification_labels(self):
        # the class of (theta^2, tau)
        assert _meixner_class(F(0), F(0)) == "semicircle"
        assert _meixner_class(F(1), F(0)) == "free Poisson"
        assert _meixner_class(F(9, 4), F(1, 2)) == "free negative binomial"
        assert _meixner_class(F(4), F(1)) == "free gamma"  # disc = 0
        assert _meixner_class(F(0), F(1)) == "pure free Meixner"
        assert _meixner_class(F(0), F(-1, 2)) == "free binomial"
        with pytest.raises(FreeBetaError, match="tau must be >= -1"):
            _meixner_class(F(0), F(-2))

    def test_fbp_is_always_free_negative_binomial(self):
        for a in (F(1, 2), F(2)):
            for b in (F(3, 2), F(3)):
                std = standardize_to_meixner(a, b)
                assert std.discriminant > 0
                label = _meixner_class(F(std.theta) ** 2, std.tau)
                assert label == "free negative binomial"
                assert std.classify() == "free negative binomial"

    @pytest.mark.parametrize("a,b", [
        (F(10 ** 6), F(10 ** 6 + 1, 10 ** 6)),
        (F(10 ** 8), 1 + F(1, 10 ** 9)),
    ])
    def test_classification_is_exact_near_zero_discriminant(self, a, b):
        std = standardize_to_meixner(a, b)
        assert 0 < std.discriminant < F(1, 10 ** 12)
        assert std.classify() == "free negative binomial"

    def test_float_inputs_are_classified_exactly(self):
        # in floats theta * theta - 4 tau rounds to 0 here; the exact
        # value of the two given floats is negative, so the law is pure
        # free Meixner and Q has no real root
        theta = math.sqrt(2)
        tau = theta * theta / 4
        assert theta * theta - 4 * tau == 0
        fam = FreeMeixnerStd(theta, tau)
        assert _meixner_class(fam.theta ** 2, fam.tau) == "pure free Meixner"
        assert fam._poles() == ()


# The CLI family keys that answer each operation; every other pair raises.
_ANSWERS = {
    "moment_series": set(_FAMILIES),
    "t_coeffs_of": {"fbp"},
    "potential_derivative": {"fbp", "ft", "fb"},
    "measure_of": set(_FAMILIES),
    "support_of": set(_FAMILIES),
    "cauchy_eval": set(_FAMILIES),
    "atom_masses": set(_FAMILIES),
}

_CALLS = {
    "moment_series": lambda f: moment_series(f, 4),
    "t_coeffs_of": lambda f: t_coeffs_of(f, 4),
    "potential_derivative": lambda f: potential_derivative(f, 0.5),
    "measure_of": measure_of,
    "support_of": support_of,
    "cauchy_eval": lambda f: cauchy_eval(f, complex(3, 1)),
    "atom_masses": atom_masses,
}

_PARAMS = {"lam": 2, "a": 2, "b": 3, "m": 2, "theta": F(3, 2), "tau": F(1, 2)}


class TestFamilyTable:
    @pytest.mark.parametrize("key", sorted(_FAMILIES))
    @pytest.mark.parametrize("op", sorted(_ANSWERS))
    def test_operation_support(self, key, op):
        cls = _FAMILIES[key]
        fam = cls(**{f.name: _PARAMS[f.name] for f in fields(cls)})
        if key in _ANSWERS[op]:
            _CALLS[op](fam)
        else:
            with pytest.raises(FreeBetaError, match=f"{cls.__name__} has no "):
                _CALLS[op](fam)

    def test_every_family_writes_its_own_pieces(self):
        # one path evaluates G and the support, from each law's own pieces
        for cls in _FAMILIES.values():
            assert "_pieces" in vars(cls), cls.__name__
        assert not hasattr(Family, "_cauchy")
        assert not hasattr(Family, "_support")

    def test_field_coercion(self):
        meixner = FreeMeixnerStd(1.5, 1)
        assert (meixner.theta, meixner.tau) == (F(3, 2), 1)
        assert {type(meixner.theta), type(meixner.tau)} == {Fraction}
        free_t = FreeT(2.5)
        assert free_t.m == Fraction(5, 2) and type(free_t.m) is Fraction


class TestDerivedOncePerInstance:
    """The closed-form parameters and base laws are built once per law."""

    LAWS = [FreePoisson(2), FreeBetaPrime(2, 3), FreeT(3), FreeBeta(2, 2),
            FreeMeixnerStd(F(1, 2), F(1, 4)), FreeF(2, 3),
            InverseFreePoisson(3)]

    @staticmethod
    def evaluate(fam, times: int) -> None:
        lo, hi = support_of(fam)
        x = (lo + hi) / 2
        for k in range(times):
            cauchy_eval(fam, complex(x, 1 + k))
            support_of(fam)
            stieltjes_density(fam, x)
            hilbert_score(fam, x)

    @pytest.mark.parametrize("fam", LAWS, ids=repr)
    def test_pieces_run_once(self, fam, monkeypatch):
        calls = []
        pieces = type(fam)._pieces

        def counted(self):
            calls.append(self)
            return pieces(self)

        monkeypatch.setattr(type(fam), "_pieces", counted)
        fresh = replace(fam)
        self.evaluate(fresh, 100)
        measure_of(fresh)
        assert calls == [fresh]

    @pytest.mark.parametrize("fam", LAWS[5:], ids=repr)
    def test_delegated_base_is_built_once(self, fam, monkeypatch):
        self.evaluate(fam, 1)
        built = []
        post_init = Family.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(Family, "__post_init__", counted)
        self.evaluate(fam, 100)
        measure_of(fam)
        assert built == []

    @pytest.mark.parametrize("fam", LAWS, ids=repr)
    def test_identity_ignores_the_derived_state(self, fam):
        self.evaluate(fam, 1)
        fresh = replace(fam)
        assert repr(fam) == repr(fresh)
        assert fam == fresh and hash(fam) == hash(fresh)
        thawed = pickle.loads(pickle.dumps(fam))
        assert thawed == fam and vars(thawed) == vars(fresh)
        assert cauchy_eval(thawed, 5j) == cauchy_eval(fam, 5j)

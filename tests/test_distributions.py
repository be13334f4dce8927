"""Tests for the distribution families: Cauchy transforms, measures, moments."""

import cmath
import math
import pickle
import random
from dataclasses import fields, replace
from fractions import Fraction

import pytest

from freebeta.analysis import (
    atom_masses,
    hilbert_score,
    potential_derivative,
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
from freebeta.series import PowerSeries, _poly
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
        # G(z) = (z - sqrt(z^2 - 4z)) / (2z) for rate 1, at z = 8
        got = cauchy_eval(FreePoisson(1), 8.0)
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
            assert abs(cauchy_eval(fam, z) - series) < tol

    def test_dilation_law(self):
        """G of the free F is the rescaled G of the free beta prime."""
        a, b = F(2), F(3)
        c = a / b
        rng = random.Random(31)
        for _ in range(20):
            z = complex(rng.uniform(-5, 5), rng.uniform(0.1, 3))
            lhs = cauchy_eval(FreeF(a, b), z)
            rhs = c * cauchy_eval(FreeBetaPrime(a, b), c * z)
            assert abs(lhs - rhs) < 1e-13

    def test_on_support_raises(self):
        fam = FreeBetaPrime(2, 3)
        lo, hi = support_of(fam)
        with pytest.raises(FreeBetaError, match="lies on the support"):
            cauchy_eval(fam, (lo + hi) / 2)
        with pytest.raises(FreeBetaError, match="is an atom/pole location"):
            cauchy_eval(FreePoisson(2), 0.0)  # pole at the origin

    def test_real_axis_outside_support(self):
        fam = FreeBetaPrime(2, 3)
        g = cauchy_eval(fam, 0.02)  # between the atom location and the cut
        assert isinstance(g, (float, complex))
        assert complex(g).imag == 0
        assert cauchy_eval(fam, -3.0).imag == 0

    def test_symmetric_square_identity(self):
        rng = random.Random(77)
        for m in (2, 10):
            t, square = FreeT(m), FreeF(1, m)
            for _ in range(20):
                z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
                lhs = cauchy_eval(t, z)
                rhs = z * cauchy_eval(square, z * z)
                assert abs(lhs - rhs) < 1e-12


class TestSupportAndMeasure:
    def test_fbp_endpoints(self):
        lo, hi = support_of(FreeBetaPrime(2, 3))
        # ((sqrt(ab) +- sqrt(a+b-1)) / (b-1))^2 with a=2, b=3
        want_lo = ((math.sqrt(6) - 2) / 2) ** 2
        want_hi = ((math.sqrt(6) + 2) / 2) ** 2
        assert abs(lo - want_lo) < 1e-12 and abs(hi - want_hi) < 1e-12

    def test_free_f_support_is_dilated(self):
        lo, hi = support_of(FreeBetaPrime(2, 3))
        flo, fhi = support_of(FreeF(2, 3))
        c = 3 / 2
        assert abs(flo - c * lo) < 1e-12 and abs(fhi - c * hi) < 1e-12

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
            for n in range(1, 9):
                assert m[n] == fbp_moment(a, b, n)

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
        base = moment_series(FreeBetaPrime(2, 3), 6)
        mf = moment_series(FreeF(2, 3), 6)
        c = F(3, 2)
        assert all(mf[k] == c ** k * base[k] for k in range(7))

    def test_free_t_odd_moments_vanish(self):
        m = moment_series(FreeT(2), 8)
        assert all(m[k] == 0 for k in (1, 3, 5, 7))
        # even moments come from the squared variable
        half = moment_series(FreeBetaPrime(1, 2), 4)
        assert all(m[2 * k] == F(2) ** k * half[k] for k in range(5))

    def test_free_beta_mean(self):
        for a, b in [(F(2), F(2)), (F(1, 2), F(3, 4))]:
            m = moment_series(FreeBeta(a, b), 1)
            assert m[1] == a / (a + b)

    def test_meixner_not_supported(self):
        with pytest.raises(FreeBetaError,
                           match="FreeMeixnerStd has no exact moment series"):
            moment_series(FreeMeixnerStd(1, F(1, 2)), 4)

    @pytest.mark.parametrize("family, edge_roots, lead, linear, denominator", [
        # G = ((b+1)z + 1-a - (b-1) sqrt((z-e-)(z-e+))) / (2z(1+z)),
        # e+- = ((sqrt(ab) +- sqrt(a+b-1)) / (b-1))^2, at a, b = 2, 3
        (FreeBetaPrime(2, 3), ("sqrt(6)", "2", "2"), 2, (4, -1),
         lambda z: 2 * z * (1 + z)),
        # G = ((a+b-2)z + 1-a - (a+b) sqrt((z-e-)(z-e+))) / (2z(1-z)),
        # e+- = ((sqrt(a(a+b-1)) +- sqrt(b)) / (a+b))^2, at a, b = 2, 2
        (FreeBeta(2, 2), ("sqrt(6)", "sqrt(2)", "4"), 4, (2, -1),
         lambda z: 2 * z * (1 - z)),
    ], ids=["fbp(2,3)", "fb(2,2)"])
    def test_matches_sympy_expansion_at_infinity(
            self, family, edge_roots, lead, linear, denominator):
        """Series-expand the closed Cauchy transform with sympy: G(z) =
        sum_n m_n z^-(n+1), so m_n is the w^(n+1) coefficient of G(1/w)."""
        sp = pytest.importorskip("sympy")
        order = 16
        w = sp.symbols("w", positive=True)
        ra, rb, den = map(sp.sympify, edge_roots)
        e_minus, e_plus = ((ra - rb) / den) ** 2, ((ra + rb) / den) ** 2
        # for w > 0, sqrt(1/w - e-) sqrt(1/w - e+) = sqrt(edges(w)) / w
        edges = sp.Poly(sp.expand((1 - e_minus * w) * (1 - e_plus * w)), w)
        radicand = sum(sp.expand(c) * w ** k for (k,), c in edges.terms())
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
            FreeF(2, 3): fbp.scale(F(2, 3)),  # the dilation by b/a
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
    "moment_series": {"fp", "ifp", "fbp", "ff", "ft", "fb"},
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

    @pytest.mark.parametrize("fam", LAWS[:5], ids=repr)
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

"""Tests for exact-rational formal power series and continued fractions."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freebeta.distributions import (
    FreeBetaPrime,
    FreePoisson,
    InverseFreePoisson,
    moment_series,
)
from freebeta.errors import FreeBetaError
from freebeta.fock import fbp_operator, vacuum_moments
from freebeta.ncl import gamma_quadratic_residual, gamma_series
from freebeta.series import (
    PowerSeries,
    _poly,
    _quadratic_root,
    cf_expand,
    ps_reversion,
)
from freebeta.verification import _FBP_PARAMS

F = Fraction


def poly(*coeffs):
    return PowerSeries([F(c) for c in coeffs])


def z_series(order):
    """The series z at the given order (>= 1)."""
    return poly(0, 1).pad(order)


# Horner composition: no route of the package composes series; it is the
# independent check that ps_reversion's Lagrange inversion undoes f.
def ps_compose(outer: PowerSeries, inner: PowerSeries) -> PowerSeries:
    """Compose ``outer(inner(z))`` exactly to the minimum order."""
    if inner.coefficients[0] != 0:
        raise FreeBetaError("composition needs an inner series vanishing at 0")
    n = min(outer.order, inner.order)
    inner = inner.truncate(n)
    acc = PowerSeries.constant(outer[min(n, outer.order)], n)
    # Horner evaluation from the highest retained coefficient down.
    for k in range(n - 1, -1, -1):
        acc = acc * inner + PowerSeries.constant(outer[k], n)
    return acc


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def series_strategy(min_order=0, max_order=6):
    return st.lists(
        small_fracs, min_size=min_order + 1, max_size=max_order + 1
    ).map(PowerSeries)


# Oracles: plain Fraction recursions, one reduction per term product.

def plain_product(a, b):
    """c_k = sum_i a_i b_(k-i), one Fraction product per term."""
    n = min(a.order, b.order)
    return PowerSeries(tuple(
        sum((a[i] * b[k - i] for i in range(k + 1)), F(0))
        for k in range(n + 1)))


def long_division(a, b):
    """q_k = (a_k - sum_i b_i q_(k-i)) / b_0 term by term."""
    n = min(a.order, b.order)
    out = []
    for k in range(n + 1):
        acc = a[k]
        for i in range(1, k + 1):
            acc -= b[i] * out[k - i]
        out.append(acc / b[0])
    return PowerSeries(tuple(out))


def plain_sqrt(f, branch=1):
    """g_k = (f_k - sum_(0<i<k) g_i g_(k-i)) / (2 g_0) term by term."""
    g0 = F(math.isqrt(f[0].numerator), math.isqrt(f[0].denominator))
    out = [g0 if branch > 0 else -g0]
    for k in range(1, f.order + 1):
        acc = f[k]
        for i in range(1, k):
            acc -= out[i] * out[k - i]
        out.append(acc / (2 * out[0]))
    return PowerSeries(tuple(out))


def lagrange_reversion(f):
    """g_k = [z^(k-1)] phi^k / k, phi = z/f, with phi^k = phi^(k-1) * phi
    one Fraction product after another."""
    n = f.order
    phi = long_division(PowerSeries.constant(1, n - 1), f.shift_down())
    power = phi
    out = [F(0), phi[0]]
    for k in range(2, n + 1):
        power = plain_product(power, phi)
        out.append(power[k - 1] / k)
    return PowerSeries(tuple(out))


def nested_cf(diagonal, products, order):
    """The continued fraction by one series division per level."""
    one = PowerSeries.constant(1, order)
    if order == 0:
        return one
    z = z_series(order)
    tail = long_division(one, one - z.scale(diagonal[-1]))
    for i in range(len(diagonal) - 2, -1, -1):
        t = one - z.scale(diagonal[i])
        tail = long_division(
            one, t - PowerSeries((0, 0) + tail.coefficients[:-2]).scale(
                products[i]))
    return tail


# Rationals of either sign, small or with 15-digit denominators, and zeros.
nonzero_fracs = st.builds(
    lambda sign, q: sign * q,
    st.sampled_from([1, -1]),
    st.builds(F, st.integers(1, 24), st.integers(1, 6))
    | st.builds(F, st.integers(1, 10 ** 15), st.integers(1, 10 ** 15)),
)
wide_fracs = st.just(F(0)) | small_fracs | nonzero_fracs
wide_series = st.lists(wide_fracs, min_size=1, max_size=13).map(
    PowerSeries)
# Mostly nonzero, so that weighted paths reach the deepest levels.
cf_weights = st.one_of(nonzero_fracs, nonzero_fracs, nonzero_fracs,
                       st.just(F(0)))


@st.composite
def zero_tailed(draw, coeffs, max_degree=2, max_order=12):
    """A polynomial of degree <= max_degree padded with zeros to an order
    up to max_order: the operand whose zero tail a product drops."""
    head = draw(st.lists(coeffs, min_size=1, max_size=max_degree + 1))
    order = draw(st.integers(len(head) - 1, max_order))
    return PowerSeries(head + [F(0)] * (order + 1 - len(head)))


@st.composite
def divisors(draw, max_order=12):
    """Nonzero constant term (either sign), then mostly zeros, or a
    polynomial of degree 0, 1 or 2 padded with zeros."""
    degree = draw(st.sampled_from([None, 0, 1, 2]))
    if degree is None:
        rest = draw(st.lists(
            st.one_of(st.just(F(0)), st.just(F(0)), wide_fracs),
            max_size=max_order,
        ))
    else:
        order = draw(st.integers(degree, max_order))
        rest = [draw(nonzero_fracs) for _ in range(degree)]
        rest += [F(0)] * (order - degree)
    return PowerSeries([draw(nonzero_fracs)] + rest)


# Numerators: wide, zero-tailed, or zero throughout.
numerators = st.one_of(
    wide_series, zero_tailed(wide_fracs),
    st.integers(0, 12).map(lambda n: PowerSeries([F(0)] * (n + 1))))
# Rationals of either sign with 65-bit parts, as 2^64 + 1 has, and zeros.
big_fracs = st.builds(
    F, st.integers(-2 ** 65, 2 ** 65), st.integers(2 ** 64, 2 ** 65))
reversion_fracs = st.one_of(st.just(F(0)), small_fracs, big_fracs)


@st.composite
def revertible(draw, max_order=32):
    """f(0) = 0 and f'(0) != 0, to an order up to max_order."""
    f1 = draw(nonzero_fracs | big_fracs.filter(bool))
    rest = draw(st.lists(reversion_fracs, max_size=max_order - 1))
    return PowerSeries([F(0), f1] + rest)


# Zeros, small rationals and wide ones of either sign, and 65-bit parts.
part_fracs = st.one_of(st.just(F(0)), small_fracs, nonzero_fracs, big_fracs)


@st.composite
def part_series(draw, max_order=10):
    """A series of part_fracs, sometimes with a zero tail."""
    head = draw(st.lists(part_fracs, min_size=1, max_size=max_order + 1))
    return PowerSeries(head + [F(0)] * draw(st.integers(0, 3)))


def termwise(op, *series):
    """The Fraction oracle of a termwise operation, to the minimum order."""
    n = min(s.order for s in series)
    return PowerSeries(tuple(op(*(s[k] for s in series))
                             for k in range(n + 1)))


def assert_canonical(s):
    """Integer numerators over a positive denominator with no common
    content, whose Fractions, built or handed over, are nums[k] / den."""
    assert all(type(x) is int for x in s.nums) and type(s.den) is int
    assert s.den > 0 and math.gcd(s.den, *s.nums) == 1
    assert s.coefficients == tuple(F(x, s.den) for x in s.nums)


def assert_same(got, want):
    assert_canonical(got)
    assert got == want and hash(got) == hash(want)
    assert got.coefficients == want.coefficients


class TestRepresentation:
    """A series is (nums, den) in canonical form after every operation, so
    equal values compare and hash equal however they were built."""

    def test_floats_and_empty_series_are_refused(self):
        for coeffs in ([0.5], [1, 2, 0.25], (F(1), 1.0)):
            with pytest.raises(TypeError, match="not floats"):
                PowerSeries(coeffs)
        for coeffs in ([], (), iter([])):
            with pytest.raises(ValueError, match="constant term"):
                PowerSeries(coeffs)

    def test_constructor_takes_ints_strings_fractions_and_iterators(self):
        want = PowerSeries([F(1, 2), F(0), F(-3)])
        for coeffs in (["1/2", 0, -3], ("0.5", "0", "-3"),
                       (F(x) for x in ("1/2", "0", "-3"))):
            assert_same(PowerSeries(coeffs), want)
        assert (want.nums, want.den) == ((1, 0, -6), 2)
        assert PowerSeries([1]) != PowerSeries([1, 0])
        assert PowerSeries([0, 0]).den == 1

    @settings(max_examples=150, deadline=None)
    @given(part_series(), part_series(), part_fracs)
    def test_termwise_operations_match_fractions(self, a, b, c):
        assert_same(a + b, termwise(lambda x, y: x + y, a, b))
        assert_same(a - b, termwise(lambda x, y: x - y, a, b))
        assert_same(a - a, PowerSeries.constant(0, a.order))
        assert_same(a.scale(c), termwise(lambda x: c * x, a))
        assert_same(a.truncate(0), PowerSeries([a[0]]))
        assert_same(a.pad(a.order + 2), PowerSeries(a.coefficients + (0, 0)))
        assert_same(a.shift_up(), PowerSeries((0,) + a.coefficients))
        if a.order and a[0] == 0:
            assert_same(a.shift_down(), PowerSeries(a.coefficients[1:]))
        # the same operations on a fresh product, which holds no Fractions
        assert_same(a * b - a, termwise(lambda x, y: x - y, a * b, a))
        assert_same((a * b).scale(c), termwise(lambda x: c * x, a * b))
        assert_same((a * b).truncate(0), PowerSeries([(a * b)[0]]))

    @settings(max_examples=150, deadline=None)
    @given(part_series(), part_series(), part_fracs.filter(bool))
    def test_products_and_quotients_match_fractions(self, a, b, b0):
        assert_same(a * b, plain_product(a, b))
        divisor = PowerSeries((b0,) + b.coefficients[1:])
        assert_same(a / divisor, long_division(a, divisor))
        assert_same((a * b) / divisor, long_division(a * b, divisor))

    @settings(max_examples=100, deadline=None)
    @given(part_fracs.filter(bool), part_series(max_order=12))
    def test_sqrt_and_reversion_match_fractions(self, c0, tail):
        # the quadratic solve of M^2 - f / c0^2 = 0 with M(0) = 1: the
        # square root of f over |c0|
        f = PowerSeries((c0 * c0,) + tail.coefficients)
        c = tuple(-x / f[0] for x in f.coefficients)
        assert_same(_quadratic_root((1,), (0,), c, f.order), PowerSeries(
            x / abs(c0) for x in plain_sqrt(f).coefficients))
        g = PowerSeries((0, c0) + tail.coefficients)
        assert_same(ps_reversion(g), lagrange_reversion(g))

    @given(part_series(), part_series())
    def test_equal_values_built_apart_hash_equal(self, a, b):
        n = min(a.order, b.order)
        seen = {a.truncate(n), (a + b) - b, b + (a - b), (a - b) + b}
        assert seen == {a.truncate(n)}
        one = PowerSeries.constant(1, a.order)
        assert len({a.scale(2).scale(F(1, 2)), a * one, a / one,
                    PowerSeries(map(str, a.coefficients)), a}) == 1


class TestBasicArithmetic:
    def test_add_matches_termwise(self):
        a = poly(1, 2, 3)
        b = poly(4, 5, 6)
        assert (a + b).coefficients == (F(5), F(7), F(9))

    def test_sub_and_neg(self):
        a = poly(1, 2, 3)
        assert (a - a).coefficients == (F(0),) * 3
        assert a.scale(-1).coefficients == (F(-1), F(-2), F(-3))

    def test_mul_is_cauchy_product(self):
        # (1 + z)^2 = 1 + 2z + z^2
        a = poly(1, 1, 0)
        assert (a * a).coefficients == (F(1), F(2), F(1))

    def test_truncation_to_min_order(self):
        a = poly(1, 1)
        b = poly(1, 1, 1, 1)
        assert (a * b).order == 1
        assert (a + b).order == 1

    def test_geometric_series_division(self):
        one = PowerSeries.constant(1, 6)
        g = one / poly(1, -1, 0, 0, 0, 0, 0)
        assert g.coefficients == (F(1),) * 7

    def test_division_by_zero_constant_raises(self):
        with pytest.raises(FreeBetaError, match="division by a series"):
            poly(1, 1) / poly(0, 1)

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            PowerSeries([0.5, 1])

    def test_shift_and_scale(self):
        a = poly(0, 1, 2, 3)
        assert a.shift_down().coefficients == (F(1), F(2), F(3))
        assert a.scale(2).coefficients == (F(0), F(2), F(4), F(6))

    @given(
        series_strategy(max_order=8) | zero_tailed(small_fracs, 3, 8),
        st.lists(
            st.fractions(min_value=-50, max_value=50, max_denominator=30)
            | st.just(F(0)),
            min_size=1,
            max_size=9,
        ).map(PowerSeries) | zero_tailed(wide_fracs, 2, 8),
    )
    def test_mul_is_plain_fraction_convolution(self, a, b):
        assert (a * b).coefficients == plain_product(a, b).coefficients
        assert (b * a).coefficients == plain_product(a, b).coefficients

    @given(series_strategy(), series_strategy())
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(series_strategy(), series_strategy(), series_strategy())
    def test_distributivity(self, a, b, c):
        order = min(a.order, b.order, c.order)
        lhs = (a * (b + c)).truncate(order)
        rhs = (a * b + a * c).truncate(order)
        assert lhs == rhs

    @given(series_strategy())
    def test_division_inverts_multiplication(self, a):
        b = poly(*([1, 1, -2, 3, 0, 1][: a.order + 1]))
        order = min(a.order, b.order)
        assert (a * b) / b == a.truncate(order)

    @given(numerators, divisors())
    def test_division_matches_long_division(self, a, b):
        assert a / b == long_division(a, b)

    @given(wide_series, divisors())
    def test_division_undoes_any_product(self, a, b):
        order = min(a.order, b.order)
        assert (a * b) / b == a.truncate(order)

    @given(series_strategy(max_order=8), st.lists(wide_fracs, max_size=8))
    def test_zero_constant_divisor_raises(self, a, tail):
        b = PowerSeries([F(0)] + tail)
        with pytest.raises(FreeBetaError, match="division by a series"):
            a / b


class TestComposition:
    def test_compose_simple(self):
        # f(z) = 1 + z + z^2 composed with g(z) = 2z
        f = poly(1, 1, 1)
        g = poly(0, 2, 0)
        assert ps_compose(f, g).coefficients == (F(1), F(2), F(4))

    def test_compose_nonzero_constant_rejected(self):
        with pytest.raises(FreeBetaError, match="inner series vanishing at 0"):
            ps_compose(poly(1, 1), poly(1, 1))

    @given(series_strategy(min_order=1))
    def test_compose_with_identity(self, f):
        z = z_series(f.order)
        assert ps_compose(f, z) == f


class TestReversion:
    def test_reversion_of_geometric(self):
        # f = z/(1-z) has inverse g = z/(1+z)
        f = poly(0, 1, 1, 1, 1, 1, 1)
        g = ps_reversion(f)
        want = [F(0)] + [F((-1) ** (k - 1)) for k in range(1, 7)]
        assert g.coefficients == tuple(want)

    def test_reversion_requires_unit_linear_structure(self):
        with pytest.raises(FreeBetaError, match="reversion needs"):
            ps_reversion(poly(1, 1))  # nonzero constant term
        with pytest.raises(FreeBetaError, match="reversion needs"):
            ps_reversion(poly(0, 0, 1))  # vanishing linear term

    @given(series_strategy(min_order=2, max_order=6))
    def test_round_trip(self, tail):
        coeffs = (F(0), F(1)) + tail.coefficients[2:]
        f = PowerSeries(coeffs)
        g = ps_reversion(f)
        assert ps_compose(f, g) == z_series(f.order)
        assert ps_compose(g, f) == z_series(f.order)

    @pytest.mark.parametrize("order", [1, 2, 24, 32])
    @pytest.mark.parametrize(
        "family",
        [FreePoisson(2), InverseFreePoisson(3), FreeBetaPrime(F(1, 2), 2)],
    )
    def test_phi_series_round_trip(self, family, order):
        """Composition, an independent algorithm, undoes the reversion."""
        m = moment_series(family, order)
        f = PowerSeries((F(0),) + m.moments[1:])
        g = ps_reversion(f)
        z = z_series(order)
        assert ps_compose(f, g) == z
        assert ps_compose(g, f) == z

    @settings(max_examples=100, deadline=None)
    @given(revertible())
    def test_matches_fraction_lagrange_oracle(self, f):
        assert ps_reversion(f) == lagrange_reversion(f)

    @pytest.mark.parametrize(
        "a,b", _FBP_PARAMS + ((F(2), F(10 ** 20 + 1)),))
    def test_moment_series_match_the_oracle_to_order_40(self, a, b):
        """The series moments_to_s reverts, wide parameters included."""
        m = moment_series(FreeBetaPrime(a, b), 40)
        f = PowerSeries((F(0),) + m.moments[1:])
        assert ps_reversion(f) == lagrange_reversion(f)

    @given(series_strategy(min_order=2, max_order=6), small_fracs)
    def test_lagrange_inversion_oracle(self, tail, f1):
        """n * g_n equals the (n-1)-st coefficient of (z/f)^n."""
        if f1 == 0:
            f1 = F(1)
        coeffs = (F(0), f1) + tail.coefficients[2:]
        f = PowerSeries(coeffs)
        g = ps_reversion(f)
        order = f.order
        # z/f is a unit power series; raise it to the n-th power
        unit = PowerSeries.constant(1, order) / f.shift_down().pad(order)
        for n in range(1, order + 1):
            power = PowerSeries.constant(1, order)
            for _ in range(n):
                power = power * unit
            assert n * g[n] == power[n - 1]


# (A, B, C) with C(0) = B(0) - A(0), so that M(0) = 1 solves the constant
# term, and B(0) != 2 A(0), so that it is a simple root: wide coefficients,
# and polynomials padded with zeros.
@st.composite
def quadratics(draw):
    a = draw(st.lists(wide_fracs, min_size=1, max_size=3))
    b0 = draw(wide_fracs.filter(lambda x: x != 2 * a[0]))
    b = [b0] + draw(st.lists(wide_fracs, max_size=2)) + [F(0)] * draw(
        st.integers(0, 2))
    c = [b0 - a[0]] + draw(st.lists(wide_fracs, max_size=1))
    return tuple(a), tuple(b), tuple(c)


class TestQuadraticRoot:
    def test_poly_pads_and_truncates_to_its_order(self):
        assert _poly(3, 1, 2).coefficients == (1, 2, 0, 0)
        assert _poly(0, 1, 2).coefficients == (1,)

    def test_catalan_numbers(self):
        # z M^2 - M + 1 = 0 generates the Catalan numbers
        assert _quadratic_root((0, 1), (1,), (1,), 6).coefficients == (
            1, 1, 2, 5, 14, 42, 132)

    def test_catalan_numbers_on_even_powers(self):
        got = _quadratic_root((0, 0, 1), (1,), (1,), 6)
        assert got.coefficients == (1, 0, 1, 0, 2, 0, 5)

    def test_refuses_a_form_m0_does_not_solve(self):
        for abc in (((1,), (3,), (1,)),  # 1 - 3 + 1 != 0
                    ((1,), (2,), (1,))):  # the double root M = 1
            with pytest.raises(FreeBetaError, match="simple root"):
                _quadratic_root(*abc, 4)

    @settings(max_examples=150, deadline=None)
    @given(quadratics(), st.integers(0, 12))
    def test_solves_its_quadratic(self, abc, order):
        # A M M - B M + C vanishes, and B - 2 A M is the square root of
        # B^2 - 4 A C whose constant term has the sign of B(0) - 2 A(0)
        a, b, c = (_poly(order, *p) for p in abc)
        m = _quadratic_root(*abc, order)
        assert_canonical(m)
        assert m.order == order and m[0] == 1
        assert a * m * m - b * m + c == PowerSeries.constant(0, order)
        sign = 1 if abc[1][0] > 2 * abc[0][0] else -1
        root = b - (a * m).scale(2)
        assert root == plain_sqrt(b * b - (a * c).scale(4), sign)


def brute_motzkin_gf(up, flat, order):
    """Weighted Motzkin path generating function by direct path counting."""
    def paths(n):
        def rec(seq, h, left):
            if left == 0:
                if h == 0:
                    yield tuple(seq)
                return
            if h + 1 <= left - 1:
                yield from rec(seq + ["u"], h + 1, left - 1)
            yield from rec(seq + ["f"], h, left - 1)
            if h > 0:
                yield from rec(seq + ["d"], h - 1, left - 1)
        yield from rec([], 0, n)

    def w(seq):
        total, h = F(1), 0
        for step in seq:
            if step == "u":
                total *= up[min(h, len(up) - 1)]
                h += 1
            elif step == "f":
                total *= flat[min(h, len(flat) - 1)]
            else:
                h -= 1
        return total

    return [sum(w(s) for s in paths(n)) for n in range(order + 1)]


class TestContinuedFraction:
    def test_catalan_numbers(self):
        # all Jacobi parameters trivial: the moments of the semicircle
        g = cf_expand((F(0),) * 6, (F(1),) * 5, 8)
        catalan = [1, 0, 1, 0, 2, 0, 5, 0, 14]
        assert list(g.coefficients) == [F(c) for c in catalan]

    def test_motzkin_numbers(self):
        g = cf_expand((F(1),) * 6, (F(1),) * 5, 8)
        motzkin = [1, 1, 2, 4, 9, 21, 51, 127, 323]
        assert list(g.coefficients) == [F(m) for m in motzkin]

    def test_weighted_against_brute_paths(self):
        up = (F(2), F(3), F(3))
        flat = (F(1, 2), F(5), F(5))
        g = cf_expand(flat + (F(5),) * 3, up + (F(3),) * 2, 6)
        brute = brute_motzkin_gf(up, flat, 6)
        assert list(g.coefficients) == brute

    @pytest.mark.parametrize(
        "abc", [(F(2), F(1, 2), F(3)), (F(1, 3), F(4), F(2, 5))]
    )
    def test_gamma_cf_matches_closed_at_order_64(self, abc):
        cf = gamma_series(64, *abc, route="cf")
        assert cf == gamma_series(64, *abc, route="closed")

    @pytest.mark.parametrize(
        "abc", [(F(0), F(1), F(1)), (F(0), F(-2, 3), F(5)),
                (F(0), F(7, 2), F(-1, 4))]
    )
    def test_gamma_closed_at_alpha_zero_matches_cf(self, abc):
        # A(0) = alpha = 0: the quadratic's leading coefficient vanishes
        cf = gamma_series(32, *abc, route="cf")
        assert cf == gamma_series(32, *abc, route="closed")

    def test_order_zero_is_the_constant_one(self):
        assert cf_expand((F(3),), (), 0) == PowerSeries.constant(1, 0)
        for abc in [(F(0), F(1), F(1)), (F(2), F(-1), F(3))]:
            for route in ("cf", "closed"):
                g = gamma_series(0, *abc, route=route)
                assert g == PowerSeries.constant(1, 0)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_nested_division_oracle(self, data):
        """Convergents and nested division agree at depth needed and +3."""
        order = data.draw(st.integers(0, 40), label="order")
        depth = (order + 1) // 2 + 1 + data.draw(st.sampled_from([0, 3]))
        diagonal = tuple(data.draw(
            st.lists(cf_weights, min_size=depth, max_size=depth)))
        products = tuple(data.draw(
            st.lists(cf_weights, min_size=depth - 1, max_size=depth - 1)))
        got = cf_expand(diagonal, products, order)
        assert got == nested_cf(diagonal, products, order)

    @pytest.mark.parametrize("order", [0, 1, 2, 7, 8, 39, 40])
    def test_matches_oracle_with_every_weight_nonzero(self, order):
        # depth exactly as needed: a deepest pair weight that is wrong
        # changes the top coefficient at every even order
        depth = (order + 1) // 2 + 1
        diagonal = tuple(F((-1) ** i * (i + 2), 2 * i + 3)
                         for i in range(depth))
        products = tuple(F(3 * i + 1, (-1) ** i * (i + 5))
                         for i in range(depth - 1))
        got = cf_expand(diagonal, products, order)
        assert got == nested_cf(diagonal, products, order)

    @pytest.mark.parametrize(
        "abc", [(F(2), F(1, 2), F(3)), (F(-3, 7), F(11, 5), F(-2, 9)),
                (F(0), F(7, 2), F(-1, 4))]
    )
    def test_gamma_cf_matches_closed_at_order_100(self, abc):
        cf = gamma_series(100, *abc, route="cf")
        assert cf == gamma_series(100, *abc, route="closed")

    def test_insufficient_depth_raises(self):
        with pytest.raises(FreeBetaError,
                           match="depth 2 < 5 required for order 8"):
            cf_expand((F(0),) * 2, (F(1),), 8)

    def test_spec_validation(self):
        # one matched-pair weight between each two consecutive levels
        with pytest.raises(ValueError):
            cf_expand((F(0),) * 3, (F(1),), 2)
        with pytest.raises(ValueError):
            cf_expand((F(0),) * 3, (F(1),) * 3, 2)
        with pytest.raises(ValueError):
            cf_expand((), (), 0)


def test_large_inputs_stay_exact():
    """Wide rationals at order 100: outputs checked by independent routes."""
    a, b = F(2), F(10 ** 20 + 1)
    moments = moment_series(FreeBetaPrime(a, b), 100).moments
    assert moments == vacuum_moments(fbp_operator(a, b, 100), 100)
    abc = F(1, 3), F(2), F(5, 7)
    cf = gamma_series(100, *abc, route="cf")
    assert cf == gamma_series(100, *abc, route="closed")
    assert gamma_quadratic_residual(cf, *abc) == PowerSeries.constant(0, 100)

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
    cf_expand,
    ps_compose,
    ps_reversion,
    ps_sqrt,
)

F = Fraction


def poly(*coeffs):
    return PowerSeries([F(c) for c in coeffs])


def z_series(order):
    """The series z at the given order (>= 1)."""
    return poly(0, 1).pad(order)


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def series_strategy(min_order=0, max_order=6):
    return st.lists(
        small_fracs, min_size=min_order + 1, max_size=max_order + 1
    ).map(PowerSeries)


# Oracles: plain Fraction recursions, one reduction per term product.

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
            one, t - tail.shift_up().shift_up().scale(products[i]))
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
def divisors(draw, max_order=12):
    """Nonzero constant term (either sign), then mostly zeros."""
    rest = draw(st.lists(
        st.one_of(st.just(F(0)), st.just(F(0)), wide_fracs),
        max_size=max_order,
    ))
    return PowerSeries([draw(nonzero_fracs)] + rest)


class TestBasicArithmetic:
    def test_add_matches_termwise(self):
        a = poly(1, 2, 3)
        b = poly(4, 5, 6)
        assert (a + b).coefficients == (F(5), F(7), F(9))

    def test_sub_and_neg(self):
        a = poly(1, 2, 3)
        assert (a - a).coefficients == (F(0),) * 3
        assert (-a).coefficients == (F(-1), F(-2), F(-3))

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
        assert poly(1, 2).shift_up().coefficients == (F(0), F(1))

    @given(
        series_strategy(max_order=8),
        st.lists(
            st.fractions(min_value=-50, max_value=50, max_denominator=30)
            | st.just(F(0)),
            min_size=1,
            max_size=9,
        ),
    )
    def test_mul_is_plain_fraction_convolution(self, a, coeffs):
        b = PowerSeries(coeffs)
        n = min(a.order, b.order)
        want = tuple(
            sum((a[i] * b[k - i] for i in range(k + 1)), F(0))
            for k in range(n + 1)
        )
        assert (a * b).coefficients == want

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

    @given(wide_series, divisors())
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


class TestSqrt:
    def test_sqrt_of_perfect_square(self):
        sq = poly(1, 1).pad(4) * poly(1, 1).pad(4)
        r = ps_sqrt(sq)
        assert r.coefficients[:2] == (F(1), F(1))

    def test_binomial_series(self):
        # sqrt(1+z) = 1 + z/2 - z^2/8 + z^3/16 - ...
        r = ps_sqrt(poly(1, 1, 0, 0))
        assert r.coefficients == (F(1), F(1, 2), F(-1, 8), F(1, 16))

    def test_branch_sign(self):
        # the positive root; callers that want the other one negate it
        assert ps_sqrt(poly(4, 4, 1))[0] == F(2)
        r = -ps_sqrt(poly(4, 4, 1))
        assert r == plain_sqrt(poly(4, 4, 1), -1)
        assert (r * r) == poly(4, 4, 1)

    def test_non_square_constant_rejected(self):
        with pytest.raises(ValueError):
            ps_sqrt(poly(2, 1))

    @given(series_strategy(min_order=1, max_order=5))
    def test_square_round_trip(self, f):
        c0 = f[0] if f[0] > 0 else F(1)
        g = PowerSeries((c0 * c0,) + f.coefficients[1:])
        r = ps_sqrt(g)
        assert r * r == g

    @given(nonzero_fracs, st.lists(wide_fracs, min_size=1, max_size=24),
           st.sampled_from([1, -1]))
    def test_sqrt_matches_term_by_term_oracle(self, c0, tail, branch):
        f = PowerSeries([c0 * c0] + tail)
        r = ps_sqrt(f) if branch > 0 else -ps_sqrt(f)
        assert r == plain_sqrt(f, branch)
        assert r * r == f


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
        # A(0) = alpha = 0: the closed route cancels a factor z
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

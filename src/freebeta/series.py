"""Truncated formal power series over exact rationals.

A :class:`PowerSeries` is integer numerators over one denominator, with the
denominator positive and sharing no factor with every numerator: the
canonical form of a series over Q (Geddes, Czapor & Labahn, *Algorithms for
Computer Algebra*, 1992, ch. 2), so ``==`` and ``hash`` compare the pair.
Nothing here ever touches floating point.  A series carries an explicit
truncation order and binary operations truncate to the minimum of the
operand orders instead of erroring, so series of different precision
compose freely without silent precision claims.

Sums and products run on the numerators and divide out the common content
once per result; a polynomial operand's zero tail is dropped before a
product or quotient.  Quotients, the quadratic solve and reversion reduce
each output as it comes, which keeps the numbers small: their running
numerators and denominator become the result.  A series holds Fractions
only where they were at hand when it was made, the constructor's arguments
or those reduced outputs where they are its coefficients; any other series
builds them on first read and keeps them.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Union

from .errors import FreeBetaError

RationalLike = Union[int, str, Fraction]

__all__ = [
    "PowerSeries",
    "ps_reversion",
    "cf_expand",
]


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("coefficients must be exact rationals, not floats")
    return Fraction(x)


class PowerSeries:
    """A formal power series truncated at a fixed order (inclusive).

    Parameters
    ----------
    coefficients : iterable of int, str or Fraction
        Slot ``k`` holds the coefficient of ``z**k``; the length fixes the
        truncation order to ``len(coefficients) - 1``.

    The series is held as the integers ``nums`` over ``den``, with
    ``den > 0`` and ``gcd(den, *nums) == 1``; neither is to be assigned.
    """

    __slots__ = ("nums", "den", "_coefficients")

    def __init__(self, coefficients: Iterable[RationalLike]):
        coeffs = tuple(map(_frac, coefficients))
        if not coeffs:
            raise ValueError("a power series needs at least a constant term")
        # the lcm of the reduced denominators leaves no common content
        den = math.lcm(*(c.denominator for c in coeffs))
        self.nums = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self.den = den
        self._coefficients = coeffs

    # -- construction helpers -------------------------------------------

    @classmethod
    def constant(cls, c: RationalLike, order: int) -> "PowerSeries":
        c = _frac(c)
        return _series((c.numerator,) + (0,) * order, c.denominator)

    # -- basic queries ---------------------------------------------------

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """The coefficients as reduced Fractions, built on first read."""
        if self._coefficients is None:
            den = self.den
            self._coefficients = tuple(Fraction(x, den) for x in self.nums)
        return self._coefficients

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    def __getitem__(self, k: int) -> Fraction:
        return self.coefficients[k]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __repr__(self) -> str:
        return f"PowerSeries(coefficients={self.coefficients!r})"

    def truncate(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise ValueError("truncate cannot extend a series")
        return _series(*_reduced(self.nums[: order + 1], self.den))

    def pad(self, order: int) -> "PowerSeries":
        """Extend with explicit zero coefficients (a deliberate precision claim)."""
        if order < self.order:
            raise ValueError("pad cannot shrink a series")
        return _series(self.nums + (0,) * (order - self.order), self.den)

    def shift_down(self) -> "PowerSeries":
        """Divide by z; the constant term must vanish."""
        if self.nums[0] != 0:
            raise ValueError("shift_down requires zero constant term")
        if self.order == 0:
            raise ValueError("shift_down needs order >= 1")
        return _series(self.nums[1:], self.den)

    def shift_up(self) -> "PowerSeries":
        """Multiply by z, one order higher."""
        return _series((0,) + self.nums, self.den)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        return _combine(self, other, operator.add)

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return _combine(self, other, operator.sub)

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        # Convolve the numerators and reduce once per product instead of
        # once per output coefficient.
        n = min(self.order, other.order)
        nums = _convolve(_stripped(self.nums[: n + 1]),
                         _stripped(other.nums[: n + 1]), n)
        return _series(*_reduced(nums, self.den * other.den))

    def __truediv__(self, other: "PowerSeries") -> "PowerSeries":
        if other.nums[0] == 0:
            raise FreeBetaError("division by a series with zero constant term")
        # With self = A/da, q' = A / other by q'_k = (A_k - sum_i b_i
        # q'_(k-i)) / b_0, the divisor's numerators B over db taken once and
        # the earlier q' held as integers over their running lcm: one
        # reduction per output, whose denominator carries none of da's bits.
        # Then q = q' / da, whose content divides da.
        n = min(self.order, other.order)
        b = _stripped(other.nums[: n + 1])
        db, tail = other.den, b[1:]
        done = _CommonDenominator()
        for ak in self.nums[: n + 1]:
            acc = sum(map(operator.mul, tail, reversed(done.nums)))
            done.append(Fraction(ak * db * done.den - acc, done.den * b[0]))
        da = self.den
        if da == 1:
            return done.series()
        g = math.gcd(da, *done.nums)
        return _series([x // g for x in done.nums], done.den * (da // g))


def _series(nums, den: int) -> PowerSeries:
    """The series nums / den, which must already be in canonical form."""
    s = object.__new__(PowerSeries)
    s.nums, s.den, s._coefficients = tuple(nums), den, None
    return s


def _combine(a: PowerSeries, b: PowerSeries, op) -> PowerSeries:
    """a + b or a - b.  Over da * db / g with g = gcd(da, db), the content
    divides g, as for a sum of two reduced Fractions, since each operand is
    in canonical form at the common order: the content gcd runs against g,
    not against the wide denominator."""
    n = min(a.order, b.order)
    a, b = (x if x.order == n else x.truncate(n) for x in (a, b))
    g = math.gcd(a.den, b.den)
    fa, fb = b.den // g, a.den // g
    nums = [op(x * fa, y * fb) for x, y in zip(a.nums, b.nums)]
    return _series(*_reduced(nums, a.den * fa, g))


def _stripped(nums: tuple) -> tuple:
    """nums without its zero tail, so that a polynomial operand costs its
    degree and not the truncation order."""
    end = len(nums)
    while end and not nums[end - 1]:
        end -= 1
    return nums[:end]


def _convolve(a, b, n: int) -> list[int]:
    """Terms 0..n of the Cauchy product of the integer sequences a and b,
    each read as zero past its end."""
    rb, last = b[::-1], len(b) - 1
    return [sum(map(operator.mul, a[max(0, k - last):k + 1],
                    rb[max(0, last - k):]))
            for k in range(n + 1)]


def _reduced(nums, den: int, bound: int | None = None
             ) -> tuple[list[int], int]:
    """nums / den with the content gcd(den, *nums) divided out, so that den
    is the lcm of the reduced denominators of nums[i] / den.  A caller that
    knows the content divides bound passes it, and the gcd runs against
    bound instead of den."""
    g = math.gcd(den if bound is None else bound, *nums)
    return ([x // g for x in nums], den // g) if g > 1 else (nums, den)


class _CommonDenominator:
    """Reduced fractions kept as integer numerators over their running lcm,
    which is the canonical form of the series they make."""

    def __init__(self):
        self.den = 1
        self.nums: list[int] = []
        self.fractions: list[Fraction] = []

    def append(self, q: Fraction) -> None:
        grow = q.denominator // math.gcd(self.den, q.denominator)
        if grow > 1:
            self.nums = [x * grow for x in self.nums]
            self.den *= grow
        self.nums.append(q.numerator * (self.den // q.denominator))
        self.fractions.append(q)

    def series(self) -> PowerSeries:
        """The series of the fractions, which are its coefficients."""
        s = _series(self.nums, self.den)
        s._coefficients = tuple(self.fractions)
        return s


def _poly(n: int, *coeffs) -> PowerSeries:
    """The polynomial with the given low coefficients, to order n."""
    return PowerSeries(coeffs[: n + 1]).pad(n)


def ps_reversion(f: PowerSeries) -> PowerSeries:
    """Compositional inverse: returns g with f(g(z)) = z to order.

    Lagrange inversion: with phi = z/f(z), g_k = [z^(k-1)] phi^k / k.  The
    baby steps phi^0..phi^s and giant steps phi^(js), s ~ sqrt(n), give
    each phi^k's coefficient as one dot product, so the n coefficients cost
    one series division and about 2 sqrt(n) products instead of n - 1
    (Brent & Kung, J. ACM 25, 1978).  Each power is held as integers P over
    a denominator D and divided by gcd(D, *P), so D is the lcm of its
    reduced denominators, and each output is reduced as it comes.
    """
    if f.order < 1 or f.nums[0] != 0 or f.nums[1] == 0:
        raise FreeBetaError("reversion needs f(0) = 0 and f'(0) != 0")
    n = f.order
    phi = PowerSeries.constant(1, n - 1) / f.shift_down()

    def times(x, y):
        return _reduced(_convolve(x[0], y[0], n - 1), x[1] * y[1])

    s = math.isqrt(n - 1) + 1
    baby = [([1] + [0] * (n - 1), 1), (phi.nums, phi.den)]
    while len(baby) <= s:
        baby.append(times(baby[-1], baby[1]))
    # baby[r] = phi^r for r = 0..s and giant = phi^(k - r), r = k mod s
    giant, out = baby[0], _CommonDenominator()
    out.append(Fraction(0))
    for k in range(1, n + 1):
        r = k % s
        if r == 0:
            giant = times(giant, baby[s]) if k > s else baby[s]
        (a, da), (b, db) = giant, baby[r]
        dot = sum(map(operator.mul, a[:k], reversed(b[:k])))
        out.append(Fraction(dot, k * da * db))
    return out.series()


def _quadratic_root(a: tuple, b: tuple, c: tuple, order: int) -> PowerSeries:
    """The root M with M(0) = 1 of A M^2 - B M + C = 0 to order, for
    polynomials A, B, C given as coefficient tuples lowest first.

    Term k of the equation is linear in m_k, with coefficient B(0) - 2 A(0),
    so each m_k is one reduced quotient of the earlier terms (undetermined
    coefficients; Flajolet & Sedgewick, *Analytic Combinatorics*, 2009,
    ch. VII).  M is held as integers over its running lcm, and the terms of
    M^2 that A reads as integers over that lcm squared.  A negative order,
    or a form of which M(0) = 1 is not a simple root, raises FreeBetaError.
    """
    if order < 0:
        raise FreeBetaError(f"a series needs order >= 0, got order = {order}")
    d = math.lcm(*(_frac(x).denominator for x in a + b + c))
    a, b, c = ([_frac(x).numerator * (d // _frac(x).denominator) for x in p]
               for p in (a, b, c))
    if a[0] - b[0] + c[0] or b[0] == 2 * a[0]:
        raise FreeBetaError("M(0) = 1 is not a simple root of A M^2 - B M + C")
    pivot, reach = b[0] - 2 * a[0], len(a) - 1
    done = _CommonDenominator()
    done.append(Fraction(1))
    squares = [1]  # (M^2)_j for the last `reach` j < k, over den^2
    for k in range(1, order + 1):
        nums, den = done.nums, done.den
        # (M^2)_k less its terms in m_k, the products halved by symmetry,
        # which A(0) reads now and A's higher terms at the steps to come
        inner, h = 0, (k - 1) // 2
        if a[0] or reach and k < order:
            inner = 2 * sum(map(operator.mul, nums[1:h + 1],
                                reversed(nums[k - h:k])))
            if k % 2 == 0:
                inner += nums[k // 2] ** 2
        den2 = den * den
        acc = (a[0] * inner
               + sum(map(operator.mul, a[1:], reversed(squares)))
               - den * sum(map(operator.mul, b[1:], reversed(nums)))
               + (c[k] * den2 if k < len(c) else 0))
        done.append(Fraction(acc, den2 * pivot))
        if reach:
            grow2 = (done.den // den) ** 2
            if grow2 > 1:
                squares = [x * grow2 for x in squares]
                inner *= grow2
            squares.append(2 * done.den * done.nums[k] + inner)
            del squares[:-reach]
    return done.series()


def _truncation(order: int) -> int:
    """The highest level N that weighted Motzkin paths of length <= order
    need: a path that returns to level 0 climbs at most order/2 levels, so
    levels 0..ceil(order/2) make a path sum exact."""
    return (order + 1) // 2


def cf_expand(diagonal: tuple[Fraction, ...], products: tuple[Fraction, ...],
              order: int) -> PowerSeries:
    """Expand 1/(1 - k0 z - p0 z^2/(1 - k1 z - ...)) to the given order.

    ``diagonal`` holds the level weights (k0, k1, ...) of the flat steps
    and ``products[i]`` the weight of a matched up/down pair between levels
    i and i+1, so the coefficient of ``z**n`` is the weighted Motzkin path
    sum.  Fractions shallower than ``_truncation(order) + 1`` levels, and
    negative orders, are rejected.
    """
    if order < 0:
        raise FreeBetaError(f"a series needs order >= 0, got order = {order}")
    depth = len(diagonal)
    if len(products) != depth - 1:
        raise ValueError("products must have one entry fewer than diagonal")
    needed = _truncation(order) + 1
    if depth < needed:
        raise FreeBetaError(
            f"depth {depth} < {needed} required for order {order}")
    if order == 0:
        return PowerSeries.constant(1, 0)
    # The tail below level i is a quotient num/den of polynomials, fixed up
    # to a common factor.  Lifting it one level is num, den = den, den -
    # k_i z den - p_i z^2 num, shifts and scalings only; scaling both by the
    # lcm c of the weights' denominators keeps them integer.  One division
    # at the top ends the expansion.
    deepest = diagonal[-1]
    num = [deepest.denominator] + [0] * order
    den = [deepest.denominator, -deepest.numerator] + [0] * (order - 1)
    for i in range(depth - 2, -1, -1):
        k, p = diagonal[i], products[i]
        c = math.lcm(k.denominator, p.denominator)
        ik = k.numerator * (c // k.denominator)
        ip = p.numerator * (c // p.denominator)
        den_z, num_zz = [0] + den[:-1], [0, 0] + num[:-2]
        num, den = [c * x for x in den], [
            c * x - ik * y - ip * w for x, y, w in zip(den, den_z, num_zz)
        ]
    return _series(num, 1) / _series(den, 1)

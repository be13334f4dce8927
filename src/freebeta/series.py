"""Truncated formal power series over exact rationals.

All coefficients are :class:`fractions.Fraction`; nothing here ever touches
floating point.  A :class:`PowerSeries` carries an explicit truncation order
and binary operations truncate to the minimum of the operand orders instead
of erroring, so series of different precision compose freely without silent
precision claims.

Products, quotients, square roots and reversion run on integer numerators
over one common denominator and build one Fraction per output coefficient,
so the inner sums carry no gcd; a polynomial operand's zero tail is dropped
before a product or quotient.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import FreeBetaError

RationalLike = Union[int, str, Fraction]

__all__ = [
    "PowerSeries",
    "ps_reversion",
    "ps_sqrt",
    "cf_expand",
]


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("coefficients must be exact rationals, not floats")
    return Fraction(x)


@dataclass(frozen=True)
class PowerSeries:
    """A formal power series truncated at a fixed order (inclusive).

    Parameters
    ----------
    coefficients : iterable of int, str or Fraction
        Slot ``k`` holds the coefficient of ``z**k``; the length fixes the
        truncation order to ``len(coefficients) - 1``.
    """

    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients", tuple(_frac(c) for c in self.coefficients)
        )
        if len(self.coefficients) == 0:
            raise ValueError("a power series needs at least a constant term")

    # -- construction helpers -------------------------------------------

    @classmethod
    def constant(cls, c: RationalLike, order: int) -> "PowerSeries":
        return cls((_frac(c),) + (Fraction(0),) * order)

    # -- basic queries ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, k: int) -> Fraction:
        return self.coefficients[k]

    def truncate(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise ValueError("truncate cannot extend a series")
        return PowerSeries(self.coefficients[: order + 1])

    def pad(self, order: int) -> "PowerSeries":
        """Extend with explicit zero coefficients (a deliberate precision claim)."""
        if order < self.order:
            raise ValueError("pad cannot shrink a series")
        return PowerSeries(
            self.coefficients + (Fraction(0),) * (order - self.order)
        )

    def shift_down(self) -> "PowerSeries":
        """Divide by z; the constant term must vanish."""
        if self.coefficients[0] != 0:
            raise ValueError("shift_down requires zero constant term")
        if self.order == 0:
            raise ValueError("shift_down needs order >= 1")
        return PowerSeries(self.coefficients[1:])

    def scale(self, c: RationalLike) -> "PowerSeries":
        c = _frac(c)
        return PowerSeries(tuple(c * a for a in self.coefficients))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        return PowerSeries(
            tuple(self[k] + other[k] for k in range(n + 1))
        )

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        return PowerSeries(
            tuple(self[k] - other[k] for k in range(n + 1))
        )

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        # Scale each operand to integer numerators over one common
        # denominator, convolve the integers, and reduce once per output
        # coefficient instead of twice per term product.
        n = min(self.order, other.order)
        ia, da = _integers(self.coefficients[: n + 1])
        ib, db = _integers(other.coefficients[: n + 1])
        den = da * db
        return PowerSeries(tuple(Fraction(x, den)
                                 for x in _convolve(ia, ib, n)))

    def __truediv__(self, other: "PowerSeries") -> "PowerSeries":
        if other.coefficients[0] == 0:
            raise FreeBetaError("division by a series with zero constant term")
        # q_k = (a_k - sum_i b_i q_(k-i)) / b_0 with the divisor scaled to
        # integer numerators once and the earlier quotients held as integer
        # numerators over their running lcm: one reduction per output.
        n = min(self.order, other.order)
        ib, db = _integers(other.coefficients[: n + 1])
        tail = ib[1:]
        done = _CommonDenominator()
        out: list[Fraction] = []
        for k in range(n + 1):
            ak = self[k]
            acc = sum(map(operator.mul, tail, reversed(done.nums)))
            q = Fraction(ak.numerator * db * done.den - acc * ak.denominator,
                         ak.denominator * done.den * ib[0])
            done.append(q)
            out.append(q)
        return PowerSeries(tuple(out))


def _integers(coeffs) -> tuple[list[int], int]:
    """(numerators, den): coeffs as integers over the lcm of their
    denominators, the zero tail dropped, so a polynomial operand costs its
    degree and not the truncation order."""
    end = len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    den = math.lcm(*(c.denominator for c in coeffs[:end]))
    return [c.numerator * (den // c.denominator) for c in coeffs[:end]], den


def _convolve(a: list[int], b: list[int], n: int) -> list[int]:
    """Terms 0..n of the Cauchy product of the integer sequences a and b,
    each read as zero past its end."""
    rb, last = b[::-1], len(b) - 1
    return [sum(map(operator.mul, a[max(0, k - last):k + 1],
                    rb[max(0, last - k):]))
            for k in range(n + 1)]


def _reduced(nums: list[int], den: int) -> tuple[list[int], int]:
    """nums / den with the content gcd(den, *nums) divided out, so that den
    is the lcm of the reduced denominators of nums[i] / den."""
    g = math.gcd(den, *nums)
    return ([x // g for x in nums], den // g) if g > 1 else (nums, den)


class _CommonDenominator:
    """Reduced fractions kept as integer numerators over their running lcm."""

    def __init__(self):
        self.den = 1
        self.nums: list[int] = []

    def append(self, q: Fraction) -> None:
        grow = q.denominator // math.gcd(self.den, q.denominator)
        if grow > 1:
            self.nums = [x * grow for x in self.nums]
            self.den *= grow
        self.nums.append(q.numerator * (self.den // q.denominator))


def _poly(n: int, *coeffs) -> PowerSeries:
    """The polynomial with the given low coefficients, to order n."""
    return PowerSeries((list(coeffs) + [0] * n)[: n + 1])


def ps_reversion(f: PowerSeries) -> PowerSeries:
    """Compositional inverse: returns g with f(g(z)) = z to order.

    Lagrange inversion: with phi = z/f(z), g_k = [z^(k-1)] phi^k / k.  The
    baby steps phi^0..phi^s and giant steps phi^(js), s ~ sqrt(n), give
    each phi^k's coefficient as one dot product, so the n coefficients cost
    one series division and about 2 sqrt(n) products instead of n - 1
    (Brent & Kung, J. ACM 25, 1978).  Each power is held as integers P over
    a denominator D and divided by gcd(D, *P), so D is the lcm of its
    reduced denominators, and one Fraction is built per output.
    """
    if f.order < 1 or f[0] != 0 or f[1] == 0:
        raise FreeBetaError("reversion needs f(0) = 0 and f'(0) != 0")
    n = f.order
    phi = PowerSeries.constant(1, n - 1) / f.shift_down()

    def times(x, y):
        return _reduced(_convolve(x[0], y[0], n - 1), x[1] * y[1])

    s = math.isqrt(n - 1) + 1
    ints, d = _integers(phi.coefficients)
    baby = [([1] + [0] * (n - 1), 1), (ints + [0] * (n - len(ints)), d)]
    while len(baby) <= s:
        baby.append(times(baby[-1], baby[1]))
    # baby[r] = phi^r for r = 0..s and giant = phi^(k - r), r = k mod s
    giant, out = baby[0], [Fraction(0)]
    for k in range(1, n + 1):
        r = k % s
        if r == 0:
            giant = times(giant, baby[s]) if k > s else baby[s]
        (a, da), (b, db) = giant, baby[r]
        dot = sum(map(operator.mul, a[:k], reversed(b[:k])))
        out.append(Fraction(dot, k * da * db))
    return PowerSeries(tuple(out))


def _sqrt_fraction(q: Fraction) -> Fraction:
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise ValueError(f"{q} is not the square of a rational")
    return Fraction(rn, rd)


def ps_sqrt(f: PowerSeries) -> PowerSeries:
    """Exact series square root with a positive constant term.

    f(0) must be a positive rational square.  The other root is the
    negation: negating g_0 negates every g_k exactly.
    """
    if f[0] == 0:
        raise ValueError("series sqrt needs a nonzero constant term")
    g0 = _sqrt_fraction(f[0])
    # g_k = (f_k - sum_{0<i<k} g_i g_(k-i)) / (2 g0), the self-convolution
    # taken in integers over the running lcm L of g_1..g_(k-1), halved by
    # symmetry, and one reduction per output.
    two_g0 = 2 * g0.numerator
    done = _CommonDenominator()
    out = [g0]
    for k in range(1, f.order + 1):
        nums = done.nums
        half = sum(nums[i] * nums[k - 2 - i] for i in range((k - 1) // 2))
        acc = 2 * half + (nums[k // 2 - 1] ** 2 if k % 2 == 0 else 0)
        fk, sq = f[k], done.den * done.den
        g = Fraction(
            (fk.numerator * sq - acc * fk.denominator) * g0.denominator,
            fk.denominator * sq * two_g0,
        )
        done.append(g)
        out.append(g)
    return PowerSeries(tuple(out))


def _quadratic_root(p: tuple, disc: tuple, q: tuple,
                    order: int) -> PowerSeries:
    """(p - sqrt(disc)) / q to order, the root with a positive constant
    term, for polynomials given as coefficient tuples lowest first.

    The numerator is expanded to order + k and the k leading zeros of q
    cancelled; a divisor then constant scales instead of dividing.
    """
    k = next(i for i, c in enumerate(q) if c)
    num = _poly(order + k, *p) - ps_sqrt(_poly(order + k, *disc))
    for _ in range(k):
        num = num.shift_down()
    if not any(q[k + 1:]):
        return num.scale(1 / Fraction(q[k]))
    return num / _poly(order, *q[k:])


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
    sum.  Fractions shallower than ``_truncation(order) + 1`` levels are
    rejected.
    """
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
    return PowerSeries(tuple(num)) / PowerSeries(tuple(den))

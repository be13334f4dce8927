"""Moment sequences and the G/M/Phi/R/S/T transform algebra.

Everything here lives at the level of truncated exact-rational series;
closed-form function objects belong to :mod:`freebeta.distributions` and are
bridged by series expansion.  Additive free convolution adds R-transform
coefficients; multiplicative free convolution multiplies S-transforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product
from typing import Iterable, Iterator

from .errors import (
    InsufficientOrder,
    OrderMismatch,
    ZeroConstantS,
    ZeroMeanError,
)
from .series import PowerSeries, _poly, ps_reversion

__all__ = [
    "MomentSequence",
    "TCoefficients",
    "moments_to_r",
    "r_to_moments",
    "moments_to_s",
    "s_to_moments",
    "s_to_t",
    "free_add_convolve",
    "free_mult_convolve",
    "noncrossing_partitions",
]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _fracs(xs: Iterable) -> tuple[Fraction, ...]:
    return tuple(_frac(x) for x in xs)


@dataclass(frozen=True)
class MomentSequence:
    """Moments m_0..m_order of a compactly supported measure, m_0 = 1."""

    moments: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "moments", _fracs(self.moments))
        if not self.moments or self.moments[0] != 1:
            raise ValueError("a moment sequence starts with m_0 = 1")

    @property
    def order(self) -> int:
        return len(self.moments) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.moments[n]


@dataclass(frozen=True)
class TCoefficients:
    """Coefficients of the T-transform T(z) = sum alpha_k z^k; alpha_0 != 0."""

    alphas: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "alphas", _fracs(self.alphas))
        if not self.alphas or self.alphas[0] == 0:
            raise ValueError("T-transform needs alpha_0 != 0")

    @property
    def order(self) -> int:
        return len(self.alphas) - 1

    def __getitem__(self, k: int) -> Fraction:
        return self.alphas[k]


def moments_to_r(m: MomentSequence) -> PowerSeries:
    """R(z) = sum_k r_{k+1} z^k, the free cumulants r_1..r_n, from m_1..m_n.

    Uses M(z) = C(z M(z)) with C(z) = 1 + z R(z): the inverse of
    w(z) = z M(z) is u / C(u), so one reversion gives C.
    """
    n = m.order
    if n < 1:
        raise InsufficientOrder("need at least one moment")
    w = PowerSeries((Fraction(0),) + m.moments)  # z*M(z), exact to order n+1
    c = PowerSeries.constant(1, n) / ps_reversion(w).shift_down()
    return PowerSeries(c.coefficients[1:])


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


def r_to_moments(r: PowerSeries, route: str = "series") -> MomentSequence:
    """Moments from the R-transform series by one of two independent routes.

    ``series`` reverts u / C(u), C(u) = 1 + u R(u), into w = z M(z);
    ``nc_sum`` evaluates m_n = sum over non-crossing partitions of the
    product of r_{|B|} = R[|B| - 1] over blocks.
    """
    n = r.order + 1
    if route == "series":
        c = PowerSeries((Fraction(1),) + r.coefficients)
        u_over_c = PowerSeries(
            (Fraction(0),) + (PowerSeries.constant(1, n) / c).coefficients
        )
        return MomentSequence(ps_reversion(u_over_c).shift_down().coefficients)
    if route == "nc_sum":
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
    raise ValueError(f"unknown route {route!r}")


def moments_to_s(m: MomentSequence) -> PowerSeries:
    """S-transform series from moments: S(z) = ((z+1)/z) Phi^{<-1>}(z)."""
    if m.order < 1:
        raise InsufficientOrder("need at least one moment")
    if m[1] == 0:
        raise ZeroMeanError("S-transform needs m_1 != 0")
    phi = PowerSeries((Fraction(0),) + m.moments[1:])  # sum_{n>=1} m_n z^n
    base = ps_reversion(phi).shift_down()  # Phi^{<-1>}(z)/z, order n-1
    return base * _poly(base.order, 1, 1)


def s_to_moments(s: PowerSeries, order: int) -> MomentSequence:
    """Invert moments_to_s: recover m_1..m_order from S to order-1."""
    if s.order < order - 1:
        raise InsufficientOrder(
            f"S-series order {s.order} < {order - 1} needed"
        )
    if s[0] == 0:
        raise ZeroConstantS("S(0) = 0 has no moment inverse here")
    phi_inv = PowerSeries((0,) + s.coefficients[:order]) / _poly(order, 1, 1)
    phi = ps_reversion(phi_inv)
    return MomentSequence((Fraction(1),) + phi.coefficients[1:])


def s_to_t(s: PowerSeries) -> TCoefficients:
    """Reciprocal series: T(z) S(z) = 1 to order."""
    if s[0] == 0:
        raise ZeroConstantS("cannot invert an S-series vanishing at 0")
    recip = PowerSeries.constant(1, s.order) / s
    return TCoefficients(recip.coefficients)


def free_add_convolve(ma: MomentSequence, mb: MomentSequence) -> MomentSequence:
    """Moments of the additive free convolution: R-transforms add."""
    if ma.order != mb.order:
        raise OrderMismatch("operands must share a truncation order")
    return r_to_moments(moments_to_r(ma) + moments_to_r(mb))


def free_mult_convolve(ma: MomentSequence, mb: MomentSequence) -> MomentSequence:
    """Moments of the multiplicative free convolution: S-transforms multiply."""
    if ma.order != mb.order:
        raise OrderMismatch("operands must share a truncation order")
    if ma[1] == 0 or mb[1] == 0:
        raise ZeroMeanError("multiplicative convolution needs m_1 != 0")
    s = moments_to_s(ma) * moments_to_s(mb)
    return s_to_moments(s, ma.order)

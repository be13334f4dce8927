"""Moment sequences and the G/M/Phi/R/S transform algebra.

Everything here lives at the level of truncated exact-rational series;
closed-form function objects belong to :mod:`freebeta.distributions` and are
bridged by series expansion.  Additive free convolution adds R-transform
coefficients; multiplicative free convolution multiplies S-transforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import FreeBetaError
from .series import PowerSeries, _poly, ps_reversion

__all__ = [
    "MomentSequence",
    "moments_to_r",
    "r_to_moments",
    "moments_to_s",
    "s_to_moments",
    "free_add_convolve",
    "free_mult_convolve",
]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class MomentSequence:
    """Moments m_0..m_order of a compactly supported measure, m_0 = 1."""

    moments: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "moments", tuple(map(_frac, self.moments)))
        if not self.moments or self.moments[0] != 1:
            raise ValueError("a moment sequence starts with m_0 = 1")

    @property
    def order(self) -> int:
        return len(self.moments) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.moments[n]


def moments_to_r(m: MomentSequence) -> PowerSeries:
    """R(z) = sum_k r_{k+1} z^k, the free cumulants r_1..r_n, from m_1..m_n.

    Uses M(z) = C(z M(z)) with C(z) = 1 + z R(z): the inverse of
    w(z) = z M(z) is u / C(u), so one reversion gives C.
    """
    n = m.order
    if n < 1:
        raise FreeBetaError("need at least one moment")
    w = PowerSeries((0,) + m.moments)  # z*M(z), exact to order n+1
    one = PowerSeries.constant(1, n)
    return (one / ps_reversion(w).shift_down() - one).shift_down()


def r_to_moments(r: PowerSeries) -> MomentSequence:
    """Moments from the R-transform series, the inverse of moments_to_r.

    Reverts u / C(u), C(u) = 1 + u R(u), into w = z M(z).
    """
    one = PowerSeries.constant(1, r.order + 1)
    u_over_c = (one / (one + r.shift_up())).shift_up()
    return MomentSequence(ps_reversion(u_over_c).coefficients[1:])


def moments_to_s(m: MomentSequence) -> PowerSeries:
    """S-transform series from moments: S(z) = ((z+1)/z) Phi^{<-1>}(z)."""
    if m.order < 1:
        raise FreeBetaError("need at least one moment")
    if m[1] == 0:
        raise FreeBetaError("S-transform needs m_1 != 0")
    phi = PowerSeries((0,) + m.moments[1:])  # sum_{n>=1} m_n z^n
    base = ps_reversion(phi).shift_down()  # Phi^{<-1>}(z)/z, order n-1
    return base * _poly(base.order, 1, 1)


def s_to_moments(s: PowerSeries) -> MomentSequence:
    """Invert moments_to_s: recover m_1..m_(n+1) from S to order n."""
    if s.nums[0] == 0:
        raise FreeBetaError("S(0) = 0 has no moment inverse here")
    phi = ps_reversion(s.shift_up() / _poly(s.order + 1, 1, 1))
    return MomentSequence((1,) + phi.coefficients[1:])


def free_add_convolve(ma: MomentSequence, mb: MomentSequence) -> MomentSequence:
    """Moments of the additive free convolution: R-transforms add."""
    if ma.order != mb.order:
        raise FreeBetaError("operands must share a truncation order")
    return r_to_moments(moments_to_r(ma) + moments_to_r(mb))


def free_mult_convolve(ma: MomentSequence, mb: MomentSequence) -> MomentSequence:
    """Moments of the multiplicative free convolution: S-transforms multiply."""
    if ma.order != mb.order:
        raise FreeBetaError("operands must share a truncation order")
    if ma[1] == 0 or mb[1] == 0:
        raise FreeBetaError("multiplicative convolution needs m_1 != 0")
    s = moments_to_s(ma) * moments_to_s(mb)
    return s_to_moments(s)

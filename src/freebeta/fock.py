"""Truncated Fock-space operator models with exact vacuum moments.

The canonical operator gamma*1 + beta*l + l* + (1+alpha)*l*l^* + alpha*l^2*l^*
acts tridiagonally on the chain e_0 (vacuum), e_1, ..., e_N: it raises with
amplitude beta from the vacuum and alpha + beta above, lowers with amplitude
1, and has diagonal gamma at the vacuum and 1 + alpha + gamma above.  Its
vacuum moments are therefore weighted Motzkin path sums, matching the
linked-partition generating polynomial exactly.

A path sum reads only the diagonal and the product of the raising and
lowering amplitudes across each edge, so an operator is stored as that
Jacobi pair, the one ``series.cf_expand`` expands.  The free beta prime
variable is su times the canonical operator at (t/s, t/(su), 1/u);
conjugating c*X by diag(c^k), c = su, leaves its vacuum moments alone and
makes its pair (c * diagonal, c^2 * products) with unit lowering.  The same
conjugation, with c = d an integer that clears the denominators of the
diagonal and whose square clears those of the products, gives an integer
pair whose n-th vacuum moment is d^n m_n: the vacuum walk runs on it, with
no gcd per product.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .distributions import fbp_t_params
from .errors import FreeBetaError
from .ncl import level_weights
from .series import _reduced, _truncation

__all__ = [
    "TruncatedFockOperator",
    "vacuum_moments",
    "fbp_operator",
]


@dataclass(frozen=True)
class TruncatedFockOperator:
    """A tridiagonal operator on span{e_0..e_N} with exact rational entries.

    X e_k = products[k] e_{k+1} + diagonal[k] e_k + e_{k-1}: ``diagonal``
    has N + 1 entries and ``products`` N.
    """

    diagonal: tuple[Fraction, ...]
    products: tuple[Fraction, ...]

    @property
    def truncation(self) -> int:
        """N, the highest retained level."""
        return len(self.diagonal) - 1

    def apply(self, v: tuple) -> tuple:
        """The lowest len(v) levels of X v, with v zero above them."""
        up = (0, *map(operator.mul, self.products, v[:-1]))
        return tuple(x + y + z for x, y, z in zip(
            map(operator.mul, self.diagonal, v), up, (*v[1:], 0)))


def vacuum_moments(op: TruncatedFockOperator, n_max: int) -> tuple[Fraction, ...]:
    """(<X^n e_0, e_0>)_{n=0..n_max}, exact.

    The truncation is exact whenever it keeps the levels that paths of
    length n_max returning to the vacuum reach, N >= ceil(n_max / 2).
    With n_max - j steps left, a level above n_max - j can no longer return
    to the vacuum, so step j = 0, 1, ... reads levels 0..n_max - j only.
    The walk applies the integer pair (d * diagonal, d^2 * products) of
    the module docstring, d grown from the diagonal's lcm only by what the
    products' denominators need beyond d^2 (FBP's products carry about the
    square of the diagonal's denominators, so d has about half the bits of
    their lcm).
    X^j e_0 is held as integers v over a running denominator D, divided
    after each step by gcd(D, *v), and m_j is v_0 / D.
    """
    if n_max < 0:
        raise FreeBetaError(
            f"vacuum moments need n_max >= 0, got n_max = {n_max}")
    if _truncation(n_max) > op.truncation:
        raise FreeBetaError(
            f"n_max = {n_max} needs truncation N >= {_truncation(n_max)}, "
            f"got N = {op.truncation}")
    top = min(op.truncation, n_max)
    diagonal, products = op.diagonal[:top + 1], op.products[:top]
    d = math.lcm(*(x.denominator for x in diagonal))
    for x in products:
        d *= x.denominator // math.gcd(x.denominator, d * d)
    walk = TruncatedFockOperator(
        tuple(x.numerator * (d // x.denominator) for x in diagonal),
        tuple(x.numerator * (d * d // x.denominator) for x in products))
    v, den = (1,) + (0,) * top, 1
    out = [Fraction(1)]
    for j in range(n_max):
        v, den = _reduced(walk.apply(v[:n_max - j + 1]), den * d)
        out.append(Fraction(v[0], den))
    return tuple(out)


def fbp_operator(a, b, n_levels: int) -> TruncatedFockOperator:
    """Operator on levels 0..n_levels whose vacuum moments are the free beta
    prime moments: the canonical pair at (t/s, t/(su), 1/u), rescaled as in
    the module docstring."""
    s, t, u = fbp_t_params(a, b)
    c = s * u
    flat, up = level_weights(t / s, t / c, 1 / u, n_levels + 1)
    # c * (c * x), not (c * c) * x: each product cancels as it goes, where
    # c^2 would first grow to twice the bits of a wide parameter
    return TruncatedFockOperator(tuple(c * x for x in flat),
                                 tuple(c * (c * x) for x in up))

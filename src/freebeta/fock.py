"""Truncated Fock-space operator models with exact vacuum moments.

The canonical operator gamma*1 + beta*l + l* + (1+alpha)*l*l^* + alpha*l^2*l^*
acts tridiagonally on the chain e_0 (vacuum), e_1, ..., e_N: it raises with
amplitude beta from the vacuum and alpha + beta above, lowers with amplitude
1, and has diagonal gamma at the vacuum and 1 + alpha + gamma above.  Its
vacuum moments are therefore weighted Motzkin path sums, matching the
linked-partition generating polynomial exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .distributions import fbp_t_params
from .errors import TruncationTooSmall
from .ncl import level_weights
from .transforms import _frac

__all__ = [
    "TruncatedFockOperator",
    "build_operator",
    "vacuum_moments",
    "fbp_operator",
]


@dataclass(frozen=True)
class TruncatedFockOperator:
    """A tridiagonal operator on span{e_0..e_N} with exact rational entries.

    ``raising[k]`` is the entry (k+1, k), ``diagonal[k]`` the entry (k, k),
    and ``lowering[k]`` the entry (k-1, k) for k >= 1.
    """

    raising: tuple[Fraction, ...]
    diagonal: tuple[Fraction, ...]
    lowering: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "raising", tuple(_frac(x) for x in self.raising))
        object.__setattr__(self, "diagonal", tuple(_frac(x) for x in self.diagonal))
        object.__setattr__(self, "lowering", tuple(_frac(x) for x in self.lowering))
        if len(self.raising) != self.dim - 1 or len(self.lowering) != self.dim - 1:
            raise ValueError("band lengths must be dim - 1")

    @property
    def dim(self) -> int:
        return len(self.diagonal)

    @property
    def truncation(self) -> int:
        """N, the highest retained level."""
        return self.dim - 1

    def apply(self, v: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        out = []
        for i in range(self.dim):
            acc = self.diagonal[i] * v[i]
            if i >= 1:
                acc += self.raising[i - 1] * v[i - 1]
            if i + 1 < self.dim:
                acc += self.lowering[i] * v[i + 1]
            out.append(acc)
        return tuple(out)


def build_operator(alpha, beta, gamma, n_levels: int) -> TruncatedFockOperator:
    """The canonical operator truncated to levels 0..n_levels."""
    if n_levels < 1:
        raise ValueError("need at least one excited level")
    flat, up = level_weights(alpha, beta, gamma, n_levels + 1)
    return TruncatedFockOperator(
        raising=up, diagonal=flat, lowering=(Fraction(1),) * n_levels
    )


def vacuum_moments(op: TruncatedFockOperator, n_max: int) -> tuple[Fraction, ...]:
    """(<X^n e_0, e_0>)_{n=0..n_max}, exact.

    A power X^n only moves the vacuum up to level n, so the truncation is
    exact whenever n_max <= N.
    """
    if n_max > op.truncation:
        raise TruncationTooSmall(
            f"n_max = {n_max} exceeds truncation N = {op.truncation}"
        )
    v = (Fraction(1),) + (Fraction(0),) * op.truncation
    out = [Fraction(1)]
    for _ in range(n_max):
        v = op.apply(v)
        out.append(v[0])
    return tuple(out)


def fbp_operator(a, b, n_levels: int) -> TruncatedFockOperator:
    """Operator whose vacuum moments are the free beta prime moments.

    The free beta prime variable is su times the canonical operator at
    (alpha, beta, gamma) = (t/s, t/(su), 1/u); scaling an operator scales
    every band entry, so the matrix is built directly with scaled bands.
    """
    s, t, u = fbp_t_params(a, b)
    c = s * u
    base = build_operator(t / s, t / c, 1 / u, n_levels)
    return TruncatedFockOperator(
        raising=tuple(c * x for x in base.raising),
        diagonal=tuple(c * x for x in base.diagonal),
        lowering=tuple(c * x for x in base.lowering),
    )

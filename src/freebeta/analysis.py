"""Numerical measure-level verification.

Boundary limits of the Cauchy transform are taken along a ladder of
imaginary offsets with polynomial (Richardson/Neville) extrapolation to
zero, recovering the Stieltjes density, the Hilbert-transform score
function, and atom masses to well below the closed-form tolerances.
Quadrature handles the inverse-square-root edge behavior by the
substitution x = lo + (hi - lo) sin^2(theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from scipy.integrate import quad

from .distributions import (
    Family,
    FreeT,
    MeasureSpec,
    cauchy_eval,
    measure_of,
    support_of,
)
from .errors import OutsideSupport, QuadratureFailure

__all__ = [
    "EpsilonLadder",
    "DEFAULT_LADDER",
    "stieltjes_density",
    "hilbert_score",
    "potential_derivative",
    "atom_masses",
    "quadrature_moment",
    "t_density_limits",
]


@dataclass(frozen=True)
class EpsilonLadder:
    """Strictly decreasing positive offsets, extrapolated to zero."""

    values: tuple[float, ...] = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if any(v <= 0 for v in vals) or any(
            vals[i] <= vals[i + 1] for i in range(len(vals) - 1)
        ):
            raise ValueError("ladder must be strictly decreasing, positive")
        object.__setattr__(self, "values", vals)


DEFAULT_LADDER = EpsilonLadder()


def _extrapolate(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Neville's polynomial extrapolation of (xs, ys) to x = 0."""
    tab = list(ys)
    n = len(tab)
    for level in range(1, n):
        for i in range(n - level):
            x0, x1 = xs[i], xs[i + level]
            tab[i] = (x1 * tab[i] - x0 * tab[i + 1]) / (x1 - x0)
    return tab[0]


def _require_interior(f: Family, x: float) -> None:
    lo, hi = support_of(f)
    if not lo < x < hi:
        raise OutsideSupport(f"{x} not strictly inside [{lo}, {hi}]")


def stieltjes_density(
    f: Family, x: float, ladder: EpsilonLadder = DEFAULT_LADDER
) -> float:
    """density(x) = -(1/pi) * lim Im G(x + i*eps), extrapolated to eps = 0."""
    _require_interior(f, x)
    vals = [
        -cauchy_eval(f, complex(x, eps)).imag / math.pi
        for eps in ladder.values
    ]
    return _extrapolate(ladder.values, vals)


def hilbert_score(
    f: Family, x: float, ladder: EpsilonLadder = DEFAULT_LADDER
) -> float:
    """The free score 2*H(x): twice the boundary real part of G."""
    _require_interior(f, x)
    vals = [
        2 * cauchy_eval(f, complex(x, eps)).real for eps in ladder.values
    ]
    return _extrapolate(ladder.values, vals)


def potential_derivative(f: Family, x: float) -> float:
    """Closed-form V'(x) of the classical potential matched by the score."""
    return f._v_prime(x)


_ATOM_LADDER = (1e-3, 3e-4, 1e-4, 3e-5, 1e-5)


def atom_masses(f: Family, threshold: float = 1e-9) -> list[tuple[float, float]]:
    """Atom locations and masses by the limit y*|G(x0 + iy)|, y -> 0+.

    Candidate locations come from the closed forms (0, 1, Meixner poles);
    the limit is extrapolated in y and masses below ``threshold`` are
    treated as removable singularities and dropped.
    """
    out = []
    for x0 in f._atom_sites:
        vals = [
            y * abs(cauchy_eval(f, complex(x0, y))) for y in _ATOM_LADDER
        ]
        mass = _extrapolate(_ATOM_LADDER, vals)
        if mass > threshold:
            out.append((x0, mass))
    return out


def quadrature_moment(
    spec: MeasureSpec,
    n: int,
    rel_tol: float = 1e-9,
) -> float:
    """integral of x^n over the measure: quadrature + atom sum.

    The substitution x = lo + (hi - lo) sin^2(theta) absorbs the
    inverse-square-root edge singularities of the densities, leaving a
    smooth integrand on [0, pi/2].
    """
    lo, hi = spec.support
    width = hi - lo

    def integrand(theta: float) -> float:
        s = math.sin(theta)
        x = lo + width * s * s
        return spec.density(x) * width * math.sin(2 * theta) * x ** n

    value, err = quad(integrand, 0.0, math.pi / 2, limit=200,
                      epsabs=1e-12, epsrel=rel_tol)
    if err > max(1e-9, abs(value) * 1e-6):
        raise QuadratureFailure(
            f"estimated error {err} too large for moment {n}"
        )
    for loc, mass in spec.atoms:
        value += mass * loc ** n
    return value


def t_density_limits(
    x_grid: Sequence[float] | None = None,
    m_large=Fraction(10_000),
    m_near_one=Fraction(1_000_001, 1_000_000),
) -> dict[str, float]:
    """Sup-norm distances of the free T density from its two limit laws.

    For large m the density approaches the semicircle; for m near 1 it
    approaches the standard Cauchy density.  Both are compared on a grid
    interior to the semicircle support.
    """
    if x_grid is None:
        x_grid = [-1.9 + k * 3.8 / 380 for k in range(381)]
    semi = measure_of(FreeT(m_large))
    cauchy = measure_of(FreeT(m_near_one))
    sup_semi = max(
        abs(semi.density(x) - math.sqrt(4 - x * x) / (2 * math.pi))
        for x in x_grid
    )
    sup_cauchy = max(
        abs(cauchy.density(x) - 1 / (math.pi * (1 + x * x)))
        for x in x_grid
    )
    return {
        "m_large": float(m_large),
        "m_near_one": float(m_near_one),
        "sup_semicircle": sup_semi,
        "sup_cauchy": sup_cauchy,
    }

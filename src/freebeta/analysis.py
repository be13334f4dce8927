"""Numerical measure-level verification.

Boundary limits of the Cauchy transform are taken along a ladder of
imaginary offsets with polynomial (Richardson/Neville) extrapolation to
zero, recovering the Stieltjes density, the Hilbert-transform score
function, and atom masses to well below the closed-form tolerances.
Quadrature handles the inverse-square-root edge behavior by the
substitution x = lo + (hi - lo) sin^2(theta), then integrates by the
adaptive Gauss-Kronrod 7/15 rule of QUADPACK (Piessens et al., 1983).
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .distributions import (
    _REAL_TOL,
    Family,
    FreeT,
    MeasureSpec,
    cauchy_eval,
    measure_of,
    support_of,
)
from .errors import FreeBetaError

# Imaginary offsets of the boundary limits, extrapolated to zero: the
# density and score ladder, and the ladder of the atom limit y*|G(x0 + iy)|.
_LADDER = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
_ATOM_LADDER = (1e-3, 3e-4, 1e-4, 3e-5, 1e-5)
# Extrapolated masses at or below this are removable singularities.
_ATOM_THRESHOLD = 1e-9
_QUAD_REL_TOL, _QUAD_ABS_TOL, _QUAD_LIMIT = 1e-9, 1e-12, 200
# QUADPACK's qk15 constants: the 15 Kronrod nodes on [-1, 1], and the
# Kronrod (row 0) and embedded 7-point Gauss (row 1) weights of each node.
_XK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0])
_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_WG = np.array([
    0.0, 0.129484966168869693270611432679082,
    0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975,
    0.0, 0.417959183673469387755102040816327])
_GK_NODES = np.concatenate((-_XK, _XK[-2::-1]))
_GK_WEIGHTS = np.array([np.concatenate((w, w[-2::-1])) for w in (_WK, _WG)])
# The free T parameters and the grid of t_density_limits.
_T_M_LARGE = Fraction(10_000)
_T_M_NEAR_ONE = Fraction(1_000_001, 1_000_000)
_T_GRID = tuple(-1.9 + k * 3.8 / 380 for k in range(381))

__all__ = [
    "stieltjes_density",
    "hilbert_score",
    "potential_derivative",
    "score_grid",
    "atom_masses",
    "quadrature_moment",
    "t_density_limits",
]


def _extrapolate(xs: Sequence[float], ys: Sequence[complex]) -> complex:
    """Neville's polynomial extrapolation of (xs, ys) to x = 0."""
    tab = list(ys)
    n = len(tab)
    for level in range(1, n):
        for i in range(n - level):
            x0, x1 = xs[i], xs[i + level]
            tab[i] = (x1 * tab[i] - x0 * tab[i + 1]) / (x1 - x0)
    return tab[0]


def _boundary_g(f: Family, x: float) -> complex:
    """lim G(x + i*eps) as eps -> 0+, extrapolated along _LADDER.

    The ladder is scaled by min(1, d), d the distance to the nearest
    support edge, as in ``atom_masses``: near an edge the top rungs would
    otherwise reach past the edge's square-root branch.
    """
    lo, hi = support_of(f)
    if not lo < x < hi:
        raise FreeBetaError(f"{x} not strictly inside [{lo}, {hi}]")
    scale = min(1.0, x - lo, hi - x)
    eps = [e * scale for e in _LADDER]
    return _extrapolate(eps, [cauchy_eval(f, complex(x, e)) for e in eps])


def stieltjes_density(f: Family, x: float) -> float:
    """density(x) = -(1/pi) * lim Im G(x + i*eps), extrapolated to eps = 0."""
    return -_boundary_g(f, x).imag / math.pi


def hilbert_score(f: Family, x: float) -> float:
    """The free score 2*H(x): twice the boundary real part of G."""
    return 2 * _boundary_g(f, x).real


def potential_derivative(f: Family, x: float) -> float:
    """Closed-form V'(x) of the classical potential matched by the score."""
    return f._v_prime(x)


def score_grid(f: Family, points: int) -> list[tuple[float, float, float]]:
    """(x, 2H(x), V'(x)) at x = lo + (hi - lo) * i / (points + 1) for
    i = 1..points, evenly inside the continuous support [lo, hi]."""
    lo, hi = support_of(f)
    xs = (lo + (hi - lo) * i / (points + 1) for i in range(1, points + 1))
    return [(x, hilbert_score(f, x), potential_derivative(f, x)) for x in xs]


def atom_masses(f: Family) -> list[tuple[float, float]]:
    """Atom locations and masses by the limit y*|G(x0 + iy)|, y -> 0+.

    Candidate locations come from the closed forms (0, 1, Meixner poles);
    masses below ``_ATOM_THRESHOLD`` are removable singularities, dropped.
    The ladder is scaled by min(1, d), d the distance to the nearest
    support edge, to stay clear of the edge's square-root branch; a site
    on an edge (``_REAL_TOL``) is extrapolated in sqrt(y) instead of y.
    """
    lo, hi = support_of(f)
    out = []
    for x0 in f._atom_sites:
        d = min(abs(x0 - lo), abs(x0 - hi))
        on_edge = d <= _REAL_TOL * (1 + abs(x0))
        ys = [y * (1.0 if on_edge else min(1.0, d)) for y in _ATOM_LADDER]
        xs = [math.sqrt(y) for y in ys] if on_edge else ys
        vals = [y * abs(cauchy_eval(f, complex(x0, y))) for y in ys]
        mass = _extrapolate(xs, vals)
        if mass > _ATOM_THRESHOLD:
            out.append((x0, mass))
    return out


def _gk15(f: Callable[[float], float], a: float,
          b: float) -> tuple[float, float]:
    """The K15 value of the integral of f over [a, b] and |K15 - G7|."""
    half = (b - a) / 2
    fx = [f(t) for t in ((a + b) / 2 + half * _GK_NODES).tolist()]
    kronrod, gauss = half * (_GK_WEIGHTS @ fx)
    return float(kronrod), float(abs(kronrod - gauss))


def _adaptive_gk15(f: Callable[[float], float], a: float,
                   b: float) -> tuple[float, float]:
    """Integral of f over [a, b] and its error estimate, sum |K15 - G7|.

    Bisects the subinterval of largest error, up to _QUAD_LIMIT of them,
    until the estimate meets max(_QUAD_ABS_TOL, _QUAD_REL_TOL * |value|).
    """
    value, err = _gk15(f, a, b)
    heap = [(-err, a, b, value)]
    while (err > max(_QUAD_ABS_TOL, _QUAD_REL_TOL * abs(value))
           and len(heap) < _QUAD_LIMIT):
        neg_err, lo, hi, part = heapq.heappop(heap)
        mid = (lo + hi) / 2
        value -= part
        err += neg_err
        for left, right in ((lo, mid), (mid, hi)):
            sub, sub_err = _gk15(f, left, right)
            heapq.heappush(heap, (-sub_err, left, right, sub))
            value += sub
            err += sub_err
    return math.fsum(e[3] for e in heap), -math.fsum(e[0] for e in heap)


def quadrature_moment(spec: MeasureSpec, n: int) -> float:
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

    value, err = _adaptive_gk15(integrand, 0.0, math.pi / 2)
    if err > max(1e-9, abs(value) * 1e-6):
        raise FreeBetaError(f"estimated error {err} too large for moment {n}")
    for loc, mass in spec.atoms:
        value += mass * loc ** n
    return value


def t_density_limits() -> dict[str, float]:
    """Sup-norm distances of the free T density from its two limit laws.

    For large m the density approaches the semicircle; for m near 1 it
    approaches the standard Cauchy density.  Both are compared on a grid
    interior to the semicircle support.
    """
    semi = measure_of(FreeT(_T_M_LARGE))
    cauchy = measure_of(FreeT(_T_M_NEAR_ONE))
    sup_semi = max(
        abs(semi.density(x) - math.sqrt(4 - x * x) / (2 * math.pi))
        for x in _T_GRID
    )
    sup_cauchy = max(
        abs(cauchy.density(x) - 1 / (math.pi * (1 + x * x)))
        for x in _T_GRID
    )
    return {
        "m_large": float(_T_M_LARGE),
        "m_near_one": float(_T_M_NEAR_ONE),
        "sup_semicircle": sup_semi,
        "sup_cauchy": sup_cauchy,
    }

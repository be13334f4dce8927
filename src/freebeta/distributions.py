"""Closed-form distribution families: Cauchy transforms, densities, atoms.

Each family's Cauchy transform has the algebraic shape
``G(z) = (P(z) - sqrt(D(z))) / Q(z)`` with a quadratic discriminant D whose
two real roots are the support endpoints.  The square root is evaluated as
``sqrt(lead) * sqrt(z - e_plus) * sqrt(z - e_minus)`` with principal square
roots per factor: that function is analytic exactly off the support cut,
behaves like ``sqrt(lead) * z`` at infinity, and therefore selects the
branch with ``G(z) ~ 1/z`` and ``Im G < 0`` on the upper half-plane
deterministically — including on the real axis off the support, where the
transform is real.

Exact-rational moment sequences come from series-expanding the same closed
forms with :func:`freebeta.series.ps_sqrt`; the discriminants' constant
terms are rational squares, so no algebraic numbers appear.

Each family is one frozen dataclass of exact rational parameters carrying
its own pieces (Cauchy parameters, support, measure, moments, potential V',
atom sites); the functions here and in :mod:`freebeta.analysis` make one call
on it.  The free F, inverse free Poisson and free T delegate to a base law
by a dilation, a reciprocal and a symmetric square.  Densities, V', atom
sites and moment series are written out per family, never derived from the
Cauchy parameters, so checks against the Cauchy transform compare
independent routes.

The fields of a law are frozen, so it derives its closed-form Cauchy
parameters and its delegated base law once per instance, on first use, and
every later evaluation reads them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from typing import Callable

from .errors import FreeBetaError
from .series import PowerSeries, _poly, ps_sqrt
from .transforms import MomentSequence, _frac

__all__ = [
    "FreePoisson",
    "InverseFreePoisson",
    "FreeBetaPrime",
    "FreeF",
    "FreeT",
    "FreeBeta",
    "FreeMeixnerStd",
    "Family",
    "MeasureSpec",
    "MeixnerStandardization",
    "cauchy_eval",
    "measure_of",
    "support_of",
    "moment_series",
    "t_coeffs_of",
    "fbp_t_params",
    "standardize_to_meixner",
]


@dataclass(frozen=True)
class MeasureSpec:
    """Continuous density + support interval + finite atom list."""

    density: Callable[[float], float]
    support: tuple[float, float]
    atoms: tuple[tuple[float, float], ...]


# --------------------------------------------------------------------------
# Closed-form pieces: G = (P - sqrt(D)) / Q with D = lead*(z-e-)(z-e+)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Pieces:
    p0: float
    p1: float
    lead: float
    e_minus: float
    e_plus: float
    q: Callable[[complex], complex]
    poles: tuple[float, ...]


def _cut_sqrt(z: complex, lead: float, e_minus: float,
              e_plus: float) -> complex:
    """sqrt(lead*(z - e_minus)(z - e_plus)), analytic off [e_minus, e_plus].

    Positive on (e_plus, inf), negative on (-inf, e_minus), and asymptotic
    to sqrt(lead)*z — the branch every transform here needs.
    """
    return math.sqrt(lead) * cmath.sqrt(z - e_plus) * cmath.sqrt(z - e_minus)


def _eval_pieces(p: _Pieces, z: complex) -> complex:
    num = p.p1 * z + p.p0 - _cut_sqrt(z, p.lead, p.e_minus, p.e_plus)
    return num / p.q(z)


_REAL_TOL = 1e-12


def _guard_real(x: float, lo: float, hi: float,
                poles: tuple[float, ...] = ()) -> None:
    tol = _REAL_TOL * (1 + abs(x))
    if lo - tol <= x <= hi + tol:
        raise FreeBetaError(f"{x} lies on the support")
    for pole in poles:
        if abs(x - pole) <= tol:
            raise FreeBetaError(f"{x} is an atom/pole location")


def _measure_on(lo: float, hi: float, body: Callable[[float], float],
                atoms=()) -> MeasureSpec:
    """Density ``body`` on (lo, hi), plus the atoms of positive mass."""
    def density(x: float) -> float:
        if not lo < x < hi:
            return 0.0
        return body(x)

    return MeasureSpec(density, (lo, hi),
                       tuple(atom for atom in atoms if atom[1] > 0))


# --------------------------------------------------------------------------
# Families
# --------------------------------------------------------------------------

def _lacks(what: str):
    """The default of an operation some family lacks: raise FreeBetaError."""
    def missing(self, *args):
        raise FreeBetaError(f"{type(self).__name__} has no {what}")

    return missing


class Family:
    """Base class of the families, each a frozen dataclass.

    The fields are the parameters, coerced to ``Fraction`` and then checked
    by ``_check``.  The underscore members are the family's operations
    (``_atom_sites`` holds the candidate atom locations).  The defaults of
    ``_moments``, ``_t_coeffs`` and ``_v_prime`` raise FreeBetaError for a
    family without one; ``_cauchy`` and ``_support`` use ``_pieces``, which
    each family defines unless it overrides both.

    ``_pieces`` builds the closed-form parameters from the frozen fields;
    ``_params`` holds its result, built once per instance.  A delegating
    family likewise builds its base law (``_base``) once.  Both live in the
    instance dict, outside the fields, so ``repr``, ``==`` and ``hash`` see
    only the parameters, and pickling drops them.
    """

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _frac(getattr(self, f.name)))
        self._check()

    def __getstate__(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    _moments = _lacks("exact moment series")
    _t_coeffs = _lacks("T-coefficients")
    _v_prime = _lacks("classical potential")

    @cached_property
    def _params(self) -> _Pieces:
        return self._pieces()

    def _cauchy(self, z: complex) -> complex:
        """G on the closed upper half-plane, from the closed-form pieces."""
        p = self._params
        if z.imag == 0:
            _guard_real(z.real, p.e_minus, p.e_plus, p.poles)
            g = _eval_pieces(p, complex(z.real, 0.0))
            return complex(g.real, 0.0)
        return _eval_pieces(p, z)

    def _support(self) -> tuple[float, float]:
        p = self._params
        return p.e_minus, p.e_plus


@dataclass(frozen=True)
class FreePoisson(Family):
    """Marchenko–Pastur law with rate lam > 0."""

    lam: Fraction
    _atom_sites = (0.0,)

    def _check(self) -> None:
        if self.lam <= 0:
            raise FreeBetaError("free Poisson needs lam > 0")

    def _pieces(self) -> _Pieces:
        lam = float(self.lam)
        rt = math.sqrt(lam)
        return _Pieces(1 - lam, 1.0, 1.0, (1 - rt) ** 2, (1 + rt) ** 2,
                       lambda z: 2 * z, (0.0,))

    def _measure(self) -> MeasureSpec:
        lo, hi = support_of(self)
        return _measure_on(
            lo, hi,
            lambda x: math.sqrt(max(-(x - lo) * (x - hi), 0.0))
            / (2 * math.pi * x),
            [(0.0, 1 - float(self.lam))],
        )

    def _moments(self, order: int) -> MomentSequence:
        lam = self.lam
        n = order + 1
        disc = _poly(n, 1, -2 * (1 + lam), (1 - lam) ** 2)
        num = _poly(n, 0, 1 - lam) + _poly(n, 1) - ps_sqrt(disc)
        m = num.shift_down().scale(Fraction(1, 2))
        return MomentSequence(m.coefficients)


@dataclass(frozen=True)
class InverseFreePoisson(Family):
    """Law of the inverse of a free Poisson variable; needs b > 1.

    Delegates to FreePoisson(b) through the reciprocal x -> 1/x.
    """

    b: Fraction
    _atom_sites = ()

    def _check(self) -> None:
        if self.b <= 1:
            raise FreeBetaError("inverse free Poisson needs b > 1")

    @cached_property
    def _base(self) -> FreePoisson:
        return FreePoisson(self.b)

    def _cauchy(self, z: complex) -> complex:
        if z.imag == 0:
            _guard_real(z.real, *support_of(self))
            if abs(z.real) <= _REAL_TOL * (1 + abs(z.real)):
                return complex(-float(self.b), 0.0)  # exact limit at 0
        w = 1 / z
        # the reciprocal flips the half-plane; cauchy_eval conjugates back
        return 1 / z - (1 / (z * z)) * cauchy_eval(self._base, w)

    def _support(self) -> tuple[float, float]:
        lo, hi = support_of(self._base)
        return 1 / hi, 1 / lo

    def _measure(self) -> MeasureSpec:
        inner = measure_of(self._base)
        lo, hi = support_of(self)
        return _measure_on(lo, hi,
                           lambda x: inner.density(1 / x) / (x * x))

    def _moments(self, order: int) -> MomentSequence:
        # m_k = -[z^(k-1)] of the Taylor series at 0 of the free Poisson G
        b, n = self.b, order + 1
        disc = _poly(n, (1 - b) ** 2, -2 * (1 + b), 1)
        num = _poly(n, 1 - b, 1) + ps_sqrt(disc)
        g = num.shift_down().scale(Fraction(1, 2))
        m = _poly(order, 1) - g.truncate(order).shift_up()
        return MomentSequence(m.coefficients)


def fbp_t_params(a, b) -> tuple[Fraction, Fraction, Fraction]:
    """The (s, t, u) parameters of the free beta prime T-transform.

    alpha_0 = s = a/(b-1); alpha_k = t*u^k for k >= 1 with
    t = (a+b-1)/(b-1) and u = 1/(b-1).
    """
    fam = FreeBetaPrime(a, b)
    a, b = fam.a, fam.b
    return a / (b - 1), (a + b - 1) / (b - 1), 1 / (b - 1)


@dataclass(frozen=True)
class FreeBetaPrime(Family):
    """Free beta prime law, the free multiplicative ratio of Poissons."""

    a: Fraction
    b: Fraction
    _atom_sites = (0.0,)

    def _check(self) -> None:
        if self.a <= 0 or self.b <= 1:
            raise FreeBetaError("free beta prime needs a > 0, b > 1")

    def _pieces(self) -> _Pieces:
        a, b = float(self.a), float(self.b)
        ra = math.sqrt(float(self.a * self.b))
        rb = math.sqrt(float(self.a + self.b - 1))
        den = float(self.b - 1)
        return _Pieces(1 - a, b + 1, (b - 1) ** 2,
                       ((ra - rb) / den) ** 2, ((ra + rb) / den) ** 2,
                       lambda z: 2 * z * (1 + z), (0.0, -1.0))

    def _measure(self) -> MeasureSpec:
        a, b = float(self.a), float(self.b)
        lo, hi = support_of(self)
        return _measure_on(
            lo, hi,
            lambda x: (b - 1) * math.sqrt(max(-(x - lo) * (x - hi), 0.0))
            / (2 * math.pi * x * (1 + x)),
            [(0.0, 1 - a)],
        )

    def _moments(self, order: int) -> MomentSequence:
        a, b = self.a, self.b
        disc = (_poly(order, b - 1, -(1 + a)) * _poly(order, b - 1, -(1 + a))
                - _poly(order, 0, 4 * a) * _poly(order, 1, 1))
        num = _poly(order, b + 1, 1 - a) - ps_sqrt(disc)
        m = num / _poly(order, 2, 2)
        return MomentSequence(m.coefficients)

    def _t_coeffs(self, order: int) -> PowerSeries:
        s, t, u = fbp_t_params(self.a, self.b)
        return PowerSeries(
            (s,) + tuple(t * u ** k for k in range(1, order + 1))
        )

    def _v_prime(self, x: float) -> float:
        if x <= 0:
            raise FreeBetaError("the beta prime potential lives on x > 0")
        a, b = float(self.a), float(self.b)
        return ((b + 1) * x + (1 - a)) / (x * (1 + x))


@dataclass(frozen=True)
class FreeF(Family):
    """Free F law: the free beta prime dilated by b/a."""

    a: Fraction
    b: Fraction
    _atom_sites = (0.0,)

    def _check(self) -> None:
        if self.a <= 0 or self.b <= 1:
            raise FreeBetaError("free F needs a > 0, b > 1")

    @cached_property
    def _base(self) -> FreeBetaPrime:
        return FreeBetaPrime(self.a, self.b)

    def _cauchy(self, z: complex) -> complex:
        c = float(self.a) / float(self.b)
        return c * cauchy_eval(self._base, c * z)

    def _support(self) -> tuple[float, float]:
        lo, hi = support_of(self._base)
        c = float(self.b) / float(self.a)
        return c * lo, c * hi

    def _measure(self) -> MeasureSpec:
        inner = measure_of(self._base)
        c = float(self.a) / float(self.b)  # x -> c*x maps back to the base
        lo, hi = support_of(self)
        return _measure_on(lo, hi, lambda x: c * inner.density(c * x),
                           inner.atoms)

    def _moments(self, order: int) -> MomentSequence:
        base = moment_series(self._base, order)
        c = self.b / self.a
        return MomentSequence(
            tuple(c ** k * base[k] for k in range(order + 1))
        )


@dataclass(frozen=True)
class FreeT(Family):
    """Free T law with m > 1 degrees of freedom; symmetric."""

    m: Fraction
    _atom_sites = ()

    def _check(self) -> None:
        if self.m <= 1:
            raise FreeBetaError("free T needs m > 1")

    def _pieces(self) -> _Pieces:
        m = float(self.m)
        edge = 2 * m / (m - 1)
        return _Pieces(0.0, m + 1, (m - 1) ** 2, -edge, edge,
                       lambda z: 2 * (m + z * z), ())

    def _measure(self) -> MeasureSpec:
        m = float(self.m)
        lo, hi = support_of(self)
        ratio = (m - 1) / m
        return _measure_on(
            lo, hi,
            lambda x: math.sqrt(max(4 - (ratio * x) ** 2, 0.0))
            / (2 * math.pi * (1 + x * x / m)),
        )

    def _moments(self, order: int) -> MomentSequence:
        # the square of a free T variable is m times a free beta prime(1, m)
        half = moment_series(FreeBetaPrime(Fraction(1), self.m), order // 2)
        return MomentSequence(tuple(
            self.m ** (k // 2) * half[k // 2] if k % 2 == 0 else Fraction(0)
            for k in range(order + 1)
        ))

    def _v_prime(self, x: float) -> float:
        m = float(self.m)
        return (m + 1) * x / (m + x * x)


@dataclass(frozen=True)
class FreeBeta(Family):
    """Free beta law on [0, 1]; needs a, b > 0 with a + b > 1."""

    a: Fraction
    b: Fraction
    _atom_sites = (0.0, 1.0)

    def _check(self) -> None:
        if self.a <= 0 or self.b <= 0 or self.a + self.b <= 1:
            raise FreeBetaError("free beta needs a, b > 0, a + b > 1")

    def _pieces(self) -> _Pieces:
        a, b = float(self.a), float(self.b)
        ra = math.sqrt(float(self.a * (self.a + self.b - 1)))
        rb = math.sqrt(float(self.b))
        den = float(self.a + self.b)
        return _Pieces(1 - a, a + b - 2, (a + b) ** 2,
                       ((ra - rb) / den) ** 2, ((ra + rb) / den) ** 2,
                       lambda z: 2 * z * (1 - z), (0.0, 1.0))

    def _measure(self) -> MeasureSpec:
        a, b = float(self.a), float(self.b)
        lo, hi = support_of(self)
        return _measure_on(
            lo, hi,
            lambda x: (a + b) * math.sqrt(max(-(x - lo) * (x - hi), 0.0))
            / (2 * math.pi * x * (1 - x)),
            [(0.0, 1 - a), (1.0, 1 - b)],
        )

    def _moments(self, order: int) -> MomentSequence:
        a, b = self.a, self.b
        mid = a * b + a * a - a + b
        disc = _poly(order, (a + b) ** 2, -2 * mid, (a - 1) ** 2)
        num = _poly(order, a + b - 2, 1 - a) - ps_sqrt(disc)
        m = num / _poly(order, -2, 2)
        return MomentSequence(m.coefficients)

    def _v_prime(self, x: float) -> float:
        if not 0 < x < 1:
            raise FreeBetaError("the beta potential lives on 0 < x < 1")
        a, b = float(self.a), float(self.b)
        return ((a + b - 2) * x + (1 - a)) / (x * (1 - x))


@dataclass(frozen=True)
class FreeMeixnerStd(Family):
    """Standardized free Meixner law with shape (theta, tau), tau >= -1."""

    theta: Fraction
    tau: Fraction

    def _check(self) -> None:
        if self.tau < -1:
            raise FreeBetaError("free Meixner needs tau >= -1")

    def _poles(self) -> tuple[float, ...]:
        # real roots of tau z^2 + theta z + 1, counted in exact arithmetic
        theta, tau = self.theta, self.tau
        if tau == 0:
            return (-1 / float(theta),) if theta != 0 else ()
        disc = theta * theta - 4 * tau
        if disc < 0:
            return ()
        # at disc = 0, r = 0 and the double root is one float
        th, tau, r = float(theta), float(tau), math.sqrt(disc)
        return tuple(sorted({(-th - r) / (2 * tau), (-th + r) / (2 * tau)}))

    def _pieces(self) -> _Pieces:
        th, tau = float(self.theta), float(self.tau)
        half = 2 * math.sqrt(1 + tau)
        return _Pieces(th, 1 + 2 * tau, 1.0, th - half, th + half,
                       lambda z: 2 * (tau * z * z + th * z + 1),
                       self._poles())

    def _measure(self) -> MeasureSpec:
        p = self._params
        lo, hi = p.e_minus, p.e_plus
        th, tau = float(self.theta), float(self.tau)

        def body(x: float) -> float:
            return math.sqrt(max(4 * (1 + tau) - (x - th) ** 2, 0.0)) / (
                2 * math.pi * (tau * x * x + th * x + 1)
            )

        atoms = []
        for pole in p.poles:
            if lo < pole < hi:
                continue
            # residue of (P - sqrt(D))/Q at a real pole of Q.  At a root of
            # Q, P^2 = D, so P - sqrt(D) is exactly 0 or 2P: decide by sign,
            # since the float difference leaves a rounding residue that a
            # near-double root would divide into a spurious atom.  At a
            # double root (theta^2 = 4 tau) P = sqrt(D), and G has no atom.
            pv = p.p1 * pole + p.p0
            if pv * _cut_sqrt(complex(pole, 0.0), p.lead, lo, hi).real >= 0:
                continue
            mass = pv / (2 * tau * pole + th)  # 2P / Q'
            if mass > 1e-12:
                atoms.append((pole, mass))
        return _measure_on(lo, hi, body, atoms)

    @property
    def _atom_sites(self) -> tuple[float, ...]:
        return tuple(loc for loc, _ in measure_of(self).atoms)


# --------------------------------------------------------------------------
# The family operations
# --------------------------------------------------------------------------

def cauchy_eval(f: Family, z: complex) -> complex:
    """G(z) = integral of dmu(x)/(z - x), on either half-plane or off-support.

    Real z strictly off the support (and away from pole locations) is
    evaluated as the boundary limit, which is real.
    """
    z = complex(z)
    if z.imag < 0:
        return cauchy_eval(f, z.conjugate()).conjugate()
    return f._cauchy(z)


def support_of(f: Family) -> tuple[float, float]:
    """Endpoints of the continuous support."""
    return f._support()


def measure_of(f: Family) -> MeasureSpec:
    """The measure: closed-form continuous density, support, atom list."""
    return f._measure()


def moment_series(f: Family, order: int) -> MomentSequence:
    """Exact rational moments m_0..m_order from the closed forms."""
    return f._moments(order)


def t_coeffs_of(f: FreeBetaPrime, order: int) -> PowerSeries:
    """T(z) = 1/S(z) = sum alpha_k z^k: alpha_0 = s, alpha_k = t*u^k."""
    return f._t_coeffs(order)


# --------------------------------------------------------------------------
# Meixner standardization
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MeixnerStandardization:
    """Standardization data of a free beta prime variable.

    ``theta_sq`` and ``discriminant`` (= theta_sq - 4 tau) are exact; theta
    itself involves a square root and is reported as a float.
    """

    theta: float
    tau: Fraction
    theta_sq: Fraction
    discriminant: Fraction
    mean: Fraction
    variance: Fraction

    def classify(self) -> str:
        """Class label, decided from the exact theta_sq and tau."""
        return _meixner_class(self.theta_sq, self.tau)


def standardize_to_meixner(a, b) -> MeixnerStandardization:
    """Shape parameters of the standardized free beta prime law."""
    fam = FreeBetaPrime(a, b)
    a, b = fam.a, fam.b
    mean = a / (b - 1)
    variance = a * (a + b - 1) / (b - 1) ** 3
    theta_sq = (2 * a + b - 1) ** 2 / (a * (a + b - 1) * (b - 1))
    tau = 1 / (b - 1)
    return MeixnerStandardization(
        theta=math.sqrt(float(theta_sq)),
        tau=tau,
        theta_sq=theta_sq,
        discriminant=theta_sq - 4 * tau,
        mean=mean,
        variance=variance,
    )


def _meixner_class(theta_sq: Fraction, tau: Fraction) -> str:
    if tau < -1:
        raise FreeBetaError("tau must be >= -1")
    if tau < 0:
        return "free binomial"
    if tau == 0:
        return "semicircle" if theta_sq == 0 else "free Poisson"
    disc = theta_sq - 4 * tau
    if disc > 0:
        return "free negative binomial"
    if disc == 0:
        return "free gamma"
    return "pure free Meixner"

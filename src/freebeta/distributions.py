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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

from .errors import (
    InvalidParameters,
    InvalidTau,
    OnSupportError,
    UnsupportedFamily,
)
from .series import PowerSeries, ps_sqrt
from .transforms import MomentSequence, TCoefficients
from .ncl import fbp_t_params

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
    "s_transform_of",
    "t_coeffs_of",
    "standardize_to_meixner",
    "classify_meixner",
]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


# --------------------------------------------------------------------------
# Families
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FreePoisson:
    """Marchenko–Pastur law with rate lam > 0."""

    lam: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lam", _frac(self.lam))
        if self.lam <= 0:
            raise InvalidParameters("free Poisson needs lam > 0")


@dataclass(frozen=True)
class InverseFreePoisson:
    """Law of the inverse of a free Poisson variable; needs b > 1."""

    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "b", _frac(self.b))
        if self.b <= 1:
            raise InvalidParameters("inverse free Poisson needs b > 1")


@dataclass(frozen=True)
class FreeBetaPrime:
    """Free beta prime law, the free multiplicative ratio of Poissons."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", _frac(self.a))
        object.__setattr__(self, "b", _frac(self.b))
        if self.a <= 0 or self.b <= 1:
            raise InvalidParameters("free beta prime needs a > 0, b > 1")


@dataclass(frozen=True)
class FreeF:
    """Free F law: the free beta prime dilated by b/a."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", _frac(self.a))
        object.__setattr__(self, "b", _frac(self.b))
        if self.a <= 0 or self.b <= 1:
            raise InvalidParameters("free F needs a > 0, b > 1")


@dataclass(frozen=True)
class FreeT:
    """Free T law with m > 1 degrees of freedom; symmetric."""

    m: Fraction

    def __post_init__(self):
        object.__setattr__(self, "m", _frac(self.m))
        if self.m <= 1:
            raise InvalidParameters("free T needs m > 1")


@dataclass(frozen=True)
class FreeBeta:
    """Free beta law on [0, 1]; needs a, b > 0 with a + b > 1."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", _frac(self.a))
        object.__setattr__(self, "b", _frac(self.b))
        if self.a <= 0 or self.b <= 0 or self.a + self.b <= 1:
            raise InvalidParameters("free beta needs a, b > 0, a + b > 1")


@dataclass(frozen=True)
class FreeMeixnerStd:
    """Standardized free Meixner law with shape (theta, tau), tau >= -1."""

    theta: float
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "tau", float(self.tau))
        if self.tau < -1:
            raise InvalidTau("free Meixner needs tau >= -1")


Family = Union[
    FreePoisson, InverseFreePoisson, FreeBetaPrime, FreeF, FreeT,
    FreeBeta, FreeMeixnerStd,
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


def _pieces(f: Family) -> _Pieces:
    if isinstance(f, FreePoisson):
        lam = float(f.lam)
        rt = math.sqrt(lam)
        return _Pieces(1 - lam, 1.0, 1.0, (1 - rt) ** 2, (1 + rt) ** 2,
                       lambda z: 2 * z, (0.0,))
    if isinstance(f, FreeBetaPrime):
        a, b = float(f.a), float(f.b)
        gm, gp = _fbp_endpoints(f.a, f.b)
        return _Pieces(1 - a, b + 1, (b - 1) ** 2, gm, gp,
                       lambda z: 2 * z * (1 + z), (0.0, -1.0))
    if isinstance(f, FreeT):
        m = float(f.m)
        edge = 2 * m / (m - 1)
        return _Pieces(0.0, m + 1, (m - 1) ** 2, -edge, edge,
                       lambda z: 2 * (m + z * z), ())
    if isinstance(f, FreeBeta):
        a, b = float(f.a), float(f.b)
        km, kp = _fbeta_endpoints(f.a, f.b)
        return _Pieces(1 - a, a + b - 2, (a + b) ** 2, km, kp,
                       lambda z: 2 * z * (1 - z), (0.0, 1.0))
    if isinstance(f, FreeMeixnerStd):
        th, tau = f.theta, f.tau
        half = 2 * math.sqrt(1 + tau)
        return _Pieces(th, 1 + 2 * tau, 1.0, th - half, th + half,
                       lambda z: 2 * (tau * z * z + th * z + 1),
                       _meixner_poles(th, tau))
    raise UnsupportedFamily(f"{type(f).__name__} has no direct closed form")


def _fbp_endpoints(a: Fraction, b: Fraction) -> tuple[float, float]:
    ra = math.sqrt(float(a * b))
    rb = math.sqrt(float(a + b - 1))
    den = float(b - 1)
    return ((ra - rb) / den) ** 2, ((ra + rb) / den) ** 2


def _fbeta_endpoints(a: Fraction, b: Fraction) -> tuple[float, float]:
    ra = math.sqrt(float(a * (a + b - 1)))
    rb = math.sqrt(float(b))
    den = float(a + b)
    return ((ra - rb) / den) ** 2, ((ra + rb) / den) ** 2


def _meixner_poles(theta: float, tau: float) -> tuple[float, ...]:
    # real roots of tau z^2 + theta z + 1
    if tau == 0:
        return (-1 / theta,) if theta != 0 else ()
    disc = theta * theta - 4 * tau
    if disc < 0:
        return ()
    r = math.sqrt(disc)
    return tuple(sorted(((-theta - r) / (2 * tau), (-theta + r) / (2 * tau))))


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


def _guard_real(z: float, p: _Pieces) -> None:
    tol = _REAL_TOL * (1 + abs(z))
    if p.e_minus - tol <= z <= p.e_plus + tol:
        raise OnSupportError(f"{z} lies on the support")
    for pole in p.poles:
        if abs(z - pole) <= tol:
            raise OnSupportError(f"{z} is an atom/pole location")


def cauchy_eval(f: Family, z: complex) -> complex:
    """G(z) = integral of dmu(x)/(z - x), on either half-plane or off-support.

    Real z strictly off the support (and away from pole locations) is
    evaluated as the boundary limit, which is real.
    """
    z = complex(z)
    if z.imag < 0:
        return cauchy_eval(f, z.conjugate()).conjugate()
    if isinstance(f, FreeF):
        c = float(f.a) / float(f.b)
        return c * cauchy_eval(FreeBetaPrime(f.a, f.b), c * z)
    if isinstance(f, InverseFreePoisson):
        lo, hi = support_of(f)
        if z.imag == 0:
            x = z.real
            tol = _REAL_TOL * (1 + abs(x))
            if lo - tol <= x <= hi + tol:
                raise OnSupportError(f"{x} lies on the support")
            if abs(x) <= tol:
                return complex(-float(f.b), 0.0)  # exact limit at 0
        w = 1 / z
        # the reciprocal flips the half-plane; the recursion conjugates back
        return 1 / z - (1 / (z * z)) * cauchy_eval(FreePoisson(f.b), w)
    p = _pieces(f)
    if z.imag == 0:
        _guard_real(z.real, p)
        g = _eval_pieces(p, complex(z.real, 0.0))
        return complex(g.real, 0.0)
    return _eval_pieces(p, z)


# --------------------------------------------------------------------------
# Measures
# --------------------------------------------------------------------------

def support_of(f: Family) -> tuple[float, float]:
    """Endpoints of the continuous support."""
    if isinstance(f, FreeF):
        lo, hi = support_of(FreeBetaPrime(f.a, f.b))
        c = float(f.b) / float(f.a)
        return c * lo, c * hi
    if isinstance(f, InverseFreePoisson):
        lo, hi = support_of(FreePoisson(f.b))
        return 1 / hi, 1 / lo
    p = _pieces(f)
    return p.e_minus, p.e_plus


def _interval_density(
    lo: float, hi: float, body: Callable[[float], float]
) -> Callable[[float], float]:
    def density(x: float) -> float:
        if not lo < x < hi:
            return 0.0
        return body(x)

    return density


def measure_of(f: Family) -> MeasureSpec:
    """The measure: closed-form continuous density, support, atom list."""
    if isinstance(f, FreePoisson):
        lam = float(f.lam)
        lo, hi = support_of(f)
        dens = _interval_density(
            lo, hi,
            lambda x: math.sqrt(max(-(x - lo) * (x - hi), 0.0))
            / (2 * math.pi * x),
        )
        atom = max(1 - lam, 0.0)
        atoms = ((0.0, atom),) if atom > 0 else ()
        return MeasureSpec(dens, (lo, hi), atoms)
    if isinstance(f, InverseFreePoisson):
        inner = measure_of(FreePoisson(f.b))
        lo, hi = support_of(f)
        dens = _interval_density(
            lo, hi, lambda x: inner.density(1 / x) / (x * x)
        )
        return MeasureSpec(dens, (lo, hi), ())
    if isinstance(f, FreeBetaPrime):
        a, b = float(f.a), float(f.b)
        lo, hi = support_of(f)
        dens = _interval_density(
            lo, hi,
            lambda x: (b - 1) * math.sqrt(max(-(x - lo) * (x - hi), 0.0))
            / (2 * math.pi * x * (1 + x)),
        )
        atom = max(1 - a, 0.0)
        atoms = ((0.0, atom),) if atom > 0 else ()
        return MeasureSpec(dens, (lo, hi), atoms)
    if isinstance(f, FreeF):
        inner = measure_of(FreeBetaPrime(f.a, f.b))
        c = float(f.a) / float(f.b)  # x -> c*x maps back to the fbp scale
        lo, hi = support_of(f)
        dens = _interval_density(lo, hi, lambda x: c * inner.density(c * x))
        return MeasureSpec(dens, (lo, hi), inner.atoms)
    if isinstance(f, FreeT):
        m = float(f.m)
        lo, hi = support_of(f)
        ratio = (m - 1) / m
        dens = _interval_density(
            lo, hi,
            lambda x: math.sqrt(max(4 - (ratio * x) ** 2, 0.0))
            / (2 * math.pi * (1 + x * x / m)),
        )
        return MeasureSpec(dens, (lo, hi), ())
    if isinstance(f, FreeBeta):
        a, b = float(f.a), float(f.b)
        lo, hi = support_of(f)
        dens = _interval_density(
            lo, hi,
            lambda x: (a + b) * math.sqrt(max(-(x - lo) * (x - hi), 0.0))
            / (2 * math.pi * x * (1 - x)),
        )
        atoms = []
        if a < 1:
            atoms.append((0.0, 1 - a))
        if b < 1:
            atoms.append((1.0, 1 - b))
        return MeasureSpec(dens, (lo, hi), tuple(atoms))
    if isinstance(f, FreeMeixnerStd):
        p = _pieces(f)
        lo, hi = p.e_minus, p.e_plus
        th, tau = f.theta, f.tau

        def body(x: float) -> float:
            return math.sqrt(max(4 * (1 + tau) - (x - th) ** 2, 0.0)) / (
                2 * math.pi * (tau * x * x + th * x + 1)
            )

        atoms = []
        for pole in p.poles:
            if lo < pole < hi:
                continue
            # residue of (P - sqrt(D))/Q at a simple real pole of Q
            num = (p.p1 * pole + p.p0
                   - _cut_sqrt(complex(pole, 0.0), p.lead, lo, hi).real)
            dq = 2 * (2 * tau * pole + th)
            mass = num / dq
            if mass > 1e-12:
                atoms.append((pole, mass))
        return MeasureSpec(
            _interval_density(lo, hi, body), (lo, hi), tuple(atoms)
        )
    raise UnsupportedFamily(f"no measure for {type(f).__name__}")


# --------------------------------------------------------------------------
# Exact moment sequences by series-expanding the closed forms
# --------------------------------------------------------------------------

def _poly(n: int, *coeffs) -> PowerSeries:
    return PowerSeries.from_coefficients(
        list(coeffs) + [0] * (n + 1 - len(coeffs))
    )


def _mp_taylor_g(b: Fraction, order: int) -> PowerSeries:
    """Taylor series at 0 of the free Poisson Cauchy transform, b > 1."""
    n = order + 1
    disc = _poly(n, (1 - b) ** 2, -2 * (1 + b), 1)
    num = _poly(n, 1 - b, 1) - ps_sqrt(disc, branch=-1)
    return num.shift_down().scale(Fraction(1, 2))


def moment_series(f: Family, order: int) -> MomentSequence:
    """Exact rational moments m_0..m_order from the closed forms."""
    if isinstance(f, FreePoisson):
        lam = f.lam
        n = order + 1
        disc = _poly(n, 1, -2 * (1 + lam), (1 - lam) ** 2)
        num = _poly(n, 0, 1 - lam) + _poly(n, 1) - ps_sqrt(disc, branch=1)
        m = num.shift_down().scale(Fraction(1, 2))
        return MomentSequence(m.coefficients)
    if isinstance(f, InverseFreePoisson):
        g = _mp_taylor_g(f.b, order)
        m = _poly(order, 1) - g.truncate(order).shift_up()
        return MomentSequence(m.coefficients)
    if isinstance(f, FreeBetaPrime):
        a, b = f.a, f.b
        disc = (_poly(order, b - 1, -(1 + a)) * _poly(order, b - 1, -(1 + a))
                - _poly(order, 0, 4 * a) * _poly(order, 1, 1))
        num = _poly(order, b + 1, 1 - a) - ps_sqrt(disc, branch=1)
        m = num / _poly(order, 2, 2)
        return MomentSequence(m.coefficients)
    if isinstance(f, FreeF):
        base = moment_series(FreeBetaPrime(f.a, f.b), order)
        c = f.b / f.a
        return MomentSequence(
            tuple(c ** k * base[k] for k in range(order + 1))
        )
    if isinstance(f, FreeT):
        # the square of a free T variable is m times a free beta prime(1, m)
        half = moment_series(FreeBetaPrime(Fraction(1), f.m), order // 2)
        out = []
        for k in range(order + 1):
            out.append(f.m ** (k // 2) * half[k // 2] if k % 2 == 0
                       else Fraction(0))
        return MomentSequence(tuple(out))
    if isinstance(f, FreeBeta):
        a, b = f.a, f.b
        mid = a * b + a * a - a + b
        disc = _poly(order, (a + b) ** 2, -2 * mid, (a - 1) ** 2)
        num = _poly(order, a + b - 2, 1 - a) - ps_sqrt(disc, branch=1)
        m = num / _poly(order, -2, 2)
        return MomentSequence(m.coefficients)
    raise UnsupportedFamily(
        f"no exact moment series for {type(f).__name__}"
    )


# --------------------------------------------------------------------------
# S/T transforms and Meixner standardization
# --------------------------------------------------------------------------

def s_transform_of(f: Family, order: int) -> PowerSeries:
    """Series expansion of the closed-form S-transform."""
    if isinstance(f, FreePoisson):
        return _poly(order, 1) / _poly(order, f.lam, 1)
    if isinstance(f, InverseFreePoisson):
        return _poly(order, f.b - 1, -1)
    if isinstance(f, FreeBetaPrime):
        return _poly(order, f.b - 1, -1) / _poly(order, f.a, 1)
    if isinstance(f, FreeF):
        base = s_transform_of(FreeBetaPrime(f.a, f.b), order)
        return base.scale(f.a / f.b)  # dilation by c divides S by c
    raise UnsupportedFamily(
        f"S-transform not provided for {type(f).__name__}"
    )


def t_coeffs_of(f: FreeBetaPrime, order: int) -> TCoefficients:
    """Exact T-transform coefficients alpha_0 = s, alpha_k = t*u^k."""
    if not isinstance(f, FreeBetaPrime):
        raise UnsupportedFamily("T-coefficients are for the free beta prime")
    s, t, u = fbp_t_params(f.a, f.b)
    return TCoefficients(
        (s,) + tuple(t * u ** k for k in range(1, order + 1))
    )


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
    a, b = _frac(a), _frac(b)
    if a <= 0 or b <= 1:
        raise InvalidParameters("need a > 0 and b > 1")
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


_CLASS_LABELS = (
    "semicircle",
    "free Poisson",
    "free negative binomial",
    "free gamma",
    "pure free Meixner",
    "free binomial",
)


def classify_meixner(theta, tau) -> str:
    """Class label of the free Meixner law with shape (theta, tau).

    Float inputs are converted exactly, so the label is decided in exact
    arithmetic on the values given.
    """
    return _meixner_class(_frac(theta) ** 2, _frac(tau))


def _meixner_class(theta_sq: Fraction, tau: Fraction) -> str:
    if tau < -1:
        raise InvalidTau("tau must be >= -1")
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

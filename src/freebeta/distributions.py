"""Closed-form distribution families: Cauchy transforms, densities, atoms.

Each family's Cauchy transform has the algebraic shape
``G(z) = (P(z) - c sqrt((z - e_minus)(z - e_plus))) / Q(z)``: the support
endpoints are the roots under the square root, and c is the law's own exact
coefficient (1, b - 1, m - 1 or a + b), kept as it is and never squared.  The
root is evaluated as ``c * sqrt(z - e_plus) * sqrt(z - e_minus)`` with
principal square roots per factor: that function is analytic exactly off the
support cut, behaves like ``c * z`` at infinity, and therefore selects the
branch with ``G(z) ~ 1/z`` and ``Im G < 0`` on the upper half-plane
deterministically.  Each family evaluates its closed form on the open upper
half-plane only; :func:`cauchy_eval` refuses a real z and conjugates the
lower half-plane.

Exact-rational moments come from the same closed forms, written in exact
coefficients as the quadratic A(w) M^2 - B(w) M + C = 0 that
M(w) = G(1/w)/w solves, by one helper that reads each moment off it as one
rational quotient, so no algebraic numbers appear.

Each family is one frozen dataclass of exact rational parameters carrying
its own pieces (Cauchy parameters, measure, moments, potential V', atom
sites); the functions here and in :mod:`freebeta.analysis` make one call on
it.  Every law writes its float forms (G, support, density, atoms, V') from
its own parameters; the exact forms of the free F and free T are the free
beta prime's under w -> (b/a) w and w -> m w^2.  Densities, V', atom sites
and moment series are never derived from the Cauchy parameters, so checks
against the Cauchy transform compare independent routes.

The fields of a law are frozen, so it derives its closed-form Cauchy
parameters once per instance, on first use, and every later evaluation reads
them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from typing import Callable

from .errors import FreeBetaError
from .series import PowerSeries, _quadratic_root
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
# Closed-form pieces: G = (P - c sqrt((z-e-)(z-e+))) / Q
# --------------------------------------------------------------------------

# An edge that subtracts nearly equal roots, r1 - r2, is computed as the
# exact rational r1^2 - r2^2 over r1 + r2, which keeps every digit.
@dataclass(frozen=True)
class _Pieces:
    p0: float
    p1: float
    c: float
    e_minus: float
    e_plus: float
    q: Callable[[complex], complex]


def _cut_sqrt(p: _Pieces, z: complex) -> complex:
    """c sqrt((z - e_minus)(z - e_plus)), analytic off [e_minus, e_plus].

    Positive on (e_plus, inf), negative on (-inf, e_minus), and
    asymptotic to c*z — the branch every transform here needs.
    """
    return p.c * cmath.sqrt(z - p.e_plus) * cmath.sqrt(z - p.e_minus)


def _measure_on(lo: float, hi: float, body: Callable[[float], float],
                atoms=()) -> MeasureSpec:
    """Density ``body`` on (lo, hi), plus the atoms of positive mass.

    Edges that meet or cross in floats leave no room for the density, so
    the atoms must then carry all the mass, up to 1e-12 for their rounding.
    """
    atoms = tuple(atom for atom in atoms if atom[1] > 0)
    if not lo < hi and sum(mass for _, mass in atoms) < 1 - 1e-12:
        raise FreeBetaError(f"the support [{lo}, {hi}] is narrower than "
                            "float rounding")

    def density(x: float) -> float:
        if not lo < x < hi:
            return 0.0
        return body(x)

    return MeasureSpec(density, (lo, hi), atoms)


def _substitute(g: tuple, c: Fraction, step: int) -> tuple:
    """The (A, B, C) of M(c w^step), from the (A, B, C) of M(w)."""
    def sub(poly: tuple) -> tuple:
        out = [Fraction(0)] * (step * len(poly))
        out[::step] = [x * c ** i for i, x in enumerate(poly)]
        return tuple(out)

    return tuple(map(sub, g))


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
    (``_atom_sites`` holds the candidate atom locations; ``_closed_g`` the
    exact (A, B, C) of the quadratic A M^2 - B M + C = 0 whose root with
    M(0) = 1 is the moment series).  The default of ``_v_prime``
    raises FreeBetaError for a family without one.

    Every family defines ``_pieces``, which builds the closed-form Cauchy
    parameters, support edges included, from the frozen fields; ``_params``
    holds its result, built once per instance.  It lives in the instance
    dict, outside the fields, so ``repr``, ``==`` and ``hash`` see only the
    parameters, and pickling drops it.
    """

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _frac(getattr(self, f.name)))
        self._check()

    def __getstate__(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    _v_prime = _lacks("classical potential")

    @cached_property
    def _params(self) -> _Pieces:
        return self._pieces()


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
        lo = (float(1 - self.lam) / (1 + rt)) ** 2  # (1 - rt)^2, see _Pieces
        return _Pieces(1 - lam, 1.0, 1.0, lo, (1 + rt) ** 2, lambda z: 2 * z)

    def _measure(self) -> MeasureSpec:
        lo, hi = support_of(self)
        return _measure_on(
            lo, hi,
            lambda x: math.sqrt(x - lo) * math.sqrt(hi - x) / x
            / (2 * math.pi),
            [(0.0, float(1 - self.lam))],
        )

    def _closed_g(self) -> tuple:
        return (0, 1), (1, 1 - self.lam), (1,)


@dataclass(frozen=True)
class InverseFreePoisson(Family):
    """Law of the inverse of a free Poisson variable; needs b > 1."""

    b: Fraction
    _atom_sites = ()

    def _check(self) -> None:
        if self.b <= 1:
            raise FreeBetaError("inverse free Poisson needs b > 1")

    def _pieces(self) -> _Pieces:
        # G = ((b+1)z - 1 - (b-1) sqrt((z-e-)(z-e+))) / (2z^2)
        rt, den = math.sqrt(float(self.b)), float(self.b - 1)
        return _Pieces(-1.0, float(self.b + 1), den, 1 / (1 + rt) ** 2,
                       ((1 + rt) / den) ** 2, lambda z: 2 * z * z)

    def _measure(self) -> MeasureSpec:
        den = float(self.b - 1)
        lo, hi = support_of(self)
        return _measure_on(
            lo, hi,
            lambda x: den * math.sqrt(x - lo) * math.sqrt(hi - x) / x / x
            / (2 * math.pi),
        )

    def _closed_g(self) -> tuple:
        return (1,), (self.b + 1, -1), (self.b,)


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
        den = float(self.b - 1)  # exact b - 1: b may sit a rounding from 1
        lo = (float(self.a - 1) / (ra + rb)) ** 2  # ((ra - rb) / den)^2
        return _Pieces(1 - a, b + 1, den, lo, ((ra + rb) / den) ** 2,
                       lambda z: 2 * z * (1 + z))

    def _measure(self) -> MeasureSpec:
        den = float(self.b - 1)
        lo, hi = support_of(self)
        return _measure_on(
            lo, hi,
            lambda x: den * math.sqrt(x - lo) * math.sqrt(hi - x) / (1 + x) / x
            / (2 * math.pi),
            [(0.0, float(1 - self.a))],
        )

    def _closed_g(self) -> tuple:
        return (1, 1), (self.b + 1, 1 - self.a), (self.b,)

    def _v_prime(self, x: float) -> float:
        if x <= 0:
            raise FreeBetaError("the beta prime potential lives on x > 0")
        a, b = float(self.a), float(self.b)
        return ((b + 1) * x + (1 - a)) / (x * (1 + x))


@dataclass(frozen=True)
class FreeF(Family):
    """Free F law: the free beta prime dilated by r = b/a."""

    a: Fraction
    b: Fraction
    _atom_sites = (0.0,)

    def _check(self) -> None:
        if self.a <= 0 or self.b <= 1:
            raise FreeBetaError("free F needs a > 0, b > 1")

    def _pieces(self) -> _Pieces:
        # G = ((b+1)z + (1-a)r - (b-1) sqrt((z-e-)(z-e+))) / (2z(z+r)) with
        # e+- = r((sqrt(ab) +- sqrt(a+b-1))/(b-1))^2 = ((b +- s)/(b-1))^2:
        # s = sqrt(r) sqrt(a+b-1) keeps r inside the square, off overflow
        a, b, fb, r = self.a, self.b, float(self.b), float(self.b / self.a)
        s = math.sqrt(r) * math.sqrt(float(a + b - 1))
        den = float(b - 1)  # exact b - 1: b may sit a rounding from 1
        lo = (float((a - 1) / a) * fb / (fb + s)) ** 2  # ((b - s) / den)^2
        return _Pieces(float((1 - a) * b / a), fb + 1, den, lo,
                       ((fb + s) / den) ** 2, lambda z: 2 * z * (z + r))

    def _measure(self) -> MeasureSpec:
        den, r = float(self.b - 1), float(self.b / self.a)
        lo, hi = support_of(self)
        return _measure_on(
            lo, hi,
            lambda x: den * math.sqrt(x - lo) * math.sqrt(hi - x) / (x + r) / x
            / (2 * math.pi),
            [(0.0, float(1 - self.a))],
        )

    def _closed_g(self) -> tuple:
        return _substitute(FreeBetaPrime(self.a, self.b)._closed_g(),
                           self.b / self.a, 1)


@dataclass(frozen=True)
class FreeT(Family):
    """Free T law with m > 1 degrees of freedom; symmetric."""

    m: Fraction
    _atom_sites = ()

    def _check(self) -> None:
        if self.m <= 1:
            raise FreeBetaError("free T needs m > 1")

    def _pieces(self) -> _Pieces:
        # m - 1 is exact: in floats it is 0 or a few digits when m is near 1
        m, edge = float(self.m), float(2 * self.m / (self.m - 1))
        return _Pieces(0.0, m + 1, float(self.m - 1), -edge, edge,
                       lambda z: 2 * (m + z * z))

    def _measure(self) -> MeasureSpec:
        m = float(self.m)
        lo, hi = support_of(self)
        ratio = float((self.m - 1) / self.m)
        return _measure_on(
            lo, hi,
            lambda x: math.sqrt(max(4 - (ratio * x) ** 2, 0.0))
            / (2 * math.pi * (1 + x * x / m)),
        )

    def _closed_g(self) -> tuple:
        # the square of a free T variable is m times a free beta prime(1, m):
        # that law's closed form under w -> m w^2
        return _substitute(FreeBetaPrime(1, self.m)._closed_g(), self.m, 2)

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
        lo = (float(self.a - 1) / (ra + rb)) ** 2  # ((ra - rb) / den)^2
        return _Pieces(1 - a, a + b - 2, den, lo, ((ra + rb) / den) ** 2,
                       lambda z: 2 * z * (1 - z))

    def _measure(self) -> MeasureSpec:
        den = float(self.a + self.b)
        lo, hi = support_of(self)
        return _measure_on(
            lo, hi,
            lambda x: den * math.sqrt(x - lo) * math.sqrt(hi - x) / (1 - x) / x
            / (2 * math.pi),
            [(0.0, float(1 - self.a)), (1.0, float(1 - self.b))],
        )

    def _closed_g(self) -> tuple:
        a, b = self.a, self.b
        return (-1, 1), (a + b - 2, 1 - a), (a + b - 1,)

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
        lo, hi = th - half, th + half
        # the edge nearer 0 cancels: take it as the exact lo * hi over the other
        lo_hi = float(self.theta ** 2 - 4 * (1 + self.tau))
        if th > 0:
            lo = lo_hi / hi
        elif th < 0:
            hi = lo_hi / lo
        return _Pieces(th, 1 + 2 * tau, 1.0, lo, hi,
                       lambda z: 2 * (tau * z * z + th * z + 1))

    def _measure(self) -> MeasureSpec:
        p = self._params
        lo, hi = p.e_minus, p.e_plus
        th, tau = float(self.theta), float(self.tau)

        def body(x: float) -> float:
            return math.sqrt(max(4 * (1 + tau) - (x - th) ** 2, 0.0)) / (
                2 * math.pi * (tau * x * x + th * x + 1)
            )

        atoms = []
        for pole in self._poles():
            if lo < pole < hi:
                continue
            # residue of (P - sqrt(D))/Q at a real pole of Q.  At a root of
            # Q, P^2 = D, so P - sqrt(D) is exactly 0 or 2P: decide by sign,
            # since the float difference leaves a rounding residue that a
            # near-double root would divide into a spurious atom.  At a
            # double root (theta^2 = 4 tau) P = sqrt(D), and G has no atom.
            pv = p.p1 * pole + p.p0
            if pv * _cut_sqrt(p, complex(pole, 0.0)).real >= 0:
                continue
            mass = pv / (2 * tau * pole + th)  # 2P / Q'
            if mass > 1e-12:
                atoms.append((pole, mass))
        return _measure_on(lo, hi, body, atoms)

    def _closed_g(self) -> tuple:
        th, tau = self.theta, self.tau
        return (tau, th, 1), (1 + 2 * tau, th), (1 + tau,)

    @property
    def _atom_sites(self) -> tuple[float, ...]:
        return tuple(loc for loc, _ in measure_of(self).atoms)


# --------------------------------------------------------------------------
# The family operations
# --------------------------------------------------------------------------

def cauchy_eval(f: Family, z: complex) -> complex:
    """G(z) = integral of dmu(x)/(z - x), on either open half-plane.

    A real z is refused: the program reads G only off the real axis, and
    takes its boundary values as limits (:mod:`freebeta.analysis`).
    """
    z = complex(z)
    if z.imag == 0:
        raise FreeBetaError(f"G is evaluated off the real axis, got z = {z}")
    if z.imag < 0:
        return cauchy_eval(f, z.conjugate()).conjugate()
    p = f._params
    return (p.p1 * z + p.p0 - _cut_sqrt(p, z)) / p.q(z)


def support_of(f: Family) -> tuple[float, float]:
    """Endpoints of the continuous support."""
    p = f._params
    return p.e_minus, p.e_plus


def measure_of(f: Family) -> MeasureSpec:
    """The measure: closed-form continuous density, support, atom list."""
    return f._measure()


def moment_series(f: Family, order: int) -> MomentSequence:
    """Exact rational moments m_0..m_order from the closed forms."""
    return MomentSequence(_quadratic_root(*f._closed_g(), order).coefficients)


def t_coeffs_of(f: FreeBetaPrime, order: int) -> PowerSeries:
    """T(z) = 1/S(z) = sum alpha_k z^k: alpha_0 = s, alpha_k = t*u^k.

    Only the free beta prime law has these closed coefficients.
    """
    if not isinstance(f, FreeBetaPrime):
        raise FreeBetaError(f"{type(f).__name__} has no T-coefficients")
    s, t, u = fbp_t_params(f.a, f.b)
    return PowerSeries((s,) + tuple(t * u ** k for k in range(1, order + 1)))


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

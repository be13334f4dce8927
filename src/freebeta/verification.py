"""The end-to-end verification suite: every headline claim as one check.

Each criterion function returns (ok, detail).  The CLI ``verify`` command
and the acceptance test suite both run :data:`CRITERIA` so a release is
green exactly when the command is.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from dataclasses import astuple
from fractions import Fraction

from . import analysis, distributions, fock, ncl, randmat, transforms
from .distributions import (
    FreeBeta,
    FreeBetaPrime,
    FreeF,
    FreeMeixnerStd,
    FreePoisson,
    FreeT,
    InverseFreePoisson,
)
from .errors import FreeBetaError, SizeLimitExceeded
from .series import PowerSeries, _truncation, cf_expand

__all__ = ["CRITERIA", "run_all"]

_FBP_PARAMS = (
    (Fraction(2), Fraction(3)),
    (Fraction(1, 2), Fraction(2)),
    (Fraction(3), Fraction(3, 2)),
)
# Every exact route is checked to _DEEP_ORDER; the criteria that read the
# enumeration, whose cost grows like the large Schroeder numbers, stop at
# _NCL_ORDER.
_DEEP_ORDER = 16
_NCL_ORDER = 8


# The transform route's time grows about as n^3.2 bits(b)^1.7, where bits(x)
# sums the bit lengths of x's numerator and denominator, and a's bits cost
# about a quarter as much as b's: hence the bound n^2.5 * (bits(b) +
# bits(a) / 4) = 2e6.  At it, in process on 2 vCPUs for n = 10 to 100, the
# route takes 0.7-2.1 s with the bits in b (2.1 s at n = 10) and 0.4-0.9 s
# with them in a; a's bits weighed at an eighth admitted
# FBP(2^50560 + 1, 3) at n = 10 (3.2 s).  Below n = 10 the bits are held
# to their bound at n = 10: the bits^1.7 outgrows n^2.5 there, and
# n^2.5 alone admitted inputs that took 4.7-10 s with the bits in b and
# 4-41 s with them in a at n = 2 to 5.  (A bound on n * bits low enough to
# refuse FBP(2, 10^20 + 1) at n = 100, 8 s, would refuse 0.1 s inputs at
# n = 10.)  The Fock route shares the bound: at it, on ceil(n/2) levels
# and each step on the levels that can still return, it takes under 0.1 s
# (n^2.5 alone let it take 1.2 s at n = 3 with the bits in b; over the
# bound, n = 100 at b = 2^256 + 1 takes 0.2 s).
_SIZE_LIMIT = 2_000_000


def _bits(x) -> int:
    x = Fraction(x)
    return x.numerator.bit_length() + x.denominator.bit_length()


def _size_limit(route: str, fam: FreeBetaPrime, n: int) -> str | None:
    """Why max(n, 10)^2.5 * (bits(b) + bits(a) / 4) is over _SIZE_LIMIT,
    if it is."""
    size = max(n, 10) ** 2.5 * (_bits(fam.b) + _bits(fam.a) / 4)
    if size > _SIZE_LIMIT:
        return (f"the {route} route is capped at max(n, 10)^2.5 * (bits of "
                f"b + bits of a / 4) <= {_SIZE_LIMIT}, got {size:.0f}")


# The other routes take time about n^3 to n^3.5 times bits^2, where bits sums
# _bits over the family's parameters or alpha, beta and gamma, so each has its
# own bound on n^1.5 * bits.  At it, in process on 2 vCPUs for n = 10 to
# 100: series 1.1-2.9 s on the slowest family, fb with its bits in
# a = 2^k + 1 (ff 1.1-2.3 s, fb 0.9-2.0 s and fbp 0.8-1.4 s with them in b,
# ifp 0.5-1.0 s, the others under 0.8 s; FBP(2, 2^7000 + 1) took over 120 s
# at n = 100); ncl 0.4-2.9 s with the bits in a = 2^k + 1 or in b (up to
# 5.3 s end to end with them in random rationals); cf 0.6-2.7 s, closed
# 1.3-2.8 s and brute 0.5-2.6 s with them in one random rational or spread
# over all three (alpha, beta = 2^1024 + 1, 2^1024 + 3 took 2.7-2.8 s by cf
# at n = 100).  n^1.75 * bits would even out series and cf, but let closed
# take 17 s at n = 10.  64-bit parameters pass every bound at n = 100.
_PARAMS_LIMITS = {"series": 300_000, "cf": 1_300_000, "closed": 1_200_000,
                  "ncl": 800_000, "brute": 1_500_000}
# The t-coeffs command is held to the series route's bound.  At it, orders 5
# to 100 take at most 0.12 s, printing included; a 4000-digit b at order 100
# printed 21 M characters in 119 s without it.
_PARAMS_LIMITS["t-coeffs"] = _PARAMS_LIMITS["series"]


def _params_limit(route: str, subject, n: int) -> str | None:
    """Why n^1.5 * (bits of all parameters) is over the route's bound."""
    params = subject if isinstance(subject, tuple) else astuple(subject)
    size, bound = n ** 1.5 * sum(map(_bits, params)), _PARAMS_LIMITS[route]
    if size > bound:
        return (f"the {route} route is capped at n^1.5 * (bits of all "
                f"parameters) <= {bound}, got {size:.0f}")


# One table per exact quantity, read by the CLI and the criteria: route ->
# (fn(subject, n) giving terms 0..n, type of subject).  Each fn looks its
# layer function up at call time, so a traced rebinding is the one called.
Route = namedtuple("Route", "fn family")


def _capped(fn, family, limit) -> Route:
    """A Route whose fn checks limit(subject, n), the reason an input is
    over the route's cap or None, before any work.

    An input over the cap raises SizeLimitExceeded with that reason; the
    CLI relays the refusal.  A negative n is not over a cap: it skips the
    check and meets the layer's own refusal.
    """
    def checked(subject, n):
        reason = n >= 0 and limit(subject, n)
        if reason:
            raise SizeLimitExceeded(reason)
        return fn(subject, n)
    return Route(checked, family)


MOMENT_ROUTES = {
    "ncl": _capped(lambda fam, n: ncl.fbp_moment(fam.a, fam.b, n),
                   FreeBetaPrime, lambda fam, n: _params_limit("ncl", fam, n)),
    "series": _capped(lambda fam, n: distributions.moment_series(
        fam, n).moments, distributions.Family,
        lambda fam, n: _params_limit("series", fam, n)),
    "fock": _capped(lambda fam, n: fock.vacuum_moments(
        fock.fbp_operator(fam.a, fam.b, _truncation(n)), n), FreeBetaPrime,
        lambda fam, n: _size_limit("fock", fam, n)),
    "transform": _capped(lambda fam, n: transforms.free_mult_convolve(
        distributions.moment_series(FreePoisson(fam.a), n),
        distributions.moment_series(InverseFreePoisson(fam.b), n)).moments,
        FreeBetaPrime, lambda fam, n: _size_limit("transform", fam, n)),
}
GAMMA_ROUTES = {
    "brute": _capped(lambda abc, n: ncl.gamma_poly(n, *abc), tuple,
                     lambda abc, n: _params_limit("brute", abc, n)),
    "cf": _capped(lambda abc, n: ncl.gamma_series(
        n, *abc, route="cf").coefficients, tuple,
        lambda abc, n: _params_limit("cf", abc, n)),
    "closed": _capped(lambda abc, n: ncl.gamma_series(
        n, *abc, route="closed").coefficients, tuple,
        lambda abc, n: _params_limit("closed", abc, n)),
}


def route_rows(columns: dict) -> list[dict]:
    """Rows n = 1.. of each route's terms to its last, and "agree" across."""
    rows = [{"n": k, **{r: c[k] for r, c in columns.items() if k < len(c)}}
            for k in range(1, max(map(len, columns.values())))]
    if len(columns) > 1:
        for row in rows:
            row["agree"] = len({row[r] for r in columns if r in row}) == 1
    return rows


def _disagreement(columns: dict) -> str | None:
    """The first row where the columns differ, as "n=k, route=value, ..."."""
    for row in route_rows(columns):
        if not row.pop("agree"):
            return ", ".join(f"{k}={v}" for k, v in row.items())
    return None


def _moment_routes(routes: tuple, passed: str) -> tuple[bool, str]:
    """The routes agree on each fbp law, and with m1 and m2 ("spot") read
    off the exact mean and variance of its Meixner standardization."""
    for a, b in _FBP_PARAMS:
        std = distributions.standardize_to_meixner(a, b)
        spot = (1, std.mean, std.mean ** 2 + std.variance)
        fam = FreeBetaPrime(a, b)
        columns = {r: MOMENT_ROUTES[r].fn(fam, _DEEP_ORDER) for r in routes}
        bad = _disagreement({**columns, "spot": spot})
        if bad:
            return False, f"(a,b)=({a},{b}) {bad}"
    return True, passed


def criterion_triple_route_moments() -> tuple[bool, str]:
    """Linked-partition sum, closed-form series and Fock vacuum agree."""
    return _moment_routes(
        ("ncl", "series", "fock"),
        f"3 parameter sets, ncl == series == fock for n=1..{_DEEP_ORDER}, "
        "identical rationals")


def criterion_mult_convolution() -> tuple[bool, str]:
    """Multiplicative free convolution of the Poisson factors rebuilds fbp."""
    return _moment_routes(
        ("ncl", "series", "transform"),
        "S-product route equals closed-form series and NCL route for "
        f"n=1..{_DEEP_ORDER}")


def criterion_gamma_routes() -> tuple[bool, str]:
    """brute == cf == closed for the Gamma polynomial; residual vanishes."""
    rng = random.Random(20240817)
    triples = [
        tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3))
        for _ in range(10)
    ]
    for abc in triples:
        columns = {r: route.fn(abc, _DEEP_ORDER)
                   for r, route in GAMMA_ROUTES.items()}
        bad = _disagreement(columns)
        if bad:
            return False, f"{abc} {bad}"
        closed = PowerSeries(columns["closed"])
        if any(ncl.gamma_quadratic_residual(closed, *abc).coefficients):
            return False, f"nonzero residual at {abc}"
    return True, (f"10 random rational triples, n=1..{_DEEP_ORDER}, "
                  "zero residual")


def criterion_counts() -> tuple[bool, str]:
    """Each enumerated partition is a non-crossing linked one, and |NCL(n)|
    and, by the gap sum, Gamma_n(1, 1, 1) are the large Schroeder numbers
    (OEIS A006318)."""
    want = (1, 2, 6, 22, 90, 394, 1806, 8558, 41586, 206098, 1037718,
            5293446, 27297738, 142078746, 745387038, 3937603038)
    try:
        counted = [sum(count for _, count in ncl.ncl_table(n))
                   for n in range(1, _NCL_ORDER + 1)]
    except FreeBetaError as exc:  # the enumerator gave a wrong partition
        return False, str(exc)
    summed = ncl.gamma_poly(len(want), 1, 1, 1)[1:]
    for label, column in (("|NCL({})|", counted), ("Gamma_{}(1,1,1)", summed)):
        for n, (got, count) in enumerate(zip(column, want), start=1):
            if got != count:
                return False, f"{label.format(n)} = {got}, expected {count}"
    return True, (f"enumerated counts 1..{_NCL_ORDER} and Gamma_n(1,1,1) "
                  f"for n=1..{len(want)} match")


def criterion_statistics() -> tuple[bool, str]:
    """dc+sc+sg = #blocks and sum|B| = n+dc for every partition of NCL(n),
    and the table sums to the gap sum's Gamma_n at one triple."""
    alpha, beta, gamma = Fraction(2, 3), Fraction(5, 7), Fraction(3, 2)
    summed = ncl.gamma_poly(_NCL_ORDER, alpha, beta, gamma)
    for n in range(1, _NCL_ORDER + 1):
        total = Fraction(0)
        for key, count in ncl.ncl_table(n):
            dc, sc, sg, sizes = key
            if dc + sc + sg != len(sizes):
                return False, f"block-count identity fails at n={n}, {key}"
            if sum(sizes) != n + dc:
                return False, f"size identity fails at n={n}, {key}"
            total += count * alpha ** dc * beta ** sc * gamma ** sg
        if total != summed[n]:
            return False, f"table sum {total} != gamma_poly at n={n}"
    ref = ncl.LinkedPartition(
        10, ((1, 2, 7), (2, 4), (3,), (5, 6), (7, 8, 9), (9, 10))
    )
    st = ncl.statistics(ref)
    if (st.dc, st.sc, st.sg) != (3, 2, 1):
        return False, f"reference partition stats {(st.dc, st.sc, st.sg)}"
    return True, (f"identities and table sum == gamma_poly exhaustive "
                  f"n<={_NCL_ORDER}; reference triple (3,2,1)")


# Gate of score-identities on |2H - V'|.  Its 7 laws x 20 points deviate by
# at most 2.1e-14, FreeBeta(4/5, 24) the most; its points come within 0.007
# of an edge, where a ladder not scaled to the edge distance reads 1.2e-8.
# Sweeps of 600 rational laws (200 each of fbp, ft and fb, parameters p/q,
# random.Random(1..20)) deviate by at most 1.1e-14 with p, q drawn from 1..9,
# 1.8e-14 with p from 1..24 and q from 1..6, and 1.1e-13 with p, q from 1..99
# (0.0013 from an edge).  Scaling V' by 1 + 1e-9 moves the points here by
# 4.4e-11 to 5.1e-8, the first one checked by 3.7e-10.
_SCORE_GATE = 1e-10


def criterion_scores() -> tuple[bool, str]:
    """|2H - V'| <= _SCORE_GATE at 20 interior points of 7 laws."""
    families = [
        FreeBetaPrime(2, 3),
        FreeBetaPrime(Fraction(1, 2), 2),
        FreeT(2),
        FreeT(10),
        FreeBeta(2, 2),
        FreeBeta(Fraction(1, 2), Fraction(3, 4)),
        FreeBeta(Fraction(4, 5), 24),
    ]
    worst = 0.0
    for fam in families:
        for x, score, v_prime in analysis.score_grid(fam, 20):
            err = abs(score - v_prime)
            worst = max(worst, err)
            if err > _SCORE_GATE:
                return False, f"{fam} at x={x}: |2H - V'| = {err}"
    return True, (f"max deviation {worst:.2e} over {len(families)} "
                  "families x 20 points")


def criterion_measure_sanity() -> tuple[bool, str]:
    """Mass 1e-8; moments rel 1e-6; atoms 1e-6; closed vs Stieltjes 1e-10."""
    cases = [
        FreePoisson(Fraction(1, 2)),
        FreePoisson(2),
        InverseFreePoisson(3),
        FreeBetaPrime(2, 3),
        FreeBetaPrime(Fraction(1, 2), 2),
        FreeF(2, 3),
        FreeT(2),
        FreeBeta(2, 2),
        FreeBeta(Fraction(1, 2), Fraction(3, 4)),
    ]
    worst = 0.0
    for fam in cases:
        spec = distributions.measure_of(fam)
        mass = analysis.quadrature_moment(spec, 0)
        if abs(mass - 1) > 1e-8:
            return False, f"{fam}: total mass {mass}"
        exact = distributions.moment_series(fam, 6)
        for n in range(1, 7):
            got = analysis.quadrature_moment(spec, n)
            want = float(exact[n])
            # hybrid tolerance: relative 1e-6 with an absolute floor
            # so exactly-zero odd moments do not divide by zero
            if abs(got - want) > 1e-6 * max(abs(want), 1.0):
                return False, f"{fam} moment {n}: {got} vs {want}"
        lo, hi = distributions.support_of(fam)
        for k in range(1, 21):
            x = lo + (hi - lo) * k / 21
            err = abs(spec.density(x) - analysis.stieltjes_density(fam, x))
            worst = max(worst, err)
            if err > 1e-10:
                return False, f"{fam} at x={x}: |closed - Stieltjes| = {err}"
        want_atoms = {loc: m for loc, m in spec.atoms}
        got_atoms = {loc: m for loc, m in analysis.atom_masses(fam)}
        locs = set(want_atoms) | set(got_atoms)
        for loc in locs:
            if abs(want_atoms.get(loc, 0.0) - got_atoms.get(loc, 0.0)) > 1e-6:
                return False, f"{fam} atom at {loc} mismatched"
    return True, (f"{len(cases)} parameter cases pass mass/moments/atoms; "
                  f"closed vs Stieltjes density max deviation {worst:.2e}")


def criterion_t_limits() -> tuple[bool, str]:
    """Free T density approaches semicircle (m large) and Cauchy (m ~ 1)."""
    report = analysis.t_density_limits()
    ok = (
        report["sup_semicircle"] <= 2e-4 and report["sup_cauchy"] <= 1e-4
    )
    detail = (
        f"sup|fT - semicircle| = {report['sup_semicircle']:.2e}, "
        f"sup|fT - Cauchy| = {report['sup_cauchy']:.2e}"
    )
    return ok, detail


def criterion_symmetric_square() -> tuple[bool, str]:
    """G_T(z) = z * G_{square}(z^2) at random upper-half-plane points."""
    rng = random.Random(11)
    for m in (2, 10):
        t = FreeT(m)
        square = FreeF(1, m)  # the square of the T variable
        for _ in range(20):
            z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
            lhs = distributions.cauchy_eval(t, z)
            rhs = z * distributions.cauchy_eval(square, z * z)
            if abs(lhs - rhs) > 1e-12:
                return False, f"m={m}, z={z}: |diff| = {abs(lhs - rhs)}"
    return True, "m in {2,10}, 20 random z each, |diff| <= 1e-12"


def criterion_meixner() -> tuple[bool, str]:
    """Exact disc (b-1)/(a(a+b-1)) and class; G_std(z) = sd G(sd z + mean);
    one free Meixner law per class, its exact moments its Jacobi path sum."""
    grid_a = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2),
              Fraction(7, 3)]
    grid_b = [Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3),
              Fraction(13, 4)]
    # |G_std - sd G_fbp| is at most 6.1e-15 here; a relative 1e-9 error in
    # theta makes it 2.9e-9, one of 1e-8 in the variance 2.0e-8
    points = [complex(x, y) for x in (-3, -1, 0.5, 2, 4) for y in (0.2, 1)]
    cauchy, worst = distributions.cauchy_eval, 0.0
    for a in grid_a:
        for b in grid_b:
            std = distributions.standardize_to_meixner(a, b)
            want = (b - 1) / (a * (a + b - 1))
            if std.discriminant != want:
                return False, f"(a,b)=({a},{b}): disc {std.discriminant}"
            label = std.classify()
            if label != "free negative binomial":
                return False, f"(a,b)=({a},{b}) classified {label}"
            law, fbp = FreeMeixnerStd(std.theta, std.tau), FreeBetaPrime(a, b)
            mean, sd = float(std.mean), math.sqrt(float(std.variance))
            err = max(abs(cauchy(law, z) - sd * cauchy(fbp, sd * z + mean))
                      for z in points)
            worst = max(worst, err)
            if err > 1e-11:
                return False, (f"(a,b)=({a},{b}): "
                               f"|G_std - sd G_fbp| = {err:.2e}")
    # one rational law (theta, tau) per class, its exact moments the path
    # sum of its Jacobi bands (0, theta, theta, ...), (1, 1 + tau, ...)
    classes = {(Fraction(3, 2), Fraction(1)): "pure free Meixner",
               (Fraction(5, 2), Fraction(-9, 10)): "free binomial",
               (Fraction(3), Fraction(2)): "free negative binomial",
               (Fraction(2), Fraction(1)): "free gamma",
               (Fraction(1), Fraction(0)): "free Poisson",
               (Fraction(0), Fraction(0)): "semicircle"}
    depth = _truncation(_DEEP_ORDER) + 1
    for (theta, tau), want in classes.items():
        law = f"(theta,tau)=({theta},{tau})"
        label = distributions._meixner_class(theta * theta, tau)
        if label != want:
            return False, f"{law} classified {label}, expected {want}"
        jacobi = cf_expand((Fraction(0),) + (theta,) * (depth - 1),
                           (Fraction(1),) + (1 + tau,) * (depth - 2),
                           _DEEP_ORDER).coefficients
        try:
            exact = distributions.moment_series(FreeMeixnerStd(theta, tau),
                                                _DEEP_ORDER).moments
        except FreeBetaError as exc:
            return False, f"{law} {exc}"
        bad = _disagreement({"series": exact, "jacobi": jacobi})
        if bad:
            return False, f"{law} {bad}"
    return True, ("5x5 grid: exact discriminants, all free negative binomial, "
                  f"standardized G max deviation {worst:.2e}; one law per "
                  f"class, moments == Jacobi path sum, n=1..{_DEEP_ORDER}")


# KS bound of the Fisher Monte Carlo at p = 500.  Over seeds 0..249,
# FreeF(2, 3) gave KS 0.0045-0.0086 (99th percentile 0.0083; seed 42 gives
# 0.0054) and FreeF(1/2, 3), with its atom at 0, 0.0040-0.0090 (99th
# percentile 0.0078; seed 42 gives 0.0062), so the bound sits 33% above the
# largest.  Sampling at a = 2.2 instead of 2 gives 0.023, and at a = 0.55
# instead of 1/2 0.050.
_KS_GATE = 0.012


def criterion_monte_carlo() -> tuple[bool, str]:
    """Fisher spectra at p=500, seed 42 match FreeF(2,3) and FreeF(1/2,3)
    (S1 of rank p/2, an atom of mass 1/2 at 0) to KS < 0.012."""
    values = {}
    for a in (Fraction(2), Fraction(1, 2)):
        cfg = randmat.FisherSampleConfig(p=500, a=float(a), b=3, seed=42)
        values[a] = randmat.ks_distance(randmat.sample_fisher_spectrum(cfg),
                                        FreeF(a, 3))
    detail = ", ".join(f"{ks:.4f} at ({a}, 3)" for a, ks in values.items())
    return (max(values.values()) < _KS_GATE,
            f"KS = {detail} (threshold {_KS_GATE})")


def criterion_semigroup() -> tuple[bool, str]:
    """Free Poisson semigroup and the two convolution identities, exactly."""
    a, b = Fraction(3, 2), Fraction(5, 4)
    n = _DEEP_ORDER
    ma = distributions.moment_series(FreePoisson(a), n)
    mb = distributions.moment_series(FreePoisson(b), n)
    mab = distributions.moment_series(FreePoisson(a + b), n)
    if transforms.free_add_convolve(ma, mb).moments != mab.moments:
        return False, "free Poisson semigroup broken"
    delta0 = transforms.MomentSequence((Fraction(1),) + (Fraction(0),) * n)
    delta1 = transforms.MomentSequence((Fraction(1),) * (n + 1))
    if transforms.free_add_convolve(ma, delta0).moments != ma.moments:
        return False, "delta_0 is not the additive identity"
    if transforms.free_mult_convolve(ma, delta1).moments != ma.moments:
        return False, "delta_1 is not the multiplicative identity"
    return True, f"semigroup and both identities exact to order {n}"


CRITERIA = (
    ("triple-route-moments", criterion_triple_route_moments),
    ("mult-convolution", criterion_mult_convolution),
    ("gamma-routes", criterion_gamma_routes),
    ("ncl-counts", criterion_counts),
    ("ncl-statistics", criterion_statistics),
    ("score-identities", criterion_scores),
    ("measure-sanity", criterion_measure_sanity),
    ("t-density-limits", criterion_t_limits),
    ("symmetric-square", criterion_symmetric_square),
    ("meixner-classification", criterion_meixner),
    ("monte-carlo-fisher", criterion_monte_carlo),
    ("convolution-identities", criterion_semigroup),
)


def run_all():
    """Yield (name, ok, detail) per criterion in order; stop at a failure."""
    for name, fn in CRITERIA:
        ok, detail = fn()
        yield name, ok, detail
        if not ok:
            return

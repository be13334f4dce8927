"""The criteria catch injected faults and follow their order constants.

The NCL criteria read one cached table per n.  Each test that patches the
enumerator or the orders clears the ``ncl_table`` cache before and after
itself, so a table built under the patch never outlives it.
"""

import dataclasses
import json
import time
from fractions import Fraction

import pytest

from freebeta import analysis, cli, distributions, fock, ncl, verification
from freebeta.distributions import (
    FreeBeta, FreeBetaPrime, FreeF, FreePoisson, FreeT, InverseFreePoisson,
)
from freebeta.errors import SizeLimitExceeded
from freebeta.verification import (
    CRITERIA,
    criterion_counts,
    criterion_measure_sanity,
    criterion_statistics,
    run_all,
)


@pytest.fixture
def fresh_tables():
    ncl.ncl_table.cache_clear()
    yield
    ncl.ncl_table.cache_clear()


def test_verify_enumerates_each_ncl_once(fresh_tables, monkeypatch):
    calls = []
    enumerate_ncl = ncl.enumerate_ncl

    def counted(n):
        calls.append(n)
        return enumerate_ncl(n)

    monkeypatch.setattr(ncl, "enumerate_ncl", counted)
    assert all(ok for _, ok, _ in run_all())
    assert sorted(calls) == list(range(1, 9))


def test_counts_catch_a_dropped_partition(fresh_tables, monkeypatch):
    enumerate_ncl = ncl.enumerate_ncl
    monkeypatch.setattr(
        ncl, "enumerate_ncl",
        lambda n: enumerate_ncl(n)[:-1] if n == 5 else enumerate_ncl(n))
    ok, detail = criterion_counts()
    assert not ok
    assert detail == "|NCL(5)| = 89, expected 90"


def test_counts_fail_on_a_crossing_partition(fresh_tables, monkeypatch,
                                             capsys):
    # a crossing partition in place of NCL(5)'s first, the count unchanged,
    # fails ncl-counts by name, with the envelope and exit 3
    enumerate_ncl = ncl.enumerate_ncl
    crossing = ncl.LinkedPartition(5, ((1, 3), (2, 4), (5,)))
    monkeypatch.setattr(
        ncl, "enumerate_ncl",
        lambda n: [crossing, *enumerate_ncl(n)[1:]] if n == 5
        else enumerate_ncl(n))
    code = cli.main(["verify"])
    out, err = capsys.readouterr()
    detail = ("NCL(5) holds ((1, 3), (2, 4), (5,)), "
              "not a non-crossing linked partition")
    assert code == 3
    assert err.splitlines()[-1] == f"FAIL ncl-counts: {detail}"
    results = json.loads(out)["results"]
    assert results["ok"] is False
    assert results["criteria"][-1]["criterion"] == "ncl-counts"
    assert results["criteria"][-1]["detail"] == detail


def test_statistics_catch_a_wrong_dc(fresh_tables, monkeypatch):
    sweep = ncl._sweep
    victim = ncl.enumerate_ncl(4)[7]

    def faulty(p):
        first, inner, (dc, sc, sg) = sweep(p)
        if p == victim:
            dc += 1
        return first, inner, (dc, sc, sg)

    monkeypatch.setattr(ncl, "_sweep", faulty)
    ok, detail = criterion_statistics()
    assert not ok
    assert detail.startswith("block-count identity fails at n=4, ")


def test_measure_sanity_compares_the_two_density_routes(monkeypatch):
    # a relative 1e-7 error in the Cauchy transform's square-root
    # coefficient c moves the Stieltjes density by ~6e-8 but no mass, moment
    # or atom beyond its tolerance
    pieces = FreeBeta._pieces

    def perturbed(self):
        p = pieces(self)
        return dataclasses.replace(p, c=p.c * (1 + 1e-7))

    monkeypatch.setattr(FreeBeta, "_pieces", perturbed)
    ok, detail = criterion_measure_sanity()
    assert not ok
    assert detail.startswith("FreeBeta(a=Fraction(2, 1), b=Fraction(2, 1)) at x=")
    assert "|closed - Stieltjes|" in detail


# A relative 1e-9 change, either way, to a law's square-root coefficient c
# moves its Stieltjes density past the 1e-10 gate at the first case of that
# law.  A change to p0 or p1 moves only Re G on the axis, which
# measure-sanity does not read; the oracle tests of the dilation and the
# reciprocal, and symmetric-square through FreeF(1, m), cover those.
@pytest.mark.parametrize("cls, law", [
    (FreePoisson, "FreePoisson(lam=Fraction(1, 2))"),
    (InverseFreePoisson, "InverseFreePoisson(b=Fraction(3, 1))"),
    (FreeBetaPrime, "FreeBetaPrime(a=Fraction(2, 1), b=Fraction(3, 1))"),
    (FreeF, "FreeF(a=Fraction(2, 1), b=Fraction(3, 1))"),
    (FreeT, "FreeT(m=Fraction(2, 1))"),
    (FreeBeta, "FreeBeta(a=Fraction(2, 1), b=Fraction(2, 1))"),
], ids=["fp", "ifp", "fbp", "ff", "ft", "fb"])
def test_measure_sanity_reads_each_laws_own_pieces(monkeypatch, cls, law):
    pieces = cls._pieces
    for factor in (1 + 1e-9, 1 - 1e-9):
        def perturbed(self):
            p = pieces(self)
            return dataclasses.replace(p, c=p.c * factor)

        monkeypatch.setattr(cls, "_pieces", perturbed)
        ok, detail = criterion_measure_sanity()
        assert not ok, factor
        assert detail.startswith(f"{law} at x="), factor
        assert "|closed - Stieltjes|" in detail


# A relative 1e-9 change to the weight of either of the two lowest rungs
# moves the boundary limit by ~1e-10 and ~1e-9 of G.  The top three rungs
# (1e-2, 1e-3 and 1e-4) weigh 1.1e-10, -1.2e-6 and 1.3e-3, so the same
# change there moves it by at most 1.3e-12 of G and passes both gates: it
# does not show, and is not tested.
@pytest.mark.parametrize("rung", [3, 4], ids=["eps=1e-5", "eps=1e-6"])
@pytest.mark.parametrize("factor", [1 + 1e-9, 1 - 1e-9])
def test_gates_catch_a_relative_1e9_change_in_a_low_rung_weight(
        monkeypatch, rung, factor):
    weights = list(analysis._LADDER_W)
    weights[rung] *= factor
    monkeypatch.setattr(analysis, "_LADDER_W", tuple(weights))
    for name, diff in (("score-identities", "|2H - V'|"),
                       ("measure-sanity", "|closed - Stieltjes|")):
        ok, detail = dict(CRITERIA)[name]()
        assert not ok, name
        assert diff in detail


def test_score_gate_catches_a_relative_1e9_change_in_v_prime(monkeypatch):
    # moves |2H - V'| at the first point checked by 3.7e-10
    potential_derivative = analysis.potential_derivative
    monkeypatch.setattr(analysis, "potential_derivative",
                        lambda f, x: potential_derivative(f, x) * (1 + 1e-9))
    ok, detail = dict(CRITERIA)["score-identities"]()
    assert not ok
    assert detail.startswith(
        "FreeBetaPrime(a=Fraction(2, 1), b=Fraction(3, 1)) at x=")
    assert "|2H - V'|" in detail


def test_score_check_prints_the_grid_the_criterion_checks(capsys,
                                                          monkeypatch):
    score_grid = analysis.score_grid

    def shifted(f, points):
        return [(x, score + 1, v_prime)
                for x, score, v_prime in score_grid(f, points)]

    monkeypatch.setattr(analysis, "score_grid", shifted)
    ok, detail = dict(CRITERIA)["score-identities"]()
    assert not ok
    assert detail.startswith(
        "FreeBetaPrime(a=Fraction(2, 1), b=Fraction(3, 1)) at x=")
    assert cli.main(["score-check", "--family", "fbp", "--a", "2", "--b", "3",
                     "--points", "7"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["grid"] == [
        {"x": x, "score": score, "v_prime": v_prime,
         "deviation": abs(score - v_prime)}
        for x, score, v_prime in shifted(FreeBetaPrime(2, 3), 7)]


@pytest.mark.parametrize("field, factor", [
    ("theta", 1 + 1e-9), ("variance", 1 + Fraction(1, 10**8))])
def test_meixner_checks_the_standardized_law(monkeypatch, field, factor):
    # a relative 1e-9 error in theta moves G by 2.9e-9 and one of 1e-8 in
    # the variance by 2.0e-8; neither touches the discriminant or the class
    standardize = distributions.standardize_to_meixner

    def perturbed(a, b):
        std = standardize(a, b)
        return dataclasses.replace(
            std, **{field: getattr(std, field) * factor})

    monkeypatch.setattr(distributions, "standardize_to_meixner", perturbed)
    ok, detail = dict(CRITERIA)["meixner-classification"]()
    assert not ok
    assert detail.startswith("(a,b)=(1/2,3/2): ")
    assert "|G_std - sd G_fbp|" in detail


def test_meixner_reads_each_class_laws_exact_moments(monkeypatch):
    # C = 1 + 2 tau in place of 1 + tau: M(0) = 1 no longer solves the
    # quadratic of the pure law, the first one read
    def closed(self):
        th, tau = self.theta, self.tau
        return (tau, th, 1), (1 + 2 * tau, th), (1 + 2 * tau,)

    monkeypatch.setattr(distributions.FreeMeixnerStd, "_closed_g", closed)
    ok, detail = dict(CRITERIA)["meixner-classification"]()
    assert not ok
    assert detail.startswith("(theta,tau)=(3/2,1) M(0) = 1 is not")


def test_meixner_names_the_free_gamma_class(monkeypatch):
    meixner_class = distributions._meixner_class

    def relabelled(theta_sq, tau):
        label = meixner_class(theta_sq, tau)
        return "pure free Meixner" if label == "free gamma" else label

    monkeypatch.setattr(distributions, "_meixner_class", relabelled)
    ok, detail = dict(CRITERIA)["meixner-classification"]()
    assert not ok
    assert detail == ("(theta,tau)=(2,1) classified pure free Meixner, "
                      "expected free gamma")


def test_orders_come_from_the_two_constants(fresh_tables, monkeypatch):
    calls = []
    enumerate_ncl = ncl.enumerate_ncl

    def counted(n):
        calls.append(n)
        return enumerate_ncl(n)

    monkeypatch.setattr(ncl, "enumerate_ncl", counted)
    monkeypatch.setattr(verification, "_DEEP_ORDER", 6)
    monkeypatch.setattr(verification, "_NCL_ORDER", 4)
    want = {
        "triple-route-moments": "3 parameter sets, ncl == series == fock for "
        "n=1..6, identical rationals",
        "mult-convolution": "S-product route equals closed-form series and "
        "NCL route for n=1..6",
        "gamma-routes": "10 random rational triples, n=1..6, zero residual",
        "ncl-counts": "enumerated counts 1..4 and Gamma_n(1,1,1) for n=1..16 "
        "match",
        "ncl-statistics": "identities and table sum == gamma_poly exhaustive "
        "n<=4; reference triple (3,2,1)",
        "convolution-identities": "semigroup and both identities exact to "
        "order 6",
    }
    got = {name: fn() for name, fn in CRITERIA if name in want}
    assert got == {name: (True, detail) for name, detail in want.items()}
    assert sorted(set(calls)) == [1, 2, 3, 4]


def _perturbed(route):
    """The route with Fraction(1, 10**30) added to its term 5."""
    def fn(subject, n):
        column = list(route.fn(subject, n))
        column[5] += Fraction(1, 10**30)
        return column
    return route._replace(fn=fn)


# the first of the ten triples gamma-routes draws
_FIRST_TRIPLE = "(Fraction(1, 1), Fraction(4, 5), Fraction(3, 1))"
_MOMENTS = ("MOMENT_ROUTES", "moments",
            ["moments", "--family", "fbp", "--a", "2", "--b", "3"])
_GAMMA = ("GAMMA_ROUTES", "values",
          ["gamma-gf", "--alpha", "1/3", "--beta", "2", "--gamma", "5/7"])
# route -> (the criterion comparing it, its first case, its table, the key
# and argv of the command printing it)
_COMPARED_IN = {
    "ncl": ("triple-route-moments", "(a,b)=(2,3)", *_MOMENTS),
    "series": ("triple-route-moments", "(a,b)=(2,3)", *_MOMENTS),
    "fock": ("triple-route-moments", "(a,b)=(2,3)", *_MOMENTS),
    "transform": ("mult-convolution", "(a,b)=(2,3)", *_MOMENTS),
    "brute": ("gamma-routes", _FIRST_TRIPLE, *_GAMMA),
    "cf": ("gamma-routes", _FIRST_TRIPLE, *_GAMMA),
    "closed": ("gamma-routes", _FIRST_TRIPLE, *_GAMMA),
}


@pytest.mark.parametrize("route", _COMPARED_IN)
def test_a_perturbed_route_fails_and_disagrees(capsys, monkeypatch, route):
    criterion, case, table, key, argv = _COMPARED_IN[route]
    routes = getattr(verification, table)
    monkeypatch.setitem(routes, route, _perturbed(routes[route]))
    ok, detail = dict(CRITERIA)[criterion]()
    assert not ok
    assert detail.startswith(f"{case} n=5, ")
    assert f"{route}=" in detail
    assert cli.main([*argv, "--n", "6", "--route", "all"]) == 0
    rows = json.loads(capsys.readouterr().out)["results"][key]
    assert [r["agree"] for r in rows] == [True] * 4 + [False, True]


@pytest.mark.parametrize("table, route, subject", [
    ("GAMMA_ROUTES", "brute", (1, 1, 1)),
    ("MOMENT_ROUTES", "ncl", FreeBetaPrime(2, 3)),
])
def test_route_answers_past_the_enumeration_cap_without_a_table(
        monkeypatch, table, route, subject):
    # the table sums these routes once were stopped at n = 10, and building
    # NCL(1..10) on the way took 8 s
    built = []
    monkeypatch.setattr(ncl, "ncl_table", built.append)
    monkeypatch.setattr(ncl, "enumerate_ncl", built.append)
    start = time.perf_counter()
    terms = getattr(verification, table)[route].fn(subject, 100)
    assert time.perf_counter() - start < 1
    assert len(terms) == 101 and terms[11] > 0
    assert built == []


@pytest.mark.parametrize("table, route, layer, subject", [
    ("MOMENT_ROUTES", "series", (distributions, "moment_series"),
     FreeBeta(2 ** 7000 + 1, 3)),
    ("GAMMA_ROUTES", "cf", (ncl, "gamma_series"),
     (2 ** 1024 + 1, 2 ** 1024 + 3, 1)),
    ("GAMMA_ROUTES", "closed", (ncl, "gamma_series"),
     (2 ** 1024 + 1, 2 ** 1024 + 3, 1)),
    ("MOMENT_ROUTES", "ncl", (ncl, "fbp_moment"),
     FreeBetaPrime(2, 2 ** 7000 + 1)),
    ("GAMMA_ROUTES", "brute", (ncl, "gamma_poly"),
     (2 ** 1024 + 1, 2 ** 1024 + 3, 1)),
])
def test_route_refuses_oversized_parameters_before_its_layer(
        monkeypatch, table, route, layer, subject):
    built = []
    monkeypatch.setattr(*layer, lambda *args, **kwargs: built.append(args))
    with pytest.raises(SizeLimitExceeded,
                       match=f"the {route} route is capped at n\\^1.5"):
        getattr(verification, table)[route].fn(subject, 100)
    assert built == []


def test_fock_route_refuses_oversized_parameters_before_the_operator(
        monkeypatch):
    # called directly; the route took 42 s on this input before its cap
    built = []
    monkeypatch.setattr(fock, "fbp_operator", lambda *args: built.append(args))
    start = time.perf_counter()
    with pytest.raises(SizeLimitExceeded, match="the fock route is capped"):
        verification.MOMENT_ROUTES["fock"].fn(
            FreeBetaPrime(2, 2 ** 256 + 1), 100)
    assert time.perf_counter() - start < 1
    assert built == []


@pytest.mark.parametrize("band", ["diagonal", "products"])
def test_triple_route_catches_a_relative_1e9_change_in_a_fock_band(
        monkeypatch, band):
    # a_1 = diagonal[1] first shows in m3, b_2 = products[1] in m4
    fbp_operator = fock.fbp_operator

    def perturbed(a, b, n_levels):
        op = fbp_operator(a, b, n_levels)
        entries = list(getattr(op, band))
        entries[1] *= 1 + Fraction(1, 10**9)
        return dataclasses.replace(op, **{band: tuple(entries)})

    monkeypatch.setattr(fock, "fbp_operator", perturbed)
    ok, detail = verification.criterion_triple_route_moments()
    assert not ok
    assert detail.startswith(
        f"(a,b)=(2,3) n={3 if band == 'diagonal' else 4}, ")


def test_score_identities_checks_a_law_near_its_edges(monkeypatch):
    # FreeBeta(4/5, 24): its grid points lie as close as 0.007 to an edge
    seen = []
    score_grid = analysis.score_grid

    def recorded(f, points):
        seen.append(f)
        return score_grid(f, points)

    monkeypatch.setattr(analysis, "score_grid", recorded)
    ok, detail = dict(CRITERIA)["score-identities"]()
    assert ok, detail
    assert FreeBeta(Fraction(4, 5), 24) in seen
    assert detail.endswith(f"over {len(seen)} families x 20 points")

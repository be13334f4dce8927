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
from freebeta.distributions import FreeBeta, FreeBetaPrime
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


def test_statistics_catch_a_wrong_dc(fresh_tables, monkeypatch):
    statistics = ncl.statistics
    victim = ncl.enumerate_ncl(4)[7]

    def faulty(p):
        st = statistics(p)
        if p == victim:
            return ncl.NclStatistics(dc=st.dc + 1, sc=st.sc, sg=st.sg)
        return st

    monkeypatch.setattr(ncl, "statistics", faulty)
    ok, detail = criterion_statistics()
    assert not ok
    assert detail.startswith("block-count identity fails at n=4, ")


def test_measure_sanity_compares_the_two_density_routes(monkeypatch):
    # a relative 1e-7 error in the Cauchy transform's leading coefficient
    # moves the Stieltjes density by ~6e-8 but no mass, moment or atom
    # beyond its tolerance
    pieces = FreeBeta._pieces

    def perturbed(self):
        p = pieces(self)
        return dataclasses.replace(p, lead=p.lead * (1 + 1e-7))

    monkeypatch.setattr(FreeBeta, "_pieces", perturbed)
    ok, detail = criterion_measure_sanity()
    assert not ok
    assert detail.startswith("FreeBeta(a=Fraction(2, 1), b=Fraction(2, 1)) at x=")
    assert "|closed - Stieltjes|" in detail


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
        "triple-route-moments": "3 parameter sets, series == fock for "
        "n=1..6, ncl too for n=1..4, identical rationals",
        "mult-convolution": "S-product route equals closed-form series for "
        "n=1..6 and NCL route for n=1..4",
        "gamma-routes": "10 random rational triples, n=1..4, zero residual",
        "ncl-statistics": "identities exhaustive n<=4; reference triple "
        "(3,2,1)",
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
def test_route_refuses_oversized_n_before_any_table(monkeypatch, table,
                                                    route, subject):
    # called directly, not through the CLI; building NCL(1..10) on the way
    # to n = 11 took 8 s
    built = []
    monkeypatch.setattr(ncl, "ncl_table", built.append)
    start = time.perf_counter()
    with pytest.raises(SizeLimitExceeded, match="capped at n = 10"):
        getattr(verification, table)[route].fn(subject, 11)
    assert time.perf_counter() - start < 1
    assert built == []


@pytest.mark.parametrize("table, route, layer, subject", [
    ("MOMENT_ROUTES", "series", (distributions, "moment_series"),
     FreeBeta(2 ** 7000 + 1, 3)),
    ("GAMMA_ROUTES", "cf", (ncl, "gamma_series"),
     (2 ** 1024 + 1, 2 ** 1024 + 3, 1)),
    ("GAMMA_ROUTES", "closed", (ncl, "gamma_series"),
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

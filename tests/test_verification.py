"""The NCL criteria read one cached table per n and still catch faults.

Each test clears the ``ncl_table`` cache before and after itself, so a
table built with a patched enumerator or statistic never outlives it.
"""

import pytest

from freebeta import ncl
from freebeta.verification import (
    criterion_counts,
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

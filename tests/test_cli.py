"""Tests for the command-line interface: JSON envelope, CSV, exit codes."""

import argparse
import inspect
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freebeta import cli, distributions, ncl, verification
from freebeta.cli import (
    _FAMILIES, _MAX_ORDER, _MAX_POINTS, _all_int_digits, main,
)
from freebeta.errors import FreeBetaError, SizeLimitExceeded


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0, out
    payload = json.loads(out)
    assert payload["schema_version"] == "1.0"
    assert "provenance" in payload
    return payload


class TestMoments:
    def test_all_routes_agree(self, capsys):
        payload = run_json(
            capsys, "moments", "--family", "fbp", "--a", "2", "--b", "3",
            "--n", "5", "--route", "all",
        )
        rows = payload["results"]["moments"]
        assert [r["n"] for r in rows] == [1, 2, 3, 4, 5]
        assert rows[2]["ncl"] == "11/2"
        assert all(r["agree"] for r in rows)

    def test_rational_parameters(self, capsys):
        payload = run_json(
            capsys, "moments", "--family", "fbp", "--a", "1/2", "--b", "2",
            "--n", "2", "--route", "ncl",
        )
        rows = payload["results"]["moments"]
        assert rows[0]["ncl"] == "1/2"

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--family", "fbp", "--a", "2", "--b", "3",
            "--n", "3", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,")
        assert lines[3].split(",")[1] == "11/2"

    def test_other_families(self, capsys):
        payload = run_json(
            capsys, "moments", "--family", "fp", "--lam", "2", "--n", "3",
            "--route", "series",
        )
        rows = payload["results"]["moments"]
        assert rows[0]["series"] == "2/1"

    @pytest.mark.parametrize("flags", [
        ["fp", "--lam", "2"], ["ifp", "--b", "3"],
        ["ff", "--a", "2", "--b", "3"], ["ft", "--m", "3"],
        ["fb", "--a", "2", "--b", "3"],
    ], ids=lambda flags: flags[0])
    def test_all_routes_of_a_family_without_ncl(self, capsys, flags):
        # only the series route is defined off fbp, so "all" is that one
        payload = run_json(capsys, "moments", "--family", *flags, "--n", "3")
        rows = payload["results"]["moments"]
        assert [list(r) for r in rows] == [["n", "series"]] * 3
        assert payload["provenance"] == ["series"]

    def test_a_route_off_its_family_is_refused(self, capsys):
        code, out, err = run_cli(
            capsys, "moments", "--family", "fp", "--lam", "2", "--n", "3",
            "--route", "fock",
        )
        assert (code, out) == (2, "")
        assert err == ("error: routes other than 'series' are defined for "
                       "--family fbp\n")


# Full stdout of --route all, recorded before the route tables existed.
_GOLDEN = {
    ("moments", "json"): (
        '{"schema_version": "1.0", "command": "moments", "params": {"a": '
        '"2/1", "b": "3/1", "n": 4, "route": "all"}, "results": '
        '{"moments": [{"n": 1, "ncl": "1/1", "series": "1/1", "fock": '
        '"1/1", "transform": "1/1", "agree": true}, {"n": 2, "ncl": "2/1", '
        '"series": "2/1", "fock": "2/1", "transform": "2/1", "agree": '
        'true}, {"n": 3, "ncl": "11/2", "series": "11/2", "fock": "11/2", '
        '"transform": "11/2", "agree": true}, {"n": 4, "ncl": "71/4", '
        '"series": "71/4", "fock": "71/4", "transform": "71/4", "agree": '
        'true}]}, "provenance": ["ncl", "series", "fock", "transform"]}\n'
    ),
    ("moments", "csv"): (
        "n,ncl,series,fock,transform,agree\n"
        "1,1/1,1/1,1/1,1/1,True\n"
        "2,2/1,2/1,2/1,2/1,True\n"
        "3,11/2,11/2,11/2,11/2,True\n"
        "4,71/4,71/4,71/4,71/4,True\n"
    ),
    ("gamma-gf", "json"): (
        '{"schema_version": "1.0", "command": "gamma-gf", "params": {"n": '
        '4, "alpha": "1/3", "beta": "2/1", "gamma": "5/7", "route": '
        '"all"}, "results": {"values": [{"n": 1, "brute": "5/7", "cf": '
        '"5/7", "closed": "5/7", "agree": true}, {"n": 2, "brute": '
        '"123/49", "cf": "123/49", "closed": "123/49", "agree": true}, '
        '{"n": 3, "brute": "7529/1029", "cf": "7529/1029", "closed": '
        '"7529/1029", "agree": true}, {"n": 4, "brute": "566675/21609", '
        '"cf": "566675/21609", "closed": "566675/21609", "agree": true}]}, '
        '"provenance": ["brute", "cf", "closed"]}\n'
    ),
    ("gamma-gf", "csv"): (
        "n,brute,cf,closed,agree\n"
        "1,5/7,5/7,5/7,True\n"
        "2,123/49,123/49,123/49,True\n"
        "3,7529/1029,7529/1029,7529/1029,True\n"
        "4,566675/21609,566675/21609,566675/21609,True\n"
    ),
}
_GOLDEN_ARGV = {
    "moments": ["moments", "--family", "fbp", "--a", "2", "--b", "3",
                "--n", "4", "--route", "all"],
    "gamma-gf": ["gamma-gf", "--alpha", "1/3", "--beta", "2", "--gamma",
                 "5/7", "--n", "4", "--route", "all"],
}


@pytest.mark.parametrize("command, fmt", sorted(_GOLDEN))
def test_route_tables_print_the_recorded_bytes(capsys, command, fmt):
    code, out, err = run_cli(capsys, *_GOLDEN_ARGV[command], "--format", fmt)
    assert (code, err) == (0, "")
    assert out == _GOLDEN[command, fmt]


def test_cli_names_no_route():
    source = inspect.getsource(cli)
    for table in (verification.MOMENT_ROUTES, verification.GAMMA_ROUTES):
        for route in table:
            assert f'"{route}"' not in source and f"'{route}'" not in source


def test_a_new_moment_route_needs_no_cli_edit(capsys, monkeypatch):
    series = verification.MOMENT_ROUTES["series"]
    monkeypatch.setitem(verification.MOMENT_ROUTES, "echo", series)
    argv = ["moments", "--family", "fbp", "--a", "2", "--b", "3", "--n", "3"]
    rows = run_json(capsys, *argv, "--route", "echo")["results"]["moments"]
    assert [r["echo"] for r in rows] == ["1/1", "2/1", "11/2"]
    payload = run_json(capsys, *argv)
    assert list(payload["results"]["moments"][0]) == [
        "n", "ncl", "series", "fock", "transform", "echo", "agree"]
    assert payload["provenance"][-1] == "echo"


# (argv, table key) of every subcommand with a CSV form
_TABLES = [
    (["moments", "--family", "fbp", "--a", "2", "--b", "3", "--n", "3"],
     "moments"),
    (["moments", "--family", "fp", "--lam", "1/2", "--n", "2", "--route",
      "series"], "moments"),
    (["density", "--family", "fbp", "--a", "2", "--b", "3", "--grid",
      "1:2:3"], "grid"),
    (["gamma-gf", "--alpha", "1", "--beta", "2", "--gamma", "1/3", "--n",
      "3"], "values"),
    (["score-check", "--family", "ft", "--m", "2", "--points", "3"], "grid"),
    (["mc-fisher", "--p", "40", "--a", "2", "--b", "3", "--bins", "5"],
     "histogram"),
]


@pytest.mark.parametrize("argv, key", _TABLES,
                         ids=lambda v: " ".join(v) if isinstance(v, list)
                         else v)
def test_csv_columns_are_the_json_row_keys(capsys, argv, key):
    rows = run_json(capsys, *argv)["results"][key]
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0].split(",") == list(rows[0])
    assert [line.split(",") for line in lines[1:]] == [
        [str(v) for v in row.values()] for row in rows]


class TestDensityAndSupport:
    def test_support(self, capsys):
        payload = run_json(capsys, "support", "--family", "ft", "--m", "2")
        assert payload["results"]["lo"] == -4.0
        assert payload["results"]["hi"] == 4.0

    def test_support_atoms(self, capsys):
        payload = run_json(capsys, "support", "--family", "fp",
                           "--lam", "1/2")
        atoms = payload["results"]["atoms"]
        assert atoms and atoms[0]["location"] == 0.0
        assert atoms[0]["mass"] == pytest.approx(0.5)

    def test_density_grid(self, capsys):
        payload = run_json(
            capsys, "density", "--family", "fbp", "--a", "2", "--b", "3",
            "--grid", "1:2:3",
        )
        grid = payload["results"]["grid"]
        assert [g["x"] for g in grid] == [1.0, 1.5, 2.0]
        assert all(g["density"] > 0 for g in grid)


class TestCombinatorics:
    def test_enumerate_count(self, capsys):
        payload = run_json(capsys, "enumerate-ncl", "--n", "4")
        assert payload["results"]["count"] == 22

    def test_ncl_stats(self, capsys):
        payload = run_json(
            capsys, "ncl-stats", "--partition", "1,2,7|2,4|3|5,6|7,8,9|9,10",
        )
        res = payload["results"]
        assert (res["dc"], res["sc"], res["sg"]) == (3, 2, 1)
        assert res["valid"] is True

    def test_gamma_gf_routes(self, capsys):
        payload = run_json(
            capsys, "gamma-gf", "--alpha", "1", "--beta", "1", "--gamma", "1",
            "--n", "4", "--route", "all",
        )
        rows = payload["results"]["values"]
        assert [r["closed"] for r in rows] == ["1/1", "2/1", "6/1", "22/1"]

    def test_gamma_gf_expands_each_series_once(self, capsys, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return cf_expand(*args)

        cf_expand = ncl.cf_expand
        monkeypatch.setattr(ncl, "cf_expand", counting)
        payload = run_json(
            capsys, "gamma-gf", "--alpha", "1", "--beta", "1", "--gamma", "1",
            "--n", "12", "--route", "cf",
        )
        assert len(calls) == 1
        assert payload["results"]["values"][-1]["cf"] == "5293446/1"

    def test_t_coeffs(self, capsys):
        payload = run_json(
            capsys, "t-coeffs", "--a", "2", "--b", "3", "--order", "3",
        )
        assert payload["results"]["alphas"] == ["1/1", "1/1", "1/2", "1/4"]


def test_verify_times_each_criterion(capsys):
    code, out, err = run_cli(capsys, "verify")
    assert code == 0
    criteria = json.loads(out)["results"]["criteria"]
    assert [c["criterion"] for c in criteria] == [
        name for name, _ in verification.CRITERIA]
    assert len(criteria) == 12
    assert all(isinstance(c["elapsed_s"], float) and c["elapsed_s"] >= 0
               for c in criteria)
    # the stderr lines stay untimed
    assert err.splitlines() == [
        f"PASS {c['criterion']}: {c['detail']}" for c in criteria]


class TestMeixnerAndScores:
    def test_meixner(self, capsys):
        payload = run_json(capsys, "meixner", "--a", "2", "--b", "3")
        res = payload["results"]
        assert res["discriminant"] == "1/4"
        assert res["class"] == "free negative binomial"

    def test_score_check(self, capsys):
        payload = run_json(
            capsys, "score-check", "--family", "ft", "--m", "2",
            "--points", "5",
        )
        assert payload["results"]["max_abs_deviation"] < 1e-6


class TestMonteCarlo:
    def test_mc_fisher(self, capsys):
        payload = run_json(
            capsys, "mc-fisher", "--p", "100", "--a", "2", "--b", "3",
            "--seed", "7",
        )
        assert payload["results"]["ks_distance"] < 0.15
        assert len(payload["results"]["histogram"]) == 40


class TestExitCodes:
    def test_validation_error_is_2(self, capsys):
        code, _, err = run_cli(
            capsys, "moments", "--family", "fbp", "--a", "2", "--b", "1/2",
            "--n", "3",
        )
        assert code == 2
        assert "error" in err.lower()

    def test_malformed_partition_is_2(self, capsys):
        code, _, _ = run_cli(capsys, "ncl-stats", "--partition", "1,zebra")
        assert code == 2

    def test_invalid_partition_reported_not_fatal(self, capsys):
        payload = run_json(capsys, "ncl-stats", "--partition", "1,3|2,4")
        assert payload["results"]["valid"] is False

    def test_sparse_partition_of_a_huge_ground_set(self, capsys):
        start = time.perf_counter()
        payload = run_json(capsys, "ncl-stats", "--partition", "1,1000000000")
        assert time.perf_counter() - start < 0.5
        assert payload["results"] == {"n": 1000000000, "valid": False}

    def test_success_is_0(self, capsys):
        code, _, _ = run_cli(capsys, "support", "--family", "ft", "--m", "2")
        assert code == 0

    def test_closed_stdout_ends_quietly(self):
        # --list prints ~170 KB, more than a pipe holds, so the command is
        # still writing when the reader closes the pipe after 100 bytes
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "freebeta.cli", "enumerate-ncl", "--n", "8",
             "--list"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert err == b""


def _family_choices(command):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions
                if a.dest == "family")


@pytest.mark.parametrize("command, op", [
    ("moments", "_moments"), ("density", None), ("support", None),
    ("score-check", "_v_prime"),
])
def test_family_choices_come_from_the_classes(command, op):
    want = [key for key, cls in _FAMILIES.items()
            if op is None or op in vars(cls)]
    assert list(_family_choices(command)) == want


# before their caps the cf and closed routes took 1.9-2.4 s on this input,
# and 4.4-4.6 s on a loaded host
_FOUND_GAMMA = ["gamma-gf", "--alpha", str(2 ** 1023 + 1), "--beta",
                str(2 ** 1024 + 3), "--gamma", "1", "--n", "100"]
_U64 = str(2 ** 64 - 59)


class TestInputGuards:
    def assert_one_error_line(self, capsys, *argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        elapsed = time.perf_counter() - start
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        return elapsed

    @pytest.mark.parametrize("command, extra", [
        ("moments", ["--n", "2"]), ("density", []), ("support", []),
        ("score-check", []),
    ])
    def test_stray_family_flag_is_refused(self, capsys, command, extra):
        code, out, err = run_cli(
            capsys, command, "--family", "fbp", "--a", "2", "--b", "3",
            "--m", "5", *extra,
        )
        assert (code, out) == (2, "")
        assert err == "error: --m is not a parameter of --family fbp\n"

    def test_moments_refuses_a_family_without_moments(self, capsys):
        self.assert_one_error_line(
            capsys, "moments", "--family", "meixner", "--theta", "1",
            "--tau", "1", "--n", "2",
        )

    @pytest.mark.parametrize("n", ["-1", "0"])
    def test_moments_rejects_nonpositive_n(self, capsys, n):
        self.assert_one_error_line(
            capsys, "moments", "--family", "fbp", "--a", "2", "--b", "3",
            "--n", n,
        )

    def test_gamma_gf_rejects_nonpositive_n(self, capsys):
        self.assert_one_error_line(
            capsys, "gamma-gf", "--alpha", "1", "--beta", "1", "--gamma", "1",
            "--n", "0",
        )

    def assert_over_limit(self, capsys, route, skipped, *argv):
        """Named, a route over its limit exits 2 with its reason before any
        work; under all it is listed under "skipped" and the others run
        (with an "agree" column when more than one does)."""
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "--route", route)
        elapsed = time.perf_counter() - start
        if route != "all":
            assert (code, out) == (2, "")
            assert err == f"error: {skipped[route]}\n"
            return elapsed
        assert (code, err) == (0, "")
        payload = json.loads(out)
        results, ran = payload["results"], payload["provenance"]
        assert results.pop("skipped") == skipped
        assert ran and not set(ran) & set(skipped)
        [rows] = results.values()
        n = int(argv[argv.index("--n") + 1])
        assert [row["n"] for row in rows] == list(range(1, n + 1))
        agree = {"agree"} if len(ran) > 1 else set()
        assert all(set(row) == {"n", *agree, *ran} and row.get("agree", True)
                   for row in rows)
        return elapsed

    @pytest.mark.parametrize("route", ["ncl", "all"])
    def test_moments_size_guard_fires_first(self, capsys, route):
        elapsed = self.assert_over_limit(
            capsys, route, {"ncl": "exhaustive enumeration capped at n = 10"},
            "moments", "--family", "fbp", "--a", "2", "--b", "3",
            "--n", "13",
        )
        assert elapsed < 0.5

    @pytest.mark.parametrize("route", ["ncl", "fock", "all"])
    def test_ncl_route_is_capped_in_parameter_size(self, capsys, route):
        # at n = 10 the ncl route took 16.5 s on this b before it had this
        # cap; 10^2.5 * (bits of b + bits of a / 8) = 10^2.5 * (7002 + 3/8)
        reason = ("the {} route is capped at n^2.5 * (bits of b + bits of "
                  "a / 8) <= 2000000, got 2214345")
        elapsed = self.assert_over_limit(
            capsys, route,
            {r: reason.format(r) for r in ("ncl", "fock", "transform")},
            "moments", "--family", "fbp", "--a", "2", "--b",
            str(2 ** 7000 + 1), "--n", "10",
        )
        if route != "all":
            assert elapsed < 1

    def test_transform_size_cap_fires_first(self, capsys):
        # the transform route ran 79 s on this input before it had a cap
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "moments", "--family", "fbp", "--a", "2", "--b",
            "100000000000000000001", "--n", "100", "--route", "transform",
        )
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: the transform route is capped")

    # at n = 100 the cap is bits(b) + bits(a) / 8 <= 20: b = 2^17 + 1 gives
    # 19 + 3/8 and 2^18 + 1 gives 20 + 3/8; a = 2^133 + 1 gives 3 + 135/8
    # and 2^135 + 1 gives 3 + 137/8
    @pytest.mark.parametrize("inside, outside", [
        ((2, 2 ** 17 + 1), (2, 2 ** 18 + 1)),
        ((2 ** 133 + 1, 3), (2 ** 135 + 1, 3)),
    ], ids=["bits-in-b", "bits-in-a"])
    def test_transform_size_cap_bound(self, inside, outside):
        fbp = distributions.FreeBetaPrime
        limit = verification._size_limit
        assert limit("transform", fbp(*inside), 100) is None
        assert limit("transform", fbp(*outside), 100).startswith(
            "the transform route is capped")

    @pytest.mark.parametrize("route, argv", [
        # over 120 s before the series route had a cap
        ("series", ["moments", "--family", "fbp", "--a", "2", "--b",
                    str(2 ** 7000 + 1), "--n", "100"]),
        ("cf", _FOUND_GAMMA),
        ("closed", _FOUND_GAMMA),
    ])
    def test_parameter_size_caps_fire_first(self, capsys, route, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "--route", route)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith(f"error: the {route} route is capped at n^1.5 "
                              "* (bits of all parameters) <= ")
        assert len(err.splitlines()) == 1

    def test_series_route_is_skipped_when_over_its_cap(self, capsys):
        # 11^1.5 * (8302 + 3) = 302990 for the bits of a and b: series is over
        # its cap while fock and transform, which weigh a's bits by 1/8, run
        a = 2 ** 8300 + 1
        reason = ("the series route is capped at n^1.5 * (bits of all "
                  "parameters) <= 300000, got 302990")
        self.assert_over_limit(
            capsys, "all",
            {"ncl": "exhaustive enumeration capped at n = 10",
             "series": reason},
            "moments", "--family", "fbp", "--a", str(a), "--b", "3",
            "--n", "11")

    def test_gamma_route_is_skipped_when_over_its_cap(self, capsys,
                                                      monkeypatch):
        monkeypatch.setitem(verification._PARAMS_LIMITS, "cf", 40)
        self.assert_over_limit(
            capsys, "all",
            {"cf": "the cf route is capped at n^1.5 * (bits of all "
                   "parameters) <= 40, got 48"},
            "gamma-gf", "--alpha", "1", "--beta", "1", "--gamma", "1",
            "--n", "4")

    @pytest.mark.parametrize("argv, table", [
        (["moments", "--family", "fbp", "--a", "2", "--b",
          str(2 ** 7000 + 1), "--n", "100"], verification.MOMENT_ROUTES),
        (["moments", "--family", "fb", "--a", str(2 ** 7000 + 1), "--b",
          "3", "--n", "100"], {"series": verification.MOMENT_ROUTES[
              "series"]}),
        (_FOUND_GAMMA, verification.GAMMA_ROUTES),
    ], ids=["fbp", "fb", "gamma"])
    def test_every_route_refusing_is_one_error_line(self, capsys, argv,
                                                    table):
        args = cli.build_parser().parse_args(argv)
        subject = (cli._build_family(args)[0] if args.command == "moments"
                   else (args.alpha, args.beta, args.gamma))
        reasons = []
        for route, entry in table.items():
            with pytest.raises(SizeLimitExceeded) as exc:
                entry.fn(subject, args.n)
            reasons.append(f"{route}: {exc.value}")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "--route", "all")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: every route refused: {'; '.join(reasons)}\n"

    @pytest.mark.parametrize("route", ["brute", "all"])
    def test_gamma_gf_size_guard_fires_first(self, capsys, route):
        elapsed = self.assert_over_limit(
            capsys, route,
            {"brute": "exhaustive enumeration capped at n = 10"},
            "gamma-gf", "--alpha", "1", "--beta", "1", "--gamma", "1",
            "--n", "13",
        )
        assert elapsed < 0.5

    @pytest.mark.parametrize("argv", [
        ["moments", "--family", "fbp", "--a", "2", "--b", "3", "--n",
         str(_MAX_ORDER + 1), "--route", "series"],
        ["moments", "--family", "fbp", "--a", "2", "--b", "3", "--n", "200",
         "--route", "transform"],
        ["moments", "--family", "fbp", "--a", "2", "--b", "3", "--n",
         "1000000", "--route", "fock"],
        # the fock route ran 42 s on this input before it had a cap
        ["moments", "--family", "fbp", "--a", "2", "--b",
         str(2 ** 256 + 1), "--n", "100", "--route", "fock"],
        ["gamma-gf", "--alpha", "1", "--beta", "1", "--gamma", "1", "--n",
         str(_MAX_ORDER + 1), "--route", "cf"],
        ["gamma-gf", "--alpha", "1", "--beta", "1", "--gamma", "1", "--n",
         "1000000", "--route", "closed"],
        ["t-coeffs", "--a", "2", "--b", "3", "--order",
         str(_MAX_ORDER + 1)],
        ["t-coeffs", "--a", "2", "--b", "3", "--order", "300000"],
        ["density", "--family", "fbp", "--a", "2", "--b", "3", "--grid",
         f"0.5:4.5:{_MAX_POINTS + 1}"],
        ["density", "--family", "fbp", "--a", "2", "--b", "3", "--grid",
         "0.5:4.5:2000000"],
        ["score-check", "--family", "fbp", "--a", "2", "--b", "3",
         "--points", str(_MAX_POINTS + 1)],
        ["score-check", "--family", "fbp", "--a", "2", "--b", "3",
         "--points", "200000"],
    ], ids=" ".join)
    def test_size_caps_fire_first(self, capsys, argv):
        elapsed = self.assert_one_error_line(capsys, *argv)
        assert elapsed < 0.5

    @pytest.mark.parametrize("argv", [
        ["moments", "--family", "fbp", "--a", "2", "--b", "3", "--n",
         str(_MAX_ORDER), "--route", "series"],
        ["moments", "--family", "fbp", "--a", "2", "--b", "3", "--n",
         str(_MAX_ORDER), "--route", "transform"],
        ["t-coeffs", "--a", "2", "--b", "3", "--order", str(_MAX_ORDER)],
        ["density", "--family", "fbp", "--a", "2", "--b", "3", "--grid",
         f"0.5:4.5:{_MAX_POINTS}"],
        # 64-bit parameters at the largest order
        ["moments", "--family", "fb", "--a", _U64, "--b", _U64, "--n",
         str(_MAX_ORDER), "--route", "series"],
        ["gamma-gf", "--alpha", _U64, "--beta", _U64, "--gamma", _U64,
         "--n", str(_MAX_ORDER), "--route", "all"],
    ], ids=" ".join)
    def test_size_caps_admit_their_bound(self, capsys, argv):
        run_json(capsys, *argv)

    def test_series_route_runs_past_the_ncl_cap(self, capsys):
        payload = run_json(
            capsys, "moments", "--family", "fbp", "--a", "2", "--b", "3",
            "--n", "13", "--route", "series",
        )
        assert len(payload["results"]["moments"]) == 13

    @pytest.mark.parametrize(
        "grid", ["1:2:1", "1:2:0", "1:2", "1:2:3:4", "a:2:3", "1:2:1.5",
                 "nan:2:3", "1:inf:3"],
    )
    def test_density_bad_grid(self, capsys, grid):
        self.assert_one_error_line(
            capsys, "density", "--family", "fbp", "--a", "2", "--b", "3",
            "--grid", grid,
        )

    def test_score_check_rejects_no_points(self, capsys):
        elapsed = self.assert_one_error_line(
            capsys, "score-check", "--family", "fbp", "--a", "2", "--b", "3",
            "--points", "0",
        )
        assert elapsed < 0.5

    def test_t_coeffs_rejects_negative_order(self, capsys):
        elapsed = self.assert_one_error_line(
            capsys, "t-coeffs", "--a", "2", "--b", "3", "--order", "-1",
        )
        assert elapsed < 0.5

    @pytest.mark.parametrize(
        "command, theta, tau",
        [("density", "nan", "1"), ("support", "1", "inf"),
         ("support", "inf", "1")],
    )
    def test_meixner_rejects_non_finite(self, capsys, command, theta, tau):
        elapsed = self.assert_one_error_line(
            capsys, command, "--family", "meixner", "--theta", theta,
            "--tau", tau,
        )
        assert elapsed < 0.5

    @pytest.mark.parametrize("family", ["fbp", "ff"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_results_are_refused(self, capsys, family, fmt):
        # at a = 1e300 the float support and densities are NaN
        code, out, err = run_cli(capsys, "density", "--family", family,
                                 "--a", "1e300", "--b", "3", "--format", fmt)
        assert (code, out) == (2, "")
        assert err == "error: the result holds a non-finite number, nan\n"

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_ncl_stats_rejects_nonpositive_n(self, capsys, n):
        # n is the largest element of the partition
        code, out, err = run_cli(capsys, "ncl-stats", "--partition", n)
        assert (code, out) == (2, "")
        assert err == "error: ground set must be nonempty\n"

    def test_ncl_stats_has_no_n_flag(self, capsys):
        # n is the largest element of the partition
        self.assert_one_error_line(capsys, "ncl-stats", "--partition", "1,2",
                                   "--n", "2")

    @pytest.mark.parametrize("n", ["0", "-1", "11"])
    def test_enumerate_ncl_rejects_nonpositive_n(self, capsys, n):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "enumerate-ncl", "--n", n)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err == f"error: --n must be 1..10, got {n}\n"

    def test_mc_fisher_rejects_no_bins_before_sampling(self, capsys):
        elapsed = self.assert_one_error_line(
            capsys, "mc-fisher", "--p", "800", "--a", "2", "--b", "3",
            "--bins", "0",
        )
        assert elapsed < 0.5

    def test_mc_fisher_rejects_too_many_bins_before_sampling(self, capsys):
        elapsed = self.assert_one_error_line(
            capsys, "mc-fisher", "--p", "800", "--a", "2", "--b", "3",
            "--bins", "1000000",
        )
        assert elapsed < 0.5

    @pytest.mark.parametrize("p,a", [("1000", "1000000"), ("100000", "2"),
                                     ("2001", "2")])
    def test_mc_fisher_size_guard_fires_before_sampling(self, capsys, p, a):
        elapsed = self.assert_one_error_line(
            capsys, "mc-fisher", "--p", p, "--a", a, "--b", "3",
        )
        assert elapsed < 0.5

    @pytest.mark.parametrize("argv", [
        ["density", "--family", "fp", "--lam", "zebra"],
        ["density", "--family", "meixner", "--theta", "-inf", "--tau", "1"],
        ["support", "--family", "zebra"],
        ["moments", "--family", "fbp", "--a", "2", "--b", "3"],
        ["moments", "--family", "fbp", "--a", "2", "--b", "3", "--n", "x"],
        ["score-check", "--family", "fbp", "--a", "2", "--b", "3",
         "--zebra"],
        ["zebra"],
        [],
        # --format exists only where there is a table to print
        ["verify", "--format", "csv"],
        ["enumerate-ncl", "--n", "10", "--format", "csv"],
        ["support", "--family", "ft", "--m", "2", "--format", "json"],
    ], ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_usage_errors_are_one_line(self, capsys, argv):
        elapsed = self.assert_one_error_line(capsys, *argv)
        assert elapsed < 0.5

    def test_a_negative_rational_is_a_value(self, capsys):
        payload = run_json(capsys, "gamma-gf", "--n", "3", "--alpha", "1",
                           "--beta", "-1/2", "--gamma", "1", "--route", "cf")
        assert payload["params"]["beta"] == "-1/2"
        with pytest.raises(FreeBetaError) as exc:
            distributions.FreeBetaPrime(Fraction(-1, 2), 3)
        code, out, err = run_cli(capsys, "moments", "--family", "fbp",
                                 "--a", "-1/2", "--b", "3", "--n", "2")
        assert (code, out, err) == (2, "", f"error: {exc.value}\n")

    @pytest.mark.parametrize("argv", [["--help"], ["density", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("a", ["0", "-1", "1/1000"])
    def test_mc_fisher_rejects_empty_first_sample(self, capsys, a):
        elapsed = self.assert_one_error_line(
            capsys, "mc-fisher", "--p", "50", "--a", a, "--b", "3",
        )
        assert elapsed < 0.5

    def test_exact_results_print_past_the_int_digit_limit(self, capsys):
        # alpha_100 = t u^100 has ~4800 digits, past Python's 4300-digit
        # int-to-str limit; printing lifts the limit and then restores it
        limit = sys.get_int_max_str_digits()
        b = "1" + "0" * 46 + "1"
        payload = run_json(capsys, "t-coeffs", "--a", "2", "--b", b,
                           "--order", "100")
        assert sys.get_int_max_str_digits() == limit
        _, t, u = distributions.fbp_t_params(Fraction(2), Fraction(b))
        want = t * u ** 100
        with _all_int_digits():
            assert payload["results"]["alphas"][-1] == (
                f"{want.numerator}/{want.denominator}")
        assert want.denominator > 10 ** 4300

    def test_exact_csv_prints_past_the_int_digit_limit(self, capsys):
        alpha = "1" + "0" * 49 + "1"
        code, out, err = run_cli(
            capsys, "gamma-gf", "--n", "100", "--alpha", alpha, "--beta",
            "1", "--gamma", "1", "--route", "cf", "--format", "csv",
        )
        assert code == 0, err
        last = out.strip().splitlines()[-1].split(",")
        assert last[0] == "100" and len(last[1]) > 4300

    def test_rational_flag_past_the_int_digit_limit_is_refused(self, capsys):
        limit = sys.get_int_max_str_digits()
        self.assert_one_error_line(capsys, "t-coeffs", "--a", "2",
                                   "--b", "1" * 5000, "--order", "3")
        assert sys.get_int_max_str_digits() == limit

    def test_meixner_class_is_exact(self, capsys):
        # theta^2 - 4 tau = 1/1000000000001000000 > 0, below float resolution
        payload = run_json(capsys, "meixner", "--a", "1000000",
                           "--b", "1000001/1000000")
        res = payload["results"]
        assert res["discriminant"] == "1/1000000000001000000"
        assert res["class"] == "free negative binomial"


# --------------------------------------------------------------------------
# Fuzzing: every argv ends in exit code 0 or 2 with one JSON envelope (or
# CSV table) on stdout, or one "error:" line on stderr; --format is drawn
# for every subcommand and must be refused where no table exists.
# Admissible sizes are bounded (--n <= 6, --p <= 40, --points <= 5,
# --order <= 12, grids of <= 5 points, mc-fisher ratios <= 3) so each case
# runs well under a second; the edge values of 1000000 for every size flag
# (--n, --order, --points, the --grid count, --p, --a, --bins) and the
# partition 1,1000000000 must be refused or answered just as fast, which
# the size guards and the linear cover check ensure.  `verify` is
# left out because it takes seconds.  Most drawn values are admissible, so
# that the success paths are reached as well as the error paths.
# --------------------------------------------------------------------------

def _mostly(usual, edge):
    """Values from ``usual``, and one time in five from ``edge``."""
    return st.integers(0, 4).flatmap(
        lambda k: st.sampled_from(edge if k == 0 else usual))


_RATIONALS = _mostly(
    ["2", "3", "1/2", "3/2", "7/3", "5", "2.5"],
    ["1", "0", "-1", "-3/4", "1e-9", "1e300", "1e400", "zebra", "1/0", ""])
_FLOATS = st.integers(0, 4).flatmap(
    lambda k: st.floats(-5, 5).map(repr) if k else st.sampled_from(
        ["-1", "-2", "nan", "inf", "-inf", "1e308", "zebra"]))
# drawn for every subcommand; only the tabular ones accept it
_FORMATS = _mostly(["json", "csv"], ["zebra"])
_SMALL_N = _mostly([str(n) for n in range(1, 7)],
                   ["0", "-1", "2.5", "zebra", "1000000"])


def _family_flags(*keys):
    return {
        "--family": _mostly(keys, ["meixner", "zebra"]),
        "--a": _RATIONALS, "--b": _RATIONALS, "--lam": _RATIONALS,
        "--m": _RATIONALS, "--theta": _FLOATS, "--tau": _FLOATS,
        "--format": _FORMATS,
    }


_ALL_FAMILIES = tuple(_FAMILIES)
_COMMANDS = {
    # only fbp has every route, so it is drawn as often as all others
    "moments": {**_family_flags("fbp", "fbp", "fbp", "fbp", "fbp", "fp",
                                "ifp", "ff", "ft", "fb"),
                "--n": _SMALL_N, "--route": _mostly(
                    ["ncl", "series", "fock", "transform", "all"],
                    ["zebra"])},
    "density": {**_family_flags(*_ALL_FAMILIES), "--grid": _mostly(
        ["0.5:2:3", "0:1:5", "-1:20:4", "-2:2:2"],
        ["1:2:1", "1:2", "a:b:c", "nan:1:3", "", "0:1:1000000"])},
    "support": _family_flags(*_ALL_FAMILIES),
    "score-check": {**_family_flags("fbp", "ft", "fb"),
                    "--points": _mostly(["1", "2", "5"],
                                        ["0", "-1", "1000000"])},
    "enumerate-ncl": {"--n": _SMALL_N, "--list": None, "--format": _FORMATS},
    "ncl-stats": {"--partition": _mostly(
        ["1,2|3", "1,3|2,4", "1,2,3|3,4", "1", "1,2|2,3|3,4|4,5|5,6"],
        ["1,zebra", "|", "", "0,1", "1,1", "1,1000000000"]),
        "--format": _FORMATS},
    "gamma-gf": {"--n": _SMALL_N, "--alpha": _RATIONALS,
                 "--beta": _RATIONALS, "--gamma": _RATIONALS,
                 "--route": _mostly(["brute", "cf", "closed", "all"],
                                    ["zebra"]),
                 "--format": _FORMATS},
    "t-coeffs": {"--a": _RATIONALS, "--b": _RATIONALS,
                 "--order": _mostly([str(k) for k in range(13)],
                                    ["-1", "zebra", "1000000"]),
                 "--format": _FORMATS},
    "meixner": {"--a": _RATIONALS, "--b": _RATIONALS, "--format": _FORMATS},
    "mc-fisher": {"--p": _mostly(["1", "2", "10", "40"],
                                 ["0", "-1", "1000000"]),
                  "--a": _mostly(["2", "3", "1/2"],
                                 ["0", "-1", "1e400", "zebra", "1000000"]),
                  "--b": _mostly(["3", "2", "3/2"], ["1", "1/2", "zebra"]),
                  "--seed": st.integers(-1, 5).map(str),
                  "--bins": _mostly(["1", "5", "12"],
                                    ["0", "-1", "1000000"]),
                  "--format": _FORMATS},
}
_TABULAR = {"moments", "density", "gamma-gf", "score-check", "mc-fisher"}


_PARAM_FLAGS = {f"--{f.name}" for cls in _FAMILIES.values()
                for f in fields(cls)}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [command]
    flags = _COMMANDS[command]
    family = draw(flags["--family"]) if "--family" in flags else None
    own = ({f"--{f.name}" for f in fields(_FAMILIES[family])}
           if family in _FAMILIES else _PARAM_FLAGS)
    for flag, values in flags.items():
        # a parameter of another family is refused: draw one in five
        if flag in _PARAM_FLAGS - own and draw(st.integers(0, 4)):
            continue
        if draw(st.integers(0, 9)):
            argv.append(flag)
            if flag == "--family":
                argv.append(family)
            elif values is not None:
                argv.append(draw(values))
    if draw(st.integers(0, 19)) == 0:
        argv.append("--zebra")
    return argv


def _strict_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=150, deadline=2000)
@given(_argvs())
def test_fuzzed_argv_ends_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if "--format" in argv and argv[0] not in _TABULAR:
        assert code == 2
    if code == 0:
        assert err == ""
        if "csv" in argv:
            assert out.endswith("\n") and "," in out
        else:
            payload = json.loads(out, parse_constant=_strict_constant)
            assert payload["command"] == argv[0]
    else:
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

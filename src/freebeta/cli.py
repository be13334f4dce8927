"""Command-line front end.

Every subcommand prints one JSON envelope to stdout:
``{schema_version, command, params, results, provenance}``.  Exact
rationals are serialized as "num/den" strings so nothing passes through
floating point; genuinely floating quantities are JSON numbers.  A
subcommand whose results hold a table also takes ``--format csv`` and then
prints only that table, under a header of its JSON row keys.  Exit codes:
0 success, 2 usage or validation error, 3 verification tolerance failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
import time
from dataclasses import fields
from fractions import Fraction

from . import analysis, distributions, ncl, randmat
from .errors import FreeBetaError, SizeLimitExceeded
from .verification import (GAMMA_ROUTES, MOMENT_ROUTES, _params_limit,
                           route_rows, run_all)

SCHEMA_VERSION = "1.0"


# A decimal exponent k at the end of a rational flag, as Fraction reads it
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")


def _rat(text: str) -> Fraction:
    limit = sys.get_int_max_str_digits()
    read, past = text, (f"an integer of more than {limit} digits, "
                        "Python's limit on reading one")
    exp = _EXPONENT.search(text)
    if exp and limit:
        digits = exp[1].replace("_", "").lstrip("0")
        if len(digits) > len(str(limit)) or int(digits or "0") >= limit:
            # Fraction computes 10^|k| before anything can look at its size
            # (103 s at k = 6e7), so such a k is refused unread; the rest of
            # the flag, read with k = 0, must still parse
            read = text[:exp.start()] + "e0"
            past = (f"an exponent of {limit} or more, whose power of ten "
                    f"passes {limit} digits, Python's limit on reading an "
                    "integer")
    try:
        value = Fraction(read)
    except (ValueError, ZeroDivisionError):
        pass
    else:
        if read == text:
            return value
        raise argparse.ArgumentTypeError(past)
    try:
        # a valid rational can still hold an integer past Python's digit
        # limit on reading integers (3.10.7+), which flags keep
        with _all_int_digits():
            Fraction(read)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")
    raise argparse.ArgumentTypeError(past)


def _fmt(value):
    """Serialize rationals as 'num/den'; pass floats/ints/strings through.

    A NaN or an infinity, which the float routes give at extreme parameters,
    is refused: it is not JSON.
    """
    if isinstance(value, float) and not math.isfinite(value):
        raise FreeBetaError(f"the result holds a non-finite number, {value}")
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    return value


_FAMILIES = {
    "fp": distributions.FreePoisson,
    "ifp": distributions.InverseFreePoisson,
    "fbp": distributions.FreeBetaPrime,
    "ff": distributions.FreeF,
    "ft": distributions.FreeT,
    "fb": distributions.FreeBeta,
    "meixner": distributions.FreeMeixnerStd,
}


# one rational flag per parameter field of any family
_FAMILY_FLAGS = tuple(dict.fromkeys(
    f.name for cls in _FAMILIES.values() for f in fields(cls)))


def _families_with(op: str) -> tuple[str, ...]:
    """The --family keys whose class defines the Family operation ``op``."""
    base = getattr(distributions.Family, op)
    return tuple(k for k, cls in _FAMILIES.items()
                 if getattr(cls, op) is not base)


def _add_family_flags(p: argparse.ArgumentParser, families) -> None:
    """--family plus one flag per parameter field of any family."""
    p.add_argument("--family", required=True, choices=families)
    for name in _FAMILY_FLAGS:
        p.add_argument(f"--{name}", type=_rat)


def _build_family(args):
    cls = _FAMILIES[args.family]
    params = {f.name: getattr(args, f.name) for f in fields(cls)}
    for name, value in params.items():
        if value is None:
            raise FreeBetaError(f"family {args.family} requires --{name}")
    for name in _FAMILY_FLAGS:
        if name not in params and getattr(args, name) is not None:
            raise FreeBetaError(
                f"--{name} is not a parameter of --family {args.family}")
    return cls(**params), params


@contextlib.contextmanager
def _all_int_digits():
    """Lift Python's int-to-str digit limit (3.10.7+) inside the block.

    The limit guards parsing huge inputs, so flags keep it; an exact result
    computed from small flags can still print past 4300 digits.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _emit(args, params: dict, results, provenance) -> None:
    """Print the JSON envelope, or as CSV the rows under the table key.

    A reader that closes stdout early (``| head``) ends the output quietly:
    the rest goes to the null device and the command keeps its exit code.
    """
    with _all_int_digits():
        if args.format == "csv":
            rows = results[args.table]
            lines = [",".join(rows[0])] + [
                ",".join(str(_fmt(c)) for c in row.values()) for row in rows]
        else:
            lines = [json.dumps({
                "schema_version": SCHEMA_VERSION,
                "command": args.command,
                "params": _fmt(params),
                "results": _fmt(results),
                "provenance": list(provenance),
            })]
    try:
        print("\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

# Largest exact series order (moments --n, gamma-gf --n, t-coeffs --order).
# At 100 with small rationals the slowest route, moments transform, takes
# 0.5-0.8 s end to end, moments --route all (ncl included) 0.6-0.7 s, and
# gamma-gf brute, cf or all 0.2-0.3 s, of which ~0.2 s is start-up.
_MAX_ORDER = 100
# Largest evaluation grid (density --grid count, score-check --points,
# mc-fisher --bins): at 10000 points score-check takes 0.6-0.9 s end to end
# and density 0.4-0.6 s.
_MAX_POINTS = 10_000


def _check_size(flag: str, value: int, lo: int, hi: int) -> None:
    if not lo <= value <= hi:
        raise FreeBetaError(f"{flag} must be {lo}..{hi}, got {value}")


def _emit_routes(args, table, subject, params: dict) -> int:
    """Emit the rows of the --route routes (all: those for the subject);
    under all, a route that refuses the input is listed under "skipped"."""
    defined = [r for r in table if isinstance(subject, table[r].family)]
    routes = defined if args.route == "all" else [args.route]
    if not set(routes) <= set(defined):
        owners = [key for key, cls in _FAMILIES.items()
                  if issubclass(cls, table[args.route].family)]
        raise FreeBetaError(
            f"routes other than {', '.join(map(repr, defined))} are "
            f"defined for --family {', '.join(owners)}")
    columns, skipped = {}, {}
    for r in routes:
        try:
            columns[r] = table[r].fn(subject, args.n)
        except SizeLimitExceeded as exc:
            if args.route != "all":
                raise
            skipped[r] = str(exc)
    if not columns:
        raise SizeLimitExceeded("every route refused: " + "; ".join(
            f"{r}: {why}" for r, why in skipped.items()))
    results = {args.table: route_rows(columns)}
    if skipped:
        results["skipped"] = skipped
    _emit(args, {**params, "route": args.route}, results, columns)
    return 0


def _cmd_moments(args) -> int:
    fam, params = _build_family(args)
    _check_size("--n", args.n, 1, _MAX_ORDER)
    return _emit_routes(args, MOMENT_ROUTES, fam, {**params, "n": args.n})


def _parse_grid(spec: str) -> tuple[float, float, int]:
    """Parse a ``lo:hi:count`` grid with finite ends and count >= 2."""
    parts = spec.split(":")
    try:
        if len(parts) != 3:
            raise ValueError
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise FreeBetaError(f"--grid must be lo:hi:count, got {spec!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise FreeBetaError(f"--grid ends must be finite, got {spec!r}")
    _check_size("--grid count", count, 2, _MAX_POINTS)
    return lo, hi, count


def _cmd_density(args) -> int:
    fam, params = _build_family(args)
    spec = distributions.measure_of(fam)
    lo, hi = spec.support
    if args.grid:
        glo, ghi, count = _parse_grid(args.grid)
    else:
        glo, ghi, count = lo, hi, 201
    xs = [glo + (ghi - glo) * k / (count - 1) for k in range(count)]
    _emit(args, {**params, "grid": f"{glo}:{ghi}:{count}"},
          {"support": list(spec.support),
           "atoms": [list(a) for a in spec.atoms],
           "grid": [{"x": x, "density": spec.density(x)} for x in xs]},
          ["closed-form"])
    return 0


def _cmd_support(args) -> int:
    fam, params = _build_family(args)
    spec = distributions.measure_of(fam)
    _emit(args, params,
          {"lo": spec.support[0], "hi": spec.support[1],
           "atoms": [{"location": a, "mass": m} for a, m in spec.atoms]},
          ["closed-form"])
    return 0


def _fmt_partition(p: ncl.LinkedPartition) -> str:
    return "|".join(",".join(str(x) for x in block) for block in p.blocks)


def _cmd_enumerate_ncl(args) -> int:
    _check_size("--n", args.n, 1, ncl.NCL_SIZE_LIMIT)
    parts = ncl.enumerate_ncl(args.n)
    results = {"n": args.n, "count": len(parts)}
    if args.list:
        results["partitions"] = [_fmt_partition(p) for p in parts]
    _emit(args, {"n": args.n}, results, ["block-recursion"])
    return 0


def _cmd_ncl_stats(args) -> int:
    blocks = tuple(
        tuple(int(x) for x in block.split(","))
        for block in args.partition.split("|")
    )
    n = max(max(b) for b in blocks)
    p = ncl.LinkedPartition(n, blocks)
    valid = ncl.validate_ncl(p)
    results = {"n": n, "valid": valid}
    if valid:
        st = ncl.statistics(p)
        t1, t2 = ncl.doubly_covered_types(p)
        results.update(
            dc=st.dc, sc=st.sc, sg=st.sg,
            type_one=list(t1), type_two=list(t2),
        )
    _emit(args, {"partition": args.partition, "n": n}, results,
          ["statistics"])
    return 0


def _cmd_gamma_gf(args) -> int:
    _check_size("--n", args.n, 1, _MAX_ORDER)
    abc = args.alpha, args.beta, args.gamma
    return _emit_routes(args, GAMMA_ROUTES, abc,
                        {"n": args.n, "alpha": args.alpha, "beta": args.beta,
                         "gamma": args.gamma})


def _cmd_t_coeffs(args) -> int:
    _check_size("--order", args.order, 0, _MAX_ORDER)
    fam = distributions.FreeBetaPrime(args.a, args.b)
    reason = _params_limit("t-coeffs", fam, args.order)
    if reason:
        raise SizeLimitExceeded(reason)
    coeffs = distributions.t_coeffs_of(fam, args.order)
    s, t, u = distributions.fbp_t_params(args.a, args.b)
    _emit(args, {"a": args.a, "b": args.b, "order": args.order},
          {"alphas": list(coeffs.coefficients), "s": s, "t": t, "u": u},
          ["closed-form"])
    return 0


def _cmd_meixner(args) -> int:
    std = distributions.standardize_to_meixner(args.a, args.b)
    label = std.classify()
    _emit(args, {"a": args.a, "b": args.b},
          {"theta": std.theta, "tau": std.tau,
           "theta_sq": std.theta_sq, "discriminant": std.discriminant,
           "mean": std.mean, "variance": std.variance, "class": label},
          ["standardization"])
    return 0


def _cmd_score_check(args) -> int:
    _check_size("--points", args.points, 1, _MAX_POINTS)
    fam, params = _build_family(args)
    grid = [{"x": x, "score": score, "v_prime": v_prime,
             "deviation": abs(score - v_prime)}
            for x, score, v_prime in analysis.score_grid(fam, args.points)]
    _emit(args, {**params, "points": args.points},
          {"max_abs_deviation": max(r["deviation"] for r in grid),
           "grid": grid},
          ["epsilon-ladder", "closed-form"])
    return 0


def _cmd_mc_fisher(args) -> int:
    _check_size("--bins", args.bins, 1, _MAX_POINTS)
    cfg = randmat.FisherSampleConfig(
        p=args.p, a=float(args.a), b=float(args.b), seed=args.seed
    )
    eigs = randmat.sample_fisher_spectrum(cfg)
    fam = distributions.FreeF(args.a, args.b)
    ks = randmat.ks_distance(eigs, fam)
    rows = randmat.histogram_rows(eigs, fam, bins=args.bins)
    _emit(args,
          {"p": args.p, "a": args.a, "b": args.b, "seed": args.seed,
           "bins": args.bins},
          {"n1": cfg.n1, "n2": cfg.n2, "ks_distance": ks,
           "histogram": [
               {"bin_left": l, "bin_right": r, "empirical_density": e,
                "theoretical_density": t} for l, r, e, t in rows]},
          ["monte-carlo", "closed-form"])
    return 0


def _cmd_verify(args) -> int:
    results = []
    start = time.perf_counter()
    for name, ok, detail in run_all():
        results.append({"criterion": name, "ok": ok, "detail": detail,
                        "elapsed_s": time.perf_counter() - start})
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}",
              file=sys.stderr)
        start = time.perf_counter()
    ok = all(r["ok"] for r in results)
    _emit(args, {}, {"criteria": results, "ok": ok}, ["all-routes"])
    return 0 if ok else 3


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports usage errors as exceptions, for main's one-line error."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # -2, -0.5 and -1/2 are values, not options
        self._negative_number_matcher = re.compile(r"^-\d*\.?\d+(/\d+)?$")

    def error(self, message):
        raise FreeBetaError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="freebeta",
        description="Free beta prime computations by independent routes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, table=None, **kwargs):
        """A subcommand; one with a ``table`` key can print it as CSV."""
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn, table=table, format="json")
        if table:
            p.add_argument("--format", choices=("json", "csv"))
        return p

    p = add("moments", _cmd_moments, "moments",
            help="moments by one or all routes")
    _add_family_flags(p, tuple(_FAMILIES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--route", default="all", choices=(*MOMENT_ROUTES, "all"))

    p = add("density", _cmd_density, "grid", help="density grid of a family")
    _add_family_flags(p, tuple(_FAMILIES))
    p.add_argument("--grid", help="lo:hi:count (default: the support)")

    p = add("support", _cmd_support, help="support endpoints and atoms")
    _add_family_flags(p, tuple(_FAMILIES))

    p = add("enumerate-ncl", _cmd_enumerate_ncl,
            help="enumerate linked partitions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--list", action="store_true")

    p = add("ncl-stats", _cmd_ncl_stats,
            help="validate a partition and compute (dc, sc, sg)")
    p.add_argument("--partition", required=True,
                   help='blocks as "1,2,7|2,4|3|..." on 1..the largest')

    p = add("gamma-gf", _cmd_gamma_gf, "values",
            help="the statistics generating polynomial by route")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=_rat, required=True)
    p.add_argument("--beta", type=_rat, required=True)
    p.add_argument("--gamma", type=_rat, required=True)
    p.add_argument("--route", default="all", choices=(*GAMMA_ROUTES, "all"))

    p = add("t-coeffs", _cmd_t_coeffs,
            help="T-transform coefficients of the free beta prime")
    p.add_argument("--a", type=_rat, required=True)
    p.add_argument("--b", type=_rat, required=True)
    p.add_argument("--order", type=int, default=8)

    p = add("meixner", _cmd_meixner, help="standardization and class label")
    p.add_argument("--a", type=_rat, required=True)
    p.add_argument("--b", type=_rat, required=True)

    p = add("score-check", _cmd_score_check, "grid",
            help="score function vs potential derivative")
    _add_family_flags(p, _families_with("_v_prime"))
    p.add_argument("--points", type=int, default=20)

    p = add("mc-fisher", _cmd_mc_fisher, "histogram",
            help="Fisher-matrix spectrum vs the free F law")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--a", type=_rat, required=True)
    p.add_argument("--b", type=_rat, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--bins", type=int, default=40)

    add("verify", _cmd_verify, help="run the full verification suite")

    return parser


def main(argv=None) -> int:
    # an OverflowError comes from a rational flag too large for a float
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

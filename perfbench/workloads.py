"""The benchmark's workloads: inputs from a seed, the calls, the checks.

Each workload is three steps, kept apart so that a test can perturb the
outputs between them:

- ``inputs(seed)`` makes the inputs; the same seed gives the same inputs;
- ``run(fb, inputs)`` calls the program (the ``freebeta`` package ``fb``)
  and returns its outputs;
- ``check(inputs, outputs, gate)`` records every check on ``gate``.

Why these workloads:

- ``verify`` is the product as a user runs it.  Over 90% of its time is
  brute-force enumeration of non-crossing linked partitions (``ncl``).
- ``exact-deep`` compares the exact non-NCL routes at the depth the series
  and transform layers are meant to reach; it never enumerates partitions.
- ``numeric`` runs the floating-point routes (Stieltjes inversion, scores,
  quadrature, atoms) and the Fisher-matrix Monte Carlo, and bypasses every
  exact layer except the closed-form moment series.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = ("verify", "exact-deep", "numeric")


class Gate:
    """Counts attempted checks and keeps the names of the failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# --------------------------------------------------------------------------
# verify: the twelve-criterion suite through the command-line entry point
# --------------------------------------------------------------------------

VERIFY_CRITERIA = (
    "triple-route-moments", "mult-convolution", "gamma-routes",
    "ncl-counts", "ncl-statistics", "score-identities", "measure-sanity",
    "t-density-limits", "symmetric-square", "meixner-classification",
    "monte-carlo-fisher", "convolution-identities",
)


def verify_inputs(seed: int) -> dict:
    return {"argv": ["verify"]}  # the suite has no free inputs


def verify_run(fb, inputs: dict) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fb.cli.main(list(inputs["argv"]))
    return {"exit_code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def verify_check(inputs: dict, outputs: dict, gate: Gate) -> None:
    gate.check(outputs["exit_code"] == 0,
               f"verify exit code {outputs['exit_code']}")
    lines = outputs["stderr"].splitlines()
    for name in VERIFY_CRITERIA:
        gate.check(any(line.startswith(f"PASS {name}:") for line in lines),
                   f"no PASS line for {name}")
    gate.check(sum(line.startswith("PASS ") for line in lines)
               == len(VERIFY_CRITERIA), "PASS line count")
    try:
        envelope = json.loads(outputs["stdout"])
        results = envelope["results"]
        listed = [c["criterion"] for c in results["criteria"]]
        ok = results["ok"] is True and all(
            c["ok"] is True for c in results["criteria"])
    except (ValueError, KeyError, TypeError):
        listed, ok = [], False
    gate.check(ok, "envelope reports a failure")
    gate.check(listed == list(VERIFY_CRITERIA), "envelope criteria list")


# --------------------------------------------------------------------------
# exact-deep: exact non-NCL routes at order 24, Gamma series at order 32
# --------------------------------------------------------------------------

EXACT_ORDER = 24
GAMMA_ORDER = 32
GAMMA_TRIPLES = 10
# The free beta prime parameter sets and the Poisson semigroup pair of the
# verify suite, here checked to a higher order.
FBP_PARAMS = ((Fraction(2), Fraction(3)), (Fraction(1, 2), Fraction(2)),
              (Fraction(3), Fraction(3, 2)))
SEMIGROUP = (Fraction(3, 2), Fraction(5, 4))
# Seeds map onto this many input variants, each with a pinned digest.
EXACT_VARIANTS = 64
DIGESTS = HERE / "exact_digests.json"


def exact_deep_inputs(seed: int) -> dict:
    variant = seed % EXACT_VARIANTS
    rng = random.Random(variant)
    triples = [tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9))
                     for _ in range(3)) for _ in range(GAMMA_TRIPLES)]
    return {"variant": variant, "triples": triples}


def exact_fixed_outputs(fb) -> list:
    """(label, rationals) for the routes that do not depend on the seed."""
    d, fock, tr = fb.distributions, fb.fock, fb.transforms
    n = EXACT_ORDER
    out = []
    for a, b in FBP_PARAMS:
        tag = f"fbp({a},{b})"
        out.append((f"{tag} series",
                    d.moment_series(d.FreeBetaPrime(a, b), n).moments))
        out.append((f"{tag} fock",
                    fock.vacuum_moments(fock.fbp_operator(a, b, n), n)))
        conv = tr.free_mult_convolve(
            d.moment_series(d.FreePoisson(a), n),
            d.moment_series(d.InverseFreePoisson(b), n))
        out.append((f"{tag} convolution", conv.moments))
    a, b = SEMIGROUP
    summed = tr.free_add_convolve(d.moment_series(d.FreePoisson(a), n),
                                  d.moment_series(d.FreePoisson(b), n))
    out.append(("semigroup sum", summed.moments))
    out.append(("semigroup target",
                d.moment_series(d.FreePoisson(a + b), n).moments))
    return out


def exact_seeded_outputs(fb, triples) -> list:
    """(label, rationals) for the Gamma series of the seeded triples."""
    ncl = fb.ncl
    out = []
    for alpha, beta, gamma in triples:
        tag = f"gamma({alpha},{beta},{gamma})"
        cf = ncl.gamma_series(GAMMA_ORDER, alpha, beta, gamma, route="cf")
        closed = ncl.gamma_series(GAMMA_ORDER, alpha, beta, gamma,
                                  route="closed")
        residual = ncl.gamma_quadratic_residual(closed, alpha, beta, gamma)
        out.append((f"{tag} cf", cf.coefficients))
        out.append((f"{tag} closed", closed.coefficients))
        out.append((f"{tag} residual", residual.coefficients))
    return out


def exact_deep_run(fb, inputs: dict) -> list:
    return exact_fixed_outputs(fb) + exact_seeded_outputs(fb,
                                                          inputs["triples"])


def digest(outputs: list) -> str:
    """sha256 of every rational, written as num/den, in output order."""
    h = hashlib.sha256()
    for label, values in outputs:
        text = ",".join(f"{q.numerator}/{q.denominator}" for q in values)
        h.update(f"{label}:{text}\n".encode())
    return h.hexdigest()


def exact_routes_check(outputs: list, gate: Gate) -> None:
    """The route-agreement checks, without the pinned digest."""
    by_label = dict(outputs)
    for a, b in FBP_PARAMS:
        tag = f"fbp({a},{b})"
        routes = [by_label[f"{tag} {r}"]
                  for r in ("series", "fock", "convolution")]
        gate.check(all(len(r) == EXACT_ORDER + 1 for r in routes),
                   f"{tag} route lengths")
        for k, values in enumerate(zip(*routes)):
            gate.check(values[0] == values[1] == values[2],
                       f"{tag} moment {k} differs between routes")
    for k, (x, y) in enumerate(zip(by_label["semigroup sum"],
                                   by_label["semigroup target"])):
        gate.check(x == y, f"semigroup moment {k}")
    for label, values in outputs:
        if label.endswith(" cf"):
            tag = label[:-3]
            closed = by_label[f"{tag} closed"]
            gate.check(len(values) == len(closed) == GAMMA_ORDER + 1,
                       f"{tag} series lengths")
            for k, (x, y) in enumerate(zip(values, closed)):
                gate.check(x == y, f"{tag} coefficient {k}: cf != closed")
            gate.check(all(c == 0 for c in by_label[f"{tag} residual"]),
                       f"{tag} nonzero quadratic residual")


def pinned_digest(variant: int) -> str:
    return json.loads(DIGESTS.read_text())["digests"][variant]


def exact_deep_check(inputs: dict, outputs: list, gate: Gate) -> None:
    exact_routes_check(outputs, gate)
    gate.check(digest(outputs) == pinned_digest(inputs["variant"]),
               f"exact outputs differ from the pinned digest of variant "
               f"{inputs['variant']}")


# --------------------------------------------------------------------------
# numeric: float routes of ten families, then the Fisher-matrix Monte Carlo
# --------------------------------------------------------------------------

# (constructor name, parameters): the families of the verify suite's
# measure-sanity and score-identities criteria.
NUMERIC_FAMILIES = (
    ("FreePoisson", (Fraction(1, 2),)),
    ("FreePoisson", (Fraction(2),)),
    ("InverseFreePoisson", (Fraction(3),)),
    ("FreeBetaPrime", (Fraction(2), Fraction(3))),
    ("FreeBetaPrime", (Fraction(1, 2), Fraction(2))),
    ("FreeF", (Fraction(2), Fraction(3))),
    ("FreeT", (Fraction(2),)),
    ("FreeT", (Fraction(10),)),
    ("FreeBeta", (Fraction(2), Fraction(2))),
    ("FreeBeta", (Fraction(1, 2), Fraction(3, 4))),
)
# Families with a classical potential, for the score identity.
POTENTIAL_FAMILIES = ("FreeBetaPrime", "FreeT", "FreeBeta")
POINTS_PER_FAMILY = 1200
# Points stay in the same interior band as the verify suite's grids.
INTERIOR = (1 / 21, 20 / 21)
QUAD_MOMENTS = 6
MC = {"p": 1000, "a": 2, "b": 3, "seeds": 4}
TOL_DENSITY = 1e-6
TOL_SCORE = 1e-6
TOL_MASS = 1e-8
TOL_MOMENT = 1e-6
TOL_ATOM = 1e-6
KS_LIMIT = 0.08


def numeric_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    points = [[rng.uniform(*INTERIOR) for _ in range(POINTS_PER_FAMILY)]
              for _ in NUMERIC_FAMILIES]
    mc_seeds = [rng.randrange(2 ** 32) for _ in range(MC["seeds"])]
    return {"points": points, "mc_seeds": mc_seeds}


def numeric_run(fb, inputs: dict) -> dict:
    d, an = fb.distributions, fb.analysis
    families = []
    for (kind, params), fractions in zip(NUMERIC_FAMILIES,
                                         inputs["points"]):
        fam = getattr(d, kind)(*params)
        spec = d.measure_of(fam)
        lo, hi = d.support_of(fam)
        rows = []
        for u in fractions:
            x = lo + (hi - lo) * u
            row = [x, an.stieltjes_density(fam, x), spec.density(x)]
            if kind in POTENTIAL_FAMILIES:
                row += [an.hilbert_score(fam, x),
                        an.potential_derivative(fam, x)]
            rows.append(row)
        exact = d.moment_series(fam, QUAD_MOMENTS)
        families.append({
            "family": f"{kind}{tuple(str(p) for p in params)}",
            "rows": rows,
            "quadrature": [an.quadrature_moment(spec, n)
                           for n in range(QUAD_MOMENTS + 1)],
            "exact": [float(m) for m in exact.moments],
            "atoms_closed": list(spec.atoms),
            "atoms_limit": an.atom_masses(fam),
        })
    ks = fb.randmat.median_ks(MC["p"], MC["a"], MC["b"], inputs["mc_seeds"])
    return {"families": families, "median_ks": ks}


def numeric_check(inputs: dict, outputs: dict, gate: Gate) -> None:
    for fam in outputs["families"]:
        name = fam["family"]
        for row in fam["rows"]:
            gate.check(abs(row[1] - row[2]) <= TOL_DENSITY,
                       f"{name} density at x={row[0]}")
            if len(row) > 3:
                gate.check(abs(row[3] - row[4]) <= TOL_SCORE,
                           f"{name} score at x={row[0]}")
        quad, exact = fam["quadrature"], fam["exact"]
        gate.check(abs(quad[0] - 1) <= TOL_MASS, f"{name} total mass")
        for n in range(1, QUAD_MOMENTS + 1):
            gate.check(abs(quad[n] - exact[n])
                       <= TOL_MOMENT * max(abs(exact[n]), 1.0),
                       f"{name} moment {n}")
        want, got = dict(fam["atoms_closed"]), dict(fam["atoms_limit"])
        gate.check(all(abs(want.get(x, 0.0) - got.get(x, 0.0)) <= TOL_ATOM
                       for x in set(want) | set(got)), f"{name} atoms")
    gate.check(outputs["median_ks"] < KS_LIMIT,
               f"median KS {outputs['median_ks']}")


STEPS = {
    "verify": (verify_inputs, verify_run, verify_check),
    "exact-deep": (exact_deep_inputs, exact_deep_run, exact_deep_check),
    "numeric": (numeric_inputs, numeric_run, numeric_check),
}

"""The freebeta benchmark.

    python3 perfbench/run.py --workload verify|exact-deep|numeric|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Each iteration of a workload runs in a fresh Python process, as a user of
the command-line tool would run it, and checks its own outputs.  With
``--trace 0`` the run reports the end-to-end metrics, each the median over
the run's iterations: ``setup_s`` (process start until freebeta, numpy and
scipy are imported; extra import-only processes add samples), ``wall_s``
and ``cpu_s`` (the workload and its checks), and ``peak_rss_mb``.  With
``--trace 1`` it alternates untraced and traced iterations and reports the
per-layer metrics of the traced ones (see tracer.py).  Iterations repeat
while the next one is expected to end within ``--seconds``, with a minimum
count.  The last stdout line is one JSON object; the lines before it are a
readable report and the provenance.  A full record of each run is written
to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"

MIN_ITERATIONS = 2       # untraced iterations per --trace 0 run
MIN_PAIRS = 1            # untraced + traced pairs per --trace 1 run
SETUP_PROBES = 3         # import-only processes per --trace 0 run
RUN_DEADLINE_S = 170     # every process of one workload ends by then


class HarnessError(RuntimeError):
    pass


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))

CRITERION_METRICS = tuple(f"verification.{c}.s"
                          for c in workloads.VERIFY_CRITERIA)


def _field(span: str, field: str):
    empty = 0 if field in ("calls", "work") else 0.0
    return lambda s: s["names"].get(span, {}).get(field, empty)


def _layer_self(layer: str):
    return lambda s: sum(v["self_s"] for k, v in s["names"].items()
                         if k.startswith(layer + "."))


def _per_distinct(s) -> float:
    sizes = s["args"].get("ncl.enumerate_ncl", [])
    return len(sizes) / len(set(sizes)) if sizes else 0.0


def _coeff_products(s) -> int:
    return _field("series.mul", "work")(s) + _field("series.div", "work")(s)


def _per_layer_table():
    """(name, unit, better, summary -> value); times are medians over runs."""
    rows = []

    def add(name, unit, fn, better="lower"):
        rows.append((name, unit, better, fn))

    def calls(span):
        add(f"{span}.calls", "count", _field(span, "calls"))

    def self_s(span):
        add(f"{span}.self_s", "s", _field(span, "self_s"))

    calls("ncl.enumerate_ncl")
    self_s("ncl.enumerate_ncl")
    add("ncl.partitions_enumerated", "count",
        _field("ncl.enumerate_ncl", "work"))
    add("ncl.enumerate_per_distinct_n", "ratio", _per_distinct)
    calls("ncl.statistics")
    for span in ("ncl.statistics", "ncl.gamma_poly", "ncl.fbp_moment",
                 "ncl.gamma_series.cf", "ncl.gamma_series.closed"):
        self_s(span)
    for span in ("series.mul", "series.div"):
        calls(span)
        self_s(span)
    add("series.coeff_products", "count", _coeff_products)
    for span in ("series.ps_compose", "series.ps_reversion"):
        calls(span)
        self_s(span)
    self_s("series.ps_sqrt")
    self_s("series.cf_expand")
    for fn in ("free_mult_convolve", "free_add_convolve", "moments_to_s",
               "s_to_moments", "moments_to_r", "r_to_moments"):
        self_s(f"transforms.{fn}")
    calls("fock.vacuum_moments")
    self_s("fock.vacuum_moments")
    calls("fock.apply")
    for span in ("distributions.cauchy_eval", "distributions.measure_of"):
        calls(span)
        self_s(span)
    self_s("distributions.moment_series")
    for fn in ("stieltjes_density", "hilbert_score", "quadrature_moment",
               "atom_masses"):
        calls(f"analysis.{fn}")
        self_s(f"analysis.{fn}")
    calls("randmat.sample_fisher_spectrum")
    self_s("randmat.sample_fisher_spectrum")
    self_s("randmat.ks_distance")
    calls("randmat.theoretical_cdf")
    self_s("randmat.theoretical_cdf")
    add("randmat.median_ks.wall_s", "s",
        _field("randmat.median_ks", "total_s"))
    add("randmat.median_ks.cpu_s", "s", _field("randmat.median_ks", "cpu_s"))
    add("randmat.entries_sampled", "count",
        _field("randmat.sample_fisher_spectrum", "work"))
    for criterion, metric in zip(workloads.VERIFY_CRITERIA,
                                 CRITERION_METRICS):
        add(metric, "s", _field(f"verification.{criterion}", "total_s"))
    self_s("cli.main")
    for layer in tracer.MODULES:
        add(f"{layer}.self_s", "s", _layer_self(layer))
    add("trace.top_level_coverage", "fraction", lambda s: s["coverage"],
        better="higher")
    return rows


PER_LAYER = _per_layer_table()


# --------------------------------------------------------------------------
# Running iterations
# --------------------------------------------------------------------------

def spawn(workload: str, seed: int, deadline: float,
          trace_path: Path | None = None) -> dict:
    """Run one worker process; its record plus set-up time."""
    cmd = [sys.executable, str(WORKER), workload, str(seed),
           str(trace_path) if trace_path else "-"]
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{workload} iteration passed the deadline")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"worker for {workload} exited with "
                           f"{proc.returncode}")
    try:
        record = json.loads(lines[-1])
    except ValueError:
        raise HarnessError(f"worker for {workload} printed no record")
    record["setup_s"] = record.pop("ready") - spawned
    return record


def repeat(step, seconds: float, minimum: int) -> list:
    """Call step until the next call is expected to end after seconds."""
    t0, results, durations = time.perf_counter(), [], []
    while True:
        s = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - s)
        elapsed = time.perf_counter() - t0
        if (len(results) >= minimum
                and elapsed + statistics.median(durations) > seconds):
            return results


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All iterations of one run and the metrics they give."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    if not trace:
        setups = [spawn("setup", seed, deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        runs = repeat(lambda: spawn(workload, seed, deadline), seconds,
                      MIN_ITERATIONS)
        setups += [r["setup_s"] for r in runs]
        metrics = {"setup_s": statistics.median(setups)}
        for name, _ in END_TO_END[1:]:
            metrics[name] = statistics.median(r[name] for r in runs)
        counts = {"runs": len(runs), "setups": len(setups)}
        return {"runs": runs, "setups": setups, "metrics": metrics,
                "counts": counts, "extra_attempted": 0,
                "extra_failures": []}

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}.npz"

    def pair():
        plain = spawn(workload, seed, deadline)
        traced = spawn(workload, seed, deadline, trace_path=path)
        traced["summary"] = tracer.summarize(tracer.load(path))
        return plain, traced

    pairs = repeat(pair, seconds, MIN_PAIRS)
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    summaries = [t.pop("summary") for t in traced]
    metrics, failures, compared = {}, [], 0
    for name, unit, _, fn in PER_LAYER:
        values = [fn(s) for s in summaries]
        if unit == "count":
            metrics[name] = values[0]
            compared += len(values) - 1
            if len(set(values)) > 1:
                failures.append(f"{name} differs between traced runs: "
                                f"{values}")
        else:
            metrics[name] = statistics.median(values)
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    metrics["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced) - plain_wall
    ) / plain_wall
    counts = {"runs": len(plain), "traced_runs": len(traced),
              "spans": summaries[0]["span_count"]}
    return {"runs": plain + traced, "metrics": metrics, "counts": counts,
            "extra_attempted": compared, "extra_failures": failures}


# --------------------------------------------------------------------------
# Reporting
# --------------------------------------------------------------------------

def provenance(workload: str, seed: int, seconds: float,
               trace: bool) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}) \
        .get("blas", {})
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")
                       or k == "FREEBETA_THREADS"},
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # a plain checkout
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    result = measure(workload, seed, seconds, trace)
    runs = result["runs"]
    attempted = sum(r["attempted"] for r in runs) \
        + result["extra_attempted"]
    failures = [f for r in runs for f in r["failures"]]
    failures += result["extra_failures"]
    failed = sum(r["failed"] for r in runs) + len(result["extra_failures"])
    result.update(attempted=attempted, failed=failed, failures=failures,
                  provenance=provenance(workload, seed, seconds, trace))
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    return result


def units(trace: bool) -> dict:
    if trace:
        return {name: unit for name, unit, _, _ in PER_LAYER} | {
            "trace.overhead_frac": "fraction"}
    return dict(END_TO_END)


def report(workload: str, result: dict, trace: bool) -> None:
    c = result["counts"]
    print(f"# {workload}: " + ", ".join(f"{v} {k}" for k, v in c.items()))
    for name, unit in units(trace).items():
        value = result["metrics"][name]
        print(f"  {name:34s} {value:>14.6g} {unit}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':34s} {frac:>14.6g} "
          f"({result['failed']}/{result['attempted']} checks)")
    for failure in result["failures"][:10]:
        print(f"  FAILED: {failure}")


def result_line(result: dict, trace: bool) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units(trace).items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "freebeta" / "__init__.py").is_file():
        print(f"error: no freebeta package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    names = workloads.WORKLOADS if args.workload == "all" \
        else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_one(name, args.seed, args.seconds, trace)
            report(name, results[name], trace)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("provenance " + json.dumps(
        {k: v for k, v in next(iter(results.values()))["provenance"].items()
         if k != "workload"}))
    if args.workload == "all":
        print(json.dumps({name: json.loads(result_line(r, trace))
                          for name, r in results.items()}))
    else:
        print(result_line(results[args.workload], trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())

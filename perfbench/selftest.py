"""Self-tests of the benchmark (not of freebeta).

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the package's own test run: the
traced-run test alone takes about two minutes.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import SRC  # noqa: E402

sys.path.insert(0, str(SRC))
import freebeta  # noqa: E402


def test_self_time_of_a_nested_tree():
    # id: parent, start, end
    tree = {
        0: (-1, 0.0, 10.0),
        1: (0, 1.0, 4.0),
        2: (1, 2.0, 3.0),
        3: (0, 5.0, 9.0),
        4: (3, 5.5, 8.0),   # 4 and 5 ran on two pool threads
        5: (3, 6.0, 8.5),
        6: (-1, 11.0, 12.0),
    }
    parent, start, end = zip(*(tree[i] for i in range(len(tree))))
    got = tracer.self_times(parent, start, end)
    want = [10 - 3 - 4, 3 - 1, 1, 4 - 3, 2.5, 2.5, 1]
    assert got.tolist() == pytest.approx(want)
    assert tracer.covered([(1, 4), (2, 3), (3.5, 6)], 0, 5) == 4


def test_recorder_links_children_and_pool_threads(tmp_path):
    def leaf():
        time.sleep(0.01)

    rec = tracer.Recorder()
    leaf_w = rec.wrap("demo.leaf", leaf)

    def pooled():
        threads = [threading.Thread(target=leaf_w) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)

    def outer():
        leaf_w()
        pooled_w()

    pooled_w = rec.wrap("demo.pooled", pooled)
    outer_w = rec.wrap("demo.outer", outer)
    t0 = time.perf_counter()
    outer_w()
    rec.save(tmp_path / "t.npz", window=(t0, time.perf_counter()))
    summary = tracer.summarize(tracer.load(tmp_path / "t.npz"))
    names = summary["names"]
    assert names["demo.leaf"]["calls"] == 3
    assert names["demo.pooled"]["calls"] == 1
    # the two threaded leaves overlap: pooled keeps little self time
    assert names["demo.pooled"]["self_s"] < 0.008
    assert names["demo.outer"]["self_s"] < 0.005
    assert summary["coverage"] > 0.9


def test_recorder_install_wraps_every_binding_and_uninstalls():
    original = freebeta.analysis.cauchy_eval
    rec = tracer.Recorder().install(freebeta)
    try:
        assert freebeta.analysis.cauchy_eval is \
            freebeta.distributions.cauchy_eval
        assert freebeta.cauchy_eval is freebeta.distributions.cauchy_eval
        assert freebeta.analysis.cauchy_eval is not original
        fam = freebeta.distributions.FreeT(2)
        freebeta.analysis.stieltjes_density(fam, 0.5)
        freebeta.ncl.gamma_series(4, 1, 1, 1, route="closed")
    finally:
        rec.uninstall()
    assert freebeta.analysis.cauchy_eval is original
    names = set(rec.names)
    assert {"analysis.stieltjes_density", "distributions.cauchy_eval",
            "ncl.gamma_series.closed", "series.mul"} <= names


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_work_counts_repeat_across_traced_runs(workload, tmp_path):
    deadline = time.perf_counter() + 600
    summaries = []
    for i in range(2):
        path = tmp_path / f"{i}.npz"
        record = run.spawn(workload, 7, deadline, trace_path=path)
        assert record["failed"] == 0, record["failures"]
        summaries.append(tracer.summarize(tracer.load(path)))
    for name, unit, _, fn in run.PER_LAYER:
        if unit == "count":
            assert fn(summaries[0]) == fn(summaries[1]), name
    assert all(s["coverage"] >= 0.9 for s in summaries)
    nonzero = {name for name, unit, _, fn in run.PER_LAYER
               if unit == "count" and fn(summaries[0])}
    expected = {"verify": "ncl.partitions_enumerated",
                "exact-deep": "series.coeff_products",
                "numeric": "randmat.entries_sampled"}[workload]
    assert expected in nonzero


@pytest.fixture(scope="module")
def exact_outputs():
    inputs = workloads.exact_deep_inputs(3)
    return inputs, workloads.exact_deep_run(freebeta, inputs)


def _gate(check, inputs, outputs):
    gate = workloads.Gate()
    check(inputs, outputs, gate)
    return gate


def test_exact_gate_passes_and_catches_a_perturbed_rational(exact_outputs):
    inputs, outputs = exact_outputs
    assert _gate(workloads.exact_deep_check, inputs, outputs).failures == []
    for label, k in (("fbp(2,3) fock", 7), ("gamma(", 20)):
        at = next(i for i, (name, _) in enumerate(outputs)
                  if name.startswith(label) and not name.endswith("residual"))
        name, values = outputs[at]
        bumped = values[:k] + (values[k] + Fraction(1, 10 ** 40),) \
            + values[k + 1:]
        changed = outputs[:at] + [(name, bumped)] + outputs[at + 1:]
        failures = _gate(workloads.exact_deep_check, inputs,
                         changed).failures
        assert any("pinned digest" in f for f in failures)
        assert len(failures) == 2, failures


def test_exact_gate_catches_a_change_that_keeps_routes_equal(exact_outputs):
    inputs, outputs = exact_outputs
    other = dict(inputs, variant=(inputs["variant"] + 1)
                 % workloads.EXACT_VARIANTS)
    failures = _gate(workloads.exact_deep_check, other, outputs).failures
    assert len(failures) == 1 and "pinned digest" in failures[0]


def test_numeric_gate_catches_a_perturbed_value():
    inputs = workloads.numeric_inputs(5)
    inputs["points"] = [p[:3] for p in inputs["points"]]
    outputs = workloads.numeric_run(freebeta, inputs)
    assert _gate(workloads.numeric_check, inputs, outputs).failures == []
    outputs["families"][3]["rows"][1][1] += 2e-6
    outputs["families"][0]["quadrature"][4] *= 1 + 1e-5
    failures = _gate(workloads.numeric_check, inputs, outputs).failures
    assert len(failures) == 2, failures


def test_verify_gate_catches_one_failed_criterion():
    lines = [f"PASS {c}: ok" for c in workloads.VERIFY_CRITERIA]
    envelope = {"results": {"ok": True, "criteria": [
        {"criterion": c, "ok": True} for c in workloads.VERIFY_CRITERIA]}}
    outputs = {"exit_code": 0, "stdout": json.dumps(envelope),
               "stderr": "\n".join(lines)}
    assert _gate(workloads.verify_check, {}, outputs).failures == []
    lines[4] = lines[4].replace("PASS", "FAIL")
    envelope["results"]["criteria"][4]["ok"] = False
    outputs.update(stdout=json.dumps(envelope), stderr="\n".join(lines),
                   exit_code=3)
    failures = _gate(workloads.verify_check, {}, outputs).failures
    assert len(failures) == 4, failures


def test_every_exact_variant_has_a_pinned_digest():
    pins = json.loads(workloads.DIGESTS.read_text())
    assert pins["variants"] == workloads.EXACT_VARIANTS
    assert len(set(pins["digests"])) == workloads.EXACT_VARIANTS


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.units(trace=True)
    better = {m["name"]: m["better"] for m in spec["per_layer"]}
    assert all(better[name] == b for name, _, b, _ in run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

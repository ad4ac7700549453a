"""Tests of the benchmark itself: output checkers, inputs and span arithmetic.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

import evcop.cli  # noqa: E402
import evcop.fit  # noqa: E402


@pytest.fixture(scope="module")
def fitted_model(tmp_path_factory):
    """A Gumbel(3) fit at n=1000 and the structure it was drawn from."""
    work = tmp_path_factory.mktemp("fit")
    structure = inputs.FIT_STRUCTURES[2]
    csv = work / "data.csv"
    inputs.write_pairs_csv(csv, structure.sample(inputs.op_rng(7, 1, 0), 1000))
    model = work / "model.json"
    assert evcop.cli.main(["fit", str(csv), "-o", str(model)]) == 0
    return model, structure


def test_fit_check_passes_on_program_output(fitted_model):
    model, structure = fitted_model
    errors, info = checks.check_fit(model, structure.pickands, 1000)
    assert errors == []
    assert 0.0 < info["sup_err"] <= checks.MAX_SUP_ERR


def test_fit_check_rejects_perturbed_theta(fitted_model, tmp_path):
    model, structure = fitted_model
    doc = json.loads(model.read_text())
    doc["theta"] = [v + 1.5 for v in doc["theta"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    errors, info = checks.check_fit(bad, structure.pickands, 100000)
    assert info["sup_err"] > checks.MAX_SUP_ERR
    assert any("A_true" in e for e in errors)


def test_fit_check_rejects_missing_keys(fitted_model, tmp_path):
    model, structure = fitted_model
    doc = json.loads(model.read_text())
    del doc["diagnostics"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    errors, _ = checks.check_fit(bad, structure.pickands, 1000)
    assert errors and "lacks keys" in errors[0]


def test_pickands_errors_flags_bounds_and_convexity():
    t = checks.T_PROBES
    assert checks.pickands_errors(np.maximum(t, 1.0 - t)) == []
    assert checks.pickands_errors(np.ones_like(t)) == []
    wavy = np.maximum(t, 1.0 - t) + 0.01 * np.sin(40 * t) ** 2
    assert any("convex" in e for e in checks.pickands_errors(np.minimum(wavy, 1.0)))
    assert any("below" in e for e in checks.pickands_errors(np.full_like(t, 0.9)))


def _independent_sample(path, n=20000):
    uv = np.random.default_rng(3).random((n, 2))
    inputs.write_pairs_csv(path, uv)
    return uv


def test_model_read_check_passes_and_rejects_value_at_one(tmp_path):
    sample = tmp_path / "sample.csv"
    uv = _independent_sample(sample)
    report = json.dumps({"blomqvist_beta": 0.0, "constraints_ok": True})
    assert checks.check_model_read(sample, len(uv), report) == []
    uv[17, 1] = 1.0
    inputs.write_pairs_csv(sample, uv)
    errors = checks.check_model_read(sample, len(uv), report)
    assert any("outside (0, 1)" in e for e in errors)


def test_model_read_check_rejects_wrong_beta_and_constraints(tmp_path):
    sample = tmp_path / "sample.csv"
    uv = _independent_sample(sample)
    report = json.dumps({"blomqvist_beta": 0.3, "constraints_ok": False})
    errors = checks.check_model_read(sample, len(uv), report)
    assert any("Blomqvist" in e for e in errors)
    assert any("constraints_ok" in e for e in errors)
    assert any("shape" in e for e in checks.check_model_read(sample, 10, report))


def _study_csv(path, tvd_values):
    lines = ["copula_id,sample_size,replicate,tvd,gini,beta,runtime_s"]
    for k, v in enumerate(tvd_values):
        lines.append(f"{k // 2},{(250, 1000)[k % 2]},0,{v!r},0.1,0.1,0.5")
    path.write_text("\n".join(lines) + "\n")


def test_study_check_passes_and_rejects_nan_tvd(tmp_path):
    csv = tmp_path / "results.csv"
    _study_csv(csv, [0.05, 0.04, 0.06, 0.03])
    errors, info = checks.check_study(csv, 4, "")
    assert errors == []
    assert info["tvd_1000"] == [0.04, 0.03]
    _study_csv(csv, [0.05, float("nan"), 0.06, 0.03])
    errors, _ = checks.check_study(csv, 4, "")
    assert any("not finite" in e for e in errors)


def test_study_check_rejects_failed_runs_and_row_count(tmp_path):
    csv = tmp_path / "results.csv"
    _study_csv(csv, [0.05, 0.04, 0.06, 0.03])
    errors, _ = checks.check_study(csv, 6, "run failed: boom\n")
    assert any("failed run" in e for e in errors)
    assert any("expected 6" in e for e in errors)


def test_run_errors_bound_the_medians():
    assert checks.run_errors([0.01, 0.2, 0.02], [0.03, 0.5, 0.04]) == []
    errors = checks.run_errors([0.06, 0.07, 0.01], [0.09, 0.1, 0.02])
    assert len(errors) == 2


@pytest.mark.parametrize("k", range(len(inputs.FIT_STRUCTURES)))
def test_samplers_match_closed_form_pickands(k):
    """Empirical CDF of each sampler against exp(log(uv) A(log u / log uv))."""
    structure = inputs.FIT_STRUCTURES[k]
    uv = structure.sample(np.random.default_rng(11), 40000)
    assert np.all((uv > 0.0) & (uv < 1.0))
    for u, v in [(0.3, 0.3), (0.5, 0.8), (0.8, 0.4), (0.6, 0.6)]:
        s = math.log(u) + math.log(v)
        exact = math.exp(s * float(structure.pickands(np.array(math.log(u) / s))))
        empirical = float(np.mean((uv[:, 0] <= u) & (uv[:, 1] <= v)))
        assert empirical == pytest.approx(exact, abs=0.01)


def test_inputs_repeat_for_a_seed():
    a = inputs.model_doc(inputs.op_rng(5, 3, 2), 2, 4, flipped=True)
    b = inputs.model_doc(inputs.op_rng(5, 3, 2), 2, 4, flipped=True)
    assert a == b
    assert 2.5 <= np.linalg.norm(a["theta"]) <= 3.75


def _span(name, start, end, parent, op=0):
    return [name, start, end, parent, op, True]


def test_self_times_on_nested_trace():
    spans = [
        _span("op", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
        _span("c", 8.0, 12.0, 0),  # overlaps b and runs past its parent
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 4.0, 4.0])


def test_layer_summary_counts_and_unattributed():
    tracer = tracing.Tracer()
    tracer.spans = [
        _span("op", 0.0, 1.0, -1, 0),
        _span("fit.tabulate", 0.1, 0.5, 0, 0),
        _span("hermite.build", 0.2, 0.3, 1, 0),
        _span("op", 2.0, 3.0, -1, 1),
        _span("fit.tabulate", 2.0, 2.9, 3, 1),
        _span("fit.tabulate", 2.1, 2.2, 4, 1),  # nested: counted once in total
    ]
    s = tracing.layer_summary(tracer)
    assert s["ops"] == 2
    assert s["op_ms"] == pytest.approx(2000.0)
    assert s["unattributed_ms"] == pytest.approx(600.0 + 100.0)
    tab = s["names"]["fit.tabulate"]
    assert tab["calls"] == 3
    assert tab["self_ms"] == pytest.approx(300.0 + 800.0 + 100.0)
    assert tab["total_ms"] == pytest.approx(400.0 + 900.0)
    assert s["names"]["hermite.build"]["calls"] == 1


def test_tracer_wraps_and_restores():
    original = evcop.fit.pipeline_pickands
    tracer = tracing.Tracer()
    basis = evcop.fit.default_random_basis()
    with tracer.installed():
        assert evcop.fit.pipeline_pickands is not original
        evcop.fit.pipeline_pickands(basis, np.zeros(13), True, False)  # no op open
        assert tracer.spans == []
        with tracer.op_span(0, "op"):
            evcop.fit.pipeline_pickands(basis, np.zeros(13), True, False)
    assert evcop.fit.pipeline_pickands is original
    names = {s[tracing.NAME] for s in tracer.spans}
    assert {"op", "fit.tabulate", "williamson.transform", "pickands.rotate",
            "hermite.build", "bayes.density"} <= names


def test_tail_latency():
    assert bench.tail_latency(list(range(19))) is None
    pct, value, n = bench.tail_latency([float(k) for k in range(100)])
    assert (pct, value, n) == (90.0, 89.0, 100)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    summary = {"ops": 1, "op_ms": 1.0, "unattributed_ms": 0.0, "names": {},
               "notes": {}, "accept": (0, 0)}
    layer = bench.per_layer(summary, 1.0, 1.0, 1, 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: v["unit"] for k, v in layer.items()}
    outcome = bench.Outcome(bench.Op("op", [], None), 0.2, [], {})
    e2e, _ = bench.end_to_end(bench.WORKLOADS["fit-1k"], [outcome], [0.5], 1.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: v["unit"] for k, v in e2e.items()}
    assert {w["name"] for w in spec["workloads"]} <= set(bench.WORKLOADS)

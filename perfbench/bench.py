"""Workloads, the measuring loops and the report of the benchmark.

Imported by ``run.py`` once the thread settings and import paths are set.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

import checks
import inputs
from run import OUT, ROOT, SRC, THREAD_VARS, nproc
from speed import REFERENCE_S, SpeedProbe
from tracing import Tracer, layer_summary

import evcop
import evcop.cli

# Several cold starts per run; their median is setup_s.  The first start
# of a run is not counted: it may compile bytecode that later starts reuse.
SETUP_STARTS = 9
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
              "import evcop.cli; evcop.cli.build_parser(); print(time.monotonic())")
MODEL_READ_N = 20000
STUDY_COUNT = 2
# Index of the unmeasured warm-up op; far from the measured ops 0, 1, ...
WARM_OP = 2 ** 31


@dataclass
class Op:
    """One closed-loop op: CLI commands run back to back, then one check."""

    label: str
    commands: list[list[str]]
    check: Callable[[list[tuple[int, str, str]]], tuple[list[str], dict]]


@dataclass
class Workload:
    name: str
    why: str
    cycle: int  # ops per cycle of inputs; runs measure whole cycles
    trace_cycles: int  # cycles in the fixed op list of a traced run
    make_op: Callable[[Path, int, int, bool], Op]  # (workdir, seed, i, warm)


def _fit_op(n: int, stream: int):
    def make(workdir: Path, seed: int, i: int, warm: bool) -> Op:
        structure = inputs.FIT_STRUCTURES[i % len(inputs.FIT_STRUCTURES)]
        size = 1000 if warm else n
        data = structure.sample(inputs.op_rng(seed, stream, i), size)
        csv = workdir / f"fit-{i}.csv"
        model = workdir / f"fit-{i}.json"
        inputs.write_pairs_csv(csv, data)

        def check(results):
            return checks.check_fit(model, structure.pickands, size)

        return Op(f"fit {structure.name} n={size}",
                  [["fit", str(csv), "-o", str(model)]], check)
    return make


def _model_read_op(workdir: Path, seed: int, i: int, warm: bool) -> Op:
    stratum = i % 4
    doc = inputs.model_doc(inputs.op_rng(seed, 3, i), stratum, 4,
                           flipped=bool(i % 2))
    model = workdir / f"model-{i}.json"
    sample = workdir / f"sample-{i}.csv"
    inputs.write_json(model, doc)
    sim_seed = int(inputs.op_rng(seed, 4, i).integers(2 ** 31))

    def check(results):
        return checks.check_model_read(sample, MODEL_READ_N, results[1][1]), {}

    return Op(f"model-read |theta|={np.linalg.norm(doc['theta']):.2f} "
              f"flipped={doc['flipped']}",
              [["simulate", str(model), "-n", str(MODEL_READ_N),
                "--seed", str(sim_seed), "-o", str(sample)],
               ["evaluate", str(model)]], check)


def _study_op(workdir: Path, seed: int, i: int, warm: bool) -> Op:
    count = 1 if warm else STUDY_COUNT
    spec_seed = int(inputs.op_rng(seed, 5, i).integers(2 ** 31))
    spec = workdir / f"study-{i}.json"
    results_csv = workdir / f"study-{i}.csv"
    inputs.write_json(spec, inputs.study_spec(spec_seed, count))

    def check(results):
        return checks.check_study(results_csv, 2 * count, results[0][2])

    return Op(f"study seed={spec_seed} count={count}",
              [["study", str(spec), "-o", str(results_csv), "--workers", "1"]],
              check)


# BENCHMARK.json lists fit-1k and study-tvd only.  A fit-100k cycle takes
# 12-17 s and its length follows the L-BFGS iteration counts of its samples,
# so runs of under a minute vary by 25% from seed to seed.  In
# model-read, about 1 in 100 model files with |theta| in [3.75, 5] fails to
# load ("W(0+) estimate outside (0.5, 2)", ROADMAP item 4), so its runs
# report failed ops at the commit that added this benchmark.
WORKLOADS = {w.name: w for w in (
    Workload("fit-1k",
             "evcop fit on n=1000 pairs cycling five dependence structures: fixed "
             "per-fit cost, where tabulation and interpolator builds dominate",
             cycle=5, trace_cycles=4, make_op=_fit_op(1000, 1)),
    Workload("fit-100k",
             "the same fits at n=100000: the objective on the data dominates and "
             "CSV parsing shows; a tabulation-only gain must show no change here",
             cycle=5, trace_cycles=1, make_op=_fit_op(100000, 2)),
    Workload("model-read",
             "simulate 20000 pairs and evaluate saved models: interpolator reads "
             "in conditional inversion dominate and no optimizer runs",
             cycle=4, trace_cycles=1, make_op=_model_read_op),
    Workload("study-tvd",
             "one-worker tvd study: the only workload running random model "
             "generation, simulation from spline truths and tvd scoring",
             cycle=1, trace_cycles=2, make_op=_study_op),
)}


# ---------------------------------------------------------------------------
# running ops


@dataclass
class Outcome:
    op: Op
    seconds: float
    errors: list[str]
    info: dict = field(default_factory=dict)
    slowdown: float = 1.0  # host slowdown while the op ran (speed.py)


def run_op(op: Op, tracer: Tracer | None = None, op_id: int = 0) -> Outcome:
    """Run, time and check one op; the check is not timed."""
    results = []
    errors = []
    span = tracer.op_span(op_id, "op") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with span:
            for argv in op.commands:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = evcop.cli.main(argv)
                results.append((rc, out.getvalue(), err.getvalue()))
                if rc != 0:
                    errors.append(f"`evcop {argv[0]}` exited {rc}: "
                                  f"{err.getvalue().strip()[-300:]}")
                    break
    except Exception as exc:  # an op that raises is a failed op, not a crash
        errors.append(f"raised {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    info = {}
    if not errors:
        try:
            errors, info = op.check(results)
        except Exception as exc:
            errors = [f"output check raised {type(exc).__name__}: {exc}"]
    return Outcome(op, seconds, errors, info)


def run_probed(op: Op, probe: SpeedProbe, tracer: Tracer | None = None,
               op_id: int = 0) -> Outcome:
    """:func:`run_op`, then a reference computation to gauge the host.

    The op's slowdown is the mean of the reference times just before and
    just after it, over the nominal reference time.
    """
    before = probe.samples[-1]
    outcome = run_op(op, tracer, op_id)
    outcome.slowdown = 0.5 * (before + probe.sample()) / REFERENCE_S
    return outcome


def _report_failure(outcome: Outcome) -> None:
    for msg in outcome.errors:
        print(f"FAILED {outcome.op.label}: {msg}")


def timed_loop(w: Workload, workdir: Path, seed: int, seconds: float,
               probe: SpeedProbe) -> list[Outcome]:
    """Whole cycles of ops until the loop has run for ``seconds``.

    The loop's wall time includes making inputs, checking outputs and the
    reference computations between ops; the op times it returns do not.
    """
    run_op(w.make_op(workdir, seed, WARM_OP, True))  # lazy set-up, not measured
    outcomes = []
    start = time.perf_counter()
    i = 0
    probe.sample()
    while time.perf_counter() - start < seconds or i % w.cycle:
        outcome = run_probed(w.make_op(workdir, seed, i, False), probe)
        _report_failure(outcome)
        outcomes.append(outcome)
        i += 1
    return outcomes


# ---------------------------------------------------------------------------
# metrics


def tail_latency(latencies_ms: list[float]):
    """Highest percentile with at least 10 samples beyond it, or None.

    Returns ``(percentile, value_ms, n)``; None below 20 samples.
    """
    n = len(latencies_ms)
    if n < 20:
        return None
    ranked = sorted(latencies_ms)
    return 100.0 * (n - 10) / n, ranked[n - 11], n


def setup_seconds(starts: int = SETUP_STARTS) -> list[float]:
    """Wall times from launching a fresh interpreter to a built parser."""
    times = []
    for k in range(starts + 1):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, cwd=ROOT,
                              timeout=120, check=True)
        if k:
            times.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return times


def run_record(workload: str, seed: int) -> dict:
    record = {
        "workload": workload,
        "seed": seed,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
        "git_sha": None,
        "git_dirty": None,
    }
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                    "--untracked-files=no"],
                                   capture_output=True, text=True, timeout=30)
            if sha.returncode == 0:
                record["git_sha"] = sha.stdout.strip()
                record["git_dirty"] = bool(dirty.stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return record


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(w: Workload, outcomes: list[Outcome], setup: list[float],
               slowdown: float):
    """End-to-end metrics, and report lines for those not in the JSON.

    Op times are scaled to reference speed by the slowdown measured around
    each op, set-up times by the run's median slowdown (see ``speed.py``);
    the raw wall-clock figures are printed next to them.
    """
    ok = [o for o in outcomes if not o.errors]
    busy_raw = sum(o.seconds for o in outcomes)
    busy = sum(o.seconds / o.slowdown for o in outcomes)
    raw = [1e3 * o.seconds for o in (ok or outcomes)]
    lat = [1e3 * o.seconds / o.slowdown for o in (ok or outcomes)]
    metrics = {
        "setup_s": _metric(statistics.median(setup) / slowdown, "s"),
        "ops_per_s": _metric(len(ok) / busy, "1/s"),
        "latency_p50_ms": _metric(statistics.median(lat), "ms"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    lines = [f"host slowdown          {slowdown:.4f} (median reference time"
             f" / {REFERENCE_S} s)",
             f"raw wall clock         setup_s {statistics.median(setup):.4f} s, "
             f"ops_per_s {len(ok) / busy_raw:.4f} 1/s, "
             f"latency_p50_ms {statistics.median(raw):.4f} ms"]
    tail = tail_latency(lat)
    if tail is None:
        lines.append(f"latency_tail_ms        n/a (n={len(lat)} ops < 20)")
    else:
        pct, value, n = tail
        lines.append(f"latency_tail_ms        {value:.4f} ms  "
                     f"(p{pct:.1f}, n={n}, 10 beyond)")
    lines.append(f"failed_frac            {len(outcomes) - len(ok)}/{len(outcomes)}"
                 f" = {(len(outcomes) - len(ok)) / len(outcomes):.4f}")
    if w.name.startswith("fit-"):
        errs = [o.info["sup_err"] for o in outcomes if "sup_err" in o.info]
        conv = [o.info["converged"] for o in outcomes if "converged" in o.info]
        if errs:
            lines.append(f"pickands_sup_err       {statistics.median(errs):.6f}"
                         f"  (median of {len(errs)} ops, max {max(errs):.6f})")
        if conv:
            lines.append(f"fit.nonconverged_frac  {conv.count(False)}/{len(conv)}"
                         " (not failures)")
    tvd = _pooled(outcomes, "tvd_1000")
    if tvd:
        lines.append(f"median_tvd_1000        {statistics.median(tvd):.6f}"
                     f"  (median of {len(tvd)} fits)")
    return metrics, lines


def _pooled(outcomes: list[Outcome], key: str) -> list:
    out = []
    for o in outcomes:
        value = o.info.get(key, [])
        out.extend(value if isinstance(value, list) else [value])
    return out


def _result(outcomes: list[Outcome], metrics: dict) -> dict:
    """The result line; run-level accuracy failures make it incorrect."""
    failed = sum(1 for o in outcomes if o.errors)
    errors = checks.run_errors(_pooled(outcomes, "sup_err"),
                               _pooled(outcomes, "tvd_1000"))
    for msg in errors:
        print(f"FAILED run: {msg}")
    return {"correct": failed == 0 and not errors, "attempted": len(outcomes),
            "failed": failed, "metrics": metrics}


# Span names reported as self ms per op, inclusive ms per op, calls per op
# and self ms per call.  Spans only model-read opens (cli.write_pairs,
# fit.load_model) are left to the printed share table: the workloads in
# BENCHMARK.json never open them.
PER_LAYER_SELF_MS = (
    "cli.read_pairs", "cli.study_run", "fit.z_transform", "fit.flip_heuristic",
    "fit.objective", "fit.pilot_grid", "splinebasis.setup", "splinebasis.eval",
    "fit.objective_setup", "fit.optimize", "fit.tabulate",
    "bayes.density", "williamson.transform", "williamson.normalize",
    "pickands.rotate", "pickands.mirror", "pickands.eval", "pickands.measures",
    "hermite.build", "rootfind.bisect", "copula.simulate", "copula.tvd",
    "fit.random_models", "fit.mcmc",
)
PER_LAYER_TOTAL_MS = ("fit.optimize", "fit.tabulate", "copula.simulate",
                      "fit.random_models")
PER_LAYER_CALLS = ("fit.objective", "fit.optimizer", "fit.tabulate",
                   "hermite.build", "pickands.eval", "rootfind.bisect")
PER_LAYER_MS_PER_CALL = ("fit.objective", "hermite.build")


def per_layer(summary: dict, untraced_s: float, traced_s: float, ops: int,
              slowdown: float) -> dict:
    """Per-layer metrics: self times and counts per op, plus ratios.

    ``untraced_s`` and ``traced_s`` are the two passes' op times, already at
    reference speed; span times are scaled by the run's ``slowdown``.
    """
    names = summary["names"]

    def entry(name):
        return names.get(name, {"calls": 0, "self_ms": 0.0, "total_ms": 0.0})

    def ratio(num, den):
        return num / den if den else 0.0

    def per_op_ms(value_ms):
        return _metric(value_ms / slowdown / ops, "ms/op")

    m = {}
    for name in PER_LAYER_SELF_MS:
        m[f"{name}.ms"] = per_op_ms(entry(name)["self_ms"])
    for name in PER_LAYER_TOTAL_MS:
        m[f"{name}.total_ms"] = per_op_ms(entry(name)["total_ms"])
    for name in PER_LAYER_CALLS:
        m[f"{name}.calls"] = _metric(entry(name)["calls"] / ops, "count/op")
    for name in PER_LAYER_MS_PER_CALL:
        e = entry(name)
        m[f"{name}.ms_per_call"] = _metric(
            ratio(e["self_ms"], e["calls"]) / slowdown, "ms/call")
    optimizer = entry("fit.optimizer")
    m["fit.optimizer.self_ms"] = per_op_ms(optimizer["self_ms"])
    m["fit.iterations"] = _metric(
        ratio(summary["notes"].get("fit.iterations", 0), optimizer["calls"]),
        "count/fit")
    fits = entry("fit.optimize")
    m["fit.nonconverged_frac"] = _metric(
        ratio(summary["notes"].get("fit.nonconverged", 0), fits["calls"]), "ratio")
    kept, tried = summary["accept"]
    m["fit.random_models.accept_ratio"] = _metric(ratio(kept, tried), "ratio")
    m["trace.unattributed_frac"] = _metric(
        ratio(summary["unattributed_ms"], summary["op_ms"]), "ratio")
    m["trace.overhead_frac"] = _metric(traced_s / untraced_s - 1.0, "ratio")
    m["trace.ops_per_s"] = _metric(ops / traced_s, "1/s")
    m["trace.untraced_ops_per_s"] = _metric(ops / untraced_s, "1/s")
    return m


def _print_shares(summary: dict) -> None:
    op_ms = summary["op_ms"]
    print(f"self-time shares of {summary['ops']} traced ops ({op_ms:.1f} ms):")
    rows = sorted(summary["names"].items(), key=lambda kv: -kv[1]["self_ms"])
    for name, e in rows:
        print(f"  {name:24s} {100 * e['self_ms'] / op_ms:6.2f}%  "
              f"{e['calls']:8d} calls  total {100 * e['total_ms'] / op_ms:6.2f}%")
    print(f"  {'(unattributed)':24s} {100 * summary['unattributed_ms'] / op_ms:6.2f}%")


# ---------------------------------------------------------------------------
# runs


def _check_program_source() -> None:
    here = Path(evcop.__file__).resolve()
    if SRC.resolve() not in here.parents:
        raise SystemExit(f"error: evcop imported from {here}, not from {SRC}")


def run_one(name: str, seed: int, seconds: int, trace: int) -> int:
    _check_program_source()
    w = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        record = run_record(name, seed)
        print(f"workload {name}: {w.why}")
        print("record " + json.dumps(record, sort_keys=True))
        if trace:
            result = _traced_run(w, workdir, seed)
        else:
            probe = SpeedProbe()
            setup = setup_seconds()
            outcomes = timed_loop(w, workdir, seed, seconds, probe)
            metrics, lines = end_to_end(w, outcomes, setup, probe.slowdown())
            result = _result(outcomes, metrics)
            print(f"setup_s samples: {[round(s, 4) for s in setup]}")
            for key, m in metrics.items():
                print(f"{key:22s} {m['value']:.6g} {m['unit']}")
            for line in lines:
                print(line)
            record["samples"] = {
                "op_s": [round(o.seconds, 6) for o in outcomes],
                "op_failed": [bool(o.errors) for o in outcomes],
                "reference_s": [round(s, 6) for s in probe.samples],
                "setup_s": [round(s, 6) for s in setup],
            }
        (OUT / f"record-{name}-seed{seed}-trace{trace}.json").write_text(
            json.dumps({"record": record, "result": result}, indent=1))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _traced_run(w: Workload, workdir: Path, seed: int) -> dict:
    """A fixed op list, run untraced then traced, for per-layer metrics."""
    ops = [w.make_op(workdir, seed, i, False) for i in range(w.cycle * w.trace_cycles)]
    run_op(w.make_op(workdir, seed, WARM_OP, True))
    probe = SpeedProbe()
    probe.sample()
    untraced = [run_probed(op, probe) for op in ops]
    tracer = Tracer()
    with tracer.installed():
        traced = [run_probed(op, probe, tracer, i) for i, op in enumerate(ops)]
    for outcome in untraced + traced:
        _report_failure(outcome)
    tracer.dump(OUT / f"trace-{w.name}.json")
    summary = layer_summary(tracer)
    untraced_s = sum(o.seconds / o.slowdown for o in untraced)
    traced_s = sum(o.seconds / o.slowdown for o in traced)
    metrics = per_layer(summary, untraced_s, traced_s, len(ops), probe.slowdown())
    _print_shares(summary)
    print(f"host slowdown {probe.slowdown():.4f}: times below are at reference speed")
    for key, m in metrics.items():
        print(f"{key:36s} {m['value']:.6g} {m['unit']}")
    return _result(untraced + traced, metrics)


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload, each in a fresh process so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    script = Path(__file__).resolve().parent / "run.py"
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(script), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)],
                              capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        part = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for key, m in part["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
        print()
    print(json.dumps(combined))
    return 0

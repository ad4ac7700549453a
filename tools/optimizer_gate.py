"""Quality gate of the line search's kink step: every fit without it, then with it.

Run from the repository root:

    PYTHONPATH=src python tools/optimizer_gate.py --fit-seeds 901-912 --study-seeds 921-936
    PYTHONPATH=src python tools/optimizer_gate.py --fit-seeds 1-4 --sizes 100000

Inputs are the benchmark's (``perfbench/inputs.py``): for each fit seed, the
five fit structures (ops 0-4) at each ``--sizes`` entry (250 and 1000 by
default), drawn from the fit-100k workload's stream 2 at n = 100000 and from
fit-1k's stream 1 at any other size, and for each study seed, the study-tvd
spec ``study_spec(seed, 2)`` (two random truths, n = 250 and 1000).  At
n = 100000 a fit takes seconds, so that size is run apart.  Each input is fitted twice: first with
``evcop.fit._kink_step`` patched to return None, which leaves Moré and
Thuente's trial steps alone (the search as it was before the kink step),
then as it is.  Printed per fit, without -> with: the penalized value
``loglik - penalty``, objective evaluations, iterations, the optimizer's
message, and sup|A - A0| on 1001 points (fit inputs) or the tvd to the
truth (study fits).  The last line is one JSON object with the totals the
gate reads and whether each of its bounds holds; the script only prints and
exits 0 whatever they read.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402  (perfbench/inputs.py)

import evcop.cli  # noqa: E402
import evcop.fit  # noqa: E402
from evcop.fit import FitConfig, optimize, optimize_many, z_transform  # noqa: E402

T_PROBES = np.linspace(0.0, 1.0, 1001)
# the input stream of each fit workload's samples, by size (fit-1k: 1)
STREAMS = {100000: 2}
# the gate's bounds: median relative change of the penalized value, the
# worst fit's, the fall of total evaluations, and the relative rise allowed
# in mean sup|A - A0| and in the median study tvd
MEDIAN_VALUE_CHANGE, WORST_VALUE_CHANGE = 0.0, -1e-4
EVALUATIONS_FALL = 0.08
ERROR_RISE = 0.005


def seeds(text: str) -> list[int]:
    """``"901-912"`` or ``"1,4,7"`` as a list of seeds."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def summary(fm) -> dict:
    return {"value": fm.loglik - fm.penalty, "evaluations": fm.evaluations,
            "iterations": fm.iterations, "converged": fm.converged,
            "message": fm.message}


def fit_input(seed: int, n: int, i: int) -> dict:
    structure = inputs.FIT_STRUCTURES[i % len(inputs.FIT_STRUCTURES)]
    data = structure.sample(inputs.op_rng(seed, STREAMS.get(n, 1), i), n)
    fm = optimize(z_transform(data), FitConfig())
    a_hat = np.asarray(fm.pickands(T_PROBES), dtype=float)
    return dict(summary(fm), label=f"fit seed={seed} n={n} {structure.name}",
                error=float(np.max(np.abs(a_hat - structure.pickands(T_PROBES)))))


def study_fits(seed: int) -> list[dict]:
    """The fits of one study-tvd spec, each with its tvd to the truth."""
    fitted = []

    def fit_many(z_samples, configs):
        outcomes = optimize_many(z_samples, configs)
        fitted.extend(outcomes)
        return outcomes

    with mock.patch.object(evcop.cli, "optimize_many", fit_many):
        _, rows, _ = evcop.cli.run_study(inputs.study_spec(seed, 2), 1)
    # one worker fits every run in one group, in the rows' order
    assert len(fitted) == len(rows), "a study sample failed to simulate"
    return [dict(summary(fm), error=float(row["tvd"]),
                 label=f"study seed={seed} truth={row['copula_id']} "
                       f"n={row['sample_size']}")
            for row, fm in zip(rows, fitted) if not isinstance(fm, Exception)]


def both_ways(make):
    with mock.patch.object(evcop.fit, "_kink_step", lambda *ends: None):
        off = make()
    return off, make()


def line(off: dict, on: dict) -> str:
    rel = (on["value"] - off["value"]) / abs(off["value"])
    return (f"{off['label']:40s} value {off['value']:.10g} -> {on['value']:.10g}"
            f" ({rel:+.2e})  evals {off['evaluations']} -> {on['evaluations']}"
            f"  iters {off['iterations']} -> {on['iterations']}"
            f"  err {off['error']:.6f} -> {on['error']:.6f}"
            f"  {off['message'][:24]!r} -> {on['message'][:24]!r}")


def gate(pairs: list, study_pairs: list) -> dict:
    every = pairs + study_pairs
    rel = [(on["value"] - off["value"]) / abs(off["value"]) for off, on in every]
    evals = [sum(side["evaluations"] for side in sides) for sides in zip(*every)]
    errors = [statistics.mean(side["error"] for side in sides)
              for sides in zip(*pairs)] if pairs else [0.0, 0.0]
    tvds = [statistics.median(side["error"] for side in sides)
            for sides in zip(*study_pairs)] if study_pairs else [0.0, 0.0]
    not_conv = [sum(not side["converged"] for side in sides) for sides in zip(*every)]
    # a fit that no longer converges passes when it ends no lower
    extra_ok = all(on["value"] >= off["value"] for off, on in every
                   if off["converged"] and not on["converged"])
    out = {
        "fits": len(every),
        "value_rel_change_median": statistics.median(rel),
        "value_rel_change_worst": min(rel),
        "fits_value_higher_equal_lower": [sum(r > 0 for r in rel),
                                          sum(r == 0 for r in rel),
                                          sum(r < 0 for r in rel)],
        "evaluations_without_with": evals,
        "iterations_without_with": [sum(side["iterations"] for side in sides)
                                    for sides in zip(*every)],
        "mean_sup_err_without_with": errors,
        "median_study_tvd_without_with": tvds,
        "nonconverged_without_with": not_conv,
    }
    out["bounds_hold"] = {
        "median_value_change": out["value_rel_change_median"] >= MEDIAN_VALUE_CHANGE,
        "worst_value_change": out["value_rel_change_worst"] >= WORST_VALUE_CHANGE,
        "evaluations_fall": evals[1] <= (1.0 - EVALUATIONS_FALL) * evals[0],
        "mean_sup_err": errors[1] <= (1.0 + ERROR_RISE) * errors[0],
        "median_study_tvd": tvds[1] <= (1.0 + ERROR_RISE) * tvds[0],
        "nonconverged": not_conv[1] <= not_conv[0] or extra_ok,
    }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--fit-seeds", type=seeds, default=[])
    p.add_argument("--study-seeds", type=seeds, default=[])
    p.add_argument("--sizes", type=seeds, default=[250, 1000])
    args = p.parse_args(argv)
    pairs = []
    for seed in args.fit_seeds:
        for n in args.sizes:
            for i in range(len(inputs.FIT_STRUCTURES)):
                pairs.append(both_ways(lambda: fit_input(seed, n, i)))
                print(line(*pairs[-1]), flush=True)
    study_pairs = []
    for seed in args.study_seeds:
        for off, on in zip(*both_ways(lambda: study_fits(seed))):
            assert off["label"] == on["label"], "a study fit failed on one side"
            study_pairs.append((off, on))
            print(line(off, on), flush=True)
    print(json.dumps(gate(pairs, study_pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

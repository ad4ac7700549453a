"""Per-fit cost of one stacked objective pass, by group size, and its bit-identity.

Run from the repository root:

    PYTHONPATH=src python tools/lockstep_cost.py
    PYTHONPATH=src python tools/lockstep_cost.py --seed 2 --repeats 9

Inputs are the fit-1k benchmark's (``perfbench/inputs.py``, stream 1): the
samples of ops 0 to 15 of ``--seed``, n = 1000, each set up as ``evcop
fit`` sets it up, so all on the one shared pipeline of the default basis
size.  Each fit is evaluated at its center plus a random offset of norm 1.
For each group size G in 1, 2, 4, 8 and 16, one ``_loss_and_grad`` call
with the coefficients of the first G fits stacked on that pipeline is
timed (best of ``--repeats`` runs of ``--calls`` calls), and its time per
fit is printed next to a lone call's (the mean over the G fits of a call
on each one alone); the ratio is the per-fit cost of a lockstep round
against lone fits.  Every fit's data
term and gradient in the stacked call must equal its lone call's to the last
bit.  The last line is one JSON object with the table; the script only
prints and exits 0 whatever it reads.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402  (perfbench/inputs.py)

from evcop.fit import _loss_and_grad, _set_up, z_transform  # noqa: E402

SIZES = (1, 2, 4, 8, 16)


def fit_setups(seed: int, count: int) -> list:
    """The likelihoods of the first ``count`` fit-1k set-ups."""
    liks = []
    for op in range(count):
        structure = inputs.FIT_STRUCTURES[op % len(inputs.FIT_STRUCTURES)]
        data = structure.sample(inputs.op_rng(seed, 1, op), 1000)
        liks.append(_set_up(z_transform(data), None).lik)
    return liks


def best_seconds(call, calls: int, repeats: int) -> float:
    """Best wall time of ``calls`` calls, over ``repeats`` runs, per call."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        best = min(best, time.perf_counter() - start)
    return best / calls


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--calls", type=int, default=200)
    p.add_argument("--repeats", type=int, default=5)
    args = p.parse_args(argv)
    liks = fit_setups(args.seed, max(SIZES))
    chain = liks[0].chain
    pipe = chain.pipe
    rng = np.random.default_rng(args.seed)
    coeffs = []
    for _ in liks:
        offset = rng.standard_normal(chain.basis.dim)
        coeffs.append(chain.center + offset / np.linalg.norm(offset))
    lone = [best_seconds(lambda lik=lik, c=c: _loss_and_grad(
        pipe, lik.z, c, True), args.calls, args.repeats)
        for lik, c in zip(liks, coeffs)]
    rows = []
    for size in SIZES:
        z = tuple(lik.z for lik in liks[:size])
        theta = np.stack(coeffs[:size])
        ll, grad = _loss_and_grad(pipe, z, theta, True)
        identical = True
        for f, lik in enumerate(liks[:size]):
            ll_f, grad_f = _loss_and_grad(pipe, lik.z, coeffs[f], True)
            identical &= (ll[f] == ll_f
                          and grad[f].tobytes() == grad_f.tobytes())
        per_fit = best_seconds(lambda: _loss_and_grad(pipe, z, theta, True),
                               args.calls, args.repeats) / size
        alone = float(np.mean(lone[:size]))
        rows.append({"fits": size, "per_fit_us": 1e6 * per_fit,
                     "lone_us": 1e6 * alone, "ratio": per_fit / alone,
                     "bit_identical": bool(identical)})
        print(f"G={size:2d}  per fit {1e6 * per_fit:7.1f} us  lone {1e6 * alone:7.1f} us"
              f"  ratio {per_fit / alone:.3f}  bit-identical {identical}",
              flush=True)
    print(json.dumps({"seed": args.seed, "grid_nodes": pipe.m,
                      "n": 1000, "rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

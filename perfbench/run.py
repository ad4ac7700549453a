"""End-to-end and per-layer benchmark of the evcop command line.

Run from the repository root:

    python3 perfbench/run.py --workload fit-1k --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Every op calls the public entry point ``evcop.cli.main([...])`` in-process,
with stdout and stderr captured, exactly as the ``evcop`` command would run
it.  One closed-loop caller runs one op at a time; the next op starts when
the previous one has finished and been checked.  Inputs come from
``--seed`` and are written before the op that reads them is timed.  Each
op's outputs are checked (``checks.py``); an op fails if it raises, exits
non-zero or fails a check, and every failure is printed with its message.

``--trace 0`` runs ops for ``--seconds`` seconds of wall time, finishing
the cycle of the workload's inputs it is in so every run sees the same mix,
and reports the end-to-end metrics; op times exclude making inputs and
checking outputs.  ``--trace 1`` runs a fixed list of ops twice, untraced
then traced with the spans of ``tracing.py``, and reports per-layer metrics
and the tracing overhead; with a fixed list its counts repeat exactly for a
seed.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Set-up time (``setup_s``) is measured in fresh interpreters that import
``evcop.cli`` and build its parser, which every ``evcop`` command pays.
Every time metric is reported at reference speed (``speed.py``), because
the shared hosts this runs on change speed by 2x from minute to minute; the
raw wall-clock figures are printed beside them.  BLAS and OpenMP pools
default to one thread (never more than ``nproc``): the caller is a single
process running one op at a time.

``BENCHMARK.json`` lists the workloads whose figures are steady and whose
ops all pass at the time of writing; ``--workload all`` runs every workload
in ``bench.WORKLOADS``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _limit_threads() -> None:
    """One BLAS/OpenMP thread unless set, and never more than nproc."""
    cap = nproc()
    for var in THREAD_VARS:
        value = os.environ.get(var, "1")
        try:
            n = int(value)
        except ValueError:
            n = 1
        os.environ[var] = str(max(1, min(n, cap)))


def _parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(names) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    if not (SRC / "evcop" / "cli.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'evcop'}); "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    _limit_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import bench  # noqa: E402  (needs the thread settings and paths above)

    args = _parse_args(argv, bench.WORKLOADS)
    if args.workload == "all":
        return bench.run_all(args.seed, args.seconds, args.trace)
    return bench.run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())

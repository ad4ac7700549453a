"""Command-line interface: fit, simulate, evaluate, study and joint pipelines.

Commands exchange plain CSV files (two numeric columns, header optional) and
model JSON files; simulation studies read a JSON specification and emit tidy
CSV suitable for any plotting tool.  Exit codes: 0 success, 2 input error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time

import numpy as np

from .copula import EvCopula, tvd_copulas
from .errors import (_BASIS_DIM, _BOUNDS, _COUNT, _LAM, _RADIUS, _SAMPLE_SIZE,
                     _SEED, EvcopError, InputError, NumericalError, _as_bool,
                     _at_least, read_field, real)
from .families import ParametricPickands
from .fit import (
    FitConfig,
    FittedModel,
    default_random_basis,
    fit_univariate_density,
    model_from_dict,
    model_to_dict,
    optimize,
    optimize_many,
    pipeline_pickands,  # noqa: F401 (perfbench's tracer wraps it here)
    random_pickands,
    z_transform,
)
from .pickands import (
    blomqvist_beta,
    fixed_point,
    gini_from_copula,
    gini_from_density,
    gini_from_pickands,
    spectral_from_w,
    symmetrize,
    upper_tail,
    validate_pickands,
)

__all__ = [
    "main",
    "read_pairs",
    "write_pairs",
    "pseudo_observations",
    "run_study",
    "joint_pipeline",
]

logger = logging.getLogger("evcop")

# share of a column's values repeating an earlier value above which
# pseudo_observations warns
_TIE_SHARE = 0.01
# field separators of input CSV files besides blanks
_BLANK_SEPARATORS = str.maketrans(",;\t", "   ")
# most study runs one worker fits in lockstep: per fit, a round's objective
# pass costs about half a lone call from 8 fits on and falls little further
# (tools/lockstep_cost.py prints the cost at 1-16 fits), so more would gain
# little
_LOCKSTEP = 16


# ---------------------------------------------------------------------------
# file formats


def _leading_pair(text: str) -> bool:
    """Whether the first two blank-separated fields of a line are numbers."""
    fields = text.split()
    try:
        float(fields[0]), float(fields[1])
    except (ValueError, IndexError):
        return False
    return True


def read_pairs(path) -> np.ndarray:
    """Two numeric columns from a CSV file; a single header line is allowed.

    Fields are separated by ``,``, ``;``, tabs or blanks.  Blank lines and
    fields after the second are ignored, and line 1 is a header when its
    first two fields are not numbers; a UTF-8 byte-order mark is dropped.
    The rows are parsed by one :func:`numpy.loadtxt` call once every
    separator is a blank.  A NaN or infinite value is rejected, naming its
    line.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = fh.read().translate(_BLANK_SEPARATORS).split("\n")
    rows = lines if _leading_pair(lines[0]) else lines[1:]
    if not any(map(str.strip, rows)):
        raise InputError(f"{path}: no numeric rows found")
    first = len(lines) - len(rows) + 1
    try:
        data = np.loadtxt(rows, usecols=(0, 1), comments=None, ndmin=2)
    except ValueError as exc:
        bad = next((i for i, text in enumerate(rows, first)
                    if text.strip() and not _leading_pair(text)), None)
        where = f"at line {bad}" if bad else f"({exc})"
        raise InputError(f"{path}: malformed numeric row {where}") from None
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        numbered = [i for i, text in enumerate(rows, first) if text.strip()]
        bad = numbered[int(np.argmin(finite))]
        raise InputError(f"{path}: non-finite value at line {bad}")
    return data


def write_pairs(path, data: np.ndarray, header: str = "u,v") -> None:
    """CSV of the rows of ``data`` under one header line, at full float
    precision (17 significant digits)."""
    np.savetxt(path, np.asarray(data, dtype=float), delimiter=",",
               fmt="%.17g", header=header, comments="")


def pseudo_observations(raw: np.ndarray) -> np.ndarray:
    """Rank transform to (0, 1): rank / (n + 1), average ranks on ties.

    The model assumes continuous margins.  A warning is logged for each
    column in which more than 1% of the values repeat an earlier value of
    that column.
    """
    raw = np.asarray(raw, dtype=float)
    n = raw.shape[0]
    out = np.empty_like(raw)
    for j in range(raw.shape[1]):
        values, group, counts = np.unique(raw[:, j], return_inverse=True,
                                          return_counts=True)
        tied = 1.0 - counts.size / n
        if tied > _TIE_SHARE:
            logger.warning("pseudo_observations: %.1f%% of column %d repeats "
                           "earlier values; ties break the continuous-margin "
                           "assumption", 100.0 * tied, j + 1)
        # a group of tied values holds ranks end - count + 1 .. end; a NaN
        # (sorted last) makes the whole column NaN, as scipy's rankdata does
        ends = np.cumsum(counts)
        ranks = 0.5 * (ends + (ends - counts) + 1)[group]
        out[:, j] = (np.nan if np.isnan(values[-1]) else ranks) / (n + 1.0)
    return out


def _load_json(path) -> dict:
    """The JSON object in a model or study-spec file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: the file must contain a JSON object")
    return doc


def _rebuild_copula(path) -> tuple[FittedModel, EvCopula]:
    doc = _load_json(path)
    if doc.get("kind") == "margin":
        raise InputError("expected a copula model, not a margin model")
    fm = model_from_dict(doc)
    pick = fm.pickands
    if read_field(doc, "symmetrized", _as_bool, False):
        pick = symmetrize(pick)
    return fm, EvCopula(pick, survival=read_field(doc, "survival", _as_bool,
                                                  False))


# ---------------------------------------------------------------------------
# fit / simulate / evaluate


def cmd_fit(args) -> int:
    data = read_pairs(args.input)
    if args.pseudo:
        data = pseudo_observations(data)
    if np.any(data <= 0.0) or np.any(data >= 1.0):
        raise InputError("data must lie strictly inside (0, 1)^2; "
                         "use --pseudo for raw measurements")
    if args.survival:
        data = 1.0 - data
    fm = optimize(z_transform(data), FitConfig(
        basis_dim=args.dim, lam=args.lam,
        flip=False if args.no_flip_heuristic else None))
    doc = model_to_dict(fm)
    if args.survival:
        doc["survival"] = True
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    report = {
        "model": args.output,
        "n_rows": int(data.shape[0]),
        "loglik": fm.loglik,
        "gini": gini_from_pickands(fm.pickands),
        "blomqvist_beta": blomqvist_beta(fm.pickands),
        "upper_tail": upper_tail(fm.pickands),
        "flipped": fm.flipped,
        "converged": fm.converged,
        "iterations": fm.iterations,
        "evaluations": fm.evaluations,
        "grad_max": fm.grad_max,
        "message": fm.message,
        "w0_estimate": fm.w0_estimate,
    }
    print(json.dumps(report, indent=2))
    return 0


def cmd_simulate(args) -> int:
    _, cop = _rebuild_copula(args.model)
    sample = cop.simulate(args.n, seed=args.seed)
    write_pairs(args.output, sample)
    print(f"wrote {args.n} rows to {args.output}")
    return 0


def cmd_evaluate(args) -> int:
    fm, cop = _rebuild_copula(args.model)
    pick = cop.pickands  # symmetrized when the document says so
    sm = spectral_from_w(fm.pickands)
    diag = validate_pickands(pick)
    report = {
        "gini": {
            "from_pickands": gini_from_pickands(pick),
            "from_density": gini_from_density(fm.density),
            "from_copula": gini_from_copula(EvCopula(pick)),
        },
        "blomqvist_beta": blomqvist_beta(pick),
        "upper_tail": upper_tail(pick),
        "fixed_point": fixed_point(fm.pickands),
        "boundary_slopes": [float(pick.deriv(0.0)), float(pick.deriv(1.0))],
        "spectral": {"H0": sm.h0, "H1": sm.h1},
        "constraints_ok": diag.passed(1e-6),
        "survival": cop.survival,
    }
    print(json.dumps(report, indent=2))
    if args.table:
        t = np.linspace(0.0, 1.0, 201)
        table = np.column_stack([t, *pick.jet(t)])
        write_pairs(args.table, table, "t,A,A1,A2")
    return 0


# ---------------------------------------------------------------------------
# studies


def _sample_sizes(values) -> list[int]:
    """A non-empty list of fit sample sizes."""
    if not values:
        raise ValueError("must list at least one sample size")
    return [_SAMPLE_SIZE(v) for v in values]


def _family_copula(conf: dict) -> EvCopula:
    if not isinstance(conf, dict):
        raise InputError("each entry of field 'families' must be an object")
    alpha = read_field(conf, "alpha", real, 1.0)
    beta = read_field(conf, "beta", real, 1.0)
    kh = None if alpha == 1.0 and beta == 1.0 else (alpha, beta)
    return EvCopula(ParametricPickands(read_field(conf, "family", str),
                                       read_field(conf, "theta", real),
                                       khoudraji=kh))


def _study_run(group):
    """One group of study runs: simulate each, fit them in lockstep, score each.

    Returns ``(row, curve, error)`` per run.  A run that fails keeps its row
    with NaN scores and records its error; the others go on.  ``runtime_s``
    is the run's own time, its simulation and scoring, plus a share of the
    one :func:`evcop.fit.optimize_many` call in proportion to its fit's
    ``evaluations``: a lockstep round evaluates every open fit once.  A fit
    that raised gets no share.
    """
    rows, samples = [], []
    curves, errors = [None] * len(group), [None] * len(group)
    for i, payload in enumerate(group):
        truth, _, size, seed_key, copula_id, replicate, _ = payload
        start = time.perf_counter()
        rows.append({"copula_id": copula_id, "sample_size": size,
                     "replicate": replicate, "tvd": float("nan"),
                     "gini": float("nan"), "beta": float("nan")})
        rng = np.random.default_rng(np.random.SeedSequence(seed_key))
        try:
            samples.append(z_transform(truth.simulate(size, seed=rng)))
        except EvcopError as exc:  # recorded, not fatal
            samples.append(None)
            errors[i] = str(exc)
        rows[i]["runtime_s"] = time.perf_counter() - start
    fitting = [i for i, z in enumerate(samples) if z is not None]
    start = time.perf_counter()
    fits = optimize_many([samples[i] for i in fitting],
                         [group[i][1] for i in fitting])
    evaluations = [0 if isinstance(fitted, EvcopError) else fitted.evaluations
                   for fitted in fits]
    per_evaluation = (time.perf_counter() - start) / max(sum(evaluations), 1)
    for i, fitted, count in zip(fitting, fits, evaluations):
        start = time.perf_counter()
        truth, t_grid = group[i][0], group[i][6]
        if isinstance(fitted, EvcopError):
            errors[i] = str(fitted)
        else:
            try:
                rows[i].update(
                    tvd=tvd_copulas(EvCopula(fitted.pickands), truth),
                    gini=gini_from_pickands(fitted.pickands),
                    beta=blomqvist_beta(fitted.pickands))
                if t_grid is not None:
                    curves[i] = np.asarray(fitted.pickands(t_grid))
            except EvcopError as exc:
                errors[i] = str(exc)
        rows[i]["runtime_s"] += (count * per_evaluation
                                 + time.perf_counter() - start)
    return list(zip(rows, curves, errors))


def _worker_count(requested=None) -> int:
    """``--workers``, by default the CPUs this process may run on, capped by
    ``EVCOP_THREADS``."""
    n = requested
    if n is None:
        try:
            n = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity mask on this platform
            n = os.cpu_count() or 1
    cap = os.environ.get("EVCOP_THREADS")
    if cap:  # unset or empty: no cap
        try:
            n = min(n, _at_least("EVCOP_THREADS", 1)(cap))
        except InputError as exc:
            raise InputError("malformed environment variable "
                             f"'EVCOP_THREADS': {exc}") from None
    return n


def _summarize(rows) -> list[dict]:
    out = []
    sizes = sorted({r["sample_size"] for r in rows})
    for size in sizes:
        vals = np.asarray([r["tvd"] for r in rows
                           if r["sample_size"] == size and np.isfinite(r["tvd"])])
        if vals.size == 0:
            continue
        qs = np.quantile(vals, [0.10, 0.25, 0.50, 0.75, 0.90])
        out.append({"sample_size": size, "mean": float(vals.mean()),
                    "q10": qs[0], "q25": qs[1], "q50": qs[2],
                    "q75": qs[3], "q90": qs[4], "runs": int(vals.size)})
    return out


def run_study(spec: dict, workers: int = 1):
    """Run the study a spec describes: ``(kind, rows, meta)``.

    A tvd study fits random spline truths and scores recovery by total
    variation distance; a bias-variance study fits parametric families
    repeatedly and records pointwise envelopes of the fitted Pickands
    functions.  ``meta`` holds the ``summary`` and the ``errors`` for both
    kinds; tvd studies add the ``truth_gini`` of each random model and
    bias-variance studies the ``envelope``.
    """
    kind = spec.get("study")
    if kind not in ("tvd", "bias-variance"):
        raise InputError(f"unknown study kind {kind!r}; "
                         "expected 'tvd' or 'bias-variance'")
    tvd = kind == "tvd"
    # every field is read before a model is drawn or fitted
    fams = spec.get("families")
    if not (tvd or fams):
        raise InputError("bias-variance study requires a 'families' list")
    seed = read_field(spec, "seed", _SEED, 0)
    sizes = read_field(spec, "sample_sizes", _sample_sizes, [1000])
    reps = read_field(spec, "replications",
                      _at_least("replications", 1), 1 if tvd else 100)
    # a field left out takes the library's default
    lam = read_field(spec, "fit.lambda", _LAM, FitConfig.lam)
    dim = read_field(spec, "fit.dim", _BASIS_DIM, FitConfig.basis_dim)
    if tvd:
        count = read_field(spec, "random_evc.count", _COUNT, 20)
        prior_lam = read_field(spec, "random_evc.lambda", _LAM, FitConfig.lam)
        radius = read_field(spec, "random_evc.R", _RADIUS, 5.0)
        basis = default_random_basis(
            read_field(spec, "random_evc.dim", _BASIS_DIM, FitConfig.basis_dim))
        cfgs = [FitConfig(basis_dim=dim, lam=lam)] * count
        truths = [EvCopula(m) for m in random_pickands(prior_lam, radius, count,
                                                       seed=seed, basis=basis)]
        t_grid = None
    else:
        truths = [_family_copula(fam) for fam in fams]
        cfgs = [FitConfig(basis_dim=dim, lam=read_field(fam, "lambda", _LAM, lam))
                for fam in fams]
        t_grid = np.linspace(0.0, 1.0, 101)
    payloads = [(truth, cfg, size, (seed, cid, si, rep), cid, rep, t_grid)
                for cid, (truth, cfg) in enumerate(zip(truths, cfgs))
                for si, size in enumerate(sizes) for rep in range(reps)]
    # consecutive runs in groups that each worker fits in lockstep, at most
    # _LOCKSTEP runs and enough groups to keep every worker busy
    step = min(_LOCKSTEP, -(-len(payloads) // max(workers, 1)))
    groups = [payloads[i:i + step] for i in range(0, len(payloads), step)]
    if workers <= 1 or len(groups) <= 1:
        results = [_study_run(g) for g in groups]
    else:
        # imported here: multiprocessing and its sockets cost every other
        # command about 15 ms of start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_study_run, groups))
    results = [run for group in results for run in group]
    rows = [r for r, _, _ in results]
    meta = {"summary": _summarize(rows),
            "errors": [e for _, _, e in results if e]}
    if tvd:
        meta["truth_gini"] = {cid: gini_from_pickands(t.pickands)
                              for cid, t in enumerate(truths)}
        return kind, rows, meta
    envelope = meta["envelope"] = []
    for cid, truth in enumerate(truths):
        curves = np.asarray([c for (r, c, _) in results
                             if r["copula_id"] == cid and c is not None])
        if curves.size == 0:
            continue
        mean = curves.mean(axis=0)
        q01 = np.quantile(curves, 0.01, axis=0)
        q99 = np.quantile(curves, 0.99, axis=0)
        truth_vals = np.asarray(truth.pickands(t_grid))
        for j, t in enumerate(t_grid):
            envelope.append({"copula_id": cid, "t": float(t),
                             "truth": float(truth_vals[j]),
                             "mean": float(mean[j]), "q01": float(q01[j]),
                             "q99": float(q99[j])})
    return kind, rows, meta


def _write_rows(path, rows, columns):
    write_pairs(path, [[r[c] for c in columns] for r in rows], ",".join(columns))


def cmd_study(args) -> int:
    workers = _worker_count(args.workers)
    spec = _load_json(args.spec)
    _, rows, meta = run_study(spec, workers)
    _write_rows(args.output, rows,
                ["copula_id", "sample_size", "replicate", "tvd", "gini",
                 "beta", "runtime_s"])
    print(f"wrote {len(rows)} runs to {args.output}")
    if args.envelope and "envelope" in meta:
        _write_rows(args.envelope, meta["envelope"],
                    ["copula_id", "t", "truth", "mean", "q01", "q99"])
        print(f"wrote envelope to {args.envelope}")
    summary = meta["summary"]
    if summary:
        hdr = ["sample_size", "mean", "q10", "q25", "q50", "q75", "q90", "runs"]
        _write_rows(sys.stdout, summary, hdr)
        if args.summary:
            _write_rows(args.summary, summary, hdr)
    for err in meta["errors"]:
        print(f"run failed: {err}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# joint pipeline


def joint_pipeline(data: np.ndarray, *, margin_dim: int = 17,
                   margin_lam: float = 10.0,
                   copula_dim: int = FitConfig.basis_dim,
                   copula_lam: float = 1e-5, bounds=None, n_samples: int = 500,
                   seed=0):
    """Shared-margin joint model for ordered pairs (col1 >= col2).

    The sample is duplicated with swapped columns so both margins coincide,
    a single spline density is fitted to the pooled values, the
    :func:`pseudo_observations` ranks feed a survival extreme-value copula
    fit, the Pickands function is symmetrized, the survival transform is
    reversed, and ordered joint samples are drawn.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise InputError("expected two columns")
    bad = np.nonzero(data[:, 0] < data[:, 1])[0]
    if bad.size:
        raise InputError(f"rows must satisfy col1 >= col2; first violation at "
                         f"data row {bad[0]}")
    doubled = np.vstack([data, data[:, ::-1]])
    pooled = doubled[:, 0]

    if bounds is None:
        lo, hi = float(pooled.min()), float(pooled.max())
        pad = 0.05 * (hi - lo)
        bounds = (lo - pad, hi + pad)
    margin = fit_univariate_density(pooled, bounds, margin_dim, margin_lam)

    # each column of the doubled sample is a permutation of the pooled values
    surv = 1.0 - pseudo_observations(doubled)
    fitted = optimize(z_transform(surv),
                      FitConfig(basis_dim=copula_dim, lam=copula_lam))
    sym = symmetrize(fitted.pickands)
    final = EvCopula(sym, survival=True)

    uv = final.simulate(n_samples, seed=seed)
    x = margin.quantile(uv[:, 0])
    y = margin.quantile(uv[:, 1])
    joint = np.column_stack([np.maximum(x, y), np.minimum(x, y)])
    return margin, fitted, final, joint, doubled


def cmd_joint(args) -> int:
    try:
        bounds = args.bounds and _BOUNDS(args.bounds)
    except InputError as exc:
        raise InputError(f"--bounds: {exc}") from None
    data = read_pairs(args.input)
    margin, fitted, final, joint, doubled = joint_pipeline(
        data, margin_dim=args.margin_dim, margin_lam=args.margin_lam,
        copula_dim=args.dim, copula_lam=args.lam, bounds=bounds,
        n_samples=args.samples, seed=args.seed)
    os.makedirs(args.outdir, exist_ok=True)

    margin_doc = {
        "version": 1,
        "kind": "margin",
        "degree": margin.basis.degree,
        "knots": [float(k) for k in margin.basis.interior_knots],
        "theta": [float(t) for t in margin.theta],
        "bounds": [margin.bounds[0], margin.bounds[1]],
        "lambda": margin.lam,
        "diagnostics": {"loglik": margin.loglik, "penalty": margin.penalty,
                        "converged": margin.converged},
    }
    with open(os.path.join(args.outdir, "margin.json"), "w",
              encoding="utf-8") as fh:
        json.dump(margin_doc, fh, indent=2)

    copula_doc = model_to_dict(fitted)
    copula_doc["survival"] = True
    copula_doc["symmetrized"] = True
    with open(os.path.join(args.outdir, "copula.json"), "w",
              encoding="utf-8") as fh:
        json.dump(copula_doc, fh, indent=2)

    write_pairs(os.path.join(args.outdir, "joint_sample.csv"), joint, "m1,m2")
    report = {
        "rows_in": int(data.shape[0]),
        "rows_doubled": int(doubled.shape[0]),
        "margin_loglik": margin.loglik,
        "copula_loglik": fitted.loglik,
        "copula_gini": gini_from_pickands(fitted.pickands),
        "samples": int(joint.shape[0]),
        "outdir": args.outdir,
    }
    print(json.dumps(report, indent=2))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evcop",
        description="Semiparametric bivariate extreme-value copulas")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a copula model to a two-column CSV")
    p.add_argument("input")
    p.add_argument("-o", "--output", default="model.json")
    p.add_argument("--pseudo", action="store_true",
                   help="rank-transform raw data to (0,1) first")
    p.add_argument("--survival", action="store_true",
                   help="fit through the survival transform")
    p.add_argument("--dim", type=_BASIS_DIM, default=FitConfig.basis_dim)
    p.add_argument("--lambda", dest="lam", type=_LAM, default=FitConfig.lam)
    p.add_argument("--no-flip-heuristic", action="store_true")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("simulate", help="draw a sample from a model file")
    p.add_argument("model")
    p.add_argument("-n", type=_COUNT, required=True)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("-o", "--output", default="sample.csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evaluate", help="association measures of a model")
    p.add_argument("model")
    p.add_argument("--table", default=None,
                   help="write the Pickands function table to this CSV")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("study", help="run a simulation study from a JSON spec")
    p.add_argument("spec")
    p.add_argument("-o", "--output", default="results.csv")
    p.add_argument("--summary", default=None)
    p.add_argument("--envelope", default=None)
    p.add_argument("--workers", type=_at_least("workers", 1), default=None)
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("joint", help="shared-margin joint model for ordered pairs")
    joint = joint_pipeline.__kwdefaults__  # the library's defaults
    p.add_argument("input")
    p.add_argument("-o", "--outdir", default="joint_out")
    # a margin basis of dim d has d - 3 interior knots
    p.add_argument("--margin-dim", type=_at_least("dim", 3),
                   default=joint["margin_dim"])
    p.add_argument("--margin-lambda", dest="margin_lam", type=_LAM,
                   default=joint["margin_lam"])
    p.add_argument("--bounds", nargs=2, type=float, default=None)
    p.add_argument("--dim", type=_BASIS_DIM, default=joint["copula_dim"])
    p.add_argument("--lambda", dest="lam", type=_LAM, default=joint["copula_lam"])
    p.add_argument("--samples", type=_COUNT, default=joint["n_samples"])
    p.add_argument("--seed", type=_SEED, default=joint["seed"])
    p.set_defaults(func=cmd_joint)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return int(args.func(args) or 0)
    except SystemExit as exc:  # --help, or a usage error argparse reported
        return exc.code
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: fit, simulate, evaluate, study and joint pipelines.

Commands exchange plain CSV files (two numeric columns, header optional) and
model JSON files; simulation studies read a JSON specification and emit tidy
CSV suitable for any plotting tool.  Exit codes: 0 success, 2 input error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .bayes import ClrDensity
from .copula import EvCopula, tvd_copulas
from .errors import EvcopError, InputError, NumericalError
from .families import ParametricPickands
from .fit import (
    FitConfig,
    FittedModel,
    fit_univariate_density,
    model_from_dict,
    model_to_dict,
    optimize,
    pipeline_pickands,
    random_pickands,
    z_transform,
)
from .pickands import (
    blomqvist_beta,
    gini_from_copula,
    gini_from_density,
    gini_from_pickands,
    spectral_from_w,
    symmetrize,
    upper_tail,
    validate_pickands,
)
from .williamson import fixed_point

__all__ = [
    "main",
    "read_pairs",
    "write_pairs",
    "pseudo_observations",
    "run_study",
    "run_tvd_study",
    "run_bias_variance_study",
    "joint_pipeline",
]


# ---------------------------------------------------------------------------
# file formats


def read_pairs(path) -> np.ndarray:
    """Two numeric columns from a CSV file; a single header line is allowed."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            text = line.strip()
            if not text:
                continue
            parts = [p for p in text.replace(";", ",").replace("\t", ",").split(",")
                     if p.strip()] if ("," in text or ";" in text or "\t" in text) \
                else text.split()
            try:
                vals = (float(parts[0]), float(parts[1]))
            except (ValueError, IndexError):
                if lineno == 0:
                    continue  # header
                raise InputError(f"{path}: malformed numeric row at line {lineno + 1}")
            rows.append(vals)
    if not rows:
        raise InputError(f"{path}: no numeric rows found")
    return np.asarray(rows, dtype=float)


def write_pairs(path, data: np.ndarray, header: str = "u,v") -> None:
    """Two-column CSV with full float precision (17 significant digits)."""
    np.savetxt(path, np.asarray(data, dtype=float), delimiter=",",
               fmt="%.17g", header=header, comments="")


def pseudo_observations(raw: np.ndarray) -> np.ndarray:
    """Rank transform to (0, 1): rank / (n + 1), average ranks on ties."""
    from scipy.stats import rankdata

    raw = np.asarray(raw, dtype=float)
    n = raw.shape[0]
    out = np.empty_like(raw)
    for j in range(raw.shape[1]):
        out[:, j] = rankdata(raw[:, j], method="average") / (n + 1.0)
    return out


def _load_model(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: model file must contain a JSON object")
    return doc


def _rebuild_copula(doc: dict) -> tuple[FittedModel, EvCopula]:
    fm = model_from_dict(doc)
    pick = fm.pickands
    if doc.get("symmetrized"):
        pick = symmetrize(pick)
    return fm, EvCopula(pick, survival=bool(doc.get("survival", False)))


# ---------------------------------------------------------------------------
# fit / simulate / evaluate


def _fit_config_from_args(args) -> FitConfig:
    return FitConfig(basis_dim=args.dim, lam=args.lam, grid_k=args.grid_k,
                     ordering_heuristic=not args.no_flip_heuristic)


def cmd_fit(args) -> int:
    data = read_pairs(args.input)
    if data.shape[0] < 30:
        raise InputError(f"need at least 30 rows, got {data.shape[0]}")
    if args.pseudo:
        data = pseudo_observations(data)
    if np.any(data <= 0.0) or np.any(data >= 1.0):
        raise InputError("data must lie strictly inside (0, 1)^2; "
                         "use --pseudo for raw measurements")
    if args.survival:
        data = 1.0 - data
    fm = optimize(z_transform(data), _fit_config_from_args(args))
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
    }
    print(json.dumps(report, indent=2))
    return 0


def cmd_simulate(args) -> int:
    doc = _load_model(args.model)
    _, cop = _rebuild_copula(doc)
    sample = cop.simulate(args.n, seed=args.seed)
    write_pairs(args.output, sample)
    print(f"wrote {args.n} rows to {args.output}")
    return 0


def cmd_evaluate(args) -> int:
    doc = _load_model(args.model)
    if doc.get("kind") == "margin":
        raise InputError("evaluate expects a copula model, not a margin model")
    fm, cop = _rebuild_copula(doc)
    pick = fm.pickands
    dens = ClrDensity(fm.basis, fm.theta, center_enabled=fm.center_applied)
    _, _, grid = pipeline_pickands(fm.basis, fm.theta, fm.center_applied,
                                   fm.flipped)
    sm = spectral_from_w(grid)
    diag = validate_pickands(pick)
    report = {
        "gini": {
            "from_pickands": gini_from_pickands(pick),
            "from_density": gini_from_density(dens),
            "from_copula": gini_from_copula(EvCopula(pick)),
        },
        "blomqvist_beta": blomqvist_beta(pick),
        "upper_tail": upper_tail(pick),
        "fixed_point": fixed_point(grid),
        "boundary_slopes": [float(pick.deriv(0.0)), float(pick.deriv(1.0))],
        "spectral": {"H0": sm.h0, "H1": sm.h1},
        "constraints_ok": diag.passed(1e-6),
        "survival": bool(doc.get("survival", False)),
    }
    print(json.dumps(report, indent=2))
    if args.table:
        t = np.linspace(0.0, 1.0, 201)
        table = np.column_stack([t, pick(t), pick.deriv(t), pick.deriv2(t)])
        write_pairs(args.table, table, "t,A,A1,A2")
    return 0


# ---------------------------------------------------------------------------
# studies


def _family_copula(conf: dict) -> EvCopula:
    alpha = float(conf.get("alpha", 1.0))
    beta = float(conf.get("beta", 1.0))
    kh = None if alpha == 1.0 and beta == 1.0 else (alpha, beta)
    return EvCopula(ParametricPickands(conf["family"], float(conf["theta"]),
                                       khoudraji=kh))


def _fit_config_from_spec(spec: dict, lam_override=None) -> FitConfig:
    fit = spec.get("fit", {})
    lam = lam_override if lam_override is not None else fit.get("lambda", 1e-4)
    return FitConfig(basis_dim=int(fit.get("dim", 13)), lam=float(lam),
                     grid_k=int(fit.get("grid_k", 78)))


def _study_run(payload):
    """One study run: simulate from the truth, fit, score."""
    truth, cfg, size, seed_key, copula_id, replicate, t_grid = payload
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    start = time.perf_counter()
    try:
        sample = truth.simulate(size, seed=rng)
        fitted = optimize(z_transform(sample), cfg)
        tvd = tvd_copulas(EvCopula(fitted.pickands), truth)
        row = {
            "copula_id": copula_id,
            "sample_size": size,
            "replicate": replicate,
            "tvd": tvd,
            "gini": gini_from_pickands(fitted.pickands),
            "beta": blomqvist_beta(fitted.pickands),
            "runtime_s": time.perf_counter() - start,
        }
        curve = None if t_grid is None else np.asarray(fitted.pickands(t_grid))
        return row, curve, None
    except EvcopError as exc:  # recorded, not fatal
        row = {"copula_id": copula_id, "sample_size": size,
               "replicate": replicate, "tvd": float("nan"),
               "gini": float("nan"), "beta": float("nan"),
               "runtime_s": time.perf_counter() - start}
        return row, None, str(exc)


def _worker_count(requested=None) -> int:
    cap = os.environ.get("EVCOP_THREADS")
    n = requested if requested else (os.cpu_count() or 1)
    if cap:
        n = min(n, max(1, int(cap)))
    return max(1, n)


def _run_all(payloads, workers: int):
    if workers <= 1 or len(payloads) <= 1:
        return [_study_run(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_study_run, payloads))


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


def run_tvd_study(spec: dict, workers: int = 1):
    """Random-copula recovery study scored by total variation distance."""
    conf = spec.get("random_evc", {})
    seed = int(spec.get("seed", 0))
    count = int(conf.get("count", 20))
    lam = float(conf.get("lambda", 1e-4))
    radius = float(conf.get("R", 5.0))
    sizes = [int(s) for s in spec.get("sample_sizes", [1000])]
    reps = int(spec.get("replications", 1))
    models = random_pickands(lam, radius, count, seed=seed)
    cfg = _fit_config_from_spec(spec)
    payloads = []
    for cid, model in enumerate(models):
        truth = EvCopula(model)
        for si, size in enumerate(sizes):
            for rep in range(reps):
                payloads.append((truth, cfg, size, (seed, cid, si, rep),
                                 cid, rep, None))
    results = _run_all(payloads, workers)
    rows = [r for r, _, _ in results]
    errors = [e for _, _, e in results if e]
    truth_ginis = {cid: gini_from_pickands(m) for cid, m in enumerate(models)}
    return rows, _summarize(rows), {"errors": errors, "truth_gini": truth_ginis}


def run_bias_variance_study(spec: dict, workers: int = 1):
    """Repeated-fit study on parametric families with pointwise envelopes."""
    fams = spec.get("families")
    if not fams:
        raise InputError("bias-variance study requires a 'families' list")
    seed = int(spec.get("seed", 0))
    sizes = [int(s) for s in spec.get("sample_sizes", [1000])]
    reps = int(spec.get("replications", 100))
    t_grid = np.linspace(0.0, 1.0, 101)
    payloads = []
    truths = []
    for cid, fam in enumerate(fams):
        truth = _family_copula(fam)
        truths.append(truth)
        cfg = _fit_config_from_spec(spec, lam_override=fam.get("lambda"))
        for si, size in enumerate(sizes):
            for rep in range(reps):
                payloads.append((truth, cfg, size, (seed, cid, si, rep),
                                 cid, rep, t_grid))
    results = _run_all(payloads, workers)
    rows = [r for r, _, _ in results]
    errors = [e for _, _, e in results if e]

    envelope = []
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
    return rows, envelope, {"errors": errors, "summary": _summarize(rows)}


def run_study(spec: dict, workers: int = 1):
    kind = spec.get("study")
    if kind == "tvd":
        return ("tvd",) + run_tvd_study(spec, workers)
    if kind == "bias-variance":
        return ("bias-variance",) + run_bias_variance_study(spec, workers)
    raise InputError(f"unknown study kind {kind!r}; "
                     "expected 'tvd' or 'bias-variance'")


def _write_rows(path, rows, columns):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for r in rows:
            fh.write(",".join(_fmt(r[c]) for c in columns) + "\n")


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def cmd_study(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{args.spec}: not valid JSON ({exc})") from exc
    workers = _worker_count(args.workers)
    kind, rows, extra, meta = run_study(spec, workers)
    _write_rows(args.output, rows,
                ["copula_id", "sample_size", "replicate", "tvd", "gini",
                 "beta", "runtime_s"])
    print(f"wrote {len(rows)} runs to {args.output}")
    if kind == "tvd":
        summary = extra
    else:
        summary = meta["summary"]
        if args.envelope:
            _write_rows(args.envelope, extra,
                        ["copula_id", "t", "truth", "mean", "q01", "q99"])
            print(f"wrote envelope to {args.envelope}")
    if summary:
        hdr = ["sample_size", "mean", "q10", "q25", "q50", "q75", "q90", "runs"]
        print(",".join(hdr))
        for s in summary:
            print(",".join(_fmt(s[c]) for c in hdr))
        if args.summary:
            _write_rows(args.summary, summary, hdr)
    for err in meta.get("errors", []):
        print(f"run failed: {err}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# joint pipeline


def joint_pipeline(data: np.ndarray, margin_dim: int = 17,
                   margin_lam: float = 10.0, copula_dim: int = 13,
                   copula_lam: float = 1e-5, grid_k: int = 78,
                   bounds=None, n_samples: int = 500, seed=0):
    """Shared-margin joint model for ordered pairs (col1 >= col2).

    The sample is duplicated with swapped columns so both margins coincide,
    a single spline density is fitted to the pooled values, ranks feed a
    survival extreme-value copula fit, the Pickands function is symmetrized,
    the survival transform is reversed, and ordered joint samples are drawn.
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
    margin = fit_univariate_density(pooled, bounds,
                                    FitConfig(basis_dim=margin_dim,
                                              lam=margin_lam))

    srt = np.sort(pooled)
    n2 = pooled.size

    def ecdf(v):
        return np.searchsorted(srt, v, side="right") / (n2 + 1.0)

    u = ecdf(doubled[:, 0])
    v = ecdf(doubled[:, 1])
    surv = np.column_stack([1.0 - u, 1.0 - v])
    fitted = optimize(z_transform(surv),
                      FitConfig(basis_dim=copula_dim, lam=copula_lam,
                                grid_k=min(grid_k, max(8, n2 - 2))))
    sym = symmetrize(fitted.pickands)
    final = EvCopula(sym, survival=True)

    uv = final.simulate(n_samples, seed=seed)
    x = margin.quantile(uv[:, 0])
    y = margin.quantile(uv[:, 1])
    joint = np.column_stack([np.maximum(x, y), np.minimum(x, y)])
    return margin, fitted, final, joint, doubled


def cmd_joint(args) -> int:
    data = read_pairs(args.input)
    os.makedirs(args.outdir, exist_ok=True)
    bounds = tuple(args.bounds) if args.bounds else None
    margin, fitted, final, joint, doubled = joint_pipeline(
        data, margin_dim=args.margin_dim, margin_lam=args.margin_lam,
        copula_dim=args.dim, copula_lam=args.lam, bounds=bounds,
        n_samples=args.samples, seed=args.seed)

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
    p.add_argument("--dim", type=int, default=13)
    p.add_argument("--lambda", dest="lam", type=float, default=1e-4)
    p.add_argument("--grid-k", dest="grid_k", type=int, default=78)
    p.add_argument("--no-flip-heuristic", action="store_true")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("simulate", help="draw a sample from a model file")
    p.add_argument("model")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("joint", help="shared-margin joint model for ordered pairs")
    p.add_argument("input")
    p.add_argument("-o", "--outdir", default="joint_out")
    p.add_argument("--margin-dim", type=int, default=17)
    p.add_argument("--margin-lambda", dest="margin_lam", type=float, default=10.0)
    p.add_argument("--bounds", nargs=2, type=float, default=None)
    p.add_argument("--dim", type=int, default=13)
    p.add_argument("--lambda", dest="lam", type=float, default=1e-5)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_joint)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args) or 0)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

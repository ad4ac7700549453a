"""Output checks run on every op; each returns a list of failure messages.

Two accuracy bounds apply to medians over a run (:func:`run_errors`), where
one op's sampling error alone can cross them; the values they bound are
still taken from every op.

The checks read the program's output files with numpy, not with the
program's own readers.  Only the fit check uses the program: it rebuilds the
fitted Pickands function from the model JSON with ``evcop.fit``'s loader,
because the model file stores spline coefficients, not function values.
"""

from __future__ import annotations

import json
import math

import numpy as np

T_PROBES = np.linspace(0.0, 1.0, 1001)
# Round-off allowed on Pickands values: the bounds and discrete convexity
# are checked on values of order 1, so 1e-12 is a few thousand ulps.
# On second differences over the 1001-point grid it equals 1e-6 in
# curvature units, the tolerance the program's own constraint report uses.
ROUNDOFF = 1e-12
# Accuracy bound on sup |A_hat - A_true|.  Per op it applies only where
# sampling error is small against it: at n=1000, 24 of 285 converged fits of
# independent samples exceeded 0.05 (up to 0.10) while at n=100000 no
# structure exceeded 0.014.  At n=1000 it bounds the run's median instead.
MAX_SUP_ERR = 0.05
SUP_ERR_PER_OP_MIN_N = 10000
MODEL_KEYS = ("version", "degree", "knots", "theta", "center_applied",
              "flipped", "lambda", "diagnostics")
MAX_MEAN_DEV = 0.01
MAX_BETA_DEV = 0.05
# Bound of acceptance criterion 7 on the median tvd at n=1000.  It bounds
# the median over all fits of a run: over four models per op, the per-op
# median reached 0.0755 in 30 ops, too close to 0.08 for a per-op check.
MAX_MEDIAN_TVD_1000 = 0.08


def pickands_errors(a_hat: np.ndarray, t: np.ndarray = T_PROBES) -> list[str]:
    """Bounds ``max(t, 1-t) <= A <= 1`` and discrete convexity of values."""
    errors = []
    if not np.all(np.isfinite(a_hat)):
        return ["fitted Pickands function has non-finite values"]
    above = float(np.max(a_hat - 1.0))
    below = float(np.max(np.maximum(t, 1.0 - t) - a_hat))
    d2 = a_hat[:-2] - 2.0 * a_hat[1:-1] + a_hat[2:]
    if above > ROUNDOFF:
        errors.append(f"A exceeds 1 by {above:.3g}")
    if below > ROUNDOFF:
        errors.append(f"A falls below max(t, 1-t) by {below:.3g}")
    if float(np.min(d2)) < -ROUNDOFF:
        errors.append(f"A not convex: second difference {float(np.min(d2)):.3g}")
    return errors


def check_fit(model_path, a_true, n: int) -> tuple[list[str], dict]:
    """Schema, admissibility and accuracy of one model fitted to ``n`` pairs.

    Returns the failures and ``{"sup_err", "converged"}`` when the file
    could be read.
    """
    from evcop.fit import model_from_dict

    try:
        with open(model_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"model file unreadable: {exc}"], {}
    missing = [k for k in MODEL_KEYS if k not in doc]
    if missing:
        return [f"model JSON lacks keys {missing}"], {}
    a_hat = np.asarray(model_from_dict(doc).pickands(T_PROBES), dtype=float)
    errors = pickands_errors(a_hat)
    sup_err = float(np.max(np.abs(a_hat - a_true(T_PROBES))))
    if n >= SUP_ERR_PER_OP_MIN_N and not sup_err <= MAX_SUP_ERR:
        errors.append(f"sup |A_hat - A_true| = {sup_err:.4f} > {MAX_SUP_ERR}")
    info = {"sup_err": sup_err,
            "converged": bool(doc["diagnostics"].get("converged", True))}
    return errors, info


def check_model_read(sample_path, n: int, report_text: str) -> list[str]:
    """Simulated sample and ``evaluate`` report of one model file."""
    try:
        report = json.loads(report_text)
    except json.JSONDecodeError as exc:
        return [f"evaluate printed no JSON report: {exc}"]
    try:
        uv = np.loadtxt(sample_path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        return [f"sample CSV unreadable: {exc}"]
    errors = []
    if uv.shape != (n, 2):
        errors.append(f"sample has shape {uv.shape}, expected ({n}, 2)")
    if uv.size == 0 or uv.shape[1] != 2:
        return errors
    outside = int(np.sum(~((uv > 0.0) & (uv < 1.0))))
    if outside:
        errors.append(f"{outside} sample values outside (0, 1)")
    dev = np.abs(uv.mean(axis=0) - 0.5)
    if np.max(dev) > MAX_MEAN_DEV:
        errors.append(f"column means deviate from 1/2 by {dev.round(4).tolist()}")
    beta_emp = 4.0 * float(np.mean((uv[:, 0] <= 0.5) & (uv[:, 1] <= 0.5))) - 1.0
    beta = report.get("blomqvist_beta")
    if not isinstance(beta, (int, float)) or not abs(beta_emp - beta) <= MAX_BETA_DEV:
        errors.append(f"empirical Blomqvist beta {beta_emp:.4f} vs reported {beta}")
    if report.get("constraints_ok") is not True:
        errors.append("evaluate reports constraints_ok other than true")
    return errors


def check_study(csv_path, expected_rows: int, stderr_text: str
                ) -> tuple[list[str], dict]:
    """Study results CSV: row count, finite tvd and no failed runs.

    Returns the failures and ``{"tvd_1000"}``, the tvd values at n=1000.
    """
    try:
        with open(csv_path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            rows = [line.strip().split(",") for line in fh if line.strip()]
    except OSError as exc:
        return [f"results CSV unreadable: {exc}"], {}
    errors = []
    if "run failed" in stderr_text:
        errors.append("stderr reports a failed run")
    if len(rows) != expected_rows:
        errors.append(f"{len(rows)} result rows, expected {expected_rows}")
    try:
        i_size, i_tvd = header.index("sample_size"), header.index("tvd")
        tvd = [(int(r[i_size]), float(r[i_tvd])) for r in rows]
    except (ValueError, IndexError) as exc:
        return errors + [f"results CSV malformed: {exc}"], {}
    if not all(math.isfinite(v) for _, v in tvd):
        errors.append("a tvd value is not finite")
    at_1000 = [v for size, v in tvd if size == 1000]
    if not at_1000:
        errors.append("no results at n=1000")
    return errors, {"tvd_1000": at_1000}


def run_errors(sup_errs: list[float], tvd_1000: list[float]) -> list[str]:
    """Accuracy bounds on the medians over all ops of a run."""
    errors = []
    if sup_errs and not np.median(sup_errs) <= MAX_SUP_ERR:
        errors.append(f"median sup |A_hat - A_true| = {np.median(sup_errs):.4f}"
                      f" > {MAX_SUP_ERR}")
    if tvd_1000 and not np.median(tvd_1000) <= MAX_MEDIAN_TVD_1000:
        errors.append(f"median tvd at n=1000 is {np.median(tvd_1000):.4f}"
                      f" > {MAX_MEDIAN_TVD_1000}")
    return errors

"""Span tracing from outside the program, for the traced benchmark run.

Spans are recorded by wrapping the attributes through which each caller
looks a layer's function up (``evcop.fit.pipeline_pickands`` and
``evcop.cli.pipeline_pickands`` separately; class attributes for methods).
The wrappers exist only inside :meth:`Tracer.installed` and the original
attributes are restored when it exits, so nothing under ``src/`` changes
and untraced runs execute the program unmodified.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

# (module, attribute, span name).  A dotted attribute names a class member.
# Span names are "<layer>.<what>"; the layers are the program's modules
# (``hermite`` and ``rootfind`` stand for ``_hermite`` and ``_rootfind``).
WRAP_POINTS = (
    ("evcop.cli", "read_pairs", "cli.read_pairs"),
    ("evcop.cli", "write_pairs", "cli.write_pairs"),
    ("evcop.cli", "_study_run", "cli.study_run"),
    ("evcop.cli", "z_transform", "fit.z_transform"),
    ("evcop.cli", "optimize", "fit.optimize"),
    ("evcop.cli", "model_from_dict", "fit.load_model"),
    ("evcop.cli", "pipeline_pickands", "fit.tabulate"),
    ("evcop.cli", "random_pickands", "fit.random_models"),
    ("evcop.cli", "tvd_copulas", "copula.tvd"),
    ("evcop.cli", "gini_from_pickands", "pickands.measures"),
    ("evcop.cli", "gini_from_density", "pickands.measures"),
    ("evcop.cli", "gini_from_copula", "pickands.measures"),
    ("evcop.cli", "blomqvist_beta", "pickands.measures"),
    ("evcop.cli", "upper_tail", "pickands.measures"),
    ("evcop.cli", "spectral_from_w", "pickands.measures"),
    ("evcop.cli", "validate_pickands", "pickands.measures"),
    ("evcop.cli", "fixed_point", "pickands.measures"),
    ("evcop.fit", "ordering_heuristic", "fit.flip_heuristic"),
    ("evcop.fit", "empirical_w_grid", "fit.pilot_grid"),
    ("evcop.fit", "quantile_knots", "splinebasis.setup"),
    ("evcop.fit", "build_zb_basis", "splinebasis.setup"),
    ("evcop.fit", "curvature_matrix", "splinebasis.setup"),
    ("evcop.fit", "project_center", "splinebasis.setup"),
    ("evcop.fit", "default_random_basis", "splinebasis.setup"),
    ("evcop.fit", "_HhatPipeline.__init__", "fit.objective_setup"),
    ("evcop.fit", "_loss_and_grad", "fit.objective"),
    ("evcop.fit", "minimize", "fit.optimizer"),
    ("evcop.fit", "pipeline_pickands", "fit.tabulate"),
    ("evcop.fit", "williamson_from_density", "williamson.transform"),
    ("evcop.fit", "normalize_w", "williamson.normalize"),
    ("evcop.fit", "rotate", "pickands.rotate"),
    ("evcop.fit", "mirror", "pickands.mirror"),
    ("evcop.fit", "mcmc_sample", "fit.mcmc"),
    ("evcop.bayes", "project_center", "splinebasis.setup"),
    ("evcop.bayes", "ClrDensity.__init__", "bayes.density"),
    ("evcop.bayes", "ClrDensity.pdf", "bayes.density"),
    ("evcop.bayes", "ClrDensity.__call__", "bayes.density"),
    ("evcop.splinebasis", "ZBasis.evaluate", "splinebasis.eval"),
    ("evcop.williamson", "hermite_interpolator", "hermite.build"),
    ("evcop.pickands", "hermite_interpolator", "hermite.build"),
    ("evcop.pickands", "vector_bisect", "rootfind.bisect"),
    ("evcop.pickands", "PickandsModel.__call__", "pickands.eval"),
    ("evcop.pickands", "PickandsModel.deriv", "pickands.eval"),
    ("evcop.pickands", "PickandsModel.deriv2", "pickands.eval"),
    ("evcop.copula", "vector_bisect", "rootfind.bisect"),
    ("evcop.copula", "EvCopula.simulate", "copula.simulate"),
)

# Results worth keeping from a wrapped call, summed over the traced ops.
NOTES = {
    "fit.optimizer": lambda res: {"fit.iterations": int(res.nit)},
    "fit.optimize": lambda fm: {"fit.nonconverged": float(not fm.converged)},
}

# Span fields, in the order each span list holds them.
NAME, START, END, PARENT, OP, OK = range(6)


class Tracer:
    """In-memory span recorder; spans are only taken while an op is open."""

    def __init__(self):
        self.spans: list[list] = []
        self.notes: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.op: int | None = None

    @contextlib.contextmanager
    def op_span(self, op: int, name: str):
        """The root span of one op; layer spans opened inside are its children."""
        self.op = op
        idx = self._begin(name)
        ok = False
        try:
            yield
            ok = True
        finally:
            self._end(idx, ok)
            self.op = None

    def _begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, False])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _end(self, idx: int, ok: bool) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[OK] = ok
        self._stack.pop()

    def wrap(self, name: str, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = self._begin(name)
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                self._end(idx, ok)
            if note is not None:
                for key, value in note(out).items():
                    self.notes[key] += value
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, points=WRAP_POINTS):
        """Wrap every point for the duration of the block, then restore."""
        saved = []
        try:
            for module_name, attr, name in points:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf] if isinstance(owner, type) \
                    else getattr(owner, leaf)
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self.wrap(name, original))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def dump(self, path) -> None:
        """Write the spans as JSON: times in ms from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [[s[NAME], round(1e3 * (s[START] - t0), 6),
                 round(1e3 * (s[END] - t0), 6), s[PARENT], s[OP], s[OK]]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ms", "end_ms", "parent", "op", "ok"],
                       "spans": rows}, fh)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping children
    are merged, so the result never goes below zero.
    """
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(idx)
    out = []
    for idx, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children[idx], key=lambda k: spans[k][START]):
            a, b = max(spans[c][START], lo), min(spans[c][END], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


def layer_summary(tracer: Tracer) -> dict:
    """Per-name totals over all traced ops.

    Returns ``{"ops", "op_ms", "unattributed_ms", "names": {name: {"calls",
    "self_ms", "total_ms"}}, "notes": {key: sum}, "accept": (kept, tried)}``,
    where ``tried`` counts tabulations made for random models.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    names: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_ms": 0.0, "total_ms": 0.0})
    op_ms = unattributed_ms = 0.0
    ops = 0
    kept = tried = 0
    for idx, span in enumerate(spans):
        dur_ms = 1e3 * (span[END] - span[START])
        if span[PARENT] < 0:
            ops += 1
            op_ms += dur_ms
            unattributed_ms += 1e3 * selfs[idx]
            continue
        entry = names[span[NAME]]
        entry["calls"] += 1
        entry["self_ms"] += 1e3 * selfs[idx]
        # nested spans of one name (a basis built inside a basis helper)
        # count once towards the inclusive total
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != span[NAME]:
            parent = spans[parent][PARENT]
        if parent < 0:
            entry["total_ms"] += dur_ms
        if span[NAME] == "fit.tabulate" \
                and spans[span[PARENT]][NAME] == "fit.random_models":
            tried += 1
            kept += bool(span[OK])
    return {"ops": ops, "op_ms": op_ms, "unattributed_ms": unattributed_ms,
            "names": dict(names), "notes": dict(tracer.notes), "accept": (kept, tried)}

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from evcop.copula import EvCopula
from evcop.families import ParametricPickands
from evcop.fit import FitConfig, model_to_dict, optimize, z_transform
from evcop.cli import (
    joint_pipeline,
    main,
    pseudo_observations,
    read_pairs,
    run_study,
    write_pairs,
)
from evcop.errors import InputError


@pytest.fixture()
def gumbel_csv(tmp_path, gumbel2):
    path = tmp_path / "gumbel.csv"
    write_pairs(path, gumbel2.simulate(400, seed=5))
    return str(path)


def test_csv_roundtrip_precision(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.random((50, 2))
    path = tmp_path / "x.csv"
    write_pairs(path, data)
    back = read_pairs(path)
    assert np.max(np.abs(back - data)) <= 1e-15 * np.max(data)


def _line_by_line_pairs(path) -> np.ndarray:
    """Reference: the CSV reader as a loop over lines, one row at a time."""
    rows = []
    with open(path, "r", encoding="utf-8-sig") as fh:
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
                    continue
                raise InputError(f"malformed numeric row at line {lineno + 1}")
            if not np.all(np.isfinite(vals)):
                raise InputError(f"non-finite value at line {lineno + 1}")
            rows.append(vals)
    if not rows:
        raise InputError("no numeric rows found")
    return np.asarray(rows, dtype=float)


def test_read_pairs_header_and_formats(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text("col_a,col_b\n0.25,0.5\n0.125;0.75\n0.3\t0.4\n")
    data = read_pairs(path)
    assert data.shape == (3, 2)
    assert data[0, 0] == 0.25
    rng = np.random.default_rng(4)
    x = [f"{v:.17g}" for v in rng.random(8) * 10.0 ** rng.integers(-12, 12, 8)]
    accepted = {
        "crlf": f"u,v\r\n{x[0]},{x[1]}\r\n{x[2]},{x[3]}\r\n",
        "tabs": f"{x[0]}\t{x[1]}\n{x[2]}\t {x[3]}\n",
        "semicolons": f"u;v\n{x[0]};{x[1]}\n{x[2]} ; {x[3]}\n",
        "blanks": f"{x[0]} {x[1]}\n   {x[2]}    {x[3]}  \n",
        "third_column": f"u,v,w\n{x[0]},{x[1]},label\n{x[2]},{x[3]},7\n",
        "blank_lines": f"\n{x[0]},{x[1]}\n\n  \n{x[2]},{x[3]}\n\n",
        "header": f"pair u,pair v\n{x[0]},{x[1]}\n",
        "one_field_header": f"{x[0]}\n{x[1]},{x[2]}\n",
        "empty_fields": f"{x[0]},,{x[1]}\n{x[2]}, ,{x[3]},\n",
        # a byte-order mark, as Excel and PowerShell write: row 1 is data
        "bom_headerless": f"\ufeff{x[0]},{x[1]}\n{x[2]},{x[3]}\n",
        "bom_header": f"\ufeffu,v\n{x[0]},{x[1]}\n{x[2]},{x[3]}\n",
    }
    for name, text in accepted.items():
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.encode("utf-8"))
        data = read_pairs(path)
        assert data.shape == (1 if name in ("header", "one_field_header")
                              else 2, 2), name
        assert np.array_equal(data, _line_by_line_pairs(path), equal_nan=True), name
    for name, (text, line) in {
            "bad_field": (f"u,v\n{x[0]},{x[1]}\n\n{x[2]},{x[3]}\nnot,numbers\n1,2\n", 5),
            "one_field": (f"u,v\n{x[0]},{x[1]}\n{x[2]},{x[3]}\n{x[4]},{x[5]}\n{x[6]}\n", 5),
            "header_not_first": (f"\n\n\n\nu,v\n{x[0]},{x[1]}\n", 5),
            "non_finite": ("nan,inf\n-inf,1e-320\n", 1)}.items():
        bad = tmp_path / f"{name}.csv"
        bad.write_text(text)
        with pytest.raises(InputError, match=f"at line {line}$"):
            _line_by_line_pairs(bad)
        with pytest.raises(InputError, match=f"at line {line}$"):
            read_pairs(bad)
    for text in ("just,a,header\n", "", "\n \n\t\n", "u,v\n\n"):
        empty = tmp_path / "empty.csv"
        empty.write_text(text)
        with pytest.raises(InputError, match="no numeric rows"):
            read_pairs(empty)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_input_exits_2_naming_its_line(tmp_path, capsys, value):
    rows = [f"{a:.17g},{b:.17g}"
            for a, b in np.random.default_rng(3).random((200, 2))]
    rows[56] = f"{value},{rows[56].split(',')[1]}"  # line 58 after the header
    path = tmp_path / "pairs.csv"
    path.write_text("u,v\n" + "\n".join(rows) + "\n")
    out = str(tmp_path / "out")
    for argv in (["fit", str(path), "-o", out],
                 ["fit", str(path), "-o", out, "--pseudo"],
                 ["joint", str(path), "-o", out]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.rstrip().endswith("at line 58"), argv


def test_pseudo_observations_in_unit_interval():
    rng = np.random.default_rng(1)
    raw = rng.lognormal(size=(100, 2))
    ps = pseudo_observations(raw)
    assert np.all((ps > 0.0) & (ps < 1.0))
    # ranks preserve order
    assert np.array_equal(np.argsort(ps[:, 0]), np.argsort(raw[:, 0]))


@pytest.mark.parametrize("kind", ["untied", "tied"])
def test_pseudo_observations_are_scipy_average_ranks(kind):
    from scipy.stats import rankdata
    rng = np.random.default_rng(2)
    raw = (rng.lognormal(size=(500, 2)) if kind == "untied"
           else np.round(rng.normal(size=(500, 2)), 1))
    ref = np.column_stack([rankdata(col, method="average") for col in raw.T])
    assert np.array_equal(pseudo_observations(raw), ref / 501.0)


def test_pseudo_observations_warn_on_ties(caplog):
    rng = np.random.default_rng(3)
    five_levels = rng.integers(0, 5, size=(200, 2)).astype(float)
    with caplog.at_level(logging.WARNING, logger="evcop"):
        pseudo_observations(five_levels)
    warned = [r for r in caplog.records if "repeats earlier values" in r.getMessage()]
    assert len(warned) == 2  # one per column
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="evcop"):
        pseudo_observations(rng.lognormal(size=(200, 2)))
    assert not caplog.records


def test_fit_simulate_evaluate_cycle(tmp_path, gumbel_csv, capsys):
    model = str(tmp_path / "model.json")
    rc = main(["fit", gumbel_csv, "-o", model, "--lambda", "1e-5"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    beta_true = 4.0 ** (1.0 - 2.0 ** -0.5) - 1.0
    assert abs(report["blomqvist_beta"] - beta_true) <= 0.1

    out1 = str(tmp_path / "s1.csv")
    out2 = str(tmp_path / "s2.csv")
    assert main(["simulate", model, "-n", "100", "--seed", "3", "-o", out1]) == 0
    assert main(["simulate", model, "-n", "100", "--seed", "3", "-o", out2]) == 0
    capsys.readouterr()
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read()

    table = str(tmp_path / "table.csv")
    assert main(["evaluate", model, "--table", table]) == 0
    ev = json.loads(capsys.readouterr().out)
    ginis = ev["gini"]
    assert abs(ginis["from_pickands"] - ginis["from_density"]) <= 1e-3
    assert abs(ginis["from_pickands"] - ginis["from_copula"]) <= 5e-3
    assert os.path.exists(table)


def test_fit_report_carries_the_w0_estimate(tmp_path, gumbel_csv, capsys):
    model = tmp_path / "model.json"
    assert main(["fit", gumbel_csv, "-o", str(model)]) == 0
    report = json.loads(capsys.readouterr().out)
    doc = json.loads(model.read_text(encoding="utf-8"))
    assert report["w0_estimate"] == doc["diagnostics"]["w0_estimate"]


def test_evaluate_matches_before_and_after_save(tmp_path, gumbel_csv, capsys):
    model = str(tmp_path / "model.json")
    main(["fit", gumbel_csv, "-o", model])
    capsys.readouterr()
    main(["evaluate", model])
    first = json.loads(capsys.readouterr().out)
    main(["evaluate", model])
    second = json.loads(capsys.readouterr().out)
    assert first == second


def test_evaluate_tabulates_once(tmp_path, gumbel_csv, monkeypatch, capsys):
    import evcop.cli
    import evcop.fit

    model = str(tmp_path / "model.json")
    main(["fit", gumbel_csv, "-o", model])
    calls = []
    for module in (evcop.fit, evcop.cli):
        def counted(*args, _tabulate=module.pipeline_pickands, **kwargs):
            calls.append(1)
            return _tabulate(*args, **kwargs)

        monkeypatch.setattr(module, "pipeline_pickands", counted)
    assert main(["evaluate", model]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_evaluate_rotates_once(tmp_path, gumbel2, monkeypatch, capsys):
    import evcop.fit
    import evcop.pickands
    from evcop.copula import EvCopula
    from evcop.families import ParametricPickands
    from evcop.fit import model_from_dict
    from evcop.pickands import fixed_point, spectral_from_w

    tawn = EvCopula(ParametricPickands("gumbel", 3.0, khoudraji=(0.4, 0.9)))
    flips = set()
    for name, truth, seed in (("gumbel", gumbel2, 5), ("tawn", tawn, 2)):
        data = tmp_path / f"{name}.csv"
        write_pairs(data, truth.simulate(400, seed=seed))
        model = str(tmp_path / f"{name}.json")
        assert main(["fit", str(data), "-o", model]) == 0
        capsys.readouterr()
        with open(model, encoding="utf-8") as fh:
            fm = model_from_dict(json.load(fh))
        flips.add(fm.flipped)
        # the report as read from a second rotation of the saved grid
        sm = spectral_from_w(fm.w_grid)
        fp = fixed_point(fm.w_grid)
        calls = []
        with monkeypatch.context() as patch:
            for module in (evcop.fit, evcop.pickands):
                def counted(*args, _rotate=module.rotate, **kwargs):
                    calls.append(1)
                    return _rotate(*args, **kwargs)

                patch.setattr(module, "rotate", counted)
            assert main(["evaluate", model]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(calls) == 1
        assert report["spectral"] == {"H0": sm.h0, "H1": sm.h1}
        # A'(0) = -1 and A'(1) = 1 on every spline grid, flipped or not
        assert report["spectral"] == {"H0": 0.0, "H1": 0.0}
        # a flipped model is mirrored, which moves A(1/2) by round-off only
        assert abs(report["fixed_point"] - fp) <= 1e-15
    assert flips == {False, True}


def test_evaluate_builds_the_density_once(tmp_path, gumbel_csv, monkeypatch,
                                          capsys):
    from evcop.bayes import ClrDensity

    model = str(tmp_path / "model.json")
    main(["fit", gumbel_csv, "-o", model])
    capsys.readouterr()
    calls = []

    def counted(self, *args, _init=ClrDensity.__init__, **kwargs):
        calls.append(1)
        _init(self, *args, **kwargs)

    monkeypatch.setattr(ClrDensity, "__init__", counted)
    assert main(["evaluate", model]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(calls) == 1
    assert np.isfinite(report["gini"]["from_density"])


def test_evaluate_reads_symmetrized_pickands(tmp_path, capsys):
    from evcop.copula import EvCopula
    from evcop.families import ParametricPickands
    from evcop.fit import model_to_dict, optimize, z_transform

    truth = EvCopula(ParametricPickands("gumbel", 3.0, khoudraji=(0.4, 1.0)))
    doc = model_to_dict(optimize(z_transform(truth.simulate(500, seed=2))))
    doc["symmetrized"] = True
    model = tmp_path / "sym.json"
    model.write_text(json.dumps(doc))
    table = tmp_path / "table.csv"
    assert main(["evaluate", str(model), "--table", str(table)]) == 0
    report = json.loads(capsys.readouterr().out)
    a = read_pairs(table)[:, 1]  # A on a grid symmetric about 1/2
    assert np.max(np.abs(a - a[::-1])) <= 1e-10
    slopes = report["boundary_slopes"]
    assert abs(slopes[0] + slopes[1]) <= 1e-10
    assert report["constraints_ok"]


def test_fit_exit_codes(tmp_path, capsys):
    assert main(["fit", str(tmp_path / "missing.csv")]) == 2
    small = tmp_path / "small.csv"
    write_pairs(small, np.full((5, 2), 0.5))
    assert main(["fit", str(small)]) == 2
    raw = tmp_path / "raw.csv"
    write_pairs(raw, np.abs(np.random.default_rng(2).lognormal(size=(50, 2))) + 1.0)
    assert main(["fit", str(raw)]) == 2  # not in (0,1) without --pseudo
    capsys.readouterr()


@pytest.mark.parametrize("command,extra,named", [
    ("fit", ["--lambda", "nan"], "lam must be finite"),
    ("fit", ["--lambda", "inf"], "lam must be finite"),
    ("joint", ["--margin-lambda", "nan"], "lam must be finite"),
    ("joint", ["--lambda", "nan"], "lam must be finite"),
    ("joint", ["--seed", "-1"], "--seed"),
    ("simulate", ["-n", "10", "--seed", "-1"], "--seed"),
    ("fit", ["--lambda", "-1"], "--lambda: lam must be finite and >= 0"),
    ("fit", ["--dim", "3"], "--dim: basis_dim must be >= 4, got 3"),
    ("simulate", ["-n", "0"], "-n: n must be >= 1, got 0"),
    ("joint", ["--samples", "0"], "--samples: n must be >= 1, got 0"),
    ("joint", ["--samples", "-1"], "--samples: n must be >= 1, got -1"),
    ("joint", ["--margin-dim", "2"], "--margin-dim: dim must be >= 3, got 2"),
    ("joint", ["--dim", "3"], "--dim: basis_dim must be >= 4, got 3"),
    ("joint", ["--margin-lambda", "-1"], "--margin-lambda: lam must be"),
    ("joint", ["--bounds", "5", "1"],
     "--bounds: bounds must be two finite numbers a < b, got 5 1"),
    ("study", ["--workers", "0"], "--workers: workers must be >= 1, got 0"),
    ("joint", ["--bounds", "0", "inf"],
     "--bounds: bounds must be two finite numbers a < b, got 0 inf"),
])
def test_bad_flag_values_exit_2(tmp_path, capsys, gumbel2, gumbel2_fit,
                                command, extra, named):
    # a bad flag value is an input error that names the flag, found before
    # any work: no fit runs on it and no output file or directory is made
    if command == "simulate":
        source = tmp_path / "model.json"
        source.write_text(json.dumps(model_to_dict(gumbel2_fit)))
    else:
        uv = gumbel2.simulate(60, seed=13)
        if command == "joint":
            m = np.exp(1.0 + uv)
            uv = np.column_stack([m.max(axis=1), m.min(axis=1)])
        source = tmp_path / "pairs.csv"
        write_pairs(source, uv)
    out = str(tmp_path / "out")
    assert main([command, str(source), "-o", out, *extra]) == 2
    assert named in capsys.readouterr().err
    assert not os.path.exists(out)


def test_help_and_usage_errors_return_their_exit_code(capsys):
    # main returns argparse's exit code rather than raising SystemExit
    assert main(["fit", "--help"]) == 0
    assert main(["fit"]) == 2
    assert "the following arguments are required: input" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "simulate"])
def test_a_margin_model_is_refused_as_a_copula_model(tmp_path, capsys, command):
    # shaped like the margin.json that joint writes
    margin = {"version": 1, "kind": "margin", "degree": 3,
              "knots": [0.25, 0.5, 0.75], "theta": [0.0] * 6,
              "bounds": [0.0, 1.0], "lambda": 10.0}
    path = tmp_path / "margin.json"
    path.write_text(json.dumps(margin))
    out = str(tmp_path / "out.csv")
    extra = ["-n", "10", "-o", out] if command == "simulate" else []
    assert main([command, str(path), *extra]) == 2
    assert "expected a copula model, not a margin model" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_fit_flip_heuristic_and_its_override(tmp_path, capsys):
    # the pseudo-angle histogram of this Tawn sample peaks left of 1/2
    tawn = EvCopula(ParametricPickands("gumbel", 3.0, khoudraji=(0.4, 0.9)))
    path = tmp_path / "tawn.csv"
    write_pairs(path, tawn.simulate(400, seed=0))
    flipped = []
    for extra in ([], ["--no-flip-heuristic"]):
        assert main(["fit", str(path), "-o", str(tmp_path / "m.json"),
                     *extra]) == 0
        flipped.append(json.loads(capsys.readouterr().out)["flipped"])
    assert flipped == [True, False]


def test_fit_pseudo_and_survival(tmp_path, gumbel2, capsys):
    raw = gumbel2.simulate(200, seed=8) * 37.0 + 2.0
    path = tmp_path / "raw.csv"
    write_pairs(path, raw)
    model = str(tmp_path / "m.json")
    assert main(["fit", str(path), "--pseudo", "-o", model]) == 0
    capsys.readouterr()

    # survival fit on S equals plain fit on 1 - S, with the flag recorded
    uv = gumbel2.simulate(300, seed=9)
    p1 = tmp_path / "d.csv"
    p2 = tmp_path / "dflip.csv"
    write_pairs(p1, uv)
    write_pairs(p2, 1.0 - uv)
    m1 = str(tmp_path / "m1.json")
    m2 = str(tmp_path / "m2.json")
    assert main(["fit", str(p1), "--survival", "-o", m1]) == 0
    assert main(["fit", str(p2), "-o", m2]) == 0
    capsys.readouterr()
    with open(m1) as fh:
        d1 = json.load(fh)
    with open(m2) as fh:
        d2 = json.load(fh)
    assert d1.pop("survival") is True
    assert d1 == d2


def _strip_runtime(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        keep = [i for i, name in enumerate(header) if name != "runtime_s"]
        rows = [tuple(line.strip().split(",")[i] for i in keep) for line in fh]
    return rows


def test_study_tvd_deterministic(tmp_path, capsys):
    spec = {"study": "tvd", "seed": 3, "sample_sizes": [250],
            "replications": 1,
            "random_evc": {"lambda": 1e-4, "R": 5.0, "dim": 13, "count": 2},
            "fit": {"dim": 13, "lambda": 1e-4, "grid_k": 40}}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out1 = str(tmp_path / "r1.csv")
    out2 = str(tmp_path / "r2.csv")
    assert main(["study", str(spec_path), "-o", out1]) == 0
    assert main(["study", str(spec_path), "-o", out2]) == 0
    capsys.readouterr()
    # identical statistical content (wall-clock runtimes necessarily differ)
    assert _strip_runtime(out1) == _strip_runtime(out2)


def _strip_runtime_rows(rows):
    return [{k: v for k, v in r.items() if k != "runtime_s"} for r in rows]


def test_study_parallel_matches_serial(tmp_path):
    spec = {"study": "tvd", "seed": 4, "sample_sizes": [250],
            "replications": 1,
            "random_evc": {"lambda": 1e-4, "R": 5.0, "dim": 13, "count": 2},
            "fit": {"dim": 13, "lambda": 1e-4, "grid_k": 40}}
    _, rows1, _ = run_study(spec, workers=1)
    _, rows2, _ = run_study(spec, workers=2)
    assert _strip_runtime_rows(rows1) == _strip_runtime_rows(rows2)


def test_study_runtimes_are_positive():
    # each run's runtime_s holds its simulation and scoring, and its share
    # of the group's lockstep fit by its evaluations
    spec = {"study": "tvd", "seed": 2, "sample_sizes": [100, 250],
            "random_evc": {"count": 2}}
    _, rows, _ = run_study(spec, workers=1)
    assert len(rows) == 4
    assert all(np.isfinite(r["runtime_s"]) and r["runtime_s"] > 0.0
               for r in rows)


def test_study_random_truths_follow_spec_dim():
    def one_model_study(dim):
        spec = {"study": "tvd", "seed": 1, "sample_sizes": [250],
                "random_evc": {"lambda": 1e-4, "R": 5.0, "dim": dim,
                               "count": 1}}
        _, rows, meta = run_study(spec, workers=1)
        return rows[0]["tvd"], rows[0]["gini"], meta["truth_gini"][0]

    assert all(a != b for a, b in zip(one_model_study(8),
                                      one_model_study(13)))


def test_study_bias_variance_envelope(tmp_path, capsys):
    spec = {"study": "bias-variance", "seed": 5, "sample_sizes": [300],
            "replications": 3,
            "families": [{"family": "gumbel", "theta": 2.0, "lambda": 1e-5}],
            "fit": {"dim": 13, "grid_k": 40}}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = str(tmp_path / "res.csv")
    env = str(tmp_path / "env.csv")
    summ = str(tmp_path / "sum.csv")
    assert main(["study", str(spec_path), "-o", out, "--envelope", env,
                 "--summary", summ]) == 0
    # the printed summary is the summary file, written by the same writer
    assert open(summ).read() in capsys.readouterr().out
    header = open(out).readline().strip()
    assert header == "copula_id,sample_size,replicate,tvd,gini,beta,runtime_s"
    envelope = np.genfromtxt(env, delimiter=",", names=True)
    assert set(envelope.dtype.names) == {"copula_id", "t", "truth", "mean",
                                         "q01", "q99"}
    assert envelope.shape[0] == 101


def test_simulate_then_refit_round_trip(tmp_path, gumbel_csv, capsys):
    from evcop.copula import EvCopula, tvd_copulas
    from evcop.fit import model_from_dict

    model = str(tmp_path / "model.json")
    main(["fit", gumbel_csv, "-o", model, "--lambda", "1e-5"])
    sample = str(tmp_path / "resim.csv")
    main(["simulate", model, "-n", "2000", "--seed", "6", "-o", sample])
    refit = str(tmp_path / "refit.json")
    rc = main(["fit", sample, "-o", refit, "--lambda", "1e-5"])
    capsys.readouterr()
    assert rc == 0
    with open(model) as fh:
        m1 = model_from_dict(json.load(fh))
    with open(refit) as fh:
        m2 = model_from_dict(json.load(fh))
    assert tvd_copulas(EvCopula(m1.pickands), EvCopula(m2.pickands)) <= 0.10


def test_worker_count_env(monkeypatch):
    from evcop.cli import _worker_count

    monkeypatch.setenv("EVCOP_THREADS", "1")
    assert _worker_count(8) == 1
    monkeypatch.delenv("EVCOP_THREADS")
    assert _worker_count(3) == 3


def test_worker_count_follows_cpu_affinity(monkeypatch):
    from evcop.cli import _worker_count

    # one allowed CPU of eight (taskset -c 0) starts one worker, not eight
    monkeypatch.delenv("EVCOP_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _worker_count() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                        raising=False)
    assert _worker_count() == 3
    assert _worker_count(6) == 6
    monkeypatch.setenv("EVCOP_THREADS", "2")
    assert _worker_count() == 2
    # without an affinity mask, the CPU count
    monkeypatch.delenv("EVCOP_THREADS")
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert _worker_count() == 8


def test_bias_variance_envelope_covers_truth():
    # pointwise 1%/99% envelopes from repeated fits should cover the true
    # Pickands function almost everywhere on the grid
    spec = {"study": "bias-variance", "seed": 9, "sample_sizes": [1000],
            "replications": 20,
            "families": [{"family": "gumbel", "theta": 2.0, "lambda": 1e-5}],
            "fit": {"dim": 13, "grid_k": 78}}
    _, rows, meta = run_study(spec, workers=1)
    assert not meta["errors"]
    inside = [r["q01"] - 1e-12 <= r["truth"] <= r["q99"] + 1e-12
              for r in meta["envelope"]]
    assert np.mean(inside) >= 0.90


def test_spec_fit_grid_k_is_accepted_and_not_read(tmp_path, capsys):
    # the fitting grid has a fixed size; old specs that set it still run
    outs = []
    for fit in ({}, {"fit": {"grid_k": 40}}):
        spec = tmp_path / f"spec{len(outs)}.json"
        spec.write_text(json.dumps({**_TINY_STUDY, **fit}))
        outs.append(str(tmp_path / f"r{len(outs)}.csv"))
        assert main(["study", str(spec), "-o", outs[-1]]) == 0
    capsys.readouterr()
    assert _strip_runtime(outs[0]) == _strip_runtime(outs[1])


def test_study_rejects_bad_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"study": "nope"}))
    assert main(["study", str(bad)]) == 2
    notjson = tmp_path / "nj.json"
    notjson.write_text("{{{")
    assert main(["study", str(notjson)]) == 2
    capsys.readouterr()


_TINY_STUDY = {"study": "tvd", "seed": 1, "sample_sizes": [100],
               "random_evc": {"count": 1}}
_TINY_BV = {"study": "bias-variance", "seed": 1, "sample_sizes": [100],
            "families": [{"family": "gumbel", "theta": 2.0}]}


@pytest.mark.parametrize("kind,doc,extra,threads,named", [
    ("model", {"lambda": "abc"}, [], None, "'lambda'"),
    ("model", {"diagnostics": []}, [], None, "'diagnostics'"),
    ("model", {"flipped": "false"}, [], None, "'flipped'"),
    ("model", {"knots": [float("nan")] * 10}, [], None, "knots"),
    ("study", {**_TINY_STUDY, "seed": "x"}, [], None,
     "malformed field 'seed': expected an integer, got 'x'"),
    ("study", [_TINY_STUDY], [], None, "JSON object"),
    ("study", _TINY_STUDY, [], "abc",
     "malformed environment variable 'EVCOP_THREADS': expected an integer, "
     "got 'abc'"),
    ("study", _TINY_STUDY, ["--workers", "0"], None, "--workers"),
    ("study", {**_TINY_STUDY, "replications": 0}, [], None, "'replications'"),
    ("study", {**_TINY_STUDY, "replications": -3}, [], None, "'replications'"),
    ("study", {**_TINY_STUDY, "sample_sizes": []}, [], None, "'sample_sizes'"),
    ("study", {**_TINY_STUDY, "sample_sizes": [100, 29]}, [], None,
     "'sample_sizes'"),
    ("study", {**_TINY_STUDY, "random_evc": {"count": 0}}, [], None,
     "'random_evc.count'"),
    ("study", {**_TINY_STUDY, "random_evc": {"count": 1, "dim": 0}}, [], None,
     "'random_evc.dim'"),
    ("study", {**_TINY_STUDY, "random_evc": {"count": 1, "dim": 2}}, [], None,
     "'random_evc.dim'"),
    ("study", {**_TINY_STUDY, "fit": {"dim": 3}}, [], None, "'fit.dim'"),
    ("study", {**_TINY_BV, "replications": 0}, [], None, "'replications'"),
    ("study", {**_TINY_BV, "sample_sizes": []}, [], None, "'sample_sizes'"),
    ("study", {**_TINY_BV, "families": [{"family": "gumbel", "theta": 2.0,
                                         "lambda": "x"}]}, [], None,
     "'lambda'"),
    ("study", {**_TINY_STUDY, "seed": -1}, [], None, "'seed'"),
    ("study", {**_TINY_BV, "seed": -3}, [], None, "'seed'"),
    ("study", {**_TINY_STUDY, "random_evc": {"count": 1, "lambda": np.nan}},
     [], None, "'random_evc.lambda'"),
    ("study", {**_TINY_STUDY, "random_evc": {"count": 1, "R": np.inf}},
     [], None, "'random_evc.R'"),
    ("study", {**_TINY_STUDY, "fit": {"lambda": np.nan}}, [], None,
     "'fit.lambda': lam must be finite"),
    ("model", {"theta": [np.nan] * 12}, [], None, "'theta'"),
    ("study", {**_TINY_STUDY, "fit": {"lambda": np.inf}}, [], None,
     "'fit.lambda': lam must be finite and >= 0, got inf"),
    ("study", {**_TINY_STUDY, "fit": {"lambda": -1}}, [], None,
     "'fit.lambda': lam must be finite and >= 0, got -1.0"),
    ("study", {**_TINY_BV, "families": [{"family": "gumbel", "theta": 2.0,
                                         "lambda": np.nan}]}, [], None,
     "'lambda': lam must be finite and >= 0, got nan"),
    ("study", {**_TINY_BV, "families": [{"family": "gumbel", "theta": 2.0,
                                         "lambda": np.inf}]}, [], None,
     "'lambda': lam must be finite and >= 0, got inf"),
    ("study", {**_TINY_BV, "families": [{"family": "gumbel", "theta": 2.0,
                                         "lambda": -1e-5}]}, [], None,
     "'lambda': lam must be finite and >= 0, got -1e-05"),
    ("study", {**_TINY_STUDY, "random_evc": {"count": 1, "lambda": -1}},
     [], None, "'random_evc.lambda': lam must be finite and >= 0, got -1.0"),
    ("study", {**_TINY_STUDY, "random_evc": {"count": 1, "R": 0}},
     [], None, "'random_evc.R': R must be finite and > 0, got 0.0"),
    ("study", {**_TINY_STUDY, "random_evc": {"count": 1, "R": -2}},
     [], None, "'random_evc.R': R must be finite and > 0, got -2.0"),
    ("study", {**_TINY_STUDY, "fit": {"dim": 13.7}}, [], None,
     "'fit.dim': expected an integer, got 13.7"),
    ("study", {**_TINY_STUDY, "seed": 1.9}, [], None,
     "'seed': expected an integer, got 1.9"),
    ("study", {**_TINY_STUDY, "replications": True}, [], None,
     "'replications': expected an integer, got True"),
    ("study", {**_TINY_STUDY, "sample_sizes": [100, 250.5]}, [], None,
     "'sample_sizes': expected an integer, got 250.5"),
    ("model", {"degree": 3.7}, [], None, "'degree': expected an integer"),
    ("model", {"degree": True}, [], None, "'degree': expected an integer"),
    ("study", {**_TINY_STUDY, "fit": {"lambda": True}}, [], None,
     "'fit.lambda': expected a number, got True"),
    ("study", {**_TINY_BV, "families": [{"family": "gumbel", "theta": True}]},
     [], None, "'theta': expected a number, got True"),
    ("study", {**_TINY_STUDY, "random_evc": {"count": 1, "R": True}},
     [], None, "'random_evc.R': expected a number, got True"),
    ("model", {"survival": "false"}, [], None,
     "'survival': expected true or false, got 'false'"),
    ("model", {"symmetrized": "no"}, [], None,
     "'symmetrized': expected true or false, got 'no'"),
    ("model", {"lambda": np.nan}, [], None,
     "'lambda': lam must be finite and >= 0, got nan"),
    ("model", {"lambda": -1}, [], None,
     "'lambda': lam must be finite and >= 0, got -1.0"),
    ("model", {"theta": [True] * 12}, [], None,
     "'theta': expected a number, got True"),
    ("study", _TINY_STUDY, [], "0", "EVCOP_THREADS must be >= 1, got 0"),
    ("study", _TINY_STUDY, [], "-2", "EVCOP_THREADS must be >= 1, got -2"),
    ("study", {**_TINY_STUDY, "fit": {"lambda": "x"}}, [], None,
     "malformed field 'fit.lambda': expected a number, got 'x'"),
], ids=["model-lambda", "model-diagnostics", "model-flipped", "model-knots",
        "spec-seed", "spec-list", "env-threads", "workers-0",
        "spec-replications-0", "spec-replications-negative",
        "spec-sizes-empty", "spec-size-below-30", "spec-count-0",
        "spec-random-dim-0", "spec-random-dim-2", "spec-fit-dim-3",
        "bias-variance-replications-0", "bias-variance-sizes-empty",
        "bias-variance-family-lambda", "spec-seed-negative",
        "bias-variance-seed-negative", "spec-prior-lambda-nan",
        "spec-prior-radius-inf", "spec-fit-lambda-nan", "model-theta-nan",
        "spec-fit-lambda-inf", "spec-fit-lambda-negative",
        "bias-variance-family-lambda-nan", "bias-variance-family-lambda-inf",
        "bias-variance-family-lambda-negative", "spec-prior-lambda-negative",
        "spec-prior-radius-0", "spec-prior-radius-negative",
        "spec-fit-dim-fractional", "spec-seed-fractional",
        "spec-replications-boolean", "spec-size-fractional",
        "model-degree-fractional", "model-degree-boolean",
        "spec-fit-lambda-boolean", "bias-variance-family-theta-boolean",
        "spec-prior-radius-boolean", "model-survival-string",
        "model-symmetrized-string", "model-lambda-nan", "model-lambda-negative",
        "model-theta-boolean", "env-threads-0", "env-threads-negative",
        "spec-fit-lambda-string"])
def test_outside_input_exits_2_naming_the_field(
        tmp_path, monkeypatch, capsys, gumbel2_fit, kind, doc, extra,
        threads, named):
    if kind == "model":
        doc = {**model_to_dict(gumbel2_fit), **doc}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    monkeypatch.delenv("EVCOP_THREADS", raising=False)
    if threads is not None:
        monkeypatch.setenv("EVCOP_THREADS", threads)
    argv = (["evaluate", str(path)] if kind == "model" else
            ["study", str(path), "-o", str(tmp_path / "runs.csv"), *extra])
    assert main(argv) == 2
    assert named in capsys.readouterr().err


_SCIPY_PROBE = """
import sys

def scipy_modules():
    found = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
    return sorted(found)[:5]

model, csv, masses, spec, out = sys.argv[1:]
import evcop
assert not scipy_modules(), ("import evcop", scipy_modules())
import evcop.cli
evcop.cli.build_parser().format_help()
assert not scipy_modules(), ("import evcop.cli", scipy_modules())
for argv in (["evaluate", model, "--table", out + "-table.csv"],
             ["simulate", model, "-n", "1000", "-o", out],
             ["fit", csv, "-o", out], ["fit", csv, "-o", out, "--pseudo"],
             ["joint", masses, "-o", out + "-joint", "--margin-dim", "9",
              "--samples", "60"],
             ["evaluate", out + "-joint/copula.json", "--table", out + "-jt.csv"],
             ["study", spec, "-o", out, "--workers", "1"]):
    assert evcop.cli.main(argv) == 0
    assert not scipy_modules(), (argv, scipy_modules())
"""


def test_commands_import_no_scipy(tmp_path, gumbel2, gumbel2_fit, gumbel_csv):
    # start-up, help, evaluate (with its A, A', A'' table), simulate, fit
    # (plain and on ranks), joint, evaluate of the joint's symmetrized model
    # and a Gumbel, Galambos and Khoudraji-Gumbel bias-variance study run on
    # numpy alone
    model = tmp_path / "model.json"
    model.write_text(json.dumps(model_to_dict(gumbel2_fit)))
    m = np.exp(1.0 + gumbel2.simulate(50, seed=12))
    masses = tmp_path / "masses.csv"
    write_pairs(masses, np.column_stack([m.max(axis=1), m.min(axis=1)]))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**_TINY_BV, "replications": 2, "families": [
        {"family": "gumbel", "theta": 2.0},
        {"family": "galambos", "theta": 1.0},
        {"family": "gumbel", "theta": 2.0, "alpha": 0.5}]}))
    src = str(Path(__import__("evcop").__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(model), gumbel_csv,
         str(masses), str(spec), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr


_POOL_PROBE = """
import sys
import evcop.cli
evcop.cli.build_parser().format_help()
assert evcop.cli.main(["fit", sys.argv[1], "-o", sys.argv[2]]) == 0
print(sorted(m for m in sys.modules if m == "multiprocessing"
             or m.startswith("multiprocessing.")
             or m == "concurrent.futures.process"))
"""


def test_start_up_and_fit_import_no_process_pool(tmp_path, gumbel_csv):
    # only a study on more than one worker needs the process pool, and
    # multiprocessing with its sockets is ~15 ms of every command's start-up
    src = str(Path(__import__("evcop").__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _POOL_PROBE, gumbel_csv,
         str(tmp_path / "model.json")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_joint_pipeline_properties(gumbel2):
    m = np.exp(1.0 + 1.2 * gumbel2.simulate(50, seed=10))
    data = np.column_stack([np.max(m, axis=1), np.min(m, axis=1)])
    margin, fitted, final, joint, doubled = joint_pipeline(
        data, margin_dim=9, n_samples=120, seed=3)
    # duplicated sample is exchangeable as a multiset of rows
    swapped = {tuple(r) for r in doubled[:, ::-1]}
    assert {tuple(r) for r in doubled} == swapped
    # output ordering restored
    assert np.all(joint[:, 0] >= joint[:, 1])
    # symmetrized Pickands is symmetric
    t = np.linspace(0, 1, 101)
    sym = final.pickands
    assert np.max(np.abs(sym(t) - sym(1.0 - t))) <= 1e-10


def test_joint_pipeline_ranks_tied_masses_by_average(gumbel2):
    from scipy.stats import rankdata

    m = np.round(np.exp(1.0 + gumbel2.simulate(60, seed=10)), 1)
    data = np.column_stack([np.max(m, axis=1), np.min(m, axis=1)])
    _, fitted, _, _, doubled = joint_pipeline(data, margin_dim=9,
                                              n_samples=10, seed=3)
    assert np.unique(doubled[:, 0]).size < doubled.shape[0] // 2
    ranks = rankdata(doubled, axis=0) / (doubled.shape[0] + 1.0)
    expected = optimize(z_transform(1.0 - ranks),
                        FitConfig(basis_dim=13, lam=1e-5))
    assert np.array_equal(fitted.theta, expected.theta)


def test_joint_rejects_unordered():
    with pytest.raises(InputError):
        joint_pipeline(np.array([[1.0, 2.0], [3.0, 1.0]]))


@pytest.mark.parametrize("rows,extra,named", [
    ([[1.0, 2.0]] + [[3.0, 1.0]] * 40, [], "col1 >= col2"),
    ([[3.0 + 0.01 * i, 1.0] for i in range(40)], ["--bounds", "0", "3.2"],
     "inside the bounds"),
], ids=["unordered", "outside-bounds"])
def test_joint_bad_data_makes_no_output_directory(tmp_path, capsys, rows,
                                                  extra, named):
    path = tmp_path / "masses.csv"
    write_pairs(path, np.asarray(rows), header="m1,m2")
    outdir = str(tmp_path / "jout")
    assert main(["joint", str(path), "-o", outdir, *extra]) == 2
    assert named in capsys.readouterr().err
    assert not os.path.exists(outdir)


def test_joint_command(tmp_path, gumbel2, capsys):
    m = np.exp(1.0 + gumbel2.simulate(50, seed=12))
    data = np.column_stack([np.max(m, axis=1), np.min(m, axis=1)])
    path = tmp_path / "masses.csv"
    write_pairs(path, data, header="m1,m2")
    outdir = str(tmp_path / "jout")
    rc = main(["joint", str(path), "-o", outdir, "--margin-dim", "9",
               "--samples", "60", "--seed", "4"])
    assert rc == 0
    capsys.readouterr()
    for name in ("margin.json", "copula.json", "joint_sample.csv"):
        assert os.path.exists(os.path.join(outdir, name))
    sample = read_pairs(os.path.join(outdir, "joint_sample.csv"))
    assert sample.shape == (60, 2)
    assert np.all(sample[:, 0] >= sample[:, 1])
    with open(os.path.join(outdir, "copula.json")) as fh:
        doc = json.load(fh)
    assert doc["survival"] is True and doc["symmetrized"] is True

"""Constants built once at first use: the quadrature rules, the tabulation
grid and its Williamson kernel, and each basis's table of spline pieces.
Each is shared read-only, gives the values of a fresh build, and is not
built at import time."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import evcop._quad as quad
import evcop.copula
from evcop.bayes import mass_rule
from evcop.copula import EvCopula, tvd_copulas
from evcop.fit import default_random_basis, random_pickands
from evcop.splinebasis import ZBasis, eval_basis, project_center
from evcop.williamson import default_kernel, default_w_nodes

SRC = Path(__file__).resolve().parents[1] / "src"

# every functools cache in the package, by module and name
_LIST_CACHES = """
import importlib, json, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import evcop.cli
evcop.cli.build_parser()
import evcop
sizes = {}
for info in pkgutil.iter_modules(evcop.__path__):
    mod = importlib.import_module("evcop." + info.name)
    for name, obj in vars(mod).items():
        if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__:
            sizes[mod.__name__ + "." + name] = obj.cache_info().currsize
print(json.dumps(sizes))
"""


def test_start_up_builds_no_cached_constant():
    # the start-up every command pays (import and parser) leaves each cache
    # empty: the constants are built by the first command that reads them
    out = subprocess.run([sys.executable, "-c", _LIST_CACHES, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=120)
    sizes = json.loads(out.stdout)
    assert {"evcop._quad._legendre", "evcop._quad.gauss_square",
            "evcop.copula._tvd_tables", "evcop.bayes.mass_rule",
            "evcop.williamson.default_w_nodes",
            "evcop.williamson.default_kernel"} <= set(sizes)
    assert sizes == dict.fromkeys(sizes, 0)


def test_cached_arrays_are_read_only():
    arrays = [*quad._legendre(8), *quad.gauss_square(1e-4, 96),
              *evcop.copula._tvd_tables(), *mass_rule(), default_w_nodes(),
              default_kernel().x,
              default_kernel().nodes, default_kernel()._weights,
              default_random_basis()._pieces,
              project_center(default_random_basis())]
    # read the flag: a write test would corrupt a writable shared array
    # for every later test of the session
    assert [i for i, a in enumerate(arrays) if a.flags.writeable] == []


@pytest.fixture(scope="module")
def copulas():
    return [EvCopula(a) for a in random_pickands(1e-4, 5, 2, seed=3)]


def test_tvd_with_the_cached_rule_equals_a_fresh_one(copulas, monkeypatch):
    cached = tvd_copulas(*copulas)
    tables = evcop.copula._tvd_tables
    fresh = tables.__wrapped__()
    assert all(np.array_equal(a, b) for a, b in zip(tables(), fresh, strict=True))
    monkeypatch.setattr(quad, "_legendre", quad._legendre.__wrapped__)
    monkeypatch.setattr(evcop.copula, "_tvd_tables", tables.__wrapped__)
    assert tvd_copulas(*copulas) == cached


def test_tvd_builds_the_legendre_rule_once(copulas, monkeypatch):
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counted(npts):
        calls.append(npts)
        return leggauss(npts)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    quad._legendre.cache_clear()
    evcop.copula._tvd_tables.cache_clear()
    tvd_copulas(*copulas)
    tvd_copulas(*copulas)
    assert calls == [evcop.copula._TVD_ORDER]
    assert evcop.copula._tvd_tables.cache_info().misses == 1


def test_random_models_read_their_splines_from_one_table(monkeypatch):
    # the basis builds its table of spline pieces once, for every draw; no
    # density reads the basis through a dense design
    basis = default_random_basis()
    prop = ZBasis.__dict__["_pieces"]
    builds, designs = [], []
    build = prop.func
    monkeypatch.setattr(prop, "func",
                        lambda b: builds.append(b) or build(b))
    monkeypatch.setattr(ZBasis, "evaluate",
                        lambda b, *a, **k: designs.append(b) or eval_basis(b, *a, **k))
    models = random_pickands(1e-4, 5, 4, seed=12, basis=basis)
    assert len(models) == 4
    assert len(builds) == 1 and builds[0] is basis
    assert designs == []

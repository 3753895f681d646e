import ast
import importlib
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import iskak
from iskak.operators import IkState
from iskak.spectral import PeriodicGrid, RealField
from iskak.waterwave import WwState

from conftest import zeros

MODULES = ["iskak"] + [f"iskak.{m.name}" for m in pkgutil.iter_modules(iskak.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    # a name removed from a module but left in its __all__ breaks star imports
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_cross_module_imports_are_exported():
    # a name one module takes from another is part of that module's public
    # surface, so it is listed in its __all__ where the module keeps one
    found = []
    for path in sorted(pathlib.Path(iskak.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                exported = getattr(importlib.import_module(f"iskak.{node.module}"),
                                   "__all__", None)
                if exported is not None:
                    found += [f"{path.name}: {node.module}.{a.name}"
                              for a in node.names if a.name not in exported]
    assert not found


def test_no_module_imports_another_modules_private_names():
    # modules share only public names, so a private helper can be reshaped
    # by its owner alone
    found = []
    for path in sorted(pathlib.Path(iskak.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "iskak"):
                found += [f"{path.name}: {node.module}.{a.name}"
                          for a in node.names if a.name.startswith("_")]
    assert not found


def test_no_module_reads_the_environment():
    # a run is set by its config and arguments alone: no tuning switch
    # hides in an environment variable
    found = []
    for path in sorted(pathlib.Path(iskak.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                found.append(f"{path.name}:{node.lineno} os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{path.name}:{node.lineno} from os import {a.name}"
                          for a in node.names if a.name in ("environ", "getenv")]
    assert not found


def test_runtime_dependencies_match_src_imports():
    # pyproject.toml lists exactly the third-party packages that src imports,
    # imports inside functions included
    import tomllib    # Python >= 3.11; the other tests here run on 3.10 too
    root = pathlib.Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        declared = {re.match(r"[A-Za-z0-9_.-]+", d).group()
                    for d in tomllib.load(fh)["project"]["dependencies"]}
    imported = set()
    for path in sorted(pathlib.Path(iskak.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {a.name.partition(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"iskak"}
    assert third_party == declared == {"numpy"}


def test_benchmark_span_points_resolve():
    # the benchmark spans the layers by replacing names in src (SPAN_POINTS
    # of benchmarks/tracing.py); a rename in src must fail here, not only in
    # a traced benchmark run.  The file is parsed, not imported.
    tracing = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    tree = ast.parse(tracing.read_text(encoding="utf-8"))
    node = next(n for n in tree.body if isinstance(n, ast.Assign)
                and getattr(n.targets[0], "id", None) == "SPAN_POINTS")
    points = [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
    assert points
    missing = []
    for owner, attr in points:
        module, _, cls = owner.partition(":")
        obj = importlib.import_module(module)
        obj = getattr(obj, cls, None) if cls else obj
        if obj is None or attr not in vars(obj):
            missing.append(f"{owner}.{attr}")
    assert not missing


def test_state_fields_are_instance_realfields():
    # benchmarks/worker.py checks a run's final state finite by reading the
    # RealFields in vars(state); fields served by properties would leave it
    # nothing to read, and the check would pass whatever the values
    grid = PeriodicGrid(16)
    for cls in (IkState, WwState):
        s = cls(*(zeros(grid) for _ in cls.FIELDS), 0.3)
        held = {n for n, v in vars(s).items() if isinstance(v, RealField)}
        assert held >= set(cls.FIELDS)


EVERY_KIND_OF_RUN = """
import sys
import iskak.cli
from iskak.config import apply_overrides, default_config
from iskak.experiments import run_experiment
short = ["n_points=64", "t_end=0.05", "dt=0.005", "record_every=5"]
for name, overrides in (("simulate", short), ("simulate", short + ["model=ww"]),
                        ("consistency", ["n_points=64"]),
                        ("elliptic-suite", ["n_points=64"]),
                        ("dispersion", []),
                        ("convergence", ["n_points=32", "t_end=0.05", "dt=0.005",
                                         "record_every=2", "amplitude=0.2"]),
                        ("conservation", ["n_points=64", "t_end=0.02", "dt=0.005"])):
    report = run_experiment(apply_overrides(default_config(name), overrides))
    if name == "convergence":
        # all three slopes fitted, at 1, 2 and 3 degrees of freedom
        assert sorted(s.n_used for s in report.slopes) == [3, 4, 5], report.slopes
print(" ".join(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"
                      or m.startswith("numpy.polynomial"))))
"""


def test_no_run_loads_scipy():
    # every experiment, slope fits included, runs on numpy and the standard
    # library alone; scipy is an oracle of the tests only.  Nor does a run
    # load numpy.polynomial: the strip quadrature builds its own Chebyshev
    # Vandermonde matrix
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(iskak.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", EVERY_KIND_OF_RUN], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == []

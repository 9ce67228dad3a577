"""Export lists: every exported name exists, and the package re-exports
only names its modules declare, so a deleted name cannot linger."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conetrace

PACKAGE = Path(conetrace.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _package_imports():
    """(module, name) for each name `__init__` imports by name."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [(node.module, alias.name)
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names if alias.name != "*"]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist(module):
    mod = importlib.import_module(f"conetrace.{module}")
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert missing == []


def test_package_imports_are_exported():
    imports = _package_imports()
    assert imports
    undeclared = [f"{module}.{name}" for module, name in imports
                  if name not in importlib.import_module(
                      f"conetrace.{module}").__all__]
    assert undeclared == []


def _run_fresh(code):
    path = [str(PACKAGE.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_verify_import_builds_nothing():
    # the registry builds its surfaces, geodesics and mode sums, and the
    # package its quadrature rules, when a computation runs, not when
    # conetrace.verify or conetrace.cli is imported
    code = "\n".join([
        "import numpy.polynomial.laguerre as laguerre",
        "rules = []",
        "laggauss = laguerre.laggauss",
        "laguerre.laggauss = lambda n: rules.append(n) or laggauss(n)",
        "import conetrace",
        "from conetrace import conekernel, geodesics, quadrature, surfaces",
        "built = []",
        "def count(cls):",
        "    init = cls.__init__",
        "    def counted(self, *a, **kw):",
        "        built.append(cls.__name__)",
        "        init(self, *a, **kw)",
        "    cls.__init__ = counted",
        "count(surfaces.Surface); count(geodesics.GeodesicPath)",
        "import conetrace.verify, conetrace.cli",
        "assert conekernel._mode_data.cache_info().currsize == 0",
        "assert quadrature.gauss_legendre.cache_info().currsize == 0",
        "assert quadrature.gauss_laguerre.cache_info().currsize == 0",
        "assert rules == [], rules",
        "print(len(built))",
    ])
    run = _run_fresh(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "0"


def test_import_leaves_sympy_unloaded(tmp_path):
    # every surface the package builds is a closed form: sympy stays
    # unloaded through the import, both builtin builds and a prediction,
    # and the retired sympy-built cone chart and the spindle alias are
    # not exported
    config = tmp_path / "spindle.json"
    config.write_text(json.dumps({
        "surface": {"builtin": "perturbed_spindle"},
        "tip_sequence": ["south", "north"],
        "seeds": [0.6040486225480862, 2.930243112740431],
    }))
    code = "\n".join([
        "import sys, conetrace, conetrace.cli",
        "assert 'sympy' not in sys.modules, 'loaded by the import'",
        "conetrace.perturbed_spindle(); conetrace.teardrop()",
        "assert 'sympy' not in sys.modules, 'loaded by a builtin build'",
        f"argv = ['predict-trace', '--config', {str(config)!r},",
        f"        '--out', {str(tmp_path / 'spindle.csv')!r}]",
        "assert conetrace.cli.main(argv) == 0",
        "assert 'sympy' not in sys.modules, 'loaded by predict-trace'",
        "print(sorted({'cone_chart_surface', 'symmetric_spindle'}",
        "             & set(dir(conetrace))))",
    ])
    run = _run_fresh(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_import_leaves_scipy_integrate_and_optimize_unloaded():
    # the geodesic flow, the Jacobi solves and their root finding run on
    # conetrace.ode
    code = "\n".join([
        "import sys, conetrace.cli",
        "print(sorted(m for m in sys.modules",
        "             if m.split('.')[:2] in (['scipy', 'integrate'], ['scipy', 'optimize'])))",
    ])
    run = _run_fresh(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_import_leaves_scipy_special_unloaded():
    # the Legendre rules, log-gamma, erf and digamma are the package's
    # own; the Bessel zeros are counted on the Ikebe matrix by numpy, so
    # scipy.linalg stays unloaded too
    code = "\n".join([
        "import sys, conetrace.cli",
        "assert 'scipy.linalg' not in sys.modules",
        "print(sorted(m for m in sys.modules",
        "             if m.split('.')[:2] == ['scipy', 'special']))",
    ])
    run = _run_fresh(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_front_suite_leaves_scipy_unloaded():
    # criterion 3 builds two cone mode sums cold, each finding its Bessel
    # zeros in one batch, and loads no scipy module on the way
    code = "\n".join([
        "import contextlib, io, sys",
        "from conetrace import cli, conekernel",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = cli.main(['verify', '--suite', 'front'])",
        "assert code == 0, code",
        "assert conekernel._mode_data.cache_info().misses == 2",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    run = _run_fresh(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_runs_leave_numpy_ma_unloaded(tmp_path):
    # np.unique without return_* and np.median load numpy.ma (8-13 ms in
    # a fresh process); a cold cone mode build, the quick suites and a
    # prediction run without it
    config = tmp_path / "spindle.json"
    config.write_text(json.dumps({
        "surface": {"builtin": "perturbed_spindle"},
        "tip_sequence": ["south", "north"],
        "seeds": [0.6040486225480862, 2.930243112740431],
    }))
    code = "\n".join([
        "import contextlib, io, math, sys",
        "from conetrace import cli, conekernel",
        "assert 'numpy.ma' not in sys.modules, 'loaded by the import'",
        "conekernel.flat_cone_sine_kernel_series(",
        "    1.5 * math.pi, 2.0, 1.0, 0.5, math.pi / 3, 0.5, 0.0, damping=30.0)",
        "assert conekernel._mode_data.cache_info().misses == 1",
        "assert 'numpy.ma' not in sys.modules, 'loaded by a cone mode build'",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert cli.main(['verify', '--suite', 'all']) == 0",
        "assert 'numpy.ma' not in sys.modules, 'loaded by verify --suite all'",
        f"argv = ['predict-trace', '--config', {str(config)!r},",
        f"        '--out', {str(tmp_path / 'spindle.csv')!r}]",
        "assert cli.main(argv) == 0",
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))",
    ])
    run = _run_fresh(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"

"""Export lists: every exported name exists, and the package re-exports
only names its modules declare, so a deleted name cannot linger."""

import ast
import importlib
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
    # the registry builds its surfaces, geodesics and mode sums when a
    # criterion runs, not when conetrace.verify is imported
    code = "\n".join([
        "import conetrace",
        "from conetrace import conekernel, geodesics, surfaces",
        "built = []",
        "def count(cls):",
        "    init = cls.__init__",
        "    def counted(self, *a, **kw):",
        "        built.append(cls.__name__)",
        "        init(self, *a, **kw)",
        "    cls.__init__ = counted",
        "count(surfaces.Surface); count(geodesics.GeodesicPath)",
        "import conetrace.verify",
        "assert conekernel._mode_data.cache_info().currsize == 0",
        "print(len(built))",
    ])
    run = _run_fresh(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "0"


def test_import_leaves_sympy_unloaded():
    # the builtin surfaces are closed forms; only a cone_chart build,
    # which differentiates a user expression, loads sympy
    code = "\n".join([
        "import sys, conetrace, conetrace.cli",
        "assert 'sympy' not in sys.modules, 'loaded by the import'",
        "conetrace.perturbed_spindle(); conetrace.teardrop()",
        "assert 'sympy' not in sys.modules, 'loaded by a builtin build'",
        "tip = conetrace.cone_chart_surface('1.2*(1+p0)**0.5').tips['tip']",
        "assert 'sympy' in sys.modules",
        "print(tip.c1)",
    ])
    run = _run_fresh(code)
    assert run.returncode == 0, run.stderr
    assert float(run.stdout) == pytest.approx(0.5)

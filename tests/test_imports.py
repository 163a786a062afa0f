"""Import hygiene: what a fresh ``repro`` interpreter loads before it works.

Every cold CLI command, spawned SPMD rank and pool worker pays for its
imports, so the package ``__init__``s are lazy (PEP 562, see
:mod:`repro._lazy`) and ``scipy.stats`` is imported only inside the
functions that use it.  The checks run in fresh interpreters, because this
one imported everything long ago.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

PACKAGES = (
    "repro",
    "repro.clustering",
    "repro.core",
    "repro.expression",
    "repro.graph",
    "repro.ontology",
    "repro.parallel",
    "repro.pipeline",
    "repro.serve",
)

#: The analysis stack, which a spawned worker's entry module must not load.
ANALYSIS = ("repro.expression", "repro.ontology", "repro.clustering", "repro.pipeline", "repro.serve")

#: Modules only some CLI commands need; ``repro datasets`` must not load them.
COMMAND_ONLY = (
    "repro.ontology",
    "repro.clustering",
    "repro.serve",
    "repro.pipeline.batch",
    "repro.pipeline.experiments",
    "repro.pipeline.workflow",
)


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter on this checkout; return its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(code: str) -> set[str]:
    """The names in ``sys.modules`` once a fresh interpreter has run ``code``."""
    out = run_fresh(f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))")
    return set(json.loads(out.splitlines()[-1]))


def within(package: str, modules: set[str]) -> list[str]:
    """The modules of ``package`` (itself included) among ``modules``."""
    return sorted(m for m in modules if m == package or m.startswith(package + "."))


@pytest.mark.parametrize("module", ["repro.cli", "repro.parallel.runner"])
def test_scipy_stats_stays_off_the_import_path(module):
    assert within("scipy.stats", loaded_after(f"import {module}")) == []


def test_worker_entry_module_loads_no_scipy_and_no_analysis_stack():
    loaded = loaded_after("import repro.parallel.runner")
    assert within("scipy", loaded) == []
    for package in ANALYSIS:
        assert within(package, loaded) == [], package


def test_datasets_command_loads_no_command_only_modules():
    loaded = loaded_after("from repro.cli import main\nmain(['datasets', '--scale', '0.02'])")
    for module in COMMAND_ONLY:
        assert within(module, loaded) == [], module


@pytest.mark.parametrize("package", PACKAGES)
def test_public_names_are_listed_and_resolve(package):
    # dir() is read before any name resolves, so the lazy __dir__ must list them.
    code = (
        f"import {package} as pkg\n"
        "unlisted = sorted(set(pkg.__all__) - set(dir(pkg)))\n"
        "for name in pkg.__all__:\n"
        "    getattr(pkg, name)\n"
        "print(unlisted)\n"
    )
    assert run_fresh(code).strip() == "[]"


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_attribute_raises(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")


def test_no_kernel_tier_package_or_exports():
    # One implementation per hot loop: there is no tier registry to import.
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.kernels")
    assert [name for name in repro.__all__ if "kernel" in name] == []

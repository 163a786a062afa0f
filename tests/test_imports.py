"""Import hygiene: what a fresh ``repro`` interpreter loads before it works.

Every cold CLI command, spawned SPMD rank and pool worker pays for its
imports, so the package ``__init__``s are lazy (PEP 562, see
:mod:`repro._lazy`) and ``scipy.stats`` is imported only inside the
functions that use it; a cold ``repro analyze`` loads no ``scipy`` at
all.  The checks run in fresh interpreters, because this one imported
everything long ago.
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


@pytest.mark.parametrize(
    "module",
    ["repro.parallel", "repro.parallel.comm", "repro.parallel.runner", "repro.parallel.sock"],
)
def test_process_transport_loads_no_arena_and_no_numpy(module):
    # Rank payloads travel pickled: the runner, the worker hub and the
    # communicators never touch the arena module, so a worker's bring-up
    # imports no numpy.
    loaded = loaded_after(f"import {module}")
    for name in ("repro.parallel.shm", "multiprocessing.shared_memory", "numpy"):
        assert within(name, loaded) == [], name


def test_arena_module_keeps_only_the_leak_counter():
    from repro.parallel import shm

    assert shm.__all__ == ["open_segment_count"]
    assert shm.open_segment_count() == 0


def test_parallel_package_exports_exactly_the_runtime():
    import repro.parallel

    assert sorted(repro.parallel.__all__) == sorted(
        [
            "SimComm", "SimCommWorld", "CommStats", "ANY_SOURCE", "ANY_TAG",
            "run_spmd", "parallel_map", "available_backends", "shutdown_worker_pool",
            "worker_pool_size", "DeadRankError", "SupervisionPolicy", "configure_supervision",
            "supervision_policy", "supervision_counters",
            "pop_supervision_events", "RankResult", "SpmdReport", "CostModel", "RankWork",
            "speedup", "efficiency", "rank_rngs", "derive_seed",
        ]
    )
    for name in repro.parallel.__all__:
        assert getattr(repro.parallel, name) is not None, name


def test_analyze_command_loads_no_scipy():
    # The p-value criterion folds into the 0.95 cut-off in closed form.
    loaded = loaded_after(
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['analyze', '--dataset', 'CRE', '--scale', '0.05', '--json'])"
    )
    assert within("scipy", loaded) == []


def test_datasets_command_loads_no_command_only_modules():
    loaded = loaded_after("from repro.cli import main\nmain(['datasets', '--scale', '0.02'])")
    for module in COMMAND_ONLY:
        assert within(module, loaded) == [], module


@pytest.mark.parametrize("package", PACKAGES)
def test_public_names_resolve(package):
    code = (
        f"import {package} as pkg\n"
        "for name in pkg.__all__:\n"
        "    getattr(pkg, name)\n"
        "print('ok')\n"
    )
    assert run_fresh(code).strip() == "ok"


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


def test_enrichment_scoring_loads_no_parallel_layer():
    # The scorer is serial and its term distances come from the DAG's term
    # index: scoring a cluster set must not pull in the SPMD runtime.
    loaded = loaded_after(
        "import numpy as np\n"
        "from repro.clustering.cluster import Cluster\n"
        "from repro.graph import CSRGraph\n"
        "from repro.ontology import AnnotationTable, EnrichmentScorer, GODag\n"
        "dag = GODag()\n"
        "dag.add_term('A', [dag.root_id])\n"
        "dag.add_term('B', [dag.root_id])\n"
        "dag.add_term('A1', ['A'])\n"
        "dag.add_term('AB', ['A', 'B'])\n"
        "table = AnnotationTable(dag, {'g1': ['A1'], 'g2': ['AB'], 'g3': ['B', 'A1']})\n"
        "csr = CSRGraph.from_edge_arrays(['g1', 'g2', 'g3'], [0, 1, 0], [1, 2, 2])\n"
        "clusters = [Cluster.from_indices(0, csr, np.arange(3), np.array([[0, 1], [1, 2]]), 4.0, 0),\n"
        "            Cluster.from_indices(1, csr, np.array([0, 2]), np.array([[0, 2]]), 3.0, 0)]\n"
        "scores = EnrichmentScorer(dag, table).score_cluster_graphs(clusters)\n"
        "assert scores.n_edges.tolist() == [2, 1]\n"
        "assert dag.term_distance('A1', 'B') == 3\n"
    )
    assert within("repro.parallel", loaded) == []

"""The rules ``benchmarks/reachability.py --check`` applies to each keep-list entry.

Fed a synthetic checkout and keep list, so no trace runs: every refusal of
:func:`entry_errors` is covered once, beside the entries it must accept.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "reachability.py"
_spec = importlib.util.spec_from_file_location("reachability", _SCRIPT)
reachability = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reachability)

KEEP_LIST = """\
# a comment line
repro.mod:Thing.used          public     # examples/demo.py calls it
repro.mod:Thing.__len__       public     # len() on a Thing in examples/demo.py
repro.mod:Thing.step          public     # paper: the step of Section IV
repro.mod:reference_body      oracle     # seed body a test pins the kernel against
repro.faults:FaultPlan.fail   harness    # fault plans the chaos tests install
repro.graph.generators:path_graph harness # kernel pin input
repro.mod:Thing.gone          blind-spot # worker process
repro.mod:Thing.vague         public     # Thing (repro.__all__)
repro.mod:Thing.test_only     public     # tests/test_mod.py calls it
repro.mod:Thing.elsewhere     public     # examples/demo.py calls it
repro.mod:Thing.self_named    public     # src/repro/mod.py defines it
repro.mod:helper              harness    # a test helper
repro.mod:Thing.odd           kept       # no such tag
"""

ACCEPTED = [
    "repro.mod:Thing.used",
    "repro.mod:Thing.__len__",
    "repro.mod:Thing.step",
    "repro.mod:reference_body",
    "repro.faults:FaultPlan.fail",
    "repro.graph.generators:path_graph",
    "repro.mod:Thing.gone",
]

REFUSED = {
    "repro.mod:Thing.vague": "names no caller file",
    "repro.mod:Thing.test_only": "names no caller file",
    "repro.mod:Thing.elsewhere": "does not mention 'elsewhere'",
    "repro.mod:Thing.self_named": "names no caller file",
    "repro.mod:helper": "harness outside",
    "repro.mod:Thing.odd": "unknown tag 'kept'",
}


@pytest.fixture
def checkout(tmp_path: Path) -> Path:
    files = {
        "examples/demo.py": "thing = Thing()\nthing.used()\nprint(len(thing))\n",
        "tests/test_mod.py": "Thing().test_only()\n",
        "src/repro/mod.py": "class Thing:\n    def self_named(self): ...\n",
    }
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return tmp_path


def test_keep_list_parses_tag_and_reason():
    kept = reachability.read_kept(KEEP_LIST)
    assert kept["repro.mod:Thing.step"] == ("public", "paper: the step of Section IV")
    assert len(kept) == len(ACCEPTED) + len(REFUSED)


@pytest.mark.parametrize("name", ACCEPTED)
def test_entry_that_keeps_its_rule_passes(checkout, name):
    tag, reason = reachability.read_kept(KEEP_LIST)[name]
    assert reachability.entry_errors(name, tag, reason, checkout) == []


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_entry_that_breaks_its_rule_is_refused(checkout, name):
    tag, reason = reachability.read_kept(KEEP_LIST)[name]
    (error,) = reachability.entry_errors(name, tag, reason, checkout)
    assert error.startswith(name) and REFUSED[name] in error

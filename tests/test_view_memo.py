"""The CSR view memo: what a sweep of filter specs computes once per network.

``CSRGraph.memo`` keeps the spec-independent layers of the parallel filters
(label sort ranks, orderings by name, partitions and the with-communication
border lists by partitioner, ``P`` and ordering name, the payload's label
names).  These tests pin that each is built once per view, that a new view
starts empty, that entries are read-only and safe under concurrent specs,
and that runs with an explicit order or partition keep no entry under the
names they were given.
"""

from __future__ import annotations

import json
import threading
from collections import Counter

import numpy as np
import pytest

import repro.graph.ordering as ordering_module
from repro.core.sampling import apply_filter
from repro.expression import make_study
from repro.graph import CSRGraph
from repro.graph.csr import MEMO_ENTRIES
from repro.pipeline.workflow import filter_payload

ORDERINGS = ("natural", "high_degree", "low_degree", "rcm")
METHODS = ("chordal", "chordal_comm")
SPECS = [(o, m) for o in ORDERINGS for m in METHODS]


@pytest.fixture(scope="module")
def network_arrays():
    csr = make_study("CRE", scale=0.05).network_csr()
    return csr.indptr, csr.indices, csr.labels


def fresh_csr(network_arrays) -> CSRGraph:
    return CSRGraph(*network_arrays)


def network_view(csr):
    return csr.indptr, csr.indices, csr.labels


def payload_bytes(result) -> bytes:
    payload = filter_payload(result, include_edges=True)
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def run(csr, ordering, method, **kwargs):
    return apply_filter(
        csr, method=method, ordering=ordering, n_partitions=2, backend="serial", **kwargs
    )


def memo_arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from memo_arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from memo_arrays(item)


class TestBuildOnce:
    def test_sweep_builds_each_rank_array_and_ordering_once(self, network_arrays, monkeypatch):
        rank_builds: Counter = Counter()
        ordering_builds: Counter = Counter()
        sort_ranks = ordering_module._sort_ranks

        def counting_sort_ranks(labels, key):
            rank_builds[key.__name__] += 1
            return sort_ranks(labels, key)

        monkeypatch.setattr(ordering_module, "_sort_ranks", counting_sort_ranks)
        for name, fn in list(ordering_module.ORDERING_INDEX_FNS.items()):

            def counting(csr, _fn=fn, _name=name):
                ordering_builds[_name] += 1
                return _fn(csr)

            monkeypatch.setitem(ordering_module.ORDERING_INDEX_FNS, name, counting)

        # The natural order is the identity and is rebuilt on every call.
        once = {name: 1 for name in ORDERINGS if name != "natural"}
        csr = fresh_csr(network_arrays)
        for ordering, method in SPECS:
            payload_bytes(run(csr, ordering, method))
        assert rank_builds == {"repr": 1, "str": 1}
        assert ordering_builds == {**once, "natural": len(METHODS)}
        kinds = Counter(key[0] for key in csr._memo)
        assert kinds["ordering"] == len(ORDERINGS) - 1
        assert kinds["partition"] == len(ORDERINGS)
        assert kinds["comm_border"] == len(ORDERINGS)

        # A second sweep on the same view builds no rank array or other
        # ordering.
        for ordering, method in SPECS:
            run(csr, ordering, method)
        assert rank_builds == {"repr": 1, "str": 1}
        assert ordering_builds == {**once, "natural": 2 * len(METHODS)}

    def test_new_view_after_an_update_starts_empty(self):
        from repro.incremental import UpdateSpec, apply_update
        from repro.pipeline.workflow import prepare_dataset

        bundle = prepare_dataset("CRE", scale=0.02)
        run(bundle.network_csr, "rcm", "chordal_comm")
        assert bundle.network_csr._memo
        updated, _ = apply_update(bundle, UpdateSpec(add_samples=1, seed=9))
        assert updated.network_csr is not bundle.network_csr
        assert updated.network_csr._memo == {}

    def test_memo_is_bounded_oldest_first(self):
        csr = CSRGraph.from_buffers(np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64))
        for i in range(MEMO_ENTRIES + 5):
            assert csr.memo(("k", i), lambda i=i: i) == i
        assert len(csr._memo) == MEMO_ENTRIES
        assert next(iter(csr._memo)) == ("k", 5)
        assert csr.memo(("k", 0), lambda: "rebuilt") == "rebuilt"


class TestEntries:
    def test_memoised_arrays_are_read_only(self, network_arrays):
        csr = fresh_csr(network_arrays)
        for ordering, method in SPECS:
            payload_bytes(run(csr, ordering, method))
        arrays = [a for value in csr._memo.values() for a in memo_arrays(value)]
        assert len(arrays) > 20
        for array in arrays:
            if array.size:
                with pytest.raises(ValueError):
                    array[0] = array[0]
        with pytest.raises(ValueError):
            ordering_module.label_sort_ranks(csr)[0] = 0

    def test_concurrent_specs_match_sequential_bytes(self, network_arrays):
        sequential = fresh_csr(network_arrays)
        expected = {spec: payload_bytes(run(sequential, *spec)) for spec in SPECS}
        halves = (SPECS[::2], SPECS[1::2][::-1])
        for _ in range(3):
            shared = fresh_csr(network_arrays)
            barrier = threading.Barrier(2)
            got: dict = {}
            errors: list = []

            def worker(specs):
                try:
                    barrier.wait()
                    for spec in specs:
                        got[spec] = payload_bytes(run(shared, *spec))
                except BaseException as exc:  # pragma: no cover - reported below
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(h,)) for h in halves]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert got == expected


#: Entries that depend on the labels alone: valid for any run on the view.
LABEL_ENTRIES = {"label_ranks", "str_labels", "canonical_names"}


class TestExplicitRuns:
    """An explicit order has no name a memo key could hold, so such a run
    neither reads nor fills an ordering, partition or border-list entry
    under the name it was given."""

    @staticmethod
    def explicit_runs(csr):
        # Orders computed on a twin view, so this one's memo stays untouched.
        twin = CSRGraph(*network_view(csr))
        order = csr.to_labels(ordering_module.high_degree_order_indices(twin))
        return [run(csr, "high_degree", method, explicit_order=order) for method in METHODS]

    def test_explicit_runs_keep_no_partition_or_named_order(self, network_arrays):
        csr = fresh_csr(network_arrays)
        csr.label_graph()
        self.explicit_runs(csr)
        kinds = Counter(key[0] for key in csr._memo)
        # The explicit order given as "high_degree" is kept under no name.
        assert set(kinds) - LABEL_ENTRIES == set()

    def test_explicit_runs_never_read_spec_entries(self, network_arrays):
        clean = fresh_csr(network_arrays)
        clean.label_graph()
        expected = [r.kept.tolist() for r in self.explicit_runs(clean)]

        csr = fresh_csr(network_arrays)
        csr.label_graph()
        for ordering, method in SPECS:
            run(csr, ordering, method)
        # Poison every entry a run given these names could wrongly read: a
        # run that read one would change its output.
        n = csr.n_vertices
        poisoned = dict(csr._memo)
        poisoned[("ordering", "high_degree")] = np.arange(n, dtype=np.int64)[::-1].copy()
        for key, value in csr._memo.items():
            if key[0] == "comm_border":
                poisoned[key] = [{} for _ in value]
            elif key[0] == "partition":
                assignment, n_parts, order, parts, mask = value
                poisoned[key] = (n_parts - 1 - assignment, n_parts, order, parts[::-1], mask)
        csr._memo.clear()
        csr._memo.update(poisoned)
        snapshot = dict(csr._memo)
        got = [r.kept.tolist() for r in self.explicit_runs(csr)]
        assert got == expected
        assert csr._memo.keys() == snapshot.keys()
        assert all(csr._memo[k] is v for k, v in snapshot.items())

    def test_no_key_builds_without_the_memo(self):
        csr = CSRGraph.from_buffers(np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert csr.memo(None, lambda: 1) == 1
        assert csr._memo == {}

"""Unit tests for the file-backed arena (`repro.parallel.shm`).

Covers the edge cases of export and attach: every dtype, strided sources,
empty arrays and zero-edge graphs, export dedup, bundle offsets, double
close/unlink safety, attach-after-unlink errors, attaching from another
process, the bounded attach cache, and the zero-copy ``CSRGraph`` buffer
round-trip.
"""

from __future__ import annotations

import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.parallel import shm
from repro.parallel.shm import ArenaError, SharedArena, attach

DTYPES = ["bool", "uint8", "int32", "int64", "float32", "float64", "complex128"]


@pytest.fixture
def arena(tmp_path):
    arena = SharedArena(path=str(tmp_path / "arena"))
    yield arena
    arena.unlink()


@pytest.fixture
def arena_dir(tmp_path):
    return str(tmp_path / "arena")


class TestExportAttach:
    def test_round_trip_values_and_read_only(self, arena):
        src = np.arange(100, dtype=np.int64)
        ref = arena.export(src)
        view = attach(ref)
        assert np.array_equal(view, src)
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0] = 1

    def test_dtype_and_shape_preserved(self, arena):
        src = np.linspace(0.0, 1.0, 12, dtype=np.float64).reshape(3, 4)
        view = attach(arena.export(src))
        assert view.dtype == src.dtype
        assert view.shape == (3, 4)
        assert np.array_equal(view, src)

    def test_empty_array_has_no_segment(self, arena):
        for dtype in (np.int64, np.float64):
            ref = arena.export(np.empty(0, dtype=dtype))
            assert ref.name is None
            assert arena.n_segments == 0
            view = attach(ref)
            assert view.shape == (0,)
            assert view.dtype == dtype
            assert not view.flags.writeable

    def test_export_dedup_by_identity(self, arena):
        src = np.arange(10)
        assert arena.export(src) is arena.export(src)
        assert arena.n_segments == 1

    def test_export_dedup_by_content(self, arena):
        src = np.arange(10)
        first = arena.export(src)
        # An equal-content array reuses the existing segment (rebuilt CSR
        # buffers of the same graph must not pin one copy per rebuild).
        other = arena.export(np.arange(10))
        assert other == first
        assert arena.n_segments == 1
        bundle = arena.export_bundle({"a": np.arange(10), "b": np.arange(11)})
        assert bundle["a"] == first
        assert np.array_equal(attach(bundle["b"]), np.arange(11))
        # Different content is a distinct segment.
        third = arena.export(np.arange(12))
        assert third.name != first.name

    def test_export_rejects_non_arrays(self, arena):
        with pytest.raises(TypeError):
            arena.export([1, 2, 3])

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_every_dtype_round_trips(self, arena, dtype):
        src = (np.arange(13) % 3).astype(dtype)
        view = attach(arena.export(src))
        assert view.dtype == np.dtype(dtype)
        assert np.array_equal(view, src)

    def test_strided_source_exports_a_contiguous_copy(self, arena):
        src = np.arange(40, dtype=np.int64).reshape(8, 5)[::2, 1:4]
        assert not src.flags.c_contiguous
        view = attach(arena.export(src))
        assert view.flags.c_contiguous
        assert view.shape == (4, 3)
        assert np.array_equal(view, src)

    def test_attach_from_another_process(self, arena):
        # Refs are plain picklable handles: a fresh interpreter maps the
        # segment file by name and sees the exported values.
        ref = arena.export(np.arange(1000, dtype=np.int64))
        code = (
            "import pickle, sys\n"
            "from repro.parallel.shm import attach\n"
            "view = attach(pickle.loads(sys.stdin.buffer.read()))\n"
            "print(int(view.sum()), view.flags.writeable)\n"
        )
        src_dir = Path(repro.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-c", code],
            input=pickle.dumps(ref),
            env={**__import__("os").environ, "PYTHONPATH": str(src_dir)},
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.decode().split() == ["499500", "False"]

    def test_attach_cache_is_bounded(self, arena):
        refs = [
            arena.export(np.full(4, i, dtype=np.int64))
            for i in range(shm._ATTACH_CACHE_SIZE + 3)
        ]
        assert len({ref.name for ref in refs}) == len(refs)
        for i, ref in enumerate(refs):
            assert attach(ref)[0] == i
        assert len(shm._attached) <= shm._ATTACH_CACHE_SIZE
        # An evicted segment is mapped again on demand.
        assert refs[0].name not in shm._attached
        assert attach(refs[0])[0] == 0


class TestExportBundle:
    def test_bundle_shares_one_segment(self, arena):
        arrays = {
            "x": np.arange(7, dtype=np.int64),
            "y": np.arange(5, dtype=np.float64),
            "z": None,
            "w": np.empty(0, dtype=np.int64),
        }
        refs = arena.export_bundle(arrays)
        assert refs["z"] is None
        assert refs["w"].name is None
        assert refs["x"].name == refs["y"].name
        assert arena.n_segments == 1
        assert np.array_equal(attach(refs["x"]), arrays["x"])
        assert np.array_equal(attach(refs["y"]), arrays["y"])
        # Offsets are dtype-aligned.
        assert refs["x"].offset % 16 == 0
        assert refs["y"].offset % 16 == 0

    def test_mixed_dtype_offsets_are_aligned_after_odd_sizes(self, arena):
        arrays = {
            "flags": np.ones(3, dtype=np.uint8),
            "weights": np.linspace(0.0, 1.0, 5),
            "ids": np.arange(7, dtype=np.int32),
            "phase": np.arange(2, dtype=np.complex128),
        }
        refs = arena.export_bundle(arrays)
        # 3 B, 40 B and 28 B members each round up to the next 16 B boundary.
        assert [refs[k].offset for k in arrays] == [0, 16, 64, 96]
        for key, src in arrays.items():
            assert np.array_equal(attach(refs[key]), src)

    def test_bundle_reuses_cached_refs_and_dedups_within_call(self, arena):
        shared = np.arange(9, dtype=np.int64)
        first = arena.export(shared)
        refs = arena.export_bundle({"a": shared, "b": np.arange(4), "c": shared})
        assert refs["a"] is first
        assert refs["c"] is first
        assert arena.n_segments == 2  # the original export + one bundle


class TestLifecycle:
    def test_double_close_and_double_unlink_are_safe(self, arena_dir):
        arena = SharedArena(path=arena_dir)
        arena.export(np.arange(4))
        arena.close()
        arena.close()
        arena.unlink()
        arena.unlink()

    def test_attach_after_unlink_raises(self, arena_dir):
        arena = SharedArena(path=arena_dir)
        ref = arena.export(np.arange(16))
        assert np.array_equal(attach(ref), np.arange(16))
        arena.unlink()
        with pytest.raises(FileNotFoundError):
            attach(ref)

    def test_export_after_unlink_raises(self, arena_dir):
        arena = SharedArena(path=arena_dir)
        arena.unlink()
        with pytest.raises(ArenaError):
            arena.export(np.arange(3))
        with pytest.raises(ArenaError):
            arena.export_bundle({"a": np.arange(3)})

    def test_export_after_close_raises(self, arena_dir):
        arena = SharedArena(path=arena_dir)
        try:
            arena.close()
            with pytest.raises(ArenaError):
                arena.export(np.arange(3))
        finally:
            arena.unlink()

    def test_attached_view_outlives_unlink(self, arena_dir):
        arena = SharedArena(path=arena_dir)
        view = attach(arena.export(np.arange(16)))
        arena.unlink()
        # The mapping outlives the file; only new attaches fail.
        assert np.array_equal(view, np.arange(16))

    def test_context_manager_unlinks(self, arena_dir):
        with SharedArena(path=arena_dir) as arena:
            ref = arena.export(np.arange(8))
        with pytest.raises(FileNotFoundError):
            attach(ref)


class TestCSRBuffers:
    def test_from_buffers_is_zero_copy_and_equal(self):
        g = Graph(edges=[("a", "b"), ("b", "c"), ("c", "d"), ("a", "c")])
        csr = CSRGraph.from_graph(g)
        rebuilt = CSRGraph.from_buffers(csr.indptr, csr.indices)
        assert np.shares_memory(rebuilt.indptr, csr.indptr)
        assert np.shares_memory(rebuilt.indices, csr.indices)
        assert np.array_equal(rebuilt.indptr, csr.indptr)
        assert np.array_equal(rebuilt.indices, csr.indices)
        assert rebuilt.labels == tuple(range(csr.n_vertices))
        assert not rebuilt.indptr.flags.writeable

    def test_from_buffers_explicit_labels(self):
        g = Graph(edges=[("x", "y")])
        csr = CSRGraph.from_graph(g)
        rebuilt = CSRGraph.from_buffers(csr.indptr, csr.indices, labels=csr.labels)
        assert rebuilt == csr

    def test_from_buffers_rejects_inconsistent_buffers(self):
        with pytest.raises(ValueError):
            CSRGraph.from_buffers(
                np.asarray([1, 2], dtype=np.int64), np.empty(0, dtype=np.int64)
            )
        with pytest.raises(ValueError):
            CSRGraph.from_buffers(
                np.asarray([0, 3], dtype=np.int64), np.zeros(1, dtype=np.int64)
            )
        with pytest.raises(ValueError):
            CSRGraph.from_buffers(
                np.asarray([0, 1, 1], dtype=np.int64),
                np.zeros(1, dtype=np.int64),
                labels=("only-one-label",),
            )

    def test_zero_edge_graph_round_trips_through_arena(self, arena):
        csr = CSRGraph.from_graph(Graph(vertices=["a", "b", "c"]))
        refs = arena.export_bundle({"indptr": csr.indptr, "indices": csr.indices})
        assert refs["indices"].name is None  # zero edges -> empty buffer
        rebuilt = CSRGraph.from_buffers(attach(refs["indptr"]), attach(refs["indices"]))
        assert rebuilt.n_vertices == 3
        assert rebuilt.n_edges == 0

    def test_empty_graph_round_trip(self):
        csr = CSRGraph.from_graph(Graph())
        rebuilt = CSRGraph.from_buffers(csr.indptr, csr.indices)
        assert rebuilt.n_vertices == 0
        assert rebuilt.n_edges == 0

"""File-backed arena tests (`repro.parallel.shm`).

Two concerns share this module (the export/attach and close/unlink edge
cases live in ``test_shm.py``):

* lifecycle accounting — dedup within one arena and the process-wide
  :func:`open_segment_count` leak accounting (a *closed* arena is
  persistence, not a leak);
* manifest persistence — the warm-restart contract: a second arena opened
  over the same directory re-adopts the previous generation's segments by
  content digest, so re-exporting rebuilt-but-equal payloads returns the
  already-mapped refs instead of copying.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.parallel.shm import SharedArena, attach, open_segment_count


@pytest.fixture
def make_arena(tmp_path):
    """Factory building a fresh arena in its own directory."""
    counter = {"n": 0}

    def factory() -> SharedArena:
        counter["n"] += 1
        return SharedArena(path=str(tmp_path / f"arena{counter['n']}"))

    return factory


class TestLifecycle:
    def test_bundle_dedup_within_arena(self, make_arena):
        arena = make_arena()
        try:
            a = np.arange(32, dtype=np.int64)
            refs1 = arena.export_bundle({"a": a})
            refs2 = arena.export_bundle({"a": a.copy()})
            assert refs1["a"] is refs2["a"]
            assert arena.n_segments == 1
        finally:
            arena.unlink()

    def test_open_segment_count_tracks_unlink(self, make_arena):
        base = open_segment_count()
        arena = make_arena()
        arena.export_bundle({"a": np.arange(8), "b": np.arange(50, dtype=np.float64)})
        assert open_segment_count() == base + arena.n_segments
        arena.unlink()
        assert open_segment_count() == base


class TestOpenSegmentCount:
    def test_closed_file_arena_is_persistence_not_leak(self, tmp_path):
        base = open_segment_count()
        arena = SharedArena(path=str(tmp_path / "arena"))
        arena.export(np.arange(8))
        assert open_segment_count() == base + 1
        arena.close()
        # Closed file-backed segments live on disk by design.
        assert open_segment_count() == base


class TestManifestPersistence:
    def test_warm_restart_adopts_by_digest(self, tmp_path):
        d = str(tmp_path / "arena")
        payload = {
            "indptr": np.arange(11, dtype=np.int64),
            "weights": np.linspace(0.0, 1.0, 10),
        }
        gen1 = SharedArena(path=d)
        refs1 = gen1.export_bundle(payload)
        segs1 = gen1.n_segments
        gen1.close()

        gen2 = SharedArena(path=d)
        try:
            # Adoption restores the digest table: re-exporting equal content
            # returns refs onto the previous generation's mapped files
            # without creating new segments.
            assert gen2.n_segments == segs1
            refs2 = gen2.export_bundle({k: v.copy() for k, v in payload.items()})
            assert gen2.n_segments == segs1
            for key in payload:
                assert refs2[key].name == refs1[key].name
                assert np.array_equal(attach(refs2[key]), payload[key])
        finally:
            gen2.unlink()

    def test_concurrent_generations_merge_instead_of_clobber(self, tmp_path):
        # Two arena generations over the same directory (say, two processes
        # sharing one arena directory): each saves the manifest
        # knowing only its own exports, and a blind overwrite would drop the
        # sibling's entries.  The locked read-merge-replace must keep both.
        d = str(tmp_path / "arena")
        a = SharedArena(path=d)
        b = SharedArena(path=d)  # opened before a exports: adopts nothing
        x = np.arange(20, dtype=np.int64)
        y = np.linspace(0.0, 1.0, 15)
        try:
            ref_x = a.export(x)
            ref_y = b.export(y)  # b's save must not clobber a's entry
            with open(os.path.join(d, "manifest.json"), encoding="utf-8") as fh:
                files = {entry["file"] for entry in json.load(fh)["refs"]}
            assert os.path.basename(ref_x.name) in files
            assert os.path.basename(ref_y.name) in files

            # A third generation adopts the merged manifest: re-exports of
            # both payloads are digest hits onto the existing files.
            c = SharedArena(path=d)
            try:
                segs = c.n_segments
                assert c.export(x.copy()).name == ref_x.name
                assert c.export(y.copy()).name == ref_y.name
                assert c.n_segments == segs
            finally:
                c.close()
        finally:
            a.close()
            b.unlink()

    def test_unlink_purges_directory_state(self, tmp_path):
        d = tmp_path / "arena"
        arena = SharedArena(path=str(d))
        arena.export(np.arange(12))
        assert any(d.glob("seg-*.bin"))
        assert (d / "manifest.json").exists()
        arena.unlink()
        assert not any(d.glob("seg-*.bin"))
        assert not (d / "manifest.json").exists()

    def test_malformed_manifest_is_ignored(self, tmp_path):
        d = tmp_path / "arena"
        d.mkdir()
        (d / "manifest.json").write_text("not json at all", encoding="utf-8")
        arena = SharedArena(path=str(d))
        try:
            assert arena.n_segments == 0
            arena.export(np.arange(3))
        finally:
            arena.unlink()

    def test_wrong_schema_manifest_is_ignored(self, tmp_path):
        d = tmp_path / "arena"
        d.mkdir()
        (d / "manifest.json").write_text(
            json.dumps({"schema": "arena-manifest/v999", "refs": []}), encoding="utf-8"
        )
        arena = SharedArena(path=str(d))
        try:
            assert arena.n_segments == 0
        finally:
            arena.unlink()

    def test_manifest_entry_with_missing_file_is_skipped(self, tmp_path):
        d = str(tmp_path / "arena")
        gen1 = SharedArena(path=d)
        ref = gen1.export(np.arange(20, dtype=np.int64))
        gen1.close()
        os.unlink(ref.name)  # the segment vanished between generations

        gen2 = SharedArena(path=d)
        try:
            assert gen2.n_segments == 0
            # The digest no longer resolves, so an equal export re-creates.
            fresh = gen2.export(np.arange(20, dtype=np.int64))
            assert fresh.name != ref.name
            assert np.array_equal(attach(fresh), np.arange(20))
        finally:
            gen2.unlink()

"""File-backed shared array arena.

A :class:`SharedArena` copies numpy arrays into memory-mapped segment files
under one directory and hands out :class:`ArenaRef` handles — ``(segment
file, dtype, shape, offset)`` — that any process on the host can
:func:`attach` as a **read-only** zero-copy view:

* :meth:`SharedArena.export_bundle` writes a named set of arrays into one
  segment file (one ``mmap`` per side instead of one per array); exports are
  deduplicated by array identity and by content digest;
* the arena keeps a JSON *manifest* (``manifest.json`` under the directory)
  mapping content digests to segment files.  A new arena opened on the same
  directory adopts the manifest, so re-exporting equal content is a digest
  hit against the *previous generation's* file — no copy, no new segment.
  Concurrent generations share the directory under an ``flock``;
* mapped pages are evictable file cache, so bundles can exceed physical
  memory.

Lifecycle: :meth:`SharedArena.close` releases this process's mappings and
keeps the files (persistence is the point); :meth:`SharedArena.unlink`
purges the segment files and the manifest.  Attach-side handles are cached
in a small per-process table and closed on eviction.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import mmap
import os
import threading
import uuid
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

try:  # POSIX only; manifests fall back to best-effort locking elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

import numpy as np

__all__ = [
    "ArenaError",
    "ArenaRef",
    "SharedArena",
    "attach",
    "open_segment_count",
]


class ArenaError(RuntimeError):
    """Misuse of a :class:`SharedArena` (export after close, attach after unlink, ...)."""


def _align(offset: int, boundary: int = 16) -> int:
    """Round ``offset`` up to the next multiple of ``boundary`` (dtype alignment)."""
    return (offset + boundary - 1) & ~(boundary - 1)


def _content_key(src: np.ndarray) -> tuple[bytes, str, tuple[int, ...]]:
    """Content-dedup key of a contiguous array: (blake2b digest, dtype, shape)."""
    return (
        hashlib.blake2b(src.data, digest_size=16).digest(),
        src.dtype.str,
        tuple(src.shape),
    )


@dataclass(frozen=True)
class ArenaRef:
    """Picklable handle to one exported array.

    ``name`` is the segment file's absolute path; it is ``None`` for empty
    arrays, which have no backing segment (a file cannot be mapped at zero
    size) and are reconstructed locally by :func:`attach`.  ``offset``
    locates the array inside its segment — several arrays exported together
    (:meth:`SharedArena.export_bundle`) share one segment, which costs one
    ``mmap`` instead of one per array on both sides.
    """

    name: Optional[str]
    dtype: str
    shape: tuple[int, ...]
    offset: int = 0


class _FileSegment:
    """One memory-mapped segment file.

    ``create=True`` makes a fresh sparse file of ``size`` bytes and maps it
    writable (the export side fills it); otherwise the existing file is
    mapped read-only (the attach side), raising ``FileNotFoundError`` when
    the segment has been unlinked.
    """

    __slots__ = ("name", "size", "buf", "_mmap", "_writable")

    def __init__(self, path: str, create: bool = False, size: int = 0) -> None:
        if create:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600)
            try:
                os.ftruncate(fd, size)
                self._mmap = mmap.mmap(fd, size, access=mmap.ACCESS_WRITE)
            finally:
                os.close(fd)
        else:
            fd = os.open(path, os.O_RDONLY)
            try:
                size = os.fstat(fd).st_size
                self._mmap = mmap.mmap(fd, size, access=mmap.ACCESS_READ)
            finally:
                os.close(fd)
        self.name = path
        self.size = size
        self.buf = memoryview(self._mmap)
        self._writable = create

    def close(self) -> None:
        if self._writable:
            self._mmap.flush()
        self.buf.release()
        self._mmap.close()  # raises BufferError while views are live

    def unlink(self) -> None:
        os.unlink(self.name)


class SharedArena:
    """Owner of the segment files under one directory.

    Export a graph's compact buffers once, hand the resulting
    :class:`ArenaRef` handles to any process on the host, and :meth:`close`
    (keep the files) or :meth:`unlink` (purge them) when done.  Exports are
    deduplicated by *array identity* (re-exporting the same object is a dict
    hit) and by *content digest*, so a rebuilt-but-equal array reuses the
    existing segment.  The digest index is adopted from / persisted to
    ``path/manifest.json``, so equal content survives process generations.
    """

    #: Manifest schema tag (bumped on incompatible layout changes).
    MANIFEST_SCHEMA = "arena-manifest/v1"

    def __init__(self, path: str) -> None:
        self._path = os.path.abspath(path)
        os.makedirs(self._path, exist_ok=True)
        self._segments: list[_FileSegment] = []
        self._by_id: dict[int, tuple[weakref.ref, ArenaRef]] = {}
        self._by_digest: dict[tuple[bytes, str, tuple[int, ...]], ArenaRef] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._unlinked = False
        self._adopt_manifest()
        _ALL_ARENAS.add(self)

    # ------------------------------------------------------------------
    # persistence (manifest)
    # ------------------------------------------------------------------
    @property
    def _manifest_file(self) -> str:
        return os.path.join(self._path, "manifest.json")

    @contextmanager
    def _manifest_lock(self) -> Iterator[None]:
        """Cross-process exclusive lock over the arena directory's manifest.

        Concurrent processes may open arenas over the same directory, each
        with its own arena generation; every manifest read-modify-write
        (adopt, save, unlink) runs under an ``flock`` on a sidecar lockfile
        so concurrent writers serialize instead of last-writer-wins dropping
        each other's entries.  The lockfile itself is never deleted —
        unlinking it while a sibling holds the ``fd`` would silently split
        the lock across two inodes.
        """
        fd = os.open(os.path.join(self._path, ".manifest.lock"), os.O_CREAT | os.O_RDWR, 0o600)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    def _adopt_manifest(self) -> None:
        """Adopt the previous generation's segments from ``path/manifest.json``.

        Each surviving segment file is mapped once and its digest entries
        repopulate the content index, so re-exports of equal content attach
        to the old file instead of copying — the warm-restart fast path.
        Missing segment files (a partially purged directory) are skipped;
        a malformed or foreign-schema manifest is ignored entirely, and the
        arena starts fresh and overwrites it on its next export.  The whole
        adopt holds the manifest lock so a concurrent generation's save (or
        unlink) cannot swap files out from under the mapping pass.
        """
        with self._manifest_lock():
            try:
                with open(self._manifest_file, encoding="utf-8") as fh:
                    manifest = json.load(fh)
            except (OSError, ValueError):
                return
            if manifest.get("schema") != self.MANIFEST_SCHEMA:
                return
            opened: dict[str, _FileSegment] = {}
            for entry in manifest.get("refs", ()):
                try:
                    file_path = os.path.join(self._path, entry["file"])
                    seg = opened.get(file_path)
                    if seg is None:
                        seg = _FileSegment(file_path)
                        opened[file_path] = seg
                        self._segments.append(seg)
                    ref = ArenaRef(
                        name=file_path,
                        dtype=entry["dtype"],
                        shape=tuple(entry["shape"]),
                        offset=int(entry["offset"]),
                    )
                    key = (bytes.fromhex(entry["digest"]), ref.dtype, ref.shape)
                    self._by_digest[key] = ref
                except (OSError, KeyError, TypeError, ValueError):
                    continue

    def _save_manifest(self) -> None:
        """Atomically publish the digest index (called under ``self._lock``).

        The write is a locked read-merge-replace, not a blind overwrite:
        entries already on disk whose segment files still exist are kept, so
        concurrent arena generations sharing one directory append to a
        common manifest instead of each clobbering the others' exports.
        This process's own index wins on digest collisions.
        """
        merged: dict[tuple, dict] = {}
        with self._manifest_lock():
            try:
                with open(self._manifest_file, encoding="utf-8") as fh:
                    on_disk = json.load(fh)
            except (OSError, ValueError):
                on_disk = None
            if isinstance(on_disk, dict) and on_disk.get("schema") == self.MANIFEST_SCHEMA:
                for entry in on_disk.get("refs", ()):
                    try:
                        key = (entry["digest"], entry["dtype"], tuple(entry["shape"]))
                        if os.path.exists(os.path.join(self._path, entry["file"])):
                            merged[key] = entry
                    except (KeyError, TypeError):
                        continue
            for key, ref in self._by_digest.items():
                if ref.name is None:
                    continue
                merged[(key[0].hex(), key[1], tuple(key[2]))] = {
                    "digest": key[0].hex(),
                    "dtype": ref.dtype,
                    "shape": list(ref.shape),
                    "file": os.path.basename(ref.name),
                    "offset": ref.offset,
                }
            blob = json.dumps(
                {"schema": self.MANIFEST_SCHEMA, "refs": list(merged.values())}, sort_keys=True
            )
            tmp = f"{self._manifest_file}.tmp-{os.getpid()}"
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self._manifest_file)

    # ------------------------------------------------------------------
    # export side (creator process)
    # ------------------------------------------------------------------
    def export(self, array: np.ndarray) -> ArenaRef:
        """Copy ``array`` into a segment file and return its :class:`ArenaRef`.

        The copy happens at most once per array object and per content:
        re-exports return the cached ref.  Empty arrays get a segment-less
        ref.  A single-entry :meth:`export_bundle` — one dedup pipeline
        serves both.
        """
        return self.export_bundle({"array": array})["array"]

    def export_bundle(
        self, arrays: Mapping[str, Optional[np.ndarray]]
    ) -> dict[str, Optional[ArenaRef]]:
        """Export a named set of arrays into **one** segment file.

        The refs share a segment name and differ by (16-byte aligned)
        offset, so the whole bundle costs one ``mmap`` on each side.
        Already-exported arrays reuse their cached refs; ``None`` values
        pass through.
        """
        with self._lock:
            if self._closed or self._unlinked:
                raise ArenaError("cannot export into a closed/unlinked arena")
            out: dict[str, Optional[ArenaRef]] = {}
            fresh: list[tuple[int, np.ndarray, np.ndarray, tuple, list[str]]] = []
            fresh_keys_by_id: dict[int, list[str]] = {}
            fresh_keys_by_digest: dict[tuple, list[str]] = {}
            total = 0
            for key, value in arrays.items():
                if value is None:
                    out[key] = None
                    continue
                if not isinstance(value, np.ndarray):
                    raise TypeError(
                        f"can only export numpy arrays, got {type(value).__name__} for {key!r}"
                    )
                cached = self._by_id.get(id(value))
                if cached is not None and cached[0]() is value:
                    out[key] = cached[1]
                    continue
                dup = fresh_keys_by_id.get(id(value))
                if dup is not None:
                    dup.append(key)
                    continue
                src = np.ascontiguousarray(value)
                if src.nbytes == 0:
                    ref = ArenaRef(name=None, dtype=src.dtype.str, shape=tuple(src.shape))
                    self._by_id[id(value)] = (weakref.ref(value), ref)
                    out[key] = ref
                    continue
                digest = _content_key(src)
                hit = self._by_digest.get(digest)
                if hit is not None:
                    self._by_id[id(value)] = (weakref.ref(value), hit)
                    out[key] = hit
                    continue
                pending = fresh_keys_by_digest.get(digest)
                if pending is not None:
                    pending.append(key)
                    continue
                keys = [key]
                fresh.append((id(value), value, src, digest, keys))
                fresh_keys_by_id[id(value)] = keys
                fresh_keys_by_digest[digest] = keys
                total = _align(total) + src.nbytes
            if not fresh:
                return out
            name = os.path.join(self._path, f"seg-{uuid.uuid4().hex[:12]}.bin")
            seg = _FileSegment(name, create=True, size=total)
            self._segments.append(seg)
            offset = 0
            for obj_id, original, src, digest, keys in fresh:
                offset = _align(offset)
                dst = np.ndarray(src.shape, dtype=src.dtype, buffer=seg.buf, offset=offset)
                dst[...] = src
                ref = ArenaRef(
                    name=seg.name, dtype=src.dtype.str, shape=tuple(src.shape), offset=offset
                )
                self._by_id[obj_id] = (weakref.ref(original), ref)
                self._by_digest[digest] = ref
                for key in keys:
                    out[key] = ref
                offset += src.nbytes
            self._save_manifest()
            return out

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def n_segments(self) -> int:
        return len(self._segments)

    def close(self) -> None:
        """Release this process's mappings (idempotent); the files persist.

        The segment files and the manifest stay on disk, and the next arena
        opened on the same ``path`` adopts them.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for seg in self._segments:
                try:
                    seg.close()
                except (BufferError, OSError):  # pragma: no cover - defensive
                    pass

    def unlink(self) -> None:
        """Delete the segment files and the manifest (idempotent; implies :meth:`close`).

        Views already attached stay valid (the mapping outlives the file),
        but new :func:`attach` calls on refs of this arena raise
        ``FileNotFoundError``.  This purges the *directory*, so it is an
        owner-only operation: call it when no concurrent process is still
        exporting into / attaching from the same ``path`` (the manifest
        lock serializes it against in-flight adopts and saves, but cannot
        resurrect files for refs a sibling already handed out).
        """
        self.close()
        with self._lock:
            if self._unlinked:
                return
            self._unlinked = True
            names = []
            with self._manifest_lock():
                for seg in self._segments:
                    names.append(seg.name)
                    try:
                        seg.unlink()
                    except FileNotFoundError:  # pragma: no cover - already gone
                        pass
                self._segments.clear()
                self._by_id.clear()
                self._by_digest.clear()
                try:
                    os.unlink(self._manifest_file)
                except FileNotFoundError:
                    pass
        # Drop this process's cached attachments of the deleted segments so
        # an attach-after-unlink fails here exactly like it does elsewhere.
        _evict_attached(names)

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc: object) -> None:
        self.unlink()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        state = "unlinked" if self._unlinked else ("closed" if self._closed else "open")
        return f"{type(self).__name__}({self._path!r}, n_segments={self.n_segments}, {state})"


#: Every arena created in this process; closed at interpreter exit so the
#: mappings are flushed (the files persist by design).
_ALL_ARENAS: "weakref.WeakSet[SharedArena]" = weakref.WeakSet()


def _close_all_arenas() -> None:
    for arena in list(_ALL_ARENAS):
        try:
            arena.close()
        except Exception:  # pragma: no cover - defensive
            pass


atexit.register(_close_all_arenas)


def open_segment_count() -> int:
    """Segments mapped by this process's open arenas.

    The open-handle accounting of the arena layer: a component that owns
    arena lifecycles can assert it returns to its baseline after teardown —
    a nonzero delta is a stray mapping that would otherwise survive until
    interpreter exit.  A *closed* arena does not count: its mappings are
    released, and the files persisting on disk is the feature, not a leak.
    """
    return sum(
        arena.n_segments
        for arena in list(_ALL_ARENAS)
        if not (arena._unlinked or arena._closed)
    )


# ----------------------------------------------------------------------
# attach side (any process on the host)
# ----------------------------------------------------------------------
#: Per-process cache of attached segment *handles*, keyed by file path.
#: Bounded tightly so a long-lived process does not pin the pages of
#: long-dead segments; the cache exists so many views of *one* bundle map
#: each segment once.  Array views are rebuilt per :func:`attach` call on
#: top of the cached mapping — a plain ``np.ndarray`` construction.
_ATTACH_CACHE_SIZE = 8
_attached: "OrderedDict[str, _FileSegment]" = OrderedDict()
_attach_lock = threading.Lock()


def _close_segment(seg: _FileSegment) -> None:
    try:
        seg.close()
    except (BufferError, OSError):  # a view of it is still referenced somewhere
        pass


def _evict_attached(names: list[str]) -> None:
    """Close and forget the local attachments of the given segments."""
    with _attach_lock:
        for name in names:
            seg = _attached.pop(name, None)
            if seg is not None:
                _close_segment(seg)


def _segment(name: str) -> _FileSegment:
    """Map (or recall) the named segment file; evicts the oldest over the cap."""
    with _attach_lock:
        seg = _attached.get(name)
        if seg is not None:
            _attached.move_to_end(name)
            return seg
        seg = _FileSegment(name)
        _attached[name] = seg
        while len(_attached) > _ATTACH_CACHE_SIZE:
            _, old = _attached.popitem(last=False)
            _close_segment(old)
        return seg


def attach(ref: ArenaRef) -> np.ndarray:
    """Return a read-only numpy view of the array behind ``ref``.

    Raises ``FileNotFoundError`` when the segment has been unlinked.
    Segment handles are cached per process, so repeated attaches of one
    bundle map its segment once.  The view holds a buffer export on the
    mapping, so evicting or unlinking the segment cannot unmap it under a
    live view: the mapping is released when the last view dies.
    """
    dtype = np.dtype(ref.dtype)
    if ref.name is None:
        empty = np.empty(ref.shape, dtype=dtype)
        empty.setflags(write=False)
        return empty
    seg = _segment(ref.name)
    nbytes = dtype.itemsize * int(np.prod(ref.shape, dtype=np.int64))
    view = np.frombuffer(seg.buf[ref.offset : ref.offset + nbytes], dtype=dtype).reshape(ref.shape)
    view.setflags(write=False)
    return view

"""Zero-copy shared-memory execution arena.

The ``process`` execution backend ships every rank's CSR sub-arrays by
pickling them to a worker process: the parent slices one subgraph per rank,
serializes the arrays onto the wire, and the worker deserializes its own
private copy — so the index-native kernels spend their time waiting on
serialization instead of computing.  This module provides the zero-copy
alternative, following the partition-then-share-compact-buffers discipline of
data-partitioning architectures:

* :class:`SharedArena` exports numpy arrays into named
  :mod:`multiprocessing.shared_memory` segments — every array of one call's
  payloads in one segment (:func:`export_payload`), and repeated exports of
  the same array object are deduplicated;
* an :class:`ArenaRef` is the picklable handle — ``(segment name, dtype,
  shape, offset)`` — that replaces the array in a rank payload, so what
  crosses the process boundary is a few dozen bytes of metadata per array;
* workers call :func:`attach` (usually via :func:`resolve_payload`) to map the
  segment and reconstruct a **read-only** numpy view; attachments are cached
  per process, so a resident worker that executes many ranks of the same graph
  maps each segment exactly once.

Lifecycle: the *creator* owns the segments — :meth:`SharedArena.unlink`
destroys them (idempotent; also registered as an interpreter-exit safety net).
Attach-side handles are cached in a bounded per-process table and closed on
eviction; on POSIX the memory itself survives until the last handle closes,
so unlinking while workers still hold views is safe.  The batch engine scopes
one arena per scale-group (:func:`arena_scope`): filters running inside the
group export into the shared arena, and the group tears it down at the end.

File-backed arenas (the scale-out tier)
---------------------------------------
``SharedArena(path=...)`` keeps the exact same
``ArenaRef`` / ``export_bundle`` / content-dedup API but backs every segment
with a memory-mapped file under ``path`` instead of POSIX shm.  Two things
fall out of that swap:

* **persistence across process generations** — the arena maintains a JSON
  *manifest* (``manifest.json`` under ``path``) mapping content digests to
  segment files.  A new arena opened on the same path adopts the manifest,
  so re-exporting equal content (the CSR buffers of the same graph, rebuilt
  by a restarted ``repro serve``) is a digest hit against the *previous
  generation's* mapped file — no copy, no new segment.  ``close()`` keeps
  the files on disk (that is the point); ``unlink()`` purges them;
* **graphs larger than RAM** — mapped pages are evictable file cache, so
  CSR bundles can exceed physical memory and stream through
  ``induced_subgraph`` slices on demand.
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
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Callable, Iterator, Mapping, Optional, Union

try:  # POSIX only; file-backed manifests fall back to best-effort elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

import numpy as np

from ..faults import fault_point

__all__ = [
    "ArenaError",
    "ArenaRef",
    "SharedArena",
    "attach",
    "resolve_payload",
    "export_payload",
    "get_active_arena",
    "arena_scope",
    "owned_arena",
    "open_segment_count",
    "attached_handle_count",
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

    ``name`` is the shared-memory segment name (``kind="shm"``) or the
    segment file's absolute path (``kind="file"``); it is ``None`` for empty
    arrays, which have no backing segment (POSIX shared memory cannot be
    zero-sized) and are reconstructed locally by :func:`attach`.  ``offset``
    locates the array inside its segment — several arrays exported together
    (:meth:`SharedArena.export_bundle`) share one segment, which costs one
    ``shm_open`` / ``mmap`` instead of one per array on both sides.
    """

    name: Optional[str]
    dtype: str
    shape: tuple[int, ...]
    offset: int = 0
    kind: str = "shm"

    @property
    def nbytes(self) -> int:
        n = int(np.prod(self.shape)) if self.shape else 1
        return n * np.dtype(self.dtype).itemsize


class _FileSegment:
    """Memory-mapped file counterpart of ``SharedMemory`` (same tiny surface).

    ``create=True`` makes a fresh sparse file of ``size`` bytes and maps it
    writable (the export side fills it); otherwise the existing file is
    mapped read-only (the attach side), raising ``FileNotFoundError`` when
    the segment has been unlinked — the exact failure mode of a vanished
    shm segment.
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
        self._mmap.close()  # raises BufferError while views are live (as shm does)

    def unlink(self) -> None:
        os.unlink(self.name)


class SharedArena:
    """Owner of a set of shared-memory segments holding exported arrays.

    Create one arena per graph (or per batch scale-group), export the compact
    buffers once, hand the resulting :class:`ArenaRef` payloads to every rank,
    and :meth:`unlink` when the group of runs is finished.  Exports are
    always deduplicated by *array identity* (re-exporting the same object is
    a dict hit); with ``content_dedup=True`` additionally by *content
    digest*, so a rebuilt-but-equal array — e.g. the CSR buffers of the same
    graph reconstructed by the next run of a batch scale-group — reuses the
    existing segment instead of pinning another copy of the graph in shared
    memory for the arena's lifetime.  Content dedup costs one hash pass per
    fresh export, which buys nothing for a private single-call arena, so it
    is off by default and enabled by :func:`arena_scope` for the long-lived
    ambient arenas that actually see repeated content.

    ``path`` selects the file-backed variant (see the module docstring):
    segments become memory-mapped files under ``path``, content dedup is
    forced on (persistence is built on the digest index), and that index is
    adopted from / persisted to ``path/manifest.json`` so equal content
    survives process generations.  :meth:`close` keeps the files on disk;
    :meth:`unlink` purges them and the manifest.
    """

    #: Manifest schema tag (bumped on incompatible layout changes).
    MANIFEST_SCHEMA = "arena-manifest/v1"

    def __init__(self, content_dedup: bool = False, path: Optional[str] = None) -> None:
        self._path = None if path is None else os.path.abspath(path)
        if self._path is not None:
            os.makedirs(self._path, exist_ok=True)
            content_dedup = True
        self._segments: list[Union[shared_memory.SharedMemory, _FileSegment]] = []
        self._by_id: dict[int, tuple[weakref.ref, ArenaRef]] = {}
        self._by_digest: Optional[dict[tuple[bytes, str, tuple[int, ...]], ArenaRef]] = (
            {} if content_dedup else None
        )
        self._lock = threading.Lock()
        self._closed = False
        self._unlinked = False
        if self._path is not None:
            self._adopt_manifest()
        _ALL_ARENAS.add(self)

    @property
    def kind(self) -> str:
        """``"shm"`` (POSIX shared memory) or ``"file"`` (memory-mapped files)."""
        return "shm" if self._path is None else "file"

    @property
    def path(self) -> Optional[str]:
        return self._path

    # ------------------------------------------------------------------
    # file-backed persistence (manifest)
    # ------------------------------------------------------------------
    @property
    def _manifest_file(self) -> str:
        assert self._path is not None
        return os.path.join(self._path, "manifest.json")

    @contextmanager
    def _manifest_lock(self) -> Iterator[None]:
        """Cross-process exclusive lock over the arena directory's manifest.

        ``run_batch(jobs>1)`` hands the same ``arena_dir`` to concurrent
        worker processes, each with its own arena generation; every manifest
        read-modify-write (adopt, save, unlink) runs under an ``flock`` on a
        sidecar lockfile so concurrent writers serialize instead of
        last-writer-wins dropping each other's entries.  The lockfile itself
        is never deleted — unlinking it while a sibling holds the ``fd``
        would silently split the lock across two inodes.
        """
        assert self._path is not None
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
                        kind="file",
                    )
                    key = (bytes.fromhex(entry["digest"]), ref.dtype, ref.shape)
                    self._by_digest[key] = ref
                except (OSError, KeyError, TypeError, ValueError):
                    continue

    def _save_manifest(self) -> None:
        """Atomically publish the digest index (called under ``self._lock``).

        The write is a locked read-merge-replace, not a blind overwrite:
        entries already on disk whose segment files still exist are kept, so
        concurrent arena generations sharing one directory (batch ``jobs>1``)
        append to a common manifest instead of each clobbering the others'
        exports.  This process's own index wins on digest collisions.
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
                if ref.name is None or ref.kind != "file":
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

    def _new_segment(self, size: int) -> Union[shared_memory.SharedMemory, _FileSegment]:
        if self._path is None:
            return shared_memory.SharedMemory(create=True, size=size)
        name = os.path.join(self._path, f"seg-{uuid.uuid4().hex[:12]}.bin")
        return _FileSegment(name, create=True, size=size)

    # ------------------------------------------------------------------
    # export side (creator process)
    # ------------------------------------------------------------------
    def export(self, array: np.ndarray) -> ArenaRef:
        """Copy ``array`` into a shared segment and return its :class:`ArenaRef`.

        The copy happens exactly once per array object: re-exporting the same
        object returns the cached ref.  Empty arrays get a segment-less ref.
        A single-entry :meth:`export_bundle` — one dedup pipeline serves both.
        """
        return self.export_bundle({"array": array})["array"]

    def export_many(
        self, arrays: Mapping[str, Optional[np.ndarray]]
    ) -> dict[str, Optional[ArenaRef]]:
        """Export a named set of arrays; ``None`` values pass through as ``None``."""
        return {k: (None if v is None else self.export(v)) for k, v in arrays.items()}

    def export_bundle(
        self, arrays: Mapping[str, Optional[np.ndarray]]
    ) -> dict[str, Optional[ArenaRef]]:
        """Export a named set of arrays into **one** shared segment.

        The refs share a segment name and differ by (16-byte aligned)
        offset, so the whole bundle costs one ``shm_open`` on each side —
        the fast path for a filter's per-graph payload.  Already-exported
        arrays reuse their cached refs; ``None`` values pass through.
        """
        fault_point("arena.export", n_arrays=len(arrays))
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
                digest = None
                if self._by_digest is not None:
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
                if digest is not None:
                    fresh_keys_by_digest[digest] = keys
                total = _align(total) + src.nbytes
            if not fresh:
                return out
            seg = self._new_segment(total)
            self._segments.append(seg)
            offset = 0
            for obj_id, original, src, digest, keys in fresh:
                offset = _align(offset)
                dst = np.ndarray(src.shape, dtype=src.dtype, buffer=seg.buf, offset=offset)
                dst[...] = src
                ref = ArenaRef(
                    name=seg.name,
                    dtype=src.dtype.str,
                    shape=tuple(src.shape),
                    offset=offset,
                    kind=self.kind,
                )
                self._by_id[obj_id] = (weakref.ref(original), ref)
                if digest is not None:
                    self._by_digest[digest] = ref
                for key in keys:
                    out[key] = ref
                offset += src.nbytes
            if self._path is not None:
                self._save_manifest()
            return out

    def export_csr(self, csr: "Any") -> dict[str, ArenaRef]:
        """Export a :class:`~repro.graph.csr.CSRGraph`'s buffers (``indptr``/``indices``)."""
        indptr, indices = csr.export_buffers()
        return {"indptr": self.export(indptr), "indices": self.export(indices)}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def n_segments(self) -> int:
        return len(self._segments)

    @property
    def total_bytes(self) -> int:
        return sum(seg.size for seg in self._segments)

    def close(self) -> None:
        """Close this process's handles (idempotent; memory stays until unlink).

        For a file-backed arena this is the *persist* path: the segment
        files and the manifest stay on disk, and the next arena opened on
        the same ``path`` adopts them.
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
        """Destroy the segments (idempotent; implies :meth:`close`).

        Attached workers keep their existing views alive — POSIX frees the
        memory when the last handle closes — but new :func:`attach` calls on
        refs of this arena raise ``FileNotFoundError``.  A file-backed
        arena's segment files and manifest are deleted from disk — a purge
        of the *directory*, so it is an owner-only operation: call it when
        no concurrent process is still exporting into / attaching from the
        same ``path`` (the manifest lock serializes it against in-flight
        adopts and saves, but cannot resurrect files for refs a sibling
        already handed out).
        """
        self.close()
        with self._lock:
            if self._unlinked:
                return
            self._unlinked = True
            names = []
            purge_guard = self._manifest_lock() if self._path is not None else nullcontext()
            with purge_guard:
                for seg in self._segments:
                    names.append(seg.name)
                    try:
                        seg.unlink()
                    except FileNotFoundError:  # pragma: no cover - already gone
                        pass
                self._segments.clear()
                self._by_id.clear()
                if self._by_digest is not None:
                    self._by_digest.clear()
                if self._path is not None:
                    try:
                        os.unlink(self._manifest_file)
                    except FileNotFoundError:
                        pass
        # Drop this process's cached attachments of the destroyed segments so
        # an attach-after-unlink fails here exactly like it does in a worker.
        _evict_attached(names)

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc: object) -> None:
        self.unlink()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        state = "unlinked" if self._unlinked else ("closed" if self._closed else "open")
        return (
            f"{type(self).__name__}(kind={self.kind!r}, n_segments={self.n_segments}, "
            f"bytes={self.total_bytes}, {state})"
        )


#: Every arena ever created in this process; unlinked as an interpreter-exit
#: safety net so no /dev/shm segments outlive an interactive session.
_ALL_ARENAS: "weakref.WeakSet[SharedArena]" = weakref.WeakSet()


def _cleanup_all_arenas() -> None:
    # The worker hub must be down before any arena is unlinked: workers
    # attach segments lazily, and a worker racing an unlink would die on
    # FileNotFoundError instead of exiting cleanly.  atexit's LIFO order makes
    # the hub's hook run first only when :mod:`.sock` was imported after this
    # module, so the ordering is enforced here instead of relied upon.
    try:
        from .runner import shutdown_worker_pool

        shutdown_worker_pool()
    except Exception:  # pragma: no cover - defensive (partial interpreter)
        pass
    for arena in list(_ALL_ARENAS):
        try:
            if arena._path is not None:
                # File-backed arenas persist by design: release the mappings
                # but leave the segment files + manifest for the next
                # generation.  Purging them here would defeat warm restarts.
                arena.close()
            else:
                arena.unlink()
        except Exception:  # pragma: no cover - defensive
            pass


atexit.register(_cleanup_all_arenas)


def open_segment_count() -> int:
    """Segments created/mapped by this process and not yet unlinked.

    The open-handle accounting of the arena layer, covering **both** arena
    kinds — POSIX shm segments and mapped segment files count alike.  A
    component that owns arena lifecycles (the batch engine's scale-groups,
    the resident service's start/stop cycles) can assert it returns to its
    baseline after teardown — a nonzero delta is a leaked ``/dev/shm``
    segment or stray arena-directory mapping that would otherwise survive
    until interpreter exit.

    A *closed* file-backed arena does not count: its mappings are released
    and the files persisting on disk is the feature, not a leak.  A closed
    shm arena still counts — the ``/dev/shm`` segment exists until unlink.
    """
    return sum(
        arena.n_segments
        for arena in list(_ALL_ARENAS)
        if not arena._unlinked and (arena._path is None or not arena._closed)
    )


def attached_handle_count() -> int:
    """Attach-side segment handles currently cached in this process."""
    with _attach_lock:
        return len(_attached)


# ----------------------------------------------------------------------
# attach side (worker processes; also works in-process)
# ----------------------------------------------------------------------
#: Per-process cache of attached segment *handles*, keyed by segment name.
#: Bounded tightly: an unlinked segment's memory survives for as long as any
#: process still maps it, so a long-lived pool worker that cached every
#: segment it ever attached would pin the tmpfs pages of long-dead graphs.
#: A handful of entries is enough — the cache exists so the many ranks of
#: *one* payload map each segment once.  Array views are rebuilt per
#: :func:`attach` call on top of the cached mapping — a plain ``np.ndarray``
#: construction, no syscall.
_ATTACH_CACHE_SIZE = 8
_attached: "OrderedDict[str, Union[shared_memory.SharedMemory, _FileSegment]]" = OrderedDict()
_attach_lock = threading.Lock()


def _close_segment(seg: Union[shared_memory.SharedMemory, _FileSegment]) -> None:
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


def _segment(name: str, kind: str = "shm") -> Union[shared_memory.SharedMemory, _FileSegment]:
    """Open (or recall) the named segment; evicts the oldest over the cap.

    ``kind`` selects the mapping primitive: ``shm_open`` for ``"shm"`` refs,
    a read-only file ``mmap`` for ``"file"`` refs.  The cache key is the
    segment name — shm names and file paths live in disjoint namespaces
    (paths are absolute, shm names are not), so one table serves both.
    """
    with _attach_lock:
        seg = _attached.get(name)
        if seg is not None:
            _attached.move_to_end(name)
            return seg
        if kind == "file":
            seg = _FileSegment(name)
        else:
            seg = shared_memory.SharedMemory(name=name)
        _attached[name] = seg
        while len(_attached) > _ATTACH_CACHE_SIZE:
            _, old = _attached.popitem(last=False)
            _close_segment(old)
        return seg


def attach(ref: ArenaRef) -> np.ndarray:
    """Return a read-only numpy view of the array behind ``ref``.

    Raises ``FileNotFoundError`` when the segment has been unlinked.
    Segment handles are cached per process, so repeated rank tasks over the
    same graph map each segment once.
    """
    if ref.name is None:
        empty = np.empty(ref.shape, dtype=np.dtype(ref.dtype))
        empty.setflags(write=False)
        return empty
    fault_point("arena.attach", name=ref.name)
    seg = _segment(ref.name, ref.kind)
    view = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=seg.buf, offset=ref.offset)
    view.setflags(write=False)
    return view


def _map_leaves(obj: Any, leaf: type, fn: Callable[[Any], Any]) -> Any:
    """Rebuild ``obj`` with every ``leaf`` instance replaced by ``fn(value)``.

    Dicts, lists and tuples are rebuilt (preserving type) in a fixed
    depth-first order; everything else passes through untouched.
    """
    if isinstance(obj, leaf):
        return fn(obj)
    if isinstance(obj, tuple):
        return tuple(_map_leaves(v, leaf, fn) for v in obj)
    if isinstance(obj, list):
        return [_map_leaves(v, leaf, fn) for v in obj]
    if isinstance(obj, dict):
        return {k: _map_leaves(v, leaf, fn) for k, v in obj.items()}
    return obj


def resolve_payload(obj: Any) -> Any:
    """Recursively replace every :class:`ArenaRef` in ``obj`` with its array view.

    This is what the process-backend workers run on their arguments before
    calling the rank function.
    """
    return _map_leaves(obj, ArenaRef, attach)


def export_payload(obj: Any, arena: SharedArena) -> Any:
    """Recursively replace every numpy array in ``obj`` with an :class:`ArenaRef`.

    The inverse of :func:`resolve_payload`: what the ``process-shm`` backends
    run on their payloads before pickling them, so only refs cross the wire.
    All arrays of ``obj`` go through **one** :meth:`SharedArena.export_bundle`
    call, so a whole round's (or map's) payloads cost at most one new segment
    — and none when every array is already in the arena.
    """
    arrays: list[np.ndarray] = []
    _map_leaves(obj, np.ndarray, arrays.append)  # collect, in traversal order
    if not arrays:
        return obj
    bundle = arena.export_bundle({str(i): a for i, a in enumerate(arrays)})
    refs = iter([bundle[str(i)] for i in range(len(arrays))])
    return _map_leaves(obj, np.ndarray, lambda _a: next(refs))


# ----------------------------------------------------------------------
# ambient arena (scoped reuse across runs)
# ----------------------------------------------------------------------
class _AmbientStack(threading.local):
    """Per-thread stack of active arenas.

    Thread-local so two threads running scoped work concurrently (a batch
    group in one, an ad-hoc filter in another) cannot adopt — and then
    unlink — each other's arenas.
    """

    def __init__(self) -> None:
        self.stack: list[SharedArena] = []


_active_arenas = _AmbientStack()


def get_active_arena() -> Optional[SharedArena]:
    """The innermost arena opened by :func:`arena_scope` in this thread."""
    stack = _active_arenas.stack
    return stack[-1] if stack else None


@contextmanager
def owned_arena() -> Iterator[SharedArena]:
    """The ambient arena when one is active, else a private one.

    The shared ownership rule of every ``process-shm`` code path in one
    place: inside an :func:`arena_scope` the scope's arena is reused (and
    left alive — the scope owns it); otherwise a fresh arena is created and
    unlinked when the ``with`` block exits.
    """
    active = get_active_arena()
    if active is not None:
        yield active
        return
    arena = SharedArena()
    try:
        yield arena
    finally:
        arena.unlink()


@contextmanager
def arena_scope(
    arena: Optional[SharedArena] = None, *, path: Optional[str] = None
) -> Iterator[SharedArena]:
    """Make an arena ambient for the duration of the ``with`` block.

    Filters running with a ``process-shm`` backend export into the ambient
    arena instead of creating (and tearing down) a private one per call, so a
    scale-group of batch runs shares segments.  When ``arena`` is ``None`` a
    fresh one is created and **unlinked on exit**; a caller-supplied arena is
    left alive (the caller owns its lifecycle).

    ``path`` (only meaningful when ``arena`` is ``None``) creates the scope's
    arena **file-backed** under that directory instead: on exit it is closed,
    not unlinked, so its segments and manifest persist — the next scope over
    the same directory re-adopts equal payloads by content digest instead of
    re-exporting them.
    """
    created = arena is None
    # A scope's arena lives across many runs, so rebuilt-but-equal payloads
    # are expected — content dedup pays for itself there.
    scoped = SharedArena(content_dedup=True, path=path) if created else arena
    _active_arenas.stack.append(scoped)
    try:
        yield scoped
    finally:
        _active_arenas.stack.pop()
        if created:
            if scoped.kind == "file":
                scoped.close()
            else:
                scoped.unlink()

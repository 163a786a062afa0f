"""Shared helpers of the benchmark: paths, statistics, child processes, leak checks.

Everything the benchmark writes goes under ``.bench_out/`` in the checkout
(port files, span logs, result files); child interpreters run with
``TMPDIR`` pointed there as well.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
ORACLE_FILE = Path(__file__).resolve().parent / "oracle.json"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def prepare_paths() -> None:
    """Make ``repro`` importable from the checkout and route temp files into it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {SRC}")
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(OUT / "tmp")
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_oracle() -> dict[str, Any]:
    with open(ORACLE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchError("median of no samples")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of at least one sample."""
    if not values:
        raise BenchError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def run_child(args: Sequence[str], timeout: float = 170.0) -> tuple[float, int, bytes, int]:
    """Run ``python <args>`` cold; return (wall s, peak RSS kB, stdout, exit code).

    The peak RSS is the child's own ``ru_maxrss`` from ``wait4``, not the
    running maximum over every child this process has reaped.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    try:
        out, _ = _read_all(proc, timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, int(usage.ru_maxrss), out, proc.returncode


def _read_all(proc: subprocess.Popen, timeout: float) -> tuple[bytes, None]:
    """Read a child's stdout to EOF without reaping it (``wait4`` does that)."""
    import selectors

    chunks = []
    deadline = time.monotonic() + timeout
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError(f"child {proc.args!r} ran over {timeout}s")
            if not sel.select(left):
                continue
            chunk = os.read(proc.stdout.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    proc.stdout.close()
    return b"".join(chunks), None


def live_children() -> list[int]:
    """Pids of processes whose parent is this process (Linux ``/proc``)."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may contain spaces; fields resume after ')'.
        fields = stat.rsplit(")", 1)[1].split()
        if fields[0] != "Z" and int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def open_segments() -> int:
    from repro.parallel.shm import open_segment_count

    return open_segment_count()


def leak_report(segments_before: int, extra_files: Sequence[Path] = ()) -> list[str]:
    """Everything a finished workload left behind; an empty list means clean."""
    from repro.parallel.runner import shutdown_worker_pool, worker_pool_size

    leaks = []
    if worker_pool_size():
        leaks.append(f"process pool still alive ({worker_pool_size()} workers)")
        shutdown_worker_pool()
    # multiprocessing's resource tracker outlives every pool by design; stop
    # it (it restarts on demand) so that any child left is a leak.
    getattr(resource_tracker._resource_tracker, "_stop", lambda: None)()
    deadline = time.monotonic() + 5.0
    children = live_children()
    while children and time.monotonic() < deadline:
        time.sleep(0.05)
        children = live_children()
    if children:
        leaks.append(f"live child processes {children}")
    segments = open_segments()
    if segments != segments_before:
        leaks.append(f"open arena segments {segments_before} -> {segments}")
    for path in extra_files:
        if path.exists():
            leaks.append(f"temp file left behind: {path.name}")
    return leaks


def env_info(seed: int) -> dict[str, Any]:
    """What a result depends on besides the code: hardware, threads, versions."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    threads = {k: os.environ[k] for k in thread_vars if k in os.environ}
    nproc = len(os.sched_getaffinity(0))
    return {
        "seed": seed,
        "nproc": nproc,
        "blas": blas_name,
        # Unset thread variables leave OpenBLAS at one thread per usable core.
        "blas_threads": int(next(iter(threads.values()))) if threads else nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def write_out(name: str, payload: Any) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


class Tally:
    """Counts operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def check(self, condition: bool, reason: str) -> bool:
        if condition:
            self.ok()
        else:
            self.fail(reason)
        return condition


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": float(value), "unit": unit}


#: A fixed program that imports nothing from the repository.  Its cold wall
#: time tracks how fast the machine does the same kinds of work as the
#: workloads at the moment: process start, imports, BLAS, interpreter loops.
CALIBRATION = """
import numpy as np
a = np.random.default_rng(0).random((700, 700))
for _ in range(6):
    a @ a
s = 0
for i in range(1500000):
    s += i * i
np.sort(np.random.default_rng(1).random(2000000))
"""
#: The calibration program's wall time on the reference machine (2-core
#: x86-64 VM, Python 3.11, numpy 2.4), where the committed figures come from.
CALIBRATION_REFERENCE_S = 0.45


class Clock:
    """Turns raw timings into reference-machine seconds.

    On a shared machine the speed drifts by half or more between runs while
    staying nearly constant within one.  Each workload therefore runs
    :data:`CALIBRATION` between its operations and reports its timings as
    ``raw * CALIBRATION_REFERENCE_S / median(calibration walls)``, which
    cancels most of that drift and none of the effect of the code under
    test.  The raw timings and calibration walls go in the run's detail.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def calibrate(self) -> None:
        wall, _, _, code = run_child(["-c", CALIBRATION])
        if code != 0:
            raise BenchError(f"calibration program exited {code}")
        self.samples.append(wall)

    @property
    def factor(self) -> float:
        return CALIBRATION_REFERENCE_S / median(self.samples)


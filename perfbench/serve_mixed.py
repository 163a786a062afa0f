"""``serve_mixed``: reads and writes against one warm ``repro serve`` daemon.

The daemon (``--preload CRE --scale 0.15 --workers 2``) runs in its own
process and is driven by a closed loop of two clients, each sending its next
request only after the previous reply.  The seeded schedule holds about 55%
hot ``classify`` reads over a small spec set, 25% cold ``classify`` reads
over orderings x partitions {1,2,4,8} x method, 10% ``enrich`` and 10%
``update`` (every fifth adds samples, the rest add annotations).  One
``reload`` closes the run and replays the run's update log.  Reads and
writes share the cache and the bundle: writes invalidate cached reads, and
the reload grows with the log, so a change that speeds one use at the
other's expense shows.  Scale 0.15 keeps a cache miss interactive.

The schedule has a fixed length (8 requests per second of ``--seconds``),
so the update log, and with it the reload, is the same size on both sides
of a comparison.

Correctness: before any update, the hot specs must equal the cold CLI's
committed digests; the hot specs must return identical bytes before and
after the closing reload; every update must take the delta path.

Metrics: ``setup_s`` is daemon spawn plus preload until the first ``ping``;
``primary_s`` the median cache-miss ``classify`` round trip; ``secondary_s``
the closing ``reload``; ``ops_per_s`` completed requests per second of the
loop; ``peak_rss_mb`` the daemon's ``VmHWM`` before shutdown.  Times are in
reference-machine seconds (see :class:`common.Clock`).  Hit and write
latencies and the miss p90 vary too much between runs to gate on; the
traced pass reports them.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import threading
import time
from typing import Any, Optional

from common import OUT, ROOT, BenchError, Clock, Tally, median, metric, percentile, sha256_hex

SCALE = 0.15
WORKERS = 2
CLIENTS = 2
SETUP_REPEATS = 3
OPS_PER_SECOND = 8
ORDERINGS = ("natural", "high_degree", "low_degree", "rcm")
PARTITIONS = (1, 2, 4, 8)
METHODS = ("chordal", "chordal_comm")
HOT = (("natural", 1, "chordal"), ("high_degree", 2, "chordal"), ("rcm", 4, "chordal_comm"))
COLD = tuple((o, p, m) for o in ORDERINGS for p in PARTITIONS for m in METHODS)
ANNOTATIONS_PER_UPDATE = 3
SAMPLES_PER_UPDATE = 2


def spec_key(spec: tuple[str, int, str]) -> str:
    return "/".join(map(str, spec))


def classify_params(spec: tuple[str, int, str]) -> dict[str, Any]:
    ordering, partitions, method = spec
    return {
        "dataset": "CRE",
        "scale": SCALE,
        "ordering": ordering,
        "partitions": partitions,
        "method": method,
    }


def canonical(result: Any) -> bytes:
    """The bytes ``repro analyze --json`` prints for the same payload."""
    return (json.dumps(result, sort_keys=True, separators=(",", ":")) + "\n").encode()


def make_schedule(rng: random.Random, n_ops: int) -> list[tuple[str, dict[str, Any]]]:
    """``(op, params)`` for each request, in the order clients take them."""
    ops = []
    for i in range(n_ops):
        if i % 10 == 9:
            if (i // 10) % 5 == 4:
                counts = {"add_samples": SAMPLES_PER_UPDATE}
            else:
                counts = {"add_annotations": ANNOTATIONS_PER_UPDATE}
            params = {"dataset": "CRE", "scale": SCALE, "seed": rng.randrange(1 << 30), **counts}
            ops.append(("update", params))
            continue
        x = rng.random() * 90
        if x < 55:
            ops.append(("classify", classify_params(rng.choice(HOT))))
        elif x < 80:
            ops.append(("classify", classify_params(rng.choice(COLD))))
        elif rng.random() < 0.5:
            ops.append(("enrich", {"dataset": "CRE", "scale": SCALE}))
        else:
            ordering, partitions, method = rng.choice(COLD)
            params = {"dataset": "CRE", "scale": SCALE, "source": "filtered"}
            params.update(ordering=ordering, partitions=partitions, method=method)
            ops.append(("enrich", params))
    return ops


class Daemon:
    """One ``repro serve`` process and a client connection to it."""

    def __init__(self, name: str) -> None:
        from repro.serve import ServeClient

        self.port_file = OUT / f"port-{name}"
        self.port_file.unlink(missing_ok=True)
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--preload", "CRE", "--scale", str(SCALE),
                "--workers", str(WORKERS), "--port-file", str(self.port_file),
            ],
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            self.port = self._wait_port(120.0)
            self.client = ServeClient(port=self.port, timeout=120.0, connect_retries=20)
            self.client.ping()
        except BaseException:
            self.close()
            raise

    def _wait_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"daemon exited with {self.proc.returncode} before listening")
            try:
                text = self.port_file.read_text().strip()
            except FileNotFoundError:
                text = ""
            if text:
                return int(text)
            time.sleep(0.005)
        raise BenchError("daemon did not write its port file in time")

    def vm_hwm_kb(self) -> int:
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise BenchError("no VmHWM in daemon status")

    def close(self) -> None:
        """Shut the daemon down, by request if possible, and reap it."""
        if self.proc.poll() is None:
            try:
                self.client.request("shutdown")
            except (AttributeError, OSError, RuntimeError):
                pass
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        client = getattr(self, "client", None)
        if client is not None:
            client.close()
        self.port_file.unlink(missing_ok=True)


def _client_loop(port: int, take, records: list, lock: threading.Lock) -> None:
    from repro.serve import ServeClient

    with ServeClient(port=port, timeout=120.0) as client:
        while True:
            item = take()
            if item is None:
                return
            op, params = item
            start = time.perf_counter()
            response = client.request(op, **params)
            latency = time.perf_counter() - start
            with lock:
                records.append((op, latency, response))


def session(
    daemon: Daemon,
    seed: int,
    n_ops: int,
    tally: Tally,
    oracle: dict[str, Any],
    clock: Optional[Clock] = None,
) -> dict:
    """Oracle warm-up, the closed loop, then probes around the closing reload.

    A ``clock`` calibrates while the daemon is idle: before the loop, after
    it and after the reload.
    """
    calibrate = clock.calibrate if clock is not None else (lambda: None)
    client = daemon.client
    digests = oracle["serve_mixed"]
    for spec in HOT:
        body = canonical(client.result("classify", **classify_params(spec)))
        tally.check(
            sha256_hex(body) == digests[spec_key(spec)],
            f"pre-update classify {spec_key(spec)} differs from the cold CLI",
        )

    schedule = make_schedule(random.Random(seed), n_ops)
    cursor = iter(schedule)
    take_lock = threading.Lock()

    def take():
        with take_lock:
            return next(cursor, None)

    records: list = []
    record_lock = threading.Lock()
    calibrate()
    threads = [
        threading.Thread(target=_client_loop, args=(daemon.port, take, records, record_lock))
        for _ in range(CLIENTS)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    loop_s = time.perf_counter() - start
    tally.check(len(records) == n_ops, f"{n_ops - len(records)} requests never completed")
    calibrate()

    misses, hits, writes = [], [], []
    for op, latency, response in records:
        if not response.get("ok"):
            code = (response.get("error") or {}).get("code")
            tally.fail(f"{op} failed: {code}")
            continue
        if op == "update":
            mode = response["result"].get("mode")
            tally.check(mode == "delta", f"update took the {mode} path")
            writes.append(latency)
            continue
        tally.ok()
        if op == "classify":
            (hits if response.get("cached") else misses).append(latency)

    # Read the counters before the reload: it restarts the enrichment batcher.
    stats = client.result("stats")
    before = [canonical(client.result("classify", **classify_params(s))) for s in HOT]
    reload_start = time.perf_counter()
    client.result("reload", dataset="CRE", scale=SCALE)
    reload_s = time.perf_counter() - reload_start
    calibrate()
    after = [canonical(client.result("classify", **classify_params(s))) for s in HOT]
    for spec, a, b in zip(HOT, before, after):
        tally.check(a == b, f"probe {spec_key(spec)} changed across the reload")

    rss_kb = daemon.vm_hwm_kb()
    cache = stats["cache"]
    enrichment = stats["enrichment"]
    return {
        "loop_s": loop_s,
        "n_ops": len(records),
        "miss_s": misses,
        "hit_s": hits,
        "write_s": writes,
        "reload_s": reload_s,
        "rss_kb": rss_kb,
        "cache_hits": cache["hits"],
        "cache_misses": cache["misses"],
        "invalidated": cache["invalidated"],
        "rejected": stats["admission"]["rejected"],
        "batches": enrichment["batches"],
        "coalesced": enrichment["coalesced_requests"],
        "update_log_len": stats["datasets"][0]["updates"],
    }


def run(seed: int, seconds: int, tally: Tally, oracle: dict[str, Any]) -> tuple[dict, dict]:
    setups = []
    clock = Clock()
    daemon: Optional[Daemon] = None
    try:
        clock.calibrate()
        for i in range(SETUP_REPEATS):
            if daemon is not None:
                daemon.close()
            start = time.perf_counter()
            daemon = Daemon(f"setup{i}")
            setups.append(time.perf_counter() - start)
        rec = session(daemon, seed, OPS_PER_SECOND * seconds, tally, oracle, clock)
    finally:
        if daemon is not None:
            daemon.close()
    k = clock.factor
    metrics = {
        "setup_s": metric(k * median(setups), "s"),
        "primary_s": metric(k * median(rec["miss_s"]), "s"),
        "secondary_s": metric(k * rec["reload_s"], "s"),
        "ops_per_s": metric(rec["n_ops"] / rec["loop_s"] / k, "1/s"),
        "peak_rss_mb": metric(rec["rss_kb"] / 1024.0, "MB"),
    }
    detail = {
        "setup_s": setups,
        "serve_rps": rec["n_ops"] / rec["loop_s"],
        "serve_miss_p50_ms": 1000 * median(rec["miss_s"]),
        "serve_miss_p90_ms": 1000 * percentile(rec["miss_s"], 90),
        "serve_miss_count": len(rec["miss_s"]),
        "serve_write_p50_ms": 1000 * median(rec["write_s"]),
        "serve_reload_s": rec["reload_s"],
        "serve_rss_mb": rec["rss_kb"] / 1024.0,
        "serve_hit_p50_ms": 1000 * median(rec["hit_s"]) if rec["hit_s"] else None,
        "update_log_len": rec["update_log_len"],
        "calibration_s": clock.samples,
    }
    return metrics, detail

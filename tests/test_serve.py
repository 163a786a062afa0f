"""Tests for the resident analysis service: protocol, cache, equivalence.

The concurrency stress tier lives in ``test_serve_concurrency.py`` and the
fault-injection tier in ``test_serve_faults.py``; this module covers the
functional promises — protocol round-trip pins, LRU cache behaviour,
reload-invalidation and the byte-identity of served responses against the
cold CLI across the ordering × partitioner grid.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main as cli_main
from repro.ontology import reference_score_cluster
from repro.serve import (
    ProtocolError,
    ReproServer,
    ResultCache,
    ServeClient,
    ServerState,
    error_response,
    ok_response,
    parse_request,
    read_message,
    request_spec,
    spec_hash,
    write_message,
)

SCALE = 0.02


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_round_trip_one_line_per_message(self):
        buf = io.BytesIO()
        write_message(buf, {"id": 1, "op": "ping", "params": {}})
        write_message(buf, {"id": 2, "op": "stats", "params": {"b": 1, "a": 2}})
        raw = buf.getvalue()
        assert raw.count(b"\n") == 2
        buf.seek(0)
        first = read_message(buf)
        second = read_message(buf)
        assert first == {"id": 1, "op": "ping", "params": {}}
        assert second["params"] == {"a": 2, "b": 1}
        assert read_message(buf) is None  # clean EOF

    def test_canonical_bytes_are_sorted_and_compact(self):
        buf = io.BytesIO()
        write_message(buf, {"z": 1, "a": {"y": 2, "b": 3}})
        assert buf.getvalue() == b'{"a":{"b":3,"y":2},"z":1}\n'

    def test_undecodable_line_raises(self):
        assert read_message(io.BytesIO(b"")) is None
        with pytest.raises(ProtocolError):
            read_message(io.BytesIO(b"not json\n"))

    def test_parse_request_validation(self):
        req = parse_request({"id": 7, "op": "filter", "params": {"dataset": "CRE"}})
        assert (req.id, req.op, req.params) == (7, "filter", {"dataset": "CRE"})
        assert parse_request({"op": "ping"}).params == {}
        with pytest.raises(ProtocolError):
            parse_request(["not", "an", "object"])
        with pytest.raises(ProtocolError):
            parse_request({"id": 1})  # no op
        with pytest.raises(ProtocolError):
            parse_request({"op": ""})
        with pytest.raises(ProtocolError):
            parse_request({"op": "x", "params": [1]})
        with pytest.raises(ProtocolError):
            parse_request({"op": "x", "id": 1.5})

    def test_spec_hash_is_order_independent_and_param_sensitive(self):
        a = spec_hash("filter", {"dataset": "CRE", "seed": 1})
        b = spec_hash("filter", {"seed": 1, "dataset": "CRE"})
        c = spec_hash("filter", {"dataset": "CRE", "seed": 2})
        d = spec_hash("classify", {"dataset": "CRE", "seed": 1})
        assert a == b
        assert a != c
        assert a != d
        assert len(a) == 16 and int(a, 16) >= 0

    def test_request_spec_pins_shape(self):
        spec = request_spec("enrich", {"scale": 0.02, "dataset": "CRE"})
        assert canonical(spec) == '{"op":"enrich","params":{"dataset":"CRE","scale":0.02}}'

    def test_response_shapes(self):
        ok = ok_response(3, {"x": 1}, cached=True, request_hash="ff")
        assert ok == {"id": 3, "ok": True, "result": {"x": 1}, "cached": True, "spec_hash": "ff"}
        plain = ok_response(4, [1, 2])
        assert "cached" not in plain and "spec_hash" not in plain
        err = error_response(5, "busy", "try later")
        assert err == {"id": 5, "ok": False, "error": {"code": "busy", "message": "try later"}}


# ----------------------------------------------------------------------
# result cache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_hit_miss_and_lru_eviction(self):
        cache = ResultCache(capacity=2)
        assert cache.get("a", 0) is None  # miss
        cache.put("a", "CRE@0.02", 0, {"v": "a"})
        cache.put("b", "CRE@0.02", 0, {"v": "b"})
        assert cache.get("a", 0) == {"v": "a"}  # touches a → b becomes LRU
        cache.put("c", "CRE@0.02", 0, {"v": "c"})  # evicts b
        assert cache.get("b", 0) is None
        assert cache.get("a", 0) == {"v": "a"}
        assert cache.get("c", 0) == {"v": "c"}
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.hits == 3
        assert stats.misses == 2
        assert len(cache) == 2

    def test_stale_generation_entry_dropped_lazily(self):
        cache = ResultCache(capacity=4)
        cache.put("k", "CRE@0.02", 0, {"gen": 0})
        assert cache.get("k", 1) is None  # generation moved on → stale
        assert len(cache) == 0
        stats = cache.stats()
        assert stats.invalidated == 1
        assert stats.misses == 1

    def test_invalidate_dataset_drops_only_that_dataset(self):
        cache = ResultCache(capacity=8)
        cache.put("k1", "CRE@0.02", 0, 1)
        cache.put("k2", "CRE@0.02", 0, 2)
        cache.put("k3", "YNG@0.02", 0, 3)
        assert cache.invalidate_dataset("CRE@0.02") == 2
        assert cache.get("k3", 0) == 3
        assert cache.get("k1", 0) is None
        assert cache.stats().invalidated == 2

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)


class TestConstruction:
    def test_study_seed_refused(self):
        # A daemon builds every dataset at its per-dataset study seed, as the
        # cold CLI does, so served and cold bytes can be compared.
        with pytest.raises(TypeError):
            ReproServer(default_scale=SCALE, seed=1)
        with pytest.raises(TypeError):
            ServerState(SCALE, seed=1)


# ----------------------------------------------------------------------
# served round-trips against a live daemon
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def server():
    with ReproServer(default_scale=SCALE, workers=2, max_pending=16) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with ServeClient(port=server.port, timeout=600.0) as c:
        yield c


class TestServedRoundTrips:
    def test_ping_reports_protocol(self, client):
        result = client.ping()
        assert result["status"] == "ok"
        assert result["protocol"] == 1

    def test_unknown_op_is_bad_request(self, client):
        response = client.request("frobnicate")
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-request"

    def test_bad_params_are_bad_request_with_reason(self, client):
        response = client.request("filter", dataset="NOPE")
        assert response["error"]["code"] == "bad-request"
        assert "NOPE" in response["error"]["message"]
        response = client.request("classify", ordering="zigzag")
        assert response["error"]["code"] == "bad-request"
        response = client.request("filter", partitions=0)
        assert response["error"]["code"] == "bad-request"
        response = client.request("filter", bogus_key=1)
        assert response["error"]["code"] == "bad-request"
        assert "bogus_key" in response["error"]["message"]

    @pytest.mark.parametrize("partitions", [1, 2])
    def test_unknown_partition_method_is_bad_request(self, client, partitions):
        # Refused before admission at every P: no worker runs, nothing is cached.
        admitted = client.result("stats")["admission"]["admitted"]
        response = client.request(
            "filter", dataset="CRE", partitions=partitions, partition_method="bogus"
        )
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-request"
        assert "bogus" in response["error"]["message"]
        assert client.result("stats")["admission"]["admitted"] == admitted
        assert client.ping()["status"] == "ok"

    def test_null_ordering_of_a_chordal_run_is_bad_request(self, client):
        # Every chordal run is named by an ordering; the random walk ignores it.
        response = client.request("filter", dataset="CRE", ordering=None)
        assert response["error"]["code"] == "bad-request"
        walk = client.request("filter", dataset="CRE", method="random_walk", ordering=None)
        assert walk["ok"] and walk["result"]["ordering"] is None

    def test_ordering_abbreviation_is_the_canonical_spec(self, client):
        short = client.request("filter", dataset="CRE", ordering="hd", partitions=2)
        full = client.request("filter", dataset="CRE", ordering="high_degree", partitions=2)
        assert short["ok"] and full["ok"]
        assert short["spec_hash"] == full["spec_hash"]
        assert full["cached"] is True
        assert canonical(short["result"]) == canonical(full["result"])
        assert full["result"]["ordering"] == "high_degree"

    @pytest.mark.parametrize(
        "scale", [float("nan"), float("inf"), "nan", "Infinity", True, False]
    )
    def test_non_finite_and_boolean_scale_are_bad_request(self, client, scale):
        # The wire JSON carries NaN / Infinity literals, which json.loads accepts.
        response = client.request("filter", dataset="CRE", scale=scale)
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-request"
        assert "scale" in response["error"]["message"]

    def test_filter_caches_by_spec_hash(self, client):
        # The random walk keeps its seed, so seed 41 is this test's own entry.
        first = client.request("filter", dataset="CRE", method="random_walk", seed=41)
        second = client.request("filter", dataset="CRE", method="random_walk", seed=41)
        assert first["ok"] and second["ok"]
        assert first["cached"] is False
        assert second["cached"] is True
        assert first["spec_hash"] == second["spec_hash"]
        assert canonical(first["result"]) == canonical(second["result"])

    def test_equivalent_spellings_share_one_cache_entry(self, client):
        # Lower-case dataset + explicit defaults vs bare: one normalised spec.
        a = client.request("filter", dataset="cre")
        b = client.request(
            "filter",
            dataset="CRE",
            method="chordal",
            ordering="natural",
            partitions=1,
            partition_method="block",
            seed=0,
        )
        assert a["spec_hash"] == b["spec_hash"]
        assert b["cached"] is True

    def test_chordal_seed_is_not_part_of_the_spec(self, client):
        # The chordal filters never draw from the seed: seeds 1 and 2 are one
        # spec, one cache entry and the same bytes.
        for partitions in (1, 2):
            spec = {"dataset": "CRE", "ordering": "rcm", "partitions": partitions}
            one = client.request("filter", seed=1, **spec)
            two = client.request("filter", seed=2, **spec)
            assert one["ok"] and two["ok"]
            assert one["spec_hash"] == two["spec_hash"]
            assert two["cached"] is True
            assert canonical(one["result"]) == canonical(two["result"])

    def test_partition_method_of_a_single_partition_is_not_part_of_the_spec(self, client):
        # P=1 runs the sequential filter, which partitions nothing.
        for method in ("chordal", "random_walk"):
            spec = {"dataset": "CRE", "method": method, "ordering": "low_degree", "seed": 46}
            block = client.request("filter", partition_method="block", **spec)
            greedy = client.request("filter", partition_method="greedy", **spec)
            assert block["spec_hash"] == greedy["spec_hash"]
            assert greedy["cached"] is True
            assert canonical(block["result"]) == canonical(greedy["result"])

    def test_random_walk_seed_and_parallel_partition_method_stay_in_the_spec(self, client):
        walk = [
            client.request("filter", dataset="CRE", method="random_walk", seed=seed)
            for seed in (47, 48)
        ]
        assert walk[0]["spec_hash"] != walk[1]["spec_hash"]
        assert walk[1]["cached"] is False
        parts = [
            client.request(
                "filter", dataset="CRE", ordering="low_degree", partitions=2, partition_method=pm
            )
            for pm in ("block", "hash")
        ]
        assert parts[0]["spec_hash"] != parts[1]["spec_hash"]
        assert parts[1]["cached"] is False

    def test_reload_invalidates_cached_entries(self, client):
        before = client.request("filter", dataset="CRE", method="random_walk", seed=43)
        again = client.request("filter", dataset="CRE", method="random_walk", seed=43)
        assert again["cached"] is True
        reload_result = client.result("reload", dataset="CRE")
        assert reload_result["invalidated"] >= 1
        after = client.request("filter", dataset="CRE", method="random_walk", seed=43)
        assert after["cached"] is False  # stale spec-hash entry was dropped
        # The rebuilt bundle is deterministic, so the payload is unchanged.
        assert canonical(after["result"]) == canonical(before["result"])
        generation = [d for d in client.result("datasets") if d["dataset"] == "CRE"]
        assert generation and generation[0]["generation"] >= 1

    def test_stats_expose_every_layer(self, client):
        client.request("filter", dataset="CRE")
        stats = client.result("stats")
        assert stats["protocol"] == 1
        assert stats["cache"]["capacity"] == 256
        assert set(stats["admission"]) == {
            "admitted", "rejected", "executed", "in_flight", "pending",
            "workers_alive", "worker_respawns",
        }
        assert set(stats["enrichment"]) == {"batches", "coalesced_requests", "scored_clusters"}
        assert set(stats["supervision"]) == {"retries", "degrades"}
        assert set(stats["comm"]) == {
            "messages_sent", "messages_received", "items_sent", "items_received",
            "bytes_sent", "bytes_received",
        }
        assert any(d["dataset"] == "CRE" for d in stats["datasets"])
        assert all(d["health"] == "healthy" for d in stats["datasets"])

    def test_stats_sections_are_exactly_the_layers(self, client):
        stats = client.result("stats")
        assert set(stats) == {
            "protocol", "host", "port", "uptime_s", "default_scale", "workers",
            "max_pending", "admission", "cache", "enrichment", "supervision",
            "comm", "datasets",
        }

    def test_enrich_original_matches_direct_scoring(self, server, client):
        result = client.result("enrich", dataset="CRE")
        state = server.state.get("CRE", SCALE)
        scorer = state.bundle.scorer
        expected = [
            reference_score_cluster(scorer.dag, scorer.annotations, c.subgraph).aees
            for c in state.bundle.original_clusters
        ]
        assert result["n_clusters"] == len(expected)
        assert [r["aees_hex"] for r in result["clusters"]] == [float(v).hex() for v in expected]


# ----------------------------------------------------------------------
# byte-identity against the cold CLI (ordering × partitioner grid)
# ----------------------------------------------------------------------
def cold_cli_json(capsys, argv) -> str:
    assert cli_main(argv) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("{") and out.endswith("}")
    return out


class TestColdCliEquivalence:
    @pytest.mark.parametrize("ordering", ["natural", "rcm", "high_degree", "low_degree"])
    @pytest.mark.parametrize("partition_method", ["block", "hash"])
    def test_filter_grid_byte_identical(self, server, client, capsys, ordering, partition_method):
        cold = cold_cli_json(
            capsys,
            [
                "filter", "--dataset", "CRE", "--scale", str(SCALE),
                "--ordering", ordering, "--partitions", "2",
                "--partition-method", partition_method, "--json",
            ],
        )
        warm = client.result(
            "filter",
            dataset="CRE",
            ordering=ordering,
            partitions=2,
            partition_method=partition_method,
        )
        assert canonical(warm) == cold

    @pytest.mark.parametrize("command, op", [("filter", "filter"), ("analyze", "classify")])
    def test_ordering_abbreviation_byte_identical(self, client, capsys, command, op):
        # The CLI resolves a paper abbreviation as serve does.
        cold = cold_cli_json(
            capsys,
            [command, "--dataset", "CRE", "--scale", str(SCALE), "--ordering", "hd", "--json"],
        )
        assert canonical(client.result(op, dataset="CRE", ordering="hd")) == cold
        assert canonical(client.result(op, dataset="CRE", ordering="high_degree")) == cold

    def test_classify_byte_identical(self, client, capsys):
        cold = cold_cli_json(
            capsys,
            ["analyze", "--dataset", "CRE", "--scale", str(SCALE), "--json"],
        )
        warm = client.result("classify", dataset="CRE")
        assert canonical(warm) == cold

    def test_classify_random_walk_byte_identical(self, client, capsys):
        cold = cold_cli_json(
            capsys,
            [
                "analyze", "--dataset", "CRE", "--scale", str(SCALE),
                "--method", "random_walk", "--seed", "7", "--json",
            ],
        )
        warm = client.result("classify", dataset="CRE", method="random_walk", seed=7)
        assert canonical(warm) == cold

    def test_repeat_of_served_request_still_byte_identical(self, client, capsys):
        # The cache-hit path must serve the same bytes as the miss path.
        cold = cold_cli_json(
            capsys,
            ["filter", "--dataset", "CRE", "--scale", str(SCALE), "--ordering", "rcm", "--json"],
        )
        miss = client.request("filter", dataset="CRE", ordering="rcm")
        hit = client.request("filter", dataset="CRE", ordering="rcm")
        assert hit["cached"] is True or miss["cached"] is True  # second is always a hit
        assert canonical(miss["result"]) == cold
        assert canonical(hit["result"]) == cold



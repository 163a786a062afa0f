"""Unit tests for the unified apply_filter front-end."""

from __future__ import annotations

import pytest

from repro.core import FILTERS, apply_filter, filter_names, is_chordal
from repro.graph import correlation_like_graph


@pytest.fixture(scope="module")
def network():
    return correlation_like_graph(n_modules=3, module_size=7, n_background=50, seed=31)


class TestDispatch:
    def test_chordal_sequential_when_one_partition(self, network):
        result = apply_filter(network, method="chordal", n_partitions=1)
        assert result.method == "chordal_sequential"
        assert is_chordal(result.graph)

    def test_chordal_parallel_when_many_partitions(self, network):
        result = apply_filter(network, method="chordal", n_partitions=4)
        assert result.method == "chordal_nocomm"
        assert result.n_partitions == 4

    def test_chordal_comm_dispatch(self, network):
        result = apply_filter(network, method="chordal_comm", n_partitions=4)
        assert result.method == "chordal_comm"

    def test_chordal_comm_single_partition_falls_back(self, network):
        result = apply_filter(network, method="chordal_comm", n_partitions=1)
        assert result.method == "chordal_sequential"

    def test_random_walk_dispatch(self, network):
        seq = apply_filter(network, method="random_walk", n_partitions=1, seed=3)
        par = apply_filter(network, method="random_walk", n_partitions=4, seed=3)
        assert seq.method == "random_walk_sequential"
        assert par.method == "random_walk"

    def test_unknown_method_raises(self, network):
        with pytest.raises(KeyError):
            apply_filter(network, method="forest_fire")

    def test_filter_names_and_registry(self):
        assert set(filter_names()) <= set(FILTERS) | {"chordal", "chordal_comm", "random_walk"}
        assert "chordal" in FILTERS


class TestParameterForwarding:
    def test_ordering_forwarded(self, network):
        result = apply_filter(network, method="chordal", ordering="high_degree", n_partitions=2)
        assert result.ordering == "high_degree"

    @pytest.mark.parametrize("method", ["chordal", "chordal_comm"])
    @pytest.mark.parametrize("n_partitions", [1, 2])
    def test_ordering_abbreviation_recorded_by_canonical_name(self, network, method, n_partitions):
        short = apply_filter(network, method=method, ordering="LD", n_partitions=n_partitions)
        full = apply_filter(network, method=method, ordering="low_degree", n_partitions=n_partitions)
        assert short.ordering == full.ordering == "low_degree"
        assert short.kept.tolist() == full.kept.tolist()

    def test_partition_method_forwarded(self, network):
        result = apply_filter(network, method="chordal", n_partitions=4, partition_method="hash")
        assert result.partition_method == "hash"

    def test_seed_forwarded_to_random_walk(self, network):
        a = apply_filter(network, method="random_walk", n_partitions=2, seed=11)
        b = apply_filter(network, method="random_walk", n_partitions=2, seed=11)
        assert a.graph == b.graph

    def test_irrelevant_kwargs_dropped_gracefully(self, network):
        # a seed passed to the chordal filter is ignored rather than rejected
        result = apply_filter(network, method="chordal", n_partitions=2, seed=5)
        assert result.method == "chordal_nocomm"

    def test_explicit_order_and_strict_order_refused(self, network):
        # Every run is named by an ordering and takes the greedy DSW rule:
        # a caller-given vertex order or strict processing is refused.
        order = list(reversed(network.vertices()))
        for method in filter_names():
            for n_partitions in (1, 2):
                with pytest.raises(TypeError):
                    apply_filter(network, method=method, n_partitions=n_partitions, explicit_order=order)
                with pytest.raises(TypeError):
                    apply_filter(network, method=method, n_partitions=n_partitions, strict_order=True)

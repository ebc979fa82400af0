"""Unit tests for the adjacency-list GraphSample."""

import random

import pytest

from repro.errors import SamplingError
from repro.sampling.adjacency_sample import GraphSample
from repro.sampling.random_pairing import RandomPairing
from repro.streams.dynamic import make_fully_dynamic


class TestBasics:
    def test_empty(self):
        s = GraphSample()
        assert s.num_edges == 0
        assert len(s) == 0
        assert not s.contains(1, 2)

    def test_add_and_query(self):
        s = GraphSample()
        s.add_edge(1, 10)
        assert s.contains(1, 10)
        assert (1, 10) in s
        assert s.neighbors(1) == {10}
        assert s.neighbors(10) == {1}
        assert s.degree(1) == 1

    def test_duplicate_add_raises(self):
        s = GraphSample()
        s.add_edge(1, 10)
        with pytest.raises(SamplingError):
            s.add_edge(1, 10)

    def test_remove_present(self):
        s = GraphSample()
        s.add_edge(1, 10)
        assert s.remove_edge(1, 10) is True
        assert s.num_edges == 0
        assert s.neighbors(1) == frozenset()

    def test_remove_absent_returns_false(self):
        s = GraphSample()
        assert s.remove_edge(1, 10) is False

    def test_degree_sum(self):
        s = GraphSample()
        s.add_edge(1, 10)
        s.add_edge(1, 11)
        s.add_edge(2, 10)
        assert s.degree_sum([1, 2]) == 3
        assert s.degree_sum([10, 11]) == 3
        assert s.degree_sum([]) == 0

    def test_edges_snapshot(self):
        s = GraphSample()
        s.add_edge(1, 10)
        s.add_edge(2, 11)
        assert set(s.edges()) == {(1, 10), (2, 11)}

    def test_clear(self):
        s = GraphSample()
        s.add_edge(1, 10)
        s.clear()
        assert s.num_edges == 0


class TestEviction:
    def test_evict_from_empty_raises(self):
        with pytest.raises(SamplingError):
            GraphSample().evict_random_edge(random.Random(0))

    def test_evict_removes_one(self):
        s = GraphSample()
        for i in range(10):
            s.add_edge(i, 100 + i)
        evicted = s.evict_random_edge(random.Random(1))
        assert s.num_edges == 9
        assert evicted not in s

    def test_eviction_is_uniform(self):
        # Chi-squared-style sanity: each of 5 edges evicted ~1/5 of runs.
        counts = {i: 0 for i in range(5)}
        trials = 5000
        rng = random.Random(7)
        for _ in range(trials):
            s = GraphSample()
            for i in range(5):
                s.add_edge(i, 100 + i)
            evicted = s.evict_random_edge(rng)
            counts[evicted[0]] += 1
        for c in counts.values():
            assert abs(c - trials / 5) < trials * 0.05

    def test_index_consistent_after_mixed_mutations(self):
        rng = random.Random(3)
        s = GraphSample()
        live = set()
        for step in range(2000):
            if live and rng.random() < 0.4:
                edge = rng.choice(sorted(live))
                s.remove_edge(*edge)
                live.remove(edge)
            elif live and rng.random() < 0.1:
                evicted = s.evict_random_edge(rng)
                live.remove(evicted)
            else:
                edge = (rng.randrange(50), 100 + rng.randrange(50))
                if edge not in live:
                    s.add_edge(*edge)
                    live.add(edge)
        assert set(s.edges()) == live
        assert s.num_edges == len(live)


class TestRecorder:
    def test_recorder_sees_all_mutations(self):
        events = []
        s = GraphSample(recorder=lambda op, u, v: events.append((op, u, v)))
        s.add_edge(1, 10)
        s.remove_edge(1, 10)
        assert events == [("+", 1, 10), ("-", 1, 10)]

    def test_recorder_sees_eviction(self):
        events = []
        s = GraphSample(recorder=lambda op, u, v: events.append((op, u, v)))
        s.add_edge(1, 10)
        s.evict_random_edge(random.Random(0))
        assert events[-1] == ("-", 1, 10)

    def test_recorder_detachable(self):
        events = []
        s = GraphSample(recorder=lambda op, u, v: events.append(op))
        s.add_edge(1, 10)
        s.recorder = None
        s.add_edge(2, 11)
        assert events == ["+"]


def _assert_weights_exact(sample):
    """Every sampled vertex's stored W(x) equals the summed one."""
    assert sample.weights_live
    for vertex in {x for edge in sample.edges() for x in edge}:
        neighbors = sample.neighbors(vertex)
        assert neighbors.weight == sample.degree_sum(neighbors), vertex


def _random_edge(rng, bipartite):
    if bipartite:
        return rng.randrange(12), 100 + rng.randrange(9)
    # A general graph, canonicalised as TRIEST does: no partition, so a
    # vertex can sit at either end; self-loops too.
    u, v = rng.randrange(14), rng.randrange(14)
    return min(u, v), max(u, v)


def _mutate(sample, rng, steps, bipartite, toggle=False):
    """Random add/remove/evict/clear (and upkeep toggles) on ``sample``."""
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.5:
            edge = _random_edge(rng, bipartite)
            if edge not in sample:
                sample.add_edge(*edge)
        elif roll < 0.75:
            if sample.num_edges:
                sample.remove_edge(*rng.choice(sample.edges()))
            else:
                assert not sample.remove_edge(*_random_edge(rng, bipartite))
        elif roll < 0.9:
            if sample.num_edges:
                sample.evict_random_edge(rng)
        elif roll < 0.91:
            sample.clear()
        elif toggle and roll < 0.96:
            sample.keep_weights(not sample.weights_live)
        if sample.weights_live:
            _assert_weights_exact(sample)


class TestStoredWeights:
    """``NeighborSet.weight`` is W(x), the cheapest-side test's sum.

    No NumPy here: these run on every CI leg.
    """

    def test_small_example(self):
        s = GraphSample()
        s.add_edge(1, 10)
        s.add_edge(1, 11)
        s.add_edge(2, 10)
        # d(1) = 2, d(2) = 1, d(10) = 2, d(11) = 1.
        assert s.neighbors(1).weight == 3
        assert s.neighbors(2).weight == 2
        assert s.neighbors(10).weight == 3
        assert s.neighbors(11).weight == 2
        s.remove_edge(1, 10)
        assert s.neighbors(1).weight == 1
        assert s.neighbors(2).weight == 1
        assert s.neighbors(10).weight == 1
        assert s.neighbors(11).weight == 1

    @pytest.mark.parametrize("bipartite", [True, False])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_mutations(self, bipartite, seed):
        sample = GraphSample()
        _mutate(sample, random.Random(seed), 400, bipartite)
        _assert_weights_exact(sample)

    @pytest.mark.parametrize("bipartite", [True, False])
    @pytest.mark.parametrize("seed", range(8))
    def test_upkeep_off_then_on(self, bipartite, seed):
        rng = random.Random(50 + seed)
        sample = GraphSample()
        _mutate(sample, rng, 150, bipartite)
        sample.keep_weights(False)
        assert not sample.weights_live
        _mutate(sample, rng, 150, bipartite)
        sample.keep_weights(True)
        _assert_weights_exact(sample)
        _mutate(sample, rng, 300, bipartite, toggle=True)
        sample.keep_weights(True)
        _assert_weights_exact(sample)

    def test_samples_without_a_side_test_skip_the_upkeep(self):
        from repro.baselines.cas import CoAffiliationSampling

        assert not CoAffiliationSampling(50, seed=1)._sample.weights_live

    def test_lazy_abacus_sums_instead(self):
        # It reads the side test about once per mutation.
        from repro.core.lazy import LazyAbacus

        assert not LazyAbacus(50, seed=1).sample.weights_live

    def test_fleet_resize_rebuilds_the_weights(self):
        from repro.baselines.fleet import Fleet
        from repro.types import insertion

        rng = random.Random(4)
        fleet = Fleet(40, seed=2)
        for edge in sorted({_random_edge(rng, True) for _ in range(300)}):
            fleet.process(insertion(*edge))
        assert fleet.num_resizes > 0
        _assert_weights_exact(fleet._sample)

    def test_keep_weights_is_idempotent(self):
        sample = GraphSample()
        _mutate(sample, random.Random(9), 200, True)
        sample.keep_weights(True)
        _assert_weights_exact(sample)
        sample.keep_weights(False)
        sample.keep_weights(False)
        sample.keep_weights(True)
        _assert_weights_exact(sample)

    @pytest.mark.parametrize("weights_live", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_restore_state(self, weights_live, seed):
        rng = random.Random(seed)
        edges = {
            (rng.randrange(30), 100 + rng.randrange(20)) for _ in range(300)
        }
        stream = make_fully_dynamic(sorted(edges), 0.3, random.Random(seed))
        source = RandomPairing(60, random.Random(seed))
        for element in stream:
            source.process(element)
        restored = RandomPairing(60)
        restored.sample.keep_weights(weights_live)
        restored.restore_state(source.state_to_dict())
        assert restored.sample.weights_live is weights_live
        assert restored.sample.edges() == source.sample.edges()
        restored.sample.keep_weights(True)
        _assert_weights_exact(restored.sample)
        _assert_weights_exact(source.sample)

"""Unit and statistical tests for per-edge support estimation."""

import math
import random

import pytest

from repro.core.support import AbacusSupport
from repro.errors import EstimatorError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.bitruss import butterfly_support
from repro.graph.generators import bipartite_erdos_renyi
from repro.streams.dynamic import make_fully_dynamic, stream_from_edges
from repro.types import deletion, insertion


def _butterfly_elements():
    """The minimal butterfly {u, x} x {v, w} as four insertions."""
    return [
        insertion("u", "v"),
        insertion("u", "w"),
        insertion("x", "v"),
        insertion("x", "w"),
    ]


class TestExactRegime:
    """With budget >= stream size the sample is the full graph, so the
    estimator is exact and deterministic."""

    def test_single_butterfly_supports(self):
        est = AbacusSupport(budget=100, seed=0)
        for element in _butterfly_elements():
            est.process(element)
        supports = est.support_estimates()
        for edge in [("u", "v"), ("u", "w"), ("x", "v"), ("x", "w")]:
            assert supports[edge] == pytest.approx(1.0)
        assert est.estimate == pytest.approx(1.0)

    def test_supports_match_static_decomposition(self):
        rng = random.Random(1)
        edges = bipartite_erdos_renyi(12, 12, 50, rng)
        est = AbacusSupport(budget=10_000, seed=2)
        est.process_stream(stream_from_edges(edges))
        truth = butterfly_support(BipartiteGraph(edges))
        for edge, true_support in truth.items():
            assert est.support_estimates().get(edge, 0.0) == pytest.approx(
                float(true_support)
            ), edge

    def test_deletion_decrements_supports(self):
        est = AbacusSupport(budget=100, seed=3)
        for element in _butterfly_elements():
            est.process(element)
        est.process(deletion("x", "w"))
        supports = est.support_estimates()
        assert supports[("u", "v")] == pytest.approx(0.0)
        assert est.estimate == pytest.approx(0.0)

    def test_global_estimate_is_quarter_of_support_sum(self):
        # Every butterfly has exactly 4 edges, so sum(support) == 4|B|.
        rng = random.Random(4)
        edges = bipartite_erdos_renyi(15, 15, 70, rng)
        est = AbacusSupport(budget=10_000, seed=5)
        est.process_stream(stream_from_edges(edges))
        support_sum = sum(est.support_estimates().values())
        assert support_sum == pytest.approx(4.0 * est.estimate)


class TestSideSelection:
    def test_stored_and_summed_side_tests_agree(self, dynamic_stream):
        # The stored cumulative degrees and degree_sum pick the same
        # side, so the discovery loop does the same work either way.
        stored = AbacusSupport(300, seed=4)
        summed = AbacusSupport(300, seed=4)
        summed.sampler.sample.keep_weights(False)
        stored.process_stream(dynamic_stream)
        summed.process_stream(dynamic_stream)
        assert stored.total_work == summed.total_work
        assert stored.estimate == summed.estimate
        assert stored.support_estimates() == summed.support_estimates()


class TestWatchSet:
    def test_only_watched_edges_tracked(self):
        est = AbacusSupport(budget=100, watch={("u", "v")}, seed=6)
        for element in _butterfly_elements():
            est.process(element)
        assert est.support_estimate(("u", "v")) == pytest.approx(1.0)
        assert list(est.support_estimates()) == [("u", "v")]

    def test_unwatched_query_raises(self):
        est = AbacusSupport(budget=10, watch={("a", "b")}, seed=7)
        with pytest.raises(EstimatorError):
            est.support_estimate(("c", "d"))

    def test_watch_all_query_defaults_to_zero(self):
        est = AbacusSupport(budget=10, seed=8)
        assert est.support_estimate(("never", "seen")) == 0.0


class TestTopEdgesAndBitruss:
    def test_top_edges_ranked(self):
        # Dense 3x3 biclique plus an isolated butterfly: biclique edges
        # have support 4, the isolated butterfly's edges support 1.
        est = AbacusSupport(budget=1000, seed=9)
        for i in range(3):
            for j in range(3):
                est.process(insertion(f"l{i}", f"r{j}"))
        for element in _butterfly_elements():
            est.process(element)
        top = est.top_edges(limit=9)
        assert len(top) == 9
        assert all(s == pytest.approx(4.0) for _, s in top)

    def test_approximate_k_bitruss_edges(self):
        est = AbacusSupport(budget=1000, seed=10)
        for i in range(3):
            for j in range(3):
                est.process(insertion(f"l{i}", f"r{j}"))
        for element in _butterfly_elements():
            est.process(element)
        heavy = set(est.approximate_k_bitruss_edges(2.0))
        assert len(heavy) == 9
        assert ("u", "v") not in heavy

    def test_prune_drops_zeroed_entries(self):
        est = AbacusSupport(budget=100, seed=11)
        for element in _butterfly_elements():
            est.process(element)
        est.process(deletion("x", "w"))
        removed = est.prune()
        assert removed >= 3  # the three non-deleted edges drop to ~0
        assert est.support_estimates() == {} or all(
            s > 1e-9 for s in est.support_estimates().values()
        )


class TestUnbiasedness:
    def test_watched_edge_support_unbiased_under_sampling(self):
        rng = random.Random(12)
        edges = bipartite_erdos_renyi(25, 25, 220, rng)
        stream = make_fully_dynamic(edges, 0.2, random.Random(13))
        # Pick the live edge with the largest true support.
        graph = BipartiteGraph()
        for element in stream:
            if element.is_insertion:
                graph.add_edge(element.u, element.v)
            else:
                graph.remove_edge(element.u, element.v)
        truth = butterfly_support(graph)
        target, true_support = max(truth.items(), key=lambda kv: kv[1])
        assert true_support > 0
        estimates = []
        for trial in range(250):
            est = AbacusSupport(
                budget=80, watch={target}, seed=1000 + trial
            )
            est.process_stream(stream)
            estimates.append(est.support_estimate(target))
        n = len(estimates)
        mean = sum(estimates) / n
        variance = sum((v - mean) ** 2 for v in estimates) / (n - 1)
        se = math.sqrt(variance / n)
        assert abs(mean - true_support) < 4 * max(se, 1e-12), (
            mean,
            true_support,
            se,
        )

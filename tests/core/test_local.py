"""Unit tests for per-vertex (local) butterfly estimation."""

import math
import random

import pytest

from repro.core.abacus import Abacus
from repro.core.local import AbacusLocal
from repro.errors import EstimatorError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.butterflies import butterfly_counts_per_vertex
from repro.graph.generators import bipartite_erdos_renyi
from repro.streams.dynamic import make_fully_dynamic, stream_from_edges
from repro.types import insertion


class TestExactRegime:
    """With an unbounded budget, local counts must be exact."""

    def test_single_butterfly_credits_all_four(self):
        est = AbacusLocal(10**6, seed=0)
        for el in (
            insertion(1, 10),
            insertion(1, 11),
            insertion(2, 10),
            insertion(2, 11),
        ):
            est.process(el)
        for vertex in (1, 2, 10, 11):
            assert est.local_estimate(vertex) == pytest.approx(1.0)
        assert est.estimate == pytest.approx(1.0)

    def test_matches_exact_per_vertex_counts(self):
        rng = random.Random(31)
        edges = bipartite_erdos_renyi(15, 12, 80, rng)
        est = AbacusLocal(10**6, seed=0)
        for u, v in edges:
            est.process(insertion(u, v))
        truth = butterfly_counts_per_vertex(BipartiteGraph(edges))
        for vertex, count in truth.items():
            assert est.local_estimate(vertex) == pytest.approx(count)

    def test_local_sums_to_four_times_global(self):
        rng = random.Random(32)
        edges = bipartite_erdos_renyi(15, 12, 80, rng)
        stream = make_fully_dynamic(edges, 0.25, random.Random(1))
        est = AbacusLocal(10**6, seed=0)
        est.process_stream(stream)
        total_local = sum(est.local_estimates().values())
        assert total_local == pytest.approx(4.0 * est.estimate)


class TestSampledRegime:
    def test_global_estimate_matches_plain_abacus(self, dynamic_stream):
        plain = Abacus(300, seed=9)
        local = AbacusLocal(300, seed=9)
        e1 = plain.process_stream(dynamic_stream)
        e2 = local.process_stream(dynamic_stream)
        assert e2 == pytest.approx(e1, rel=1e-12)

    def test_stored_and_summed_side_tests_agree(self, dynamic_stream):
        # The stored cumulative degrees and degree_sum pick the same
        # side, so the discovery loop does the same work either way.
        stored = AbacusLocal(300, seed=9)
        summed = AbacusLocal(300, seed=9)
        summed.sampler.sample.keep_weights(False)
        stored.process_stream(dynamic_stream)
        summed.process_stream(dynamic_stream)
        assert stored.total_work == summed.total_work
        assert stored.estimate == summed.estimate
        assert stored.local_estimates() == summed.local_estimates()

    def test_local_sum_identity_holds_when_sampling(self, dynamic_stream):
        est = AbacusLocal(300, seed=10)
        est.process_stream(dynamic_stream)
        total_local = sum(est.local_estimates().values())
        assert total_local == pytest.approx(4.0 * est.estimate, rel=1e-9)

    def test_local_estimates_unbiased(self):
        """Mean local estimate over repeated runs approaches truth for
        the highest-participation vertex."""
        rng = random.Random(33)
        edges = bipartite_erdos_renyi(25, 15, 150, rng)
        stream = stream_from_edges(edges)
        truth = butterfly_counts_per_vertex(BipartiteGraph(edges))
        hot_vertex = max(truth, key=truth.get)
        trials = 200
        estimates = []
        for t in range(trials):
            est = AbacusLocal(60, seed=1000 + t)
            est.process_stream(stream)
            estimates.append(est.local_estimates().get(hot_vertex, 0.0))
        mean = sum(estimates) / trials
        variance = sum((e - mean) ** 2 for e in estimates) / (trials - 1)
        se = math.sqrt(variance / trials)
        assert abs(mean - truth[hot_vertex]) < 4 * se + 1e-9


class TestWatchSet:
    def test_only_watched_vertices_tracked(self, dynamic_stream):
        est = AbacusLocal(300, watch={0, 1}, seed=11)
        est.process_stream(dynamic_stream)
        assert set(est.local_estimates()) <= {0, 1}

    def test_unwatched_query_raises(self):
        est = AbacusLocal(100, watch={1}, seed=0)
        with pytest.raises(EstimatorError):
            est.local_estimate(999)

    def test_watched_query_defaults_to_zero(self):
        est = AbacusLocal(100, watch={1}, seed=0)
        assert est.local_estimate(1) == 0.0

    def test_top_vertices(self):
        est = AbacusLocal(10**6, seed=0)
        for el in (
            insertion(1, 10),
            insertion(1, 11),
            insertion(2, 10),
            insertion(2, 11),
            insertion(3, 10),
            insertion(3, 11),
        ):
            est.process(el)
        top = est.top_vertices(limit=2)
        # Right vertices 10, 11 are in all 3 butterflies.
        assert {v for v, _ in top} == {10, 11}
        assert all(score == pytest.approx(3.0) for _, score in top)

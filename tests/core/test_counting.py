"""Unit tests for per-edge counting against samples.

The key invariant: when the sample contains the *whole* graph, the
per-edge count must equal the exact number of butterflies the incoming
edge would close — which we verify against the exact per-edge counter.
"""

import random

import pytest

from repro.core.counting import count_with_sample, count_with_versioned_sample
from repro.graph.bipartite import BipartiteGraph
from repro.graph.butterflies import butterflies_containing_edge
from repro.graph.generators import bipartite_erdos_renyi
from repro.sampling.adjacency_sample import GraphSample
from repro.sampling.random_pairing import RandomPairing
from repro.sampling.versioned import VersionedGraphSample
from repro.streams.dynamic import make_fully_dynamic
from repro.types import insertion


def _sample_from_edges(edges):
    sample = GraphSample()
    for u, v in edges:
        sample.add_edge(u, v)
    return sample


class TestAgainstExact:
    def test_single_butterfly_completion(self):
        sample = _sample_from_edges([(1, 10), (2, 10), (2, 11)])
        count, work = count_with_sample(sample, 1, 11)
        assert count == 1
        assert work > 0

    def test_no_completion(self):
        sample = _sample_from_edges([(1, 10), (2, 11)])
        count, _ = count_with_sample(sample, 1, 11)
        assert count == 0

    def test_full_sample_matches_exact_per_edge(self):
        rng = random.Random(8)
        edges = bipartite_erdos_renyi(20, 15, 120, rng)
        graph = BipartiteGraph(edges)
        sample = _sample_from_edges(edges)
        # For each edge: remove it everywhere, then the count of the
        # incoming edge against the full sample equals the exact count.
        for u, v in edges[:40]:
            graph.remove_edge(u, v)
            sample.remove_edge(u, v)
            expected = butterflies_containing_edge(graph, u, v)
            got, _ = count_with_sample(sample, u, v)
            assert got == expected
            graph.add_edge(u, v)
            sample.add_edge(u, v)

    def test_heuristic_does_not_change_count(self):
        rng = random.Random(9)
        edges = bipartite_erdos_renyi(15, 12, 90, rng)
        sample = _sample_from_edges(edges[:-10])
        for u, v in edges[-10:]:
            with_heuristic, _ = count_with_sample(
                sample, u, v, cheapest_side=True
            )
            without, _ = count_with_sample(
                sample, u, v, cheapest_side=False
            )
            assert with_heuristic == without

    def test_deletion_edge_in_sample_not_miscounted(self):
        # Edge (1,10) is in the sample AND being processed (deletion
        # case): the degenerate "butterfly" through x == u must not be
        # counted.
        sample = _sample_from_edges([(1, 10), (1, 11), (2, 10), (2, 11)])
        count, _ = count_with_sample(sample, 1, 10)
        assert count == 1  # exactly the true butterfly {1,2,10,11}

    def test_empty_sample(self):
        count, work = count_with_sample(GraphSample(), 1, 10)
        assert (count, work) == (0, 0)

    def test_work_accounts_intersections(self):
        # Star around right vertex 10 plus one far edge: intersections
        # iterate the smaller set each time.
        sample = _sample_from_edges([(1, 10), (2, 10), (2, 11)])
        _, work = count_with_sample(sample, 1, 11)
        assert work >= 1


class TestVersionedCounting:
    def test_matches_live_counting_at_final_version(self):
        rng = random.Random(10)
        edges = bipartite_erdos_renyi(15, 12, 80, rng)
        sample = GraphSample()
        versioned = VersionedGraphSample(sample)
        rp = RandomPairing(1000, random.Random(0), sample=sample)
        versioned.begin_batch()
        for u, v in edges:
            versioned.note_element_state(rp.num_live_edges, rp.cb, rp.cg)
            rp.process(insertion(u, v))
        versioned.end_batch()
        # Counting at the last version equals counting against the live
        # sample state just before the final element.
        last = len(edges) - 1
        u, v = edges[-1]
        sample.remove_edge(u, v)
        live_count, _ = count_with_sample(sample, u, v)
        sample.add_edge(u, v)
        versioned_count, _ = count_with_versioned_sample(
            versioned, last, u, v
        )
        assert versioned_count == live_count

    def test_version_zero_sees_nothing(self):
        sample = GraphSample()
        versioned = VersionedGraphSample(sample)
        rp = RandomPairing(100, random.Random(0), sample=sample)
        versioned.begin_batch()
        for u, v in [(1, 10), (2, 10), (2, 11), (1, 11)]:
            versioned.note_element_state(rp.num_live_edges, rp.cb, rp.cg)
            rp.process(insertion(u, v))
        versioned.end_batch()
        count, _ = count_with_versioned_sample(versioned, 0, 1, 11)
        assert count == 0
        # But at version 3 the three other edges exist.
        count3, _ = count_with_versioned_sample(versioned, 3, 1, 11)
        assert count3 == 1


def _reference_count(sample, u, v, cheapest_side=True):
    """Algorithm 1, lines 7-11, as a literal per-anchor Python loop.

    Every anchor's intersection walks the smaller set and skips the
    explored endpoint itself; the kernels under test must return this
    ``(count, work)`` exactly.
    """
    neighbors_u = sample.neighbors(u)
    neighbors_v = sample.neighbors(v)
    if not neighbors_u or not neighbors_v:
        return 0, 0
    if cheapest_side:
        cumulative_u = sample.degree_sum(neighbors_u)
        cumulative_v = sample.degree_sum(neighbors_v)
        explore_u_side = cumulative_u < cumulative_v
    else:
        explore_u_side = True
    if explore_u_side:
        anchors, opposite = neighbors_u, neighbors_v
        skip_anchor, skip_common = v, u
    else:
        anchors, opposite = neighbors_v, neighbors_u
        skip_anchor, skip_common = u, v
    count = 0
    work = 0
    for w in anchors:
        if w == skip_anchor:
            continue
        neighbors_w = sample.neighbors(w)
        if len(neighbors_w) <= len(opposite):
            small, large = neighbors_w, opposite
        else:
            small, large = opposite, neighbors_w
        work += len(small)
        for x in small:
            if x != skip_common and x in large:
                count += 1
    return count, work


def _queries(sample, n_left, n_right, rng, count):
    """Arriving edges: sampled ones, unsampled ones and ones touching
    vertices outside the sample."""
    sampled = list(sample.edges())
    queries = rng.sample(sampled, min(count, len(sampled)))
    while len(queries) < 2 * count:
        # Left ids -2 and -1 and the last two right ids are unsampled.
        u = rng.randrange(-2, n_left)
        v = n_left + rng.randrange(n_right + 2)
        if not sample.contains(u, v):
            queries.append((u, v))
    return queries


def _assert_live_kernel_matches(sample, n_left, n_right, rng, cheapest_side):
    sampled_hits = 0
    for u, v in _queries(sample, n_left, n_right, rng, 60):
        expected = _reference_count(sample, u, v, cheapest_side)
        got = count_with_sample(sample, u, v, cheapest_side)
        assert got == expected, (u, v)
        if sample.contains(u, v) and expected[0] > 0:
            sampled_hits += 1
    # The closed-form correction for sampled edges is exercised.
    assert sampled_hits > 0


class TestScalarKernelOracle:
    """The C-level intersection kernel against the literal loop; needs
    no NumPy, so every CI leg pins ``work`` as well as the count."""

    @pytest.mark.parametrize("cheapest_side", [True, False])
    @pytest.mark.parametrize("seed", range(6))
    def test_live_kernel_matches_loop(self, cheapest_side, seed):
        rng = random.Random(seed)
        n_left, n_right = 14 + seed, 10 + 2 * seed
        sample = _sample_from_edges(
            bipartite_erdos_renyi(n_left, n_right, 40 + 25 * seed, rng)
        )
        _assert_live_kernel_matches(
            sample, n_left, n_right, rng, cheapest_side
        )

    @pytest.mark.parametrize("cheapest_side", [True, False])
    @pytest.mark.parametrize("seed", range(6))
    def test_live_kernel_with_weight_upkeep_off(self, cheapest_side, seed):
        rng = random.Random(seed)
        n_left, n_right = 14 + seed, 10 + 2 * seed
        edges = bipartite_erdos_renyi(n_left, n_right, 60 + 25 * seed, rng)
        sample = _sample_from_edges(edges[:-20])
        # The stored weights go stale on these mutations, and the kernel
        # must not read them.
        sample.keep_weights(False)
        for u, v in edges[-20:]:
            sample.add_edge(u, v)
        for u, v in edges[:10]:
            sample.remove_edge(u, v)
        _assert_live_kernel_matches(
            sample, n_left, n_right, rng, cheapest_side
        )

    @pytest.mark.parametrize("cheapest_side", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_versioned_kernel_matches_loop(self, cheapest_side, seed):
        rng = random.Random(100 + seed)
        n_left, n_right = 16, 12
        sample = GraphSample()
        versioned = VersionedGraphSample(sample)
        sampler = RandomPairing(60, random.Random(seed), sample=sample)
        stream = make_fully_dynamic(
            bipartite_erdos_renyi(n_left, n_right, 120, rng),
            0.3,
            random.Random(seed),
        )
        snapshots = []
        versioned.begin_batch()
        for element in stream:
            snapshots.append(_sample_from_edges(sample.edges()))
            versioned.note_element_state(
                sampler.num_live_edges, sampler.cb, sampler.cg
            )
            sampler.process(element)
        versioned.end_batch()
        final = versioned.num_versions
        assert final == len(stream)
        queries = _queries(sample, n_left, n_right, rng, 40)
        for u, v in queries:
            expected = _reference_count(sample, u, v, cheapest_side)
            assert count_with_sample(sample, u, v, cheapest_side) == expected
            got = count_with_versioned_sample(
                versioned, final, u, v, cheapest_side
            )
            assert got == expected, (u, v)
        # Earlier versions against the sample as it stood then.
        for version in rng.sample(range(final), 20):
            past = snapshots[version]
            for u, v in queries[:20] + _queries(past, n_left, n_right, rng, 5):
                expected = _reference_count(past, u, v, cheapest_side)
                got = count_with_versioned_sample(
                    versioned, version, u, v, cheapest_side
                )
                assert got == expected, (version, u, v)

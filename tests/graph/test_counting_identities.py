"""Counting identities the exact butterfly counters must agree on.

Every exact counter in :mod:`repro.graph` (global, per-vertex, per-edge,
bitruss peeling, k-bitruss thresholding) and the streaming oracle of
:mod:`repro.core.exact` is checked against the others over one family of
small graphs: uniform and power-law random graphs, the configuration
model, bicliques with and without noise, butterfly-free shapes, and a
graph with string vertex ids.  A disagreement between any two of them
is a bug in one.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.exact import ExactStreamingCounter
from repro.graph.bipartite import BipartiteGraph, validate_bipartite
from repro.graph.bitruss import (
    bitruss_decomposition,
    butterfly_support,
    k_bitruss,
)
from repro.graph.butterflies import (
    butterflies_containing_edge,
    butterfly_counts_per_vertex,
    butterfly_density,
    count_butterflies,
    count_butterflies_brute_force,
)
from repro.graph.generators import (
    bipartite_chung_lu,
    bipartite_configuration_model,
    bipartite_erdos_renyi,
)
from repro.streams.dynamic import make_fully_dynamic
from repro.types import Side


def _biclique(a: int, b: int, offset: int = 0):
    return [
        (offset + i, 1000 + offset + j) for i in range(a) for j in range(b)
    ]


def _graph_family():
    family = {}
    for seed in (1, 2, 3):
        family[f"erdos_renyi_sparse_{seed}"] = bipartite_erdos_renyi(
            20, 15, 60, random.Random(seed)
        )
        family[f"erdos_renyi_dense_{seed}"] = bipartite_erdos_renyi(
            10, 9, 60, random.Random(seed)
        )
        family[f"chung_lu_{seed}"] = bipartite_chung_lu(
            40, 15, 150, rng=random.Random(seed)
        )
    family["configuration_model"] = bipartite_configuration_model(
        [4] * 12 + [1] * 10, [6] * 6 + [2] * 10, random.Random(8)
    )
    family["biclique_4x5"] = _biclique(4, 5)
    noise = bipartite_erdos_renyi(15, 15, 40, random.Random(9))
    family["biclique_plus_noise"] = sorted(
        set(_biclique(5, 4, offset=500) + noise)
    )
    family["two_disjoint_bicliques"] = _biclique(3, 3) + _biclique(2, 4, 100)
    family["star"] = [(0, 1000 + j) for j in range(12)]
    family["even_cycle"] = [(i, 1000 + i) for i in range(8)] + [
        (i, 1000 + (i + 1) % 8) for i in range(8)
    ]
    family["string_ids"] = [
        (f"user{u}", f"item{v}")
        for u, v in bipartite_erdos_renyi(12, 10, 50, random.Random(10))
    ]
    return family


GRAPHS = _graph_family()
NAMES = sorted(GRAPHS)


@pytest.fixture(params=NAMES)
def graph(request) -> BipartiteGraph:
    return BipartiteGraph(GRAPHS[request.param])


@pytest.mark.parametrize("name", NAMES)
def test_the_family_builds_consistent_graphs(name):
    graph = BipartiteGraph(GRAPHS[name])
    assert validate_bipartite(graph) == (True, "")
    assert graph.num_edges == len(set(GRAPHS[name]))


def test_the_family_spans_butterfly_free_and_rich_graphs():
    counts = {
        name: count_butterflies(BipartiteGraph(edges))
        for name, edges in GRAPHS.items()
    }
    assert counts["star"] == 0
    assert counts["even_cycle"] == 0
    assert counts["biclique_4x5"] == math.comb(4, 2) * math.comb(5, 2)
    assert counts["two_disjoint_bicliques"] == 9 + 6
    assert sum(1 for c in counts.values() if c > 10) >= 6


def test_wedge_aggregation_matches_pair_enumeration(graph):
    assert count_butterflies(graph) == count_butterflies_brute_force(graph)


def test_both_iteration_sides_count_alike(graph):
    assert count_butterflies(graph, iterate_side=Side.LEFT) == (
        count_butterflies(graph, iterate_side=Side.RIGHT)
    )


def test_each_side_shares_out_every_butterfly_twice(graph):
    total = count_butterflies(graph)
    per_vertex = butterfly_counts_per_vertex(graph)
    left = sum(per_vertex.get(u, 0) for u in graph.left_vertices())
    right = sum(per_vertex.get(v, 0) for v in graph.right_vertices())
    assert left == right == 2 * total


def test_a_vertex_count_is_half_its_edge_counts(graph):
    """A butterfly through vertex ``u`` uses two of ``u``'s edges."""
    per_vertex = butterfly_counts_per_vertex(graph)
    for u in graph.left_vertices():
        through = sum(
            butterflies_containing_edge(graph, u, v)
            for v in graph.neighbors(u)
        )
        assert through == 2 * per_vertex.get(u, 0)
    for v in graph.right_vertices():
        through = sum(
            butterflies_containing_edge(graph, u, v)
            for u in graph.neighbors(v)
        )
        assert through == 2 * per_vertex.get(v, 0)


def test_edge_counts_sum_to_four_per_butterfly(graph):
    total = sum(
        butterflies_containing_edge(graph, u, v) for u, v in graph.edges()
    )
    assert total == 4 * count_butterflies(graph)


def test_support_is_the_per_edge_count(graph):
    support = butterfly_support(graph)
    assert set(support) == set(graph.edges())
    for (u, v), count in support.items():
        assert count == butterflies_containing_edge(graph, u, v)


def test_deleting_an_edge_drops_exactly_its_butterflies(graph):
    total = count_butterflies(graph)
    for u, v in list(graph.edges())[::3]:
        through = butterflies_containing_edge(graph, u, v)
        graph.remove_edge(u, v)
        assert count_butterflies(graph) == total - through
        # The per-edge count needs no edge: it reads the same absent.
        assert butterflies_containing_edge(graph, u, v) == through
        graph.add_edge(u, v)
        assert count_butterflies(graph) == total


def test_bitruss_numbers_are_bounded_by_support(graph):
    support = butterfly_support(graph)
    numbers = bitruss_decomposition(graph)
    assert set(numbers) == set(support)
    for edge, number in numbers.items():
        assert 0 <= number <= support[edge]
        # An edge in a butterfly is at least in the 1-bitruss.
        assert (number >= 1) == (support[edge] >= 1)


def test_k_bitruss_is_the_level_set_of_the_decomposition(graph):
    numbers = bitruss_decomposition(graph)
    for k in range(0, max(numbers.values(), default=0) + 2):
        core = k_bitruss(graph, k)
        assert set(core.edges()) == {e for e, n in numbers.items() if n >= k}
        assert all(s >= k for s in butterfly_support(core).values())


def test_peeling_leaves_its_input_untouched(graph):
    before = sorted(graph.edges(), key=repr)
    bitruss_decomposition(graph)
    k_bitruss(graph, 1)
    assert sorted(graph.edges(), key=repr) == before
    assert validate_bipartite(graph) == (True, "")


def test_density_is_the_realised_share_of_cells(graph):
    total = count_butterflies(graph)
    cells = math.comb(graph.num_left, 2) * math.comb(graph.num_right, 2)
    density = butterfly_density(graph)
    assert 0.0 <= density <= 1.0
    assert density == (total / cells if cells else 0.0)
    assert butterfly_density(graph, butterflies=total) == density


def test_the_streaming_oracle_follows_the_live_graph(graph):
    edges = sorted(graph.edges(), key=repr)
    random.Random(len(edges)).shuffle(edges)
    stream = make_fully_dynamic(edges, 0.4, random.Random(len(edges) + 1))
    oracle = ExactStreamingCounter()
    live = BipartiteGraph()
    for element in stream:
        oracle.process(element)
        if element.is_insertion:
            live.add_edge(*element.edge)
        else:
            live.remove_edge(*element.edge)
        assert oracle.exact_count == count_butterflies(live)
    assert oracle.memory_edges == live.num_edges

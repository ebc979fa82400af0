"""Bipartite graph substrate.

This subpackage provides the in-memory dynamic bipartite graph, exact
butterfly counting (global, per-edge, and per-vertex), a k-bitruss
decomposition built on butterfly support, and synthetic graph
generators.
"""

from repro.graph.bipartite import BipartiteGraph
from repro.graph.butterflies import (
    butterflies_containing_edge,
    butterfly_counts_per_vertex,
    count_butterflies,
    count_butterflies_brute_force,
)
from repro.graph.bitruss import (
    bitruss_decomposition,
    butterfly_support,
    k_bitruss,
)
from repro.graph.generators import (
    bipartite_chung_lu,
    bipartite_configuration_model,
    bipartite_erdos_renyi,
    planted_bicliques,
    power_law_degree_sequence,
)

__all__ = [
    "BipartiteGraph",
    "count_butterflies",
    "count_butterflies_brute_force",
    "butterflies_containing_edge",
    "butterfly_counts_per_vertex",
    "bitruss_decomposition",
    "butterfly_support",
    "k_bitruss",
    "bipartite_erdos_renyi",
    "bipartite_chung_lu",
    "bipartite_configuration_model",
    "planted_bicliques",
    "power_law_degree_sequence",
]

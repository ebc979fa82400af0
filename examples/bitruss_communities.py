"""Dense-community discovery with the bitruss decomposition.

The paper motivates butterfly counting through k-bitruss computation
and dense-subgraph discovery (Section I).  This example:

1. plants two dense author-venue communities inside a sparse random
   background,
2. recovers them *exactly* with the k-bitruss (edge peeling)
   decomposition,
3. shows the *streaming* path: an ``AbacusSupport`` estimator watching
   the graph's edges flags (approximately) the same high-support edges
   one pass over the stream, in bounded memory.

Run:
    python examples/bitruss_communities.py
"""

from __future__ import annotations

import random

from repro.core.support import AbacusSupport
from repro.graph.bipartite import BipartiteGraph
from repro.graph.bitruss import bitruss_decomposition
from repro.graph.generators import bipartite_erdos_renyi
from repro.streams.dynamic import stream_from_edges


def build_graph(rng: random.Random):
    """Two planted 6x5 author-venue bicliques + sparse background."""
    edges = []
    for c in range(2):
        for i in range(6):
            for j in range(5):
                edges.append((f"c{c}_author{i}", f"c{c}_venue{j}"))
    background = bipartite_erdos_renyi(300, 200, 900, rng)
    edges.extend(
        (f"bg_author{u}", f"bg_venue{v - 300}") for u, v in background
    )
    rng.shuffle(edges)
    return edges


def main() -> None:
    rng = random.Random(11)
    edges = build_graph(rng)
    graph = BipartiteGraph(edges)
    print(
        f"Graph: {graph.num_left} authors, {graph.num_right} venues, "
        f"{graph.num_edges} edges (two planted 6x5 communities)"
    )

    # ------------------------------------------------------------------
    # Exact recovery: k-bitruss (edge peeling)
    # ------------------------------------------------------------------
    bitruss = bitruss_decomposition(graph)
    # Inside a 6x5 biclique every edge is in C(5,2)*C(4,1)... many
    # butterflies; background edges are in almost none.  A threshold of
    # 10 cleanly separates the two regimes.
    community_edges = {e for e, k in bitruss.items() if k >= 10}
    planted = {e for e in graph.edges() if str(e[0]).startswith("c")}
    correct = community_edges & planted
    print()
    print("k-bitruss (edge peeling):")
    print(f"  edges with bitruss number >= 10 : {len(community_edges)}")
    print(f"  of which planted                : {len(correct)}")
    print(f"  planted edges total             : {len(planted)}")

    # ------------------------------------------------------------------
    # Streaming approximation: per-edge support from a bounded sample
    # ------------------------------------------------------------------
    budget = 600  # ~40% of the stream
    estimator = AbacusSupport(budget=budget, seed=3)
    estimator.process_stream(stream_from_edges(edges))
    flagged = set(estimator.approximate_k_bitruss_edges(10.0))
    flagged_planted = flagged & planted
    precision = len(flagged_planted) / len(flagged) if flagged else 1.0
    recall = len(flagged_planted) / len(planted)
    print()
    print(f"Streaming support estimates (budget={budget} edges):")
    print(f"  edges flagged with support >= 10 : {len(flagged)}")
    print(f"  precision vs planted             : {precision:.0%}")
    print(f"  recall vs planted                : {recall:.0%}")
    print()
    print("Top-5 edges by estimated support:")
    for edge, support in estimator.top_edges(5):
        print(f"  {edge!s:<32} ~{support:,.0f} butterflies")


if __name__ == "__main__":
    main()

"""Adjacency-list storage for sampled edges.

ABACUS stores its sampled edges "using the adjacency list format"
(Section VI-A) because per-edge butterfly counting is a sequence of set
intersections over sampled neighbourhoods.  :class:`GraphSample` keeps:

* per-vertex neighbour sets (``N^S_v``) for O(1) membership and fast
  intersection,
* on each neighbour set, the vertex's *cumulative neighbour degree*
  ``W(x)`` (below),
* a flat edge list plus an index map so Random Pairing can evict a
  uniformly random edge in O(1),
* an optional *recorder* callback fired on every mutation, which is how
  :class:`~repro.sampling.versioned.VersionedGraphSample` captures
  per-version deltas without the sample knowing about versions.

Line 7 of Algorithm 1 explores the endpoint whose sampled neighbours
have the smaller cumulative sample degree, ``W(x) = sum of d(w) over w
in N(x)``.  Summing it per arriving edge costs a dict lookup per
neighbour of both endpoints, about as much as the intersections the
test exists to shrink.  So each vertex's :class:`NeighborSet` stores
``W(x)`` in its ``weight`` slot, and the mutations keep it current:
adding or removing ``{u, v}`` moves ``W(u)`` by ``d(v)``, ``W(v)`` by
``d(u)``, and the ``W`` of every other neighbour of ``u`` and of ``v``
by one.  That is O(d(u) + d(v)) per mutation, against one O(1) read
per arriving edge.

The upkeep is switched off (:meth:`GraphSample.keep_weights`) where
nothing reads the weights: while ABACUS's NumPy mirror, which keeps its
own degree array, is engaged; when the cheapest-side heuristic is
disabled; under PARABACUS's thread pool, which sums degrees at each
version; and in the samples of TRIEST, ThinkD and CAS, which count
without a side test.  It is also off where the weights would be read
about once per mutation, as in LazyAbacus, which counts only on sample
transitions, and it pauses for bulk removals (FLEET's resize, Random
Pairing's restore).  Off, the weights go stale and readers fall back to
:meth:`GraphSample.degree_sum`; switching back on rebuilds them in
O(|S|).  The state never shows in results, since both ways compare the
same integers.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import SamplingError
from repro.types import Edge, Vertex

# Recorder signature: (op, u, v) with op "+" for add and "-" for remove.
Recorder = Callable[[str, Vertex, Vertex], None]

#: One sample mutation: ``(op, u, v)`` with op "+" (edge entered the
#: sample) or "-" (edge left it).  Produced by
#: :meth:`~repro.sampling.random_pairing.RandomPairing.process` and
#: consumed by :meth:`~repro.sampling.ndadjacency.NdAdjacency.apply`.
Mutation = Tuple[str, Vertex, Vertex]

_EMPTY_SET: Set[Vertex] = frozenset()  # type: ignore[assignment]


class NeighborSet(set):
    """``N^S_x``, with ``W(x)`` in the ``weight`` slot.

    ``weight`` equals ``degree_sum(N^S_x)`` while the owning sample's
    :attr:`~GraphSample.weights_live` is true (module notes).
    """

    __slots__ = ("weight",)


class GraphSample:
    """The sampled subgraph ``S``: adjacency sets + O(1) random eviction."""

    __slots__ = (
        "_adj",
        "_edges",
        "_index",
        "recorder",
        "version",
        "weights_live",
    )

    def __init__(self, recorder: Optional[Recorder] = None) -> None:
        self._adj: Dict[Vertex, NeighborSet] = {}
        self._edges: List[Edge] = []
        self._index: Dict[Edge, int] = {}
        self.recorder = recorder
        #: Monotonic mutation counter.  Derived read-side structures
        #: (:class:`~repro.sampling.ndadjacency.NdAdjacency`) compare it
        #: to detect staleness without subscribing to every mutation.
        self.version = 0
        #: Whether every neighbour set's ``weight`` is current; change
        #: it only through :meth:`keep_weights`.
        self.weights_live = True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """``|S|`` — number of sampled edges."""
        return len(self._edges)

    @property
    def num_vertices(self) -> int:
        """Vertices with at least one sampled edge."""
        return len(self._adj)

    def __len__(self) -> int:
        return len(self._edges)

    def __contains__(self, edge: Edge) -> bool:
        return edge in self._index

    def contains(self, u: Vertex, v: Vertex) -> bool:
        return (u, v) in self._index

    def neighbors(self, vertex: Vertex) -> Set[Vertex]:
        """``N^S_v`` (live internal set; callers must not mutate)."""
        return self._adj.get(vertex, _EMPTY_SET)

    def degree(self, vertex: Vertex) -> int:
        """``d^S_v`` — degree within the sample."""
        return len(self._adj.get(vertex, _EMPTY_SET))

    def degree_sum(self, vertices: Iterable[Vertex]) -> int:
        """Cumulative sample degree of ``vertices`` (cheapest-side test)."""
        adj = self._adj
        return sum(len(adj.get(v, _EMPTY_SET)) for v in vertices)

    def edges(self) -> Tuple[Edge, ...]:
        """Snapshot of the sampled edges."""
        return tuple(self._edges)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Insert edge ``(u, v)`` into the sample.

        Raises:
            SamplingError: if the edge is already sampled (a uniform
                sample of a simple graph never holds duplicates).
        """
        edge = (u, v)
        if edge in self._index:
            raise SamplingError(f"edge {edge} already in sample")
        self._index[edge] = len(self._edges)
        self._edges.append(edge)
        adj = self._adj
        neighbors_u = adj.get(u)
        if neighbors_u is None:
            neighbors_u = adj[u] = NeighborSet()
            neighbors_u.weight = 0
        neighbors_v = adj.get(v)
        if neighbors_v is None:
            neighbors_v = adj[v] = NeighborSet()
            neighbors_v.weight = 0
        # The link can already exist in a general graph that samples
        # both (u, v) and (v, u); then no degree moves.
        if self.weights_live and v not in neighbors_u:
            # d(u) and d(v) each rise by one (d(u) once for a self-loop).
            for w in neighbors_u:
                adj[w].weight += 1
            if neighbors_v is not neighbors_u:
                for w in neighbors_v:
                    adj[w].weight += 1
            neighbors_u.add(v)
            neighbors_v.add(u)
            neighbors_u.weight += len(neighbors_v)
            if neighbors_v is not neighbors_u:
                neighbors_v.weight += len(neighbors_u)
        else:
            neighbors_u.add(v)
            neighbors_v.add(u)
        self.version += 1
        if self.recorder is not None:
            self.recorder("+", u, v)

    def remove_edge(self, u: Vertex, v: Vertex) -> bool:
        """Remove edge ``(u, v)`` if present; report whether it was.

        Random Pairing needs the "was it sampled?" answer to decide
        which compensation counter to bump, so absence is not an error.
        """
        edge = (u, v)
        position = self._index.pop(edge, None)
        if position is None:
            return False
        # O(1) deletion from the edge list: swap in the last edge.
        last = self._edges.pop()
        if last != edge:
            self._edges[position] = last
            self._index[last] = position
        self._discard_adjacency(u, v)
        self.version += 1
        if self.recorder is not None:
            self.recorder("-", u, v)
        return True

    def evict_random_edge(self, rng: random.Random) -> Edge:
        """Remove and return a uniformly random sampled edge."""
        if not self._edges:
            raise SamplingError("cannot evict from an empty sample")
        position = rng.randrange(len(self._edges))
        edge = self._edges[position]
        last = self._edges.pop()
        del self._index[edge]
        if last != edge:
            self._edges[position] = last
            self._index[last] = position
        u, v = edge
        self._discard_adjacency(u, v)
        self.version += 1
        if self.recorder is not None:
            self.recorder("-", u, v)
        return edge

    def clear(self) -> None:
        self._adj.clear()
        self._edges.clear()
        self._index.clear()
        self.version += 1

    def keep_weights(self, on: bool) -> None:
        """Switch the upkeep of the stored ``W(x)`` on or off.

        Off, mutations skip the upkeep and the weights go stale.
        Switching on from off rebuilds every weight in O(|S|).
        """
        if on and not self.weights_live:
            adj = self._adj
            for neighbors in adj.values():
                neighbors.weight = sum([len(adj[w]) for w in neighbors])
        self.weights_live = on

    def _discard_adjacency(self, u: Vertex, v: Vertex) -> None:
        adj = self._adj
        neighbors_u = adj.get(u)
        if neighbors_u is None or v not in neighbors_u:
            return  # the (v, u) twin of a general graph took the link
        neighbors_v = adj[v]
        neighbors_u.discard(v)
        neighbors_v.discard(u)
        if self.weights_live:
            # d(u) and d(v) each fall by one (d(u) once for a self-loop).
            for w in neighbors_u:
                adj[w].weight -= 1
            if neighbors_v is not neighbors_u:
                for w in neighbors_v:
                    adj[w].weight -= 1
                neighbors_v.weight -= len(neighbors_u) + 1
            neighbors_u.weight -= len(neighbors_v) + 1
        if not neighbors_u:
            del adj[u]
        if not neighbors_v and neighbors_v is not neighbors_u:
            del adj[v]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GraphSample(|S|={len(self._edges)})"

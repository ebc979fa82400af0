"""Versioned samples for PARABACUS mini-batches.

PARABACUS (Section V) first replays a mini-batch of ``M`` elements
through Random Pairing *sequentially*, producing the sample states
``S_0, S_1, ..., S_{M-1}`` that ABACUS would have observed, and then
counts per-edge butterflies against the matching state in parallel.
Only its thread pool needs the states kept side by side: serial
execution counts each element on the live sample just before the
element's own update, and records nothing here.
Storing ``M`` full samples would cost O(M * k); instead, the paper keeps
one live sample plus the per-version *discrepancies* of each vertex's
neighbour set, bounding extra space by O(M).

:class:`VersionedGraphSample` implements that delta coding:

* It installs itself as the :class:`GraphSample` recorder, so every
  mutation performed by Random Pairing during the sequential phase is
  tagged with the version it creates.
* After the sequential phase the live sample sits at the *final* state;
  querying an earlier version ``q`` re-derives ``N^{S_q}(v)`` by
  applying the *inverse* of every delta tagged ``> q`` to the live
  neighbour set (newest first).
* Alongside each version it caches the triplet ``(|E|, cb, cg)`` the
  paper uses to recompute the Equation 1 increment for that element.

All query methods are read-only with respect to shared state, so the
parallel counting phase can call them from many threads safely.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.errors import SamplingError
from repro.sampling.adjacency_sample import GraphSample
from repro.types import Vertex

# One cached triplet per mini-batch element: (|E|, cb, cg) *before* the
# element's sample update — i.e. the state of S_{i} seen by element i.
Triplet = Tuple[int, int, int]


class VersionedGraphSample:
    """Delta-coded view of a :class:`GraphSample` across a mini-batch."""

    __slots__ = (
        "_sample",
        "_deltas",
        "_triplets",
        "_pending_version",
        "_recording",
    )

    def __init__(self, sample: GraphSample) -> None:
        self._sample = sample
        self._deltas: Dict[Vertex, List[Tuple[int, str, Vertex]]] = {}
        self._triplets: List[Triplet] = []
        self._pending_version = 0
        self._recording = False

    # ------------------------------------------------------------------
    # Sequential phase (version construction)
    # ------------------------------------------------------------------
    def begin_batch(self) -> None:
        """Reset deltas and start recording sample mutations."""
        if self._recording:
            raise SamplingError("begin_batch called while already recording")
        self._deltas.clear()
        self._triplets.clear()
        self._pending_version = 0
        self._sample.recorder = self._record
        self._recording = True

    def note_element_state(
        self, num_live_edges: int, cb: int, cg: int
    ) -> None:
        """Cache the (|E|, cb, cg) triplet for the next element.

        Must be called once per element, *before* the element's Random
        Pairing update runs; mutations recorded afterwards are tagged as
        belonging to that element's version transition.
        """
        if not self._recording:
            raise SamplingError("note_element_state outside a batch")
        self._triplets.append((num_live_edges, cb, cg))
        self._pending_version += 1

    def end_batch(self) -> int:
        """Stop recording; return the number of versions captured."""
        if not self._recording:
            raise SamplingError("end_batch without begin_batch")
        self._sample.recorder = None
        self._recording = False
        return self._pending_version

    def _record(self, op: str, u: Vertex, v: Vertex) -> None:
        """GraphSample recorder hook: tag the mutation with its version."""
        tag = self._pending_version
        self._deltas.setdefault(u, []).append((tag, op, v))
        self._deltas.setdefault(v, []).append((tag, op, u))

    # ------------------------------------------------------------------
    # Parallel phase (version queries)
    # ------------------------------------------------------------------
    def triplet(self, index: int) -> Triplet:
        """The cached ``(|E|, cb, cg)`` for mini-batch element ``index``."""
        return self._triplets[index]

    @property
    def num_versions(self) -> int:
        return len(self._triplets)

    def neighbors_at(self, vertex: Vertex, version: int) -> Set[Vertex]:
        """``N^{S_version}(vertex)`` with ``S_0`` the pre-batch state.

        Starts from the live (post-batch) neighbour set and inverts all
        deltas tagged with a later version, newest first.  Returns a
        private set the caller may keep or mutate.
        """
        live = set(self._sample.neighbors(vertex))
        deltas = self._deltas.get(vertex)
        if not deltas:
            return live
        for tag, op, other in reversed(deltas):
            if tag <= version:
                break
            if op == "+":
                live.discard(other)
            else:
                live.add(other)
        return live

    def degree_at(self, vertex: Vertex, version: int) -> int:
        """Sample degree of ``vertex`` at ``version``.

        Computed without materialising the set when the vertex has no
        in-batch deltas (the overwhelmingly common case).
        """
        deltas = self._deltas.get(vertex)
        if not deltas:
            return self._sample.degree(vertex)
        return len(self.neighbors_at(vertex, version))

    def degree_sum_at(self, vertices: Iterable[Vertex], version: int) -> int:
        """Cumulative sample degree of ``vertices`` at ``version``."""
        return sum(self.degree_at(v, version) for v in vertices)

    def delta_count(self) -> int:
        """Total recorded vertex-delta entries (for the O(M) space test)."""
        return sum(len(entries) for entries in self._deltas.values())

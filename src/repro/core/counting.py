"""Per-edge butterfly counting against a sample (Algorithm 1, lines 7-11).

Given an incoming edge ``{u, v}``, count the butterflies it forms with
the sampled edges.  A butterfly ``{u, v, w, x}`` is discovered through
the sample iff its other three edges ``{u, w}``, ``{x, v}``, ``{x, w}``
are all sampled, which the algorithm detects with one set intersection
per sampled neighbour ``w`` of the chosen endpoint.

Two flavours are provided:

* :func:`count_with_sample` — against a live :class:`GraphSample`
  (used by ABACUS and, with the scaling adapted, by FLEET).
* :func:`count_with_versioned_sample` — against one version of a
  :class:`VersionedGraphSample` (used by PARABACUS's thread pool).

Both return ``(count, work)`` where ``work`` is the number of element
checks performed inside set intersections — the exact per-thread
workload metric the paper plots in Figure 10: ``min(|N(w)|, |opposite|)``
per anchor ``w``, the smaller set, which a hash-set intersection walks.

The *cheapest-side heuristic* (line 7 of Algorithm 1) explores the
endpoint whose sampled neighbours have the smaller cumulative sample
degree; it can be disabled for the ablation study.  Against a live
sample the two sums are read in O(1) from the neighbour sets, where
:class:`~repro.sampling.adjacency_sample.GraphSample` keeps them
current.  While that upkeep is off (for one, ABACUS's batch path turns
it off while the NumPy mirror is engaged) they are summed with
:meth:`~repro.sampling.adjacency_sample.GraphSample.degree_sum`.
:func:`u_side_cheaper` makes that choice for the estimators with their
own discovery loops; :func:`count_with_sample` makes it inline.

Each anchor's count is one C-level ``len(N(w) & opposite)``.  The
algorithm's two exclusions then reduce to a closed form.  Say the
explored endpoint is ``u``.  Every anchor ``w`` neighbours ``u``, and
``u`` sits in the opposite set ``N(v)`` exactly when the arriving edge
``{u, v}`` is itself sampled (a deletion of a sampled edge, typically).
Only then does the anchor set hold ``v``, which the loop skips, and
only then does each of the other ``|anchors| - 1`` intersections count
``u`` once too often.  So the kernel subtracts ``|anchors| - 1`` once
when ``{u, v}`` is sampled.  :func:`count_with_mirror` relies on the
same identity.
"""

from __future__ import annotations

from typing import Callable, Set, Tuple

from repro.sampling.adjacency_sample import GraphSample
from repro.sampling.ndadjacency import NUMPY_AVAILABLE, NdAdjacency
from repro.sampling.versioned import VersionedGraphSample
from repro.types import Vertex

if NUMPY_AVAILABLE:
    import numpy as np

#: Below this combined endpoint degree the vectorized kernel defers to
#: the scalar one: a handful of set probes beats the fixed cost of the
#: array calls.  Both kernels are exact, so the cutoff only moves work
#: between implementations — results are identical on either side.
VECTOR_CUTOFF = 16


def _intersect_anchors(
    neighbors: Callable[[Vertex], Set[Vertex]],
    anchors: Set[Vertex],
    opposite: Set[Vertex],
    skip_anchor: Vertex,
) -> Tuple[int, int]:
    """The per-anchor intersections of Algorithm 1, lines 8-11.

    ``anchors`` are the explored endpoint's neighbours, ``opposite``
    the other endpoint's, and ``skip_anchor`` the other endpoint
    itself; ``neighbors`` looks up an anchor's neighbour set.
    """
    size_opposite = len(opposite)
    count = 0
    work = 0
    for w in anchors:
        if w == skip_anchor:
            continue
        neighbors_w = neighbors(w)
        size_w = len(neighbors_w)
        work += size_w if size_w < size_opposite else size_opposite
        count += len(neighbors_w & opposite)
    if skip_anchor in anchors:
        # {u, v} is sampled: see the module notes.
        count -= len(anchors) - 1
    return count, work


def u_side_cheaper(
    sample: GraphSample,
    neighbors_u: Set[Vertex],
    neighbors_v: Set[Vertex],
) -> bool:
    """Line 7 of Algorithm 1: whether ``u``'s side is the one to explore.

    ``neighbors_u`` and ``neighbors_v`` are the endpoints' non-empty
    neighbour sets in ``sample``.  True when ``u``'s sampled neighbours
    have the smaller cumulative sample degree.
    """
    if sample.weights_live:
        return neighbors_u.weight < neighbors_v.weight
    return sample.degree_sum(neighbors_u) < sample.degree_sum(neighbors_v)


def count_with_sample(
    sample: GraphSample,
    u: Vertex,
    v: Vertex,
    cheapest_side: bool = True,
) -> Tuple[int, int]:
    """Butterflies the edge ``{u, v}`` forms with sampled edges.

    Args:
        sample: the sampled subgraph ``S``.
        u: left endpoint of the incoming edge.
        v: right endpoint.
        cheapest_side: apply the cumulative-degree side selection
            (disable only for ablations).

    Returns:
        ``(count, work)`` — discovered butterflies and intersection
        element checks.
    """
    neighbors_u = sample.neighbors(u)
    neighbors_v = sample.neighbors(v)
    if not neighbors_u or not neighbors_v:
        return 0, 0
    # u_side_cheaper(), inlined: this runs once per stream element.
    if not cheapest_side:
        explore_u_side = True
    elif sample.weights_live:
        explore_u_side = neighbors_u.weight < neighbors_v.weight
    else:
        degree_sum = sample.degree_sum
        explore_u_side = degree_sum(neighbors_u) < degree_sum(neighbors_v)
    if explore_u_side:
        anchors, opposite, skip_anchor = neighbors_u, neighbors_v, v
    else:
        anchors, opposite, skip_anchor = neighbors_v, neighbors_u, u
    return _intersect_anchors(sample.neighbors, anchors, opposite, skip_anchor)


def count_with_mirror(
    mirror: NdAdjacency,
    sample: GraphSample,
    u: Vertex,
    v: Vertex,
    cheapest_side: bool = True,
) -> Tuple[int, int]:
    """Vectorized :func:`count_with_sample` over an in-sync mirror.

    Replaces the per-pair Python loops with array operations on the
    mirror's sorted neighbour-id rows:

    * side selection — one fancy-indexed degree sum per endpoint,
    * the per-anchor intersections — mark the opposite row in the
      mirror's boolean scratch mask, then count all anchors'
      concatenated neighbours through one boolean gather,
    * the work metric — ``min(deg(w), |opposite|)`` summed in one
      vectorized ``minimum``.

    The exclusions use the scalar kernel's closed form (module notes):
    when the arriving edge itself is sampled, the opposite endpoint
    leaves the anchor set and the explored endpoint is over-counted
    once per remaining anchor.

    ``mirror`` must reflect ``sample`` (same :attr:`GraphSample.version`);
    the estimators' batch engines maintain that invariant.  Returns the
    same ``(count, work)`` the scalar kernel would, bit for bit.
    """
    uid = mirror.id_of(u)
    vid = mirror.id_of(v)
    if uid is None or vid is None:
        return 0, 0
    rows = mirror.rows
    row_u = rows[uid]
    row_v = rows[vid]
    size_u = row_u.shape[0]
    size_v = row_v.shape[0]
    if size_u == 0 or size_v == 0:
        return 0, 0
    if size_u + size_v < VECTOR_CUTOFF:
        return count_with_sample(sample, u, v, cheapest_side=cheapest_side)
    degrees = mirror.degrees
    if cheapest_side:
        explore_u_side = degrees.take(row_u).sum() < degrees.take(row_v).sum()
    else:
        explore_u_side = True
    if explore_u_side:
        anchors, opposite, skip_id = row_u, row_v, vid
    else:
        anchors, opposite, skip_id = row_v, row_u, uid
    edge_sampled = sample.contains(u, v)
    if edge_sampled:
        anchors = anchors[anchors != skip_id]
        if anchors.shape[0] == 0:
            return 0, 0
    work = int(np.minimum(degrees.take(anchors), opposite.shape[0]).sum())
    flat = np.concatenate([rows[w] for w in anchors.tolist()])
    mask = mirror.scratch_mask
    mask[opposite] = True
    count = int(np.count_nonzero(mask.take(flat)))
    mask[opposite] = False
    if edge_sampled:
        count -= int(anchors.shape[0])
    return count, work


def count_with_versioned_sample(
    versioned: VersionedGraphSample,
    version: int,
    u: Vertex,
    v: Vertex,
    cheapest_side: bool = True,
) -> Tuple[int, int]:
    """Same as :func:`count_with_sample`, at one sample version.

    Materialises the (few) neighbour sets it needs from the delta-coded
    versioned sample; safe to call concurrently from several threads
    once the sequential phase has finished.
    """
    neighbors_u: Set[Vertex] = versioned.neighbors_at(u, version)
    neighbors_v: Set[Vertex] = versioned.neighbors_at(v, version)
    if not neighbors_u or not neighbors_v:
        return 0, 0
    if cheapest_side:
        cumulative_u = versioned.degree_sum_at(neighbors_u, version)
        cumulative_v = versioned.degree_sum_at(neighbors_v, version)
        explore_u_side = cumulative_u < cumulative_v
    else:
        explore_u_side = True
    if explore_u_side:
        anchors, opposite, skip_anchor = neighbors_u, neighbors_v, v
    else:
        anchors, opposite, skip_anchor = neighbors_v, neighbors_u, u
    return _intersect_anchors(
        lambda w: versioned.neighbors_at(w, version),
        anchors,
        opposite,
        skip_anchor,
    )

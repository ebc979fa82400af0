"""Sampling substrate.

Contains the bounded-size sampling schemes the estimators are built on:

* :class:`~repro.sampling.reservoir.ReservoirSampler` — Vitter's
  classic insert-only reservoir (used by the CAS baseline and as the
  negative control that breaks under deletions).
* :class:`~repro.sampling.random_pairing.RandomPairing` — Gemulla et
  al.'s Random Pairing, maintaining a uniform bounded sample under
  insertions *and* deletions (ABACUS's sampler).
* :class:`~repro.sampling.adjacency_sample.GraphSample` — the sampled
  edges stored as adjacency sets, supporting the set intersections at
  the heart of per-edge butterfly counting.
* :class:`~repro.sampling.versioned.VersionedGraphSample` — delta-coded
  sample versions for PARABACUS mini-batches on its thread pool.
* :class:`~repro.sampling.ndadjacency.NdAdjacency` — NumPy sorted-array
  mirror of a sample, the substrate of the vectorized batch-ingest
  kernels.
"""

from repro.sampling.adjacency_sample import GraphSample
from repro.sampling.ndadjacency import NUMPY_AVAILABLE, NdAdjacency
from repro.sampling.random_pairing import BatchIngestResult, RandomPairing
from repro.sampling.reservoir import ReservoirSampler
from repro.sampling.versioned import VersionedGraphSample

__all__ = [
    "BatchIngestResult",
    "GraphSample",
    "NUMPY_AVAILABLE",
    "NdAdjacency",
    "RandomPairing",
    "ReservoirSampler",
    "VersionedGraphSample",
]

"""Synthetic analogues of the paper's four datasets (Table II).

The paper evaluates on MovieLens (10M edges), LiveJournal (112M),
Trackers (140.6M), and Orkut (327M) from KONECT.  None of these is
available offline, and a pure-Python reproduction processes streams
about three orders of magnitude smaller; docs/paper_map.md,
substitution #1, explains the scaling argument.

Each analogue is a Chung–Lu power-law bipartite graph whose shape
parameters were tuned so that the *butterfly-density ordering* of
Table II is preserved:

    MovieLens-like  >>  Trackers-like  >  LiveJournal-like  >  Orkut-like

MovieLens has a small, heavily reused right side (movies), making it by
far the densest in butterflies; Orkut's group-membership graph is the
sparsest.  Sample sizes are scaled with the streams: the paper's
75K/150K/300K edges become the per-dataset ``sample_sizes`` below,
keeping sample-to-stream ratios in a comparable regime.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ExperimentError
from repro.graph.generators import bipartite_chung_lu
from repro.streams.dynamic import make_fully_dynamic, stream_from_edges
from repro.streams.stream import EdgeStream
from repro.types import Edge


@dataclass(frozen=True)
class DatasetSpec:
    """A reproducible synthetic dataset configuration.

    Attributes:
        name: registry key (e.g. ``"movielens_like"``).
        paper_name: the dataset this analogue stands in for.
        n_left / n_right: partition sizes offered to the generator.
        n_edges: number of distinct edges (insertion stream length).
        left_exponent / right_exponent: power-law exponents of the two
            weight sequences (lower = heavier tail = more hubs).
        sample_sizes: the three memory budgets standing in for the
            paper's 75K / 150K / 300K edges.
        base_seed: generator seed; trial ``i`` uses ``base_seed + i``
            for stream-level randomness while keeping the graph fixed.
    """

    name: str
    paper_name: str
    n_left: int
    n_right: int
    n_edges: int
    left_exponent: float
    right_exponent: float
    sample_sizes: Tuple[int, int, int] = (1500, 3000, 6000)
    base_seed: int = 20240312

    def edges(self) -> List[Edge]:
        """Generate the dataset's edge list (deterministic)."""
        rng = random.Random(self.base_seed)
        return bipartite_chung_lu(
            self.n_left,
            self.n_right,
            self.n_edges,
            left_exponent=self.left_exponent,
            right_exponent=self.right_exponent,
            rng=rng,
        )

    def stream(self, alpha: float = 0.2, trial: int = 0) -> EdgeStream:
        """The fully dynamic stream for one trial.

        The underlying graph is fixed per dataset; the deletion choice
        and placement vary with ``trial`` (matching the paper's 10
        repeated runs per configuration).
        """
        edges = _edge_cache(self)
        if alpha == 0.0:
            return stream_from_edges(edges)
        rng = random.Random(self.base_seed + 7919 * (trial + 1))
        return make_fully_dynamic(edges, alpha, rng)


# Edge lists are deterministic per spec, so memoise them per process.
_EDGE_CACHE: Dict[str, List[Edge]] = {}


def _edge_cache(spec: DatasetSpec) -> List[Edge]:
    cached = _EDGE_CACHE.get(spec.name)
    if cached is None:
        cached = spec.edges()
        _EDGE_CACHE[spec.name] = cached
    return cached


DATASETS: Dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in (
        DatasetSpec(
            name="movielens_like",
            paper_name="MovieLens",
            n_left=3000,
            n_right=400,
            n_edges=30000,
            left_exponent=2.1,
            right_exponent=1.9,
        ),
        DatasetSpec(
            name="livejournal_like",
            paper_name="LiveJournal",
            n_left=12000,
            n_right=9000,
            n_edges=45000,
            left_exponent=2.2,
            right_exponent=2.1,
        ),
        DatasetSpec(
            name="trackers_like",
            paper_name="Trackers",
            n_left=15000,
            n_right=4000,
            n_edges=45000,
            left_exponent=2.3,
            right_exponent=1.95,
        ),
        DatasetSpec(
            name="orkut_like",
            paper_name="Orkut",
            n_left=10000,
            n_right=12000,
            n_edges=50000,
            left_exponent=2.45,
            right_exponent=2.3,
        ),
    )
}


def get_dataset(name: str) -> DatasetSpec:
    """Look up a dataset spec by registry name."""
    spec = DATASETS.get(name)
    if spec is None:
        raise ExperimentError(
            f"unknown dataset {name!r}; available: {sorted(DATASETS)}"
        )
    return spec


def list_datasets() -> List[str]:
    """Registry names, in the paper's Table II order."""
    return list(DATASETS)


def tiny_dataset(n_edges: int = 2000, seed: int = 7) -> DatasetSpec:
    """A miniature spec for fast tests (not part of the registry)."""
    return DatasetSpec(
        name=f"tiny_{n_edges}_{seed}",
        paper_name="Tiny",
        n_left=max(60, n_edges // 8),
        n_right=max(30, n_edges // 16),
        n_edges=n_edges,
        left_exponent=2.1,
        right_exponent=2.0,
        sample_sizes=(200, 400, 800),
        base_seed=seed,
    )

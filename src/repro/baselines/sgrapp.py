"""sGrapp-style window-based butterfly approximation (simplified).

Sheshbolouki & Özsu's sGrapp (TKDD 2022, cited as [5] in the paper)
approximates butterfly counts in insert-only streams from an *adaptive
window*: it counts exactly the butterflies that materialise inside each
window and extrapolates the inter-window remainder from the "butterfly
densification power law" (BDPL) — empirically, the cumulative butterfly
count grows as a power ``c * |E|^gamma`` of the edge count.

This reimplementation keeps that architecture in a deliberately simple
form (see docs/paper_map.md, substitution #4):

* The stream is consumed in windows of ``window`` insertions; a graph of
  only the *current* window's edges is kept, and the butterflies closed
  within it are counted exactly (bounded memory O(window)).
* For the first ``learning_windows`` windows the full prefix graph is
  also maintained, giving the true cumulative count; the ratio
  ``true / intra-window`` is fitted against ``|E|`` on a log-log scale
  (the BDPL exponent) with a least-squares line.
* Afterwards the learning graph is discarded and the estimate is the
  cumulative intra-window count scaled by the fitted power law.

Like FLEET and CAS, sGrapp has no deletion story: deletions are
discarded, with the same accuracy consequences on fully dynamic streams.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.core.base import ButterflyEstimator
from repro.errors import EstimatorError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.butterflies import butterflies_containing_edge
from repro.types import Op, StreamElement


class SGrapp(ButterflyEstimator):
    """Window-based BDPL butterfly estimator (insert-only).

    Args:
        window: insertions per window (bounded-memory working set).
        learning_windows: windows used to fit the BDPL correction; the
            full prefix graph is kept only during this phase.
    """

    name = "sGrapp"
    #: sGrapp fits its BDPL correction on *global* window prefixes; a
    #: left-vertex partitioned substream changes the window contents and
    #: the fitted exponent non-uniformly, so the K-corrected shard merge
    #: of repro.shard would not estimate the global count.
    supports_sharding = False
    #: Insert-only: deletions are skipped, so windowing (which works by
    #: synthesizing deletions) cannot wrap this estimator.
    supports_deletions = False

    def __init__(self, window: int = 2000, learning_windows: int = 4) -> None:
        if window < 1:
            raise EstimatorError(f"window must be >= 1, got {window}")
        if learning_windows < 2:
            raise EstimatorError(
                f"need >= 2 learning windows to fit, got {learning_windows}"
            )
        self.window = window
        self.learning_windows = learning_windows
        self._window_graph = BipartiteGraph()
        self._learning_graph: Optional[BipartiteGraph] = BipartiteGraph()
        self._true_count = 0           # exact, learning phase only
        self._intra_cumulative = 0.0   # sum of within-window butterflies
        self._edges_seen = 0
        self._in_window = 0
        self._windows_closed = 0
        # (log |E|, log ratio) points collected during learning.
        self._fit_points: List[Tuple[float, float]] = []
        self._log_c = 0.0
        self._beta = 0.0

    # ------------------------------------------------------------------
    # ButterflyEstimator interface
    # ------------------------------------------------------------------
    @property
    def estimate(self) -> float:
        if self._learning_graph is not None:
            return float(self._true_count)  # exact while learning
        if self._intra_cumulative <= 0.0 or self._edges_seen == 0:
            return 0.0
        correction = math.exp(
            self._log_c + self._beta * math.log(self._edges_seen)
        )
        return self._intra_cumulative * correction

    @property
    def memory_edges(self) -> int:
        learning = (
            self._learning_graph.num_edges
            if self._learning_graph is not None
            else 0
        )
        return self._window_graph.num_edges + learning

    @property
    def learning(self) -> bool:
        """Whether the estimator is still in its learning phase."""
        return self._learning_graph is not None

    @property
    def bdpl_exponent(self) -> float:
        """The fitted correction exponent (0.0 while learning)."""
        return self._beta

    def process(self, element: StreamElement) -> float:
        if element.op is Op.DELETE:
            return 0.0  # sGrapp is insert-only: deletions are discarded.
        u, v = element.u, element.v
        before = self.estimate
        # Exact butterflies this edge closes within the current window.
        if not self._window_graph.has_edge(u, v):
            self._intra_cumulative += butterflies_containing_edge(
                self._window_graph, u, v
            )
            self._window_graph.add_edge(u, v)
        if (
            self._learning_graph is not None
            and not self._learning_graph.has_edge(u, v)
        ):
            self._true_count += butterflies_containing_edge(
                self._learning_graph, u, v
            )
            self._learning_graph.add_edge(u, v)
        self._edges_seen += 1
        self._in_window += 1
        if self._in_window >= self.window:
            self._close_window()
        return self.estimate - before

    # ------------------------------------------------------------------
    # Window lifecycle
    # ------------------------------------------------------------------
    def _close_window(self) -> None:
        self._windows_closed += 1
        if self._learning_graph is not None:
            if self._intra_cumulative > 0 and self._true_count > 0:
                self._fit_points.append(
                    (
                        math.log(self._edges_seen),
                        math.log(self._true_count / self._intra_cumulative),
                    )
                )
            if self._windows_closed >= self.learning_windows:
                self._finish_learning()
        self._window_graph = BipartiteGraph()
        self._in_window = 0

    def _finish_learning(self) -> None:
        """Fit ``log ratio = log c + beta log |E|`` and drop the graph."""
        points = self._fit_points
        if len(points) >= 2:
            n = len(points)
            mean_x = sum(x for x, _ in points) / n
            mean_y = sum(y for _, y in points) / n
            var_x = sum((x - mean_x) ** 2 for x, _ in points)
            if var_x > 0:
                cov = sum(
                    (x - mean_x) * (y - mean_y) for x, y in points
                )
                self._beta = cov / var_x
                self._log_c = mean_y - self._beta * mean_x
            else:
                self._beta = 0.0
                self._log_c = mean_y
        elif len(points) == 1:
            self._beta = 0.0
            self._log_c = points[0][1]
        # else: no butterflies observed while learning; correction 1.
        self._learning_graph = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        phase = "learning" if self.learning else f"beta={self._beta:.3f}"
        return (
            f"SGrapp(window={self.window}, windows={self._windows_closed}, "
            f"{phase}, estimate={self.estimate:.1f})"
        )

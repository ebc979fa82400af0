"""Extension experiments beyond the paper's Table II / Figures 3-10.

Two additional studies round out the evaluation:

* :func:`run_variance_bound` — empirical variance of ABACUS against the
  Theorem 2 closed-form upper bound, per memory budget.
* :func:`run_ensemble` — variance reduction from averaging independent
  replicas, in both the extra-memory and shared-memory accountings.

Like :mod:`repro.experiments.figures`, every function returns a dict
with a rendered ``text`` report plus the structured numbers, so the
benchmarks and the CLI share one implementation.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Sequence

from repro.api.registry import EstimatorSpec, build_estimator
from repro.core.probabilities import variance_upper_bound
from repro.experiments.report import render_table
from repro.experiments.runner import ground_truth_final_count
from repro.graph.generators import bipartite_erdos_renyi
from repro.streams.dynamic import make_fully_dynamic, stream_from_edges


def _estimator(name: str, **params):
    """Build a registered estimator from keyword params."""
    return build_estimator(EstimatorSpec(name, params))


def _sample_stats(values: Sequence[float]) -> Dict[str, float]:
    n = len(values)
    mean = sum(values) / n
    variance = (
        sum((v - mean) ** 2 for v in values) / (n - 1) if n > 1 else 0.0
    )
    return {"mean": mean, "variance": variance, "se": math.sqrt(variance / n)}


# ---------------------------------------------------------------------------
# Theorem 2: empirical variance vs the closed-form upper bound
# ---------------------------------------------------------------------------
def run_variance_bound(
    budgets: Sequence[int] = (100, 200, 400),
    trials: int = 150,
    n_left: int = 60,
    n_right: int = 40,
    n_edges: int = 700,
    seed: int = 20,
) -> Dict:
    """Empirical Var[c] per budget against the Theorem 2 upper bound.

    Insert-only workload (the bound's ``|E|`` is the live edge count at
    the end of the stream, which insert-only keeps unambiguous).

    Returns:
        dict with per-budget rows ``(k, empirical, bound, ratio)`` and
        the rendered report; every ratio must be <= 1 within sampling
        slack for Theorem 2 to hold.
    """
    edges = bipartite_erdos_renyi(
        n_left, n_right, n_edges, random.Random(seed)
    )
    stream = stream_from_edges(edges)
    truth = ground_truth_final_count(stream)
    rows: List[tuple] = []
    series = {}
    for budget in budgets:
        estimates = [
            _estimator(
                "abacus", budget=budget, seed=seed + 1000 + t
            ).process_stream(stream)
            for t in range(trials)
        ]
        stats = _sample_stats(estimates)
        bound = variance_upper_bound(float(truth), len(edges), budget)
        ratio = stats["variance"] / bound if bound > 0 else 0.0
        series[budget] = {
            "empirical": stats["variance"],
            "bound": bound,
            "ratio": ratio,
            "mean": stats["mean"],
        }
        rows.append((budget, stats["variance"], bound, ratio))
    text = render_table(
        ("k", "empirical Var", "Theorem-2 bound", "ratio"),
        rows,
        title=(
            f"Variance bound check (truth={truth}, |E|={len(edges)}, "
            f"{trials} trials)"
        ),
    )
    return {"text": text, "truth": truth, "series": series}


# ---------------------------------------------------------------------------
# Ensembles: variance reduction vs memory accounting
# ---------------------------------------------------------------------------
def run_ensemble(
    replicas: int = 4,
    budget: int = 80,
    trials: int = 60,
    alpha: float = 0.2,
    seed: int = 30,
) -> Dict:
    """RMSE of a single instance vs two ensemble accountings.

    Configurations (all unbiased):

    * ``single`` — one ABACUS with budget ``k``.
    * ``ensemble-extra`` — ``r`` replicas, *each* with budget ``k``
      (memory ``r * k``); expected RMSE reduction ``~sqrt(r)``.
    * ``ensemble-shared`` — ``r`` replicas sharing budget ``k`` (memory
      ``~k``); Theorem 2's superlinear variance in ``1/k`` predicts
      this *loses* to the single instance.
    """
    rng = random.Random(seed)
    edges = bipartite_erdos_renyi(40, 40, 420, rng)
    stream = make_fully_dynamic(edges, alpha, random.Random(seed + 1))
    truth = ground_truth_final_count(stream)

    def rmse(values: Sequence[float]) -> float:
        return math.sqrt(
            sum((v - truth) ** 2 for v in values) / len(values)
        )

    singles = [
        _estimator(
            "abacus", budget=budget, seed=seed + 100 + t
        ).process_stream(stream)
        for t in range(trials)
    ]
    extra = [
        _estimator(
            "ensemble", replicas=replicas, budget=budget, seed=seed + 300 + t
        ).process_stream(stream)
        for t in range(trials)
    ]
    shared = [
        _estimator(
            "ensemble",
            replicas=replicas,
            budget=budget,
            share_budget=True,
            seed=seed + 500 + t,
        ).process_stream(stream)
        for t in range(trials)
    ]
    results = {
        "single": {"rmse": rmse(singles), "memory": budget},
        "ensemble-extra": {
            "rmse": rmse(extra),
            "memory": replicas * budget,
        },
        "ensemble-shared": {"rmse": rmse(shared), "memory": budget},
    }
    rows = [
        (name, info["memory"], info["rmse"])
        for name, info in results.items()
    ]
    text = render_table(
        ("configuration", "memory (edges)", "RMSE"),
        rows,
        title=(
            f"Ensemble ablation (r={replicas}, k={budget}, "
            f"truth={truth}, {trials} trials, alpha={alpha})"
        ),
    )
    return {"text": text, "truth": truth, "results": results}

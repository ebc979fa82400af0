"""Ablations of Algorithm 1's design choices (docs/paper_map.md).

(a) cheapest-side heuristic (Algorithm 1, line 7): estimates identical,
    intersection work should not increase (and typically drops);
(b) naive increment (ignoring the compensation counters in Equation 1):
    a deletion-unaware weighting that skews the estimate.

The table also shows each variant's mean wall time per trial, reported
only: host speed varies too much for a timing assertion.
"""

from conftest import emit

from repro.experiments.figures import run_ablation_heuristics


def test_ablation_heuristics(benchmark, ctx, results_dir, quick):
    result = benchmark.pedantic(
        run_ablation_heuristics,
        kwargs={
            "datasets": (
                ("movielens_like",)
                if quick
                else ("movielens_like", "orkut_like")
            ),
            "trials": 1 if quick else 2,
            "context": ctx,
        },
        rounds=1,
        iterations=1,
    )
    emit(results_dir, "ablation_heuristics", result["text"])
    for name, variants in result["results"].items():
        default = variants["default"]
        no_heuristic = variants["no_cheapest_side"]
        # Same estimates (identical discoveries), so same error.
        assert abs(default["error"] - no_heuristic["error"]) < 1e-9, name
        # The heuristic does not increase intersection work.
        assert default["work"] <= no_heuristic["work"] * 1.05, (
            name,
            default["work"],
            no_heuristic["work"],
        )

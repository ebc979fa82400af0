"""Figure 8: PARABACUS speedup vs mini-batch size (all threads).

Work-model speedup (docs/paper_map.md, substitution #2) for M in {100,
500, 1000, 5000, 10000} with 40 workers and all three budgets per
dataset.
Expected shape: speedup grows with M (more work per parallel phase
amortises the sequential versioning) and is largest on the densest
graph (MovieLens-like) and the largest budget.
"""

from conftest import emit

from repro.experiments.figures import run_minibatch_speedup


def test_fig8_minibatch_speedup(
    benchmark, ctx, results_dir, quick, bench_datasets
):
    result = benchmark.pedantic(
        run_minibatch_speedup,
        kwargs={
            "num_threads": 40,
            "batch_sizes": (
                (500, 5000) if quick else (100, 500, 1000, 5000, 10000)
            ),
            "datasets": bench_datasets,
            "context": ctx,
        },
        rounds=1,
        iterations=1,
    )
    emit(results_dir, "fig8_minibatch_speedup", result["text"])
    if quick:
        return  # speedup shapes need the full batch-size sweep
    for name, data in result["results"].items():
        pure = {
            label: s
            for label, s in data["speedup"].items()
            if not label.endswith("+ovh")
        }
        overhead = {
            label: s
            for label, s in data["speedup"].items()
            if label.endswith("+ovh")
        }
        for label, speedups in pure.items():
            assert all(s >= 1.0 for s in speedups), (name, label)
            # Pure work model: flat-to-growing in M.
            assert speedups[-1] >= speedups[0] * 0.9, (name, label, speedups)
        for label, speedups in overhead.items():
            # With fork/join dispatch costs, larger batches amortise the
            # overhead: the paper's growth-in-M shape.
            assert speedups[-1] > speedups[0], (name, label, speedups)
        largest_budget = list(pure.values())[-1]
        assert max(largest_budget) > 2.0, (name, data["speedup"])
    # Densest graph gains the most at the largest configuration.
    movielens = result["results"]["movielens_like"]["speedup"]
    orkut = result["results"]["orkut_like"]["speedup"]
    assert max(max(s) for s in movielens.values()) >= max(
        max(s) for s in orkut.values()
    ) * 0.8

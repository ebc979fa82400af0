"""Integration tests for the per-figure experiment definitions.

Each figure function is exercised end-to-end on a miniature dataset
injected into the registry, checking structure and the qualitative
"shapes" the paper reports (e.g. ABACUS beats the insert-only baselines
under deletions).
"""

import pytest

from repro.experiments import figures
from repro.experiments.datasets import DATASETS, tiny_dataset
from repro.experiments.runner import ExperimentContext


@pytest.fixture
def tiny_registry():
    """Temporarily register a miniature dataset as 'tiny_test'."""
    spec = tiny_dataset(n_edges=1500, seed=17)
    object.__setattr__(spec, "name", "tiny_test")
    DATASETS["tiny_test"] = spec
    try:
        yield ["tiny_test"]
    finally:
        del DATASETS["tiny_test"]


@pytest.fixture
def ctx():
    return ExperimentContext()


class TestTable2:
    def test_structure(self, tiny_registry):
        result = figures.run_table2(datasets=tiny_registry)
        stats = result["stats"]["tiny_test"]
        assert stats["edges"] == 1500
        assert stats["butterflies"] > 0
        assert 0.0 < stats["density"] <= 1.0
        assert "Butterfly Density" in result["text"]


class TestAccuracyFigures:
    def test_fig3_shape(self, tiny_registry, ctx):
        result = figures.run_accuracy_vs_sample_size(
            alpha=0.2, trials=2, datasets=tiny_registry, context=ctx
        )
        data = result["results"]["tiny_test"]
        abacus_errors = data["errors"]["abacus"]
        fleet_errors = data["errors"]["fleet"]
        assert len(abacus_errors) == 3
        # Under 20% deletions ABACUS must beat the insert-only FLEET at
        # every sample size (the paper's headline result).
        assert all(
            a < f for a, f in zip(abacus_errors, fleet_errors)
        ), (abacus_errors, fleet_errors)

    def test_fig5_insert_only(self, tiny_registry, ctx):
        result = figures.run_accuracy_vs_sample_size(
            alpha=0.0,
            trials=2,
            datasets=tiny_registry,
            methods=("abacus", "fleet"),
            context=ctx,
        )
        data = result["results"]["tiny_test"]
        # On insert-only streams everyone is decent.
        assert all(e < 0.5 for e in data["errors"]["abacus"])
        assert all(e < 0.5 for e in data["errors"]["fleet"])
        assert "Figure 5" in result["title"]


class TestThroughputFigure:
    def test_fig4_columns(self, tiny_registry, ctx):
        result = figures.run_throughput_vs_sample_size(
            datasets=tiny_registry, num_threads=4, context=ctx
        )
        columns = result["results"]["tiny_test"]["throughput_keps"]
        for name, series in columns.items():
            assert len(series) == 3, name
            assert all(v > 0 for v in series), name


class TestDeletionImpact:
    def test_fig6_series(self, tiny_registry, ctx):
        result = figures.run_deletion_ratio_impact(
            alphas=(0.1, 0.3),
            trials=1,
            datasets=tiny_registry,
            context=ctx,
        )
        errors = result["errors_pct"]["Tiny"]
        rates = result["throughput_keps"]["Tiny"]
        assert len(errors) == 2 and len(rates) == 2
        assert all(r > 0 for r in rates)


class TestScalability:
    def test_fig7_monotone_elapsed(self, tiny_registry, ctx):
        result = figures.run_scalability(
            datasets=tiny_registry, parts=5, context=ctx
        )
        series = result["results"]["tiny_test"]["elapsed_s"]
        for label, elapsed in series.items():
            assert len(elapsed) == 5, label
            assert elapsed == sorted(elapsed), label


class TestSpeedupFigures:
    def test_fig8_structure(self, tiny_registry, ctx):
        result = figures.run_minibatch_speedup(
            batch_sizes=(50, 200),
            num_threads=8,
            datasets=tiny_registry,
            context=ctx,
        )
        series = result["results"]["tiny_test"]["speedup"]
        for label, speedups in series.items():
            assert len(speedups) == 2
            if label.endswith("+ovh"):
                # Dispatch-adjusted speedup can dip below 1 at tiny
                # batch sizes (overhead dominates) but must grow with M.
                assert speedups[-1] > speedups[0], label
            else:
                assert all(s >= 1.0 for s in speedups), label

    def test_fig9_more_threads_not_slower(self, tiny_registry, ctx):
        result = figures.run_thread_speedup(
            thread_counts=(2, 8),
            batch_size=200,
            datasets=tiny_registry,
            context=ctx,
        )
        series = result["results"]["tiny_test"]["speedup"]
        for label, speedups in series.items():
            assert speedups[0] <= speedups[1] + 1e-9, label


class TestLoadBalance:
    def test_fig10_balance(self, tiny_registry, ctx):
        result = figures.run_load_balance(
            datasets=tiny_registry,
            batch_size=200,
            num_threads=4,
            context=ctx,
        )
        data = result["results"]["tiny_test"]
        assert len(data["per_thread_work"]) == 4
        assert data["balance"].total > 0
        # Near-equal workloads (generous tolerance at tiny scale).
        assert data["balance"].imbalance < 2.0


class TestExtras:
    def test_unbiasedness_run(self):
        result = figures.run_unbiasedness(
            n_edges=400, budget=80, trials=60, seed=3
        )
        assert result["truth"] > 0
        # Mean of 60 runs within 5 standard errors.
        assert abs(result["z"]) < 5.0

    def test_ablation_structure(self, tiny_registry, ctx):
        result = figures.run_ablation_heuristics(
            datasets=tiny_registry, trials=1, context=ctx
        )
        variants = result["results"]["tiny_test"]
        assert set(variants) == {
            "default",
            "no_cheapest_side",
            "naive_increment",
        }
        # The heuristic never increases counting error (estimates are
        # identical); work may differ.
        assert variants["default"]["error"] == pytest.approx(
            variants["no_cheapest_side"]["error"]
        )
        # Wall time is reported beside work, never asserted on.
        assert all(v["seconds"] >= 0.0 for v in variants.values())
        assert "Mean seconds" in result["text"]

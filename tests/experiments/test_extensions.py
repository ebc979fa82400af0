"""Smoke tests for the extension experiments (small parameters)."""

from repro.experiments.extensions import run_ensemble, run_variance_bound


class TestRunVarianceBound:
    def test_structure_and_theorem(self):
        result = run_variance_bound(
            budgets=(80, 160),
            trials=40,
            n_left=30,
            n_right=20,
            n_edges=250,
        )
        assert result["truth"] > 0
        assert set(result["series"]) == {80, 160}
        for info in result["series"].values():
            assert info["bound"] > 0
            # Generous slack: 40 trials estimate the variance noisily.
            assert info["ratio"] < 3.0
        assert "Theorem-2 bound" in result["text"]


class TestRunEnsemble:
    def test_structure(self):
        result = run_ensemble(replicas=3, budget=60, trials=15)
        assert set(result["results"]) == {
            "single",
            "ensemble-extra",
            "ensemble-shared",
        }
        assert result["results"]["ensemble-extra"]["memory"] == 180
        assert result["results"]["single"]["memory"] == 60
        assert all(
            info["rmse"] >= 0 for info in result["results"].values()
        )


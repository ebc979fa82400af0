"""Unit tests for the CLI."""

import pytest

from repro.cli import _split_datasets, build_parser, run_experiment
from repro.experiments.datasets import DATASETS, tiny_dataset
from repro.experiments.runner import ExperimentContext


@pytest.fixture
def tiny_registry():
    spec = tiny_dataset(n_edges=1000, seed=23)
    object.__setattr__(spec, "name", "tiny_cli")
    DATASETS["tiny_cli"] = spec
    try:
        yield ["tiny_cli"]
    finally:
        del DATASETS["tiny_cli"]


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["table2"])
        assert args.experiment == "table2"
        assert args.trials == 5
        assert args.datasets is None

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_split_datasets(self):
        assert _split_datasets(None) is None
        assert _split_datasets("a, b,c") == ["a", "b", "c"]
        assert _split_datasets("") is None


class TestRunExperiment:
    def test_table2(self, tiny_registry):
        report = run_experiment("table2", 1, tiny_registry, 4)
        assert "Butterfly Density" in report

    def test_fig3(self, tiny_registry):
        report = run_experiment(
            "fig3", 1, tiny_registry, 4, ExperimentContext()
        )
        assert "Figure 3" in report
        assert "ABACUS" in report

    def test_fig10(self, tiny_registry):
        report = run_experiment(
            "fig10", 1, tiny_registry, 4, ExperimentContext()
        )
        assert "Figure 10" in report

    def test_unknown_name_raises(self, tiny_registry):
        with pytest.raises(SystemExit):
            run_experiment("nope", 1, tiny_registry, 4)


class TestChartFlag:
    def test_parser_accepts_chart(self):
        args = build_parser().parse_args(["fig3", "--chart"])
        assert args.chart is True

    def test_fig3_chart_appended(self, tiny_registry):
        plain = run_experiment(
            "fig3", 1, tiny_registry, 4, ExperimentContext()
        )
        charted = run_experiment(
            "fig3", 1, tiny_registry, 4, ExperimentContext(), chart=True
        )
        assert charted.startswith(plain)
        assert "error %" in charted
        assert "*=ABACUS" in charted

    def test_extension_experiments_resolve(self):
        report = run_experiment(
            "ensemble", 1, None, 4, ExperimentContext()
        )
        assert "Ensemble ablation" in report and "RMSE" in report


class TestWindowFlags:
    def test_parser_accepts_window_flags(self):
        args = build_parser().parse_args(
            ["stream", "--window", "500", "--window-time", "2.5"]
        )
        assert args.window == 500
        assert args.window_time == 2.5

    def test_parser_window_defaults_off(self):
        args = build_parser().parse_args(["stream"])
        assert args.window == 0
        assert args.window_time == 0.0

    def test_stream_with_count_window(self, tiny_registry):
        report = run_experiment(
            "stream",
            1,
            tiny_registry,
            4,
            ExperimentContext(),
            estimator_spec="abacus:budget=200,seed=7",
            window=300,
        )
        assert "[window=300]" in report
        assert "exact (no window)" in report

    def test_stream_with_time_window(self, tiny_registry):
        report = run_experiment(
            "stream",
            1,
            tiny_registry,
            4,
            ExperimentContext(),
            estimator_spec="exact",
            window_time=250.0,
        )
        assert "[window_time=250]" in report

    def test_windowed_stream_counts_fewer_than_unwindowed(
        self, tiny_registry
    ):
        ctx = ExperimentContext()
        full = run_experiment(
            "stream", 1, tiny_registry, 4, ctx, estimator_spec="exact"
        )
        windowed = run_experiment(
            "stream", 1, tiny_registry, 4, ctx, estimator_spec="exact",
            window=50,
        )

        def estimate_of(report):
            for line in report.splitlines():
                if line.strip().startswith("estimate"):
                    return float(line.split(":")[1].replace(",", ""))
            raise AssertionError(report)

        assert estimate_of(windowed) <= estimate_of(full)

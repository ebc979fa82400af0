"""The documented public API surface stays importable and coherent."""

import repro


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__ == "1.7.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_estimators_share_interface(self):
        from repro import ButterflyEstimator

        for cls in (
            repro.Abacus,
            repro.AbacusSupport,
            repro.EnsembleEstimator,
            repro.Parabacus,
            repro.Fleet,
            repro.CoAffiliationSampling,
            repro.ExactStreamingCounter,
        ):
            assert issubclass(cls, ButterflyEstimator)

    def test_subpackage_alls_resolve(self):
        import repro.baselines as baselines
        import repro.core as core
        import repro.graph as graph
        import repro.metrics as metrics
        import repro.sampling as sampling
        import repro.serve as serve
        import repro.sketch as sketch
        import repro.store as store
        import repro.streams as streams

        for module in (
            core,
            graph,
            streams,
            sampling,
            sketch,
            baselines,
            metrics,
            store,
            serve,
        ):
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)

    def test_estimator_names_unique(self):
        names = {
            repro.Abacus.name,
            repro.Parabacus.name,
            repro.Fleet.name,
            repro.CoAffiliationSampling.name,
            repro.ExactStreamingCounter.name,
        }
        assert len(names) == 5

"""Self-tests of the benchmark's own helpers.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

import math

import pytest

from repro.core.parabacus import Parabacus
from repro.streams.dynamic import validate_stream

from perfbench import gen
from perfbench.checks import (
    Checks,
    check_ack,
    check_estimate,
    check_parabacus,
    parabacus_reference,
)
from perfbench.stats import (
    OpenLoop,
    covered,
    nearest_rank,
    self_time,
    summarize,
    supported_tail,
)
from perfbench.tracing import Tracer, self_times


class TestPercentiles:
    @pytest.mark.parametrize(
        "n, label",
        [
            (9, None),
            (99, None),
            (100, "p90"),
            (999, "p90"),
            (1000, "p99"),
            (10_000, "p99.9"),
        ],
    )
    def test_tail_needs_ten_samples_beyond(self, n, label):
        summary = summarize(range(n))
        assert summary["n"] == n
        assert (summary["tail"] and summary["tail"][0]) == label
        q = supported_tail(n)
        if q is not None:
            rank = math.ceil(q * n)
            assert n - rank >= 10

    def test_nearest_rank_and_median(self):
        values = list(range(1, 101))
        assert nearest_rank(values, supported_tail(100)) == 90
        assert summarize(values)["p50"] == 50.5
        assert summarize([])["p50"] is None


class TestOpenLoop:
    def test_latency_counts_from_the_due_time(self):
        schedule = OpenLoop(start=100.0, period=10.0)
        schedule.record(0, sent=110.0, done=111.0)  # on time
        # The reply to op 0 stalled the sender: op 1 (due 120) leaves
        # at 135 and its latency includes the 15 s it waited to leave.
        schedule.record(1, sent=135.0, done=136.0)
        schedule.record(2, sent=129.0, done=131.0)  # early sends are 0
        assert schedule.latency == [1.0, 16.0, 1.0]
        assert schedule.late == [0.0, 15.0, 0.0]

    def test_rejects_non_positive_period(self):
        with pytest.raises(ValueError):
            OpenLoop(0.0, 0.0)


class TestSelfTime:
    def test_union_of_children_clipped_to_span(self):
        children = [(2, 4), (3, 6), (8, 12), (-5, 1), (20, 30)]
        assert covered(0, 10, children) == 7
        assert self_time(0, 10, children, leaf_time=1) == 2

    def test_no_children(self):
        assert self_time(1.5, 4.0, []) == 2.5

    def test_tracer_charges_leaf_time_to_its_parent(self):
        tracer = Tracer()

        def inner():
            return sum(range(1000))

        wrapped_inner = tracer.leaf("counting.scalar", inner)
        outer = tracer.recorded(
            "session.ingest", lambda: [wrapped_inner() for _ in range(5)]
        )
        outer()
        names = self_times([tracer.export()])
        span, leaf = names["session.ingest"], names["counting.scalar"]
        assert leaf["calls"] == 5
        assert span["self_s"] + leaf["total_s"] == pytest.approx(
            span["total_s"], rel=1e-9
        )


class TestChecks:
    def test_rejects_a_perturbed_estimate(self):
        response = {"ok": True, "result": {"elements": 10, "estimate": 4.0}}
        checks = Checks()
        check_estimate(checks, response, 10, 4.0, "final")
        assert checks.ok
        check_estimate(checks, response, 10, math.nextafter(4.0, 5.0), "final")
        assert not checks.ok

    def test_rejects_a_short_ingest(self):
        checks = Checks()
        full = {"ok": True, "result": {"accepted": 256, "elements": 512}}
        assert check_ack(checks, full, 256, 512)
        short = {"ok": True, "result": {"accepted": 255, "elements": 511}}
        assert not check_ack(checks, short, 256, 512)
        refused = {"ok": False, "error": {"type": "ServeError"}}
        assert not check_ack(checks, refused, 256, 512)
        checks = Checks()
        served = {"ok": True, "result": {"elements": 99, "estimate": 4.0}}
        check_estimate(checks, served, 100, 4.0, "final")
        assert not checks.ok

    def test_parabacus_fold_is_exact_and_perturbation_fails(self):
        stream = gen.make_stream("test", 3, 60, 20, 600)
        reference = parabacus_reference(stream, 200, 3, 50, 2)
        estimator = Parabacus(200, batch_size=50, num_threads=2, seed=3)
        estimator.process_batch(stream)
        estimator.flush()
        checks = Checks()
        check_parabacus(checks, estimator, reference)
        assert checks.ok
        reference["estimate"] = math.nextafter(reference["estimate"], 0.0)
        check_parabacus(checks, estimator, reference)
        assert not checks.ok


class TestGenerator:
    def test_same_seed_same_stream(self):
        first = gen.make_stream("test", 7, 50, 20, 300)
        assert first == gen.make_stream("test", 7, 50, 20, 300)
        assert first != gen.make_stream("test", 8, 50, 20, 300)

    def test_fully_dynamic_with_alpha_deletions(self):
        stream = gen.make_stream("test", 1, 50, 20, 300)
        assert len(stream) == 300 + round(300 * gen.ALPHA)
        validate_stream(stream)

"""The behavioural contract every registered estimator keeps.

Each property below is checked for every registry entry it applies to,
so an estimator added to :mod:`repro.api.builtin` is held to it without
a new test:

* an empty stream reads zero and holds no edges;
* the same spec over the same stream gives the same trajectory;
* :meth:`process` returns the signed change it applied to the estimate;
* a fully dynamic estimator whose budget covers the stream is exact at
  every step, and returns to zero when every edge is deleted again;
* an insert-only baseline skips deletions: a fully dynamic stream reads
  the same as its insertion-only projection;
* a sampled estimator never holds more edges than its budget.
"""

from __future__ import annotations

import random

import pytest

from repro.api import build_estimator, get_registration, registered_estimators
from repro.graph.generators import bipartite_chung_lu
from repro.streams.dynamic import (
    interleave_reinsertions,
    make_fully_dynamic,
    stream_from_edges,
)
from repro.streams.stream import EdgeStream
from repro.types import deletion

ALL_NAMES = registered_estimators()
DYNAMIC_NAMES = tuple(
    name for name in ALL_NAMES if get_registration(name).supports_windowing
)
INSERT_ONLY_NAMES = tuple(
    name for name in ALL_NAMES if name not in DYNAMIC_NAMES
)
#: Estimators whose ``memory_edges`` is a sample bounded by ``budget``.
BUDGETED_NAMES = ("abacus", "abacus_support", "cas", "fleet", "parabacus")


def _edges(n_edges: int = 300, seed: int = 3):
    return bipartite_chung_lu(60, 30, n_edges, rng=random.Random(seed))


def _streams():
    edges = _edges()
    return {
        "insert_only": stream_from_edges(edges),
        "dynamic_20": make_fully_dynamic(edges, 0.2, random.Random(5)),
        "dynamic_50": make_fully_dynamic(edges, 0.5, random.Random(6)),
        "reinsertions": interleave_reinsertions(
            edges, 0.3, 0.5, random.Random(7)
        ),
    }


STREAMS = _streams()


def _build(name: str, budget=None, **params):
    """Build ``name`` with ``budget`` wherever its spec can take one.

    The engines that wrap another estimator (``sharded``, ``windowed``)
    get a seeded ABACUS inner with that budget; ``windowed`` gets a
    window longer than any stream here, so nothing expires and it must
    behave exactly like its inner.
    """
    declared = get_registration(name).param_names
    if "seed" in declared:
        params.setdefault("seed", 11)
    if budget is not None and "budget" in declared:
        params.setdefault("budget", budget)
    if "inner" in declared:
        sized = f"budget={budget}," if budget is not None else ""
        params.setdefault("inner", f"abacus:{sized}seed=11")
    if name == "parabacus":
        params.setdefault("batch_size", 25)
        params.setdefault("num_threads", 2)
    if name == "sharded":
        params.setdefault("shards", 2)
    if name == "windowed":
        params.setdefault("window", 10**6)
    return build_estimator(name, **params)


def _settle(estimator) -> float:
    """Apply anything an estimator still buffers; return that delta."""
    flush = getattr(estimator, "flush", None)
    return flush() if flush is not None else 0.0


def _exact_counts(stream: EdgeStream):
    oracle = build_estimator("exact")
    counts = []
    for element in stream:
        oracle.process(element)
        counts.append(oracle.estimate)
    return counts


def test_the_partition_of_the_registry_is_total():
    assert set(DYNAMIC_NAMES) | set(INSERT_ONLY_NAMES) == set(ALL_NAMES)
    assert set(INSERT_ONLY_NAMES) == {"cas", "fleet", "sgrapp"}


@pytest.mark.parametrize("name", ALL_NAMES)
def test_an_empty_stream_reads_zero(name):
    estimator = _build(name)
    assert estimator.process_stream([]) == 0.0
    assert _settle(estimator) == 0.0
    assert estimator.estimate == 0.0
    assert estimator.memory_edges == 0


@pytest.mark.parametrize("name", ALL_NAMES)
def test_the_same_spec_gives_the_same_trajectory(name):
    stream = STREAMS["dynamic_20"]
    trajectories = []
    for _ in range(2):
        estimator = _build(name, budget=120)
        trajectory = []
        for element in stream:
            estimator.process(element)
            trajectory.append(estimator.estimate)
        trajectory.append(estimator.estimate + _settle(estimator))
        trajectories.append(trajectory)
    assert trajectories[0] == trajectories[1]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_process_returns_the_change_it_applied(name):
    estimator = _build(name, budget=120)
    total = 0.0
    for element in STREAMS["dynamic_20"]:
        before = estimator.estimate
        delta = estimator.process(element)
        assert estimator.estimate - before == pytest.approx(delta, abs=1e-6)
        total += delta
    total += _settle(estimator)
    assert estimator.estimate == pytest.approx(total, rel=1e-9, abs=1e-6)


@pytest.mark.parametrize("stream_name", sorted(STREAMS))
@pytest.mark.parametrize("name", DYNAMIC_NAMES)
def test_a_budget_covering_the_stream_is_exact(name, stream_name):
    stream = STREAMS[stream_name]
    truth = _exact_counts(stream)
    # K shards scale their sum by K, so only one shard is exact.
    extra = {"shards": 1} if name == "sharded" else {}
    estimator = _build(name, budget=len(stream), **extra)
    for index, element in enumerate(stream):
        estimator.process(element)
        if (index + 1) % 25 == 0:
            _settle(estimator)
            assert estimator.estimate == pytest.approx(truth[index])
    _settle(estimator)
    assert estimator.estimate == pytest.approx(truth[-1])
    assert truth[-1] > 0


@pytest.mark.parametrize("name", DYNAMIC_NAMES)
def test_deleting_every_edge_returns_to_zero(name):
    edges = _edges(200, seed=9)
    estimator = _build(name, budget=len(edges))
    estimator.process_stream(stream_from_edges(edges))
    _settle(estimator)
    assert estimator.estimate > 0
    estimator.process_stream(deletion(u, v) for u, v in reversed(edges))
    _settle(estimator)
    assert estimator.estimate == pytest.approx(0.0, abs=1e-9)
    assert estimator.memory_edges == 0


@pytest.mark.parametrize("name", INSERT_ONLY_NAMES)
def test_an_insert_only_baseline_skips_deletions(name):
    stream = STREAMS["dynamic_50"]
    fed_all = _build(name, budget=100)
    for element in stream:
        delta = fed_all.process(element)
        if not element.is_insertion:
            assert delta == 0.0
    fed_insertions = _build(name, budget=100)
    fed_insertions.process_stream(stream.insertions_only())
    assert fed_all.estimate == fed_insertions.estimate
    assert fed_all.memory_edges == fed_insertions.memory_edges


@pytest.mark.parametrize("budget", (20, 60, 150))
@pytest.mark.parametrize("name", BUDGETED_NAMES)
def test_a_sample_never_exceeds_its_budget(name, budget):
    stream = make_fully_dynamic(_edges(600, seed=12), 0.3, random.Random(4))
    estimator = _build(name, budget=budget)
    peak = 0
    for element in stream:
        estimator.process(element)
        peak = max(peak, estimator.memory_edges)
    _settle(estimator)
    peak = max(peak, estimator.memory_edges)
    assert 0 < peak <= budget

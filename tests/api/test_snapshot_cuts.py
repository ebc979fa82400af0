"""Snapshot -> restore -> continue equals never stopping, at any cut.

:class:`~repro.core.base.StatefulEstimator` promises that a restored
estimator fed the rest of the stream is bit-identical to the
uninterrupted one.  This holds for every snapshot-capable registry entry
and at every offset: before the first element, after one, inside and at
the edge of a PARABACUS mini-batch, inside a sliding window, one element
before the end and at the end.  The final snapshots must agree too, so
no hidden state (RNG, counters, buffers) drifts after the cut.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.api import get_registration, open_session, registered_estimators
from repro.api.session import restore_session
from repro.graph.generators import bipartite_chung_lu
from repro.streams.dynamic import make_fully_dynamic

STREAM = make_fully_dynamic(
    bipartite_chung_lu(120, 40, 1000, rng=random.Random(31)),
    0.2,
    random.Random(32),
)

SPECS = {
    "abacus": "abacus:budget=300,seed=3",
    "parabacus": "parabacus:budget=300,seed=3,batch_size=64,num_threads=2",
    "sharded": "sharded:inner=[abacus:budget=150],shards=3,seed=3",
    "windowed": "windowed:inner=[abacus:budget=300],window=400,seed=3",
    "windowed_over_shards": (
        "windowed:inner=[sharded:inner=[abacus:budget=150],shards=2],"
        "window=500,seed=3"
    ),
}

CUTS = {
    "start": 0,
    "one": 1,
    "mid_batch": 257,
    "batch_edge": 640,
    "last_but_one": len(STREAM) - 1,
    "end": len(STREAM),
}

_UNINTERRUPTED = {}


def _without_timing(snapshot):
    """A snapshot minus its wall-clock field, which no two runs share."""
    session = dict(snapshot["session"])
    session.pop("processing_seconds")
    return {**snapshot, "session": session}


def _uninterrupted(name):
    if name not in _UNINTERRUPTED:
        session = open_session(SPECS[name])
        session.ingest(STREAM)
        session.flush()
        _UNINTERRUPTED[name] = (
            session.estimate,
            _without_timing(session.snapshot()),
        )
    return _UNINTERRUPTED[name]


def test_every_snapshot_capable_estimator_is_covered():
    capable = {
        name
        for name in registered_estimators()
        if get_registration(name).supports_snapshot
    }
    covered = {spec.split(":", 1)[0] for spec in SPECS.values()}
    assert capable == covered


@pytest.mark.parametrize("cut", sorted(CUTS))
@pytest.mark.parametrize("name", sorted(SPECS))
def test_a_restored_session_continues_bit_identically(name, cut):
    offset = CUTS[cut]
    first = open_session(SPECS[name])
    first.ingest(STREAM[:offset])
    payload = json.loads(json.dumps(first.snapshot()))

    resumed = restore_session(payload)
    assert resumed.elements == offset
    assert resumed.estimate == first.estimate
    resumed.ingest(STREAM[offset:])
    resumed.flush()

    estimate, snapshot = _uninterrupted(name)
    assert resumed.estimate == estimate
    assert resumed.elements == len(STREAM)
    assert _without_timing(resumed.snapshot()) == snapshot

"""repro — ABACUS / PARABACUS butterfly counting reproduction.

A from-scratch Python implementation of "Counting Butterflies in Fully
Dynamic Bipartite Graph Streams" (ICDE 2024): approximate butterfly
counting over bipartite edge streams with both insertions and deletions,
plus every substrate the paper depends on (bipartite graphs, exact
counting, Random Pairing sampling, AMS sketches, the FLEET and CAS
insert-only baselines, and the full experiment harness).

The single public entry point is the session API: describe an estimator
with a spec, open a session, ingest, observe, snapshot::

    from repro import open_session, insertion, deletion

    with open_session("abacus:budget=1000,seed=42") as session:
        session.ingest(insertion("alice", "matrix"))
        session.ingest(deletion("alice", "matrix"))
        print(session.estimate, session.metrics.throughput_eps)

Specs name any registered estimator (``abacus``, ``parabacus``,
``ensemble``, ``fleet``, ``cas``, ``sgrapp``, ``exact``) with typed
parameters — ``parse_spec("parabacus:budget=2000,batch_size=500")`` —
and :func:`build_estimator` returns the bare estimator when the facade
is not wanted.  Sessions of snapshot-capable estimators round-trip
through ``session.snapshot()`` / :func:`restore_session` with
bit-identical continuation.

The estimator classes remain importable for direct construction::

    from repro import Abacus

    counter = Abacus(budget=1000, seed=42)
    counter.process(insertion("alice", "matrix"))
"""

from repro.api import (
    EstimatorSpec,
    Session,
    SessionMetrics,
    ShardedEstimator,
    WindowedEstimator,
    build_estimator,
    open_session,
    parse_spec,
    register_estimator,
    registered_estimators,
    restore_session,
)
from repro.baselines import CoAffiliationSampling, Fleet
from repro.serve import ServeClient, serve_in_background
from repro.store import DurableStore, SnapshotStore, WalWriter
from repro.tenancy import SharedStreamFanout, TenantCatalog
from repro.core import (
    Abacus,
    AbacusSupport,
    ButterflyEstimator,
    EnsembleEstimator,
    ExactStreamingCounter,
    Parabacus,
    StatefulEstimator,
)
from repro.graph import BipartiteGraph, count_butterflies
from repro.streams import EdgeStream, make_fully_dynamic, stream_from_edges
from repro.types import (
    Op,
    StreamElement,
    TimedEdge,
    deletion,
    insertion,
    timed_deletion,
    timed_insertion,
)

__version__ = "1.7.0"

__all__ = [
    "Abacus",
    "DurableStore",
    "ServeClient",
    "SharedStreamFanout",
    "SnapshotStore",
    "TenantCatalog",
    "WalWriter",
    "serve_in_background",
    "AbacusSupport",
    "EnsembleEstimator",
    "Parabacus",
    "Fleet",
    "CoAffiliationSampling",
    "ExactStreamingCounter",
    "ButterflyEstimator",
    "StatefulEstimator",
    "EstimatorSpec",
    "Session",
    "SessionMetrics",
    "ShardedEstimator",
    "WindowedEstimator",
    "build_estimator",
    "open_session",
    "parse_spec",
    "register_estimator",
    "registered_estimators",
    "restore_session",
    "BipartiteGraph",
    "count_butterflies",
    "EdgeStream",
    "make_fully_dynamic",
    "stream_from_edges",
    "StreamElement",
    "TimedEdge",
    "Op",
    "insertion",
    "deletion",
    "timed_insertion",
    "timed_deletion",
    "__version__",
]

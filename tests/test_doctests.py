"""Tier-1 doctest lane for the public API surface.

CI runs the same examples via ``pytest --doctest-modules src/repro/api
src/repro/shard src/repro/window src/repro/store src/repro/serve
src/repro/cluster src/repro/metrics src/repro/tenancy
src/repro/faults.py``; this lane keeps them green
inside the ordinary test run, so a broken docstring example fails fast
everywhere.
"""

import doctest

import pytest

import repro.api.docgen
import repro.api.registry
import repro.api.session
import repro.cluster.protocol
import repro.core.base
import repro.faults
import repro.metrics.replication
import repro.metrics.tenancy
import repro.serve.client
import repro.serve.protocol
import repro.serve.server
import repro.shard.autoscale
import repro.shard.engine
import repro.shard.partition
import repro.store.durable
import repro.store.snapshots
import repro.store.wal
import repro.tenancy.catalog
import repro.tenancy.fanout
import repro.types
import repro.window.engine
import repro.window.expiry
import repro.window.reference

MODULES = [
    repro.api.docgen,
    repro.api.registry,
    repro.api.session,
    repro.cluster.protocol,
    repro.core.base,
    repro.faults,
    repro.metrics.replication,
    repro.metrics.tenancy,
    repro.serve.client,
    repro.serve.protocol,
    repro.serve.server,
    repro.shard.autoscale,
    repro.shard.engine,
    repro.shard.partition,
    repro.store.durable,
    repro.store.snapshots,
    repro.store.wal,
    repro.tenancy.catalog,
    repro.tenancy.fanout,
    repro.types,
    repro.window.engine,
    repro.window.expiry,
    repro.window.reference,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0
    assert results.attempted > 0, f"{module.__name__} lost its examples"

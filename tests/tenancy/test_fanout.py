"""SharedStreamFanout: one durable log driving N estimators.

The fan-out contract (``docs/multitenancy.md``): every member
observes exactly the shared stream — each member's estimate is
bit-identical to the same estimator fed the same elements standalone
— and recovery replays the one log through all members.
"""

import json

import pytest

from repro.api import open_session
from repro.errors import StoreError, TenancyError
from repro.store.durable import DurableStore
from repro.tenancy import (
    FANOUT_FORMAT,
    SharedStreamFanout,
    TenantCatalog,
)
from repro.types import deletion, insertion

MEMBERS = {
    "alice": "abacus:budget=64,seed=11",
    "bob": "abacus:budget=32,seed=22",
    "carol": "exact",
}


def _stream(n):
    elements = []
    for i in range(n):
        elements.append(insertion(f"u{i % 17}", f"v{i % 13}"))
        if i % 7 == 3:
            elements.append(
                deletion(f"u{(i - 2) % 17}", f"v{(i - 2) % 13}")
            )
    # Deduplicate illegal re-insertions/no-op deletions the cheap way:
    # keep only transitions the estimator would accept.
    live, cleaned = set(), []
    for element in elements:
        edge = element.edge
        if element.is_insertion:
            if edge in live:
                continue
            live.add(edge)
        else:
            if edge not in live:
                continue
            live.remove(edge)
        cleaned.append(element)
    return cleaned


def _fingerprints(fanout):
    return {
        name: fanout.session(name).fingerprint()
        for name in fanout.members
    }


class TestIdentity:
    def test_members_match_standalone_sessions(self, tmp_path):
        stream = _stream(300)
        fanout = SharedStreamFanout(tmp_path / "s", members=MEMBERS)
        fanout.ingest(stream)
        for name, spec in MEMBERS.items():
            standalone = open_session(spec)
            standalone.ingest(stream)
            assert (
                fanout.session(name).fingerprint()
                == standalone.fingerprint()
            ), name
            standalone.close()
        assert fanout.elements == len(stream)
        fanout.close()

    def test_estimates_and_stats_shape(self, tmp_path):
        fanout = SharedStreamFanout(tmp_path / "s", members=MEMBERS)
        fanout.ingest(_stream(60))
        estimates = fanout.estimates()
        assert set(estimates) == set(MEMBERS)
        stats = fanout.stats()
        assert set(stats) == {"elements", "members"}
        assert stats["elements"] == fanout.elements
        for name in MEMBERS:
            member = stats["members"][name]
            assert member["spec"]
            assert member["estimate"] == estimates[name]
        fanout.close()

    def test_empty_batch_is_a_noop(self, tmp_path):
        fanout = SharedStreamFanout(tmp_path / "s", members=MEMBERS)
        before = _fingerprints(fanout)
        fanout.ingest([])
        assert fanout.elements == 0
        assert _fingerprints(fanout) == before
        fanout.close()


class TestRecovery:
    def test_tail_replay_is_bit_identical(self, tmp_path):
        stream = _stream(200)
        # Checkpointing snapshots every member, so all members must be
        # snapshot-capable ('exact' is deliberately not).
        members = {
            "alice": "abacus:budget=64,seed=11",
            "bob": "abacus:budget=32,seed=22",
            "carol": "abacus:budget=128,seed=33",
        }
        fanout = SharedStreamFanout(tmp_path / "s", members=members)
        fanout.ingest(stream[:120])
        fanout.checkpoint()
        fanout.ingest(stream[120:])
        fanout.sync()
        expected = _fingerprints(fanout)
        fanout.close()

        reopened = SharedStreamFanout(tmp_path / "s")
        assert reopened.members == fanout.members
        assert reopened.elements == len(stream)
        assert _fingerprints(reopened) == expected
        reopened.close()

    def test_reopen_without_checkpoint(self, tmp_path):
        stream = _stream(80)
        fanout = SharedStreamFanout(tmp_path / "s", members=MEMBERS)
        fanout.ingest(stream)
        fanout.sync()
        expected = _fingerprints(fanout)
        fanout.close()
        reopened = SharedStreamFanout(tmp_path / "s")
        assert _fingerprints(reopened) == expected
        reopened.close()

    def test_member_map_mismatch_is_refused(self, tmp_path):
        fanout = SharedStreamFanout(tmp_path / "s", members=MEMBERS)
        fanout.ingest(_stream(10))
        fanout.sync()
        fanout.close()
        different = {**MEMBERS, "dave": "exact"}
        with pytest.raises((TenancyError, StoreError)):
            SharedStreamFanout(tmp_path / "s", members=different)

    def test_a_fresh_directory_needs_a_member_map(self, tmp_path):
        with pytest.raises(TenancyError, match="member map"):
            SharedStreamFanout(tmp_path / "s")
        # The refusal released the directory: creating it still works.
        fanout = SharedStreamFanout(tmp_path / "s", members=MEMBERS)
        assert fanout.members == dict(sorted(MEMBERS.items()))
        fanout.close()

    def test_a_single_session_directory_is_not_a_fanout(self, tmp_path):
        store = DurableStore(tmp_path / "s")
        store.initialize("abacus:budget=64,seed=11")
        store.close()
        with pytest.raises(StoreError, match="unreadable member map"):
            SharedStreamFanout(tmp_path / "s")

    def test_a_member_map_of_another_format_is_refused(self, tmp_path):
        store = DurableStore(tmp_path / "s")
        store.initialize(
            json.dumps({"format": FANOUT_FORMAT + 1, "fanout": MEMBERS})
        )
        store.close()
        with pytest.raises(StoreError, match="unsupported fan-out format"):
            SharedStreamFanout(tmp_path / "s")

    def test_a_checkpoint_for_other_members_is_refused(self, tmp_path):
        fanout = SharedStreamFanout(tmp_path / "s", members=MEMBERS)
        fanout.ingest(_stream(20))
        offset = fanout.elements
        fanout.close()
        store = DurableStore(tmp_path / "s")
        store.recover()
        envelope = {"format": FANOUT_FORMAT, "tenants": {"mallory": {}}}
        store.checkpoint(envelope, offset)
        store.close()
        with pytest.raises(StoreError, match="does not match"):
            SharedStreamFanout(tmp_path / "s")

    def test_format_constant_is_pinned(self):
        # Recovery refuses envelopes from a future format; the pin is
        # part of the on-disk contract.
        assert FANOUT_FORMAT == 1


class TestPoison:
    def test_member_refusal_rolls_back_and_poisons(self, tmp_path):
        fanout = SharedStreamFanout(
            tmp_path / "s", members={"a": "exact", "b": "exact"}
        )
        good = [insertion("u1", "v1"), insertion("u2", "v2")]
        fanout.ingest(good)
        fanout.sync()
        expected = _fingerprints(fanout)
        # A duplicate insertion is invalid stream input: the batch
        # must roll back the shared log and poison the fan-out.
        with pytest.raises(Exception):
            fanout.ingest([insertion("u9", "v9"), insertion("u1", "v1")])
        assert fanout.poisoned
        with pytest.raises(TenancyError, match="poisoned"):
            fanout.ingest([insertion("u3", "v3")])
        fanout.close()

        # Recovery lands every member at the pre-batch state.
        reopened = SharedStreamFanout(tmp_path / "s")
        assert reopened.elements == len(good)
        assert _fingerprints(reopened) == expected
        reopened.close()


class TestLifecycle:
    def test_closed_fanout_refuses_work(self, tmp_path):
        fanout = SharedStreamFanout(
            tmp_path / "s", members={"a": "exact"}
        )
        fanout.close()
        with pytest.raises(TenancyError):
            fanout.ingest([insertion("u", "v")])

    def test_unknown_member_lookup_names_the_members(self, tmp_path):
        fanout = SharedStreamFanout(tmp_path / "s", members=MEMBERS)
        with pytest.raises(TenancyError, match="alice, bob, carol"):
            fanout.session("mallory")
        fanout.close()

    def test_a_single_element_ingests_as_a_batch_of_one(self, tmp_path):
        fanout = SharedStreamFanout(tmp_path / "s", members=MEMBERS)
        for element in _stream(40):
            fanout.ingest(element)
        batched = SharedStreamFanout(tmp_path / "t", members=MEMBERS)
        batched.ingest(_stream(40))
        assert fanout.elements == batched.elements
        assert _fingerprints(fanout) == _fingerprints(batched)
        fanout.close()
        batched.close()

    def test_flush_applies_buffered_mini_batches(self, tmp_path):
        members = {"para": "parabacus:budget=64,seed=3,batch_size=50"}
        fanout = SharedStreamFanout(tmp_path / "s", members=members)
        # K_{4,4}: 16 elements, under one batch, holding 36 butterflies.
        biclique = [
            insertion(f"u{i}", f"v{j}") for i in range(4) for j in range(4)
        ]
        fanout.ingest(biclique)
        assert fanout.estimates() == {"para": 0.0}
        assert fanout.flush() == {"para": 36.0}
        fanout.close()
        with pytest.raises(TenancyError, match="closed"):
            fanout.flush()

    def test_the_context_manager_closes_once(self, tmp_path):
        with SharedStreamFanout(tmp_path / "s", members=MEMBERS) as fanout:
            fanout.ingest(_stream(10))
            assert not fanout.closed
        assert fanout.closed
        fanout.close()
        reopened = SharedStreamFanout(tmp_path / "s")
        assert reopened.directory == tmp_path / "s"
        assert reopened.elements == len(_stream(10))
        reopened.close()

    def test_catalog_bound_stream_round_trip(self, tmp_path):
        stream = _stream(120)
        with TenantCatalog(tmp_path) as catalog:
            for name, spec in MEMBERS.items():
                catalog.create(name, spec)
            fanout = catalog.bind_stream("shared", list(MEMBERS))
            fanout.ingest(stream)
            fanout.sync()
            expected = _fingerprints(fanout)
        with TenantCatalog(tmp_path) as catalog:
            reopened = catalog.open_stream("shared")
            assert _fingerprints(reopened) == expected

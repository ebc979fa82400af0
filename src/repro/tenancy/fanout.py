"""``SharedStreamFanout`` — one shared log, N tenant estimators.

When several tenants subscribe to the *same* stream, logging the
stream once per tenant wastes the dominant cost of durable ingest:
the WAL encode, write, and fsync are paid N times for identical
bytes.  A fan-out binds those tenants to one shared
:class:`~repro.store.DurableStore` so each ingest batch is

* decoded and materialised **once**,
* written ahead to **one** WAL (one fsync cadence instead of N),
* then driven through every member estimator in a single pass.

Each member stays a plain volatile
:class:`~repro.api.session.Session` built from the tenant's own spec,
so its estimate is **identical to a standalone run** of that spec
over the stream (asserted always in
``benchmarks/bench_multitenant.py``).  Durability is per stream:
``checkpoint()`` writes one envelope holding every member's snapshot,
and recovery restores each member and replays the shared WAL tail
through all of them in one pass — bit-identical per tenant
(``tests/tenancy/test_tenant_recovery.py`` proves it at every torn
byte).

On a member's *refusal* of a batch (an estimator exception), the
shared log rolls the whole batch back and the fan-out declares itself
**poisoned**: members that already processed part of the batch have
diverged from the log, so further in-memory ingest is refused and the
documented remediation is to reopen the directory — recovery lands
every member consistently at the pre-batch offset.

>>> import tempfile
>>> from repro.types import insertion
>>> fanout = SharedStreamFanout(
...     tempfile.mkdtemp(),
...     members={"counts": "exact", "approx": "abacus:budget=64,seed=1"},
... )
>>> _ = fanout.ingest([insertion(u, v)
...                    for u in ("u1", "u2") for v in ("v1", "v2")])
>>> fanout.estimates()["counts"]
1.0
>>> fanout.elements
4
>>> fanout.close()
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from repro.api.session import Session, open_session, restore_session
from repro.errors import StoreError, TenancyError
from repro.store import DurableStore
from repro.types import StreamElement

__all__ = ["FANOUT_FORMAT", "SharedStreamFanout"]

#: Version of both the shared store's ``meta.json`` spec payload and
#: the checkpoint envelope.
FANOUT_FORMAT = 1

#: Chunk size for the shared single-pass drive of member estimators.
_APPLY_BATCH = 1024


def _member_spec_payload(members: Mapping[str, str]) -> str:
    """The canonical member map recorded as the store's spec string."""
    return json.dumps(
        {
            "format": FANOUT_FORMAT,
            "fanout": {name: members[name] for name in sorted(members)},
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def _parse_member_payload(spec: str) -> Dict[str, str]:
    try:
        payload = json.loads(spec)
        fanout = payload["fanout"]
    except (json.JSONDecodeError, TypeError, KeyError) as exc:
        raise StoreError(
            f"directory does not hold a shared-stream fan-out "
            f"(unreadable member map): {exc}"
        ) from exc
    if payload.get("format") != FANOUT_FORMAT:
        raise StoreError(
            f"unsupported fan-out format {payload.get('format')!r} "
            f"(expected {FANOUT_FORMAT})"
        )
    return {str(name): str(spec) for name, spec in fanout.items()}


class SharedStreamFanout:
    """N volatile member sessions over one shared durable stream log.

    Args:
        directory: the shared log's durable directory.  Empty
            directories are claimed with the member map; directories
            with state are **recovered** (checkpoint envelope + WAL
            tail replayed through every member in one pass).
        members: tenant name -> estimator spec string.  Required to
            create; on reopen it is checked against the stored map
            (omit to accept the stored one).
    """

    def __init__(
        self,
        directory: Union[str, os.PathLike],
        members: Optional[Mapping[str, str]] = None,
    ) -> None:
        self._dir = pathlib.Path(directory)
        self._closed = False
        self._poisoned = False
        self._store = DurableStore(self._dir)
        try:
            if not self._store.has_state:
                if not members:
                    raise TenancyError(
                        f"{self._dir} holds no fan-out yet; pass the "
                        "member map to create one"
                    )
                self._members = {
                    str(name): str(spec)
                    for name, spec in sorted(members.items())
                }
                self._store.initialize(
                    _member_spec_payload(self._members)
                )
                self._sessions = {
                    name: open_session(spec)
                    for name, spec in self._members.items()
                }
            else:
                self._recover(members)
        except BaseException:
            self._store.close()
            raise

    def _recover(self, members: Optional[Mapping[str, str]]) -> None:
        recovered = self._store.recover()
        stored = _parse_member_payload(recovered.spec)
        if members is not None:
            offered = {
                str(name): str(spec) for name, spec in members.items()
            }
            if offered != stored:
                raise TenancyError(
                    f"fan-out in {self._dir} was created for members "
                    f"{stored!r}; refusing to reopen as {offered!r}"
                )
        self._members = stored
        if recovered.snapshot is not None:
            envelope = recovered.snapshot
            if (
                envelope.get("format") != FANOUT_FORMAT
                or set(envelope.get("tenants", {})) != set(stored)
            ):
                raise StoreError(
                    f"fan-out checkpoint in {self._dir} does not "
                    "match the stored member map"
                )
            self._sessions = {
                name: restore_session(envelope["tenants"][name])
                for name in stored
            }
        else:
            self._sessions = {
                name: open_session(spec)
                for name, spec in stored.items()
            }
        if recovered.tail:
            self._drive(recovered.tail)
        for name, session in self._sessions.items():
            if session.elements != recovered.offset:
                raise StoreError(
                    f"fan-out recovery reconstructed {session.elements} "
                    f"elements for member {name!r} but the shared log "
                    f"covers {recovered.offset}; snapshot and WAL "
                    "disagree"
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def directory(self) -> pathlib.Path:
        return self._dir

    @property
    def members(self) -> Dict[str, str]:
        """Member name -> spec string (sorted by name)."""
        return dict(self._members)

    @property
    def elements(self) -> int:
        """Stream elements logged to (and applied from) the shared
        log."""
        return self._store.offset

    def session(self, name: str) -> Session:
        """The named member's (volatile) session."""
        session = self._sessions.get(name)
        if session is None:
            raise TenancyError(
                f"unknown fan-out member {name!r}; members: "
                f"{', '.join(sorted(self._members))}"
            )
        return session

    def estimates(self) -> Dict[str, float]:
        """Every member's current estimate, keyed by tenant name."""
        return {
            name: session.estimate
            for name, session in self._sessions.items()
        }

    def stats(self) -> Dict[str, Any]:
        """Per-tenant metrics, one consistent read."""
        return {
            "elements": self.elements,
            "members": {
                name: {
                    "spec": self._members[name],
                    "estimate": session.estimate,
                    "memory_edges": session.memory_edges,
                    "processing_seconds": session._processing_seconds,
                }
                for name, session in self._sessions.items()
            },
        }

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(
        self,
        elements: Union[StreamElement, Iterable[StreamElement]],
    ) -> Dict[str, float]:
        """Apply one batch to the shared log and every member.

        The batch is materialised once, logged once (write-ahead),
        then driven through each member estimator.  Returns
        :meth:`estimates` after the batch applied.

        Raises:
            TenancyError: on a closed or poisoned fan-out.
            Whatever a member estimator raised on refusal — after the
            shared log rolled the batch back and the fan-out poisoned
            itself (reopen the directory to recover consistently).
        """
        self._require_live()
        if isinstance(elements, StreamElement):
            batch: List[StreamElement] = [elements]
        else:
            batch = list(elements)
        if not batch:
            return self.estimates()
        undo = self._store.mark()
        self._store.append_batch(batch)
        try:
            self._drive(batch)
        except BaseException:
            self._store.rollback(undo)
            self._poisoned = True
            raise
        return self.estimates()

    def _drive(self, batch: List[StreamElement]) -> None:
        """One pass: every member sees the whole batch."""
        for start in range(0, len(batch), _APPLY_BATCH):
            chunk = batch[start:start + _APPLY_BATCH]
            for session in self._sessions.values():
                session.ingest(chunk)

    def flush(self) -> Dict[str, float]:
        """Flush buffered work in every member (PARABACUS et al.)."""
        self._require_live()
        for session in self._sessions.values():
            session.flush()
        return self.estimates()

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        """One durable checkpoint covering every member.

        The envelope holds each member's full snapshot at the same
        shared-log offset, so recovery is per-tenant bit-identical.
        Requires every member spec to support snapshots.

        Returns:
            The element offset the checkpoint covers.
        """
        self._require_live()
        envelope = {
            "format": FANOUT_FORMAT,
            "tenants": {
                name: session.snapshot()
                for name, session in self._sessions.items()
            },
        }
        self._store.checkpoint(envelope, self._store.offset)
        return self._store.offset

    def sync(self) -> None:
        """Force WAL-buffered elements of the shared log to disk."""
        self._store.sync()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _require_live(self) -> None:
        if self._closed:
            raise TenancyError("shared-stream fan-out is closed")
        if self._poisoned:
            raise TenancyError(
                "fan-out is poisoned: a member refused a batch, so "
                "in-memory members and the shared log have diverged; "
                "reopen the directory to recover consistently"
            )

    @property
    def poisoned(self) -> bool:
        return self._poisoned

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Flush members, sync the shared log, release resources."""
        if self._closed:
            return
        self._closed = True
        for session in self._sessions.values():
            session.close()
        self._store.close()

    def __enter__(self) -> "SharedStreamFanout":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SharedStreamFanout({str(self._dir)!r}, "
            f"members={sorted(self._members)}, "
            f"elements={self.elements})"
        )

"""Output checks and failure accounting.

Every check is an identity that holds for every seed — never a
tolerance on estimation error — against a reference computed outside
the timed phase through another public path.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Sequence

from repro.core.abacus import Abacus
from repro.types import StreamElement


class Ops:
    """Operations attempted and failed, per kind (``ingest``,
    ``estimate``, ``ping``...).  Errors, timeouts, refused connects and
    acks that cover fewer elements than were sent all count as
    failures."""

    def __init__(self) -> None:
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()

    def attempt(self, kind: str) -> None:
        self.attempted[kind] += 1

    def fail(self, kind: str) -> None:
        self.failed[kind] += 1

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())


class Checks:
    """Collects failed output checks as human-readable messages."""

    def __init__(self) -> None:
        self.failures: List[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def equal(self, got: Any, expected: Any, what: str) -> None:
        self.expect(
            got == expected, f"{what}: got {got!r}, expected {expected!r}"
        )

    @property
    def ok(self) -> bool:
        return not self.failures


def check_ack(
    checks: Checks,
    response: Dict[str, Any],
    sent: int,
    elements_after: int,
) -> bool:
    """An ``ingest`` ack must accept every element sent and advance the
    served element count to ``elements_after``; returns whether it did."""
    before = len(checks.failures)
    checks.expect(response.get("ok") is True, f"ingest refused: {response!r}")
    result = response.get("result") or {}
    checks.equal(result.get("accepted"), sent, "ingest accepted")
    checks.equal(result.get("elements"), elements_after, "ingest elements")
    return len(checks.failures) == before


def check_estimate(
    checks: Checks,
    response: Dict[str, Any],
    elements: int,
    estimate: float,
    what: str,
) -> None:
    """A served ``estimate`` must cover exactly ``elements`` and equal
    the in-process reference bit for bit."""
    checks.expect(response.get("ok") is True, f"{what} refused: {response!r}")
    result = response.get("result") or {}
    checks.equal(result.get("elements"), elements, f"{what} elements")
    checks.equal(result.get("estimate"), estimate, f"{what} estimate")


def parabacus_reference(
    stream: Sequence[StreamElement],
    budget: int,
    seed: int,
    batch_size: int,
    num_threads: int,
) -> Dict[str, Any]:
    """What PARABACUS must produce, derived from a same-seed ABACUS.

    Theorem 5: PARABACUS draws the same randomness and computes the
    same per-element increments as ABACUS.  Its estimate sums those
    increments per mini-batch of ``batch_size``, per contiguous worker
    chunk (sizes as ``partition_round_robin`` cuts them), then across
    workers — so folding ABACUS's per-element deltas in that order
    reproduces the PARABACUS estimate exactly, with no float tolerance.
    """
    abacus = Abacus(budget, seed=seed)
    deltas = [abacus.process(element) for element in stream]
    estimate = 0.0
    for offset in range(0, len(deltas), batch_size):
        batch = deltas[offset : offset + batch_size]
        base, extra = divmod(len(batch), num_threads)
        batch_delta = 0.0
        start = 0
        for worker in range(num_threads):
            size = base + (1 if worker < extra else 0)
            partial = 0.0
            for delta in batch[start : start + size]:
                if delta:
                    partial += delta
            batch_delta += partial
            start += size
        estimate += batch_delta
    return {
        "estimate": estimate,
        "sampler": abacus.sampler.state_to_dict(),
        "total_work": abacus.total_work,
    }


def check_parabacus(
    checks: Checks, estimator: Any, reference: Dict[str, Any]
) -> None:
    """PARABACUS state after the whole stream equals the ABACUS fold."""
    checks.equal(
        estimator.estimate,
        reference["estimate"],
        "parabacus estimate (Theorem 5)",
    )
    checks.expect(
        estimator.sampler.state_to_dict() == reference["sampler"],
        "parabacus sampler state differs from same-seed ABACUS",
    )
    checks.equal(
        estimator.total_work, reference["total_work"], "parabacus total_work"
    )

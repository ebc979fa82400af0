"""Sliding-window anomaly detection with the windowed engine.

A fraud-style scenario: a steady stream of user-item interactions, with
a *butterfly bomb* — a dense coordinated biclique, the signature of a
review-fraud ring — planted in the middle.  A detector watches the
**windowed** butterfly count (``open_session(..., window=W)``, the
``repro.window`` engine): inside the window the bomb is a huge spike
over the trailing baseline, and once the bomb's edges expire, the
count *comes back down* — the window heals and stays useful for the
next attack.  The infinite-window count only ratchets upward: after
one bomb its baseline is permanently poisoned.

Because the engine synthesizes real deletions, the windowed ABACUS
estimate is provably identical to replaying the explicit insert+delete
expansion — every unbiasedness guarantee carries over.  This demo
tracks ABACUS-in-a-window against the exact windowed count to show the
estimate is not just directionally right.

Run:
    python examples/sliding_window.py
"""

from __future__ import annotations

import random

from repro import insertion, open_session
from repro.graph.generators import bipartite_erdos_renyi

WINDOW = 3000
BUDGET = 1500
CHECK_EVERY = 500
ZSCORE_ALARM = 6.0


def main() -> None:
    rng = random.Random(11)
    background = bipartite_erdos_renyi(3000, 3000, 12_000, rng)
    # The bomb: a complete 10x10 biclique whose 100 insertions arrive
    # back-to-back at element 6,000, C(10, 2)^2 butterflies on its own.
    bomb = [(f"bomb_l{i}", f"bomb_r{j}") for i in range(10) for j in range(10)]
    rng.shuffle(bomb)
    edges = background[:6000] + bomb + background[6000:]
    stream = [insertion(u, v) for u, v in edges]
    planted = 45 * 45
    print(
        f"{len(stream):,}-element stream, 10x10 bomb at element 6,000 "
        f"({planted:,} planted butterflies), window W={WINDOW}\n"
    )

    history: list = []
    alarms = []
    truth = open_session("exact", window=WINDOW)  # exact, same window

    def detector(elements: int, session) -> None:
        estimate = session.estimate
        if len(history) >= 4:
            mean = sum(history) / len(history)
            var = sum((h - mean) ** 2 for h in history) / len(history)
            sigma = max(var**0.5, 1.0)
            z = (estimate - mean) / sigma
            flag = ""
            if z >= ZSCORE_ALARM:
                alarms.append(elements)
                flag = f"  <-- ALARM (z={z:,.0f})"
            print(
                f"{elements:>7,} | windowed est {estimate:>10,.0f} "
                f"| windowed truth {truth.estimate:>8,.0f} "
                f"| baseline {mean:>10,.0f}{flag}"
            )
        history.append(estimate)
        del history[:-8]  # trailing baseline window

    with open_session(
        f"abacus:budget={BUDGET},seed=5", window=WINDOW
    ) as session:
        session.on_checkpoint(detector, every=CHECK_EVERY)
        # Keep the exact twin in lockstep so the detector can print it.
        for start in range(0, len(stream), CHECK_EVERY):
            chunk = stream[start : start + CHECK_EVERY]
            truth.ingest(chunk)
            session.ingest(chunk)
        windowed_final = session.estimate
        windowed_truth = truth.estimate
        expired = session.estimator.expired_count
    truth.close()

    with open_session("exact") as session:
        session.ingest(e for e in stream)
        infinite_final = session.estimate

    print(
        f"\nalarms fired at elements {alarms} — the bomb lands at 6,000"
        f"\nfinal windowed estimate : {windowed_final:>12,.0f} "
        f"(truth {windowed_truth:,.0f}; bomb expired, "
        f"{expired:,} expiry deletions synthesized)"
        f"\nfinal infinite count    : {infinite_final:>12,.0f} "
        "(bomb baked in forever)"
    )
    print(
        "\nThe window forgets the attack once it slides past, so the"
        "\ndetector re-arms; the infinite-window count stays poisoned"
        "\nand would mask any later bomb."
    )


if __name__ == "__main__":
    main()

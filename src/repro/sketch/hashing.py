"""k-universal hash families over a Mersenne-prime field.

AMS sketches need 4-wise independent +/-1 hash functions to make their
variance analysis go through.  We implement polynomial hashing over
GF(p) with p = 2^61 - 1 (a Mersenne prime, so reduction is a couple of
shifts), the textbook construction: a degree-(k-1) polynomial with
random coefficients is a k-universal family.
"""

from __future__ import annotations

import random
from typing import Hashable, Optional

_MERSENNE_P = (1 << 61) - 1
_MASK64 = (1 << 64) - 1


def mix64(salt: int, key: int) -> int:
    """Salted splitmix64 finalizer: 64 well-mixed bits from (salt, key).

    The shard partitioner routes vertices with it.  It is not provably
    k-universal but its avalanche quality is the de-facto standard for
    non-cryptographic hashing.
    """
    z = (key ^ salt) & _MASK64
    z = (z * 0x9E3779B97F4A7C15) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def as_int_key(key: Hashable) -> int:
    """Map an arbitrary hashable key to an integer for sketch hashing.

    Integers map to themselves (so results are reproducible across
    processes for the common integer-vertex case); anything else goes
    through the built-in ``hash``, which is stable within one process.
    """
    if isinstance(key, int):
        return key
    return hash(key)


class FourWiseHash:
    """A 4-universal hash function ``h : int -> [0, p)``.

    Evaluates a random cubic polynomial modulo ``2^61 - 1``.  Instances
    are cheap; CAS creates one per sketch row.
    """

    __slots__ = ("_c0", "_c1", "_c2", "_c3")

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        rng = rng or random.Random()
        self._c0 = rng.randrange(_MERSENNE_P)
        self._c1 = rng.randrange(1, _MERSENNE_P)
        self._c2 = rng.randrange(_MERSENNE_P)
        self._c3 = rng.randrange(_MERSENNE_P)

    def __call__(self, key: int) -> int:
        x = key % _MERSENNE_P
        # Horner evaluation with lazy reduction.
        acc = self._c3
        acc = (acc * x + self._c2) % _MERSENNE_P
        acc = (acc * x + self._c1) % _MERSENNE_P
        acc = (acc * x + self._c0) % _MERSENNE_P
        return acc

    def sign(self, key: int) -> int:
        """Map the hash to a +/-1 Rademacher value (lowest bit)."""
        return 1 if self(key) & 1 else -1

    def bucket(self, key: int, num_buckets: int) -> int:
        """Map the hash into ``[0, num_buckets)``."""
        return self(key) % num_buckets

"""Sketching substrate.

* :class:`~repro.sketch.ams.AmsSketch` — tug-of-war F2/point sketch,
  the ingredient the CAS baseline (Li et al., TKDE 2022) combines with
  edge sampling.
* :mod:`~repro.sketch.hashing` — the seeded hash families behind it,
  and the ``mix64`` finaliser the shard partitioner routes with.
"""

from repro.sketch.ams import AmsSketch
from repro.sketch.hashing import FourWiseHash, as_int_key, mix64

__all__ = [
    "AmsSketch",
    "FourWiseHash",
    "as_int_key",
    "mix64",
]

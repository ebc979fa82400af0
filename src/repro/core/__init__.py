"""Core estimators: ABACUS, PARABACUS, and the exact streaming oracle."""

from repro.core.abacus import Abacus
from repro.core.base import ButterflyEstimator, StatefulEstimator
from repro.core.checkpoint import (
    abacus_from_dict,
    abacus_to_dict,
    load_checkpoint,
    save_checkpoint,
)
from repro.core.ensemble import EnsembleEstimator
from repro.core.exact import ExactStreamingCounter
from repro.core.lazy import LazyAbacus
from repro.core.parabacus import Parabacus
from repro.core.support import AbacusSupport
from repro.core.probabilities import (
    chebyshev_bound,
    discovery_probability,
    extrapolation_factor,
    subset_inclusion_probability,
    variance_closed_form,
    variance_upper_bound,
)

__all__ = [
    "Abacus",
    "AbacusSupport",
    "EnsembleEstimator",
    "LazyAbacus",
    "Parabacus",
    "ButterflyEstimator",
    "StatefulEstimator",
    "ExactStreamingCounter",
    "abacus_to_dict",
    "abacus_from_dict",
    "save_checkpoint",
    "load_checkpoint",
    "discovery_probability",
    "subset_inclusion_probability",
    "extrapolation_factor",
    "variance_closed_form",
    "variance_upper_bound",
    "chebyshev_bound",
]

"""Registrations for every estimator the library ships.

Importing this module (which :mod:`repro.api` does eagerly) populates
the registry with every public estimator: the paper's ABACUS and
PARABACUS, the ensemble combiner, the FLEET / CAS / sGrapp insert-only
baselines, the per-edge support variant, and the exact streaming
oracle.

The factories exist so that registry-level parameter names can stay
stable even if a constructor signature evolves, and to encode the few
spec-level conveniences (e.g. ``sgrapp`` accepting ``budget`` as an
alias for its window, matching the experiment harness's convention).
"""

from __future__ import annotations

from typing import Any

from repro.api.registry import Param, register_estimator
from repro.baselines.cas import CoAffiliationSampling
from repro.baselines.fleet import Fleet
from repro.baselines.sgrapp import SGrapp
from repro.core.abacus import Abacus
from repro.core.base import ButterflyEstimator
from repro.core.ensemble import EnsembleEstimator
from repro.core.exact import ExactStreamingCounter
from repro.core.parabacus import Parabacus
from repro.core.support import AbacusSupport

#: Default memory budget when a spec names a sampled estimator without
#: sizing it; matches the mid-range budgets of the paper's figures.
DEFAULT_BUDGET = 1000

_BUDGET = Param("budget", int, DEFAULT_BUDGET, doc="memory budget k in edges")
_SEED = Param("seed", int, doc="RNG seed for reproducible sampling")


@register_estimator(
    "abacus",
    params=(
        _BUDGET,
        _SEED,
        Param("cheapest_side", bool, True, doc="side-selection heuristic"),
        Param("naive_increment", bool, False, doc="ablation: ignore cb/cg"),
    ),
    description="ABACUS: unbiased fully dynamic butterfly estimation",
    cls=Abacus,
)
def _build_abacus(**params: Any) -> ButterflyEstimator:
    return Abacus(**params)


@register_estimator(
    "parabacus",
    params=(
        _BUDGET,
        _SEED,
        Param("batch_size", int, 500, doc="mini-batch size M"),
        Param("num_threads", int, 4, doc="counting-phase worker count p"),
        Param(
            "use_thread_pool",
            bool,
            False,
            doc=(
                "count on a ThreadPoolExecutor over delta-coded sample "
                "versions (off: serially, on the live sample)"
            ),
        ),
        Param("cheapest_side", bool, True, doc="side-selection heuristic"),
    ),
    description="PARABACUS: mini-batch parallel ABACUS (bit-identical)",
    cls=Parabacus,
)
def _build_parabacus(**params: Any) -> ButterflyEstimator:
    return Parabacus(**params)


@register_estimator(
    "ensemble",
    params=(
        Param("replicas", int, 4, doc="independent Abacus replicas"),
        _BUDGET,
        _SEED,
        Param("combiner", str, "mean", doc="mean | median | median_of_means"),
        Param("groups", int, doc="median-of-means group count"),
        Param(
            "share_budget",
            bool,
            False,
            doc="split the budget across replicas",
        ),
    ),
    description="Ensemble of independent ABACUS replicas (variance reduction)",
    cls=EnsembleEstimator,
    aliases=("ensemble_abacus",),
)
def _build_ensemble(**params: Any) -> ButterflyEstimator:
    return EnsembleEstimator(**params)


@register_estimator(
    "fleet",
    params=(
        _BUDGET,
        _SEED,
        Param("gamma", float, 0.75, doc="reservoir resizing parameter"),
    ),
    description="FLEET3 adaptive-sampling baseline (insert-only)",
    cls=Fleet,
)
def _build_fleet(**params: Any) -> ButterflyEstimator:
    return Fleet(**params)


@register_estimator(
    "cas",
    params=(
        _BUDGET,
        _SEED,
        Param(
            "sketch_fraction", float, 0.33, doc="budget share for the sketch"
        ),
        Param("sketch_depth", int, 5, doc="AMS sketch rows"),
    ),
    description="CAS-R reservoir + AMS sketch baseline (insert-only)",
    cls=CoAffiliationSampling,
)
def _build_cas(**params: Any) -> ButterflyEstimator:
    return CoAffiliationSampling(**params)


@register_estimator(
    "sgrapp",
    params=(
        Param("window", int, doc="insertions per window (working set)"),
        Param("budget", int, doc="alias for window, harness convention"),
        Param("learning_windows", int, 4, doc="windows used to fit the BDPL"),
    ),
    description="sGrapp window/BDPL baseline (insert-only)",
    cls=SGrapp,
)
def _build_sgrapp(**params: Any) -> ButterflyEstimator:
    budget = params.pop("budget", None)
    if "window" not in params:
        params["window"] = max(1, budget) if budget is not None else 2000
    return SGrapp(**params)


@register_estimator(
    "abacus_support",
    params=(_BUDGET, _SEED),
    description="ABACUS with per-edge butterfly support estimates",
    cls=AbacusSupport,
    aliases=("support",),
)
def _build_abacus_support(**params: Any) -> ButterflyEstimator:
    return AbacusSupport(**params)


@register_estimator(
    "exact",
    description="Exact streaming oracle (stores the whole graph)",
    cls=ExactStreamingCounter,
)
def _build_exact() -> ButterflyEstimator:
    return ExactStreamingCounter()

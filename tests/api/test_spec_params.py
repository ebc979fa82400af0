"""Every parameter a registry entry declares is wired and type-checked.

A spec may name only declared parameters, so each declaration is a
promise: the spec grammar parses a value for it, the factory's
constructor accepts it, and a value of the wrong type is refused by name
before any estimator is built.  Each (estimator, parameter) pair is one
case, so a parameter added to a registration without a constructor
keyword, or with the wrong declared type, fails here.
"""

from __future__ import annotations

import pytest

from repro.api import build_estimator, get_registration, registered_estimators
from repro.api.registry import parse_spec
from repro.errors import SpecError

#: A valid value other than the default for every declared parameter.
VALUES = {
    ("abacus", "budget"): 37,
    ("abacus", "seed"): 5,
    ("abacus", "cheapest_side"): False,
    ("abacus", "naive_increment"): True,
    ("abacus_support", "budget"): 37,
    ("abacus_support", "seed"): 5,
    ("cas", "budget"): 90,
    ("cas", "seed"): 5,
    ("cas", "sketch_fraction"): 0.5,
    ("cas", "sketch_depth"): 3,
    ("ensemble", "replicas"): 3,
    ("ensemble", "budget"): 37,
    ("ensemble", "seed"): 5,
    ("ensemble", "combiner"): "median",
    ("ensemble", "groups"): 2,
    ("ensemble", "share_budget"): True,
    ("fleet", "budget"): 37,
    ("fleet", "seed"): 5,
    ("fleet", "gamma"): 0.5,
    ("parabacus", "budget"): 37,
    ("parabacus", "seed"): 5,
    ("parabacus", "batch_size"): 16,
    ("parabacus", "num_threads"): 3,
    ("parabacus", "use_thread_pool"): True,
    ("parabacus", "cheapest_side"): False,
    ("sgrapp", "window"): 50,
    ("sgrapp", "budget"): 60,
    ("sgrapp", "learning_windows"): 2,
    ("sharded", "inner"): "exact",
    ("sharded", "shards"): 3,
    ("sharded", "backend"): "thread",
    ("sharded", "partitioner"): "balanced",
    ("sharded", "salt"): 9,
    ("sharded", "seed"): 5,
    ("windowed", "inner"): "exact",
    ("windowed", "window"): 5,
    ("windowed", "window_time"): 2.5,
    ("windowed", "strict"): True,
    ("windowed", "seed"): 5,
}

#: Parameters a case needs beside the one under test to be buildable.
COMPANIONS = {
    ("ensemble", "groups"): {"combiner": "median_of_means"},
    ("windowed", "inner"): {"window": 5},
    ("windowed", "strict"): {"window": 5},
    ("windowed", "seed"): {"window": 5},
}

#: A spec-string value no parser of the declared type accepts.
WRONG = {int: "soon", float: "soon", bool: "maybe"}

DECLARED = [
    (name, param.name)
    for name in registered_estimators()
    for param in get_registration(name).params
]
TYPED = [
    (name, param.name)
    for name in registered_estimators()
    for param in get_registration(name).params
    if param.type is not str
]


def _render(value) -> str:
    return str(value).lower() if isinstance(value, bool) else str(value)


def _spec_string(name: str, params: dict) -> str:
    body = ",".join(f"{key}={_render(value)}" for key, value in params.items())
    return f"{name}:{body}"


def test_every_declared_parameter_has_a_case():
    assert set(DECLARED) == set(VALUES)
    assert set(COMPANIONS) <= set(VALUES)


@pytest.mark.parametrize("name,param", DECLARED)
def test_a_declared_parameter_reaches_its_constructor(name, param):
    value = VALUES[(name, param)]
    params = {param: value, **COMPANIONS.get((name, param), {})}
    spec = parse_spec(_spec_string(name, params))
    assert spec.params[param] == value
    estimator = build_estimator(spec)
    try:
        registration = get_registration(name)
        assert type(estimator) is registration.cls
        public = getattr(estimator, param, None)
        if isinstance(public, (bool, int, float, str)):
            assert public == value
    finally:
        close = getattr(estimator, "close", None)
        if close is not None:
            close()


@pytest.mark.parametrize("name,param", TYPED)
def test_a_wrongly_typed_value_is_refused_by_name(name, param):
    declared = {p.name: p.type for p in get_registration(name).params}
    spec = f"{name}:{param}={WRONG[declared[param]]}"
    with pytest.raises(SpecError, match=repr(param)):
        build_estimator(spec)

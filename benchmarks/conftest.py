"""Shared fixtures for the benchmark suite.

The benchmarks regenerate every table and figure of the paper's
evaluation on the scaled synthetic analogues (see docs/paper_map.md,
substitution #1).  Each bench uses ``benchmark.pedantic(...,
rounds=1)`` so the experiment runs exactly once while still being
timed, writes its rendered report to ``benchmarks/results/``, and
echoes it to stdout (visible with ``-s``).

A single session-scoped :class:`ExperimentContext` is shared by all
benches so streams and ground truths are computed once.

Quick mode
----------

Every ``bench_*.py`` honors a shared ``--quick`` flag::

    PYTHONPATH=src python -m pytest benchmarks -s --quick

which shrinks workloads (fewer datasets/trials/elements) so the whole
suite finishes in CI-smoke time.  Quick runs keep every *identity*
assertion (estimates equal across paths/backends) but drop the
*statistical and speedup* assertions that only hold at full scale —
the CI perf gate lives in ``tools/bench_runner.py`` floors instead,
fed by :func:`record_metric`.

Metrics protocol
----------------

``tools/bench_runner.py`` sets the ``REPRO_BENCH_METRICS`` environment
variable to a writable path before invoking a bench.  Benches report
their headline numbers (elements/sec etc.) with
``record_metric("name", value)``; each call appends one JSON line to
that file.  Without the variable the call is a no-op, so interactive
runs need no setup.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.experiments.runner import ExperimentContext

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Environment variable naming the metrics sink (see module docstring).
METRICS_ENV = "REPRO_BENCH_METRICS"


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help=(
            "shrink benchmark workloads to CI-smoke size (identity "
            "assertions kept; scale-dependent assertions skipped)"
        ),
    )


@pytest.fixture(scope="session")
def quick(request: pytest.FixtureRequest) -> bool:
    """Whether this run was invoked with ``--quick``."""
    return bool(request.config.getoption("--quick"))


@pytest.fixture(scope="session")
def bench_datasets(quick):
    """Dataset subset for figure benches: trimmed under ``--quick``.

    The two extremes (densest and sparsest) stay in, so cross-dataset
    shape assertions remain meaningful when they do run.
    """
    return ["movielens_like", "orkut_like"] if quick else None


@pytest.fixture(scope="session")
def ctx() -> ExperimentContext:
    return ExperimentContext()


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def emit(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Write a report file and echo it."""
    (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    print()
    print(text)


def record_metric(name: str, value: float) -> None:
    """Report one headline number to the bench runner, if one is listening.

    Appends ``{"metric": name, "value": value}`` as a JSON line to the
    file named by ``REPRO_BENCH_METRICS``; silently does nothing when
    the variable is unset (interactive/local runs).
    """
    path = os.environ.get(METRICS_ENV)
    if not path:
        return
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"metric": name, "value": value}) + "\n")

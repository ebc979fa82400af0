"""Evaluation metrics: accuracy, throughput, balance, replication
lag, and multi-tenant fair-share summaries."""

from repro.metrics.accuracy import (
    mean,
    percentile,
    relative_error,
    summarize_errors,
)
from repro.metrics.replication import lag_summary
from repro.metrics.tenancy import FairShareSummary, fair_share
from repro.metrics.throughput import Stopwatch, throughput_eps
from repro.metrics.workload import workload_balance

__all__ = [
    "FairShareSummary",
    "relative_error",
    "mean",
    "percentile",
    "summarize_errors",
    "Stopwatch",
    "fair_share",
    "lag_summary",
    "throughput_eps",
    "workload_balance",
]

"""Per-figure experiment definitions (Table II and Figures 3-10).

Each ``run_*`` function executes one of the paper's experiments on the
scaled synthetic analogues and returns a result dict with a rendered
``text`` report plus the structured series, so the benchmarks and the
CLI share one implementation.

Runtime is controlled by two knobs every function accepts:

* ``trials`` — independent repetitions (paper: 10);
* ``datasets`` — subset of registry names (paper: all four).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.api.registry import EstimatorSpec, build_estimator
from repro.core.base import ButterflyEstimator
from repro.errors import ExperimentError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.butterflies import butterfly_density, count_butterflies
from repro.metrics.throughput import Stopwatch
from repro.metrics.workload import workload_balance
from repro.experiments.datasets import DATASETS, get_dataset
from repro.experiments.report import render_series, render_table
from repro.experiments.runner import ExperimentContext

DEFAULT_ALPHA = 0.2
SIZE_LABELS = ("small", "mid", "large")  # stand-ins for 75K/150K/300K


def _estimator(name: str, **params) -> ButterflyEstimator:
    """Build a registered estimator from keyword params (figures idiom)."""
    return build_estimator(EstimatorSpec(name, params))


def _dataset_names(datasets: Optional[Iterable[str]]) -> List[str]:
    names = list(datasets) if datasets is not None else list(DATASETS)
    for name in names:
        get_dataset(name)  # validate early
    return names


# ---------------------------------------------------------------------------
# Table II — dataset statistics
# ---------------------------------------------------------------------------
def run_table2(datasets: Optional[Iterable[str]] = None) -> Dict:
    """|E|, |L|, |R|, exact butterflies, and butterfly density."""
    rows = []
    stats = {}
    for name in _dataset_names(datasets):
        spec = get_dataset(name)
        graph = BipartiteGraph(spec.edges())
        butterflies = count_butterflies(graph)
        density = butterfly_density(graph, butterflies)
        stats[name] = {
            "edges": graph.num_edges,
            "left": graph.num_left,
            "right": graph.num_right,
            "butterflies": butterflies,
            "density": density,
        }
        rows.append(
            (
                spec.paper_name,
                graph.num_edges,
                graph.num_left,
                graph.num_right,
                butterflies,
                f"{density:.3g}",
            )
        )
    text = render_table(
        ["Graph", "|E|", "|L|", "|R|", "Butterflies", "Butterfly Density"],
        rows,
        title="Table II (scaled analogues): dataset statistics",
    )
    return {"title": "table2", "text": text, "stats": stats}


# ---------------------------------------------------------------------------
# Figures 3 & 5 — accuracy vs sample size (alpha = 20% / 0%)
# ---------------------------------------------------------------------------
def run_accuracy_vs_sample_size(
    alpha: float = DEFAULT_ALPHA,
    trials: int = 5,
    datasets: Optional[Iterable[str]] = None,
    methods: Sequence[str] = ("abacus", "fleet", "cas"),
    context: Optional[ExperimentContext] = None,
) -> Dict:
    """Relative error of each method while varying the sample size.

    ``alpha=0.2`` reproduces Figure 3; ``alpha=0.0`` reproduces
    Figure 5.  Also derives the headline "ABACUS is N x more accurate"
    ratios of Section VI-B.
    """
    ctx = context or ExperimentContext()
    results: Dict[str, Dict] = {}
    blocks: List[str] = []
    for name in _dataset_names(datasets):
        spec = get_dataset(name)
        per_method: Dict[str, List[float]] = {m: [] for m in methods}
        for budget in spec.sample_sizes:
            for method in methods:
                summary = ctx.accuracy(
                    spec, method, budget, alpha, trials
                )
                per_method[method].append(summary.mean)
        results[name] = {
            "sample_sizes": list(spec.sample_sizes),
            "errors": per_method,
        }
        series = {
            m.upper(): [e * 100.0 for e in errs]
            for m, errs in per_method.items()
        }
        blocks.append(
            render_series(
                "k (edges)",
                list(spec.sample_sizes),
                series,
                title=(
                    f"{spec.paper_name}: relative error (%) at "
                    f"alpha={alpha:.0%}, trials={trials}"
                ),
                y_format="{:.2f}",
            )
        )
        improvements = _improvement_lines(per_method, methods)
        if improvements:
            blocks.append(improvements)
    figure = "Figure 3" if alpha > 0 else "Figure 5"
    text = f"== {figure}: accuracy vs sample size (alpha={alpha:.0%}) ==\n"
    text += "\n\n".join(blocks)
    return {"title": figure, "text": text, "results": results}


def _improvement_lines(
    per_method: Dict[str, List[float]], methods: Sequence[str]
) -> str:
    """'ABACUS is X-Y x more accurate than <baseline>' summary lines."""
    if "abacus" not in per_method:
        return ""
    abacus_errors = per_method["abacus"]
    lines = []
    for method in methods:
        if method == "abacus":
            continue
        ratios = [
            other / max(ours, 1e-12)
            for ours, other in zip(abacus_errors, per_method[method])
        ]
        lines.append(
            f"  ABACUS vs {method.upper()}: "
            f"{min(ratios):.1f}x - {max(ratios):.1f}x more accurate"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 4 — throughput vs sample size
# ---------------------------------------------------------------------------
def run_throughput_vs_sample_size(
    alpha: float = DEFAULT_ALPHA,
    datasets: Optional[Iterable[str]] = None,
    batch_size: int = 500,
    num_threads: int = 40,
    context: Optional[ExperimentContext] = None,
) -> Dict:
    """Throughput (K elements/s) of every method while varying k.

    Matches Figure 4's five bars: PARABACUS (Ins+Del), ABACUS (Ins+Del),
    ABACUS (Ins-only), FLEET (Ins-only), CAS (Ins-only).  PARABACUS
    additionally reports its work-model throughput (docs/paper_map.md,
    substitution #2) since CPython threads serialise the real clock.
    """
    ctx = context or ExperimentContext()
    results: Dict[str, Dict] = {}
    blocks: List[str] = []
    for name in _dataset_names(datasets):
        spec = get_dataset(name)
        columns = {
            "Parabacus (Ins+Del)": [],
            "Parabacus modeled": [],
            "Abacus (Ins+Del)": [],
            "Abacus (Ins-only)": [],
            "FLEET (Ins-only)": [],
            "CAS (Ins-only)": [],
        }
        for budget in spec.sample_sizes:
            abacus_full = ctx.throughput(spec, "abacus", budget, alpha)
            columns["Abacus (Ins+Del)"].append(abacus_full / 1000.0)
            columns["Abacus (Ins-only)"].append(
                ctx.throughput(
                    spec, "abacus", budget, alpha, insertions_only=True
                )
                / 1000.0
            )
            columns["FLEET (Ins-only)"].append(
                ctx.throughput(spec, "fleet", budget, alpha) / 1000.0
            )
            columns["CAS (Ins-only)"].append(
                ctx.throughput(spec, "cas", budget, alpha) / 1000.0
            )
            para_eps, para_model = _parabacus_throughput(
                ctx, spec, budget, alpha, batch_size, num_threads
            )
            columns["Parabacus (Ins+Del)"].append(para_eps / 1000.0)
            columns["Parabacus modeled"].append(para_model / 1000.0)
        results[name] = {
            "sample_sizes": list(spec.sample_sizes),
            "throughput_keps": columns,
        }
        blocks.append(
            render_series(
                "k (edges)",
                list(spec.sample_sizes),
                columns,
                title=(
                    f"{spec.paper_name}: throughput (K edges/s), "
                    f"alpha={alpha:.0%}"
                ),
                y_format="{:.1f}",
            )
        )
    text = "== Figure 4: throughput vs sample size ==\n" + "\n\n".join(blocks)
    return {"title": "Figure 4", "text": text, "results": results}


def _parabacus_throughput(
    ctx: ExperimentContext,
    spec,
    budget: int,
    alpha: float,
    batch_size: int,
    num_threads: int,
) -> tuple:
    """(wall-clock eps, work-model eps) for PARABACUS."""
    stream = ctx.stream(spec, alpha, 0)
    estimator = _estimator(
        "parabacus",
        budget=budget,
        batch_size=batch_size,
        num_threads=num_threads,
        seed=spec.base_seed + 31337,
    )
    watch = Stopwatch()
    with watch:
        estimator.process_stream(stream)
        estimator.flush()
    wall_eps = len(stream) / watch.elapsed
    modeled_eps = wall_eps * estimator.modeled_speedup()
    return wall_eps, modeled_eps


# ---------------------------------------------------------------------------
# Figure 6 — impact of the deletion ratio alpha
# ---------------------------------------------------------------------------
def run_deletion_ratio_impact(
    alphas: Sequence[float] = (0.05, 0.10, 0.20, 0.30),
    trials: int = 3,
    budget_index: int = 1,
    datasets: Optional[Iterable[str]] = None,
    context: Optional[ExperimentContext] = None,
) -> Dict:
    """ABACUS error (6a) and throughput (6b) across deletion ratios."""
    ctx = context or ExperimentContext()
    names = _dataset_names(datasets)
    error_series: Dict[str, List[float]] = {}
    throughput_series: Dict[str, List[float]] = {}
    for name in names:
        spec = get_dataset(name)
        budget = spec.sample_sizes[budget_index]
        errors = []
        rates = []
        for alpha in alphas:
            summary = ctx.accuracy(spec, "abacus", budget, alpha, trials)
            errors.append(summary.mean * 100.0)
            rates.append(
                ctx.throughput(spec, "abacus", budget, alpha) / 1000.0
            )
        error_series[spec.paper_name] = errors
        throughput_series[spec.paper_name] = rates
    alphas_pct = [f"{a:.0%}" for a in alphas]
    text = "== Figure 6: impact of deletions ==\n"
    text += render_series(
        "alpha",
        alphas_pct,
        error_series,
        title="(a) ABACUS relative error (%) vs deletion ratio",
        y_format="{:.2f}",
    )
    text += "\n\n"
    text += render_series(
        "alpha",
        alphas_pct,
        throughput_series,
        title="(b) ABACUS throughput (K edges/s) vs deletion ratio",
        y_format="{:.1f}",
    )
    return {
        "title": "Figure 6",
        "text": text,
        "alphas": list(alphas),
        "errors_pct": error_series,
        "throughput_keps": throughput_series,
    }


# ---------------------------------------------------------------------------
# Figure 7 — scalability with the stream size
# ---------------------------------------------------------------------------
def run_scalability(
    datasets: Optional[Iterable[str]] = None,
    alpha: float = DEFAULT_ALPHA,
    parts: int = 10,
    context: Optional[ExperimentContext] = None,
) -> Dict:
    """Elapsed processing time at each 10% of the stream, per budget.

    Linear growth of elapsed time with elements processed reproduces the
    O(k^2 t) bound of Theorem 3 at fixed k.
    """
    ctx = context or ExperimentContext()
    names = _dataset_names(
        datasets if datasets is not None else ("trackers_like", "orkut_like")
    )
    results: Dict[str, Dict] = {}
    blocks: List[str] = []
    for name in names:
        spec = get_dataset(name)
        stream = ctx.stream(spec, alpha, 0)
        marks = stream.checkpoints(parts)
        series: Dict[str, List[float]] = {}
        for budget in spec.sample_sizes:
            estimator = _estimator(
                "abacus", budget=budget, seed=spec.base_seed
            )
            elapsed: List[float] = []
            watch = Stopwatch()
            watch.start()
            estimator.process_stream(
                stream,
                checkpoints=marks,
                on_checkpoint=lambda _n, _e: elapsed.append(watch.elapsed),
            )
            watch.stop()
            series[f"k={budget}"] = elapsed
        results[name] = {"checkpoints": marks, "elapsed_s": series}
        blocks.append(
            render_series(
                "elements",
                marks,
                series,
                title=(
                    f"{spec.paper_name}: elapsed seconds vs elements processed"
                ),
                y_format="{:.2f}",
            )
        )
    text = "== Figure 7: scalability ==\n" + "\n\n".join(blocks)
    return {"title": "Figure 7", "text": text, "results": results}


# ---------------------------------------------------------------------------
# Figures 8 & 9 — PARABACUS speedup
# ---------------------------------------------------------------------------
def run_minibatch_speedup(
    batch_sizes: Sequence[int] = (100, 500, 1000, 5000, 10000),
    num_threads: int = 40,
    alpha: float = DEFAULT_ALPHA,
    datasets: Optional[Iterable[str]] = None,
    dispatch_cost_per_batch: float = 2000.0,
    context: Optional[ExperimentContext] = None,
) -> Dict:
    """Work-model speedup of PARABACUS while varying the mini-batch size.

    Two series per budget: the pure work model (``k=X``) and the model
    with a fixed per-batch fork/join dispatch cost (``k=X+ovh``) — the
    mechanism that penalises small mini-batches on real hardware and
    produces the paper's growth-in-M shape.
    """
    ctx = context or ExperimentContext()
    results: Dict[str, Dict] = {}
    blocks: List[str] = []
    for name in _dataset_names(datasets):
        spec = get_dataset(name)
        stream = ctx.stream(spec, alpha, 0)
        series: Dict[str, List[float]] = {}
        for budget in spec.sample_sizes:
            speedups = []
            adjusted = []
            for batch_size in batch_sizes:
                estimator = _estimator(
                    "parabacus",
                    budget=budget,
                    batch_size=batch_size,
                    num_threads=num_threads,
                    seed=spec.base_seed,
                )
                estimator.process_stream(stream)
                estimator.flush()
                speedups.append(estimator.modeled_speedup())
                adjusted.append(
                    estimator.modeled_speedup(
                        dispatch_cost_per_batch=dispatch_cost_per_batch
                    )
                )
            series[f"k={budget}"] = speedups
            series[f"k={budget}+ovh"] = adjusted
        results[name] = {"batch_sizes": list(batch_sizes), "speedup": series}
        blocks.append(
            render_series(
                "M (edges)",
                list(batch_sizes),
                series,
                title=(
                    f"{spec.paper_name}: PARABACUS speedup vs mini-batch size "
                    f"(p={num_threads} threads, work model)"
                ),
                y_format="{:.2f}",
            )
        )
    text = "== Figure 8: speedup vs mini-batch size ==\n" + "\n\n".join(blocks)
    return {"title": "Figure 8", "text": text, "results": results}


def run_thread_speedup(
    thread_counts: Sequence[int] = (8, 16, 24, 32, 40),
    batch_size: int = 10000,
    alpha: float = DEFAULT_ALPHA,
    datasets: Optional[Iterable[str]] = None,
    context: Optional[ExperimentContext] = None,
) -> Dict:
    """Work-model speedup of PARABACUS while varying the thread count."""
    ctx = context or ExperimentContext()
    results: Dict[str, Dict] = {}
    blocks: List[str] = []
    for name in _dataset_names(datasets):
        spec = get_dataset(name)
        stream = ctx.stream(spec, alpha, 0)
        series: Dict[str, List[float]] = {}
        for budget in spec.sample_sizes:
            speedups = []
            for p in thread_counts:
                estimator = _estimator(
                    "parabacus",
                    budget=budget,
                    batch_size=batch_size,
                    num_threads=p,
                    seed=spec.base_seed,
                )
                estimator.process_stream(stream)
                estimator.flush()
                speedups.append(estimator.modeled_speedup())
            series[f"k={budget}"] = speedups
        results[name] = {
            "thread_counts": list(thread_counts),
            "speedup": series,
        }
        blocks.append(
            render_series(
                "threads",
                list(thread_counts),
                series,
                title=(
                    f"{spec.paper_name}: PARABACUS speedup vs threads "
                    f"(M={batch_size}, work model)"
                ),
                y_format="{:.2f}",
            )
        )
    text = "== Figure 9: speedup vs number of threads ==\n" + "\n\n".join(
        blocks
    )
    return {"title": "Figure 9", "text": text, "results": results}


# ---------------------------------------------------------------------------
# Figure 10 — per-thread workload balance
# ---------------------------------------------------------------------------
def run_load_balance(
    datasets: Optional[Iterable[str]] = None,
    budget_index: int = 1,
    batch_size: int = 10000,
    num_threads: int = 32,
    alpha: float = DEFAULT_ALPHA,
    context: Optional[ExperimentContext] = None,
) -> Dict:
    """Per-thread set-intersection workloads (element checks)."""
    ctx = context or ExperimentContext()
    names = _dataset_names(
        datasets if datasets is not None else ("movielens_like", "orkut_like")
    )
    results: Dict[str, Dict] = {}
    blocks: List[str] = []
    for name in names:
        spec = get_dataset(name)
        budget = spec.sample_sizes[budget_index]
        stream = ctx.stream(spec, alpha, 0)
        estimator = _estimator(
            "parabacus",
            budget=budget,
            batch_size=batch_size,
            num_threads=num_threads,
            seed=spec.base_seed,
        )
        estimator.process_stream(stream)
        estimator.flush()
        balance = workload_balance(estimator.per_thread_work)
        results[name] = {
            "per_thread_work": list(estimator.per_thread_work),
            "balance": balance,
        }
        rows = [
            (tid + 1, work)
            for tid, work in enumerate(estimator.per_thread_work)
        ]
        blocks.append(
            render_table(
                ["Thread", "Workload (element checks)"],
                rows,
                title=(
                    f"{spec.paper_name}: per-thread workload "
                    f"(k={budget}, M={batch_size}, p={num_threads}) "
                    f"— {balance}"
                ),
            )
        )
    text = "== Figure 10: workload per thread ==\n" + "\n\n".join(blocks)
    return {"title": "Figure 10", "text": text, "results": results}


# ---------------------------------------------------------------------------
# Extra: empirical unbiasedness (Theorem 1) and ablations
# ---------------------------------------------------------------------------
def run_unbiasedness(
    n_edges: int = 1200,
    budget: int = 150,
    alpha: float = 0.25,
    trials: int = 200,
    seed: int = 13,
) -> Dict:
    """Average of many independent ABACUS estimates vs the exact count.

    Theorem 1 says E[c] equals the true count; the sample mean over
    ``trials`` runs should land within a few standard errors of it.
    """
    from repro.experiments.datasets import tiny_dataset

    spec = tiny_dataset(n_edges=n_edges, seed=seed)
    stream = spec.stream(alpha=alpha, trial=0)
    from repro.experiments.runner import ground_truth_final_count

    truth = ground_truth_final_count(stream)
    if truth <= 0:
        raise ExperimentError("unbiasedness workload has no butterflies")
    estimates = []
    for trial in range(trials):
        estimator = _estimator(
            "abacus", budget=budget, seed=seed + 7 * trial + 1
        )
        estimates.append(estimator.process_stream(stream))
    mean_estimate = sum(estimates) / len(estimates)
    variance = sum((e - mean_estimate) ** 2 for e in estimates) / max(
        1, len(estimates) - 1
    )
    std_error = (variance / len(estimates)) ** 0.5
    z = (mean_estimate - truth) / std_error if std_error > 0 else 0.0
    text = render_table(
        ["truth", "mean estimate", "std error", "z-score", "trials"],
        [
            (
                truth,
                f"{mean_estimate:.1f}",
                f"{std_error:.1f}",
                f"{z:.2f}",
                trials,
            )
        ],
        title="Empirical unbiasedness of ABACUS (Theorem 1)",
    )
    return {
        "title": "unbiasedness",
        "text": text,
        "truth": truth,
        "mean_estimate": mean_estimate,
        "std_error": std_error,
        "z": z,
    }


def run_ablation_heuristics(
    datasets: Optional[Iterable[str]] = None,
    budget_index: int = 1,
    alpha: float = DEFAULT_ALPHA,
    trials: int = 3,
    context: Optional[ExperimentContext] = None,
) -> Dict:
    """Ablations of Algorithm 1's design choices (docs/paper_map.md).

    (a) cheapest-side heuristic: identical estimates, less intersection
        work; (b) naive increment (ignoring cb/cg in Equation 1):
        biased under deletions.  Each variant also reports its mean
        wall time per trial, so the work saving can be read against
        what the side test itself costs.
    """
    ctx = context or ExperimentContext()
    rows = []
    results: Dict[str, Dict] = {}
    for name in _dataset_names(
        datasets if datasets is not None else ("movielens_like",)
    ):
        spec = get_dataset(name)
        budget = spec.sample_sizes[budget_index]
        stream = ctx.stream(spec, alpha, 0)
        truth = ctx.truth(spec, alpha, 0)

        def _measure(**kwargs):
            errors = []
            work = 0
            watch = Stopwatch()
            for trial in range(trials):
                estimator = _estimator(
                    "abacus",
                    budget=budget,
                    seed=spec.base_seed + 31 * trial,
                    **kwargs,
                )
                trial_stream = ctx.stream(spec, alpha, trial)
                watch.start()
                estimate = estimator.process_stream(trial_stream)
                watch.stop()
                t = ctx.truth(spec, alpha, trial)
                errors.append(abs(t - estimate) / t)
                work += estimator.total_work
            return {
                "error": sum(errors) / len(errors),
                "work": work // trials,
                "seconds": watch.elapsed / trials,
            }

        variants = {
            "default": _measure(),
            "no_cheapest_side": _measure(cheapest_side=False),
            "naive_increment": _measure(naive_increment=True),
        }
        results[name] = variants
        for key, label in (
            ("default", "default"),
            ("no_cheapest_side", "no cheapest-side"),
            ("naive_increment", "naive increment"),
        ):
            measured = variants[key]
            rows.append(
                (
                    spec.paper_name,
                    label,
                    f"{measured['error']:.2%}",
                    measured["work"],
                    f"{measured['seconds']:.3f}",
                )
            )
        del stream, truth
    text = render_table(
        [
            "Graph",
            "Variant",
            "Mean rel. error",
            "Avg intersection work",
            "Mean seconds",
        ],
        rows,
        title="Ablation: side-selection heuristic and Equation 1 refinement",
    )
    return {"title": "ablation", "text": text, "results": results}

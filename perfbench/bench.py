"""One benchmark run: the workload, its metrics, the report and the JSON.

Called by ``perfbench/run.py`` once the system under test imports.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
import traceback
from typing import Any, Dict, List

from perfbench import inproc, served
from perfbench.checks import Checks, Ops
from perfbench.stats import summarize
from perfbench.system import environment, pin, placement
from perfbench.tracing import LAYERS, SETUP, Tracer, install, self_times

#: Per-layer ``*_s`` metric -> the span whose self time it reports.
SELF_SPANS = {
    "session.self_s": "session.ingest",
    "abacus.self_s": "abacus.process_batch",
    "counting.scalar_s": "counting.scalar",
    "counting.degree_sum_s": "counting.degree_sum",
    "counting.mirror_s": "counting.mirror",
    "counting.versioned_s": "counting.versioned",
    "sampler.process_s": "sampler.process",
    "mirror.sync_s": "mirror.sync",
    "mirror.apply_s": "mirror.apply",
    "versioned.neighbors_at_s": "versioned.neighbors_at",
    "parabacus.minibatch_s": "parabacus.minibatch",
    "store.append_s": "store.append",
    "protocol.decode_s": "protocol.decode",
    "protocol.elements_s": "protocol.elements",
    "server.admission_wait_s": "server.admission_wait",
    "server.writer_wait_s": "server.writer_wait",
    "server.loop_s": "server.request",
    "server.publish_s": "server.publish",
}

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _declared(kind: str) -> Dict[str, str]:
    """Name -> unit of each ``kind`` metric in ``BENCHMARK.json``, in
    its order: the one list of what a run reports."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        metrics = json.load(handle)[kind]
    return {metric["name"]: metric["unit"] for metric in metrics}


END_TO_END = _declared("end_to_end")
PER_LAYER = _declared("per_layer")


def _round_eps(rounds: List[Dict[str, Any]]) -> List[float]:
    return [r["elements"] / r["wall_s"] for r in rounds]


def _eps(rounds: List[Dict[str, Any]]) -> float:
    """Elements acknowledged over the timed wall time of all ``rounds``.

    Rounds do equal work, so this is the harmonic mean of their rates.
    On a shared host, speed can switch between a slow and a fast level
    every few seconds; this moves smoothly with the share of the run
    spent slow, where the median of the rounds jumps between levels.
    """
    elements = sum(r["elements"] for r in rounds)
    return elements / sum(r["wall_s"] for r in rounds)


def end_to_end(
    rounds: List[Dict[str, Any]],
    setup_samples: List[float],
    peaks_mib: List[float],
) -> Dict[str, Dict[str, Any]]:
    """The summary of each end-to-end metric.  Its ``value`` is the
    median, but for ``ingest_eps``, which is :func:`_eps`."""
    summaries = {
        "ingest_eps": summarize(_round_eps(rounds)),
        "batch_p50_ms": summarize(
            1e3 * s for r in rounds for s in r["batch_s"]
        ),
        "read_p50_ms": summarize(
            1e3 * s for r in rounds for s in r["reads"].latency
        ),
        "setup_s": summarize(setup_samples),
        "peak_rss_mb": summarize(peaks_mib),
    }
    for summary in summaries.values():
        summary["value"] = summary["p50"]
    summaries["ingest_eps"]["value"] = _eps(rounds)
    return summaries


def per_layer(
    untraced: List[Dict[str, Any]],
    traced: List[Dict[str, Any]],
    exports: List[Dict[str, Any]],
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric from the traced rounds' spans.

    Times are per round (every round does the same work); shares are
    of the traced rounds' timed wall time.  ``server.*`` counters and
    the generator's lateness come from the untraced rounds.
    """
    count = len(traced)
    names = self_times(exports)
    setup = self_times(exports, SETUP)
    metrics = {
        key: names[span]["self_s"] / count for key, span in SELF_SPANS.items()
    }
    kernels = [
        names[n]
        for n in ("counting.scalar", "counting.mirror", "counting.versioned")
    ]
    calls = sum(k["top_calls"] for k in kernels)
    hits = sum(k["top_count"] for k in kernels)
    metrics["counting.hit_ratio"] = hits / calls if calls else 0.0
    metrics["counting.work"] = float(traced[-1]["facts"]["total_work"])
    metrics["sampler.mutations"] = names["sampler.process"]["count"] / count
    batches = names["abacus.process_batch"]["calls"]
    syncs = names["mirror.sync"]["calls"]
    metrics["mirror.engaged_ratio"] = syncs / batches if batches else 0.0
    per_thread = traced[-1]["facts"].get("per_thread_work") or [0]
    mean_work = sum(per_thread) / len(per_thread)
    metrics["parabacus.work_imbalance"] = (
        max(per_thread) / mean_work if mean_work else 0.0
    )
    fsyncs = sum(
        row[3]
        for exported in exports
        for row in exported["leaves"]
        if row[:3] == ["run", "store.fsync", "store.append"]
    )
    metrics["store.fsyncs"] = fsyncs / count
    recover = setup["recovery.recover"]["total_s"]
    metrics["recovery.recover_s"] = recover / count
    metrics["recovery.replay_s"] = setup["session.ingest"]["total_s"] / count
    reads = [
        row[2] - row[1]
        for exported in exports
        for row in exported["spans"]
        if row[0] == "server.request" and str(row[4]).startswith("r")
    ]
    metrics["server.read_s"] = statistics.median(reads) if reads else 0.0
    for key in ("cpu_s", "nvcsw", "backpressure", "wal_bytes_per_el"):
        values = [r[key] for r in untraced if key in r]
        layer = "store" if key == "wal_bytes_per_el" else "server"
        metrics[f"{layer}.{key}"] = statistics.median(values) if values else 0
    late = summarize(1e3 * s for r in untraced for s in r["reads"].late)
    metrics["gen.late_ms"] = late["p50"]
    wall = sum(r["wall_s"] for r in traced)
    attributed = 0.0
    for layer, spans in LAYERS.items():
        share = 100.0 * sum(names[s]["self_s"] for s in spans) / wall
        metrics[f"share.{layer}"] = share
        attributed += share
    metrics["share.unattributed"] = 100.0 - attributed
    untraced_eps = _eps(untraced)
    traced_eps = _eps(traced)
    metrics["trace.untraced_eps"] = untraced_eps
    metrics["trace.traced_eps"] = traced_eps
    metrics["trace.overhead_pct"] = 100.0 * (untraced_eps / traced_eps - 1)
    metrics.update(extra)
    return metrics


def _trace_dir(workload: str, seed: int) -> str:
    path = os.path.join(ROOT, ".bench_run", "traces", f"{workload}-{seed}")
    os.makedirs(path, exist_ok=True)
    return path


def run_inprocess(args, workdir: str, ops: Ops, checks: Checks):
    pin(placement()["system"])
    inputs = inproc.prepare(args.workload, args.seed)
    gc.collect()
    gc.freeze()  # the stream is input, not state: keep it out of GC passes
    setup_samples = inproc.probe_setup(inputs["spec"])
    rounds = inproc.run_rounds(inputs, args.seconds, ops, checks)
    peak_mib = inproc.probe_rss(inputs, ROOT, workdir, checks) / 1024
    e2e = end_to_end(rounds, setup_samples, [peak_mib])
    facts = {
        "spec": inputs["spec"],
        "elements per round": len(inputs["stream"]),
    }
    if not args.trace:
        return e2e, rounds, None, facts
    tracer = Tracer()
    install(tracer)
    try:
        traced = inproc.run_rounds(inputs, args.seconds, ops, checks, tracer)
    finally:
        tracer.uninstall()
    path = os.path.join(_trace_dir(args.workload, args.seed), "spans.json")
    extra = {
        "gen.encode_s": inputs["prepare_s"],
        "baseline.inproc_eps": inputs["baseline_eps"],
    }
    layers = per_layer(rounds, traced, [tracer.dump(path)], extra)
    return e2e, rounds, layers, facts


def run_served(args, workdir: str, ops: Ops, checks: Checks):
    cpus = placement()
    pin(cpus["generator"])
    inputs = served.prepare(args.seed, workdir, cpus["system"])
    gc.collect()
    gc.freeze()  # the stream is input, not state: keep it out of GC passes
    rounds = served.run_rounds(
        inputs, ROOT, workdir, args.seconds, ops, checks
    )
    e2e = end_to_end(
        rounds,
        [r["setup_s"] for r in rounds],
        [r["peak_kib"] / 1024 for r in rounds],
    )
    facts = {
        "spec": inputs["spec"],
        "elements per round": f"{inputs['rest']} over the wire after a "
        f"{served.PREFIX}-element WAL recovery",
    }
    if not args.trace:
        return e2e, rounds, None, facts
    traced = served.run_rounds(
        inputs,
        ROOT,
        workdir,
        args.seconds,
        ops,
        checks,
        trace_dir=_trace_dir(args.workload, args.seed),
    )
    for r in traced:
        r["facts"] = {"total_work": r["trace"]["facts"]["total_work"]}
    extra = {
        "gen.encode_s": inputs["encode_s"],
        "baseline.inproc_eps": inputs["baseline_eps"],
    }
    exports = [r["trace"] for r in traced]
    layers = per_layer(rounds, traced, exports, extra)
    return e2e, rounds, layers, facts


#: Every workload and the function that runs it.
RUNNERS = {
    **{name: run_inprocess for name in inproc.WORKLOADS},
    served.NAME: run_served,
}


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(args, env, facts, e2e, rounds, layers, ops, checks) -> None:
    """The human-readable part of stdout."""
    print(
        f"perfbench {args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for key, value in facts.items():
        print(f"{key}: {value}")
    eps = ", ".join(_fmt(value) for value in _round_eps(rounds))
    print(f"rounds: {len(rounds)}; el/s per round: {eps}")
    print(
        f"{'end-to-end metric':<22}{'value':>14}  {'unit':<6}"
        f"{'samples':>8}  tail (>= 10 samples beyond)"
    )
    for name, unit in END_TO_END.items():
        summary = e2e[name]
        tail = summary["tail"]
        tail_text = f"{tail[0]}={_fmt(tail[1])}" if tail else "-"
        print(
            f"{name:<22}{_fmt(summary['value']):>14}  {unit:<6}"
            f"{summary['n']:>8}  {tail_text}"
        )
    ratio = ops.total_failed / ops.total_attempted
    kinds = ", ".join(
        f"{kind}={ops.failed[kind]}/{n}"
        for kind, n in sorted(ops.attempted.items())
    )
    print(
        f"{'failed_ratio':<22}{_fmt(ratio):>14}  {'ratio':<6}"
        f"{ops.total_attempted:>8}  {kinds}"
    )
    if layers is not None:
        print(f"{'per-layer metric':<28}{'value':>14}  unit")
        for name, unit in PER_LAYER.items():
            print(f"{name:<28}{_fmt(layers[name]):>14}  {unit}")
    print("checks: " + ("ok" if checks.ok else "FAILED"))
    for failure in checks.failures:
        print(f"  {failure}")


def run(args) -> int:
    """Run ``args.workload``; print the report and the JSON result line."""
    env = environment()
    os.makedirs(os.path.join(ROOT, ".bench_run"), exist_ok=True)
    workdir = tempfile.mkdtemp(
        prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".bench_run")
    )
    ops, checks = Ops(), Checks()
    try:
        e2e, rounds, layers, facts = RUNNERS[args.workload](
            args, workdir, ops, checks
        )
    except Exception:
        traceback.print_exc()
        print(f"error: {args.workload} did not complete", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(args, env, facts, e2e, rounds, layers, ops, checks)
    if layers is None:
        metrics = {
            name: {"value": e2e[name]["value"], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    else:
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    result = {
        "correct": checks.ok,
        "attempted": ops.total_attempted,
        "failed": ops.total_failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if checks.ok else 1

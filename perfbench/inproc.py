"""In-process workloads: ``Session.ingest`` in fixed chunks.

A run repeats *rounds* until ``--seconds`` of timed ingest have passed.
A round opens a fresh session from the seeded spec, feeds the whole
stream in chunks (its timed phase, two to three seconds on a 2-core
machine), and is then checked against the reference.  Every round does
identical work, so the run pools its rounds: elements over their whole
timed wall time, and medians over all their chunks and reads.  Set-up
is timed apart, in blocks of back-to-back ``open_session`` calls
(:func:`probe_setup`).

Reads follow a fixed open-loop schedule.  The thread that owns the
session serves every read that fell due while a chunk ran as soon as
the chunk returns, and the read's latency is timed from when it was
due — what a single-threaded embedding that interleaves queries with
ingest would see.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro import build_estimator, open_session, parse_spec

from perfbench import gen
from perfbench.checks import Checks, Ops, check_parabacus, parabacus_reference
from perfbench.rss_probe import write_stream
from perfbench.stats import OpenLoop

#: Elements per ``Session.ingest`` call.
CHUNK = 500

#: Read schedule period of the in-process workloads.
READ_PERIOD_S = 0.010

#: ``setup_s`` is the median over this many blocks of back-to-back
#: ``open_session`` calls of the mean time of one call in a block.
SETUP_BLOCKS = 5

#: A set-up block makes calls until this long has passed: one call
#: takes tens of microseconds, too short to time steadily on its own.
SETUP_BLOCK_S = 1.0


@dataclass(frozen=True)
class InProcess:
    """One in-process workload.

    ``graph`` is ``(n_left, n_right, n_edges)`` of the Chung–Lu graph;
    ``spec`` lacks its ``seed=``, which every run pins from ``--seed``.
    """

    graph: Tuple[int, int, int]
    spec: str


WORKLOADS = {
    # k=4000 over an 8000x1000 graph: the sampled subgraph stays far
    # below the mirror gate's mean degree of VECTOR_CUTOFF, so every
    # batch takes the scalar kernel and the cheapest-side degree_sum.
    "abacus-sparse": InProcess(
        graph=(8000, 1000, 250_000), spec="abacus:budget=4000"
    ),
    # The only workload through the versioned sample and per-version
    # counting of PARABACUS (serial execution, the default).
    "parabacus-dense": InProcess(
        graph=(800, 200, 25_000),
        spec="parabacus:budget=4000,batch_size=500,num_threads=2",
    ),
}


def prepare(name: str, seed: int) -> Dict[str, Any]:
    """Build the stream, its chunks and the reference, untimed except
    for the reference's own throughput (``baseline.inproc_eps``)."""
    workload = WORKLOADS[name]
    spec = f"{workload.spec},seed={seed}"
    stream = gen.make_stream(name, seed, *workload.graph)
    started = time.perf_counter()
    chunks = [stream[i : i + CHUNK] for i in range(0, len(stream), CHUNK)]
    prepare_s = time.perf_counter() - started
    params = parse_spec(spec).params
    started = time.perf_counter()
    if "batch_size" in params:
        reference = parabacus_reference(
            stream,
            params["budget"],
            seed,
            params["batch_size"],
            params["num_threads"],
        )
    else:
        # Another public path: per-element process() on a same-seed
        # estimator, no batching, no session chunking.
        estimator = build_estimator(spec)
        for element in stream:
            estimator.process(element)
        reference = {
            "estimate": estimator.estimate,
            "fingerprint": open_session(estimator).fingerprint(),
        }
    reference_s = time.perf_counter() - started
    return {
        "spec": spec,
        "stream": stream,
        "chunks": chunks,
        "reference": reference,
        "baseline_eps": len(stream) / reference_s,
        "prepare_s": prepare_s,
    }


def probe_rss(
    inputs: Dict[str, Any], root: str, workdir: str, checks: Checks
) -> float:
    """``VmHWM`` growth (KiB) of one round in a clean child process."""
    path = os.path.join(workdir, "stream.bin")
    write_stream(path, inputs["stream"])
    argv = [
        sys.executable,
        os.path.join(root, "perfbench", "rss_probe.py"),
        inputs["spec"],
        path,
        str(CHUNK),
    ]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run(
        argv, cwd=root, env=env, capture_output=True, timeout=120, check=True
    )
    result = json.loads(done.stdout.decode().splitlines()[-1])
    expected = inputs["reference"]["estimate"]
    checks.equal(result["estimate"], expected, "memory-probe estimate")
    return result["growth_kib"]


def probe_setup(spec: str) -> List[float]:
    """The mean time of ``open_session`` until the session is ready, for
    each of :data:`SETUP_BLOCKS` blocks of back-to-back calls."""
    clock = time.perf_counter
    samples: List[float] = []
    for _ in range(SETUP_BLOCKS):
        opening = 0.0
        calls = 0
        block_end = clock() + SETUP_BLOCK_S
        done = 0.0
        while done < block_end:
            started = clock()
            session = open_session(spec)
            done = clock()
            session.close()
            opening += done - started
            calls += 1
        samples.append(opening / calls)
    return samples


def run_round(
    inputs: Dict[str, Any],
    ops: Ops,
    checks: Checks,
    tracer: Optional[Any] = None,
) -> Dict[str, Any]:
    """One round: open a session, ingest every chunk, check the result."""
    clock = time.perf_counter
    gc.collect()
    session = open_session(inputs["spec"])
    batch_s: List[float] = []
    start = clock()
    reads = OpenLoop(start, READ_PERIOD_S)
    read_index = 0
    next_due = reads.due(0)
    for index, chunk in enumerate(inputs["chunks"]):
        if tracer is not None:
            tracer.rid = index
        ops.attempt("ingest")
        before = clock()
        try:
            session.ingest(chunk)
        except Exception:
            ops.fail("ingest")
            raise
        after = clock()
        batch_s.append(after - before)
        while next_due <= after:
            ops.attempt("estimate")
            session.estimate  # the read being timed
            done = clock()
            reads.record(read_index, done, done)
            read_index += 1
            next_due = reads.due(read_index)
    session.flush()
    wall_s = clock() - start
    reference = inputs["reference"]
    if "fingerprint" in reference:
        checks.expect(
            session.fingerprint() == reference["fingerprint"],
            "session fingerprint differs from the per-element reference",
        )
    else:
        check_parabacus(checks, session.estimator, reference)
    estimator = session.estimator
    facts = {
        "total_work": estimator.total_work,
        "per_thread_work": list(getattr(estimator, "per_thread_work", [])),
    }
    session.close()
    return {
        "elements": len(inputs["stream"]),
        "wall_s": wall_s,
        "batch_s": batch_s,
        "reads": reads,
        "facts": facts,
    }


def run_rounds(
    inputs: Dict[str, Any],
    seconds: float,
    ops: Ops,
    checks: Checks,
    tracer: Optional[Any] = None,
) -> List[Dict[str, Any]]:
    """Rounds until ``seconds`` of timed ingest have accumulated."""
    rounds: List[Dict[str, Any]] = []
    timed = 0.0
    while timed < seconds and checks.ok:
        rounds.append(run_round(inputs, ops, checks, tracer))
        timed += rounds[-1]["wall_s"]
    return rounds

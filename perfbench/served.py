"""The ``serve-durable`` workload: ``repro serve --durable-dir`` over the wire.

Set-up writes a WAL holding the first :data:`PREFIX` elements of the
stream (untimed, no checkpoint).  Each round copies it, starts
``repro serve`` as a child process over the copy — interpreter start,
full-WAL recovery replay and bind are its set-up, timed until the first
``ping`` answers — and checks that recovery landed exactly on the
prefix.  Then one closed-loop writer connection sends the rest of the
stream as pre-encoded JSON ``ingest`` batches of :data:`BATCH` elements,
while one reader connection sends ``estimate`` on a fixed open-loop
schedule.  Both connections close before a third one sends
``shutdown``; any traceback on the server's stderr fails the run.

The generator is this one process with two threads and two
connections; the server is its own process on its own CPU, so read
latency measures the server's loop and writer threads, not the
generator's.
"""

from __future__ import annotations

import gc
import json
import os
import re
import select
import shutil
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from repro import open_session
from repro.serve.protocol import elements_to_records, encode_message
from repro.store import DurableStore

from perfbench import gen
from perfbench.checks import Checks, Ops, check_ack, check_estimate
from perfbench.stats import OpenLoop
from perfbench.system import cpu_and_switches, rss_kib

#: Chung–Lu graph of the stream: (n_left, n_right, n_edges).
GRAPH = (8000, 1000, 250_000)

#: Elements already in the WAL when the server starts.
PREFIX = 50_000

#: Workload name, as ``--workload`` takes it.
NAME = "serve-durable"

#: Elements per ``ingest`` request.  The store fsyncs once an append
#: reaches its default batch of 256 records, so every request costs one
#: fsync; at 1024 a round makes a quarter of the round trips and fsyncs
#: that 256-element requests would, so host wake-up and ``fsync``
#: latency move its timings less.
BATCH = 1024

#: Spec without its seed: a small budget keeps counting a minor share,
#: so the wire, admission, writer hop, WAL and publish dominate.
SPEC = "abacus:budget=1000"

#: Reader schedule period.
READ_PERIOD_S = 0.010

#: Distinct pre-encoded reads (ids wrap around after these).
READS = 4096

#: Socket and child-process timeout.
TIMEOUT_S = 60.0

_ADDRESS = re.compile(rb" on ([0-9.]+):(\d+)")


def prepare(seed: int, workdir: str, cpu: int) -> Dict[str, Any]:
    """Stream, reference, pre-encoded requests and the prefix WAL;
    ``cpu`` is where the server will run."""
    spec = f"{SPEC},seed={seed}"
    stream = gen.make_stream(NAME, seed, *GRAPH)
    reference: Dict[str, Any] = {}

    def at_prefix(_elements: int, session: Any) -> None:
        reference["prefix_estimate"] = session.estimate

    # The timed correctness reference: same spec and stream, in-process.
    session = open_session(spec)
    session.on_checkpoint(at_prefix, at=[PREFIX])
    started = time.perf_counter()
    session.ingest(stream)
    baseline_eps = len(stream) / (time.perf_counter() - started)
    reference["estimate"] = session.estimate
    session.close()

    started = time.perf_counter()
    rest = stream[PREFIX:]
    requests = []
    for index, offset in enumerate(range(0, len(rest), BATCH)):
        batch = rest[offset : offset + BATCH]
        message = {
            "id": index,
            "op": "ingest",
            "elements": elements_to_records(batch),
        }
        after = PREFIX + offset + len(batch)
        requests.append((encode_message(message), len(batch), after))
    reads = [
        encode_message({"id": f"r{index}", "op": "estimate"})
        for index in range(READS)
    ]
    encode_s = time.perf_counter() - started

    wal = os.path.join(workdir, "prefix")
    store = DurableStore(wal)
    store.initialize(spec)
    store.append_batch(stream[:PREFIX])
    store.close()
    return {
        "spec": spec,
        "elements": len(stream),
        "rest": len(rest),
        "reference": reference,
        "baseline_eps": baseline_eps,
        "requests": requests,
        "reads": reads,
        "encode_s": encode_s,
        "wal": wal,
        "wal_bytes": _wal_bytes(wal),
        "cpu": cpu,
    }


def _wal_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for name in os.listdir(directory)
        if name.startswith("wal-")
    )


class _Connection:
    """A raw protocol connection sending pre-encoded lines."""

    def __init__(self, port: int, ops: Ops) -> None:
        ops.attempt("connect")
        try:
            self.sock = socket.create_connection(
                ("127.0.0.1", port), timeout=TIMEOUT_S
            )
        except OSError:
            ops.fail("connect")
            raise
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.lines = self.sock.makefile("rb")

    def call(self, line: bytes) -> Dict[str, Any]:
        self.sock.sendall(line)
        answer = self.lines.readline()
        if not answer:
            raise ConnectionError("server closed the connection")
        return json.loads(answer)

    def request(self, ops: Ops, kind: str, **message: Any) -> Dict[str, Any]:
        """One untimed control request, accounted under ``kind``."""
        ops.attempt(kind)
        try:
            response = self.call(encode_message(message))
        except (OSError, ValueError):
            ops.fail(kind)
            raise
        if response.get("ok") is not True:
            ops.fail(kind)
        return response

    def close(self) -> None:
        self.lines.close()
        self.sock.close()


def _reader(
    conn: _Connection,
    reads: List[bytes],
    schedule: OpenLoop,
    stop: threading.Event,
    ops: Ops,
    errors: List[BaseException],
) -> None:
    """Send ``estimate`` on ``schedule`` until ``stop`` is set."""
    clock = time.perf_counter
    index = 0
    try:
        while True:
            delay = schedule.due(index) - clock()
            if (delay > 0 and stop.wait(delay)) or stop.is_set():
                return
            ops.attempt("estimate")
            sent = clock()
            try:
                response = conn.call(reads[index % len(reads)])
            except (OSError, ValueError):
                ops.fail("estimate")
                raise
            done = clock()
            if response.get("ok") is not True:
                ops.fail("estimate")
            schedule.record(index, sent, done)
            index += 1
    except Exception as exc:  # raised again by the writer thread
        errors.append(exc)


def _spawn(
    root: str,
    wal: str,
    spec: str,
    cpu: int,
    trace_path: Optional[str],
    stderr: Any,
) -> subprocess.Popen:
    serve_args = [
        "serve", "--durable-dir", wal, "--estimator", spec, "--port", "0"
    ]
    if trace_path is None:
        argv = [sys.executable, "-m", "repro", *serve_args]
    else:
        launcher = os.path.join(root, "perfbench", "serve_traced.py")
        argv = [sys.executable, launcher, trace_path, *serve_args]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.Popen(
        argv, cwd=root, env=env, stdout=subprocess.PIPE, stderr=stderr
    )
    os.sched_setaffinity(proc.pid, {cpu})
    return proc


def _bound_port(proc: subprocess.Popen, ops: Ops) -> int:
    """The port from ``repro serve``'s first stdout line."""
    ops.attempt("start")
    ready, _, _ = select.select([proc.stdout], [], [], TIMEOUT_S)
    line = proc.stdout.readline() if ready else b""
    match = _ADDRESS.search(line)
    if match is None:
        ops.fail("start")
        raise RuntimeError(f"repro serve did not report its port: {line!r}")
    return int(match.group(2))


def _check_recovered(
    writer: _Connection, inputs: Dict[str, Any], ops: Ops, checks: Checks
) -> None:
    """Recovery must land exactly on the WAL prefix."""
    recovered = writer.request(ops, "stats", op="stats").get("result") or {}
    checks.equal(recovered.get("elements"), PREFIX, "recovered elements")
    offset = (recovered.get("durability") or {}).get("offset")
    checks.equal(offset, PREFIX, "recovered WAL offset")
    check_estimate(
        checks,
        writer.request(ops, "estimate", op="estimate"),
        PREFIX,
        inputs["reference"]["prefix_estimate"],
        "recovered estimate",
    )


def _send_rest(
    writer: _Connection,
    reader: _Connection,
    inputs: Dict[str, Any],
    ops: Ops,
    checks: Checks,
) -> Dict[str, Any]:
    """The timed phase: every ingest batch, with reads alongside."""
    clock = time.perf_counter
    stop = threading.Event()
    errors: List[BaseException] = []
    batch_s: List[float] = []
    start = clock()
    schedule = OpenLoop(start, READ_PERIOD_S)
    thread = threading.Thread(
        target=_reader,
        args=(reader, inputs["reads"], schedule, stop, ops, errors),
        name="perfbench-reader",
    )
    thread.start()
    try:
        for line, sent, elements_after in inputs["requests"]:
            ops.attempt("ingest")
            began = clock()
            try:
                response = writer.call(line)
            except (OSError, ValueError):
                ops.fail("ingest")
                raise
            batch_s.append(clock() - began)
            if not check_ack(checks, response, sent, elements_after):
                ops.fail("ingest")
                break
        wall_s = clock() - start
    finally:
        stop.set()
        thread.join(TIMEOUT_S)
    if thread.is_alive() or errors:
        raise RuntimeError(f"reader failed: {errors!r}")
    return {"wall_s": wall_s, "batch_s": batch_s, "reads": schedule}


def _shutdown(port: int, ops: Ops) -> None:
    """Stop the server from a connection that closes itself right
    behind the ``shutdown`` it sends."""
    control = _Connection(port, ops)
    ops.attempt("shutdown")
    control.sock.sendall(
        encode_message({"op": "shutdown"}) + encode_message({"op": "close"})
    )
    answers = [control.lines.readline(), control.lines.readline()]
    control.close()
    if not all(answers):
        ops.fail("shutdown")


def run_round(
    inputs: Dict[str, Any],
    root: str,
    workdir: str,
    index: int,
    ops: Ops,
    checks: Checks,
    trace_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Restart the server over a fresh copy of the prefix WAL and send
    the rest of the stream."""
    wal = os.path.join(workdir, f"round-{index}")
    shutil.copytree(inputs["wal"], wal)
    stderr_path = os.path.join(workdir, f"round-{index}.stderr")
    gc.collect()
    writer = reader = None
    with open(stderr_path, "wb") as stderr:
        started = time.perf_counter()
        proc = _spawn(
            root, wal, inputs["spec"], inputs["cpu"], trace_path, stderr
        )
        try:
            port = _bound_port(proc, ops)
            writer = _Connection(port, ops)
            writer.request(ops, "ping", id="ping", op="ping")
            setup_s = time.perf_counter() - started
            _check_recovered(writer, inputs, ops, checks)
            reader = _Connection(port, ops)
            before = cpu_and_switches(proc.pid)
            result = _send_rest(writer, reader, inputs, ops, checks)
            after = cpu_and_switches(proc.pid)
            check_estimate(
                checks,
                writer.request(ops, "estimate", op="estimate"),
                inputs["elements"],
                inputs["reference"]["estimate"],
                "final estimate",
            )
            stats = writer.request(ops, "stats", op="stats")
            peak_kib = rss_kib("VmHWM", str(proc.pid))
            for conn in (reader, writer):
                conn.close()
            reader = writer = None
            _shutdown(port, ops)
            checks.equal(proc.wait(TIMEOUT_S), 0, "repro serve exit code")
        finally:
            for conn in (reader, writer):
                if conn is not None:
                    conn.close()
            if proc.poll() is None:
                proc.kill()
            proc.communicate(timeout=TIMEOUT_S)
    with open(stderr_path, "rb") as handle:
        errors_text = handle.read().decode("utf-8", "replace")
    checks.expect(
        "Traceback" not in errors_text,
        f"repro serve wrote a traceback:\n{errors_text}",
    )
    appended = _wal_bytes(wal) - inputs["wal_bytes"]
    shutil.rmtree(wal)
    result.update(
        elements=inputs["rest"],
        setup_s=setup_s,
        peak_kib=peak_kib,
        cpu_s=after["cpu_s"] - before["cpu_s"],
        nvcsw=after["nvcsw"] - before["nvcsw"],
        backpressure=(stats.get("result") or {}).get("backpressure"),
        wal_bytes_per_el=appended / inputs["rest"],
    )
    return result


def run_rounds(
    inputs: Dict[str, Any],
    root: str,
    workdir: str,
    seconds: float,
    ops: Ops,
    checks: Checks,
    trace_dir: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Server restarts until ``seconds`` of timed ingest accumulated."""
    rounds: List[Dict[str, Any]] = []
    timed = 0.0
    while timed < seconds and checks.ok:
        index = len(rounds)
        trace_path = None
        if trace_dir is not None:
            trace_path = os.path.join(trace_dir, f"server-{index}.json")
        result = run_round(
            inputs, root, workdir, index, ops, checks, trace_path
        )
        if trace_path is not None:
            with open(trace_path, encoding="utf-8") as handle:
                result["trace"] = json.load(handle)
        rounds.append(result)
        timed += result["wall_s"]
    return rounds

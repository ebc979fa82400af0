"""Shutting the server down while clients are still connected.

``shutdown`` ends every open connection: idle ones see end of stream at
once, and requests a connection already sent are answered first.  The
process exits cleanly, with nothing on stderr.
"""

import json
import os
import re
import socket
import subprocess
import sys
import time

import repro
import repro.serve.server as server_module
from repro.api import open_session
from repro.serve.client import ServeClient
from repro.serve.protocol import encode_message
from repro.serve.server import serve_in_background

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _replies(sock, count):
    lines = sock.makefile("rb")
    return [json.loads(lines.readline()) for _ in range(count)]


def test_cli_serve_exits_cleanly_with_an_idle_client():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--estimator",
            "abacus:budget=100,seed=1",
            "--port",
            "0",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        banner = proc.stdout.readline().decode()
        port = int(re.search(r" on [^ ]+:(\d+)", banner).group(1))
        idle = socket.create_connection(("127.0.0.1", port), timeout=30)
        control = socket.create_connection(("127.0.0.1", port), timeout=30)
        control.sendall(encode_message({"id": 1, "op": "shutdown"}))
        [reply] = _replies(control, 1)
        control.close()
        assert reply["result"] == {"stopping": True}
        _, stderr = proc.communicate(timeout=30)
        assert idle.recv(1) == b""  # the idle client was closed
        idle.close()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0
    assert stderr.decode() == ""


def test_requests_sent_before_shutdown_are_answered():
    background = serve_in_background(open_session("exact"))
    idle = socket.create_connection(background.address, timeout=30)
    with socket.create_connection(background.address, timeout=30) as sock:
        sock.sendall(
            encode_message({"id": 1, "op": "shutdown"})
            + encode_message({"id": 2, "op": "ping"})
            + encode_message({"id": 3, "op": "close"})
        )
        replies = _replies(sock, 3)
        assert [r["id"] for r in replies] == [1, 2, 3]
        assert all(r["ok"] for r in replies)
        assert replies[2]["result"] == {"goodbye": True}
    background.stop()
    assert idle.recv(1) == b""
    idle.close()


def test_a_client_that_never_reads_is_aborted(monkeypatch):
    """Responses pile up unread until the handler blocks on the socket;
    shutdown waits out the grace period, then aborts the connection."""
    monkeypatch.setattr(server_module, "SHUTDOWN_GRACE_S", 0.3)
    background = serve_in_background(open_session("exact"))
    stuck = socket.socket()
    stuck.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    stuck.connect(background.address)
    stuck.sendall(encode_message({"op": "stats"}) * 20_000)
    with ServeClient(*background.address) as probe:
        served, previous, probes = 0, -1, 0
        while served != previous:  # until the stuck handler blocks
            time.sleep(0.2)
            previous = served
            probes += 1
            served = probe.stats()["operations"]["stats"] - probes
    assert served < 20_000
    started = time.perf_counter()
    background.stop()
    assert time.perf_counter() - started >= 0.3
    stuck.close()

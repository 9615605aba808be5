"""A long-lived worker holds nothing of the server's open.

A worker forked from the server inherits every descriptor the server had
open at the fork: the listening socket and the request connections.  It
closes them first thing, so:

* a client that reads its response to EOF gets the EOF, on the request
  that spawned a worker and on the first one after a timeout respawn
  (the server closes the connection, but a copy held by a worker would
  keep it open);
* once the service stops, its port refuses connections;
* ``repro serve`` on SIGTERM reaps its workers before it exits, and no
  process of it holds its stdout any longer.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import repro

CHEAP_JOB = {"topology": "mesh2d", "n": 16, "workload": "dense-permutation"}
SLOW_JOB = {"topology": "mesh2d", "n": 4096, "workload": "dense-permutation"}


def post_until_eof(host: str, port: int, body: dict) -> bytes:
    """POST a route over a raw socket and read until the server's EOF."""
    data = json.dumps(body).encode()
    request = (
        b"POST /v1/route HTTP/1.1\r\nHost: test\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: %d\r\n\r\n" % len(data)
    ) + data
    chunks = []
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(request)
        while True:
            try:
                chunk = sock.recv(65536)
            except socket.timeout:
                pytest.fail(f"no EOF within 10 s after {b''.join(chunks)!r}")
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def status_of(response: bytes) -> int:
    return int(response.split(b" ", 2)[1])


def test_eof_on_the_request_that_spawned_a_worker(runner, client):
    response = post_until_eof(runner.host, runner.port, {**CHEAP_JOB, "seed": 1})
    assert status_of(response) == 200
    assert b"Connection: close" in response
    assert client.stats().body["pool"]["spawned"] == 1


def test_eof_on_the_first_request_after_a_respawn(runner, client):
    timed_out = post_until_eof(
        runner.host, runner.port, {**SLOW_JOB, "timeout": 0.01}
    )
    assert status_of(timed_out) == 504
    response = post_until_eof(runner.host, runner.port, {**CHEAP_JOB, "seed": 2})
    assert status_of(response) == 200
    pool = client.stats().body["pool"]
    assert (pool["killed"], pool["spawned"]) == (1, 2)


def test_port_refuses_connections_after_stop(runner, client):
    assert client.route({**CHEAP_JOB, "seed": 3}).ok
    host, port = runner.host, runner.port
    runner.stop()
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection((host, port), timeout=5).close()


@pytest.mark.skipif(shutil.which("ps") is None, reason="needs ps(1)")
def test_serve_reaps_its_workers_on_sigterm(tmp_path):
    src = str(Path(repro.__file__).resolve().parents[1])
    server = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
         "--workers", "2", "--root", str(tmp_path / "plans")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    workers = []
    try:
        port = int(server.stdout.readline().split()[2].rsplit(":", 1)[1])
        response = post_until_eof("127.0.0.1", port, {**CHEAP_JOB, "seed": 4})
        assert status_of(response) == 200
        ps = subprocess.run(
            ["ps", "-o", "pid=", "--ppid", str(server.pid)],
            capture_output=True, text=True,
        )
        workers = [int(pid) for pid in ps.stdout.split()]
        assert len(workers) == 1
        server.send_signal(signal.SIGTERM)
        out, err = server.communicate(timeout=30)  # EOF: nothing holds stdout
    finally:
        server.kill()
        server.wait()
    assert server.returncode == 0, err
    assert "served 1 requests" in out
    for pid in workers:  # reaped by the server, not left a zombie
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

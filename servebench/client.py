"""The load generator: daemon processes, keep-alive HTTP, closed loops.

A :class:`Daemon` is one ``repro serve`` process (or its traced twin)
on a store file.  :class:`Connection` is one keep-alive HTTP/1.1
connection that times each request from the first byte sent to the
last byte of the body read; decoding and checking happen after the
traffic, outside the timed region.  :func:`drive_reads` runs a closed
loop over a query stream on several connections;
:func:`drive_updates` runs insert/read/delete/read rounds on one.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
_PORT_LINE = re.compile(r" on [0-9.]+:(\d+)\s*$", re.MULTILINE)


def program_env() -> dict[str, str]:
    """The environment every program process runs with: ``src`` first
    on ``PYTHONPATH``."""
    paths = [str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


@dataclass
class Op:
    """One timed request and what it returned."""

    kind: str  # "query" or "update"
    text: str  # query text, or the update body
    state: object  # the mirror-graph state the answer must match
    status: int
    body: bytes
    seconds: float
    failure: str | None = None  # set by the checker


class Connection:
    """One keep-alive connection to a daemon."""

    def __init__(self, port: int) -> None:
        self._http = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def call(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes, float]:
        """One request; status 0 when the connection failed (it is then
        reopened for the next request)."""
        headers = {"Content-Type": "application/json"} if body is not None else {}
        start = time.perf_counter()
        try:
            self._http.request(method, path, body=body, headers=headers)
            response = self._http.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self._http.close()
            return 0, repr(exc).encode("utf-8"), time.perf_counter() - start
        return response.status, raw, time.perf_counter() - start

    def get_json(self, path: str) -> dict:
        _, raw, _ = self.call("GET", path)
        return json.loads(raw)

    def close(self) -> None:
        self._http.close()


def query_body(text: str) -> bytes:
    return json.dumps({"query": text}).encode("utf-8")


class Daemon:
    """A serving daemon in its own process, with default flags."""

    def __init__(self, store: Path, log: Path, spans: Path | None = None) -> None:
        if spans is None:
            command = [sys.executable, "-m", "repro", "serve", str(store)]
        else:
            command = [sys.executable, str(HERE / "traced_serve.py"), str(spans), str(store)]
        self.log = log
        self._log_handle = open(log, "w", encoding="utf-8")  # noqa: SIM115 - closed in stop()
        self.spawned_at = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=self._log_handle, stderr=subprocess.STDOUT,
            env=program_env(), cwd=ROOT,
        )
        self.port: int | None = None

    def wait_ready(self, timeout: float = 170.0) -> float:
        """Block until ``/readyz`` answers 200; returns that instant."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited early:\n{self.log.read_text()}")
            if self.port is None:
                match = _PORT_LINE.search(self.log.read_text())
                if match:
                    self.port = int(match.group(1))
            if self.port is not None:
                probe = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                try:
                    probe.request("GET", "/readyz")
                    if probe.getresponse().status == 200:
                        return time.perf_counter()
                except OSError:
                    pass
                finally:
                    probe.close()
            time.sleep(0.005)
        raise RuntimeError("daemon did not become ready in time")

    def peak_rss_mb(self) -> float:
        """The daemon's ``VmHWM`` so far, in MB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        kilobytes = int(re.search(r"VmHWM:\s+(\d+)", status).group(1))
        return kilobytes / 1024.0

    def stop(self) -> int:
        """SIGTERM (the graceful drain) and wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log_handle.close()
        return self.process.returncode


def drive_reads(port: int, stream: list[str], start: int, seconds: float,
                connections: int = 2) -> tuple[list[Op], float, int]:
    """Closed loop: each connection sends the next query of ``stream``
    (from index ``start``) as soon as its previous answer is in, until
    ``seconds`` have passed or the stream ends.  Returns the ops, the
    wall time and the stream index the next loop should start from."""
    counter = itertools.count(start)
    per_connection: list[list[Op]] = [[] for _ in range(connections)]
    deadline = time.perf_counter() + seconds

    def loop(ops: list[Op]) -> None:
        connection = Connection(port)
        try:
            while time.perf_counter() < deadline:
                index = next(counter)
                if index >= len(stream):
                    break
                status, raw, elapsed = connection.call("POST", "/query", query_body(stream[index]))
                ops.append(Op("query", stream[index], None, status, raw, elapsed))
        finally:
            connection.close()

    threads = [threading.Thread(target=loop, args=(ops,)) for ops in per_connection]
    began = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - began
    ops = [op for ops in per_connection for op in ops]
    return ops, wall, start + len(ops)


def drive_updates(port: int, edges: list, pool: list[str], first_round: int,
                  reads_per_half: int, *, rounds: int | None = None,
                  seconds: float | None = None) -> tuple[list[Op], float, int]:
    """Whole rounds on one connection: insert an edge, read, delete the
    same edge, read.  Runs ``rounds`` rounds, or as many as start within
    ``seconds``.  A read after the insert must match the mirror graph
    plus that edge (state = the edge); after the delete, the base graph
    (state = ``None``).  Returns the ops, the wall time and the next
    round number."""
    connection = Connection(port)
    ops: list[Op] = []
    deadline = None if seconds is None else time.perf_counter() + seconds
    began = time.perf_counter()
    number = first_round
    position = first_round * 2 * reads_per_half
    try:
        while (rounds is None or number < first_round + rounds) and (
            deadline is None or time.perf_counter() < deadline
        ):
            edge = tuple(edges[number % len(edges)])
            for change, state in (("add_edges", edge), ("remove_edges", None)):
                body = json.dumps({change: [edge]}).encode("utf-8")
                status, raw, elapsed = connection.call("POST", "/update", body)
                ops.append(Op("update", change, None, status, raw, elapsed))
                for _ in range(reads_per_half):
                    text = pool[position % len(pool)]
                    position += 1
                    status, raw, elapsed = connection.call("POST", "/query", query_body(text))
                    ops.append(Op("query", text, state, status, raw, elapsed))
            number += 1
    finally:
        connection.close()
    return ops, time.perf_counter() - began, number

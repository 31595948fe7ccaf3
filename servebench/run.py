"""The repository benchmark: ``repro serve`` on a paper-shaped CPQx index.

Usage (from the repository root)::

    python3 servebench/run.py --workload serve-distinct --seed 1 --seconds 16 --trace 0

For each run it makes the graph and the queries from ``--seed``
(:mod:`inputs`), builds a CPQx index through ``GraphDatabase`` and saves
it as an ``.rsx`` store in a fresh process (:mod:`build_store`), starts
``repro serve`` on the store with default flags, drives it over HTTP
(:mod:`client`) and checks every answer against the independent
oracle (:mod:`oracle`).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  Set-up is repeated
:data:`SETUPS` times and the traffic is split evenly over the daemons
those set-ups start, so every figure pools more than one fresh process.
``--trace 1`` reports the per-layer metrics instead: one traced build,
one untraced daemon as the baseline, then one traced daemon on the same
traffic (:mod:`layers`).  See ``servebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from client import Connection, Daemon, Op, drive_reads, drive_updates, program_env  # noqa: E402
from inputs import (  # noqa: E402
    SERVE_GRAPH,
    UPDATE_GRAPH,
    GraphSpec,
    community_triples,
    round_robin,
    stratified_pool,
    template_instances,
    update_edges,
    zipf_stream,
)
from oracle import Oracle, matches  # noqa: E402

#: Set-ups per untraced run; each builds, saves and starts a daemon, and
#: each daemon serves an equal share of the run's traffic.
SETUPS = 2
#: Insert/delete rounds each serve-* daemon gets after its read traffic.
PROBE_ROUNDS = 8
#: Queries after each update of an ``update-mix`` round.
UPDATE_READS = 8
#: Queries in the pool that ``serve-hot`` requests and updates read.
POOL = 36
#: Keep-alive connections of the read loops.
CONNECTIONS = 2


@dataclass(frozen=True)
class Workload:
    graph: GraphSpec
    #: Percentile reported as ``query_tail_ms``: the highest one with at
    #: least ten samples beyond it at the sample counts of a 16 s run.
    tail: float


WORKLOADS = {
    "serve-distinct": Workload(SERVE_GRAPH, tail=99.0),
    "serve-hot": Workload(SERVE_GRAPH, tail=99.0),
    "update-mix": Workload(UPDATE_GRAPH, tail=90.0),
}


@dataclass
class Inputs:
    triples: list
    warmup: list[str]
    stream: list[str]
    pool: list[str]
    edges: list


def make_inputs(name: str, seed: int) -> Inputs:
    spec = WORKLOADS[name].graph
    triples = community_triples(spec, seed)
    oracle = Oracle(triples, spec.vertices)
    pool = stratified_pool(triples, seed, POOL, lambda text: len(oracle.codes(text)))
    if name == "serve-distinct":
        warmup = round_robin(template_instances(triples, seed, 2, tag="warmup"), 2)
        stream = round_robin(template_instances(triples, seed, 150, tag="distinct"), 1000)
    elif name == "serve-hot":
        warmup, stream = list(pool), zipf_stream(pool, seed, 50_000)
    else:
        warmup, stream = pool[:8], []
    return Inputs(triples, warmup, stream, pool, update_edges(triples, seed, 40, spec.k - 1))


# ---------------------------------------------------------------------------
# one daemon's share of the traffic
# ---------------------------------------------------------------------------


@dataclass
class Slice:
    """What one daemon served."""

    warmup: list[Op] = field(default_factory=list)
    reads: list[Op] = field(default_factory=list)
    updates: list[Op] = field(default_factory=list)  # with their checked reads
    read_wall: float = 0.0
    #: Monotonic-clock spans of the reads (warm-up included) and of the
    #: updates; for ``update-mix`` both are the whole traffic.
    read_window: tuple[float, float] = (0.0, 0.0)
    update_window: tuple[float, float] = (0.0, 0.0)
    stats: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    exit_code: int | None = None


@dataclass
class Cursor:
    """Where the next daemon picks up the seeded streams."""

    stream: int = 0
    rounds: int = 0


def serve_slice(daemon: Daemon, name: str, inputs: Inputs, seconds: float, cursor: Cursor) -> Slice:
    served = Slice()
    port = daemon.port
    began = time.perf_counter()
    served.warmup, _, _ = drive_reads(port, inputs.warmup, 0, 600.0, CONNECTIONS)
    if name == "update-mix":
        served.updates, served.read_wall, cursor.rounds = drive_updates(
            port, inputs.edges, inputs.pool, cursor.rounds, UPDATE_READS, seconds=seconds
        )
        served.read_window = served.update_window = (began, time.perf_counter())
    else:
        served.reads, served.read_wall, cursor.stream = drive_reads(
            port, inputs.stream, cursor.stream, seconds, CONNECTIONS
        )
        served.read_window = (began, time.perf_counter())
        served.updates, _, cursor.rounds = drive_updates(
            port, inputs.edges, inputs.pool, cursor.rounds, 1, rounds=PROBE_ROUNDS
        )
        served.update_window = (served.read_window[1], time.perf_counter())
    served.peak_rss_mb = daemon.peak_rss_mb()
    connection = Connection(port)
    served.stats = connection.get_json("/stats")
    connection.close()
    return served


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------


def failure_kind(op: Op) -> str | None:
    if op.status == 200:
        return None
    if op.status == 0:
        return "connection"
    if op.status == 503:
        try:
            return "shed" if json.loads(op.body).get("error") == "overloaded" else "unavailable"
        except ValueError:
            return "unavailable"
    if op.status == 504:
        return "deadline"
    return "server_error" if op.status >= 500 else f"http_{op.status}"


def check(ops: list[Op], triples: list, num_vertices: int) -> Counter:
    """Mark every op that failed or answered wrongly; count by kind."""
    oracles: dict = {}
    verdicts: dict = {}
    failures: Counter = Counter()
    for op in ops:
        kind = failure_kind(op)
        if kind is None and op.kind == "query":
            key = (op.state, op.text, op.body)
            if key not in verdicts:
                oracle = oracles.get(op.state)
                if oracle is None:
                    graph = triples if op.state is None else [*triples, op.state]
                    oracle = oracles[op.state] = Oracle(graph, num_vertices)
                rows = json.loads(op.body)["answers"]
                verdicts[key] = matches(rows, oracle.codes(op.text), num_vertices)
            kind = None if verdicts[key] else "wrong_answer"
        op.failure = kind
        if kind is not None:
            failures[kind] += 1
    return failures


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def build_store(triples_path: Path, store: Path, k: int, spans: Path | None = None) -> None:
    command = [sys.executable, str(HERE / "build_store.py"), str(triples_path), str(store), str(k)]
    if spans is not None:
        command.append(str(spans))
    subprocess.run(command, check=True, env=program_env(), cwd=ROOT, timeout=170)


def write_triples(triples: list, path: Path) -> None:
    path.write_text("".join(f"{s}\t{t}\t{label}\n" for s, t, label in triples))


def host_stamp(stats: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "kernels": stats.get("index", {}).get("kernels"),
    }


def emit(report: dict, failures: Counter, metrics: dict[str, tuple[float, str]]) -> None:
    """Print the run report, then the result line (always the last line)."""
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": not failures,
        "attempted": report["attempted"],
        "failed": sum(failures.values()),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def client_vs_daemon(served: Slice) -> dict:
    """One daemon's latency window from ``/stats`` beside the client's
    view of the same queries (warm-up, reads and probe reads)."""
    seconds = [op.seconds for op in (*served.warmup, *served.reads, *served.updates)
               if op.kind == "query"]
    return {
        "client_queries": len(seconds),
        "client_p50_ms": 1000 * statistics.median(seconds),
        "client_p99_ms": 1000 * percentile(seconds, 99),
        "daemon_latency": served.stats.get("latency"),
        "daemon_batches": served.stats.get("batches"),
        "daemon_exit_code": served.exit_code,
    }


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def run_untraced(name: str, seed: int, seconds: float, work: Path) -> int:
    workload = WORKLOADS[name]
    inputs = make_inputs(name, seed)
    triples_path, store = work / "triples.tsv", work / "index.rsx"
    write_triples(inputs.triples, triples_path)
    cursor = Cursor()
    slices: list[Slice] = []
    setup, ready = [], []
    for number in range(SETUPS):
        began = time.perf_counter()
        build_store(triples_path, store, workload.graph.k)
        daemon = Daemon(store, work / f"daemon{number}.log")
        try:
            ready_at = daemon.wait_ready()
            setup.append(ready_at - began)
            ready.append(ready_at - daemon.spawned_at)
            served = serve_slice(daemon, name, inputs, seconds / SETUPS, cursor)
        finally:
            code = daemon.stop()
        served.exit_code = code
        slices.append(served)

    ops = [op for served in slices for op in (*served.warmup, *served.reads, *served.updates)]
    failures = check(ops, inputs.triples, workload.graph.vertices)
    measured = [op for served in slices for op in (*served.reads, *served.updates)]
    queries = [op.seconds for op in measured if op.kind == "query" and op.failure is None]
    updates = [op.seconds for op in measured if op.kind == "update" and op.failure is None]
    read_ops = [op for served in slices for op in served.reads] if name != "update-mix" else measured
    wall = sum(served.read_wall for served in slices)
    if not queries or not updates:
        raise RuntimeError("no successful queries or updates were measured")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ready_s": (statistics.median(ready), "s"),
        "query_p50_ms": (1000 * statistics.median(queries), "ms"),
        "query_tail_ms": (1000 * percentile(queries, workload.tail), "ms"),
        "ops_per_s": (sum(op.failure is None for op in read_ops) / wall, "1/s"),
        "update_p50_ms": (1000 * statistics.median(updates), "ms"),
        "index_bytes": (store.stat().st_size, "bytes"),
        "peak_rss_mb": (statistics.median(s.peak_rss_mb for s in slices), "MB"),
    }
    report = {
        "workload": name,
        "seed": seed,
        "host": host_stamp(slices[-1].stats),
        "attempted": len(ops),
        "failures": dict(failures),
        "setup_s": setup,
        "ready_s": ready,
        "queries_measured": len(queries),
        "query_tail_percentile": workload.tail,
        "samples_beyond_tail": sum(v > percentile(queries, workload.tail) for v in queries),
        "query_percentiles_ms": {p: 1000 * percentile(queries, p) for p in (90, 95, 98, 99)},
        "updates_measured": len(updates),
        "daemons": [client_vs_daemon(served) for served in slices],
    }
    emit(report, failures, metrics)
    return 0


def run_traced(name: str, seed: int, seconds: float, work: Path) -> int:
    from layers import per_layer_metrics

    workload = WORKLOADS[name]
    inputs = make_inputs(name, seed)
    triples_path, store = work / "triples.tsv", work / "index.rsx"
    write_triples(inputs.triples, triples_path)
    build_spans, serve_spans = work / "build-spans.json", work / "serve-spans.json"
    build_store(triples_path, store, workload.graph.k, build_spans)
    slices = []
    for spans in (None, serve_spans):  # the untraced baseline, then traced
        daemon = Daemon(store, work / f"daemon-{'traced' if spans else 'plain'}.log", spans)
        try:
            daemon.wait_ready()
            served = serve_slice(daemon, name, inputs, seconds, Cursor())
        finally:
            code = daemon.stop()
        served.exit_code = code
        slices.append(served)
    ops = [op for served in slices for op in (*served.warmup, *served.reads, *served.updates)]
    failures = check(ops, inputs.triples, workload.graph.vertices)
    metrics = per_layer_metrics(
        json.loads(build_spans.read_text()),
        json.loads(serve_spans.read_text()),
        baseline=slices[0],
        traced=slices[1],
        bytes_written=store.stat().st_size,
    )
    report = {
        "workload": name,
        "seed": seed,
        "host": host_stamp(slices[-1].stats),
        "attempted": len(ops),
        "failures": dict(failures),
        "daemons": [client_vs_daemon(served) for served in slices],
    }
    emit(report, failures, metrics)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so the daemons are stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is not at {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = run_traced if args.trace else run_untraced
        return runner(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

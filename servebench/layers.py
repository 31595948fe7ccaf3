"""Per-layer metrics of a traced run, computed from its spans.

Inputs are the span rows of the traced build (:func:`tracing.install_build`)
and of the traced daemon (:func:`tracing.install_serve`), plus the client
side of the traced traffic and of the untraced baseline that ran the same
traffic just before.  Span clocks and client clocks are both
``CLOCK_MONOTONIC``, so daemon spans are matched to the client's traffic
windows directly.

Read-path layers are averaged over the read window (the warm-up, which
is where ``serve-hot`` fills its cache, and then for ``serve-*`` the read
traffic, for ``update-mix`` the whole mix); update-path layers over the
update window (for ``serve-*`` the insert/delete probe after the reads).  Every figure is a mean per request, per batch, per evaluation
or per update, as its name in ``README.md`` says.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

#: The kernel primitives the read path reaches (see ``tracing.install_serve``).
KERNELS = ("compose", "concat_sorted")


class Spans:
    """Span rows ``[name, start, end, parent, value]`` with self times."""

    def __init__(self, rows: list) -> None:
        self.rows = rows
        self.children: dict[int, list[int]] = defaultdict(list)
        for row, (_, _, _, parent, _) in enumerate(rows):
            if parent is not None:
                self.children[parent].append(row)

    def pick(self, name: str, window: tuple[float, float] | None = None) -> list[int]:
        return [
            row for row, (span, start, _, _, _) in enumerate(self.rows)
            if span == name and (window is None or window[0] <= start <= window[1])
        ]

    def duration(self, row: int) -> float:
        return self.rows[row][2] - self.rows[row][1]

    def total(self, rows: list[int]) -> float:
        return sum(self.duration(row) for row in rows)

    def self_time(self, row: int) -> float:
        """Duration minus the union of the children's intervals."""
        start, end = self.rows[row][1], self.rows[row][2]
        covered, reach = 0.0, start
        for child_start, child_end in sorted(
            (self.rows[child][1], self.rows[child][2]) for child in self.children[row]
        ):
            child_start, child_end = max(child_start, reach), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        return (end - start) - covered

    def under(self, row: int, ancestor: str) -> bool:
        parent = self.rows[row][3]
        while parent is not None:
            if self.rows[parent][0] == ancestor:
                return True
            parent = self.rows[parent][3]
        return False


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def _read_latencies(served) -> list[float]:
    """Client latencies of the reads in the read window: the warm-up and
    the read traffic of ``serve-*``, the warm-up and the reads of the
    ``update-mix`` rounds."""
    ops = (*served.warmup, *(served.reads or served.updates))
    return [op.seconds for op in ops if op.kind == "query" and op.failure is None]


def per_layer_metrics(build_rows: list, serve_rows: list, baseline, traced,
                      bytes_written: int) -> dict[str, tuple[float, str]]:
    """``name -> (value, unit)`` for every per-layer metric."""
    build, serve = Spans(build_rows), Spans(serve_rows)
    reads, updates = traced.read_window, traced.update_window
    metrics: dict[str, tuple[float, str]] = {}

    def ms(seconds: float) -> float:
        return 1000.0 * seconds

    # --- serve.daemon: the HTTP front, admission and coalescing ---------
    routes = [row for row in serve.pick("daemon.route", reads) if serve.rows[row][4] == "/query"]
    requests = len(routes)
    writes = [row for row in serve.pick("daemon.write", reads) if serve.rows[row][4]]
    batches = serve.pick("daemon.batch", reads)
    waits = [wait for row in batches for wait in serve.rows[row][4]]
    encodes = serve.pick("daemon.encode", reads)
    request_ms = ms(_per(serve.total(routes) + serve.total(writes), requests))
    client, plain = _read_latencies(traced), _read_latencies(baseline)
    metrics["daemon.request_ms"] = (request_ms, "ms")
    metrics["daemon.transport_ms"] = (ms(statistics.fmean(client)) - request_ms, "ms")
    metrics["daemon.batch_wait_ms"] = (ms(_per(sum(waits), len(waits))), "ms")
    metrics["daemon.batch_size"] = (_per(len(waits), len(batches)), "count")
    metrics["daemon.encode_ms"] = (ms(_per(serve.total(encodes) + serve.total(writes), requests)),
                                   "ms")

    # --- db, query, plan, core.executor, core.kernels --------------------
    served = serve.pick("db.serve_batch", reads)
    evaluations = serve.pick("executor.evaluate", reads)
    misses = serve.pick("executor.execute_plan", reads)
    count = len(evaluations)
    metrics["db.dispatch_ms"] = (ms(_per(sum(map(serve.self_time, served)), len(served))), "ms")
    metrics["query.parse_ms"] = (ms(_per(serve.total(serve.pick("query.parse", reads)), requests)),
                                 "ms")
    metrics["plan.plan_ms"] = (ms(_per(serve.total(serve.pick("plan.build_plan", reads)), count)),
                               "ms")
    metrics["executor.eval_ms"] = (
        ms(_per(sum(map(serve.self_time, evaluations + misses)), count)), "ms")
    metrics["executor.evaluations"] = (count, "count")
    metrics["executor.result_cache_hit_rate"] = (_per(count - len(misses), count), "ratio")
    counters = [serve.rows[row][4] for row in evaluations if serve.rows[row][4] is not None]
    for position, name in enumerate(("lookups", "joins", "classes_touched", "pairs_touched")):
        metrics[f"executor.{name}"] = (
            _per(sum(counter[position] for counter in counters), len(counters)), "count")
    for primitive in KERNELS:
        calls = [row for row in serve.pick(f"kernel.{primitive}", reads)
                 if serve.under(row, "executor.evaluate")]
        metrics[f"kernels.{primitive}.calls"] = (_per(len(calls), count), "count")
        metrics[f"kernels.{primitive}.ms"] = (ms(_per(serve.total(calls), count)), "ms")
        metrics[f"kernels.{primitive}.bytes"] = (
            _per(sum(serve.rows[row][4] for row in calls), count), "bytes")

    # --- db updates, core.maintenance ------------------------------------
    applied = serve.pick("db.update", updates)
    number = len(applied)
    affected = serve.pick("maintenance.affected", updates)
    metrics["db.update_ms"] = (ms(_per(serve.total(applied), number)), "ms")
    metrics["maintenance.affected_pairs"] = (
        _per(sum(serve.rows[row][4] for row in affected), number), "count")
    metrics["maintenance.lsk_ms"] = (
        ms(_per(serve.total(serve.pick("maintenance.lsk", updates)), number)), "ms")
    metrics["maintenance.reclassify_ms"] = (
        ms(_per(sum(map(serve.self_time, serve.pick("maintenance.reclassify", updates))), number)),
        "ms")
    metrics["maintenance.classes_created"] = (
        _per(len(serve.pick("maintenance.create_class", updates)), number), "count")

    # --- build and store -------------------------------------------------
    metrics["partition.partition_s"] = (build.total(build.pick("partition.partition")), "s")
    metrics["paths.enumerate_s"] = (build.total(build.pick("paths.enumerate")), "s")
    metrics["cpqx.build_s"] = (build.total(build.pick("cpqx.build")), "s")
    metrics["store.write_s"] = (build.total(build.pick("store.write")), "s")
    metrics["store.bytes_written"] = (bytes_written, "bytes")
    metrics["store.open_s"] = (serve.total(serve.pick("store.open")), "s")

    # --- the trace itself --------------------------------------------------
    # Per request, the named layers on its path: parse, the wait for its
    # batch, its batch's serve_batch and encoding, and its response write.
    accounted = serve.total(serve.pick("query.parse", reads)) + serve.total(writes) + sum(waits)
    for row in batches:
        start, end = serve.rows[row][1], serve.rows[row][2]
        inside = (serve.total(serve.pick("db.serve_batch", (start, end)))
                  + serve.total(serve.pick("daemon.encode", (start, end))))
        accounted += len(serve.rows[row][4]) * inside
    metrics["trace.overhead_ms"] = (ms(statistics.median(client) - statistics.median(plain)), "ms")
    metrics["trace.accounted_ms"] = (ms(_per(accounted, requests)), "ms")
    metrics["trace.accounted_share"] = (_per(accounted, requests) / statistics.fmean(client),
                                        "ratio")
    return metrics

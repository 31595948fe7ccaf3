"""Span recording for the traced run, from outside the program.

The program under test carries no spans of its own yet, so the traced
run wraps the public functions at each layer boundary (and a few
module-level helpers where a count is only visible there) and records
one span per call: name, start, end, parent span and an optional
value.  Spans stay in memory and are written out once, when the
process ends.

Synchronous calls nest through a per-thread stack, so a span's parent
is the innermost open span of its thread.  Evaluations run on the
serving thread pool, not on the thread that called ``serve_batch``;
they adopt the open ``serve_batch`` span as their parent (the daemon
has one batch in flight at a time).  Coroutines are recorded as root
spans without a parent, since they interleave on the event loop.

Self time is a span's duration minus the part of it that its children
cover.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from pathlib import Path

# A span record: [name, start, end, parent record or None, value].
Span = list


class Tracer:
    """Collects span records from every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        #: The open span that spans started on a thread with an empty
        #: stack adopt as parent, when they were wrapped with ``adopt``.
        self.adoptive_parent: Span | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, *, value=None, adopt=False,
             adoptive=False) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``value(args, kwargs, result)`` computes the span's value;
        ``adopt`` takes :attr:`adoptive_parent` on an empty stack;
        ``adoptive`` makes the span that parent while it is open.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (tracer.adoptive_parent if adopt else None)
            record: Span = [name, time.perf_counter(), 0.0, parent, None]
            stack.append(record)
            if adoptive:
                tracer.adoptive_parent = record
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                if adoptive:
                    tracer.adoptive_parent = None
                tracer.spans.append(record)
            if value is not None:
                record[4] = value(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def wrap_async(self, owner, attr: str, name: str, *, value=None) -> None:
        """Replace the coroutine function ``owner.attr`` by a recording
        one; ``value(args)`` is computed when the call starts."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            record: Span = [name, time.perf_counter(), 0.0, None, None]
            if value is not None:
                record[4] = value(args)
            try:
                return await original(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer.spans.append(record)

        setattr(owner, attr, wrapper)

    def dump(self, path: str | Path) -> None:
        """Write every finished span as ``[name, start, end, parent, value]``
        rows, parents given as row indices."""
        spans = list(self.spans)
        index = {id(record): row for row, record in enumerate(spans)}
        rows = [
            [name, start, end, None if parent is None else index.get(id(parent)), value]
            for name, start, end, parent, value in spans
        ]
        Path(path).write_text(json.dumps(rows))


def _column_bytes(args, kwargs, result) -> int:
    """Bytes a kernel read and wrote: 8 per pair code in and out."""
    return 8 * (len(args[0]) + len(args[1]) + len(result))


def _table3(args, kwargs, result) -> list[int] | None:
    """One evaluation's operator counters (the paper's Table III)."""
    stats = kwargs.get("stats")
    if stats is None:
        return None
    return [stats.lookups, stats.joins, stats.classes_touched, stats.pairs_touched]


def install_build(tracer: Tracer) -> None:
    """Spans around index construction and the store write."""
    import repro.core.cpqx as cpqx
    import repro.core.parallel as parallel
    import repro.store as store
    from repro.db.registry import EngineSpec

    tracer.wrap(EngineSpec, "build", "cpqx.build")
    tracer.wrap(cpqx, "compute_partition_codes", "partition.partition")
    tracer.wrap(parallel, "sequence_targets_from_source", "paths.enumerate")
    tracer.wrap(store, "write_store", "store.write")


def install_serve(tracer: Tracer) -> None:
    """Spans along the daemon's read and update paths and the store open."""
    import repro.core.executor as executor
    import repro.core.kernels as kernels
    import repro.core.maintenance as maintenance
    import repro.db.session as session
    import repro.serve.daemon.batching as batching
    import repro.serve.daemon.http as http
    import repro.store.reader as reader

    tracer.wrap(reader, "open_store", "store.open")
    # HTTP front: one route span per request, one write per response.
    tracer.wrap_async(http, "_route", "daemon.route", value=lambda args: args[2])
    tracer.wrap(
        http, "_write_response", "daemon.write",
        value=lambda args, kwargs, result: "answers" in args[2],
    )
    # Coalescing: batch size and each member's wait since admission.
    tracer.wrap_async(
        batching, "serve_requests", "daemon.batch",
        value=lambda args: [time.monotonic() - request.enqueued_at for request in args[1]],
    )
    tracer.wrap(batching, "encode_answers", "daemon.encode")
    tracer.wrap(session, "parse", "query.parse")
    tracer.wrap(session.GraphDatabase, "serve_batch", "db.serve_batch", adoptive=True)
    tracer.wrap(session.GraphDatabase, "update", "db.update")
    tracer.wrap(executor.EngineBase, "evaluate", "executor.evaluate", value=_table3, adopt=True)
    tracer.wrap(executor, "execute_plan", "executor.execute_plan")
    tracer.wrap(executor, "build_plan", "plan.build_plan")
    # The two primitives the read path reaches: every conjunction of the
    # paper's templates is class-level at k >= 2, so intersect, union
    # and difference never run while serving these workloads.
    tracer.wrap(kernels, "compose", "kernel.compose", value=_column_bytes)
    tracer.wrap(
        kernels, "concat_sorted", "kernel.concat_sorted",
        value=lambda args, kwargs, result: 16 * sum(len(column) for column in args[0]),
    )
    tracer.wrap(
        maintenance, "affected_pairs", "maintenance.affected",
        value=lambda args, kwargs, result: len(result),
    )
    tracer.wrap(maintenance, "reclassify", "maintenance.reclassify")
    tracer.wrap(maintenance, "label_sequences_for_pair", "maintenance.lsk")
    tracer.wrap(maintenance, "_create_class", "maintenance.create_class")

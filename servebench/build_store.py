"""Build a CPQx index from a triples file and save it as an ``.rsx`` store.

Usage: ``python3 servebench/build_store.py TRIPLES.tsv OUT.rsx K [SPANS.json]``
with ``src`` on ``PYTHONPATH``.  Goes through the public
``GraphDatabase`` API only.  With a fourth argument the build and the
store write are traced (``tracing.install_build``) and the spans are
written there.
"""

from __future__ import annotations

import sys

from tracing import Tracer, install_build


def main(argv: list[str]) -> int:
    triples_path, store_path, k = argv[0], argv[1], int(argv[2])
    tracer = None
    if len(argv) > 3:
        tracer = Tracer()
        install_build(tracer)
    from repro import GraphDatabase

    with open(triples_path, encoding="utf-8") as handle:
        rows = [line.split("\t") for line in handle.read().splitlines()]
    triples = [(int(source), int(target), label) for source, target, label in rows]
    db = GraphDatabase.from_triples(triples, labels=sorted({label for _, _, label in triples}))
    db.build_index(engine="cpqx", k=k)
    db.save(store_path, format="store")
    if tracer is not None:
        tracer.dump(argv[3])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Run ``repro serve STORE`` with the serving-path spans installed.

Usage: ``python3 servebench/traced_serve.py SPANS.json STORE.rsx`` with
``src`` on ``PYTHONPATH``.  The daemon runs with its default flags;
when it has drained (SIGTERM or ``POST /shutdown``) the spans are
written to ``SPANS.json``.
"""

from __future__ import annotations

import sys

from tracing import Tracer, install_serve


def main(argv: list[str]) -> int:
    spans_path, store_path = argv
    tracer = Tracer()
    install_serve(tracer)
    from repro.cli import main as repro_main

    code = repro_main(["serve", store_path])
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Run ``repro serve`` with the benchmark's tracing wrappers installed.

    python3 perfbench/serve_traced.py TRACE.json serve --durable-dir D ...

Installs :func:`perfbench.tracing.install_server`, calls the CLI's
``main`` with the remaining arguments, and writes the spans to
``TRACE.json`` once the server has exited.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    sys.path[0] = ROOT
    sys.path.insert(1, os.path.join(ROOT, "src"))
    from repro.cli import main as cli_main

    from perfbench.tracing import Tracer, install_server

    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install_server(tracer)
    try:
        return cli_main(argv)
    finally:
        tracer.uninstall()
        estimator = getattr(tracer.session, "estimator", None)
        tracer.dump(
            trace_path,
            total_work=getattr(estimator, "total_work", None),
        )


if __name__ == "__main__":
    sys.exit(main())

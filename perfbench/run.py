#!/usr/bin/env python3
"""Run one benchmark workload; print a report and a JSON result line.

    python3 perfbench/run.py --workload abacus-sparse --seed 1 \\
        --seconds 26 --trace 0

``--trace 0`` prints the end-to-end metrics, measured untraced.
``--trace 1`` runs the workload untraced and then traced for
``--seconds`` each and prints the per-layer metrics (see
``perfbench/README.md``).  The last stdout line is the JSON result; the
exit code is 1 when an output check fails and 2 when the run cannot
start (no ``src/`` to import).
"""

import argparse
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so the finally blocks still stop
    # the server child and remove the work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path[0] = ROOT
    sys.path.insert(1, os.path.join(ROOT, "src"))
    try:
        from perfbench import bench
    except ImportError as exc:
        print(
            f"error: cannot import the system under test: {exc}",
            file=sys.stderr,
        )
        return 2
    if args.workload not in bench.RUNNERS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from "
            + ", ".join(bench.RUNNERS)
        )
    return bench.run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

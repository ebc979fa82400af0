"""Peak-memory probe of one in-process round, in a clean child process.

    python3 perfbench/rss_probe.py SPEC STREAM.bin CHUNK

In the benchmark's own process the session's allocations land in heap
left free by stream generation and the reference run, so its ``VmHWM``
barely moves.  This child loads the stream from a compact file (one
buffer, unmapped once the elements exist), resets ``VmHWM`` through
``/proc/self/clear_refs`` just before ``open_session``, ingests every
chunk, and prints the growth in KiB as JSON.
"""

import json
import os
import sys
from array import array

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_stream(path, stream):
    """Store ``stream`` as int64 triples ``(u, v, is_deletion)``."""
    flat = array("q")
    for element in stream:
        flat.extend((element.u, element.v, 1 if element.is_deletion else 0))
    with open(path, "wb") as handle:
        flat.tofile(handle)


def main() -> int:
    sys.path[0] = ROOT
    sys.path.insert(1, os.path.join(ROOT, "src"))
    import gc

    from repro import deletion, insertion, open_session

    from perfbench.system import reset_peak_rss, rss_kib

    spec, path, chunk = sys.argv[1], sys.argv[2], int(sys.argv[3])
    flat = array("q")
    with open(path, "rb") as handle:
        flat.frombytes(handle.read())
    canonical = {}
    values = iter(flat)
    stream = [
        (deletion if op else insertion)(
            canonical.setdefault(u, u), canonical.setdefault(v, v)
        )
        for u, v, op in zip(values, values, values)
    ]
    chunks = [stream[i : i + chunk] for i in range(0, len(stream), chunk)]
    del flat, values
    gc.collect()
    base = reset_peak_rss()
    session = open_session(spec)
    for batch in chunks:
        session.ingest(batch)
    session.flush()
    growth = rss_kib("VmHWM") - base
    print(json.dumps({"growth_kib": growth, "estimate": session.estimate}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

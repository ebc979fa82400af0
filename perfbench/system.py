"""Process and host facts read from ``/proc`` and the interpreter."""

from __future__ import annotations

import os
import platform
import sys
from typing import Dict


def environment() -> Dict[str, object]:
    """What the numbers depend on besides the code."""
    from repro.sampling.ndadjacency import NUMPY_AVAILABLE

    cpus = placement()
    return {
        "numpy": NUMPY_AVAILABLE,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "switch_interval_s": sys.getswitchinterval(),
        "system_cpu": cpus["system"],
        "generator_cpu": cpus["generator"],
    }


def placement() -> Dict[str, int]:
    """The CPU for the process under test and the one for the generator.

    The system under test gets the highest allowed CPU to itself and the
    generator (with everything else on the host) the lowest; with one
    CPU they share it.  Left to the kernel, both sides of
    ``serve-durable`` were seen stacked on one CPU of two, which
    measures the scheduler rather than the server.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return {"system": cpus[-1], "generator": cpus[0]}


def pin(cpu: int) -> None:
    """Restrict the calling process to ``cpu``."""
    os.sched_setaffinity(0, {cpu})


def rss_kib(field: str, pid: str = "self") -> int:
    """A ``VmRSS``/``VmHWM``-style field of ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def reset_peak_rss() -> int:
    """Reset this process's ``VmHWM`` to its current RSS; return it."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")
    return rss_kib("VmRSS")


def cpu_and_switches(pid: int) -> Dict[str, float]:
    """User+system CPU seconds and non-voluntary context switches of
    every thread of ``pid``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    cpu_s = (int(fields[11]) + int(fields[12])) / ticks
    switches = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(
                f"/proc/{pid}/task/{task}/status", encoding="ascii"
            ) as handle:
                for line in handle:
                    if line.startswith("nonvoluntary_ctxt_switches:"):
                        switches += int(line.split()[1])
        except FileNotFoundError:  # the thread ended meanwhile
            continue
    return {"cpu_s": cpu_s, "nvcsw": switches}

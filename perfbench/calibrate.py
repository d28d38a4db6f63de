"""Machine-speed probe: a fixed pure-Python loop timed next to each measurement.

On a shared machine the speed of one core drifts by tens of percent over
minutes, which would swamp a change of a few percent in the program.  Every
measured time ``t`` is therefore reported as ``t * REFERENCE_S / probe``,
the time it would take on a machine where the probe takes ``REFERENCE_S``;
the program's own changes do not touch the probe.  The raw times are kept
in the run record.
"""

from __future__ import annotations

import os
import statistics
import time

#: The probe's time on the 2-core Xeon the reference figures were measured on.
REFERENCE_S = 0.004


def _loop() -> int:
    total = 0
    for i in range(60_000):
        total += i * i
    return total


def probe_seconds(repeats: int = 3) -> float:
    """Median time of ``repeats`` runs of the probe loop."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def parallel_probe_seconds(processes: int) -> float:
    """Mean probe time of ``processes`` forked copies run at once.

    An invocation whose work runs in a pool of worker processes depends on
    the speed of every core they run on, not only the caller's.
    """
    if processes == 1:
        return probe_seconds()
    children = []
    for _ in range(processes):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            os.write(write_fd, repr(probe_seconds()).encode("ascii"))
            os._exit(0)
        os.close(write_fd)
        children.append((pid, read_fd))
    times = []
    for pid, read_fd in children:
        os.waitpid(pid, 0)
        with os.fdopen(read_fd, "rb") as fh:
            times.append(float(fh.read()))
    return statistics.mean(times)


def normalized(seconds: float, probe: float) -> float:
    return seconds * REFERENCE_S / probe

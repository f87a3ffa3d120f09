"""Host speed: CPU cost of the program in reference seconds.

On a shared host the speed of a CPU drifts by tens of per cent within
seconds and over minutes (other tenants, frequency), so wall time, and
CPU time too, varies from run to run with the host and not with the
program.  This module factors that drift out:

* the whole benchmark is pinned to one CPU (:func:`pin_to_one_cpu`);
* a *reference process* runs a fixed pure-Python loop on that same CPU
  while a measured segment runs, so the two share the CPU in slices of
  a few milliseconds and see the same speed;
* the segment's cost is the CPU time of the program's process tree,
  divided by the reference's CPU time per loop and multiplied by
  :data:`NOMINAL_S`.  The result, in *reference seconds*, is the CPU
  time the segment would take on a host that runs one loop in
  ``NOMINAL_S``.

The reference loop imports nothing from the program, so no change to
the program moves it.  Run as a script, this file is the reference
process: ``python3 hostspeed.py <counter file> <parent pid>``.
"""

from __future__ import annotations

import mmap
import os
import resource
import signal
import struct
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

#: Time of one reference loop on a quiet 2-core x86-64 host under
#: CPython 3.11; it only fixes the scale of a reference second.
NOMINAL_S = 0.008

#: The reference's nice level: it takes about a quarter of the CPU from
#: one busy thread, in slices spread over the whole segment.
NICE = 5

_SIDE = 110
_NODES = _SIDE * _SIDE
_TABLE_SIZE = 300_000
_COUNTERS = struct.Struct("<dd")  # loops done, CPU seconds used
_CLOCK_TICK = os.sysconf("SC_CLK_TCK")


class ReferenceLoop:
    """The fixed work of one loop: a breadth-first search, a sort and
    list indexing over a grid that fits in cache, then lookups in
    scattered order in a dict too large for it.  The first part moves
    with the speed of the interpreter, the second with that of memory,
    as the program's own work does.  Built only in the reference
    process, so the benchmark's own process stays small."""

    def __init__(self) -> None:
        side, nodes = _SIDE, _NODES
        self.neighbours = [
            [n for n in (i - 1 if i % side else -1, i + 1 if (i + 1) % side else -1,
                         i - side, i + side) if 0 <= n < nodes]
            for i in range(nodes)
        ]
        self.distance = [-1] * nodes
        self.order = [(node * 7919) % 1009 for node in range(nodes)]
        self.table = {(i * 2654435761) % 4294967291: i for i in range(_TABLE_SIZE)}
        probes = list(self.table)[::20]
        self.probes = [probes[(i * 7919) % len(probes)] for i in range(len(probes))]

    def __call__(self) -> int:
        distance, neighbours = self.distance, self.neighbours
        distance[:] = [-1] * _NODES
        distance[0] = 0
        frontier = [0]
        while frontier:
            following = []
            for node in frontier:
                step = distance[node] + 1
                for neighbour in neighbours[node]:
                    if distance[neighbour] < 0:
                        distance[neighbour] = step
                        following.append(neighbour)
            frontier = following
        ranked = sorted(range(0, _NODES, 7), key=self.order.__getitem__)
        table = self.table
        return sum(distance[node] for node in ranked) + sum(table[key] for key in self.probes)


def pin_to_one_cpu() -> int:
    """Pin this process, and so every process it starts later, to the
    highest CPU it may use; returns that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _process_cpu_s(pid: int) -> float:
    """CPU time of ``pid`` and of its children it has reaped."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    # utime, stime, cutime, cstime are fields 14-17 of stat(5).
    return sum(int(value) for value in fields[11:15]) / _CLOCK_TICK


@dataclass
class Cost:
    """One measured segment."""

    wall_s: float
    cpu_s: float  #: CPU time of the program's process tree
    loop_s: float  #: the reference's CPU time per loop meanwhile

    @property
    def ref_s(self) -> float:
        """``cpu_s`` in reference seconds."""
        return self.cpu_s * NOMINAL_S / self.loop_s


class Reference:
    """The reference process, paused between measured segments."""

    #: A segment shorter than this many reference loops is too short
    #: to tell the host's speed.
    MIN_LOOPS = 20

    def __init__(self, scratch: Path) -> None:
        self.path = scratch / "hostspeed.counters"
        self.path.write_bytes(bytes(_COUNTERS.size))
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(self.path), str(os.getpid())],
            stdin=subprocess.DEVNULL,
        )
        self._file = open(self.path, "rb")
        self._view = mmap.mmap(self._file.fileno(), _COUNTERS.size, access=mmap.ACCESS_READ)
        while self._counters()[0] < 1:  # started and through its first loop
            time.sleep(0.01)
        self.process.send_signal(signal.SIGSTOP)

    def _counters(self) -> "tuple[float, float]":
        return _COUNTERS.unpack(self._view[:_COUNTERS.size])

    def tree_cpu_s(self) -> float:
        """CPU time used so far by this process and every descendant
        except the reference process."""
        from common import _process_tree

        own = resource.getrusage(resource.RUSAGE_SELF)
        reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
        total = own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime
        for pid in _process_tree(os.getpid())[1:]:
            if pid != self.process.pid:
                total += _process_cpu_s(pid)
        return total

    def measure(self, segment):
        """Run ``segment()`` with the reference running beside it.

        Returns (its result, its :class:`Cost`).
        """
        self.process.send_signal(signal.SIGCONT)
        try:
            loops0, ref0 = self._counters()
            cpu0, start = self.tree_cpu_s(), time.perf_counter()
            result = segment()
            wall, cpu1 = time.perf_counter() - start, self.tree_cpu_s()
            loops1, ref1 = self._counters()
            while loops1 - loops0 < self.MIN_LOOPS:
                time.sleep(0.005)
                loops1, ref1 = self._counters()
        finally:
            self.process.send_signal(signal.SIGSTOP)
        return result, Cost(wall, cpu1 - cpu0, (ref1 - ref0) / (loops1 - loops0))

    def close(self) -> None:
        self.process.send_signal(signal.SIGCONT)
        self.process.terminate()
        self.process.wait(timeout=30)
        self._view.close()
        self._file.close()


def _serve(path: str, parent: int) -> None:
    """The reference process: loop forever, publishing its counters.

    It is killed when ``parent`` ends, even while paused, so a benchmark
    that is killed leaves no reference process behind.
    """
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(1, signal.SIGKILL, 0, 0, 0)  # 1 = PR_SET_PDEATHSIG
    if os.getppid() != parent:  # the parent ended before prctl
        return
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    os.nice(NICE)
    reference_loop = ReferenceLoop()
    with open(path, "r+b") as handle:
        view = mmap.mmap(handle.fileno(), _COUNTERS.size)
        loops = 0
        while True:
            reference_loop()
            loops += 1
            view[:_COUNTERS.size] = _COUNTERS.pack(loops, time.process_time())


if __name__ == "__main__":
    _serve(sys.argv[1], int(sys.argv[2]))

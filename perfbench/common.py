"""Shared helpers: percentiles, memory sampling, run context and output."""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any


#: Set-up is repeated this many times per run; ``setup_s`` takes the median.
SETUP_REPEATS = 3

#: Processes that may outlive a service close: multiprocessing's
#: resource tracker and the benchmark's own host-speed reference.
SPARE = ("resource_tracker", "hostspeed.py")


def rounds_for(seconds: float, nominal_s: float) -> int:
    """How many rounds of ``nominal_s`` fill ``seconds`` (at least one).

    Fixed by the arguments, not by how fast rounds ran, so the work of a
    run, and the memory it takes, do not depend on the host's speed.
    """
    return max(1, round(seconds / nominal_s))


def median(values: "list[float]") -> float:
    return statistics.median(values) if values else 0.0


def tail(values: "list[float]") -> "tuple[float, str]":
    """The highest nearest-rank percentile with at least ten samples
    beyond it, and its label (``"p95 of n=240"``).

    With ten samples or fewer no percentile qualifies; the maximum is
    reported then, labelled as such.
    """
    n = len(values)
    if n == 0:
        return 0.0, "n=0"
    ordered = sorted(values)
    if n <= 10:
        return ordered[-1], f"max of n={n} (fewer than 11 samples)"
    percentile = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(percentile * n / 100))
    return ordered[rank - 1], f"p{percentile} of n={n}"


class MemorySampler:
    """Peak resident memory of this process plus all its descendants.

    A daemon thread sums ``VmRSS`` over the process tree every
    ``interval`` seconds (sparingly: it holds the interpreter lock that
    an in-process service under test needs too); the peak also takes
    this process's own high-water mark, so short spikes between samples
    still count for the parent.
    """

    def __init__(self, skip: "set[int]", interval: float = 0.25) -> None:
        self.skip = skip  #: processes of the benchmark itself, not counted
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="bench-rss", daemon=True)

    def start(self) -> "MemorySampler":
        self._thread.start()
        return self

    def stop(self) -> float:
        """Stop sampling and return the peak in MB."""
        self._stop.set()
        self._thread.join()
        self._sample()
        own_peak = _status_kb(os.getpid(), "VmHWM")
        return max(self.peak_kb, own_peak) / 1024.0

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def _sample(self) -> None:
        total = sum(_status_kb(pid, "VmRSS") for pid in _process_tree(os.getpid())
                    if pid not in self.skip)
        self.peak_kb = max(self.peak_kb, total)


def _status_kb(pid: int, field_name: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field_name + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def _process_tree(root: int) -> "list[int]":
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # The command name may contain spaces; ppid follows ')'.
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        parents.setdefault(ppid, []).append(int(entry))
    tree, stack = [], [root]
    while stack:
        pid = stack.pop()
        tree.append(pid)
        stack.extend(parents.get(pid, ()))
    return tree


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``).

    A pool worker whose parent was killed is re-parented to this process
    instead of init, so :func:`stop_descendants` still finds it.
    """
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(36, 1, 0, 0, 0) != 0:  # 36 = PR_SET_CHILD_SUBREAPER
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def stop_descendants(grace_s: float = 5.0, spare: "tuple[str, ...]" = ()) -> "list[str]":
    """Terminate every process still running under this one, except
    those whose command line contains one of ``spare``, and wait for
    each to end; returns the command lines of those stopped."""
    import signal

    def alive(pid: int) -> bool:
        try:
            os.waitpid(pid, os.WNOHANG)  # reaps it if it is our child
        except ChildProcessError:
            pass
        try:
            with open(f"/proc/{pid}/stat") as handle:
                return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
        except (OSError, IndexError):
            return False

    names = {}
    for pid in _process_tree(os.getpid())[1:]:
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                names[pid] = handle.read().replace(bytes(1), b" ").decode()[:120]
        except OSError:
            continue
    names = {pid: name for pid, name in names.items() if not any(s in name for s in spare)}
    found = list(names)
    # multiprocessing's resource tracker ignores SIGTERM; it only ends
    # when this process does, so it goes straight to SIGKILL.
    patient = [pid for pid in found if "resource_tracker" not in names.get(pid, "")]
    for sig, waited in ((signal.SIGTERM, patient), (signal.SIGKILL, found)):
        for pid in found:
            try:
                os.kill(pid, sig)
            except OSError:
                pass
        deadline = time.monotonic() + grace_s
        while any(alive(pid) for pid in waited) and time.monotonic() < deadline:
            time.sleep(0.05)
    return [f"{pid}: {name}" for pid, name in names.items()]


@dataclass
class RunContext:
    """What one benchmark invocation knows about itself."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    #: Costs (:class:`hostspeed.Cost`) of the interpreter start-ups.
    startup_s: list = field(default_factory=list)
    scratch: "Path | None" = None
    #: The :class:`hostspeed.Reference` that measured segments run beside.
    reference: "Any" = None

    @property
    def workers(self) -> int:
        return os.cpu_count() or 1

    def fresh_dir(self, name: str) -> Path:
        """A new empty directory under this run's scratch area."""
        assert self.scratch is not None
        path = self.scratch / name
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)
        return path


def machine_info(root: Path) -> dict:
    """Cores, Python version and the commit (when the tree is a checkout)."""
    commit = "unknown"
    if (root / ".git").exists() and shutil.which("git"):
        try:
            commit = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=10, check=False,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": commit,
    }


@dataclass
class Outcome:
    """A workload's result: metrics plus correctness accounting."""

    attempted: int = 0
    failed: int = 0
    problems: "list[str]" = field(default_factory=list)
    #: End-to-end values by name; their units are in BENCHMARK.json.
    metrics: "dict[str, float]" = field(default_factory=dict)
    #: Human-readable extras: metric name -> note (percentile label etc.).
    notes: "dict[str, str]" = field(default_factory=dict)
    #: Extra report lines (span table, ladder rungs).
    extra_lines: "list[str]" = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)

    def note_leftovers(self, names: "list[str]") -> None:
        """Record processes that outlived the program's close."""
        if names:
            earlier = self.notes.get("stopped_leftover_processes")
            self.notes["stopped_leftover_processes"] = "; ".join(filter(None, [earlier, *names]))

    def metric(self, name: str, value: float, note: str = "") -> None:
        self.metrics[name] = float(value)
        if note:
            self.notes[name] = note


def emit(outcome: Outcome, metrics: "dict[str, tuple[float, str]]", correct: bool) -> None:
    """Print the final JSON line: the result and ``metrics`` as measured."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(max(outcome.attempted, 1)),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    sys.stdout.flush()


def now() -> float:
    return time.perf_counter()

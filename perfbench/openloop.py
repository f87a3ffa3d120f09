"""Open-loop HTTP driver: sends a fixed request plan on its schedule.

One dispatcher thread releases each planned request at its due time,
whatever the state of earlier ones; ``connections`` sender threads (at
most ``nproc``) share one pooled :class:`ServiceClient`, so the program
never sees more than that many connections.  Latency runs from the due
time to the last byte of the result stream, so a stall also delays the
requests queued behind it; how late the dispatcher itself ran is
reported separately.  A plan whose requests are all due at once is a
closed loop: each sender sends its next request when its last has ended.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from dataclasses import dataclass, field

from pools import COLD, HIT, REFETCH, Request


@dataclass
class Result:
    request: Request
    latency_s: float = 0.0
    job_id: str = ""
    lines: "list[bytes]" = field(default_factory=list)
    error: str = ""


@dataclass
class PhaseResult:
    results: "list[Result]"
    lag_s: "list[float]"
    wall_s: float
    result_bytes: int

    def latencies(self, kind: "str | None" = None) -> "list[float]":
        """Latencies of one request kind; a failed request counts as
        missing every limit, so it reads as infinitely slow."""
        return [
            float("inf") if r.error else r.latency_s
            for r in self.results
            if kind is None or r.request.kind == kind
        ]


def run_phase(
    client: "object",
    plan: "list[Request]",
    connections: int,
    known: "dict[int, Result] | None" = None,
) -> PhaseResult:
    """Send ``plan`` on schedule; ``known`` resolves refetch targets that
    belong to an earlier phase."""
    by_index: "dict[int, Result]" = {}
    job_ready: "dict[int, threading.Event]" = {r.index: threading.Event() for r in plan}
    pending: "queue.Queue[tuple[Request, float] | None]" = queue.Queue()
    lags: list[float] = []
    received = [0]
    lock = threading.Lock()

    def job_id_of(index: int) -> str:
        if known is not None:
            return known[index].job_id
        job_ready[index].wait(timeout=120)
        return by_index[index].job_id

    def execute(request: Request, due: float) -> Result:
        result = Result(request)
        try:
            if request.kind in (COLD, HIT):
                receipt = client.submit(request.body)
                result.job_id = receipt["job_id"]
                by_index[request.index] = result
                job_ready[request.index].set()
            else:
                result.job_id = job_id_of(request.target)
            # _open yields the raw stream lines that the byte-parity
            # checks need; the public stream_results parses them.
            with client._open("GET", f"/v1/jobs/{result.job_id}/results") as response:
                lines = [raw.rstrip(b"\n") for raw in response if raw.strip()]
            result.latency_s = time.perf_counter() - due
            result.lines = lines
            with lock:
                received[0] += sum(len(line) + 1 for line in lines)
            end = json.loads(lines[-1]) if lines else {}
            if end.get("type") != "end" or end.get("status") != "done":
                result.error = f"stream ended with {end.get('status', 'nothing')}"
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            result.error = f"{type(exc).__name__}: {exc}"
            result.latency_s = time.perf_counter() - due
        finally:
            by_index.setdefault(request.index, result)
            job_ready[request.index].set()
        return result

    results: list[Result] = []

    def sender() -> None:
        while True:
            item = pending.get()
            if item is None:
                return
            outcome = execute(*item)
            with lock:
                results.append(outcome)

    threads = [
        threading.Thread(target=sender, name=f"bench-sender-{i}", daemon=True)
        for i in range(connections)
    ]
    for thread in threads:
        thread.start()
    start = time.perf_counter()
    for request in plan:
        due = start + request.due_s
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        lags.append(max(0.0, time.perf_counter() - due))
        pending.put((request, due))
    for _ in threads:
        pending.put(None)
    for thread in threads:
        thread.join(timeout=300)
    wall = time.perf_counter() - start
    results.sort(key=lambda r: r.request.index)
    return PhaseResult(results, lags, wall, received[0])


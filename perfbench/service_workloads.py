"""The HTTP workload ``service_mix``: one in-process service, and for the
traced run's fleet round the same traffic through ``make_fleet(size=2)``."""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from typing import Any, Callable

import check
import pools
from common import (
    SETUP_REPEATS, SPARE, Outcome, RunContext, median, now, rounds_for, stop_descendants,
    tail,
)
from openloop import PhaseResult, run_phase

#: The main phase: this many requests at this offered rate.
MAIN_RATE = 40.0
MAIN_REQUESTS = 200
#: The closed loop that gives the cost metrics: windows of this many
#: hits and refetches, sent back to back over one connection (so the
#: cost is the program's, not the generator's), each window beside the
#: host-speed reference.  A run makes as many windows as fill
#: ``--seconds`` at about ``WINDOW_S`` each.
CLOSED_WINDOW = 400
WINDOW_S = 2.0
#: Offered rates of the sustained-throughput ladder (a factor of two
#: apart, so the highest passing rung repeats between runs).
LADDER_RATES = (25.0, 50.0, 100.0, 200.0, 400.0, 800.0)
LADDER_REQUESTS = 40
#: A rung passes when its tail latency, and the median latency of its
#: last ten requests (a growing backlog), stay under this limit with no
#: failed request.
LATENCY_LIMIT_S = 0.1
HOP_PROBES = 20


@dataclass
class Target:
    """A booted service or fleet and how to stop it."""

    url: str
    close: Callable[[], None]
    cache_dir: Any
    router: Any = None

    def stop(self, outcome: Outcome) -> None:
        """Close the program, then stop any of its processes that outlived
        the close, so they cannot slow the next phase.  ``outcome`` notes
        them: the program should leave none."""
        self.close()
        outcome.note_leftovers(stop_descendants(spare=SPARE))


def _serve(server: Any, close_extra: Callable[[], None]) -> "tuple[str, Callable[[], None]]":
    thread = threading.Thread(target=server.serve_forever, name="bench-serve", daemon=True)
    thread.start()

    def close() -> None:
        server.shutdown()
        server.server_close()
        close_extra()
        thread.join(timeout=30)

    return server.url, close


def boot(ctx: RunContext, fleet: bool, name: str) -> Target:
    """Start the program with the ``repro serve`` defaults and a fresh
    cache directory, then warm every worker with one compilation."""
    from repro.runtime.manifest import jobs_from_manifest
    from repro.service.client import ServiceClient
    from repro.service.jobs import job_batch_id

    cache_dir = ctx.fresh_dir(name)
    if fleet:
        from repro.service.fleet import make_fleet

        server = make_fleet(host="127.0.0.1", port=0, size=2, cache_dir=cache_dir,
                            workers=2, slots=2)
        url, close = _serve(server, server.close)
        target = Target(url, close, cache_dir, server.router)
    else:
        from repro.service.server import make_server

        server = make_server(host="127.0.0.1", port=0, workers=2, slots=2, cache_dir=cache_dir)
        url, close = _serve(server, server.service.close)
        target = Target(url, close, cache_dir)
    shards: set = set()
    with ServiceClient(url, timeout=120) as client:
        for attempt in range(64):
            document = {"jobs": [pools.WARMUP_KEY.job("fm", f"warmup-{attempt}")]}
            if fleet:
                shard = target.router.shard_of(job_batch_id(jobs_from_manifest(document)))
                if shard in shards:
                    continue
                shards.add(shard)
            client.results(client.submit(document)["job_id"])
            if not fleet or len(shards) == 2:
                break
    return target


def _scrape(client: Any) -> "dict[str, float]":
    """Summed samples per metric family (label sets folded together)."""
    from repro.obs.metrics import parse_exposition

    sums: dict[str, float] = {}
    for name, family in parse_exposition(client.metrics()).items():
        for sample in family.samples:
            if name == "repro_cache_misses_total" and dict(sample.labels).get("tier") != "local":
                continue
            sums[name] = sums.get(name, 0.0) + sample.value
    return sums


def _check_generator(plan: "list[pools.Request]") -> None:
    """Every cold submit is a compile key new within the run; every hit
    reuses one."""
    from repro.runtime.manifest import jobs_from_manifest

    def fingerprint(body: bytes) -> str:
        return jobs_from_manifest(json.loads(body))[0].compile_fingerprint()

    seen = {fingerprint(json.dumps({"jobs": [pools.WARMUP_KEY.job()]}).encode())}
    for request in plan:
        if request.kind == pools.COLD:
            value = fingerprint(request.body)
            if value in seen:
                raise AssertionError(f"cold request {request.index} repeats a compile key")
            seen.add(value)
        elif request.kind == pools.HIT and fingerprint(request.body) not in seen:
            raise AssertionError(f"hit request {request.index} has no earlier cold key")


def _check_phase(
    outcome: Outcome,
    expected: dict,
    phase: PhaseResult,
    reference: "dict[int, bytes] | None",
    known: "dict[int, Any] | None" = None,
) -> "list[dict]":
    """Count failures and check every record; returns the cold records."""
    by_index = {r.request.index: r for r in phase.results}
    if known is not None:
        by_index = {**known, **by_index}
    cold_records = []
    for result in phase.results:
        request = result.request
        outcome.attempted += 1
        where = f"request {request.index} ({request.kind})"
        if result.error:
            outcome.fail(f"{where}: {result.error}")
            continue
        outcome_lines = result.lines[:-1]
        if request.kind == pools.REFETCH:
            original = (known or {}).get(request.target) or by_index.get(request.target)
            if original is None or original.lines[:-1] != outcome_lines:
                outcome.fail(f"{where}: refetched bytes differ from the first stream")
            continue
        payload = check.record_bytes(outcome_lines[0]) if len(outcome_lines) == 1 else None
        if payload is None:
            outcome.fail(f"{where}: expected one outcome line, got {len(outcome_lines)}")
            continue
        if reference is not None and reference.get(request.index) != payload:
            outcome.fail(f"{where}: record bytes differ from in-process run_batch")
            continue
        record = json.loads(payload)
        check.check_record(outcome, expected, request.key, record, where)
        if request.kind == pools.COLD:
            cold_records.append(record)
    return cold_records


def reference_records(ctx: RunContext) -> "dict[int, bytes]":
    """In-process ``run_batch`` record bytes for every submit of the
    main phase."""
    from repro.runtime.api import run_batch
    from repro.runtime.manifest import jobs_from_manifest

    submits = [r for r in _main_plan(ctx) if r.body is not None]
    jobs = [jobs_from_manifest(json.loads(r.body))[0] for r in submits]
    batch = run_batch(jobs, workers=ctx.workers)
    return {r.index: o.encoded_record() for r, o in zip(submits, batch.outcomes)}


def _main_plan(ctx: RunContext) -> "list[pools.Request]":
    return pools.service_schedule(ctx.seed, MAIN_RATE, MAIN_REQUESTS, "m")


def _closed_loop(ctx: RunContext, outcome: Outcome, expected: dict, client: Any,
                 plan: "list[pools.Request]", main: PhaseResult) -> None:
    """The cost metrics: each window's requests are due at once, and one
    sender sends the next as soon as the last has ended."""
    known = {r.request.index: r for r in main.results}
    costs = []
    for window in range(rounds_for(ctx.seconds, WINDOW_S)):
        window_plan = pools.ladder_schedule(ctx.seed, math.inf, CLOSED_WINDOW,
                                           f"closed{window}", plan)
        phase, cost = ctx.reference.measure(
            lambda: run_phase(client, window_plan, 1, known=known))
        _check_phase(outcome, expected, phase, None, known)
        costs.append(cost.ref_s / CLOSED_WINDOW)
    outcome.metric("jobs_per_ref_s", len(costs) / sum(costs) if sum(costs) else 0.0,
                   note=f"{len(costs) * CLOSED_WINDOW} hits and refetches, closed loop "
                        f"over 1 connection, client and service CPU")
    outcome.metric("job_p50_ref_s", median(costs),
                   note=f"median of {len(costs)} windows of {CLOSED_WINDOW} requests")


def _ladder(ctx: RunContext, outcome: Outcome, expected: dict, client: Any,
            plan: "list[pools.Request]", main: PhaseResult) -> "tuple[float, list[str]]":
    known = {r.request.index: r for r in main.results}
    sustained, lines = 0.0, []
    for rate in LADDER_RATES:
        rung_plan = pools.ladder_schedule(ctx.seed, rate, LADDER_REQUESTS, f"l{int(rate)}", plan)
        phase = run_phase(client, rung_plan, ctx.workers, known=known)
        failed_before = outcome.failed
        _check_phase(outcome, expected, phase, None, known)
        latencies = phase.latencies()
        value, label = tail(latencies)
        # A growing backlog shows as slow requests at the end of the rung.
        backlog = median(latencies[-10:])
        ok = (outcome.failed == failed_before and value <= LATENCY_LIMIT_S
              and backlog <= LATENCY_LIMIT_S)
        lines.append(f"  rung {rate:6.1f}/s: tail {value * 1000:8.2f} ms ({label}), "
                     f"last-10 median {backlog * 1000:7.2f} ms, generator lag max "
                     f"{max(phase.lag_s) * 1000:6.2f} ms -> {'pass' if ok else 'fail'}")
        if not ok:
            break
        sustained = rate
    return sustained, lines


def _fleet_hop(target: Target, main: PhaseResult) -> float:
    """Router minus direct-to-worker latency of identical result GETs."""
    from repro.service.client import ServiceClient

    done = [r for r in main.results if r.request.body is not None and not r.error][:HOP_PROBES]
    via_router, direct = [], []
    with ServiceClient(target.url, timeout=60) as router_client:
        clients: dict[str, ServiceClient] = {}
        try:
            for result in done:
                worker = target.router.assigned_worker(result.job_id)
                if worker is None or worker.url is None:
                    continue
                if worker.url not in clients:
                    clients[worker.url] = ServiceClient(worker.url, timeout=60)
                worker_client = clients[worker.url]
                path = f"/v1/jobs/{result.job_id}/results"
                for client, sink in ((router_client, via_router), (worker_client, direct)):
                    start = now()
                    with client._open("GET", path) as response:
                        response.read()
                    sink.append(now() - start)
        finally:
            for client in clients.values():
                client.close()
    return median(via_router) - median(direct) if direct else 0.0


def _e2e(outcome: Outcome, phase: PhaseResult, cold_records: "list[dict]") -> None:
    latencies = phase.latencies()
    outcome.notes["latency_p50_s"] = (
        f"{median(latencies):.6f} s (all requests at {MAIN_RATE:g}/s offered, due time to "
        f"last byte, n={len(latencies)})")
    value, label = tail(latencies)
    outcome.notes["latency_tail_s"] = f"{value:.6f} s (all requests, {label})"
    for kind in (pools.COLD, pools.HIT, pools.REFETCH):
        values = phase.latencies(kind)
        outcome.notes[f"{kind}_p50_s"] = f"{median(values):.6f} s (n={len(values)})"
        value, label = tail(values)
        outcome.notes[f"{kind}_tail_s"] = f"{value:.6f} s ({label})"
    outcome.metric("shuttles", sum(r["shuttles"] for r in cold_records))
    outcome.metric("swaps", sum(r["swaps"] for r in cold_records))
    outcome.metric("neg_log_success", -sum(r["log_success_rate"] for r in cold_records),
                   note="-sum(ln success rate) over the cold submits")
    outcome.notes["bench.generator_lag_s"] = f"max {max(phase.lag_s) * 1000:.2f} ms"


def service_setup(ctx: RunContext, outcome: Outcome) -> "tuple[list, Target]":
    """Boot several times (the boot costs go into ``setup_s``); keep the
    last one running."""
    costs, target = [], None
    for repeat in range(SETUP_REPEATS):
        if target is not None:
            target.stop(outcome)
        target, cost = ctx.reference.measure(lambda: boot(ctx, False, f"service-{repeat}"))
        costs.append(cost)
    return costs, target


def run_service(ctx: RunContext, outcome: Outcome, expected: dict, parity: "dict[int, bytes]",
                target: Target, fleet: bool, tracer: Any = None) -> dict:
    """The main phase against ``target``, then the traced-run probes
    (with ``tracer``) or the closed loop and the ladder (untraced runs).
    ``parity`` holds the :func:`reference_records` of the main phase.

    The checks run after ``tracer`` is restored, so their own
    compilations stay out of the traced round.
    """
    from repro.service.client import ServiceClient

    plan = _main_plan(ctx)
    _check_generator(plan)
    with ServiceClient(target.url, timeout=120) as client:
        before = _scrape(client)
        main = run_phase(client, plan, ctx.workers)
        after = _scrape(client)
        info: dict = {"phase": main,
                      "counters": {k: after.get(k, 0.0) - before.get(k, 0.0) for k in after},
                      "disk_bytes": after.get("repro_cache_disk_bytes", 0.0),
                      "connections": client.connections_opened}
        if tracer is not None:
            info["jobs"] = client.jobs(limit=100000)
            if fleet:
                info["hop_s"] = _fleet_hop(target, main)
            tracer.restore()
        cold_records = _check_phase(outcome, expected, main, parity)
        cold_keys = [r.key for r in plan if r.kind == pools.COLD]
        outcome.notes["replay"] = (
            f"{check.replay_cache(outcome, target.cache_dir, cold_keys)} schedules replayed"
        )
        _e2e(outcome, main, cold_records)
        if not ctx.trace:
            _closed_loop(ctx, outcome, expected, client, plan, main)
            sustained, lines = _ladder(ctx, outcome, expected, client, plan, main)
            outcome.notes["sustained_rps"] = (
                f"{sustained:g} 1/s (limit {LATENCY_LIMIT_S * 1000:g} ms on the tail)"
            )
            outcome.extra_lines.extend(["sustained_rps ladder:", *lines])
    return info

"""The repository benchmark: one workload per invocation.

Usage, from the repository root::

    python3 perfbench/run.py --workload compile_large --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once with layer spans recorded, and reports
the per-layer metrics.  Both print a human-readable report, then one
JSON line (the last line of standard output).  Scratch files live under
``.bench_run/`` in the repository root and are removed at exit, except
the result files under ``.bench_run/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

SERVICE_WORKLOADS = ("service_mix",)

#: A run that is not done by then kills its process tree and fails.
DEADLINE_S = 170.0


def parse_args(argv: "list[str]", workloads: "list[str]") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_spec() -> dict:
    """BENCHMARK.json: the workloads, and the metric names and units."""
    import layers

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if {m["name"] for m in spec["per_layer"]} != set(layers.PREDICTIONS):
        raise SystemExit("error: BENCHMARK.json per-layer metrics differ from perfbench/layers.py")
    return spec


def start_watchdog() -> threading.Timer:
    """Kill the whole process tree if the run overruns its deadline."""
    from common import _process_tree

    def expire() -> None:
        print(f"error: run exceeded {DEADLINE_S:g} s", file=sys.stderr, flush=True)
        for pid in _process_tree(os.getpid())[1:]:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        os._exit(3)

    timer = threading.Timer(DEADLINE_S, expire)
    timer.daemon = True
    timer.start()
    return timer


# ----------------------------------------------------------------------
# untraced and traced drivers
# ----------------------------------------------------------------------
def startup_times(reference) -> list:
    """Costs (:class:`hostspeed.Cost`) of a fresh interpreter importing
    the program, repeated.

    Measured in child processes before this process imports the
    program, so it can be repeated (and so the children do not count
    towards ``peak_rss_mb``).
    """
    from common import SETUP_REPEATS

    code = ("import sys; sys.path.insert(0, 'src'); "
            "import repro.service.fleet, repro.service.server")
    return [
        reference.measure(lambda: subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, check=True, timeout=60))[1]
        for _ in range(SETUP_REPEATS)
    ]


def timed_setup(ctx, step) -> list:
    """Costs of repeated runs of ``step``."""
    from common import SETUP_REPEATS

    return [ctx.reference.measure(step)[1] for _ in range(SETUP_REPEATS)]


def run_untraced(ctx, outcome, expected, parity) -> None:
    import batch_workloads as bw
    import service_workloads as sw
    from common import median

    target = None
    if ctx.workload == "compile_large":
        setups = timed_setup(ctx, lambda: bw.compile_large_setup(ctx))
    elif ctx.workload == "sweep_batch":
        setups = timed_setup(ctx, lambda: bw.sweep_setup(ctx))
    else:
        setups, target = sw.service_setup(ctx, outcome)
    pairs = list(zip(ctx.startup_s, setups))
    outcome.metric(
        "setup_s", median([a.ref_s + b.ref_s for a, b in pairs]),
        note=f"reference seconds, median of {len(pairs)} x (interpreter start + imports, then "
             f"workload set-up); wall median {median([a.wall_s + b.wall_s for a, b in pairs]):.3f} s",
    )
    if ctx.workload == "compile_large":
        bw.compile_large(ctx, outcome, expected)
    elif ctx.workload == "sweep_batch":
        bw.sweep_batch(ctx, outcome, expected)
    else:
        try:
            sw.run_service(ctx, outcome, expected, parity, target, False)
        finally:
            target.stop(outcome)


def _record_counts(records) -> "dict[str, int]":
    return {
        "core.generic_swap_iterations": sum(r.get("generic_swap_iterations", 0) for r in records),
        "core.candidate_evaluations": sum(r.get("candidate_evaluations", 0) for r in records),
    }


def run_traced(ctx, outcome, expected, parity) -> "tuple[dict, dict]":
    """An untraced reference round, then the same round traced.

    Returns (per-layer values, work counts of the traced round).
    """
    import batch_workloads as bw
    import check
    import layers
    import service_workloads as sw
    from common import median
    from tracing import Tracer, install

    tracer = Tracer(ctx.fresh_dir("spans"))
    extra: dict = {}
    if ctx.workload == "compile_large":
        bw.compile_large_setup(ctx)
        reference = bw.compile_large_pass(ctx, outcome, expected)
        install(tracer)
        try:
            traced = bw.compile_large_pass(ctx, outcome, expected)
        finally:
            tracer.restore()
        wall = traced["wall_s"]
        extra["bench.trace_overhead"] = (
            sum(traced["costs"].values()) / sum(reference["costs"].values()) - 1
        )
        counts = [reference["work"], traced["work"]]
    elif ctx.workload == "sweep_batch":
        bw.sweep_setup(ctx)
        reference = bw.sweep_round(ctx, outcome, expected, 0)
        install(tracer)
        try:
            traced = bw.sweep_round(ctx, outcome, expected, 1)
        finally:
            tracer.restore()
        wall = sum(p["wall_s"] for p in traced["passes"].values())
        costs = [sum(p["cost_s"] for p in r["passes"].values()) for r in (reference, traced)]
        extra["bench.trace_overhead"] = costs[1] / costs[0] - 1
        cold = traced["passes"]["cold"]["batch"]
        extra["runtime.pool.dedups"] = (
            len(cold.outcomes) - cold.compilations - cold.cache_stats.hits
        )
        extra["runtime.cache.disk_bytes"] = sum(
            p.stat().st_size for p in traced["cache_dir"].rglob("*") if p.is_file()
        )
        counts = [
            {**_record_counts([o.record for o in r["passes"]["cold"]["batch"].outcomes]),
             "runtime.pool.compilations": r["passes"]["cold"]["batch"].compilations}
            for r in (reference, traced)
        ]
    else:
        target = sw.boot(ctx, False, "reference")
        try:
            untraced = sw.run_service(ctx, outcome, expected, parity, target, False)
        finally:
            target.stop(outcome)
        install(tracer)
        try:
            target = sw.boot(ctx, False, "traced")
            tracer.reset()  # the boot's warm-up compilations are set-up
            try:
                traced = sw.run_service(ctx, outcome, expected, parity, target, False, tracer)
            finally:
                target.stop(outcome)
        finally:
            tracer.restore()
        phases = [untraced["phase"], traced["phase"]]
        wall = phases[1].wall_s
        extra["bench.trace_overhead"] = (
            median(phases[1].latencies()) / median(phases[0].latencies()) - 1
        )
        scraped = traced["counters"]
        extra["runtime.pool.compilations"] = scraped.get("repro_engine_compilations_total", 0)
        extra["runtime.pool.dedups"] = scraped.get("repro_engine_dedup_total", 0)
        extra["runtime.cache.hits"] = scraped.get("repro_cache_hits_total", 0)
        extra["runtime.cache.misses"] = scraped.get("repro_cache_misses_total", 0)
        extra["runtime.cache.disk_bytes"] = traced["disk_bytes"]
        extra["service.results.bytes"] = phases[1].result_bytes
        extra["service.client.connections_opened"] = traced["connections"]
        extra["bench.generator_lag_s"] = max(phases[1].lag_s)
        ids = {r.job_id for r in phases[1].results}
        extra["service.scheduler.queue_wait_s"] = sum(
            job["started_at"] - job["created_at"]
            for job in traced["jobs"]
            if job["job_id"] in ids and job.get("started_at")
        )
        extra.update(fleet_layers(ctx, outcome, expected, parity))
        counts = []
        for info in (untraced, traced):
            records = [
                json.loads(check.record_bytes(r.lines[0]))
                for r in info["phase"].results
                if r.request.kind == "cold" and not r.error and len(r.lines) == 2
            ]
            entry = _record_counts(records)
            entry["runtime.pool.compilations"] = info["counters"].get(
                "repro_engine_compilations_total", 0
            )
            counts.append(entry)
    tracer.collect()
    values = layers.compute(tracer, extra, ctx.workers)
    # Counts read from the program's outputs exist for both rounds; the
    # span-only ones are checked against earlier runs by check_repeat.
    if counts[0] != counts[1]:
        outcome.fail(f"work counts differ between untraced and traced rounds: {counts}")
    for name in layers.EXACT_COUNTS:
        counts[1].setdefault(name, values[name])
    outcome.extra_lines.extend(layers.span_table(tracer, wall))
    return values, counts[1]


def fleet_layers(ctx, outcome, expected, parity) -> "dict[str, float]":
    """The fleet's own layers: the main phase once more, through
    ``make_fleet(size=2)``, with the router and the shared cache tier
    traced.  Spawned fleet workers cannot be patched, so only the
    router-side metrics are taken from this round."""
    import layers
    import service_workloads as sw
    from tracing import Tracer, install

    tracer = Tracer(ctx.fresh_dir("fleet-spans"))
    install(tracer, fleet=True)
    try:
        target = sw.boot(ctx, True, "fleet")
        tracer.reset()
        try:
            info = sw.run_service(ctx, outcome, expected, parity, target, True, tracer)
            failovers = target.router.failovers.value
        finally:
            target.stop(outcome)
    finally:
        tracer.restore()
    tracer.collect()
    values = layers.compute(
        tracer, {"service.fleet.hop_s": info["hop_s"], "service.fleet.failovers": failovers},
        ctx.workers,
    )
    return {name: values[name] for name in layers.FLEET_METRICS}


def check_repeat(ctx, outcome, counts: dict) -> str:
    """Work counts of this seed must match those of earlier runs."""
    path = ROOT / ".bench_run" / "workcounts.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    key = f"{ctx.workload}:{ctx.seed}:{ctx.seconds:g}"
    counts = {k: round(v, 6) for k, v in counts.items()}
    if key in seen and seen[key] != counts:
        outcome.fail(f"work counts differ from an earlier run: {seen[key]} != {counts}")
        return "DIFFER from an earlier run"
    status = "repeat an earlier run exactly" if key in seen else "recorded (first run)"
    seen[key] = counts
    path.write_text(json.dumps(seen, indent=1, sort_keys=True))
    return status


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def report_untraced(spec: dict, outcome, info: dict) -> None:
    m = outcome.metrics
    rate = outcome.failed / max(outcome.attempted, 1)
    rows = [(e["name"], m[e["name"]], e["unit"]) for e in spec["end_to_end"]]
    print(f"perfbench {info['workload']} seed={info['seed']} seconds={info['seconds']:g} "
          f"cores={info['cores']} pinned_cpu={info['pinned_cpu']} python={info['python']} "
          f"commit={info['commit']}")
    print("end-to-end metrics:")
    for name, value, unit in rows:
        print(f"  {name:18s} {value:16.6f} {unit:6s} {outcome.notes.get(name, '')}")
    print(f"  {'error_rate':18s} {rate:16.6f} {'share':6s} "
          f"{outcome.failed} failed of {outcome.attempted} attempted")
    print(f"  {'log_success':18s} {-m['neg_log_success']:16.6f} {'nats':6s} "
          "sum of ln success rate (higher is better)")
    for name in ("latency_p50_s", "latency_tail_s", "cold_p50_s", "cold_tail_s", "hit_p50_s",
                 "hit_tail_s", "refetch_p50_s", "refetch_tail_s", "sustained_rps"):
        print(f"  {name:18s} {outcome.notes.get(name, 'n/a (no service requests here)')}")
    for name in ("replay", "bench.generator_lag_s", "stopped_leftover_processes"):
        if name in outcome.notes:
            print(f"  {name}: {outcome.notes[name]}")
    for line in outcome.extra_lines:
        print(line)


def report_traced(spec: dict, outcome, info: dict, values: dict, repeat: str) -> None:
    import layers

    print(f"perfbench {info['workload']} seed={info['seed']} traced "
          f"cores={info['cores']} pinned_cpu={info['pinned_cpu']} python={info['python']} "
          f"commit={info['commit']}")
    print(f"{'per-layer metric':36s} {'value':>16s} {'unit':6s} predicted to move")
    for entry in spec["per_layer"]:
        name = entry["name"]
        print(f"  {name:34s} {values[name]:16.6f} {entry['unit']:6s} {layers.PREDICTIONS[name]}")
    print(f"work counts ({', '.join(layers.EXACT_COUNTS)}): {repeat}")
    if "stopped_leftover_processes" in outcome.notes:
        print(f"stopped_leftover_processes: {outcome.notes['stopped_leftover_processes']}")
    print("self time by span (traced round):")
    for line in outcome.extra_lines:
        print("  " + line)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def main(argv: "list[str]") -> int:
    spec = load_spec()
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    from common import (
        MemorySampler, Outcome, RunContext, become_subreaper, emit, machine_info, stop_descendants,
    )

    from hostspeed import Reference, pin_to_one_cpu

    become_subreaper()
    watchdog = start_watchdog()
    cpu = pin_to_one_cpu()

    ctx = RunContext(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
    )
    ctx.scratch = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    ctx.scratch.mkdir(parents=True)
    ctx.reference = Reference(ctx.scratch)
    ctx.startup_s = [] if args.trace else startup_times(ctx.reference)
    parity = None
    if args.workload in SERVICE_WORKLOADS:
        import service_workloads

        # Before sampling starts, so its pool stays out of peak_rss_mb.
        parity = service_workloads.reference_records(ctx)
    sampler = MemorySampler(skip={ctx.reference.process.pid}).start()
    import check
    expected = check.load_expected()
    outcome = Outcome()
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "pinned_cpu": cpu, **machine_info(ROOT)}
    try:
        if ctx.trace:
            values, counts = run_traced(ctx, outcome, expected, parity)
            repeat = check_repeat(ctx, outcome, counts)
        else:
            run_untraced(ctx, outcome, expected, parity)
    finally:
        ctx.reference.close()
        leftovers = [n for n in stop_descendants() if "resource_tracker" not in n]
        shutil.rmtree(ctx.scratch, ignore_errors=True)
    for name in leftovers:
        print(f"note: still running after the workload closed, stopped: {name}", file=sys.stderr)
    outcome.note_leftovers(leftovers)
    peak = sampler.stop()
    if ctx.trace:
        report_traced(spec, outcome, info, values, repeat)
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["per_layer"]}
    else:
        outcome.metric("peak_rss_mb", peak, note="this process plus its children")
        report_untraced(spec, outcome, info)
        metrics = {m["name"]: (outcome.metrics[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    for problem in outcome.problems:
        print(f"FAILED: {problem}")
    results = ROOT / ".bench_run" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {**info, "trace": args.trace, "attempted": outcome.attempted, "failed": outcome.failed,
         "problems": outcome.problems, "notes": outcome.notes,
         "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
        indent=1, sort_keys=True,
    ))
    watchdog.cancel()
    emit(outcome, metrics, correct=outcome.failed == 0)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

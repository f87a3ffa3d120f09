"""The in-process workloads: ``compile_large`` and ``sweep_batch``."""

from __future__ import annotations

import json

import check
import pools
from common import Outcome, RunContext, median, now, rounds_for, tail

#: Wall time of one compile_large pass and of one sweep_batch round on a
#: 2-core host with the benchmark pinned to one CPU; a run makes as many
#: as fill ``--seconds`` (at least one).
COMPILE_PASS_S = 20.0
SWEEP_ROUND_S = 20.0


def _quality(outcome: Outcome, records: "list[dict]") -> None:
    """Quality totals over one ``fm`` record per compile key."""
    outcome.metric("shuttles", sum(r["shuttles"] for r in records))
    outcome.metric("swaps", sum(r["swaps"] for r in records))
    outcome.metric(
        "neg_log_success", -sum(r["log_success_rate"] for r in records),
        note="-sum(ln success rate); higher success reads lower",
    )


def _latency(outcome: Outcome, latencies: "list[float]", what: str) -> None:
    """Wall-clock latency, for the report."""
    value, label = tail(latencies)
    outcome.notes["latency_p50_s"] = f"{median(latencies):.6f} s ({what}, n={len(latencies)})"
    outcome.notes["latency_tail_s"] = f"{value:.6f} s ({what}, {label})"


def _cost(outcome: Outcome, jobs: int, cost_s: float, unit_costs: "list[float]",
          what: str) -> None:
    """The end-to-end cost metrics, in reference seconds of CPU."""
    outcome.metric("jobs_per_ref_s", jobs / cost_s if cost_s else 0.0, note=f"{jobs} {what}")
    outcome.metric("job_p50_ref_s", median(unit_costs),
                   note=f"median of {len(unit_costs)}")


# ----------------------------------------------------------------------
# compile_large
# ----------------------------------------------------------------------
def _compile_one(key: "pools.Key") -> "tuple[dict, dict]":
    """Compile (verification on) and evaluate one key, in process."""
    import repro.noise.evaluator as evaluator
    from repro.registry import compiler_spec, make_pipeline
    from repro.runtime.jobs import CompileJob

    job = CompileJob(
        circuit=key.circuit, device=key.device, capacity=key.capacity,
        compiler=key.compiler, initial_mapping=key.mapping,
    )
    spec = compiler_spec(job.compiler)
    pipeline = make_pipeline(spec.name, job.resolve_device(), config=job.config, verify=True)
    result = pipeline.compile(job.resolve_circuit(), initial_mapping=job.initial_mapping)
    evaluation = evaluator.evaluate_schedule(result.schedule, gate_implementation="fm")
    schedule = result.schedule
    record = {
        "gate_implementation": "fm",
        "shuttles": schedule.shuttle_count,
        "swaps": schedule.swap_count,
        "two_qubit_gates": schedule.two_qubit_gate_count,
        "log_success_rate": evaluation.log_success_rate,
    }
    work = {
        "generic_swap_iterations": result.statistics.generic_swap_iterations,
        "candidate_evaluations": result.statistics.candidate_evaluations,
    }
    return record, work


def compile_large_setup(ctx: RunContext) -> None:
    """Build every device and compile the warm-up key once."""
    from repro.hardware.presets import paper_device

    for key in pools.COMPILE_LARGE_POOL:
        paper_device(key.device, key.capacity)
    _compile_one(pools.WARMUP_KEY)


def compile_large_pass(ctx: RunContext, outcome: Outcome, expected: dict) -> dict:
    """Compile every point once, each beside the host-speed reference;
    returns timings, costs, records and work counts."""
    keys = pools.compile_large_jobs(ctx.seed)
    latencies, records, costs = [], [], {}
    work = {"core.generic_swap_iterations": 0, "core.candidate_evaluations": 0}
    start = now()
    for key in keys:
        outcome.attempted += 1
        try:
            (record, counts), cost = ctx.reference.measure(lambda: _compile_one(key))
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            outcome.fail(f"compile {key.name}: {type(exc).__name__}: {exc}")
            continue
        latencies.append(cost.wall_s)
        costs[key.name] = cost.ref_s
        check.check_record(outcome, expected, key, record, "compile_large")
        records.append(record)
        for name, value in counts.items():
            work[f"core.{name}"] += value
    return {"wall_s": now() - start, "latencies": latencies, "records": records,
            "costs": costs, "jobs": len(keys), "work": work}


def compile_large(ctx: RunContext, outcome: Outcome, expected: dict) -> None:
    passes = [compile_large_pass(ctx, outcome, expected)
              for _ in range(rounds_for(ctx.seconds, COMPILE_PASS_S))]
    # Per point, the median over passes: a pass at that cost rate.
    per_key = {name: median([p["costs"][name] for p in passes if name in p["costs"]])
               for name in passes[0]["costs"]}
    _cost(outcome, len(per_key), sum(per_key.values()), list(per_key.values()),
          f"points, median cost of each over {len(passes)} pass(es)")
    _latency(outcome, [x for p in passes for x in p["latencies"]],
             "compile+verify+evaluate per job, wall")
    _quality(outcome, passes[0]["records"])


# ----------------------------------------------------------------------
# sweep_batch
# ----------------------------------------------------------------------
def sweep_setup(ctx: RunContext) -> None:
    """Fork a batch pool once over the warm-up key (first-call costs)."""
    from repro.runtime.api import run_batch
    from repro.runtime.manifest import jobs_from_manifest

    document = {"jobs": [pools.WARMUP_KEY.job(name) for name in pools.GATE_IMPLEMENTATIONS[:2]]}
    run_batch(jobs_from_manifest(document), workers=ctx.workers)


def sweep_round(ctx: RunContext, outcome: Outcome, expected: dict, round_index: int) -> dict:
    """One cold pass and one warm pass over a fresh disk cache."""
    from repro.runtime.api import run_batch
    from repro.runtime.manifest import jobs_from_manifest

    text = json.dumps(pools.sweep_manifest(ctx.seed))
    cache_dir = ctx.fresh_dir(f"sweep-cache-{round_index}")
    passes = {}
    for name in ("cold", "warm"):
        stamps: list[float] = []
        jobs = jobs_from_manifest(json.loads(text))
        start = now()
        try:
            batch, cost = ctx.reference.measure(lambda: run_batch(
                jobs, workers=ctx.workers, cache_dir=cache_dir,
                on_outcome=lambda _outcome: stamps.append(now()),
            ))
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            outcome.attempted += len(jobs)
            outcome.fail(f"sweep {name} pass: {type(exc).__name__}: {exc}", len(jobs))
            continue
        outcome.attempted += len(jobs)
        passes[name] = {"wall_s": cost.wall_s, "cost_s": cost.ref_s,
                        "latencies": [t - start for t in stamps],
                        "batch": batch, "jobs": len(jobs)}
    cold, warm = passes.get("cold"), passes.get("warm")
    if cold is None or warm is None:
        return {"passes": passes, "records": [], "cache_dir": cache_dir}
    if cold["batch"].compilations != len(pools.SWEEP_POOL):
        outcome.fail(f"cold pass compiled {cold['batch'].compilations}, "
                     f"expected {len(pools.SWEEP_POOL)}")
    if warm["batch"].compilations != 0:
        outcome.fail(f"warm pass compiled {warm['batch'].compilations}, expected 0")
    manifest = json.loads(text)["jobs"]
    fm_records = []
    for index, (spec, first, second) in enumerate(
        zip(manifest, cold["batch"].outcomes, warm["batch"].outcomes)
    ):
        key = check.key_of(spec)
        check.check_record(outcome, expected, key, first.record, f"sweep job {index}")
        if first.encoded_record() != second.encoded_record():
            outcome.fail(f"sweep job {index}: warm record bytes differ from cold")
        if first.record["gate_implementation"] == "fm":
            fm_records.append(first.record)
    return {"passes": passes, "records": fm_records, "cache_dir": cache_dir}


def sweep_batch(ctx: RunContext, outcome: Outcome, expected: dict) -> None:
    rounds = []
    for index in range(rounds_for(ctx.seconds, SWEEP_ROUND_S)):
        result = sweep_round(ctx, outcome, expected, index)
        # Keep only the figures: a round's outcomes would add to the
        # memory of the next one.
        rounds.append({"cache_dir": result["cache_dir"], "records": result["records"],
                       "passes": [{k: v for k, v in p.items() if k != "batch"}
                                  for p in result["passes"].values()]})
    replayed = check.replay_cache(outcome, rounds[0]["cache_dir"], pools.SWEEP_POOL)
    outcome.notes["replay"] = f"{replayed} schedules replayed through verify_schedule"
    passes = [p for r in rounds for p in r["passes"]]
    _cost(outcome, sum(p["jobs"] for p in passes), sum(p["cost_s"] for p in passes),
          [sum(p["cost_s"] for p in r["passes"]) / sum(p["jobs"] for p in r["passes"])
           for r in rounds],
          f"jobs in {len(rounds)} cold+warm round(s); p50 over rounds of cost per job")
    _latency(outcome, [x for p in passes for x in p["latencies"]],
             "batch start to job outcome, wall")
    _quality(outcome, rounds[0]["records"])

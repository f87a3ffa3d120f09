"""Per-layer metrics: what each should move, and how each is computed
from the spans and counters of a traced round."""

from __future__ import annotations

from tracing import Tracer

_CORE = "jobs_per_ref_s, job_p50_ref_s, latency_* on compile_large; ~no change on service_mix"
_PIPE = "jobs_per_ref_s on sweep_batch"
_CODEC = "jobs_per_ref_s on sweep_batch (warm pass); hit_*, jobs_per_ref_s on service_mix"
_CACHE = "jobs_per_ref_s on sweep_batch; hit_* on service_mix"
_POOL = "jobs_per_ref_s on sweep_batch; cold_* on service_mix"
_HTTP = "cold_*, hit_*, refetch_*, jobs_per_ref_s, sustained_rps on service_mix"
_FLEET = "fleet round of the service_mix traced run; no change in-process"
_VALID = "run validity (no end-to-end metric)"

#: Per-layer metric -> the end-to-end metric and workload it should move.
#: Names and units are in BENCHMARK.json.
PREDICTIONS = {
    "core.routing_s": _CORE,
    "core.generic_swap_iterations": _CORE,
    "core.candidate_evaluations": _CORE,
    "core.candidates_per_s": _CORE,
    "core.mapping_s": _PIPE,
    "schedule.verify_s": _PIPE + " (verify is ~1-2% of compile_large)",
    "schedule.verify_ops": _PIPE,
    "pipeline.metrics_s": _PIPE,
    "pipeline.unattributed_s": _PIPE,
    "circuit.build_s": _PIPE,
    "schedule.encode_s": _CODEC,
    "schedule.decode_s": _CODEC,
    "schedule.bytes": _CODEC,
    "noise.evaluate_s": _CODEC,
    "noise.evaluations": _CODEC,
    "runtime.cache.lookup_s.memory": _CACHE,
    "runtime.cache.lookup_s.disk": _CACHE,
    "runtime.cache.lookup_s.network": _CACHE,
    "runtime.cache.hits": _CACHE,
    "runtime.cache.misses": _CACHE,
    "runtime.cache.hit_ratio": _CACHE,
    "runtime.cache.put_s": _CACHE,
    "runtime.cache.disk_bytes": _CACHE,
    "runtime.pool.run_s": _POOL,
    "runtime.pool.compile_s": _POOL,
    "runtime.pool.overhead_s": _POOL,
    "runtime.pool.compilations": _POOL,
    "runtime.pool.dedups": _POOL,
    "runtime.pool.busy_share": _POOL,
    "runtime.fingerprint_s": _HTTP,
    "runtime.manifest_parse_s": _HTTP,
    "service.http.submit_s": _HTTP,
    "service.http.results_s": _HTTP,
    "service.scheduler.queue_wait_s": _HTTP + "; rises before sustained_rps falls",
    "service.results.stream_s": _HTTP,
    "service.results.bytes": _HTTP,
    "service.client.connections_opened": _HTTP,
    "service.fleet.hop_s": _FLEET,
    "runtime.cache_tier.load_s": _FLEET,
    "runtime.cache_tier.store_s": _FLEET,
    "runtime.cache_tier.hits": _FLEET,
    "service.fleet.failovers": _FLEET + "; must stay 0",
    "bench.generator_lag_s": _VALID,
    "bench.trace_overhead": _VALID,
}

#: Metrics measured on the fleet round of the service_mix traced run.
FLEET_METRICS = tuple(name for name, where in PREDICTIONS.items() if where.startswith(_FLEET))

#: Work counts that must repeat exactly between runs of one seed.
EXACT_COUNTS = (
    "core.generic_swap_iterations",
    "core.candidate_evaluations",
    "schedule.verify_ops",
    "schedule.bytes",
    "noise.evaluations",
    "runtime.pool.compilations",
)

#: Span name -> per-layer metric taking the span's total duration.
_TOTALS = {
    "pass.routing": "core.routing_s",
    "pass.initial-mapping": "core.mapping_s",
    "pass.verify": "schedule.verify_s",
    "pass.metrics": "pipeline.metrics_s",
    "circuit.build": "circuit.build_s",
    "schedule.encode": "schedule.encode_s",
    "schedule.decode": "schedule.decode_s",
    "noise.evaluate": "noise.evaluate_s",
    "runtime.cache.lookup.memory": "runtime.cache.lookup_s.memory",
    "runtime.cache.lookup.disk": "runtime.cache.lookup_s.disk",
    "runtime.cache.lookup.network": "runtime.cache.lookup_s.network",
    "runtime.cache.put": "runtime.cache.put_s",
    "runtime.pool.run": "runtime.pool.run_s",
    "runtime.pool.compile": "runtime.pool.compile_s",
    "runtime.fingerprint": "runtime.fingerprint_s",
    "runtime.manifest_parse": "runtime.manifest_parse_s",
    "service.http.submit": "service.http.submit_s",
    "service.results.stream": "service.results.stream_s",
    "runtime.cache_tier.load": "runtime.cache_tier.load_s",
    "runtime.cache_tier.store": "runtime.cache_tier.store_s",
}

#: Span name -> per-layer metric taking the span's self time.
_SELF = {
    "pipeline.compile": "pipeline.unattributed_s",
    "runtime.pool.run": "runtime.pool.overhead_s",
    "service.http.results": "service.http.results_s",
}


def compute(tracer: Tracer, extra: "dict[str, float]", workers: int) -> "dict[str, float]":
    """Every per-layer value; ``extra`` supplies (and overrides) the ones
    not measured by spans."""
    values = {name: 0.0 for name in PREDICTIONS}
    table = tracer.by_name()
    for span, metric in _TOTALS.items():
        values[metric] += table.get(span, {}).get("total_s", 0.0)
    for span, metric in _SELF.items():
        values[metric] += table.get(span, {}).get("self_s", 0.0)
    for name, value in tracer.counters.items():
        if name in values:
            values[name] = value
    values.update(extra)
    if values["core.routing_s"] > 0:
        values["core.candidates_per_s"] = (
            values["core.candidate_evaluations"] / values["core.routing_s"]
        )
    lookups = values["runtime.cache.hits"] + values["runtime.cache.misses"]
    values["runtime.cache.hit_ratio"] = values["runtime.cache.hits"] / lookups if lookups else 0.0
    if values["runtime.pool.run_s"] > 0:
        values["runtime.pool.busy_share"] = values["runtime.pool.compile_s"] / (
            values["runtime.pool.run_s"] * workers
        )
    return values


def span_table(tracer: Tracer, wall_s: float) -> "list[str]":
    """Self time per span name, with the time no span covers as a row."""
    table = tracer.by_name()
    lines = [f"{'span':34s} {'count':>7s} {'total_s':>10s} {'self_s':>10s}"]
    for name in sorted(table, key=lambda n: -table[n]["self_s"]):
        row = table[name]
        lines.append(
            f"{name:34s} {row['count']:7d} {row['total_s']:10.4f} {row['self_s']:10.4f}"
        )
    # Time during which no root span was open on any thread.
    roots = sorted((start, end) for _n, start, end, span_id, parent, _t in tracer.spans
                   if parent is None and span_id[0] == tracer.pid)
    covered, reach = 0.0, float("-inf")
    for start, end in roots:
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    lines.append(f"{'(unattributed: no span open)':34s} {'':7s} {'':10s} "
                 f"{max(0.0, wall_s - covered):10.4f}")
    return lines

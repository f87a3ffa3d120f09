"""Command-line interface for the S-SYNC reproduction.

Eleven subcommands cover the common workflows without writing Python:

``compile``
    Compile a circuit (a named Table-2 benchmark or an OpenQASM 2.0 file)
    onto a device preset with any registered compiler, print the
    shuttle/SWAP/success-rate summary (plus per-pass timings) and
    optionally write the compiled schedule as JSON.

``compare``
    Run S-SYNC and the baseline compilers on the same workload and print
    a comparison table (the Fig. 8–10 view for one workload).

``compilers``
    List every compiler in the registry (canonical names, aliases,
    pipeline passes).

``evaluate``
    Re-evaluate a previously saved schedule JSON under a chosen gate
    implementation.

``batch``
    Run a whole job manifest (JSON/YAML) through the batch-compilation
    runtime — parallel workers, schedule caching — and write the result
    records to a JSON or CSV file.

``serve``
    Run the HTTP compilation service (:mod:`repro.service`): submit
    manifests over ``POST /v1/jobs``, stream results as they compile,
    backed by a multi-slot scheduler over a warm worker pool, the shared
    schedule cache and a durable job journal.

``submit`` / ``results`` / ``jobs``
    The client side of the service: submit a manifest to a running
    service (optionally waiting for its results), stream/collect a job's
    results by id, and list or cancel jobs — the full job life cycle
    without writing Python, over :class:`repro.service.ServiceClient`.
    ``jobs --metrics`` pretty-prints the service's ``/v1/metrics``
    exposition as a table (see ``docs/observability.md``).

``loadgen``
    Drive a running service with a seeded synthetic workload
    (:mod:`repro.loadgen`: ``burst``, ``duplicates``, ``priorities``
    or ``results``)
    and print latency percentiles and throughput.

``fuzz``
    Differential scenario fuzzing (:mod:`repro.fuzz`): seeded random
    circuits x random devices through both scheduler backends and
    the baselines, with backend parity, legality replay, codec
    round-trips and noise invariants checked on every case; failing
    scenarios are delta-debugged to minimal JSON reproducers and the
    regression corpus under ``tests/fuzz/corpus`` can be replayed first.

Examples::

    python -m repro compile qft_24 --device G-2x3 --mapping gathering
    python -m repro compile bv_64 --device G-2x3 --compiler dai
    python -m repro compile my_circuit.qasm --device L-6 --output schedule.json
    python -m repro compare bv_64 --device G-2x3 --output records.csv
    python -m repro compilers
    python -m repro evaluate schedule.json --gate-implementation am2
    python -m repro batch manifest.json --workers 4 --cache-dir .repro-cache \
        --output results.json
    python -m repro serve --port 8000 --workers 4 --slots 2 --cache-dir .repro-cache
    python -m repro submit manifest.json --url http://127.0.0.1:8000 --wait
    python -m repro results 4c58ad19e38009ca --url http://127.0.0.1:8000
    python -m repro jobs --url http://127.0.0.1:8000
    python -m repro jobs --cancel 4c58ad19e38009ca --url http://127.0.0.1:8000
    python -m repro jobs --metrics --url http://127.0.0.1:8000
    python -m repro loadgen --profile burst --requests 20 --url http://127.0.0.1:8000
    python -m repro fuzz --cases 200 --seed 0 --corpus tests/fuzz/corpus
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.metrics import compare_compilers
from repro.analysis.reporting import format_table, write_records
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.library import build_benchmark
from repro.circuit.qasm import qasm_to_circuit
from repro.core.compiler import SSyncConfig
from repro.core.scheduler import SCHEDULER_BACKENDS, SchedulerConfig
from repro.exceptions import ReproError
from repro.hardware.presets import paper_device, preset_names
from repro.noise.evaluator import evaluate_schedule
from repro.registry import available_compilers, compiler_spec, make_pipeline
from repro.runtime.api import run_batch
from repro.runtime.cache import ScheduleCache
from repro.runtime.manifest import load_manifest
from repro.schedule.serialize import schedule_from_json, schedule_to_json


def _load_circuit(spec: str) -> QuantumCircuit:
    """Resolve a circuit argument: a ``.qasm`` file path or a benchmark name.

    Only a ``.qasm`` suffix selects QASM parsing — an arbitrary existing
    file is never fed to the parser on the strength of its path alone.
    """
    path = Path(spec)
    if path.suffix.lower() == ".qasm":
        if not path.exists():
            raise ReproError(f"QASM file {spec!r} does not exist")
        return qasm_to_circuit(path.read_text(), name=path.stem)
    try:
        return build_benchmark(spec)
    except ReproError as exc:
        if path.exists():
            raise ReproError(
                f"cannot interpret {spec!r}: it is not a benchmark name ({exc}), "
                "and only files with a .qasm suffix are parsed as OpenQASM"
            ) from exc
        raise


def _load_device(name: str, capacity: int | None):
    return paper_device(name, capacity)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="S-SYNC: shuttle and swap co-optimization for QCCD devices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "circuit",
            help="benchmark name (e.g. qft_24, adder_32, bv_64) or path to an OpenQASM 2.0 file",
        )
        p.add_argument(
            "--device",
            default="G-2x3",
            help=f"device preset ({', '.join(preset_names())}) or structural name like G-4x4",
        )
        p.add_argument("--capacity", type=int, default=None, help="override the per-trap capacity")
        p.add_argument(
            "--gate-implementation",
            default="fm",
            choices=("fm", "pm", "am1", "am2"),
            help="two-qubit gate timing model used for evaluation",
        )

    compile_parser = sub.add_parser("compile", help="compile one circuit with any registered compiler")
    add_common(compile_parser)
    compile_parser.add_argument(
        "--compiler",
        default="s-sync",
        help="registered compiler name or alias (see 'repro compilers')",
    )
    compile_parser.add_argument(
        "--mapping",
        default=None,
        choices=("gathering", "even-divided", "sta"),
        help="first-level initial mapping strategy (S-SYNC only; default: gathering)",
    )
    compile_parser.add_argument(
        "--lookahead",
        type=int,
        default=None,
        help="heuristic lookahead depth (S-SYNC only; 0 = paper-faithful, default: 4)",
    )
    compile_parser.add_argument(
        "--backend",
        default=None,
        choices=SCHEDULER_BACKENDS,
        help="scheduler core (S-SYNC only; default: flat — both are bit-identical)",
    )
    compile_parser.add_argument(
        "--profile",
        type=Path,
        default=None,
        metavar="FILE",
        help="dump a cProfile pstats file of the routing pass only",
    )
    compile_parser.add_argument(
        "--profile-full",
        type=Path,
        default=None,
        metavar="FILE",
        help="dump a cProfile pstats file of the whole pipeline: mapping, "
        "routing, verification, evaluation and schedule serialization",
    )
    compile_parser.add_argument(
        "--output", type=Path, default=None, help="write the compiled schedule to this JSON file"
    )
    compile_parser.add_argument(
        "--skip-verify", action="store_true", help="skip the schedule legality check"
    )

    compare_parser = sub.add_parser("compare", help="compare S-SYNC against the baseline compilers")
    add_common(compare_parser)
    compare_parser.add_argument(
        "--output", type=Path, default=None, help="also write the records to this JSON/CSV file"
    )
    compare_parser.add_argument(
        "--format",
        dest="output_format",
        default=None,
        choices=("json", "csv"),
        help="output file format (default: inferred from the --output suffix)",
    )

    batch_parser = sub.add_parser(
        "batch", help="run a job manifest through the batch-compilation runtime"
    )
    batch_parser.add_argument("manifest", type=Path, help="path to a JSON/YAML job manifest")
    batch_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for distinct compilations (0 = one per CPU)",
    )
    batch_parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="directory for the on-disk schedule cache (reused across runs)",
    )
    batch_parser.add_argument(
        "--output", type=Path, default=None, help="write the result records to this JSON/CSV file"
    )
    batch_parser.add_argument(
        "--format",
        dest="output_format",
        default=None,
        choices=("json", "csv"),
        help="output file format (default: inferred from the --output suffix)",
    )

    serve_parser = sub.add_parser(
        "serve", help="run the HTTP compilation service over the batch runtime"
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="interface to bind")
    serve_parser.add_argument("--port", type=int, default=8000, help="TCP port (0 = ephemeral)")
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="warm worker processes for compilations (0 = one per CPU)",
    )
    serve_parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="directory for the on-disk schedule cache (survives restarts)",
    )
    serve_parser.add_argument(
        "--max-cache-entries",
        type=int,
        default=256,
        help="capacity of the in-memory schedule-cache tier",
    )
    serve_parser.add_argument(
        "--slots",
        type=int,
        default=2,
        help="how many submitted batches may run concurrently (1 = serial)",
    )
    serve_parser.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="seconds to let running jobs finish on shutdown before cancelling",
    )
    serve_parser.add_argument(
        "--no-journal",
        action="store_true",
        help="disable the durable job journal (jobs then live in memory only)",
    )
    serve_parser.add_argument(
        "--no-compact",
        action="store_true",
        help="keep the full journal event log instead of compacting it after replay",
    )
    serve_parser.add_argument(
        "--journal-max-bytes",
        type=int,
        default=None,
        help="rotate (compact in place) the job journal when it exceeds this size",
    )
    serve_parser.add_argument(
        "--cache-tier",
        default=None,
        metavar="URL",
        help="base URL of a shared network cache tier (GET/PUT /v1/cache); "
        "misses fall back to the local cache when the tier is down",
    )
    serve_parser.add_argument(
        "--fleet",
        type=int,
        default=0,
        metavar="N",
        help="run N sharded worker processes behind a router on --port "
        "(0 = single-process service; workers tier their caches onto the router)",
    )

    def add_client_url(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--url",
            default="http://127.0.0.1:8000",
            help="base URL of a running repro service (default: %(default)s)",
        )
        p.add_argument(
            "--timeout",
            type=float,
            default=300.0,
            help="client-side HTTP timeout in seconds",
        )

    submit_parser = sub.add_parser(
        "submit", help="submit a job manifest to a running compilation service"
    )
    submit_parser.add_argument("manifest", type=Path, help="path to a JSON job manifest")
    add_client_url(submit_parser)
    submit_parser.add_argument(
        "--priority",
        type=int,
        default=0,
        help="scheduler priority (larger runs earlier; default 0)",
    )
    submit_parser.add_argument(
        "--wait",
        action="store_true",
        help="stream the results and print the record table before returning",
    )
    submit_parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write the streamed records to this JSON/CSV file (implies --wait)",
    )
    submit_parser.add_argument(
        "--format",
        dest="output_format",
        default=None,
        choices=("json", "csv"),
        help="output file format (default: inferred from the --output suffix)",
    )

    results_parser = sub.add_parser(
        "results", help="stream a submitted job's results from a running service"
    )
    results_parser.add_argument("job_id", help="fingerprint-derived job id")
    add_client_url(results_parser)
    results_parser.add_argument(
        "--raw",
        action="store_true",
        help="print the JSON result lines as received instead of a table",
    )
    results_parser.add_argument(
        "--output", type=Path, default=None, help="write the records to this JSON/CSV file"
    )
    results_parser.add_argument(
        "--format",
        dest="output_format",
        default=None,
        choices=("json", "csv"),
        help="output file format (default: inferred from the --output suffix)",
    )

    jobs_parser = sub.add_parser(
        "jobs", help="list (or cancel) jobs on a running compilation service"
    )
    add_client_url(jobs_parser)
    jobs_parser.add_argument("--offset", type=int, default=0, help="listing page offset")
    jobs_parser.add_argument(
        "--limit", type=int, default=None, help="listing page size (default: everything)"
    )
    jobs_parser.add_argument(
        "--cancel",
        metavar="JOB_ID",
        default=None,
        help="cancel this job instead of listing",
    )
    jobs_parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the service's /v1/metrics exposition as a table instead of listing jobs",
    )
    jobs_parser.add_argument(
        "--raw",
        action="store_true",
        help="with --metrics: print the Prometheus text exposition verbatim",
    )

    loadgen_parser = sub.add_parser(
        "loadgen", help="drive a running service with a synthetic workload profile"
    )
    add_client_url(loadgen_parser)
    loadgen_parser.add_argument(
        "--profile",
        default="burst",
        choices=("burst", "duplicates", "priorities", "results"),
        help="workload shape (see repro.loadgen; default: %(default)s)",
    )
    loadgen_parser.add_argument(
        "--requests", type=int, default=20, help="how many submissions to make"
    )
    loadgen_parser.add_argument(
        "--concurrency",
        type=int,
        default=4,
        help="client threads submitting and streaming concurrently",
    )
    loadgen_parser.add_argument(
        "--seed", type=int, default=0, help="request-plan seed (plans are deterministic)"
    )
    loadgen_parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="also write the aggregated result as JSON to this file",
    )

    fuzz_parser = sub.add_parser(
        "fuzz",
        help="differential fuzzing: random scenarios through every scheduler backend",
    )
    fuzz_parser.add_argument(
        "--cases", type=int, default=100, help="scenarios to generate (default: %(default)s)"
    )
    fuzz_parser.add_argument(
        "--seed", type=int, default=0, help="master seed of the scenario stream"
    )
    fuzz_parser.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop generating new scenarios after this much wall time",
    )
    fuzz_parser.add_argument(
        "--corpus",
        type=Path,
        default=None,
        metavar="DIR",
        help="regression corpus directory to replay before generating "
        "(the checked-in corpus lives in tests/fuzz/corpus)",
    )
    fuzz_parser.add_argument(
        "--minimize",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="shrink failing scenarios to 1-minimal reproducers (default: on)",
    )
    fuzz_parser.add_argument(
        "--failures",
        type=Path,
        default=Path("fuzz-failures"),
        metavar="DIR",
        help="directory minimized reproducer JSON files are written to "
        "(only created when a scenario fails; default: %(default)s)",
    )
    fuzz_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-case progress output"
    )

    sub.add_parser("compilers", help="list the registered compilers and their pipelines")

    evaluate_parser = sub.add_parser("evaluate", help="re-evaluate a saved schedule JSON")
    evaluate_parser.add_argument("schedule", type=Path, help="path to a schedule JSON file")
    evaluate_parser.add_argument(
        "--gate-implementation",
        default="fm",
        choices=("fm", "pm", "am1", "am2"),
        help="two-qubit gate timing model used for evaluation",
    )
    return parser


def _profiled_pass_run(profiler, run):
    """Wrap one pass's ``run`` so it executes under ``profiler``."""

    def profiled(context):
        profiler.enable()
        try:
            run(context)
        finally:
            profiler.disable()

    return profiled


def _command_compile(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args.circuit)
    device = _load_device(args.device, args.capacity)
    spec = compiler_spec(args.compiler)
    if args.mapping is not None and not spec.accepts_mapping:
        raise ReproError(
            f"compiler {spec.name!r} brings its own initial mapping; --mapping only "
            "applies to compilers with pluggable mappings (e.g. s-sync)"
        )
    if args.lookahead is not None and not spec.accepts_config:
        raise ReproError(
            f"compiler {spec.name!r} takes no scheduler configuration; --lookahead "
            "only applies to compilers that accept one (e.g. s-sync)"
        )
    if args.backend is not None and not spec.accepts_config:
        raise ReproError(
            f"compiler {spec.name!r} takes no scheduler configuration; --backend "
            "only applies to compilers that accept one (e.g. s-sync)"
        )
    lookahead = args.lookahead if args.lookahead is not None else 4
    config = SSyncConfig(
        scheduler=SchedulerConfig(lookahead_depth=lookahead, backend=args.backend)
    )
    pipeline = make_pipeline(spec.name, device, config=config, verify=not args.skip_verify)
    profiler = None
    if args.profile is not None:
        # Profile the routing pass only: shadow its bound ``run`` with a
        # wrapper that switches the profiler on just for that stage, so
        # the dump isolates the scheduler hot path from mapping/verify.
        import cProfile

        profiler = cProfile.Profile()
        for stage in pipeline.passes:
            if stage.name == "routing":
                stage.run = _profiled_pass_run(profiler, stage.run)  # type: ignore[method-assign]
    full_profiler = None
    if args.profile_full is not None:
        # Profile everything the artifact path pays for: every pipeline
        # pass (mapping, routing, verification), the noise evaluation and
        # the binary schedule serialization — complementing --profile,
        # which isolates routing.
        import cProfile

        full_profiler = cProfile.Profile()
        full_profiler.enable()
    result = pipeline.compile(
        circuit, initial_mapping=args.mapping if spec.accepts_mapping else None
    )
    if profiler is not None:
        profiler.dump_stats(args.profile)
        print(f"routing-pass profile written to {args.profile}")
    evaluation = evaluate_schedule(result.schedule, gate_implementation=args.gate_implementation)
    if full_profiler is not None:
        from repro.schedule.serialize import schedule_to_bytes

        schedule_to_bytes(result.schedule)
        full_profiler.disable()
        full_profiler.dump_stats(args.profile_full)
        print(f"full-pipeline profile written to {args.profile_full}")
    rows = [
        {
            "circuit": circuit.name,
            "device": device.name,
            "mapping": result.mapping_name or "-",
            "2q_gates": result.two_qubit_gate_count,
            "shuttles": result.shuttle_count,
            "swaps": result.swap_count,
            "success_rate": evaluation.success_rate,
            "exec_time_ms": evaluation.execution_time_us / 1e3,
            "compile_time_s": result.compile_time_s,
        }
    ]
    print(format_table(rows, title=f"{spec.name.upper()} compilation summary"))
    print(
        "passes: "
        + "  ".join(f"{t.name}={t.wall_time_s:.4f}s" for t in result.pass_timings)
    )
    if args.output is not None:
        args.output.write_text(schedule_to_json(result.schedule, indent=2))
        print(f"schedule written to {args.output}")
    return 0


def _command_compilers(args: argparse.Namespace) -> int:
    device = paper_device("G-2x2")  # a representative device to materialise pipelines
    rows = []
    for spec in available_compilers():
        pipeline = make_pipeline(spec.name, device)
        rows.append(
            {
                "name": spec.name,
                "aliases": ", ".join(spec.aliases) or "-",
                "passes": " -> ".join(pipeline.pass_names()),
                "mapping": spec.default_mapping or "built-in",
                "description": spec.description,
            }
        )
    print(format_table(rows, title="registered compilers"))
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args.circuit)
    device = _load_device(args.device, args.capacity)
    records = compare_compilers(
        circuit, device, gate_implementation=args.gate_implementation
    )
    rows = [r.as_dict() for r in records]
    print(
        format_table(
            rows,
            columns=[
                "compiler",
                "shuttles",
                "swaps",
                "success_rate",
                "execution_time_us",
                "compile_time_s",
            ],
            title=f"{circuit.name} on {device.name} ({args.gate_implementation.upper()} gates)",
        )
    )
    if args.output is not None:
        written = write_records(records, args.output, fmt=args.output_format)
        print(f"records written to {written}")
    return 0


def _command_batch(args: argparse.Namespace) -> int:
    jobs = load_manifest(args.manifest)
    cache = (
        ScheduleCache(directory=args.cache_dir) if args.cache_dir is not None else None
    )
    workers = None if args.workers == 0 else args.workers
    result = run_batch(jobs, workers=workers, cache=cache)
    print(
        format_table(
            result.as_dicts(),
            columns=[
                "circuit",
                "device",
                "compiler",
                "mapping",
                "gate_implementation",
                "shuttles",
                "swaps",
                "success_rate",
                "execution_time_us",
                "compile_time_s",
                "from_cache",
            ],
            title=f"batch results ({args.manifest})",
        )
    )
    summary = result.summary()
    print(
        "jobs={jobs} compilations={compilations} cache_hits={cache_hits} "
        "workers={workers} wall_time_s={wall:.3f}".format(
            jobs=summary["jobs"],
            compilations=summary["compilations"],
            cache_hits=summary["cache_hits"],
            workers=summary["workers"],
            wall=summary["wall_time_s"],
        )
    )
    if args.output is not None:
        written = write_records(result.as_dicts(), args.output, fmt=args.output_format)
        print(f"records written to {written}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    # Imported here so the offline subcommands never pay for (or depend
    # on) the service stack.
    workers = None if args.workers == 0 else args.workers
    service_kwargs = dict(
        workers=workers,
        max_cache_entries=args.max_cache_entries,
        slots=args.slots,
        journal=not args.no_journal,
        journal_max_bytes=args.journal_max_bytes,
        compact=not args.no_compact,
        drain_timeout=args.drain_timeout,
    )
    if args.fleet:
        from repro.service.fleet import make_fleet

        server = make_fleet(
            host=args.host,
            port=args.port,
            size=args.fleet,
            cache_dir=args.cache_dir,
            **service_kwargs,
        )
        print(
            f"repro fleet listening on {server.url} "
            f"({args.fleet} workers, shared cache tier on the router)"
        )
        print("endpoints: POST/GET /v1/jobs  GET|DELETE /v1/jobs/<id>  "
              "GET /v1/jobs/<id>/results  GET|PUT /v1/cache/<fp>  "
              "GET /v1/fleet  GET /v1/healthz  GET /v1/metrics")

        # Fleet workers are non-daemon processes; translate SIGTERM into
        # the KeyboardInterrupt path so they are torn down with the
        # router instead of outliving it.
        import signal

        def _terminate(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGTERM, _terminate)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("shutting down")
        finally:
            signal.signal(signal.SIGTERM, previous)
            server.shutdown()
            server.server_close()
            server.close()
        return 0

    from repro.service.server import make_server

    server = make_server(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        cache_tier=args.cache_tier,
        **service_kwargs,
    )
    print(f"repro service listening on {server.url}")
    print("endpoints: POST/GET /v1/jobs  GET|DELETE /v1/jobs/<id>  "
          "GET /v1/jobs/<id>/results  GET /v1/schedules/<fp>  "
          "GET|PUT /v1/cache/<fp>  "
          "GET /v1/compilers  GET /v1/healthz  GET /v1/metrics")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.shutdown()
        server.server_close()
        server.service.close()
    return 0


def _service_client(args: argparse.Namespace):
    # Deferred import for the same reason as _command_serve.
    from repro.service.client import ServiceClient

    return ServiceClient(args.url, timeout=args.timeout)


_RESULT_COLUMNS = [
    "circuit",
    "device",
    "compiler",
    "mapping",
    "gate_implementation",
    "shuttles",
    "swaps",
    "success_rate",
    "execution_time_us",
    "compile_time_s",
    "from_cache",
]


def _print_streamed_results(client, job_id: str, args: argparse.Namespace) -> int:
    """Stream one job's result lines and render them (shared by
    ``repro results`` and ``repro submit --wait``)."""
    raw = getattr(args, "raw", False)
    rows: list[dict[str, object]] = []
    end: dict[str, object] = {}
    for line in client.stream_results(job_id):
        if raw:
            print(json.dumps(line, sort_keys=True))
        if line.get("type") == "outcome":
            row = dict(line["record"])
            row["compile_time_s"] = line["compile_time_s"]
            row["from_cache"] = line["from_cache"]
            rows.append(row)
        elif line.get("type") == "end":
            end = line
    if not raw:
        if rows:
            print(format_table(rows, columns=_RESULT_COLUMNS, title=f"job {job_id}"))
        status = end.get("status", "unknown")
        summary = end.get("summary")
        if isinstance(summary, dict):
            print(
                "status={status} jobs={jobs} compilations={compilations} "
                "cache_hits={cache_hits} wall_time_s={wall:.3f}".format(
                    status=status,
                    jobs=summary.get("jobs"),
                    compilations=summary.get("compilations"),
                    cache_hits=summary.get("cache_hits"),
                    wall=float(summary.get("wall_time_s", 0.0)),
                )
            )
        else:
            print(f"status={status}")
        error = end.get("error")
        if isinstance(error, dict):
            print(f"error: {error.get('type')}: {error.get('message')}", file=sys.stderr)
    output = getattr(args, "output", None)
    if output is not None:
        written = write_records(rows, output, fmt=args.output_format)
        print(f"records written to {written}")
    return 0 if end.get("status") == "done" else 1


def _command_submit(args: argparse.Namespace) -> int:
    client = _service_client(args)
    if not args.manifest.exists():
        raise ReproError(f"manifest file {args.manifest} does not exist")
    receipt = client.submit_file(args.manifest, priority=args.priority)
    print(
        "job_id={job_id} status={status} jobs={jobs} resubmitted={resubmitted}".format(
            **{key: receipt.get(key) for key in ("job_id", "status", "jobs", "resubmitted")}
        )
    )
    if args.wait or args.output is not None:  # --output implies waiting
        return _print_streamed_results(client, receipt["job_id"], args)
    print(f"results: {args.url}{receipt.get('results_path', '')}")
    return 0


def _command_results(args: argparse.Namespace) -> int:
    client = _service_client(args)
    return _print_streamed_results(client, args.job_id, args)


def _print_metrics(client, raw: bool) -> int:
    """Render ``/v1/metrics`` as a table (or verbatim with ``raw``)."""
    text = client.metrics()
    if raw:
        print(text, end="")
        return 0
    from repro.obs import parse_exposition

    rows = []
    for name, metric in sorted(parse_exposition(text).items()):
        for sample in metric.samples:
            labels = ",".join(
                f"{key}={value}" for key, value in sample.labels_dict().items()
            )
            rows.append(
                {
                    "metric": sample.name,
                    "labels": labels or "-",
                    "kind": metric.kind,
                    "value": sample.value,
                }
            )
    print(format_table(rows, title="service metrics"))
    return 0


def _command_jobs(args: argparse.Namespace) -> int:
    client = _service_client(args)
    if args.metrics:
        return _print_metrics(client, raw=args.raw)
    if args.cancel is not None:
        payload = client.cancel(args.cancel)
        print(
            "job_id={job_id} status={status} cancel_requested={cancel_requested}".format(
                **payload
            )
        )
        return 0
    page = client.jobs_page(offset=args.offset, limit=args.limit)
    rows = [
        {
            "job_id": job["job_id"],
            "status": job["status"],
            "priority": job.get("priority", 0),
            "jobs": job["jobs"],
            "completed": job["completed"],
            "created_at": job["created_at"],
        }
        for job in page["jobs"]
    ]
    if rows:
        print(format_table(rows, title="service jobs"))
    print(
        "total={total} offset={offset} count={count}".format(
            total=page["total"], offset=page["offset"], count=page["count"]
        )
    )
    return 0


def _command_loadgen(args: argparse.Namespace) -> int:
    # Deferred import like the other service commands.
    from repro.loadgen import run_profile

    result = run_profile(
        args.url,
        args.profile,
        requests=args.requests,
        seed=args.seed,
        concurrency=args.concurrency,
        timeout=args.timeout,
    )
    summary = result.as_dict()
    latency = summary["latency_s"]
    print(
        format_table(
            [
                {
                    "profile": summary["profile"],
                    "requests": summary["requests"],
                    "throughput_rps": summary["throughput_rps"],
                    "p50_s": latency["p50"],
                    "p95_s": latency["p95"],
                    "p99_s": latency["p99"],
                    "max_s": latency["max"],
                    "wall_s": summary["wall_s"],
                }
            ],
            title=f"loadgen {summary['profile']} (seed {summary['seed']})",
        )
    )
    print(
        "statuses="
        + " ".join(f"{k}:{v}" for k, v in sorted(summary["statuses"].items()))
        + f" resubmitted={summary['resubmitted']}"
    )
    if args.output is not None:
        args.output.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        print(f"result written to {args.output}")
    return 0 if result.ok else 1


def _command_fuzz(args: argparse.Namespace) -> int:
    # Deferred import: the fuzz subsystem pulls in every compiler.
    from repro.fuzz import run_fuzz

    result = run_fuzz(
        cases=args.cases,
        seed=args.seed,
        time_budget_s=args.time_budget,
        corpus_dir=args.corpus,
        minimize=args.minimize,
        failures_dir=args.failures,
        on_progress=None if args.quiet else print,
    )
    print(result.summary())
    for failure in result.failures:
        print(f"  {failure.source}: [{failure.check}] {failure.detail}")
        if failure.reproducer_path is not None:
            print(f"    reproducer: {failure.reproducer_path}")
    return 0 if result.ok else 1


def _command_evaluate(args: argparse.Namespace) -> int:
    schedule = schedule_from_json(args.schedule.read_text())
    evaluation = evaluate_schedule(schedule, gate_implementation=args.gate_implementation)
    rows = [
        {
            "circuit": schedule.circuit_name,
            "device": schedule.device.name,
            "gate_implementation": args.gate_implementation,
            "2q_gates": schedule.two_qubit_gate_count,
            "shuttles": schedule.shuttle_count,
            "swaps": schedule.swap_count,
            "success_rate": evaluation.success_rate,
            "exec_time_ms": evaluation.execution_time_us / 1e3,
        }
    ]
    print(format_table(rows, title="schedule evaluation"))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "compile": _command_compile,
        "compare": _command_compare,
        "compilers": _command_compilers,
        "evaluate": _command_evaluate,
        "batch": _command_batch,
        "serve": _command_serve,
        "submit": _command_submit,
        "results": _command_results,
        "jobs": _command_jobs,
        "loadgen": _command_loadgen,
        "fuzz": _command_fuzz,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

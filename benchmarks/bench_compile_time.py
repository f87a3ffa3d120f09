"""Tracked compile-time benchmark harness (``BENCH_compile_time.json``).

Compile time is a first-class result of the paper (Fig. 15), so its
trajectory is tracked machine-readably from PR 3 onward.  The harness
measures two suites and writes
``benchmarks/results/BENCH_compile_time.json``:

* the **scaled suite** — every (compiler, circuit, size) point on the
  Fig. 15 device (G-2x2, trap capacity 20): the stock ``s-sync``
  compiler (flat scheduler core), the ``s-sync-naive`` reference core
  it is parity-locked to, and the ``murali`` baseline;
* the **backend points** — 64/96/128-qubit flat-core points on
  routing-bound devices (many traps, tight capacity: the regime where
  candidate scoring dominates compile time), tracked as absolute
  numbers;
* the **gate point** — ``alt_32`` on G-2x3 at capacity 8, compiled by
  the flat core and the naive reference: small enough for the naive
  core to finish within a CI budget, routing-bound enough to show the
  flat core's margin.

Repeats are *interleaved* across compilers within each point — every
compiler sees the same slice of machine noise, so the flat-versus-naive
ratio is stable enough to gate on (process-to-process variance alone
is ~20%).  Per point the harness also records the delta
of the ``repro_engine_compile_seconds_total`` counter (the same
instrument the batch engine exposes on ``/v1/metrics``), tying the
benchmark numbers to the service's observability vocabulary.

The committed JSON carries:

* ``points`` / ``backend_points`` / ``gate_points`` — the current
  measurements (best-of-N total seconds plus the routing-pass seconds);
* ``baseline.points`` — the scaled suite measured on an earlier tree
  (recorded once with ``--save-baseline``);
* ``speedups`` — current versus baseline per scaled point;
* ``gate_speedup`` — flat versus naive routing at the gate point;
* ``serialization`` — the artifact-path section: encode/decode times
  and sizes of the binary schedule codec versus the JSON document form
  on the 64-qubit ``alt`` backend point, plus measured disk-hit latency
  through a real ``ScheduleCache`` (binary v3 entry).

Usage::

    PYTHONPATH=src python benchmarks/bench_compile_time.py            # measure + write JSON
    PYTHONPATH=src python benchmarks/bench_compile_time.py --full     # paper-scale sizes
    PYTHONPATH=src python benchmarks/bench_compile_time.py --save-baseline
    PYTHONPATH=src python benchmarks/bench_compile_time.py \
        --check benchmarks/results/BENCH_compile_time.json            # CI regression gate
    PYTHONPATH=src python benchmarks/bench_compile_time.py \
        --check benchmarks/results/BENCH_compile_time.json --gate-only  # CI smoke
    PYTHONPATH=src python benchmarks/bench_compile_time.py \
        --serialization-only --check benchmarks/results/BENCH_compile_time.json

``--check`` re-measures the suite and exits non-zero when any point's
routing seconds regressed more than ``--threshold`` (default 2x) over
the committed numbers, or when the flat core loses its 4x routing
margin over the naive reference at the gate point.  ``--gate-only``
restricts the run to that single gate point — the CI smoke
configuration.  ``--serialization-only`` restricts the run to the
serialization section, whose own (machine-independent) gates require
binary decode to stay at least 3x faster than JSON parsing and binary
cache entries at least 2x smaller than their JSON form.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

from repro.circuit.library import build_family
from repro.core.compiler import SSyncCompiler, SSyncConfig
from repro.core.scheduler import SchedulerConfig
from repro.hardware.presets import paper_device
from repro.obs import MetricsRegistry
from repro.registry import make_pipeline
from repro.runtime.cache import CachedCompilation, ScheduleCache
from repro.schedule.serialize import (
    schedule_from_bytes,
    schedule_from_dict,
    schedule_to_bytes,
    schedule_to_dict,
)

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_compile_time.json"

FORMAT_VERSION = 3
DEVICE_NAME = "G-2x2"
CAPACITY = 20
FAMILIES = ("qft", "alt", "qaoa", "bv")
SCALED_SIZES = (16, 24, 32)
FULL_SIZES = (48, 56, 64)

#: Backend points: size -> (device, capacity).  Routing-bound on
#: purpose — many traps and tight slack maximise candidates per
#: iteration, which is the regime the flat batched scorer optimises.
#: (G-2x2 at capacity 20 tops out at 80 ions, so 96/128 qubits need the
#: wider grids regardless.)
BACKEND_DEVICES: dict[int, tuple[str, int]] = {
    64: ("G-3x3", 8),
    96: ("G-2x4", 14),
    128: ("G-2x4", 18),
}
BACKEND_FAMILIES = ("qft", "alt")

#: The CI-gated point: flat routing must stay at least this many times
#: faster than the naive reference on this circuit/size/device (whole
#: compiles measured 7.2x on a 2-core VM).  The naive core needs about
#: 170 s for ``alt_64``, too long for CI, hence the smaller point.
GATE_CIRCUIT = "alt"
GATE_SIZE = 32
GATE_DEVICE = ("G-2x3", 8)
GATE_RATIO = 4.0

#: The workload the serialization section encodes and decodes.
SERIALIZATION_CIRCUIT = "alt"
SERIALIZATION_SIZE = 64

#: Serialization gates (machine-independent ratios, measured in one run
#: on ``alt_64``): binary decode must stay at least 3x
#: faster than parsing the JSON document form (measured ~4.7x), and a
#: binary cache entry at least 2x smaller than its JSON form (~4.8x).
DECODE_SPEEDUP_GATE = 3.0
ENTRY_SIZE_RATIO_GATE = 2.0

# The benchmark accounts its compile wall-time into the same counter
# the batch engine binds on /v1/metrics, and reports the per-point
# delta — one vocabulary across service dashboards and benchmark JSON.
_METRICS = MetricsRegistry()
_COMPILE_SECONDS = _METRICS.counter(
    "repro_engine_compile_seconds_total",
    "Wall-clock seconds spent inside fresh compilations; divide by "
    "uptime times workers for pool utilisation.",
)


def _ssync_compilers(device) -> dict[str, Any]:
    """The flat core (stock ``s-sync``) and the naive reference core."""
    naive = SSyncConfig(scheduler=SchedulerConfig(backend="naive"))
    return {
        "s-sync": SSyncCompiler(device).compile,
        "s-sync-naive": SSyncCompiler(device, naive).compile,
    }


def _scaled_compilers(device) -> dict[str, Any]:
    """Name -> ``compile(circuit) -> CompilationResult`` for the scaled suite."""
    compilers = _ssync_compilers(device)
    compilers["murali"] = lambda circuit: make_pipeline("murali", device).compile(circuit)
    return compilers


def _measure_point(
    compilers: dict[str, Any],
    circuit,
    repeats: int,
    extra: dict[str, Any],
) -> list[dict[str, Any]]:
    """Best-of-``repeats`` per compiler, repeats interleaved across them."""
    best_total = {name: float("inf") for name in compilers}
    best_routing = dict(best_total)
    last_result: dict[str, Any] = {}
    metric_delta = {name: 0.0 for name in compilers}
    for _ in range(repeats):
        for name, compile_fn in compilers.items():
            before = _COMPILE_SECONDS.value
            result = compile_fn(circuit)
            metric_delta[name] += _COMPILE_SECONDS.value - before
            last_result[name] = result
            best_total[name] = min(best_total[name], result.compile_time_s)
            best_routing[name] = min(
                best_routing[name],
                sum(t.wall_time_s for t in result.pass_timings if t.name == "routing"),
            )
    points = []
    for name, result in last_result.items():
        points.append(
            {
                "compiler": name,
                "seconds": round(best_total[name], 6),
                "routing_seconds": round(best_routing[name], 6),
                "metric_compile_seconds_delta": round(metric_delta[name], 6),
                "generic_swap_iterations": result.statistics.generic_swap_iterations,
                "candidate_evaluations": result.statistics.candidate_evaluations,
                **extra,
            }
        )
        print(
            f"{name:>20}  {extra['circuit']}_{extra['size']:<3} on "
            f"{extra.get('device', DEVICE_NAME)}  total {best_total[name]:.4f}s  "
            f"routing {best_routing[name]:.4f}s",
            flush=True,
        )
    return points


class _MeteredCompile:
    """Wrap a compile callable so its wall time feeds the shared counter."""

    def __init__(self, compile_fn) -> None:
        self._compile = compile_fn

    def __call__(self, circuit):
        result = self._compile(circuit)
        _COMPILE_SECONDS.inc(result.compile_time_s)
        return result


def _metered(compilers: dict[str, Any]) -> dict[str, Any]:
    return {name: _MeteredCompile(fn) for name, fn in compilers.items()}


def measure_points(repeats: int = 5, full: bool = False) -> list[dict[str, Any]]:
    """The scaled suite: every (compiler, circuit, size) point on G-2x2."""
    sizes = FULL_SIZES if full else SCALED_SIZES
    compilers = _metered(_scaled_compilers(paper_device(DEVICE_NAME, CAPACITY)))
    points: list[dict[str, Any]] = []
    for family in FAMILIES:
        for size in sizes:
            circuit = build_family(family, size)
            points.extend(
                _measure_point(
                    compilers,
                    circuit,
                    repeats,
                    {"circuit": family, "size": size, "device": DEVICE_NAME, "capacity": CAPACITY},
                )
            )
    return points


def measure_backend_points(repeats: int = 3) -> list[dict[str, Any]]:
    """The 64/96/128-qubit flat-core points."""
    points: list[dict[str, Any]] = []
    for size, (device_name, capacity) in BACKEND_DEVICES.items():
        device = paper_device(device_name, capacity)
        compilers = _metered({"s-sync": SSyncCompiler(device).compile})
        for family in BACKEND_FAMILIES:
            points.extend(
                _measure_point(
                    compilers,
                    build_family(family, size),
                    repeats,
                    {"circuit": family, "size": size, "device": device_name, "capacity": capacity},
                )
            )
    return points


def measure_gate_points(repeats: int = 3) -> list[dict[str, Any]]:
    """The CI-gated point: flat and naive cores, repeats interleaved."""
    device_name, capacity = GATE_DEVICE
    compilers = _metered(_ssync_compilers(paper_device(device_name, capacity)))
    return _measure_point(
        compilers,
        build_family(GATE_CIRCUIT, GATE_SIZE),
        repeats,
        {"circuit": GATE_CIRCUIT, "size": GATE_SIZE, "device": device_name, "capacity": capacity},
    )


def _point_key(point: dict[str, Any]) -> tuple[str, str, int, str]:
    return (
        str(point["compiler"]),
        str(point["circuit"]),
        int(point["size"]),
        str(point.get("device", DEVICE_NAME)),
    )


def compute_speedups(
    points: list[dict[str, Any]], baseline_points: list[dict[str, Any]]
) -> list[dict[str, Any]]:
    """Current-vs-baseline speedup for every s-sync point present in both."""
    current = {_point_key(p): p for p in points}
    speedups: list[dict[str, Any]] = []
    for base in baseline_points:
        key = _point_key(base)
        now = current.get(key)
        if now is None or key[0] != "s-sync":
            continue
        speedups.append(
            {
                "circuit": base["circuit"],
                "size": base["size"],
                "baseline_seconds": base["seconds"],
                "seconds": now["seconds"],
                "speedup_total": round(base["seconds"] / max(now["seconds"], 1e-9), 2),
                "baseline_routing_seconds": base["routing_seconds"],
                "routing_seconds": now["routing_seconds"],
                "speedup_routing": round(
                    base["routing_seconds"] / max(now["routing_seconds"], 1e-9), 2
                ),
            }
        )
    return speedups


def compute_gate_speedup(gate_points: list[dict[str, Any]]) -> dict[str, Any] | None:
    """Flat-core routing speedup over the naive core at the gate point."""
    by_compiler = {p["compiler"]: p for p in gate_points}
    flat = by_compiler.get("s-sync")
    naive = by_compiler.get("s-sync-naive")
    if flat is None or naive is None:
        return None
    flat_s = float(flat["routing_seconds"])
    naive_s = float(naive["routing_seconds"])
    return {
        "circuit": GATE_CIRCUIT,
        "size": GATE_SIZE,
        "device": GATE_DEVICE[0],
        "capacity": GATE_DEVICE[1],
        "flat_routing_seconds": flat_s,
        "naive_routing_seconds": naive_s,
        "speedup_routing": round(naive_s / max(flat_s, 1e-9), 2),
    }


def _best_of(fn, repeats: int) -> float:
    """Minimum wall time of ``repeats`` calls to ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _time_disk_hits(entry: CachedCompilation, repeats: int) -> float:
    """Best-of-N cold disk-hit latency of a binary v3 entry.

    Each sample builds a fresh :class:`ScheduleCache` (empty memory
    tier), hits the on-disk entry, and fully materialises the cached
    schedule — the complete price a worker pays to reuse a compilation
    after a restart.
    """
    best = float("inf")
    with tempfile.TemporaryDirectory() as tmp:
        ScheduleCache(directory=tmp).put("fp", entry)
        for _ in range(repeats):
            cache = ScheduleCache(directory=tmp)
            started = time.perf_counter()
            loaded = cache.get("fp")
            list(loaded.schedule())
            best = min(best, time.perf_counter() - started)
    return best


def measure_serialization(repeats: int = 5) -> dict[str, Any]:
    """The artifact-path section: codec times, sizes, disk-hit latency.

    One compilation of the ``alt_64`` backend-point workload, then
    best-of-N timings of the four (codec, direction) pairs on its
    schedule.  Decode timings include full operation materialisation so
    the binary path cannot win by laziness alone.
    """
    device_name, capacity = BACKEND_DEVICES[SERIALIZATION_SIZE]
    device = paper_device(device_name, capacity)
    result = SSyncCompiler(device).compile(
        build_family(SERIALIZATION_CIRCUIT, SERIALIZATION_SIZE)
    )
    schedule = result.schedule
    json_text = json.dumps(schedule_to_dict(schedule), sort_keys=True)
    blob = schedule_to_bytes(schedule)
    entry = CachedCompilation.from_result(result)
    entry_blob = entry.to_bytes()
    entry_json_bytes = len(json.dumps(entry.to_dict(), sort_keys=True))

    json_encode_s = _best_of(
        lambda: json.dumps(schedule_to_dict(schedule), sort_keys=True), repeats
    )
    binary_encode_s = _best_of(lambda: schedule_to_bytes(schedule), repeats)
    json_parse_s = _best_of(
        lambda: list(schedule_from_dict(json.loads(json_text))), repeats
    )
    binary_decode_s = _best_of(lambda: list(schedule_from_bytes(blob)), repeats)
    disk_hit_binary_s = _time_disk_hits(entry, repeats)

    section = {
        "circuit": SERIALIZATION_CIRCUIT,
        "size": SERIALIZATION_SIZE,
        "device": device_name,
        "capacity": capacity,
        "operations": len(schedule),
        "json_encode_seconds": round(json_encode_s, 6),
        "binary_encode_seconds": round(binary_encode_s, 6),
        "json_parse_seconds": round(json_parse_s, 6),
        "binary_decode_seconds": round(binary_decode_s, 6),
        "decode_speedup": round(json_parse_s / max(binary_decode_s, 1e-9), 2),
        "encode_speedup": round(json_encode_s / max(binary_encode_s, 1e-9), 2),
        "schedule_json_bytes": len(json_text),
        "schedule_binary_bytes": len(blob),
        "entry_json_bytes": entry_json_bytes,
        "entry_binary_bytes": len(entry_blob),
        "entry_size_ratio": round(entry_json_bytes / max(len(entry_blob), 1), 2),
        "disk_hit_binary_seconds": round(disk_hit_binary_s, 6),
    }
    print(
        f"{'serialization':>20}  {SERIALIZATION_CIRCUIT}_{SERIALIZATION_SIZE} on {device_name}  "
        f"decode {section['decode_speedup']}x  "
        f"entry size {section['entry_size_ratio']}x  "
        f"disk hit {disk_hit_binary_s:.4f}s",
        flush=True,
    )
    return section


def check_serialization(section: dict[str, Any]) -> list[str]:
    """Gate messages for the serialization section (same-run ratios)."""
    failures: list[str] = []
    if section["decode_speedup"] < DECODE_SPEEDUP_GATE:
        failures.append(
            f"binary decode lost its {DECODE_SPEEDUP_GATE:.0f}x margin over JSON "
            f"parse: {section['binary_decode_seconds']:.4f}s vs "
            f"{section['json_parse_seconds']:.4f}s "
            f"({section['decode_speedup']:.2f}x)"
        )
    if section["entry_size_ratio"] < ENTRY_SIZE_RATIO_GATE:
        failures.append(
            f"binary cache entry lost its {ENTRY_SIZE_RATIO_GATE:.0f}x size margin: "
            f"{section['entry_binary_bytes']} bytes vs "
            f"{section['entry_json_bytes']} JSON bytes "
            f"({section['entry_size_ratio']:.2f}x)"
        )
    return failures


#: Points faster than this are timer/noise dominated and are excluded
#: from the cross-run regression gate.
MIN_CHECKED_SECONDS = 0.001


def check_regressions(
    points: list[dict[str, Any]], committed: dict[str, Any], threshold: float
) -> list[str]:
    """Regression messages for this run versus the committed numbers.

    Two gates, so the check stays meaningful on machines slower or
    faster than the one that produced the committed file:

    * absolute — a point's routing seconds must not exceed
      ``threshold`` x the committed value (sub-millisecond points are
      skipped: they are noise-dominated);
    * backend (machine-independent) — at the gate point, the flat
      core's routing must stay at least ``GATE_RATIO`` times faster
      than the naive reference measured in the same run with
      interleaved repeats.
    """
    fresh = {_point_key(p): p for p in points}
    failures: list[str] = []
    committed_points = list(committed.get("points", []))
    committed_points.extend(committed.get("backend_points", []))
    committed_points.extend(committed.get("gate_points", []))
    for committed_point in committed_points:
        key = _point_key(committed_point)
        now = fresh.get(key)
        if now is None:
            continue
        old = float(committed_point["routing_seconds"])
        new = float(now["routing_seconds"])
        if old >= MIN_CHECKED_SECONDS and new > threshold * old:
            failures.append(
                f"{key[0]} {key[1]}_{key[2]} on {key[3]}: routing {new:.4f}s > "
                f"{threshold:.1f}x committed {old:.4f}s"
            )
    gate_device = GATE_DEVICE[0]
    flat = fresh.get(("s-sync", GATE_CIRCUIT, GATE_SIZE, gate_device))
    naive = fresh.get(("s-sync-naive", GATE_CIRCUIT, GATE_SIZE, gate_device))
    if flat is not None and naive is not None:
        flat_s = float(flat["routing_seconds"])
        naive_s = float(naive["routing_seconds"])
        if naive_s < GATE_RATIO * flat_s:
            failures.append(
                f"flat core lost its {GATE_RATIO:.0f}x margin at "
                f"{GATE_CIRCUIT}_{GATE_SIZE} on {gate_device}: flat {flat_s:.4f}s vs "
                f"naive {naive_s:.4f}s ({naive_s / max(flat_s, 1e-9):.2f}x)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--output", type=Path, default=RESULTS_PATH)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--full", action="store_true", help="paper-scale circuit sizes")
    parser.add_argument(
        "--gate-only",
        action="store_true",
        help="measure only the CI-gated flat-versus-naive point (smoke mode)",
    )
    parser.add_argument(
        "--skip-backend",
        action="store_true",
        help="skip the 64/96/128-qubit backend points",
    )
    parser.add_argument(
        "--serialization-only",
        action="store_true",
        help="measure only the serialization/cache artifact section",
    )
    parser.add_argument(
        "--save-baseline",
        action="store_true",
        help="record this run as the pre-change baseline section",
    )
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        metavar="COMMITTED_JSON",
        help="re-measure and fail on regression versus a committed run",
    )
    parser.add_argument("--threshold", type=float, default=2.0)
    args = parser.parse_args(argv)

    serialization: dict[str, Any] | None = None
    points: list[dict[str, Any]] = []
    backend_points: list[dict[str, Any]] = []
    gate_points: list[dict[str, Any]] = []
    if args.serialization_only:
        serialization = measure_serialization(repeats=args.repeats)
    elif args.gate_only:
        gate_points = measure_gate_points(repeats=args.repeats)
    else:
        points = measure_points(repeats=args.repeats, full=args.full)
        repeats = max(3, args.repeats // 2 + 1)
        if not args.skip_backend:
            backend_points = measure_backend_points(repeats=repeats)
        gate_points = measure_gate_points(repeats=repeats)
        serialization = measure_serialization(repeats=repeats)

    if args.check is not None:
        committed = json.loads(args.check.read_text())
        failures = check_regressions(
            points + backend_points + gate_points, committed, args.threshold
        )
        if serialization is not None:
            failures.extend(check_serialization(serialization))
        # Write the measurements before deciding the exit code, so a red
        # CI run still uploads the numbers that triggered it.
        if args.output != RESULTS_PATH:
            args.output.parent.mkdir(parents=True, exist_ok=True)
            args.output.write_text(
                json.dumps(
                    {
                        "points": points,
                        "backend_points": backend_points,
                        "gate_points": gate_points,
                        "gate_speedup": compute_gate_speedup(gate_points),
                        "serialization": serialization,
                    },
                    indent=2,
                    sort_keys=True,
                )
                + "\n"
            )
        if failures:
            print("\ncompile-time regression detected:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"\nno point regressed more than {args.threshold:.1f}x; all good")
        return 0

    existing: dict[str, Any] = {}
    if args.output.exists():
        existing = json.loads(args.output.read_text())

    if args.serialization_only:
        # Merge the fresh section into the committed document in place.
        existing["serialization"] = serialization
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote {args.output} (serialization section only)")
        return 0

    document: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "device": DEVICE_NAME,
        "capacity": CAPACITY,
        "repeats": args.repeats,
        "full_scale": args.full,
        "python": platform.python_version(),
        "points": points,
        "backend_points": backend_points,
        "gate_points": gate_points,
        "baseline": existing.get("baseline", {}),
        "speedups": [],
        "gate_speedup": compute_gate_speedup(gate_points),
        "serialization": serialization,
    }
    if args.save_baseline:
        document["baseline"] = {
            "note": "recorded with --save-baseline",
            "points": points,
        }
    baseline_points = document["baseline"].get("points", [])
    document["speedups"] = compute_speedups(points, baseline_points)

    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {args.output}")
    for speedup in document["speedups"]:
        print(
            f"  {speedup['circuit']}_{speedup['size']}: routing "
            f"{speedup['baseline_routing_seconds']:.4f}s -> {speedup['routing_seconds']:.4f}s "
            f"({speedup['speedup_routing']}x)"
        )
    gate = document["gate_speedup"]
    if gate is not None:
        print(
            f"  gate {gate['circuit']}_{gate['size']} on {gate['device']}: flat "
            f"{gate['flat_routing_seconds']:.4f}s vs naive "
            f"{gate['naive_routing_seconds']:.4f}s ({gate['speedup_routing']}x)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

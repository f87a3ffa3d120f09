"""Output checks: the naive-core reference file, legality replay and
byte parity of service records with in-process ``run_batch`` output."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

import pools
from common import Outcome

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

RECORD_MARK = b', "record": '
RECORD_TAIL = b', "type": "outcome"}'


def load_expected() -> "dict[str, dict]":
    return json.loads(EXPECTED_PATH.read_text())["keys"]


def key_of(spec: dict) -> "pools.Key":
    """The pool key of a manifest job object."""
    return pools.Key(
        spec["circuit"], spec["device"], spec.get("capacity"),
        spec.get("compiler", "s-sync"), spec.get("mapping"),
    )


def check_record(
    outcome: Outcome, expected: "dict[str, dict]", key: "pools.Key", record: dict, where: str
) -> None:
    """Compare one record with the naive-core reference values."""
    want = expected.get(key.name)
    if want is None:
        outcome.fail(f"{where}: {key.name} is not in expected.json")
        return
    implementation = record.get("gate_implementation", "fm")
    got = (
        record.get("shuttles"), record.get("swaps"), record.get("two_qubit_gates"),
        record.get("log_success_rate"),
    )
    ref = (
        want["shuttles"], want["swaps"], want["two_qubit_gates"],
        want["log_success_rate"][implementation],
    )
    if got != ref:
        outcome.fail(f"{where}: {key.name}/{implementation} gave {got}, reference {ref}")


def record_bytes(line: bytes) -> "bytes | None":
    """The record bytes spliced into one streamed outcome line."""
    start = line.find(RECORD_MARK)
    if start < 0 or not line.endswith(RECORD_TAIL):
        return None
    return line[start + len(RECORD_MARK) : -len(RECORD_TAIL)]


def initial_state(key: "pools.Key") -> "tuple[Any, Any]":
    """Rebuild (circuit, starting placement) by running the mapping pass."""
    from repro.pipeline import PassContext
    from repro.registry import compiler_spec, make_pipeline
    from repro.runtime.jobs import CompileJob

    job = CompileJob(
        circuit=key.circuit, device=key.device, capacity=key.capacity,
        compiler=key.compiler, initial_mapping=key.mapping,
    )
    spec = compiler_spec(job.compiler)
    circuit, device = job.resolve_circuit(), job.resolve_device()
    pipeline = make_pipeline(spec.name, device)
    context = PassContext(
        circuit=circuit, device=device, compiler_name=spec.name,
        requested_mapping=job.initial_mapping if spec.accepts_mapping else None,
    )
    pipeline.passes[0].run(context)
    return circuit, context.initial_state


def replay_cache(outcome: Outcome, cache_root: Path, keys: "Iterable[pools.Key]") -> int:
    """Replay every cached schedule of ``keys`` through ``verify_schedule``.

    Entries are found by compile fingerprint anywhere under
    ``cache_root`` (a service cache, or every fleet worker's cache).
    Returns the number of schedules replayed.
    """
    from repro.runtime.cache import CachedCompilation
    from repro.runtime.jobs import CompileJob
    from repro.schedule.verify import ScheduleVerificationError, verify_schedule

    files = {path.stem: path for path in cache_root.rglob("*.sched")}
    replayed = 0
    for key in keys:
        fingerprint = CompileJob(
            circuit=key.circuit, device=key.device, capacity=key.capacity,
            compiler=key.compiler, initial_mapping=key.mapping,
        ).compile_fingerprint()
        path = files.get(fingerprint)
        if path is None:
            outcome.fail(f"replay: no cached schedule for {key.name}")
            continue
        schedule = CachedCompilation.from_bytes(path.read_bytes()).schedule()
        circuit, state = initial_state(key)
        try:
            verify_schedule(schedule, state, circuit=circuit)
        except ScheduleVerificationError as exc:
            outcome.fail(f"replay: {key.name}: {exc}")
        replayed += 1
    return replayed

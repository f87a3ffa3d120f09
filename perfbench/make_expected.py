"""Regenerate ``expected.json`` with the naive reference scheduler core.

Run from the repository root::

    python3 perfbench/make_expected.py

Every key of every workload pool is compiled with
``SchedulerConfig(backend="naive")`` -- the executable specification of
the S-SYNC scheduler, never the flat core the benchmark measures -- and
evaluated under each gate implementation.  The Murali and Dai baselines
have a single router and are compiled as they are.  The benchmark
compares every record it receives against this file.  Regenerate it
only when a change is meant to alter schedules.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pools  # noqa: E402

EXPECTED_PATH = HERE / "expected.json"


def reference_row(key: "pools.Key") -> "tuple[str, dict]":
    """Compile ``key`` with the naive core and evaluate it four ways."""
    from repro.core.compiler import SSyncConfig
    from repro.core.scheduler import SchedulerConfig
    from repro.noise.evaluator import evaluate_schedule
    from repro.runtime.jobs import CompileJob, compile_job

    config = None
    if key.compiler == "s-sync":
        config = SSyncConfig(scheduler=SchedulerConfig(backend="naive"))
    job = CompileJob(
        circuit=key.circuit,
        device=key.device,
        capacity=key.capacity,
        compiler=key.compiler,
        initial_mapping=key.mapping,
        config=config,
    )
    result = compile_job(job)
    schedule = result.schedule
    row = {
        "shuttles": schedule.shuttle_count,
        "swaps": schedule.swap_count,
        "two_qubit_gates": schedule.two_qubit_gate_count,
        "log_success_rate": {
            name: evaluate_schedule(schedule, gate_implementation=name).log_success_rate
            for name in pools.GATE_IMPLEMENTATIONS
        },
    }
    return key.name, row


def main() -> int:
    keys = pools.all_keys()
    start = time.perf_counter()
    rows: dict = {}
    # Largest first, so the long naive compiles overlap the rest.
    with multiprocessing.get_context("spawn").Pool(os.cpu_count()) as pool:
        for name, row in pool.imap_unordered(reference_row, keys):
            rows[name] = row
            print(f"{time.perf_counter() - start:8.1f}s {name}", flush=True)
    document = {
        "core": "naive",
        "keys": {name: rows[name] for name in sorted(rows)},
    }
    EXPECTED_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(rows)} keys to {EXPECTED_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Shared helpers for the figure/table regeneration benchmarks.

Every benchmark module regenerates the data behind one of the paper's
tables or figures, writes it as a text table under
``benchmarks/results/`` and runs a small representative workload under
``pytest-benchmark`` so ``pytest benchmarks/ --benchmark-only`` both
times the compiler and reproduces the artefacts.

Set ``REPRO_FULL=1`` to run the paper-scale circuit sizes (64-qubit
QFT, 32-bit adder, 48-spin Heisenberg...); the default sizes are scaled
down so the whole harness finishes in a couple of minutes while
preserving the comparisons' shape.
"""

from __future__ import annotations

import os
from functools import lru_cache
from pathlib import Path

from repro.analysis.metrics import ComparisonRecord, compare_compilers
from repro.circuit.library import build_benchmark
from repro.hardware.presets import paper_device

RESULTS_DIR = Path(__file__).parent / "results"

#: Untracked home of wall-clock tables: timings differ on every run, so
#: they never go into the tracked tables under ``RESULTS_DIR``.
TIMINGS_DIR = Path(__file__).parent.parent / ".bench_run" / "timings"

#: Paper-scale workloads of Figs. 8-10: benchmark name -> topologies.
FULL_WORKLOADS: dict[str, tuple[str, ...]] = {
    "qft_24": ("S-4", "L-6", "G-2x2", "G-2x3", "G-3x3"),
    "adder_32": ("S-4", "L-4", "G-2x2", "G-2x3"),
    "qaoa_64": ("S-4", "L-4", "G-2x2", "G-2x3", "G-3x3"),
    "alt_64": ("S-4", "G-2x2", "G-2x3", "G-3x3"),
    "qft_64": ("S-4", "G-2x2", "G-3x3"),
    "bv_64": ("S-4", "L-6", "G-2x3", "G-3x3"),
}

#: Scaled-down default workloads with the same communication character.
SCALED_WORKLOADS: dict[str, tuple[str, ...]] = {
    "qft_24": ("S-4", "L-6", "G-2x2", "G-2x3", "G-3x3"),
    "adder_16": ("S-4", "L-4", "G-2x2", "G-2x3"),
    "qaoa_32": ("S-4", "L-4", "G-2x2", "G-2x3", "G-3x3"),
    "alt_32": ("S-4", "G-2x2", "G-2x3", "G-3x3"),
    "qft_32": ("S-4", "G-2x2", "G-3x3"),
    "bv_48": ("S-4", "L-6", "G-2x3", "G-3x3"),
}


def full_scale() -> bool:
    """True when the harness should run paper-scale workloads."""
    return os.environ.get("REPRO_FULL", "0") not in ("", "0", "false", "False")


def comparison_workloads() -> dict[str, tuple[str, ...]]:
    """The benchmark -> topology map used by Figs. 8-10."""
    return FULL_WORKLOADS if full_scale() else SCALED_WORKLOADS


def save_table(name: str, text: str) -> Path:
    """Write one artefact's text table under ``benchmarks/results/``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    return path


def save_timings(name: str, text: str) -> Path:
    """Write one artefact's wall-clock table under ``.bench_run/timings/``."""
    TIMINGS_DIR.mkdir(parents=True, exist_ok=True)
    path = TIMINGS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    return path


@lru_cache(maxsize=None)
def comparison_records(full: bool) -> tuple[ComparisonRecord, ...]:
    """Compile every (benchmark, topology) pair with every compiler.

    Cached so Figs. 8, 9 and 10 (and the headline summary) share one set
    of compilations within a single pytest session.
    """
    workloads = FULL_WORKLOADS if full else SCALED_WORKLOADS
    records: list[ComparisonRecord] = []
    for bench_name, topologies in workloads.items():
        circuit = build_benchmark(bench_name)
        for topology in topologies:
            device = paper_device(topology)
            if device.total_capacity <= circuit.num_qubits:
                continue
            records.extend(compare_compilers(circuit, device))
    return tuple(records)


def records_as_rows(records: tuple[ComparisonRecord, ...], value_key: str) -> list[dict[str, object]]:
    """Pivot comparison records into one row per (circuit, device)."""
    rows: dict[tuple[str, str], dict[str, object]] = {}
    for record in records:
        key = (record.circuit, record.device)
        row = rows.setdefault(key, {"circuit": record.circuit, "device": record.device})
        row[record.compiler] = getattr(record, value_key)
    return [rows[key] for key in sorted(rows)]

"""E10 — Fig. 15: compilation-time scaling with application size.

Regenerates the compilation-time curves (S-SYNC versus the Murali et al.
baseline on QFT, plus S-SYNC across the whole benchmark suite) on the
G-2x2 topology with trap capacity 20, and asserts that S-SYNC's
compilation time stays within an interactive budget at every measured
size.  The tracked table holds the deterministic work counters (generic
swap iterations, candidate evaluations); the wall-clock times go to the
untracked ``.bench_run/timings/``.
"""

from __future__ import annotations

from bench_common import full_scale, save_table, save_timings

from repro.analysis.reporting import format_table
from repro.analysis.sweeps import compile_time_sweep
from repro.circuit.library import build_family
from repro.hardware.presets import paper_device


def test_fig15_compilation_time(benchmark) -> None:
    """Regenerate the Fig. 15 curves and benchmark one compile."""
    device = paper_device("G-2x2", capacity=20)
    sizes = (48, 56, 64, 72) if full_scale() else (16, 24, 32)

    # Left panel: QFT, S-SYNC versus the Murali baseline.
    qft_records = compile_time_sweep(
        lambda n: build_family("qft", n), sizes, device, compilers=("murali", "s-sync")
    )
    # Right panel: S-SYNC across the application families.  The QFT
    # curve is already covered by the left panel's s-sync points, so it
    # is not re-run — re-appending the same sweep used to duplicate the
    # qft rows in the emitted table.
    family_records = []
    for family in ("adder", "bv", "qaoa", "alt"):
        family_records.extend(
            compile_time_sweep(
                lambda n, fam=family: build_family(fam, n if fam != "adder" else max(n // 2 - 1, 2)),
                sizes,
                device,
                compilers=("s-sync",),
            )
        )

    rows = [r.as_dict() for r in qft_records] + [r.as_dict() for r in family_records]
    text = format_table(
        rows,
        columns=[
            "compiler",
            "circuit",
            "application_size",
            "generic_swap_iterations",
            "candidate_evaluations",
        ],
        title="Fig. 15 — scheduler work vs application size (G-2x2, capacity 20)",
    )
    save_table("fig15_compile_time", text)
    timings = format_table(
        rows,
        columns=["compiler", "circuit", "application_size", "compile_time_s"],
        title="Fig. 15 — compilation time (s) vs application size (G-2x2, capacity 20)",
        float_format="{:.4f}",
    )
    save_timings("fig15_compile_time", timings)
    print("\n" + text + "\n\n" + timings)

    ssync_times = [r.compile_time_s for r in qft_records + family_records if r.compiler == "s-sync"]
    assert ssync_times
    # Scalability claim: every compile stays interactive (the paper reports
    # a few seconds at 70 qubits on a laptop).
    assert max(ssync_times) < 30.0

    benchmark(
        lambda: compile_time_sweep(
            lambda n: build_family("qft", n), (16,), device, compilers=("s-sync",)
        )
    )

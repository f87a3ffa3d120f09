"""Parameter sweeps behind Figs. 11–15.

Each function describes a family of compilations varying one knob —
topology & capacity (Fig. 11), initial mapping & application size
(Fig. 12), gate implementation (Fig. 13), heuristic hyper-parameters
(Fig. 14) or application size for compilation-time scaling (Fig. 15) —
and returns flat records that the benchmark harnesses print and the
tests assert on.

Since the batch runtime landed, sweeps are *declarative*: every function
builds a list of :class:`~repro.runtime.jobs.CompileJob` items (the
``*_jobs`` builders, public so callers can compose or inspect them) and
routes it through :func:`repro.runtime.run_sweep`.  That buys each sweep
process-level parallelism (``workers``), cross-run schedule caching
(``cache``) and automatic deduplication — e.g. the gate-implementation
sweep compiles each circuit once and re-evaluates it per implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.circuit.circuit import QuantumCircuit
from repro.core.compiler import SSyncConfig
from repro.exceptions import ReproError
from repro.hardware.device import QCCDDevice
from repro.hardware.presets import paper_device, paper_preset
from repro.noise.gate_times import GateImplementation
from repro.registry import normalize_compiler_name
from repro.runtime.api import run_sweep
from repro.runtime.cache import ScheduleCache
from repro.runtime.jobs import CompileJob

CircuitFactory = Callable[[int], QuantumCircuit]


@dataclass(frozen=True)
class SweepRecord:
    """One sweep point: the swept settings plus the paper's metrics."""

    label: str
    circuit: str
    device: str
    parameter: str
    value: float | str
    shuttles: int
    swaps: int
    success_rate: float
    execution_time_us: float
    compile_time_s: float

    def as_dict(self) -> dict[str, object]:
        """Flat dictionary for reporting."""
        return {
            "label": self.label,
            "circuit": self.circuit,
            "device": self.device,
            "parameter": self.parameter,
            "value": self.value,
            "shuttles": self.shuttles,
            "swaps": self.swaps,
            "success_rate": self.success_rate,
            "execution_time_us": self.execution_time_us,
            "compile_time_s": self.compile_time_s,
        }


def _sweep_records(
    jobs: Sequence[CompileJob],
    workers: int | None,
    cache: ScheduleCache | None,
) -> list[SweepRecord]:
    """Run sweep jobs through the batch runtime and shape the rows."""
    rows = run_sweep(jobs, workers=workers, cache=cache)
    return [
        SweepRecord(
            label=str(row["label"]),
            circuit=str(row["circuit"]),
            device=str(row["device"]),
            parameter=str(row["parameter"]),
            value=row["value"],  # type: ignore[arg-type]
            shuttles=int(row["shuttles"]),  # type: ignore[arg-type]
            swaps=int(row["swaps"]),  # type: ignore[arg-type]
            success_rate=float(row["success_rate"]),  # type: ignore[arg-type]
            execution_time_us=float(row["execution_time_us"]),  # type: ignore[arg-type]
            compile_time_s=float(row["compile_time_s"]),  # type: ignore[arg-type]
        )
        for row in rows
    ]


# ----------------------------------------------------------------------
# Fig. 11 — topology and capacity sweep
# ----------------------------------------------------------------------
def topology_capacity_jobs(
    circuit_factory: CircuitFactory,
    circuit_size: int,
    topology_names: Sequence[str],
    capacities: Sequence[int],
    gate_implementation: GateImplementation | str = GateImplementation.FM,
    ssync_config: SSyncConfig | None = None,
) -> list[CompileJob]:
    """Build the Fig. 11 job list (infeasible sweep points are skipped)."""
    jobs: list[CompileJob] = []
    circuit = circuit_factory(circuit_size)
    for name in topology_names:
        preset = paper_preset(name)
        for capacity in capacities:
            device = paper_device(name, capacity)
            if device.total_capacity <= circuit.num_qubits:
                continue
            jobs.append(
                CompileJob(
                    circuit=circuit,
                    device=device,
                    gate_implementation=gate_implementation,
                    config=ssync_config,
                    label=name,
                    parameter="total_capacity",
                    value=capacity * preset.num_traps,
                )
            )
    return jobs


def topology_capacity_sweep(
    circuit_factory: CircuitFactory,
    circuit_size: int,
    topology_names: Sequence[str],
    capacities: Sequence[int],
    gate_implementation: GateImplementation | str = GateImplementation.FM,
    ssync_config: SSyncConfig | None = None,
    workers: int | None = 1,
    cache: ScheduleCache | None = None,
) -> list[SweepRecord]:
    """Success rate and execution time versus total trap capacity per topology.

    Sweep points where the circuit does not fit the device (too few total
    slots) are skipped, mirroring the gaps in the paper's Fig. 11 curves.
    """
    jobs = topology_capacity_jobs(
        circuit_factory,
        circuit_size,
        topology_names,
        capacities,
        gate_implementation=gate_implementation,
        ssync_config=ssync_config,
    )
    return _sweep_records(jobs, workers, cache)


# ----------------------------------------------------------------------
# Fig. 12 — initial mapping sweep
# ----------------------------------------------------------------------
def initial_mapping_jobs(
    circuit_factory: CircuitFactory,
    circuit_sizes: Sequence[int],
    device_name: str,
    mappings: Sequence[str] = ("gathering", "even-divided", "sta"),
    capacity: int | None = None,
    gate_implementation: GateImplementation | str = GateImplementation.FM,
    ssync_config: SSyncConfig | None = None,
) -> list[CompileJob]:
    """Build the Fig. 12 job list."""
    jobs: list[CompileJob] = []
    for size in circuit_sizes:
        circuit = circuit_factory(size)
        device = paper_device(device_name, capacity)
        if device.total_capacity <= circuit.num_qubits:
            continue
        for mapping in mappings:
            jobs.append(
                CompileJob(
                    circuit=circuit,
                    device=device,
                    initial_mapping=mapping,
                    gate_implementation=gate_implementation,
                    config=ssync_config,
                    label=mapping,
                    parameter="application_size",
                    value=size,
                )
            )
    return jobs


def initial_mapping_sweep(
    circuit_factory: CircuitFactory,
    circuit_sizes: Sequence[int],
    device_name: str,
    mappings: Sequence[str] = ("gathering", "even-divided", "sta"),
    capacity: int | None = None,
    gate_implementation: GateImplementation | str = GateImplementation.FM,
    ssync_config: SSyncConfig | None = None,
    workers: int | None = 1,
    cache: ScheduleCache | None = None,
) -> list[SweepRecord]:
    """Shuttle/SWAP/time/success-rate versus application size per mapping."""
    jobs = initial_mapping_jobs(
        circuit_factory,
        circuit_sizes,
        device_name,
        mappings=mappings,
        capacity=capacity,
        gate_implementation=gate_implementation,
        ssync_config=ssync_config,
    )
    return _sweep_records(jobs, workers, cache)


# ----------------------------------------------------------------------
# Fig. 13 — gate implementation sweep
# ----------------------------------------------------------------------
def gate_implementation_jobs(
    circuits: Sequence[QuantumCircuit],
    device: QCCDDevice,
    implementations: Sequence[GateImplementation | str] = (
        GateImplementation.FM,
        GateImplementation.AM1,
        GateImplementation.AM2,
        GateImplementation.PM,
    ),
    ssync_config: SSyncConfig | None = None,
) -> list[CompileJob]:
    """Build the Fig. 13 job list (one job per circuit × implementation)."""
    jobs: list[CompileJob] = []
    for circuit in circuits:
        for implementation in implementations:
            impl = GateImplementation.from_name(implementation)
            jobs.append(
                CompileJob(
                    circuit=circuit,
                    device=device,
                    gate_implementation=impl,
                    config=ssync_config,
                    label=impl.value,
                    parameter="gate_implementation",
                    value=impl.value,
                )
            )
    return jobs


def gate_implementation_sweep(
    circuits: Sequence[QuantumCircuit],
    device: QCCDDevice,
    implementations: Sequence[GateImplementation | str] = (
        GateImplementation.FM,
        GateImplementation.AM1,
        GateImplementation.AM2,
        GateImplementation.PM,
    ),
    ssync_config: SSyncConfig | None = None,
    workers: int | None = 1,
    cache: ScheduleCache | None = None,
) -> list[SweepRecord]:
    """Success rate of each application under each gate implementation.

    The jobs for one circuit share a compile fingerprint, so the batch
    runtime compiles each circuit once and re-evaluates the schedule
    under every implementation (the compiler itself is implementation
    agnostic).
    """
    jobs = gate_implementation_jobs(
        circuits, device, implementations=implementations, ssync_config=ssync_config
    )
    return _sweep_records(jobs, workers, cache)


# ----------------------------------------------------------------------
# Fig. 14 — hyper-parameter sensitivity
# ----------------------------------------------------------------------
def weight_ratio_jobs(
    circuit_factory: CircuitFactory,
    circuit_sizes: Sequence[int],
    device: QCCDDevice,
    ratios: Sequence[float] = (100.0, 1000.0, 10000.0, 100000.0),
    base_config: SSyncConfig | None = None,
) -> list[CompileJob]:
    """Build the Fig. 14 (left) job list."""
    jobs: list[CompileJob] = []
    base = base_config or SSyncConfig()
    for ratio in ratios:
        config = base.with_weight_ratio(ratio)
        for size in circuit_sizes:
            circuit = circuit_factory(size)
            if device.total_capacity <= circuit.num_qubits:
                continue
            jobs.append(
                CompileJob(
                    circuit=circuit,
                    device=device,
                    config=config,
                    label=f"r{int(ratio)}",
                    parameter="weight_ratio",
                    value=ratio,
                )
            )
    return jobs


def weight_ratio_sweep(
    circuit_factory: CircuitFactory,
    circuit_sizes: Sequence[int],
    device: QCCDDevice,
    ratios: Sequence[float] = (100.0, 1000.0, 10000.0, 100000.0),
    base_config: SSyncConfig | None = None,
    workers: int | None = 1,
    cache: ScheduleCache | None = None,
) -> list[SweepRecord]:
    """Success rate versus the shuttle/inner weight ratio ``r`` (Fig. 14 left)."""
    jobs = weight_ratio_jobs(
        circuit_factory, circuit_sizes, device, ratios=ratios, base_config=base_config
    )
    return _sweep_records(jobs, workers, cache)


def decay_rate_jobs(
    circuit_factory: CircuitFactory,
    circuit_sizes: Sequence[int],
    device: QCCDDevice,
    deltas: Sequence[float] = (0.0, 0.01, 0.001, 0.0001),
    base_config: SSyncConfig | None = None,
) -> list[CompileJob]:
    """Build the Fig. 14 (right) job list."""
    jobs: list[CompileJob] = []
    base = base_config or SSyncConfig()
    for delta in deltas:
        config = base.with_decay(delta)
        for size in circuit_sizes:
            circuit = circuit_factory(size)
            if device.total_capacity <= circuit.num_qubits:
                continue
            jobs.append(
                CompileJob(
                    circuit=circuit,
                    device=device,
                    config=config,
                    label=f"d{delta}",
                    parameter="decay_delta",
                    value=delta,
                )
            )
    return jobs


def decay_rate_sweep(
    circuit_factory: CircuitFactory,
    circuit_sizes: Sequence[int],
    device: QCCDDevice,
    deltas: Sequence[float] = (0.0, 0.01, 0.001, 0.0001),
    base_config: SSyncConfig | None = None,
    workers: int | None = 1,
    cache: ScheduleCache | None = None,
) -> list[SweepRecord]:
    """Success rate versus the decay rate δ (Fig. 14 right)."""
    jobs = decay_rate_jobs(
        circuit_factory, circuit_sizes, device, deltas=deltas, base_config=base_config
    )
    return _sweep_records(jobs, workers, cache)


# ----------------------------------------------------------------------
# Fig. 15 — compilation time scaling
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CompileTimeRecord:
    """One compile-time measurement point."""

    compiler: str
    circuit: str
    application_size: int
    compile_time_s: float
    generic_swap_iterations: int = 0
    candidate_evaluations: int = 0

    def as_dict(self) -> dict[str, object]:
        """Flat dictionary for reporting."""
        return {
            "compiler": self.compiler,
            "circuit": self.circuit,
            "application_size": self.application_size,
            "compile_time_s": self.compile_time_s,
            "generic_swap_iterations": self.generic_swap_iterations,
            "candidate_evaluations": self.candidate_evaluations,
        }


def compile_time_jobs(
    circuit_factory: CircuitFactory,
    circuit_sizes: Sequence[int],
    device: QCCDDevice,
    compilers: Sequence[str] = ("murali", "s-sync"),
    ssync_config: SSyncConfig | None = None,
) -> list[CompileJob]:
    """Build the Fig. 15 job list (one job per size × compiler).

    Compiler names resolve through :mod:`repro.registry`, so aliases and
    third-party backends work and unknown names fail before any
    compilation starts.
    """
    if not compilers:
        raise ReproError("compile_time_sweep needs at least one compiler")
    names = [normalize_compiler_name(name) for name in compilers]
    jobs: list[CompileJob] = []
    for size in circuit_sizes:
        circuit = circuit_factory(size)
        if device.total_capacity <= circuit.num_qubits:
            continue
        for name in names:
            jobs.append(
                CompileJob(
                    circuit=circuit,
                    device=device,
                    compiler=name,
                    config=ssync_config,
                    label=name,
                    parameter="application_size",
                    value=size,
                )
            )
    return jobs


def compile_time_sweep(
    circuit_factory: CircuitFactory,
    circuit_sizes: Sequence[int],
    device: QCCDDevice,
    compilers: Sequence[str] = ("murali", "s-sync"),
    ssync_config: SSyncConfig | None = None,
    workers: int | None = 1,
    cache: ScheduleCache | None = None,
) -> list[CompileTimeRecord]:
    """Wall-clock compilation time versus application size per compiler.

    Compile times come from the compiler's own stopwatch
    (:attr:`CompilationResult.compile_time_s`), so they stay meaningful
    under parallel execution; a cache hit reports the original
    compilation's time.
    """
    jobs = compile_time_jobs(
        circuit_factory, circuit_sizes, device, compilers=compilers, ssync_config=ssync_config
    )
    rows = run_sweep(jobs, workers=workers, cache=cache)
    return [
        CompileTimeRecord(
            compiler=str(row["compiler"]),
            circuit=str(row["circuit"]),
            application_size=int(row["value"]),  # type: ignore[arg-type]
            compile_time_s=float(row["compile_time_s"]),  # type: ignore[arg-type]
            generic_swap_iterations=int(row["generic_swap_iterations"]),  # type: ignore[arg-type]
            candidate_evaluations=int(row["candidate_evaluations"]),  # type: ignore[arg-type]
        )
        for row in rows
    ]

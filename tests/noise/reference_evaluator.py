"""The object-walking schedule evaluator: the executable specification.

:class:`repro.noise.evaluator.ScheduleEvaluator` walks the schedule's
slab columns directly.  This module keeps the straightforward version it
replaced: iterate the materialised operation records and apply each one
through :class:`~repro.noise.heating.ThermalLedger`,
:class:`~repro.noise.fidelity.FidelityModel`,
:meth:`~repro.noise.operation_times.OperationTimes.shuttle_us` and
:class:`~repro.noise.fidelity.SuccessRateAccumulator`.  The parity tests
require both to return equal :class:`EvaluationResult` values, floats
and ``details`` included.
"""

from __future__ import annotations

from repro.exceptions import NoiseModelError
from repro.noise.evaluator import EvaluationResult, EvaluatorConfig
from repro.noise.fidelity import FidelityModel, SuccessRateAccumulator
from repro.noise.gate_times import GateImplementation, single_qubit_gate_time, two_qubit_gate_time
from repro.noise.heating import ThermalLedger
from repro.schedule.operations import (
    GateOperation,
    ShuttleOperation,
    SpaceShiftOperation,
    SwapOperation,
)
from repro.schedule.schedule import Schedule


class ReferenceEvaluator:
    """Evaluates schedules one operation record at a time."""

    def __init__(self, config: EvaluatorConfig | None = None) -> None:
        self.config = config or EvaluatorConfig()
        self._implementation = GateImplementation.from_name(self.config.gate_implementation)
        self._fidelity = FidelityModel(heating=self.config.heating)

    def evaluate(self, schedule: Schedule) -> EvaluationResult:
        clocks: dict[int, float] = {trap.trap_id: 0.0 for trap in schedule.device.traps}
        thermal = ThermalLedger(params=self.config.heating)
        accumulator = SuccessRateAccumulator()
        total_gate_time = 0.0
        total_shuttle_time = 0.0

        for operation in schedule:
            if isinstance(operation, GateOperation):
                total_gate_time += self._apply_gate(operation, clocks, thermal, accumulator)
            elif isinstance(operation, SwapOperation):
                total_gate_time += self._apply_swap(operation, clocks, thermal, accumulator)
            elif isinstance(operation, ShuttleOperation):
                total_shuttle_time += self._apply_shuttle(operation, clocks, thermal)
            elif isinstance(operation, SpaceShiftOperation):
                total_shuttle_time += self._apply_space_shift(operation, clocks, thermal)
            else:
                raise NoiseModelError(f"unknown operation type {type(operation).__name__}")

        return EvaluationResult(
            success_rate=accumulator.success_rate,
            log_success_rate=accumulator.log_success_rate,
            execution_time_us=max(clocks.values(), default=0.0),
            total_gate_time_us=total_gate_time,
            total_shuttle_time_us=total_shuttle_time,
            gate_count_2q=schedule.two_qubit_gate_count,
            gate_count_1q=schedule.single_qubit_gate_count,
            swap_count=schedule.swap_count,
            shuttle_count=schedule.shuttle_count,
            gate_implementation=self._implementation,
            details={
                "mean_phonon_total": thermal.total_phonon(),
                "evaluated_gate_fidelities": float(accumulator.gate_count),
            },
        )

    def _two_qubit_time(self, chain_length: int, ion_separation: int) -> float:
        return two_qubit_gate_time(self._implementation, max(chain_length, 2), ion_separation)

    def _apply_gate(self, operation, clocks, thermal, accumulator) -> float:
        trap_state = thermal.trap(operation.trap)
        if operation.gate.is_two_qubit:
            duration = self._two_qubit_time(operation.chain_length, operation.ion_separation)
            pending = trap_state.consume_accumulated_time()
            fidelity = self._fidelity.two_qubit_gate_fidelity(
                duration, operation.chain_length, trap_state.mean_phonon, pending
            )
            accumulator.multiply(fidelity)
        else:
            duration = single_qubit_gate_time()
            if self.config.include_single_qubit_gates:
                accumulator.multiply(self._fidelity.single_qubit_gate_fidelity_value())
        clocks[operation.trap] = clocks.get(operation.trap, 0.0) + duration
        return duration

    def _apply_swap(self, operation, clocks, thermal, accumulator) -> float:
        base_time = self._two_qubit_time(operation.chain_length, operation.ion_separation)
        duration = 3.0 * base_time
        if self.config.ignore_swap_cost:
            return 0.0
        trap_state = thermal.trap(operation.trap)
        pending = trap_state.consume_accumulated_time()
        fidelity = self._fidelity.swap_gate_fidelity(
            base_time, operation.chain_length, trap_state.mean_phonon, pending
        )
        accumulator.multiply(fidelity)
        clocks[operation.trap] = clocks.get(operation.trap, 0.0) + duration
        return duration

    def _apply_shuttle(self, operation, clocks, thermal) -> float:
        if self.config.ignore_shuttle_cost:
            return 0.0
        duration = self.config.operation_times.shuttle_us(
            segments=operation.segments, junctions=operation.junctions
        )
        thermal.record_shuttle(
            operation.source_trap, operation.target_trap, operation.segments, operation.junctions
        )
        thermal.trap(operation.source_trap).record_idle(duration)
        thermal.trap(operation.target_trap).record_idle(duration)
        start = max(clocks.get(operation.source_trap, 0.0), clocks.get(operation.target_trap, 0.0))
        clocks[operation.source_trap] = start + duration
        clocks[operation.target_trap] = start + duration
        return duration

    def _apply_space_shift(self, operation, clocks, thermal) -> float:
        if self.config.ignore_shuttle_cost:
            return 0.0
        duration = self.config.operation_times.move_us * operation.distance
        thermal.trap(operation.trap).record_idle(duration)
        clocks[operation.trap] = clocks.get(operation.trap, 0.0) + duration
        return duration

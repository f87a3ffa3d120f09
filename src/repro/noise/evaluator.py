"""Schedule evaluator: execution time and application success rate.

This is the "Real Noise Simulator" box of Fig. 1.  It walks a compiled
:class:`~repro.schedule.Schedule` in order, maintains per-trap clocks and
per-trap thermal state, and produces:

* the estimated **execution time** (the makespan over trap clocks — traps
  operate in parallel, an operation advances only the clocks of the traps
  it touches);
* the **success rate** — the product of all gate fidelities under the
  Eq.-(4) model, with SWAPs counted as three two-qubit gates and
  single-qubit gates at 99.9999 %.

The evaluator can also selectively ignore shuttle or SWAP costs, which is
how the Fig. 16 optimality bounds ("perfect shuttle", "perfect SWAP",
"ideal") are computed without a brute-force search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.noise.fidelity import _US_PER_S, SWAP_TWO_QUBIT_GATE_COUNT, FidelityModel
from repro.noise.gate_times import (
    GateImplementation,
    single_qubit_gate_time,
    two_qubit_gate_time,
)
from repro.noise.heating import HeatingParameters
from repro.noise.operation_times import OperationTimes
from repro.schedule.operations import (
    KIND_CODE_GATE_1Q,
    KIND_CODE_GATE_2Q,
    KIND_CODE_SHUTTLE,
    KIND_CODE_SWAP,
)
from repro.schedule.schedule import Schedule


@dataclass(frozen=True)
class EvaluationResult:
    """Outcome of evaluating one schedule under one noise configuration."""

    success_rate: float
    log_success_rate: float
    execution_time_us: float
    total_gate_time_us: float
    total_shuttle_time_us: float
    gate_count_2q: int
    gate_count_1q: int
    swap_count: int
    shuttle_count: int
    gate_implementation: GateImplementation
    details: dict[str, float] = field(default_factory=dict)

    @property
    def execution_time_s(self) -> float:
        """Execution time in seconds."""
        return self.execution_time_us / 1.0e6


@dataclass(frozen=True)
class EvaluatorConfig:
    """Knobs of the evaluator.

    ``ignore_shuttle_cost`` and ``ignore_swap_cost`` implement the
    Fig. 16 idealised scenarios; both default to off.
    """

    gate_implementation: GateImplementation | str = GateImplementation.FM
    heating: HeatingParameters = HeatingParameters()
    operation_times: OperationTimes = OperationTimes()
    ignore_shuttle_cost: bool = False
    ignore_swap_cost: bool = False
    include_single_qubit_gates: bool = True


class ScheduleEvaluator:
    """Evaluates schedules for execution time and success rate."""

    def __init__(self, config: EvaluatorConfig | None = None) -> None:
        self.config = config or EvaluatorConfig()
        self._implementation = GateImplementation.from_name(self.config.gate_implementation)
        self._fidelity = FidelityModel(heating=self.config.heating)

    def evaluate(self, schedule: Schedule) -> EvaluationResult:
        """Walk ``schedule`` and return timing and success-rate estimates.

        One loop over the slab's ``kinds`` column with a cursor per
        kind: no operation records or :class:`Gate` objects are built
        (the kind code says whether a gate is a two-qubit gate).  Each
        trap's clock, mean phonon number and pending transport time live
        in dicts keyed by trap id; ``phonon`` is filled in first-touch
        order, the order :class:`~repro.noise.heating.ThermalLedger`
        creates trap states in, so ``mean_phonon_total`` sums the same
        floats in the same order.  Gate times, ``A₀·N/ln N`` and shuttle
        costs are memoised per chain length, separation and path, and
        every formula keeps the float operation order of
        :class:`FidelityModel`, :meth:`OperationTimes.shuttle_us`,
        :class:`ThermalLedger` and :class:`SuccessRateAccumulator`, so
        the result equals the record-by-record walk bit for bit.
        """
        config = self.config
        heating = config.heating
        fidelity_model = self._fidelity
        implementation = self._implementation
        slab = schedule.slab

        rate = heating.background_rate_per_s
        k1 = heating.k1
        k2 = heating.k2
        floor = fidelity_model.minimum_fidelity
        log = math.log
        single_qubit_time = single_qubit_gate_time()
        single_qubit_log = (
            log(fidelity_model.single_qubit_gate_fidelity_value())
            if config.include_single_qubit_gates
            else None
        )
        ignore_swap = config.ignore_swap_cost
        ignore_shuttle = config.ignore_shuttle_cost
        move_us = config.operation_times.move_us
        shuttle_us = config.operation_times.shuttle_us

        gate_costs: dict[tuple[int, int], tuple[float, float]] = {}
        shuttle_costs: dict[tuple[int, int], tuple[float, float]] = {}

        clocks: dict[int, float] = {trap.trap_id: 0.0 for trap in schedule.device.traps}
        phonon: dict[int, float] = {}
        pending: dict[int, float] = {}
        log_sum = 0.0
        fidelity_count = 0
        total_gate_time = 0.0
        total_shuttle_time = 0.0

        gate_traps = slab.gate_traps
        gate_chains = slab.gate_chain_lengths
        gate_separations = slab.gate_ion_separations
        swap_traps = slab.swap_traps
        swap_chains = slab.swap_chain_lengths
        swap_separations = slab.swap_ion_separations
        shuttle_sources = slab.shuttle_source_traps
        shuttle_targets = slab.shuttle_target_traps
        shuttle_segments = slab.shuttle_segments
        shuttle_junctions = slab.shuttle_junctions
        shift_traps = slab.shift_traps
        shift_from = slab.shift_from_positions
        shift_to = slab.shift_to_positions
        gi = si = hi = pi = 0

        for code in slab.kinds:
            if code == KIND_CODE_GATE_2Q or code == KIND_CODE_SWAP:
                if code == KIND_CODE_GATE_2Q:
                    trap = gate_traps[gi]
                    chain = gate_chains[gi]
                    separation = gate_separations[gi]
                    gi += 1
                else:
                    trap = swap_traps[si]
                    chain = swap_chains[si]
                    separation = swap_separations[si]
                    si += 1
                key = (chain, separation)
                costs = gate_costs.get(key)
                if costs is None:
                    costs = gate_costs[key] = (
                        two_qubit_gate_time(implementation, max(chain, 2), separation),
                        heating.amplitude_factor(max(chain, 2)),
                    )
                gate_time, amplitude = costs
                if code == KIND_CODE_SWAP:
                    if ignore_swap:
                        continue
                    duration = 3.0 * gate_time
                else:
                    duration = gate_time
                mean_phonon = phonon.get(trap)
                if mean_phonon is None:
                    mean_phonon = phonon[trap] = 0.0
                # Eq. (4), in FidelityModel.two_qubit_gate_fidelity's order.
                fidelity = (
                    1.0
                    - rate * ((gate_time + pending.pop(trap, 0.0)) / _US_PER_S)
                    - amplitude * (2.0 * mean_phonon + 1.0)
                )
                if floor > fidelity:
                    fidelity = floor
                if code == KIND_CODE_SWAP:
                    fidelity = fidelity**SWAP_TWO_QUBIT_GATE_COUNT
                # The floor is positive and both Eq.-(4) terms are, so the
                # accumulator's "<= 0 fails" and "> 1 raises" checks
                # cannot fire; only its log-sum step remains.
                log_sum += log(fidelity)
                fidelity_count += 1
                clocks[trap] = clocks.get(trap, 0.0) + duration
                total_gate_time += duration
            elif code == KIND_CODE_GATE_1Q:
                trap = gate_traps[gi]
                gi += 1
                if trap not in phonon:
                    phonon[trap] = 0.0
                if single_qubit_log is not None:
                    log_sum += single_qubit_log
                    fidelity_count += 1
                clocks[trap] = clocks.get(trap, 0.0) + single_qubit_time
                total_gate_time += single_qubit_time
            elif code == KIND_CODE_SHUTTLE:
                source = shuttle_sources[hi]
                target = shuttle_targets[hi]
                segments = shuttle_segments[hi]
                junctions = shuttle_junctions[hi]
                hi += 1
                if ignore_shuttle:
                    continue
                path = (segments, junctions)
                cost = shuttle_costs.get(path)
                if cost is None:
                    cost = shuttle_costs[path] = (
                        shuttle_us(segments=segments, junctions=junctions),
                        k2 * (segments + junctions),
                    )
                duration, transport_heat = cost
                # ThermalLedger.record_shuttle: split, merge, transport.
                phonon[source] = phonon.get(source, 0.0) + k1
                phonon[target] = phonon.get(target, 0.0) + k1
                phonon[target] += transport_heat
                pending[source] = pending.get(source, 0.0) + duration
                pending[target] = pending.get(target, 0.0) + duration
                # Both traps are busy for the whole split/move/merge
                # sequence, and a shuttle cannot start before either
                # endpoint is free.
                start = clocks.get(source, 0.0)
                target_clock = clocks.get(target, 0.0)
                if target_clock > start:
                    start = target_clock
                clocks[source] = clocks[target] = start + duration
                total_shuttle_time += duration
            else:
                trap = shift_traps[pi]
                distance = abs(shift_to[pi] - shift_from[pi])
                pi += 1
                if ignore_shuttle:
                    continue
                duration = move_us * distance
                if trap not in phonon:
                    phonon[trap] = 0.0
                pending[trap] = pending.get(trap, 0.0) + duration
                clocks[trap] = clocks.get(trap, 0.0) + duration
                total_shuttle_time += duration

        return EvaluationResult(
            success_rate=math.exp(log_sum),
            log_success_rate=log_sum,
            execution_time_us=max(clocks.values(), default=0.0),
            total_gate_time_us=total_gate_time,
            total_shuttle_time_us=total_shuttle_time,
            gate_count_2q=schedule.two_qubit_gate_count,
            gate_count_1q=schedule.single_qubit_gate_count,
            swap_count=schedule.swap_count,
            shuttle_count=schedule.shuttle_count,
            gate_implementation=implementation,
            details={
                "mean_phonon_total": sum(phonon.values()),
                "evaluated_gate_fidelities": float(fidelity_count),
            },
        )


def evaluate_schedule(
    schedule: Schedule,
    gate_implementation: GateImplementation | str = GateImplementation.FM,
    heating: HeatingParameters | None = None,
    operation_times: OperationTimes | None = None,
    ignore_shuttle_cost: bool = False,
    ignore_swap_cost: bool = False,
) -> EvaluationResult:
    """One-call convenience wrapper around :class:`ScheduleEvaluator`."""
    config = EvaluatorConfig(
        gate_implementation=gate_implementation,
        heating=heating or HeatingParameters(),
        operation_times=operation_times or OperationTimes(),
        ignore_shuttle_cost=ignore_shuttle_cost,
        ignore_swap_cost=ignore_swap_cost,
    )
    return ScheduleEvaluator(config).evaluate(schedule)

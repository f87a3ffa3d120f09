"""Parity of the slab-walking evaluator with the object-walking reference.

:class:`~repro.noise.evaluator.ScheduleEvaluator` reads the schedule's
columns directly; ``reference_evaluator.ReferenceEvaluator`` applies the
materialised operation records one by one through the noise-model
classes.  Their :class:`EvaluationResult` values must be equal — every
float bit for bit, ``details`` included — for compiled schedules of all
three built-in compilers, every gate implementation and each evaluator
configuration, and for schedules fresh from a compiler as well as
decoded from the binary codec.
"""

from __future__ import annotations

import random

import pytest
from reference_evaluator import ReferenceEvaluator

from repro.circuit.gate import Gate
from repro.hardware.device import QCCDDevice
from repro.hardware.trap import Connection, Trap
from repro.noise.evaluator import EvaluatorConfig, ScheduleEvaluator
from repro.noise.heating import HeatingParameters
from repro.runtime.jobs import CompileJob, compile_job
from repro.schedule.operations import (
    GateOperation,
    ShuttleOperation,
    SpaceShiftOperation,
    SwapOperation,
)
from repro.schedule.schedule import Schedule
from repro.schedule.serialize import schedule_from_bytes, schedule_to_bytes

IMPLEMENTATIONS = ("fm", "pm", "am1", "am2")

CONFIGS = {
    "defaults": {},
    "ignore_shuttle_cost": {"ignore_shuttle_cost": True},
    "ignore_swap_cost": {"ignore_swap_cost": True},
    "heating": {
        "heating": HeatingParameters(
            k1=0.37, k2=0.023, background_rate_per_s=41.0, amplitude_scale=3.3e-4
        )
    },
}

COMPILED = (
    ("s-sync", "qft_12", "G-2x2", 6),
    ("s-sync", "alt_16", "G-2x3", 4),
    ("murali", "qft_12", "G-2x2", 6),
    ("murali", "bv_16", "L-4", 5),
    ("dai", "qft_12", "G-2x2", 6),
    ("dai", "alt_16", "G-2x3", 4),
)


@pytest.fixture(scope="module")
def compiled_schedules() -> "dict[str, Schedule]":
    schedules = {}
    for compiler, circuit, device, capacity in COMPILED:
        job = CompileJob(circuit=circuit, device=device, capacity=capacity, compiler=compiler)
        schedules[f"{compiler}:{circuit}@{device}"] = compile_job(job).schedule
    return schedules


def hand_built_schedule() -> Schedule:
    """Space shifts, a gate in a 1-ion trap, a trap touched first by a
    1-qubit gate, and shuttles in both directions between unequal traps."""
    traps = [Trap(0, 6), Trap(1, 4), Trap(2, 3), Trap(3, 2)]
    connections = [
        Connection(0, 1, junctions=0, segments=1),
        Connection(1, 2, junctions=1, segments=2),
        Connection(2, 3, junctions=2, segments=3),
    ]
    schedule = Schedule(QCCDDevice(traps, connections, name="hand-4"), "hand")
    append = schedule.append
    append(GateOperation(Gate("h", (7,)), trap=3, chain_length=1))
    append(GateOperation(Gate("cx", (0, 1)), trap=0, chain_length=5, ion_separation=2))
    append(SpaceShiftOperation(trap=0, qubit=1, from_position=1, to_position=4))
    append(ShuttleOperation(1, 0, 2, segments=3, junctions=1,
                            source_chain_length=5, target_chain_length=3))
    append(GateOperation(Gate("cx", (1, 4)), trap=2, chain_length=3, ion_separation=1))
    append(SwapOperation(trap=2, qubit_a=1, qubit_b=4, chain_length=3, ion_separation=1))
    append(GateOperation(Gate("rz", (4,), (0.5,)), trap=2, chain_length=3))
    append(ShuttleOperation(4, 2, 3, segments=3, junctions=2,
                            source_chain_length=3, target_chain_length=2))
    append(GateOperation(Gate("cx", (4, 7)), trap=3, chain_length=2))
    append(SpaceShiftOperation(trap=3, qubit=7, from_position=1, to_position=0))
    append(ShuttleOperation(7, 3, 1, segments=5, junctions=3,
                            source_chain_length=2, target_chain_length=1))
    append(GateOperation(Gate("x", (7,)), trap=1, chain_length=1))
    append(GateOperation(Gate("cz", (7, 9)), trap=1, chain_length=1, ion_separation=0))
    append(SwapOperation(trap=0, qubit_a=0, qubit_b=2, chain_length=4, ion_separation=3))
    append(ShuttleOperation(0, 0, 1, segments=1, junctions=0,
                            source_chain_length=4, target_chain_length=2))
    append(GateOperation(Gate("cx", (0, 7)), trap=1, chain_length=2))
    return schedule


def fresh_pair_shuttles() -> Schedule:
    """Three shuttles, each between two traps nothing touched before.

    With the default heating the summed phonon total of these paths
    differs in its last bit when a shuttle's source and target enter
    the sum in the other order.
    """
    traps = [Trap(i, 4) for i in range(6)]
    connections = [Connection(i, i + 1, junctions=1, segments=1) for i in range(5)]
    schedule = Schedule(QCCDDevice(traps, connections, name="pairs-6"), "pairs")
    for source, junctions in ((0, 2), (2, 2), (4, 0)):
        schedule.append(ShuttleOperation(source, source, source + 1, 1, junctions, 2, 1))
    return schedule


def random_schedule(seed: int) -> Schedule:
    """Every kind in random order over up to 7 traps of unequal capacity.

    Many traps touched in a random order (by 1-qubit gates, space shifts
    and shuttles alike) make ``mean_phonon_total`` depend on the order
    its terms are summed in, and irregular shuttle paths give the pending
    transport times irregular values.
    """
    rng = random.Random(seed)
    num_traps = rng.randint(3, 7)
    traps = [Trap(i, rng.randint(2, 9)) for i in range(num_traps)]
    connections = [Connection(i, i + 1, junctions=1, segments=1) for i in range(num_traps - 1)]
    schedule = Schedule(QCCDDevice(traps, connections, name=f"rand-{seed}"), f"rand-{seed}")
    for _ in range(rng.randint(40, 160)):
        trap = rng.randrange(num_traps)
        chain = rng.randint(1, 9)
        kind = rng.random()
        if kind < 0.25:
            schedule.append(GateOperation(Gate("rz", (rng.randrange(40),), (0.1,)), trap, chain))
        elif kind < 0.55:
            a = rng.randrange(40)
            gate = Gate("cx", (a, a + 1 + rng.randrange(5)))
            schedule.append(GateOperation(gate, trap, chain, rng.randint(0, 6)))
        elif kind < 0.7:
            a = rng.randrange(40)
            schedule.append(SwapOperation(trap, a, a + 1, max(chain, 2), rng.randint(0, 6)))
        elif kind < 0.9:
            target = (trap + 1 + rng.randrange(num_traps - 1)) % num_traps
            schedule.append(
                ShuttleOperation(
                    rng.randrange(40), trap, target, rng.randint(1, 7), rng.randint(0, 5),
                    chain, rng.randint(1, 9),
                )
            )
        else:
            start = rng.randrange(8)
            end = (start + 1 + rng.randrange(7)) % 9
            schedule.append(SpaceShiftOperation(trap, rng.randrange(40), start, end))
    return schedule


def assert_parity(schedule: Schedule, implementation: str, config_name: str) -> None:
    config = EvaluatorConfig(gate_implementation=implementation, **CONFIGS[config_name])
    expected = ReferenceEvaluator(config).evaluate(schedule)
    got = ScheduleEvaluator(config).evaluate(schedule)
    assert got == expected
    # == on floats treats 0.0 and -0.0 alike; compare the reprs as well.
    assert repr(got) == repr(expected)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
def test_compiled_schedules_match_reference(compiled_schedules, implementation, config_name):
    for schedule in compiled_schedules.values():
        assert_parity(schedule, implementation, config_name)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
def test_decoded_schedules_match_reference(compiled_schedules, implementation, config_name):
    for schedule in compiled_schedules.values():
        decoded = schedule_from_bytes(schedule_to_bytes(schedule))
        assert_parity(decoded, implementation, config_name)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
def test_hand_built_schedules_match_reference(implementation, config_name):
    assert_parity(hand_built_schedule(), implementation, config_name)
    assert_parity(fresh_pair_shuttles(), implementation, config_name)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
def test_random_schedules_match_reference(implementation, config_name):
    for seed in range(12):
        assert_parity(random_schedule(seed), implementation, config_name)


def test_single_qubit_gates_excluded_matches_reference(compiled_schedules):
    config = EvaluatorConfig(include_single_qubit_gates=False)
    for schedule in (*compiled_schedules.values(), hand_built_schedule()):
        assert ScheduleEvaluator(config).evaluate(schedule) == ReferenceEvaluator(
            config
        ).evaluate(schedule)


def test_walk_builds_no_gate_objects(compiled_schedules):
    schedule = next(iter(compiled_schedules.values()))
    decoded = schedule_from_bytes(schedule_to_bytes(schedule))
    ScheduleEvaluator().evaluate(decoded)
    assert decoded.slab._gates is None

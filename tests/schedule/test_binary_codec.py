"""Unit tests for the columnar binary schedule codec.

Covers exact round-trips for every operation kind (hand-built and
compiler-produced), a randomized fuzz over mixed-capacity devices, the
checked-in golden blob that pins the wire format, the deferred
construction of a decoded slab's gates, and the corrupt-input error
paths (which must all raise from the decode call itself).
"""

from __future__ import annotations

import pickle
import random
from pathlib import Path

import pytest

from repro.circuit.gate import Gate
from repro.circuit.library import qft_circuit
from repro.core.compiler import SSyncCompiler
from repro.exceptions import ReproError
from repro.hardware.device import QCCDDevice
from repro.hardware.topologies import grid_device, star_device
from repro.hardware.trap import Connection, Trap
from repro.schedule.operations import (
    GateOperation,
    ShuttleOperation,
    SpaceShiftOperation,
    SwapOperation,
)
from repro.schedule.schedule import Schedule
from repro.schedule.serialize import (
    SCHEDULE_BINARY_VERSION,
    SCHEDULE_MAGIC,
    schedule_from_bytes,
    schedule_to_bytes,
    schedule_to_dict,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_schedule.sched"


def mixed_capacity_device() -> QCCDDevice:
    """A small device whose traps have different capacities."""
    traps = [Trap(0, 4), Trap(1, 2), Trap(2, 6, name="big"), Trap(3, 3)]
    connections = [
        Connection(0, 1, junctions=0, segments=1),
        Connection(1, 2, junctions=1, segments=2),
        Connection(2, 3, junctions=2, segments=3),
        Connection(0, 3, junctions=1, segments=4),
    ]
    return QCCDDevice(traps, connections, name="mixed-4", junction_weight=1.5)


def every_kind_schedule() -> Schedule:
    """A hand-built schedule containing each operation kind at least once."""
    schedule = Schedule(mixed_capacity_device(), circuit_name="all-kinds")
    schedule.append(GateOperation(Gate("rz", (0,), (0.25,)), trap=0, chain_length=3))
    schedule.append(
        GateOperation(Gate("cx", (0, 1)), trap=0, chain_length=4, ion_separation=2)
    )
    schedule.append(
        SwapOperation(trap=1, qubit_a=2, qubit_b=3, chain_length=2, ion_separation=1)
    )
    schedule.append(
        ShuttleOperation(
            qubit=2,
            source_trap=1,
            target_trap=2,
            segments=2,
            junctions=1,
            source_chain_length=2,
            target_chain_length=4,
        )
    )
    schedule.append(SpaceShiftOperation(trap=2, qubit=2, from_position=3, to_position=0))
    schedule.append(GateOperation(Gate("h", (5,)), trap=3, chain_length=1))
    return schedule


def assert_same_schedule(rebuilt: Schedule, original: Schedule) -> None:
    """Exact operation-level equality plus device metadata."""
    assert schedule_to_dict(rebuilt) == schedule_to_dict(original)
    assert list(rebuilt) == list(original)
    assert rebuilt.circuit_name == original.circuit_name
    assert rebuilt.device.name == original.device.name
    assert rebuilt.device.junction_weight == original.device.junction_weight
    assert rebuilt.count_summary() == original.count_summary()


class TestRoundTrip:
    def test_every_kind_exact(self):
        original = every_kind_schedule()
        rebuilt = schedule_from_bytes(schedule_to_bytes(original))
        assert_same_schedule(rebuilt, original)

    def test_empty_schedule(self):
        original = Schedule(star_device(3, 4), circuit_name="empty")
        rebuilt = schedule_from_bytes(schedule_to_bytes(original))
        assert len(rebuilt) == 0
        assert rebuilt.circuit_name == "empty"
        assert rebuilt.device.num_traps == original.device.num_traps

    def test_compiled_schedule_exact(self):
        device = grid_device(2, 2, 6)
        result = SSyncCompiler(device).compile(qft_circuit(12))
        rebuilt = schedule_from_bytes(schedule_to_bytes(result.schedule))
        assert_same_schedule(rebuilt, result.schedule)

    def test_gate_params_preserved_exactly(self):
        schedule = Schedule(star_device(3, 4), circuit_name="params")
        values = (0.1, -2.5, 3.141592653589793, 1e-300, -0.0)
        schedule.append(GateOperation(Gate("u3", (0,), values), trap=0, chain_length=1))
        rebuilt = schedule_from_bytes(schedule_to_bytes(schedule))
        assert rebuilt[0].gate.params == values

    def test_encode_is_deterministic(self):
        original = every_kind_schedule()
        blob = schedule_to_bytes(original)
        assert schedule_to_bytes(original) == blob
        assert schedule_to_bytes(schedule_from_bytes(blob)) == blob


class TestFuzz:
    def random_device(self, rng: random.Random) -> QCCDDevice:
        num_traps = rng.randint(2, 6)
        traps = [Trap(i, rng.randint(2, 8)) for i in range(num_traps)]
        connections = [
            Connection(
                i,
                i + 1,
                junctions=rng.randint(0, 3),
                segments=rng.randint(1, 4),
            )
            for i in range(num_traps - 1)
        ]
        return QCCDDevice(
            traps,
            connections,
            name=f"fuzz-{num_traps}",
            junction_weight=rng.choice([0.5, 1.0, 2.0]),
        )

    def random_operation(self, rng: random.Random, device: QCCDDevice):
        kind = rng.randrange(5)
        trap = rng.randrange(device.num_traps)
        capacity = device.trap(trap).capacity
        if kind == 0:
            gate = Gate(
                rng.choice(["h", "x", "rz", "t"]),
                (rng.randrange(32),),
                tuple(rng.uniform(-3.2, 3.2) for _ in range(rng.randint(0, 2))),
            )
            return GateOperation(gate, trap=trap, chain_length=rng.randint(1, capacity))
        if kind == 1:
            a = rng.randrange(32)
            gate = Gate(rng.choice(["cx", "cz"]), (a, a + 1 + rng.randrange(8)))
            return GateOperation(
                gate,
                trap=trap,
                chain_length=rng.randint(2, max(capacity, 2)),
                ion_separation=rng.randint(0, 3),
            )
        if kind == 2:
            a = rng.randrange(32)
            return SwapOperation(
                trap=trap,
                qubit_a=a,
                qubit_b=a + 1 + rng.randrange(8),
                chain_length=rng.randint(2, max(capacity, 2)),
                ion_separation=rng.randint(0, 3),
            )
        if kind == 3:
            source = rng.randrange(device.num_traps)
            target = (source + 1 + rng.randrange(device.num_traps - 1)) % device.num_traps
            return ShuttleOperation(
                qubit=rng.randrange(32),
                source_trap=source,
                target_trap=target,
                segments=rng.randint(1, 4),
                junctions=rng.randint(0, 3),
                source_chain_length=rng.randint(1, 5),
                target_chain_length=rng.randint(1, 6),
            )
        position = rng.randrange(capacity)
        other = (position + 1 + rng.randrange(max(capacity - 1, 1))) % capacity
        if other == position:
            other = (position + 1) % capacity
        return SpaceShiftOperation(
            trap=trap, qubit=rng.randrange(32), from_position=position, to_position=other
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_random_schedules_round_trip(self, seed):
        rng = random.Random(seed)
        device = self.random_device(rng)
        schedule = Schedule(device, circuit_name=f"fuzz-{seed}")
        for _ in range(rng.randint(0, 120)):
            schedule.append(self.random_operation(rng, device))
        rebuilt = schedule_from_bytes(schedule_to_bytes(schedule))
        assert_same_schedule(rebuilt, schedule)


class TestGoldenBlob:
    """The checked-in blob pins the wire format across refactors."""

    def test_golden_blob_decodes(self):
        rebuilt = schedule_from_bytes(GOLDEN_PATH.read_bytes())
        assert_same_schedule(rebuilt, every_kind_schedule())

    def test_golden_blob_is_current_encoding(self):
        assert schedule_to_bytes(every_kind_schedule()) == GOLDEN_PATH.read_bytes()


class TestErrors:
    def test_bad_magic(self):
        blob = schedule_to_bytes(every_kind_schedule())
        with pytest.raises(ReproError, match="magic"):
            schedule_from_bytes(b"XXXX" + blob[4:])

    def test_unsupported_version(self):
        blob = bytearray(schedule_to_bytes(every_kind_schedule()))
        blob[len(SCHEDULE_MAGIC)] = SCHEDULE_BINARY_VERSION + 1
        with pytest.raises(ReproError, match="version"):
            schedule_from_bytes(bytes(blob))

    def test_truncated_document(self):
        blob = schedule_to_bytes(every_kind_schedule())
        for cut in (5, len(blob) // 2, len(blob) - 1):
            with pytest.raises(ReproError):
                schedule_from_bytes(blob[:cut])

    def test_empty_input(self):
        with pytest.raises(ReproError):
            schedule_from_bytes(b"")

    def test_trailing_bytes_rejected(self):
        blob = schedule_to_bytes(every_kind_schedule())
        with pytest.raises(ReproError, match="trailing bytes"):
            schedule_from_bytes(blob + b"garbage!!")
        with pytest.raises(ReproError, match="trailing bytes"):
            schedule_from_bytes(blob + b"\x00")

    def test_unknown_kind_code_rejected(self):
        blob = bytearray(schedule_to_bytes(gates_only_schedule(NARROW_GATES)))
        name_start, _ = gate_sections(bytes(blob), NARROW_GATES)
        blob[name_start - 2] = 5  # the kinds column precedes the name column
        with pytest.raises(ReproError, match="unknown operation kind"):
            schedule_from_bytes(bytes(blob))


def gates_only_schedule(gates: "list[Gate]") -> Schedule:
    """A schedule of program gates only: its blob ends with the qubit
    lists, one parameter-count varint per gate and the parameters."""
    schedule = Schedule(star_device(3, 4), circuit_name="gates-only")
    for gate in gates:
        schedule.append(GateOperation(gate, trap=0, chain_length=2))
    return schedule


def gate_sections(blob: bytes, gates: "list[Gate]") -> "tuple[int, int]":
    """(start of the name column, start of the qubit section) of a
    parameter-free :func:`gates_only_schedule` blob."""
    qubit_start = len(blob) - len(gates) - sum(1 + len(g.qubits) for g in gates)
    return qubit_start - 16 * len(gates), qubit_start


NARROW_GATES = [Gate("h", (0,)), Gate("cx", (0, 1)), Gate("cx", (2, 1)), Gate("x", (2,))]


class TestDeferredGates:
    def test_two_byte_qubit_index_round_trips(self):
        wide = [
            Gate("cx", (127, 128)),
            Gate("h", (300,)),
            Gate("cz", (70000, 5)),
            Gate("u", (129,), tuple(float(i) for i in range(130))),
        ]
        schedule = gates_only_schedule(NARROW_GATES + wide)
        blob = schedule_to_bytes(schedule)
        rebuilt = schedule_from_bytes(blob)
        assert rebuilt.slab.gates == schedule.slab.gates
        assert_same_schedule(rebuilt, schedule)
        assert schedule_to_bytes(rebuilt) == blob

    def test_gates_are_built_on_first_access(self):
        original = every_kind_schedule()
        rebuilt = schedule_from_bytes(schedule_to_bytes(original))
        assert rebuilt.slab._gates is None
        assert rebuilt.count_summary() == original.count_summary()
        assert rebuilt.slab._gates is None  # counters read only the kinds
        gates = rebuilt.slab.gates
        assert gates == original.slab.gates
        assert rebuilt.slab.gates is gates  # loaded once

    def test_lazy_gates_equal_eager_decode(self):
        result = SSyncCompiler(grid_device(2, 2, 6)).compile(qft_circuit(12))
        blob = schedule_to_bytes(result.schedule)
        lazy = schedule_from_bytes(blob)
        eager = schedule_from_bytes(blob)
        eager_records = list(eager)  # materialises through .gates at once
        assert lazy.slab.gates == result.schedule.slab.gates
        assert list(lazy) == eager_records == list(result.schedule)

    def test_decoded_slab_pickles(self):
        original = every_kind_schedule()
        rebuilt = schedule_from_bytes(schedule_to_bytes(original))
        slab = pickle.loads(pickle.dumps(rebuilt.slab))
        assert slab.gates == original.slab.gates
        assert bytes(slab.kinds) == bytes(original.slab.kinds)
        assert slab.shuttle_segments == original.slab.shuttle_segments
        schedule = pickle.loads(pickle.dumps(schedule_from_bytes(schedule_to_bytes(original))))
        assert_same_schedule(schedule, original)

    def test_reencode_is_byte_identical_before_and_after_gates_are_read(self):
        blob = schedule_to_bytes(every_kind_schedule())
        assert schedule_to_bytes(schedule_from_bytes(blob)) == blob
        rebuilt = schedule_from_bytes(blob)
        assert len(rebuilt.slab.gates) == 3
        assert schedule_to_bytes(rebuilt) == blob

    def test_append_to_decoded_slab(self):
        original = every_kind_schedule()
        rebuilt = schedule_from_bytes(schedule_to_bytes(original))
        extra = [
            GateOperation(Gate("cz", (1, 5)), trap=3, chain_length=2, ion_separation=0),
            SwapOperation(trap=0, qubit_a=0, qubit_b=1, chain_length=3),
        ]
        rebuilt.extend(extra)
        original.extend(extra)
        assert_same_schedule(rebuilt, original)
        assert schedule_to_bytes(rebuilt) == schedule_to_bytes(original)

    @pytest.mark.parametrize("gates", [NARROW_GATES, NARROW_GATES + [Gate("cx", (200, 3))]])
    def test_truncation_in_the_qubit_section_raises_at_decode(self, gates):
        blob = schedule_to_bytes(gates_only_schedule(gates))
        _, qubit_start = gate_sections(blob, gates)
        qubit_end = len(blob) - len(gates)
        for cut in range(qubit_start, qubit_end):
            with pytest.raises(ReproError, match="truncated"):
                schedule_from_bytes(blob[:cut])

    @pytest.mark.parametrize("index", [3, 7, -1])
    def test_bad_name_index_raises_at_decode(self, index):
        blob = bytearray(schedule_to_bytes(gates_only_schedule(NARROW_GATES)))
        name_start, _ = gate_sections(bytes(blob), NARROW_GATES)
        blob[name_start + 4 : name_start + 8] = index.to_bytes(4, "little", signed=True)
        with pytest.raises(ReproError, match="unknown gate name"):
            schedule_from_bytes(bytes(blob))

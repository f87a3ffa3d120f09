"""Unit tests for the Murali-style and Dai-style baseline compilers."""

from __future__ import annotations

import hashlib

import pytest

from repro.baselines import BASELINE_REGISTRY, DaiCompiler, MuraliCompiler
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.library import (
    bernstein_vazirani_circuit,
    build_family,
    ghz_circuit,
    qft_circuit,
)
from repro.exceptions import MappingError
from repro.hardware.presets import paper_device
from repro.hardware.topologies import grid_device, linear_device, star_device
from repro.schedule.serialize import schedule_to_bytes
from repro.schedule.verify import verify_schedule


class TestRegistry:
    def test_both_baselines_registered(self):
        assert set(BASELINE_REGISTRY) == {"murali", "dai"}
        assert BASELINE_REGISTRY["murali"] is MuraliCompiler
        assert BASELINE_REGISTRY["dai"] is DaiCompiler


class TestMuraliMapping:
    def test_qubits_packed_by_first_use(self):
        device = linear_device(3, 6)
        circuit = QuantumCircuit(6)
        # Qubit 5 is used first, so it should land in trap 0.
        circuit.cx(5, 0).cx(1, 2)
        state = MuraliCompiler(device).build_initial_state(circuit)
        assert state.trap_of(5) == 0
        assert state.chain(0)[0] == 5

    def test_two_slots_reserved_per_trap(self):
        device = linear_device(3, 6)
        circuit = qft_circuit(8)
        state = MuraliCompiler(device).build_initial_state(circuit)
        assert max(state.chain_length(t.trap_id) for t in device.traps) <= 4

    def test_reservation_relaxed_when_tight(self):
        device = linear_device(2, 5)
        circuit = qft_circuit(9)
        state = MuraliCompiler(device).build_initial_state(circuit)
        assert state.all_qubits() == set(range(9))

    def test_device_too_small_rejected(self):
        device = linear_device(2, 3)
        with pytest.raises(MappingError):
            MuraliCompiler(device).build_initial_state(qft_circuit(7))

    def test_idle_qubits_still_placed(self):
        device = linear_device(2, 6)
        circuit = QuantumCircuit(6)
        circuit.cx(0, 1)
        state = MuraliCompiler(device).build_initial_state(circuit)
        assert state.all_qubits() == set(range(6))


class TestDaiMapping:
    def test_interacting_qubits_clustered(self):
        device = linear_device(2, 8)
        circuit = QuantumCircuit(8)
        for a in range(4):
            for b in range(a + 1, 4):
                circuit.cx(a, b)
                circuit.cx(a + 4, b + 4)
        state = DaiCompiler(device).build_initial_state(circuit)
        assert len({state.trap_of(q) for q in range(4)}) == 1
        assert len({state.trap_of(q) for q in range(4, 8)}) == 1

    def test_device_too_small_rejected(self):
        device = linear_device(1, 4)
        with pytest.raises(MappingError):
            DaiCompiler(device).build_initial_state(qft_circuit(6))


@pytest.mark.parametrize("compiler_cls", [MuraliCompiler, DaiCompiler], ids=["murali", "dai"])
class TestBaselineCompilation:
    def test_schedules_are_valid(self, compiler_cls):
        device = grid_device(2, 2, 5)
        circuit = qft_circuit(12)
        result = compiler_cls(device).compile(circuit)
        report = verify_schedule(result.schedule, result.initial_state, circuit=circuit)
        assert report.two_qubit_gates == circuit.num_two_qubit_gates

    def test_result_metadata(self, compiler_cls):
        device = linear_device(3, 5)
        circuit = ghz_circuit(9, ladder=False)
        result = compiler_cls(device).compile(circuit)
        assert result.compiler_name == compiler_cls.name
        assert result.compile_time_s >= 0
        assert result.two_qubit_gate_count == circuit.num_two_qubit_gates

    def test_single_trap_needs_no_shuttles(self, compiler_cls):
        device = linear_device(1, 12)
        circuit = qft_circuit(8)
        result = compiler_cls(device).compile(circuit)
        assert result.shuttle_count == 0
        assert result.swap_count == 0

    def test_star_topology(self, compiler_cls):
        device = star_device(3, 6)
        circuit = bernstein_vazirani_circuit(10)
        result = compiler_cls(device).compile(circuit)
        verify_schedule(result.schedule, result.initial_state, circuit=circuit)

    def test_cross_trap_work_produces_shuttles(self, compiler_cls):
        device = linear_device(3, 5)
        circuit = qft_circuit(10)
        result = compiler_cls(device).compile(circuit)
        assert result.shuttle_count > 0


class TestRelativeBehaviour:
    def test_murali_inserts_more_swaps_than_dai_on_long_range_circuits(self):
        device = grid_device(2, 3, 6)
        circuit = qft_circuit(20)
        murali = MuraliCompiler(device).compile(circuit)
        dai = DaiCompiler(device).compile(circuit)
        assert murali.swap_count > dai.swap_count

    def test_dai_moves_cheaper_endpoint(self):
        # With one qubit already at a trap edge and the other buried, Dai
        # should not need more shuttles than gates.
        device = linear_device(2, 6)
        circuit = QuantumCircuit(10)
        circuit.cx(0, 9)
        result = DaiCompiler(device).compile(circuit)
        assert result.shuttle_count <= 2


class TestPinnedScheduleDigests:
    """Byte-exact baseline output: the emitters must never drift.

    SHA-256 of the binary encoding of each baseline's schedule on two
    fixed compiles, recorded when the baselines still emitted record
    objects; slab emission must reproduce them exactly.
    """

    @pytest.mark.parametrize(
        ("compiler", "family", "size", "topology", "capacity", "digest"),
        (
            ("murali", "qft", 12, "G-2x3", 4,
             "55e405fffa1122964189d3a5adc384fdb24b598ed8afcdb44142c23de303d039"),
            ("dai", "qft", 12, "G-2x3", 4,
             "e562fbef09c14d06b64c853a75166bf9f457acf792e02c6ca337c8a86ba97d05"),
            ("murali", "alt", 16, "L-4", 6,
             "5e4ddd1e3fef09f2098ef897918e0a41c77d869e5e9016e1ec3e49b8542c3635"),
            ("dai", "alt", 16, "L-4", 6,
             "b9645ea84374bc1a360f2a8daa6b97f82f8790265b21799fd0050e2b8d895f58"),
        ),
    )
    def test_schedule_bytes_are_pinned(self, compiler, family, size, topology, capacity, digest):
        device = paper_device(topology, capacity=capacity)
        result = BASELINE_REGISTRY[compiler](device).compile(build_family(family, size))
        assert result.shuttle_count > 0
        assert hashlib.sha256(schedule_to_bytes(result.schedule)).hexdigest() == digest

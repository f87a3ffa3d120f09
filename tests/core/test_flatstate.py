"""Unit tests for the flat-array scheduler core building blocks.

The randomized naive-vs-flat parity suite (``test_incremental_parity.py``)
holds the whole flat backend against the reference end-to-end; these tests pin the
pieces in isolation — the array mirror's mutation semantics, the
flattened routing tables, the deferred candidate batch, and the
once-only backend resolution in ``SchedulerConfig``.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.core.flatstate import FlatCandidateBatch, FlatState
from repro.core.generic_swap import GenericSwap, GenericSwapKind
from repro.core.mapping import get_mapper
from repro.core.scheduler import SCHEDULER_BACKENDS, SchedulerConfig
from repro.core.state import DeviceState
from repro.exceptions import SchedulingError
from repro.hardware.device import QCCDDevice
from repro.hardware.presets import paper_device
from repro.hardware.trap import Connection, Trap


def _random_circuit(rng: random.Random, num_qubits: int, num_gates: int) -> QuantumCircuit:
    circuit = QuantumCircuit(num_qubits, name=f"random-{num_qubits}q-{num_gates}g")
    for _ in range(num_gates):
        if rng.random() < 0.35:
            circuit.add_gate("h", rng.randrange(num_qubits))
        else:
            qubit_a, qubit_b = rng.sample(range(num_qubits), 2)
            circuit.add_gate("cx", qubit_a, qubit_b)
    return circuit


def _mapped_state(num_qubits: int, topology: str = "G-2x3", capacity: int = 6) -> DeviceState:
    device = paper_device(topology, capacity=capacity)
    circuit = _random_circuit(random.Random(5), num_qubits, 30)
    return get_mapper("gathering").map(circuit, device)


class TestFlatState:
    def test_snapshot_mirrors_initial_state(self) -> None:
        state = _mapped_state(14)
        flat = FlatState(state)
        flat.assert_mirrors(state)
        for trap_id in range(state.device.num_traps):
            assert tuple(flat.chain(trap_id)) == state.chain(trap_id)

    def test_mirrors_under_random_moves(self) -> None:
        """The mirror tracks swaps and shuttles move-for-move."""
        rng = random.Random(77)
        state = _mapped_state(16, capacity=5)
        device = state.device
        flat = FlatState(state)
        moves = 0
        while moves < 300:
            if rng.random() < 0.5:
                # Random legal SWAP: two ions of one non-trivial chain.
                traps = [t for t in range(device.num_traps) if state.chain_length(t) >= 2]
                if not traps:
                    continue
                trap = rng.choice(traps)
                qubit_a, qubit_b = rng.sample(state.chain(trap), 2)
                state.swap_qubits(qubit_a, qubit_b)
                flat.apply_swap(qubit_a, qubit_b)
            else:
                # Random legal shuttle: an end ion to a neighbour with space.
                options = []
                for trap in range(device.num_traps):
                    if state.chain_length(trap) == 0:
                        continue
                    for neighbour in device.neighbors(trap):
                        if state.has_space(neighbour):
                            options.append((trap, neighbour))
                if not options:
                    continue
                source, target = rng.choice(options)
                end = state.facing_end(source, target)
                qubit = state.end_qubit(source, end)
                assert qubit is not None
                state.shuttle(qubit, target)
                flat.apply_shuttle(qubit, source, target)
            moves += 1
            flat.assert_mirrors(state)

    def test_full_count_tracks_pen_term(self) -> None:
        state = _mapped_state(16, capacity=5)
        flat = FlatState(state)
        assert flat.full_count == state.full_trap_count()


class TestFlatRoutingTables:
    @pytest.mark.parametrize("topology", ("G-2x3", "G-3x3", "L-4", "S-4"))
    def test_matches_dense_matrices(self, topology: str) -> None:
        device = paper_device(topology, capacity=4)
        dist, next_hop, penultimate = device.flat_routing_tables
        n = device.num_traps
        distance_matrix = device.distance_matrix
        assert len(dist) == len(next_hop) == len(penultimate) == n * n
        for a in range(n):
            for b in range(n):
                assert dist[a * n + b] == distance_matrix[a][b]
                if a != b:
                    assert next_hop[a * n + b] == device.next_hop(a, b)
                    assert penultimate[a * n + b] == device.penultimate_hop(a, b)

    def test_tables_are_cached(self) -> None:
        device = paper_device("G-2x2", capacity=4)
        assert device.flat_routing_tables is device.flat_routing_tables


class TestFlatCandidateBatch:
    def test_build_materialises_only_the_winner(self) -> None:
        batch = FlatCandidateBatch()
        batch.items.append((3, 7, 1, -1, 1.0))  # SWAP of qubits 3,7 in trap 1
        batch.items.append((4, -1, 1, 2, 2.0))  # shuttle of qubit 4, trap 1 -> 2
        assert len(batch) == 2

        swap = batch.build(0)
        assert swap.kind is GenericSwapKind.SWAP_GATE
        assert (swap.qubit_a, swap.qubit_b, swap.trap) == (3, 7, 1)
        assert swap.weight == 1.0

        shuttle = batch.build(1)
        assert shuttle.kind is GenericSwapKind.SHUTTLE
        assert (shuttle.qubit_a, shuttle.trap, shuttle.target_trap) == (4, 1, 2)
        assert shuttle.qubit_b is None
        assert shuttle.weight == 2.0

    def test_drop_reversing_swap(self) -> None:
        last = GenericSwap.unchecked(GenericSwapKind.SWAP_GATE, 3, 7, 1, None, 1.0)
        batch = FlatCandidateBatch()
        batch.items.append((7, 3, 1, -1, 1.0))  # reverses (either operand order)
        batch.items.append((3, 5, 1, -1, 1.0))
        batch.drop_reversing(last)
        assert [item[:2] for item in batch.items] == [(3, 5)]

    def test_drop_reversing_shuttle(self) -> None:
        last = GenericSwap.unchecked(GenericSwapKind.SHUTTLE, 4, None, 1, 2, 2.0)
        batch = FlatCandidateBatch()
        batch.items.append((4, -1, 2, 1, 2.0))  # the exact reverse shuttle
        batch.items.append((4, -1, 2, 3, 2.0))
        batch.items.append((9, -1, 2, 1, 2.0))  # different qubit: kept
        batch.drop_reversing(last)
        assert [(item[0], item[3]) for item in batch.items] == [(4, 3), (9, 1)]

    def test_all_reversing_keeps_full_set(self) -> None:
        """When every candidate reverses, the filter must keep them all."""
        last = GenericSwap.unchecked(GenericSwapKind.SWAP_GATE, 3, 7, 1, None, 1.0)
        batch = FlatCandidateBatch()
        batch.items.append((7, 3, 1, -1, 1.0))
        batch.drop_reversing(last)
        assert len(batch) == 1


class TestBackendResolution:
    """``SchedulerConfig.__post_init__`` resolves the core exactly once."""

    def test_default_is_flat(self) -> None:
        assert SchedulerConfig().backend == "flat"

    @pytest.mark.parametrize("backend", SCHEDULER_BACKENDS)
    def test_explicit_backend_sticks(self, backend: str) -> None:
        assert SchedulerConfig(backend=backend).backend == backend

    def test_removed_incremental_backend_rejected(self) -> None:
        with pytest.raises(SchedulingError):
            SchedulerConfig(backend="incremental")

    def test_replace_chain_preserves_resolution(self) -> None:
        """dataclasses.replace re-runs __post_init__ on resolved values."""
        config = SchedulerConfig(backend="naive")
        assert replace(config, lookahead_depth=2).backend == "naive"
        assert replace(SchedulerConfig(), lookahead_depth=2).backend == "flat"
        assert replace(SchedulerConfig(), backend="naive").backend == "naive"

    def test_unknown_backend_rejected(self) -> None:
        with pytest.raises(SchedulingError):
            SchedulerConfig(backend="quadratic")


class TestHeterogeneousFlatState:
    def test_mirror_with_mixed_capacities(self) -> None:
        """Slab bases are capacity prefix sums, not a uniform stride."""
        traps = [Trap(0, 3, name="A"), Trap(1, 7, name="B"), Trap(2, 2, name="C")]
        connections = [Connection(0, 1, junctions=0, segments=1), Connection(1, 2, junctions=0, segments=1)]
        device = QCCDDevice(traps, connections, name="L-3-hetero")
        state = DeviceState.from_mapping(device, {0: (0, 1, 2), 1: (3, 4), 2: (5, 6)})
        flat = FlatState(state)
        flat.assert_mirrors(state)
        assert list(flat.base) == [0, 3, 10]
        assert flat.full_count == state.full_trap_count() == 2  # traps 0 and 2

        # Shuttling out of a full trap updates the Pen counter both ways.
        end = state.facing_end(0, 1)
        qubit = state.end_qubit(0, end)
        assert qubit is not None
        state.shuttle(qubit, 1)
        flat.apply_shuttle(qubit, 0, 1)
        flat.assert_mirrors(state)
        assert flat.full_count == state.full_trap_count() == 1

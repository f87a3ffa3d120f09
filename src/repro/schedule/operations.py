"""Scheduled operation records — the compiler's output vocabulary.

A compiled program is a time-ordered list of these records.  Each record
captures the *context* the noise model needs (trap occupancy, ion
separation, path length) at the moment the operation fires, so the
schedule can be re-evaluated under different gate implementations or
heating parameters without recompiling.

The records are plain ``__slots__`` classes with hand-written
constructors rather than frozen dataclasses: the scheduler creates one
per emitted operation (thousands per compile), and the dataclass
machinery dominated the emission path.  They keep value semantics —
field-wise ``__eq__``/``__hash__`` and a dataclass-style ``repr`` — and
are immutable by convention (never mutate a record after creation).
"""

from __future__ import annotations

from array import array
from collections import Counter
from enum import Enum
from typing import Callable

from repro.circuit.gate import Gate
from repro.exceptions import SchedulingError


class OperationKind(str, Enum):
    """Discriminator for the scheduled operation records."""

    GATE_1Q = "gate_1q"
    GATE_2Q = "gate_2q"
    SWAP = "swap"
    SHUTTLE = "shuttle"
    SPACE_SHIFT = "space_shift"


#: Stable one-byte codes for the operation kinds.  They order the
#: columnar slab sections and appear verbatim in the binary schedule
#: encoding (:mod:`repro.schedule.serialize`), so they must never be
#: renumbered — append new kinds at the end instead.
KIND_CODE_GATE_1Q = 0
KIND_CODE_GATE_2Q = 1
KIND_CODE_SWAP = 2
KIND_CODE_SHUTTLE = 3
KIND_CODE_SPACE_SHIFT = 4

KIND_BY_CODE: "tuple[OperationKind, ...]" = (
    OperationKind.GATE_1Q,
    OperationKind.GATE_2Q,
    OperationKind.SWAP,
    OperationKind.SHUTTLE,
    OperationKind.SPACE_SHIFT,
)

CODE_BY_KIND: "dict[OperationKind, int]" = {
    kind: code for code, kind in enumerate(KIND_BY_CODE)
}


class ScheduledOperation:
    """Base record; concrete kinds are the subclasses below."""

    __slots__ = ("kind",)

    kind: OperationKind

    def _fields(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._fields()))

    def __repr__(self) -> str:
        names = [slot for cls in reversed(type(self).__mro__) for slot in getattr(cls, "__slots__", ()) if slot != "kind"]
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__name__}({inner})"


class GateOperation(ScheduledOperation):
    """A program gate executed inside one trap.

    Attributes
    ----------
    gate:
        The original program gate.
    trap:
        Trap the gate executes in.
    chain_length:
        Number of ions in that trap at execution time (FM-gate input).
    ion_separation:
        Number of ions between the two operands (0 for adjacent ions,
        irrelevant for single-qubit gates).
    """

    __slots__ = ("gate", "trap", "chain_length", "ion_separation")

    def __init__(self, gate: Gate, trap: int, chain_length: int, ion_separation: int = 0) -> None:
        if chain_length < 1:
            raise SchedulingError("a gate needs at least one ion in the trap")
        if ion_separation < 0:
            raise SchedulingError("ion separation cannot be negative")
        self.kind = OperationKind.GATE_2Q if gate.is_two_qubit else OperationKind.GATE_1Q
        self.gate = gate
        self.trap = trap
        self.chain_length = chain_length
        self.ion_separation = ion_separation

    @classmethod
    def unchecked(
        cls, kind: OperationKind, gate: Gate, trap: int, chain_length: int, ion_separation: int
    ) -> "GateOperation":
        """Construct without field validation (scheduler hot-path emitter).

        The caller asserts the invariants ``__init__`` would check and
        passes the operation kind directly — the scheduler knows
        statically whether it is emitting a 1q or a 2q gate.
        """
        self = object.__new__(cls)
        self.kind = kind
        self.gate = gate
        self.trap = trap
        self.chain_length = chain_length
        self.ion_separation = ion_separation
        return self

    def _fields(self) -> tuple:
        return (self.gate, self.trap, self.chain_length, self.ion_separation)


class SwapOperation(ScheduledOperation):
    """An inserted SWAP gate between two ions in the same trap."""

    __slots__ = ("trap", "qubit_a", "qubit_b", "chain_length", "ion_separation")

    def __init__(
        self, trap: int, qubit_a: int, qubit_b: int, chain_length: int, ion_separation: int = 0
    ) -> None:
        if qubit_a == qubit_b:
            raise SchedulingError("a SWAP needs two distinct qubits")
        if chain_length < 2:
            raise SchedulingError("a SWAP needs at least two ions in the trap")
        if ion_separation < 0:
            raise SchedulingError("ion separation cannot be negative")
        self.kind = OperationKind.SWAP
        self.trap = trap
        self.qubit_a = qubit_a
        self.qubit_b = qubit_b
        self.chain_length = chain_length
        self.ion_separation = ion_separation

    @classmethod
    def unchecked(
        cls, trap: int, qubit_a: int, qubit_b: int, chain_length: int, ion_separation: int
    ) -> "SwapOperation":
        """Construct without field validation (trusted bulk producers)."""
        self = object.__new__(cls)
        self.kind = OperationKind.SWAP
        self.trap = trap
        self.qubit_a = qubit_a
        self.qubit_b = qubit_b
        self.chain_length = chain_length
        self.ion_separation = ion_separation
        return self

    def _fields(self) -> tuple:
        return (self.trap, self.qubit_a, self.qubit_b, self.chain_length, self.ion_separation)


class ShuttleOperation(ScheduledOperation):
    """A split / move / merge transfer of one ion between two traps.

    Attributes
    ----------
    qubit:
        The program qubit being moved.
    source_trap, target_trap:
        Endpoints of the transfer.
    segments:
        Straight electrode segments traversed (Table-1 "move" count).
    junctions:
        Junctions crossed along the way.
    source_chain_length:
        Ions in the source trap *before* the split.
    target_chain_length:
        Ions in the target trap *after* the merge.
    """

    __slots__ = (
        "qubit",
        "source_trap",
        "target_trap",
        "segments",
        "junctions",
        "source_chain_length",
        "target_chain_length",
    )

    def __init__(
        self,
        qubit: int,
        source_trap: int,
        target_trap: int,
        segments: int,
        junctions: int,
        source_chain_length: int,
        target_chain_length: int,
    ) -> None:
        if source_trap == target_trap:
            raise SchedulingError("a shuttle must change traps")
        if segments < 1:
            raise SchedulingError("a shuttle traverses at least one segment")
        if junctions < 0:
            raise SchedulingError("junction count cannot be negative")
        if source_chain_length < 1 or target_chain_length < 1:
            raise SchedulingError("chain lengths must be at least 1")
        self.kind = OperationKind.SHUTTLE
        self.qubit = qubit
        self.source_trap = source_trap
        self.target_trap = target_trap
        self.segments = segments
        self.junctions = junctions
        self.source_chain_length = source_chain_length
        self.target_chain_length = target_chain_length

    @classmethod
    def unchecked(
        cls,
        qubit: int,
        source_trap: int,
        target_trap: int,
        segments: int,
        junctions: int,
        source_chain_length: int,
        target_chain_length: int,
    ) -> "ShuttleOperation":
        """Construct without field validation (trusted bulk producers)."""
        self = object.__new__(cls)
        self.kind = OperationKind.SHUTTLE
        self.qubit = qubit
        self.source_trap = source_trap
        self.target_trap = target_trap
        self.segments = segments
        self.junctions = junctions
        self.source_chain_length = source_chain_length
        self.target_chain_length = target_chain_length
        return self

    def _fields(self) -> tuple:
        return (
            self.qubit,
            self.source_trap,
            self.target_trap,
            self.segments,
            self.junctions,
            self.source_chain_length,
            self.target_chain_length,
        )


class SpaceShiftOperation(ScheduledOperation):
    """Intra-trap reordering of one ion into an adjacent empty slot.

    This is a physical move of the ion within its own trap (no SWAP gate
    and no split/merge), used to bring an ion to the trap edge or to
    clear the receiving slot for an incoming ion.
    """

    __slots__ = ("trap", "qubit", "from_position", "to_position")

    def __init__(self, trap: int, qubit: int, from_position: int, to_position: int) -> None:
        if from_position == to_position:
            raise SchedulingError("a space shift must change the ion's position")
        if from_position < 0 or to_position < 0:
            raise SchedulingError("positions cannot be negative")
        self.kind = OperationKind.SPACE_SHIFT
        self.trap = trap
        self.qubit = qubit
        self.from_position = from_position
        self.to_position = to_position

    @classmethod
    def unchecked(
        cls, trap: int, qubit: int, from_position: int, to_position: int
    ) -> "SpaceShiftOperation":
        """Construct without field validation (trusted bulk producers)."""
        self = object.__new__(cls)
        self.kind = OperationKind.SPACE_SHIFT
        self.trap = trap
        self.qubit = qubit
        self.from_position = from_position
        self.to_position = to_position
        return self

    def _fields(self) -> tuple:
        return (self.trap, self.qubit, self.from_position, self.to_position)

    @property
    def distance(self) -> int:
        """Number of slots the ion moves by."""
        return abs(self.to_position - self.from_position)


class OperationSlab:
    """Columnar storage for an operation log: one array per field.

    The slab is the storage of every :class:`~repro.schedule.schedule
    .Schedule` and the direct input/output of the binary schedule codec:
    the schedulers and the baseline routers append plain integers into
    these arrays, and the encoder serialises the arrays wholesale — no
    per-operation record objects exist on that path at all.  ``kinds``
    holds one :data:`KIND_CODE_* <KIND_CODE_GATE_1Q>` byte per operation
    in schedule order; each kind's fields live in dedicated typed arrays
    appended in the same order, so walking ``kinds`` with per-kind
    cursors reconstructs the interleaved log exactly.

    :meth:`materialize` builds the classic :class:`ScheduledOperation`
    objects on demand (through the validation-free constructors — slab
    producers assert the invariants).

    :attr:`gates` may be deferred: the binary decoder fills every integer
    column but hands the slab a picklable zero-argument loader (see
    :meth:`defer_gates`) that builds the :class:`Gate` objects on first
    access, since the evaluator and the counters never read them.
    """

    __slots__ = (
        "kinds",
        "_gates",
        "_gate_loader",
        "gate_traps",
        "gate_chain_lengths",
        "gate_ion_separations",
        "swap_traps",
        "swap_qubits_a",
        "swap_qubits_b",
        "swap_chain_lengths",
        "swap_ion_separations",
        "shuttle_qubits",
        "shuttle_source_traps",
        "shuttle_target_traps",
        "shuttle_segments",
        "shuttle_junctions",
        "shuttle_source_chain_lengths",
        "shuttle_target_chain_lengths",
        "shift_traps",
        "shift_qubits",
        "shift_from_positions",
        "shift_to_positions",
    )

    def __init__(self) -> None:
        self.kinds = bytearray()
        self._gates: "list[Gate] | None" = []
        self._gate_loader: "Callable[[], list[Gate]] | None" = None
        self.gate_traps = array("i")
        self.gate_chain_lengths = array("i")
        self.gate_ion_separations = array("i")
        self.swap_traps = array("i")
        self.swap_qubits_a = array("i")
        self.swap_qubits_b = array("i")
        self.swap_chain_lengths = array("i")
        self.swap_ion_separations = array("i")
        self.shuttle_qubits = array("i")
        self.shuttle_source_traps = array("i")
        self.shuttle_target_traps = array("i")
        self.shuttle_segments = array("i")
        self.shuttle_junctions = array("i")
        self.shuttle_source_chain_lengths = array("i")
        self.shuttle_target_chain_lengths = array("i")
        self.shift_traps = array("i")
        self.shift_qubits = array("i")
        self.shift_from_positions = array("i")
        self.shift_to_positions = array("i")

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def gates(self) -> "list[Gate]":
        """The program gates, one per GATE_1Q/GATE_2Q code, in order."""
        gates = self._gates
        if gates is None:
            gates = self._gates = self._gate_loader()  # type: ignore[misc]
            self._gate_loader = None
        return gates

    def defer_gates(self, loader: "Callable[[], list[Gate]]") -> None:
        """Build :attr:`gates` by calling ``loader`` on first access.

        ``loader`` must be picklable (a module-level function or a
        :func:`functools.partial` of one) so a decoded slab pickles
        without forcing the gates.
        """
        self._gates = None
        self._gate_loader = loader

    # ------------------------------------------------------------------
    # typed appends (the scheduler hot path)
    # ------------------------------------------------------------------
    def append_gate(
        self, code: int, gate: Gate, trap: int, chain_length: int, ion_separation: int
    ) -> None:
        """Append a program gate (``code`` is GATE_1Q or GATE_2Q)."""
        self.kinds.append(code)
        self.gates.append(gate)
        self.gate_traps.append(trap)
        self.gate_chain_lengths.append(chain_length)
        self.gate_ion_separations.append(ion_separation)

    def append_swap(
        self, trap: int, qubit_a: int, qubit_b: int, chain_length: int, ion_separation: int
    ) -> None:
        self.kinds.append(KIND_CODE_SWAP)
        self.swap_traps.append(trap)
        self.swap_qubits_a.append(qubit_a)
        self.swap_qubits_b.append(qubit_b)
        self.swap_chain_lengths.append(chain_length)
        self.swap_ion_separations.append(ion_separation)

    def append_shuttle(
        self,
        qubit: int,
        source_trap: int,
        target_trap: int,
        segments: int,
        junctions: int,
        source_chain_length: int,
        target_chain_length: int,
    ) -> None:
        self.kinds.append(KIND_CODE_SHUTTLE)
        self.shuttle_qubits.append(qubit)
        self.shuttle_source_traps.append(source_trap)
        self.shuttle_target_traps.append(target_trap)
        self.shuttle_segments.append(segments)
        self.shuttle_junctions.append(junctions)
        self.shuttle_source_chain_lengths.append(source_chain_length)
        self.shuttle_target_chain_lengths.append(target_chain_length)

    def append_space_shift(
        self, trap: int, qubit: int, from_position: int, to_position: int
    ) -> None:
        self.kinds.append(KIND_CODE_SPACE_SHIFT)
        self.shift_traps.append(trap)
        self.shift_qubits.append(qubit)
        self.shift_from_positions.append(from_position)
        self.shift_to_positions.append(to_position)

    # ------------------------------------------------------------------
    # record-object interoperability
    # ------------------------------------------------------------------
    def append_operation(self, operation: ScheduledOperation) -> None:
        """Decompose one record object into the columns (cold path)."""
        if isinstance(operation, GateOperation):
            code = (
                KIND_CODE_GATE_2Q
                if operation.kind is OperationKind.GATE_2Q
                else KIND_CODE_GATE_1Q
            )
            self.append_gate(
                code,
                operation.gate,
                operation.trap,
                operation.chain_length,
                operation.ion_separation,
            )
        elif isinstance(operation, SwapOperation):
            self.append_swap(
                operation.trap,
                operation.qubit_a,
                operation.qubit_b,
                operation.chain_length,
                operation.ion_separation,
            )
        elif isinstance(operation, ShuttleOperation):
            self.append_shuttle(
                operation.qubit,
                operation.source_trap,
                operation.target_trap,
                operation.segments,
                operation.junctions,
                operation.source_chain_length,
                operation.target_chain_length,
            )
        elif isinstance(operation, SpaceShiftOperation):
            self.append_space_shift(
                operation.trap,
                operation.qubit,
                operation.from_position,
                operation.to_position,
            )
        else:
            raise SchedulingError(
                f"cannot store operation type {type(operation).__name__} in a slab"
            )

    def materialize(self) -> "list[ScheduledOperation]":
        """Rebuild the interleaved record-object log from the columns."""
        ops: "list[ScheduledOperation]" = []
        append = ops.append
        gates = self.gates
        gi = si = hi = pi = 0
        kind_1q = OperationKind.GATE_1Q
        kind_2q = OperationKind.GATE_2Q
        gate_op = GateOperation.unchecked
        swap_op = SwapOperation.unchecked
        shuttle_op = ShuttleOperation.unchecked
        shift_op = SpaceShiftOperation.unchecked
        for code in self.kinds:
            if code <= KIND_CODE_GATE_2Q:
                append(
                    gate_op(
                        kind_2q if code == KIND_CODE_GATE_2Q else kind_1q,
                        gates[gi],
                        self.gate_traps[gi],
                        self.gate_chain_lengths[gi],
                        self.gate_ion_separations[gi],
                    )
                )
                gi += 1
            elif code == KIND_CODE_SWAP:
                append(
                    swap_op(
                        self.swap_traps[si],
                        self.swap_qubits_a[si],
                        self.swap_qubits_b[si],
                        self.swap_chain_lengths[si],
                        self.swap_ion_separations[si],
                    )
                )
                si += 1
            elif code == KIND_CODE_SHUTTLE:
                append(
                    shuttle_op(
                        self.shuttle_qubits[hi],
                        self.shuttle_source_traps[hi],
                        self.shuttle_target_traps[hi],
                        self.shuttle_segments[hi],
                        self.shuttle_junctions[hi],
                        self.shuttle_source_chain_lengths[hi],
                        self.shuttle_target_chain_lengths[hi],
                    )
                )
                hi += 1
            else:
                append(
                    shift_op(
                        self.shift_traps[pi],
                        self.shift_qubits[pi],
                        self.shift_from_positions[pi],
                        self.shift_to_positions[pi],
                    )
                )
                pi += 1
        return ops

    # ------------------------------------------------------------------
    # summary counters without materialisation
    # ------------------------------------------------------------------
    def counts(self) -> "Counter[OperationKind]":
        """Per-kind operation counts straight off the kinds column."""
        counts: "Counter[OperationKind]" = Counter()
        kinds = self.kinds
        for code, kind in enumerate(KIND_BY_CODE):
            n = kinds.count(code)
            if n:
                counts[kind] = n
        return counts

    def junction_total(self) -> int:
        """Total junctions crossed by all shuttles."""
        return sum(self.shuttle_junctions)

    def segment_total(self) -> int:
        """Total straight segments traversed by all shuttles."""
        return sum(self.shuttle_segments)

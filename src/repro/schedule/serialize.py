"""Schedule serialisation: a JSON document format and a binary codec.

Compilation can be the expensive step of a workflow, so downstream users
often want to persist a schedule and re-evaluate it later (e.g. under a
different gate implementation, or on another machine).  These helpers
round-trip a :class:`~repro.schedule.Schedule` — together with enough
device metadata to rebuild an identical :class:`QCCDDevice` — through
either a plain JSON document (:func:`schedule_to_json`, human-readable,
stable since format version 1) or a **columnar binary encoding**
(:func:`schedule_to_bytes`, the schedule cache's on-disk format):

* a 4-byte magic + 1-byte version header;
* the circuit name and the device description (varint-framed strings,
  a float64 junction weight, varint trap/connection fields);
* an interned gate-name string table in first-appearance order;
* one *kind code* byte per operation in schedule order
  (:data:`~repro.schedule.operations.KIND_CODE_GATE_1Q` ...), followed
  by one little-endian ``int32`` column per operation field, grouped by
  kind — the wire image of an
  :class:`~repro.schedule.operations.OperationSlab`;
* varint-framed qubit lists and float64 parameters for the gates.

Decoding reads the columns wholesale into arrays and hands them to
:class:`Schedule` as its slab; it checks the qubit and parameter sections'
bounds but defers building the :class:`Gate` objects to the first
``slab.gates`` access, and no per-operation record objects are built
until somebody iterates the schedule — which is what makes binary disk
hits several times cheaper than re-parsing the JSON document.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from functools import partial
from typing import Any

from repro.circuit.gate import Gate
from repro.exceptions import ReproError
from repro.hardware.device import QCCDDevice
from repro.hardware.trap import Connection, Trap
from repro.schedule.operations import (
    KIND_BY_CODE,
    GateOperation,
    OperationKind,
    OperationSlab,
    ScheduledOperation,
    ShuttleOperation,
    SpaceShiftOperation,
    SwapOperation,
)
from repro.schedule.schedule import Schedule

#: Format marker stored in every document (bump on incompatible changes).
SCHEDULE_FORMAT_VERSION = 1

#: Magic prefix of the binary schedule encoding ("Repro SChedule Binary").
SCHEDULE_MAGIC = b"RSCB"

#: Version byte following the magic (bump on incompatible changes).
SCHEDULE_BINARY_VERSION = 1


# ----------------------------------------------------------------------
# device
# ----------------------------------------------------------------------
def device_to_dict(device: QCCDDevice) -> dict[str, Any]:
    """Serialise a device description to plain data."""
    return {
        "name": device.name,
        "junction_weight": device.junction_weight,
        "traps": [
            {"trap_id": trap.trap_id, "capacity": trap.capacity, "name": trap.name}
            for trap in device.traps
        ],
        "connections": [
            {
                "trap_a": connection.trap_a,
                "trap_b": connection.trap_b,
                "junctions": connection.junctions,
                "segments": connection.segments,
            }
            for connection in device.connections
        ],
    }


def device_from_dict(data: dict[str, Any]) -> QCCDDevice:
    """Rebuild a device from :func:`device_to_dict` output."""
    try:
        traps = [Trap(t["trap_id"], t["capacity"], t.get("name", "")) for t in data["traps"]]
        connections = [
            Connection(c["trap_a"], c["trap_b"], c.get("junctions", 0), c.get("segments", 1))
            for c in data["connections"]
        ]
        return QCCDDevice(
            traps,
            connections,
            name=data.get("name", "qccd"),
            junction_weight=data.get("junction_weight", 1.0),
        )
    except KeyError as exc:
        raise ReproError(f"device document is missing the {exc.args[0]!r} field") from exc


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------
def _operation_to_dict(operation: ScheduledOperation) -> dict[str, Any]:
    if isinstance(operation, GateOperation):
        return {
            "kind": operation.kind.value,
            "gate": {
                "name": operation.gate.name,
                "qubits": list(operation.gate.qubits),
                "params": list(operation.gate.params),
            },
            "trap": operation.trap,
            "chain_length": operation.chain_length,
            "ion_separation": operation.ion_separation,
        }
    if isinstance(operation, SwapOperation):
        return {
            "kind": operation.kind.value,
            "trap": operation.trap,
            "qubit_a": operation.qubit_a,
            "qubit_b": operation.qubit_b,
            "chain_length": operation.chain_length,
            "ion_separation": operation.ion_separation,
        }
    if isinstance(operation, ShuttleOperation):
        return {
            "kind": operation.kind.value,
            "qubit": operation.qubit,
            "source_trap": operation.source_trap,
            "target_trap": operation.target_trap,
            "segments": operation.segments,
            "junctions": operation.junctions,
            "source_chain_length": operation.source_chain_length,
            "target_chain_length": operation.target_chain_length,
        }
    if isinstance(operation, SpaceShiftOperation):
        return {
            "kind": operation.kind.value,
            "trap": operation.trap,
            "qubit": operation.qubit,
            "from_position": operation.from_position,
            "to_position": operation.to_position,
        }
    raise ReproError(f"cannot serialise operation type {type(operation).__name__}")


def _operation_from_dict(data: dict[str, Any]) -> ScheduledOperation:
    try:
        kind = OperationKind(data["kind"])
    except (KeyError, ValueError) as exc:
        raise ReproError(f"operation document has an invalid kind: {data.get('kind')!r}") from exc
    if kind in (OperationKind.GATE_1Q, OperationKind.GATE_2Q):
        gate_data = data["gate"]
        gate = Gate(gate_data["name"], tuple(gate_data["qubits"]), tuple(gate_data.get("params", ())))
        return GateOperation(
            gate=gate,
            trap=data["trap"],
            chain_length=data["chain_length"],
            ion_separation=data.get("ion_separation", 0),
        )
    if kind is OperationKind.SWAP:
        return SwapOperation(
            trap=data["trap"],
            qubit_a=data["qubit_a"],
            qubit_b=data["qubit_b"],
            chain_length=data["chain_length"],
            ion_separation=data.get("ion_separation", 0),
        )
    if kind is OperationKind.SHUTTLE:
        return ShuttleOperation(
            qubit=data["qubit"],
            source_trap=data["source_trap"],
            target_trap=data["target_trap"],
            segments=data["segments"],
            junctions=data["junctions"],
            source_chain_length=data["source_chain_length"],
            target_chain_length=data["target_chain_length"],
        )
    return SpaceShiftOperation(
        trap=data["trap"],
        qubit=data["qubit"],
        from_position=data["from_position"],
        to_position=data["to_position"],
    )


# ----------------------------------------------------------------------
# schedule
# ----------------------------------------------------------------------
def schedule_to_dict(schedule: Schedule) -> dict[str, Any]:
    """Serialise a schedule (device + operation log) to plain data."""
    return {
        "format_version": SCHEDULE_FORMAT_VERSION,
        "circuit_name": schedule.circuit_name,
        "device": device_to_dict(schedule.device),
        "operations": [_operation_to_dict(op) for op in schedule],
        "summary": schedule.count_summary(),
    }


def schedule_from_dict(data: dict[str, Any]) -> Schedule:
    """Rebuild a schedule from :func:`schedule_to_dict` output."""
    version = data.get("format_version")
    if version != SCHEDULE_FORMAT_VERSION:
        raise ReproError(
            f"unsupported schedule format version {version!r} "
            f"(this library writes version {SCHEDULE_FORMAT_VERSION})"
        )
    device = device_from_dict(data["device"])
    schedule = Schedule(device, data.get("circuit_name", "circuit"))
    for op_data in data.get("operations", []):
        schedule.append(_operation_from_dict(op_data))
    return schedule


def schedule_to_json(schedule: Schedule, indent: int | None = None) -> str:
    """Serialise a schedule to a JSON string."""
    return json.dumps(schedule_to_dict(schedule), indent=indent)


def schedule_from_json(text: str) -> Schedule:
    """Parse a schedule from a JSON string."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReproError(f"invalid schedule JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ReproError("a schedule document must be a JSON object")
    return schedule_from_dict(data)


# ----------------------------------------------------------------------
# binary codec primitives
# ----------------------------------------------------------------------
def write_varint(out: bytearray, value: int) -> None:
    """Append one unsigned LEB128 varint."""
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def read_varint(buf: bytes, pos: int) -> "tuple[int, int]":
    """Read one unsigned LEB128 varint; returns ``(value, new_pos)``."""
    value = 0
    shift = 0
    try:
        while True:
            byte = buf[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                return value, pos
            shift += 7
    except IndexError:
        raise ReproError("truncated binary schedule document") from None


def _write_str(out: bytearray, text: str) -> None:
    data = text.encode("utf-8")
    write_varint(out, len(data))
    out += data


def _read_str(buf: bytes, pos: int) -> "tuple[str, int]":
    length, pos = read_varint(buf, pos)
    end = pos + length
    if end > len(buf):
        raise ReproError("truncated binary schedule document")
    return buf[pos:end].decode("utf-8"), end


def _write_ints(out: bytearray, column: "array[int]") -> None:
    """Append one int32 column, always little-endian on the wire."""
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        column = array("i", column)
        column.byteswap()
    out += column.tobytes()


def _read_ints(buf: bytes, pos: int, count: int) -> "tuple[array, int]":
    end = pos + 4 * count
    if end > len(buf):
        raise ReproError("truncated binary schedule document")
    column = array("i")
    column.frombytes(buf[pos:end])
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        column.byteswap()
    return column, end


def _gate_unchecked(
    name: str, qubits: "tuple[int, ...]", params: "tuple[float, ...]"
) -> Gate:
    """Rebuild a gate without re-running validation (trusted decode path)."""
    gate = object.__new__(Gate)
    set_attr = object.__setattr__
    set_attr(gate, "name", name)
    set_attr(gate, "qubits", qubits)
    set_attr(gate, "params", params)
    n = len(qubits)
    set_attr(gate, "is_single_qubit", n == 1)
    set_attr(gate, "is_two_qubit", n == 2)
    return gate


# ----------------------------------------------------------------------
# binary codec
# ----------------------------------------------------------------------
def schedule_to_bytes(schedule: Schedule) -> bytes:
    """Encode a schedule (device + operation log) to the binary format.

    The schedule is encoded straight off its slab's columns.  The
    encoding is deterministic: the same schedule always produces the
    same bytes (the gate-name table is interned in first-appearance
    order).
    """
    slab = schedule.slab
    out = bytearray(SCHEDULE_MAGIC)
    out.append(SCHEDULE_BINARY_VERSION)
    _write_str(out, schedule.circuit_name)

    device = schedule.device
    _write_str(out, device.name)
    out += struct.pack("<d", device.junction_weight)
    write_varint(out, len(device.traps))
    for trap in device.traps:
        write_varint(out, trap.trap_id)
        write_varint(out, trap.capacity)
        _write_str(out, trap.name)
    write_varint(out, len(device.connections))
    for connection in device.connections:
        write_varint(out, connection.trap_a)
        write_varint(out, connection.trap_b)
        write_varint(out, connection.junctions)
        write_varint(out, connection.segments)

    # Gate-name table, interned in first-appearance order.
    name_table: "dict[str, int]" = {}
    name_column = array("i")
    for gate in slab.gates:
        index = name_table.setdefault(gate.name, len(name_table))
        name_column.append(index)
    write_varint(out, len(name_table))
    for name in name_table:  # insertion order == index order
        _write_str(out, name)

    write_varint(out, len(slab.kinds))
    out += slab.kinds

    # Gate columns + varint qubit lists + float64 params.
    _write_ints(out, name_column)
    _write_ints(out, slab.gate_traps)
    _write_ints(out, slab.gate_chain_lengths)
    _write_ints(out, slab.gate_ion_separations)
    params_flat: "list[float]" = []
    for gate in slab.gates:
        qubits = gate.qubits
        write_varint(out, len(qubits))
        for qubit in qubits:
            write_varint(out, qubit)
    for gate in slab.gates:
        params = gate.params
        write_varint(out, len(params))
        params_flat.extend(params)
    if params_flat:
        out += struct.pack(f"<{len(params_flat)}d", *params_flat)

    for column in (
        slab.swap_traps,
        slab.swap_qubits_a,
        slab.swap_qubits_b,
        slab.swap_chain_lengths,
        slab.swap_ion_separations,
        slab.shuttle_qubits,
        slab.shuttle_source_traps,
        slab.shuttle_target_traps,
        slab.shuttle_segments,
        slab.shuttle_junctions,
        slab.shuttle_source_chain_lengths,
        slab.shuttle_target_chain_lengths,
        slab.shift_traps,
        slab.shift_qubits,
        slab.shift_from_positions,
        slab.shift_to_positions,
    ):
        _write_ints(out, column)
    return bytes(out)


def schedule_from_bytes(data: bytes) -> Schedule:
    """Decode a schedule from :func:`schedule_to_bytes` output.

    The returned schedule is slab-backed: the integer columns are read
    wholesale, the slab's :class:`Gate` objects are built on first
    access to ``slab.gates``, and per-operation record objects are only
    materialised if the caller iterates the schedule.  Every check runs
    here, not on that first access: raises
    :class:`~repro.exceptions.ReproError` on a bad magic, an unsupported
    version, a truncated document, an unknown kind code, a gate-name
    index outside the name table, or bytes after the last column.
    """
    if data[: len(SCHEDULE_MAGIC)] != SCHEDULE_MAGIC:
        raise ReproError("not a binary schedule document (bad magic)")
    if len(data) < len(SCHEDULE_MAGIC) + 1:
        raise ReproError("truncated binary schedule document")
    version = data[len(SCHEDULE_MAGIC)]
    if version != SCHEDULE_BINARY_VERSION:
        raise ReproError(
            f"unsupported binary schedule version {version} "
            f"(this library writes version {SCHEDULE_BINARY_VERSION})"
        )
    pos = len(SCHEDULE_MAGIC) + 1
    circuit_name, pos = _read_str(data, pos)

    device_name, pos = _read_str(data, pos)
    if pos + 8 > len(data):
        raise ReproError("truncated binary schedule document")
    (junction_weight,) = struct.unpack_from("<d", data, pos)
    pos += 8
    n_traps, pos = read_varint(data, pos)
    traps = []
    for _ in range(n_traps):
        trap_id, pos = read_varint(data, pos)
        capacity, pos = read_varint(data, pos)
        trap_name, pos = _read_str(data, pos)
        traps.append(Trap(trap_id, capacity, trap_name))
    n_connections, pos = read_varint(data, pos)
    connections = []
    for _ in range(n_connections):
        trap_a, pos = read_varint(data, pos)
        trap_b, pos = read_varint(data, pos)
        junctions, pos = read_varint(data, pos)
        segments, pos = read_varint(data, pos)
        connections.append(Connection(trap_a, trap_b, junctions, segments))
    device = QCCDDevice(
        traps, connections, name=device_name, junction_weight=junction_weight
    )

    n_names, pos = read_varint(data, pos)
    names = []
    for _ in range(n_names):
        name, pos = _read_str(data, pos)
        names.append(name)

    n_ops, pos = read_varint(data, pos)
    end = pos + n_ops
    if end > len(data):
        raise ReproError("truncated binary schedule document")
    kinds = bytearray(data[pos:end])
    pos = end
    if kinds and max(kinds) >= len(KIND_BY_CODE):
        raise ReproError("binary schedule document has an unknown operation kind code")

    slab = OperationSlab()
    slab.kinds = kinds
    n_gates = kinds.count(0) + kinds.count(1)
    name_column, pos = _read_ints(data, pos, n_gates)
    if n_gates and (min(name_column) < 0 or max(name_column) >= len(names)):
        raise ReproError("binary schedule document references an unknown gate name")
    slab.gate_traps, pos = _read_ints(data, pos, n_gates)
    slab.gate_chain_lengths, pos = _read_ints(data, pos, n_gates)
    slab.gate_ion_separations, pos = _read_ints(data, pos, n_gates)
    # The qubit lists and parameters are only skipped here (every bound
    # checked); the Gate objects are built on first ``slab.gates`` access.
    qubits_at = pos
    pos, single_byte = _skip_qubit_lists(data, pos, n_gates)
    param_counts, pos = _read_param_counts(data, pos, n_gates)
    pos += 8 * sum(param_counts)
    if pos > len(data):
        raise ReproError("truncated binary schedule document")
    if n_gates:
        if not isinstance(data, bytes):
            data = bytes(data)  # the loader must not see later mutation
        slab.defer_gates(
            partial(_decode_gates, data, qubits_at, n_gates, single_byte, names, name_column)
        )

    slab.swap_traps, pos = _read_ints(data, pos, kinds.count(2))
    slab.swap_qubits_a, pos = _read_ints(data, pos, len(slab.swap_traps))
    slab.swap_qubits_b, pos = _read_ints(data, pos, len(slab.swap_traps))
    slab.swap_chain_lengths, pos = _read_ints(data, pos, len(slab.swap_traps))
    slab.swap_ion_separations, pos = _read_ints(data, pos, len(slab.swap_traps))
    n_shuttles = kinds.count(3)
    slab.shuttle_qubits, pos = _read_ints(data, pos, n_shuttles)
    slab.shuttle_source_traps, pos = _read_ints(data, pos, n_shuttles)
    slab.shuttle_target_traps, pos = _read_ints(data, pos, n_shuttles)
    slab.shuttle_segments, pos = _read_ints(data, pos, n_shuttles)
    slab.shuttle_junctions, pos = _read_ints(data, pos, n_shuttles)
    slab.shuttle_source_chain_lengths, pos = _read_ints(data, pos, n_shuttles)
    slab.shuttle_target_chain_lengths, pos = _read_ints(data, pos, n_shuttles)
    n_shifts = kinds.count(4)
    slab.shift_traps, pos = _read_ints(data, pos, n_shifts)
    slab.shift_qubits, pos = _read_ints(data, pos, n_shifts)
    slab.shift_from_positions, pos = _read_ints(data, pos, n_shifts)
    slab.shift_to_positions, pos = _read_ints(data, pos, n_shifts)
    if pos != len(data):
        raise ReproError("binary schedule document has trailing bytes")
    return Schedule(device, circuit_name, slab)


def _skip_qubit_lists(data: bytes, pos: int, count: int) -> "tuple[int, bool]":
    """Position just past ``count`` varint-framed qubit lists.

    Also reports whether every varint in the section is a single byte
    (qubit indices and list lengths below 128), which lets
    :func:`_decode_gates` slice the lists instead of parsing them.
    """
    start = pos
    try:
        for _ in range(count):
            pos += data[pos] + 1
    except IndexError:
        pos = len(data) + 1
    if pos <= len(data) and (pos == start or max(data[start:pos]) < 0x80):
        return pos, True
    pos = start
    for _ in range(count):
        n_qubits, pos = read_varint(data, pos)
        for _ in range(n_qubits):
            _, pos = read_varint(data, pos)
    return pos, False


def _read_param_counts(
    data: bytes, pos: int, count: int
) -> "tuple[bytes | list[int], int]":
    """``count`` varint parameter counts from ``pos``, and the position past them."""
    counts = data[pos : pos + count]
    if len(counts) == count and (not count or max(counts) < 0x80):
        return counts, pos + count  # all single-byte varints: the bytes are the counts
    parsed = []
    for _ in range(count):
        n_params, pos = read_varint(data, pos)
        parsed.append(n_params)
    return parsed, pos


def _decode_gates(
    data: bytes,
    pos: int,
    count: int,
    single_byte: bool,
    names: "list[str]",
    name_column: "array[int]",
) -> "list[Gate]":
    """Build the gates of a document :func:`schedule_from_bytes` checked.

    The deferred half of the decode: ``pos`` is the start of the qubit
    section, whose bounds (and the parameter section's) were validated
    before the loader was installed.
    """
    qubit_lists: "list[tuple[int, ...]]" = []
    if single_byte:
        for _ in range(count):
            end = pos + 1 + data[pos]
            qubit_lists.append(tuple(data[pos + 1 : end]))
            pos = end
    else:
        for _ in range(count):
            n_qubits, pos = read_varint(data, pos)
            qubits = []
            for _ in range(n_qubits):
                qubit, pos = read_varint(data, pos)
                qubits.append(qubit)
            qubit_lists.append(tuple(qubits))
    param_counts, pos = _read_param_counts(data, pos, count)
    total_params = sum(param_counts)
    params_flat = struct.unpack_from(f"<{total_params}d", data, pos) if total_params else ()

    gates = []
    cursor = 0
    for index in range(count):
        n_params = param_counts[index]
        params = tuple(params_flat[cursor : cursor + n_params])
        cursor += n_params
        gates.append(_gate_unchecked(names[name_column[index]], qubit_lists[index], params))
    return gates

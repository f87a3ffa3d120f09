"""Fuzz scenarios: declarative (circuit, device) pairs and their generator.

A :class:`Scenario` is the unit of work the differential oracle checks
and the minimizer shrinks: a circuit *spec* (either a named seeded
generator with its parameters, or an explicit gate list) plus a device
description in the :func:`~repro.schedule.serialize.device_to_dict`
form.  Scenarios are plain JSON values — they round-trip losslessly
through :meth:`Scenario.to_json`, which is what the regression corpus
under ``tests/fuzz/corpus/`` stores.

:class:`ScenarioGenerator` draws scenarios from a seeded RNG: a device
family (linear / ring / grid / star / hex), a size, homogeneous or
heterogeneous per-trap capacities, then a circuit family (random / QAOA
on a random Erdős–Rényi graph / random Clifford / GHZ / QFT) sized to
fit the device.  The same master seed always yields the same scenario
stream, so a failing campaign is reproducible from its seed alone.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterator

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gate import Gate
from repro.circuit.library import (
    ghz_circuit,
    qft_circuit,
    random_circuit,
    random_clifford,
    random_qaoa,
)
from repro.exceptions import ReproError
from repro.hardware.device import QCCDDevice
from repro.hardware.topologies import (
    grid_device,
    hex_device,
    linear_device,
    ring_device,
    star_device,
)
from repro.schedule.serialize import device_from_dict, device_to_dict

#: Format marker written into every scenario JSON document.
SCENARIO_FORMAT = "repro-fuzz-scenario-v1"

#: Free slots every well-formed scenario leaves on its device: the
#: mappers and the scheduler need room to shuttle (the property suite
#: uses the same margin).
MIN_FREE_SLOTS = 2

#: Circuit spec kinds a scenario may carry.
CIRCUIT_KINDS = ("random", "qaoa", "clifford", "ghz", "qft", "gates")

#: Device families the generator draws from.
DEVICE_FAMILIES = ("linear", "ring", "grid", "star", "hex")


class ScenarioError(ReproError):
    """Raised for malformed scenario documents or generator misuse."""


@dataclass(frozen=True)
class Scenario:
    """One fuzz case: a circuit spec plus an explicit device description.

    ``circuit`` is a JSON-able spec dictionary whose ``"kind"`` selects a
    seeded generator (``"random"``, ``"qaoa"``, ``"clifford"``,
    ``"ghz"``, ``"qft"``) or an explicit gate list (``"gates"``).
    ``device`` is always explicit (the ``device_to_dict`` shape), so the
    minimizer can drop traps and lower capacities without knowing which
    factory built it.
    """

    circuit: dict[str, Any]
    device: dict[str, Any]
    name: str = ""
    note: str = ""

    # ------------------------------------------------------------------
    # materialisation
    # ------------------------------------------------------------------
    def build_circuit(self) -> QuantumCircuit:
        """Materialise the circuit spec into a :class:`QuantumCircuit`."""
        spec = self.circuit
        kind = spec.get("kind")
        try:
            if kind == "random":
                return random_circuit(
                    spec["num_qubits"],
                    spec["num_two_qubit_gates"],
                    seed=spec.get("seed", 7),
                    locality=spec.get("locality"),
                )
            if kind == "qaoa":
                return random_qaoa(
                    spec["num_qubits"],
                    layers=spec.get("layers", 2),
                    edge_probability=spec.get("edge_probability", 0.4),
                    seed=spec.get("seed", 7),
                )
            if kind == "clifford":
                return random_clifford(
                    spec["num_qubits"],
                    depth=spec.get("depth", 8),
                    seed=spec.get("seed", 7),
                )
            if kind == "ghz":
                return ghz_circuit(spec["num_qubits"], ladder=spec.get("ladder", True))
            if kind == "qft":
                return qft_circuit(spec["num_qubits"])
            if kind == "gates":
                circuit = QuantumCircuit(
                    spec["num_qubits"], name=spec.get("name", "fuzz_gates")
                )
                for name, qubits, params in spec["gates"]:
                    circuit.append(Gate(name, tuple(qubits), tuple(params)))
                return circuit
        except KeyError as exc:
            raise ScenarioError(
                f"circuit spec {kind!r} is missing the {exc.args[0]!r} field"
            ) from exc
        raise ScenarioError(f"unknown circuit spec kind {kind!r}")

    def build_device(self) -> QCCDDevice:
        """Materialise the device description."""
        return device_from_dict(self.device)

    def explicit(self) -> "Scenario":
        """This scenario with its circuit flattened to an explicit gate list.

        The minimizer shrinks at gate granularity, so its first move is
        always to materialise the generator spec once and carry the gate
        list from there on.  ``gates``-form scenarios are returned
        unchanged.
        """
        if self.circuit.get("kind") == "gates":
            return self
        circuit = self.build_circuit()
        return replace(
            self,
            circuit={
                "kind": "gates",
                "name": circuit.name,
                "num_qubits": circuit.num_qubits,
                "gates": [
                    [gate.name, list(gate.qubits), list(gate.params)] for gate in circuit
                ],
            },
        )

    # ------------------------------------------------------------------
    # well-formedness
    # ------------------------------------------------------------------
    def is_well_formed(self) -> bool:
        """Can this scenario be compiled at all (independent of any bug)?

        A well-formed scenario has a buildable, connected device with at
        least :data:`MIN_FREE_SLOTS` spare slots beyond the circuit's
        qubit count, and a buildable circuit whose gates stay inside the
        qubit range.  The minimizer never proposes (and the oracle never
        blames) a scenario outside this envelope — shrinking a failure
        into a *legitimately* uncompilable input would be a useless
        reproducer.
        """
        try:
            device = self.build_device()
            circuit = self.build_circuit()
        except ReproError:
            return False
        if circuit.num_two_qubit_gates > 0 and circuit.num_qubits < 2:
            return False
        return device.total_capacity >= circuit.num_qubits + MIN_FREE_SLOTS

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (the corpus file shape)."""
        data: dict[str, Any] = {
            "format": SCENARIO_FORMAT,
            "circuit": self.circuit,
            "device": self.device,
        }
        if self.name:
            data["name"] = self.name
        if self.note:
            data["note"] = self.note
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output."""
        if data.get("format") != SCENARIO_FORMAT:
            raise ScenarioError(
                f"not a fuzz scenario document (format={data.get('format')!r})"
            )
        try:
            return cls(
                circuit=dict(data["circuit"]),
                device=dict(data["device"]),
                name=str(data.get("name", "")),
                note=str(data.get("note", "")),
            )
        except KeyError as exc:
            raise ScenarioError(
                f"scenario document is missing the {exc.args[0]!r} field"
            ) from exc

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario document is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ScenarioError("scenario document must be a JSON object")
        return cls.from_dict(data)

    def fingerprint(self) -> str:
        """SHA-256 over the canonical content (name/note excluded)."""
        payload = {"circuit": self.circuit, "device": self.device}
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """One-line human summary for campaign logs."""
        kind = self.circuit.get("kind", "?")
        qubits = self.circuit.get("num_qubits", "?")
        device_name = self.device.get("name", "?")
        traps = len(self.device.get("traps", ()))
        return f"{kind}({qubits}q) on {device_name} ({traps} traps)"


# ----------------------------------------------------------------------
# corpus I/O
# ----------------------------------------------------------------------
def write_scenario(scenario: Scenario, path: "str | Path") -> Path:
    """Write ``scenario`` as a JSON document; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(scenario.to_json() + "\n")
    return path


def load_scenario(path: "str | Path") -> Scenario:
    """Load one scenario JSON document."""
    return Scenario.from_json(Path(path).read_text())


def load_corpus(directory: "str | Path") -> list[tuple[Path, Scenario]]:
    """Load every ``*.json`` scenario under ``directory``, sorted by name."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return [(path, load_scenario(path)) for path in sorted(directory.glob("*.json"))]


# ----------------------------------------------------------------------
# the seeded generator
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GeneratorLimits:
    """Size envelope of generated scenarios.

    The defaults keep a single oracle pass (two backends, two
    baselines, verification, codec round-trip, two noise evaluations)
    well under a second, so hundreds of cases fit in a CI smoke job.
    """

    max_traps: int = 9
    min_capacity: int = 2
    max_capacity: int = 6
    max_qubits: int = 12
    max_two_qubit_gates: int = 24
    heterogeneous_fraction: float = 0.5


class ScenarioGenerator:
    """Seeded random-circuit x random-device scenario stream."""

    def __init__(self, seed: int = 0, limits: GeneratorLimits | None = None) -> None:
        self.seed = seed
        self.limits = limits or GeneratorLimits()
        self._rng = random.Random(seed)
        self._count = 0

    def __iter__(self) -> Iterator[Scenario]:
        while True:
            yield self.next_scenario()

    def generate(self, count: int) -> list[Scenario]:
        """The next ``count`` scenarios of the stream."""
        return [self.next_scenario() for _ in range(count)]

    def next_scenario(self) -> Scenario:
        """Draw the next scenario (device first, then a circuit that fits)."""
        rng = self._rng
        device = self._draw_device(rng)
        circuit = self._draw_circuit(rng, device)
        index = self._count
        self._count += 1
        scenario = Scenario(
            circuit=circuit,
            device=device_to_dict(device),
            name=f"case{index:04d}-{circuit['kind']}-{device.name}",
        )
        # The draw bounds guarantee this; assert the invariant anyway so
        # a future limits change cannot silently emit broken cases.
        if not scenario.is_well_formed():  # pragma: no cover - defensive
            raise ScenarioError(f"generator produced an ill-formed scenario: {scenario.describe()}")
        return scenario

    # ------------------------------------------------------------------
    def _draw_capacities(self, rng: random.Random, num_traps: int) -> "int | list[int]":
        limits = self.limits
        if rng.random() < limits.heterogeneous_fraction:
            return [
                rng.randint(limits.min_capacity, limits.max_capacity)
                for _ in range(num_traps)
            ]
        return rng.randint(limits.min_capacity, limits.max_capacity)

    def _draw_device(self, rng: random.Random) -> QCCDDevice:
        limits = self.limits
        family = rng.choice(DEVICE_FAMILIES)
        if family == "linear":
            n = rng.randint(2, limits.max_traps)
            return linear_device(n, self._draw_capacities(rng, n))
        if family == "ring":
            n = rng.randint(3, limits.max_traps)
            return ring_device(n, self._draw_capacities(rng, n))
        if family == "star":
            n = rng.randint(2, min(6, limits.max_traps))
            return star_device(n, self._draw_capacities(rng, n))
        if family == "grid":
            rows = rng.randint(1, min(3, max(1, limits.max_traps // 2)))
            max_cols = min(3, max(2 if rows == 1 else 1, limits.max_traps // rows))
            cols = rng.randint(2 if rows == 1 else 1, max_cols)
            return grid_device(rows, cols, self._draw_capacities(rng, rows * cols))
        rows = rng.randint(1, min(3, max(1, limits.max_traps // 2)))
        cols = rng.randint(2, min(3, max(2, limits.max_traps // rows)))
        return hex_device(rows, cols, self._draw_capacities(rng, rows * cols))

    def _draw_circuit(self, rng: random.Random, device: QCCDDevice) -> dict[str, Any]:
        limits = self.limits
        max_qubits = min(limits.max_qubits, device.total_capacity - MIN_FREE_SLOTS)
        num_qubits = rng.randint(2, max(2, max_qubits))
        kind = rng.choice(("random", "random", "qaoa", "clifford", "ghz", "qft"))
        seed = rng.randrange(1_000_000)
        if kind == "random":
            return {
                "kind": "random",
                "num_qubits": num_qubits,
                "num_two_qubit_gates": rng.randint(1, limits.max_two_qubit_gates),
                "seed": seed,
                "locality": rng.choice((None, 1, 2)),
            }
        if kind == "qaoa":
            return {
                "kind": "qaoa",
                "num_qubits": num_qubits,
                "layers": rng.randint(1, 3),
                # Discrete probabilities keep the JSON exact and the
                # corpus diff-friendly.
                "edge_probability": rng.choice((0.2, 0.4, 0.7)),
                "seed": seed,
            }
        if kind == "clifford":
            return {
                "kind": "clifford",
                "num_qubits": num_qubits,
                "depth": rng.randint(2, 8),
                "seed": seed,
            }
        if kind == "ghz":
            return {
                "kind": "ghz",
                "num_qubits": num_qubits,
                "ladder": rng.random() < 0.5,
            }
        return {"kind": "qft", "num_qubits": min(num_qubits, 10)}

"""Seeded input generators for the benchmark workloads.

Everything a workload sends to the program is built here, from the
workload seed and the fixed pools below, and nowhere else: the
benchmark imports no request plan from the package under test
(``repro.loadgen``, ``repro.fuzz``), so a change to those modules cannot
change what is measured.

Each pool is a fixed list of *compile keys* -- (circuit, device,
capacity, compiler, mapping) -- and every key a workload can send is in
``expected.json``, computed once by the naive reference scheduler core.
A run uses every key of its pool exactly once as a compilation, so the
amount of compile work and the quality totals do not depend on the
seed; the seed draws everything else (order, labels, the extra gate
implementations, arrival times, request kinds and their targets).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

GATE_IMPLEMENTATIONS = ("fm", "pm", "am1", "am2")


@dataclass(frozen=True)
class Key:
    """One compilation: everything that enters the compile fingerprint."""

    circuit: str
    device: str
    capacity: "int | None" = None
    compiler: str = "s-sync"
    mapping: "str | None" = None

    @property
    def name(self) -> str:
        """Stable text form, the key of ``expected.json``."""
        fields = (self.circuit, self.device, str(self.capacity or "-"), self.compiler,
                  self.mapping or "-")
        return "|".join(fields)

    def job(self, gate_implementation: str = "fm", label: str = "") -> dict:
        """The manifest job object for this key."""
        spec: dict = {"circuit": self.circuit, "device": self.device, "compiler": self.compiler}
        if self.capacity is not None:
            spec["capacity"] = self.capacity
        if self.mapping is not None:
            spec["mapping"] = self.mapping
        spec["gate_implementation"] = gate_implementation
        if label:
            spec["label"] = label
        return spec


# ----------------------------------------------------------------------
# compile_large: the routing-bound points of the scheduler-core shoot-out
# ----------------------------------------------------------------------
#: alt_64 on G-3x3/8 is the scheduler target the roadmap names; the
#: other points cover both families and the three device shapes of the
#: shoot-out (G-3x3 at capacity 8, G-2x4 at 14 and 18) up to 128 qubits.
COMPILE_LARGE_POOL = (
    Key("alt_64", "G-3x3", 8),
    Key("qft_64", "G-3x3", 8),
    Key("qft_96", "G-2x4", 14),
    Key("alt_128", "G-2x4", 18),
)


def compile_large_jobs(seed: int) -> "list[Key]":
    """Every compile_large point once, in a seeded order."""
    keys = list(COMPILE_LARGE_POOL)
    random.Random(f"compile_large:{seed}").shuffle(keys)
    return keys


# ----------------------------------------------------------------------
# sweep_batch: the scaled Figs. 8-12 grid
# ----------------------------------------------------------------------
#: Scaled circuits of Figs. 8-10 and the topologies each is run on.
SWEEP_CIRCUITS = {
    "qft_24": ("S-4", "L-6", "G-2x2", "G-2x3", "G-3x3"),
    "adder_16": ("S-4", "L-4", "G-2x2", "G-2x3"),
    "qaoa_32": ("S-4", "L-4", "G-2x2", "G-2x3", "G-3x3"),
    "alt_32": ("S-4", "G-2x2", "G-2x3", "G-3x3"),
    "qft_32": ("S-4", "G-2x2", "G-3x3"),
    "bv_48": ("S-4", "L-6", "G-2x3", "G-3x3"),
}

#: The compilers of Figs. 8-10 and the mappings of Fig. 12.
SWEEP_COMPILERS = (
    ("s-sync", "gathering"),
    ("s-sync", "even-divided"),
    ("s-sync", "sta"),
    ("murali", None),
    ("dai", None),
)

SWEEP_POOL = tuple(
    Key(circuit, device, None, compiler, mapping)
    for circuit, devices in SWEEP_CIRCUITS.items()
    for device in devices
    for compiler, mapping in SWEEP_COMPILERS
)


def sweep_manifest(seed: int) -> dict:
    """Every grid key under ``fm``, then every key again under one
    seeded other gate implementation (the two share one compile
    fingerprint), in grid order, with seeded labels."""
    rng = random.Random(f"sweep_batch:{seed}")
    jobs = [key.job("fm") for key in SWEEP_POOL]
    jobs += [key.job(rng.choice(GATE_IMPLEMENTATIONS[1:])) for key in SWEEP_POOL]
    for index, job in enumerate(jobs):
        job["label"] = f"s{rng.randrange(1 << 30):x}-{index}"
    return {"jobs": jobs}


# ----------------------------------------------------------------------
# service_mix: small circuits behind the HTTP service
# ----------------------------------------------------------------------
SERVICE_CIRCUITS = (
    "qft_8", "qft_10", "qft_12",
    "qaoa_8", "qaoa_10", "qaoa_12",
    "alt_6", "alt_8", "alt_10",
    "bv_10", "bv_12", "bv_14",
    "adder_3", "adder_4", "adder_5",
    "heisenberg_8",
)
SERVICE_DEVICES = (("G-2x2", 5), ("L-4", 5), ("S-4", 5))

SERVICE_POOL = tuple(
    Key(circuit, device, capacity)
    for circuit in SERVICE_CIRCUITS
    for device, capacity in SERVICE_DEVICES
)

#: A key outside every pool, compiled while the service warms up.
WARMUP_KEY = Key("qft_6", "G-2x2", 4)

COLD, HIT, REFETCH = "cold", "hit", "refetch"

#: A hit or refetch targets a request due at least this long before it,
#: so it normally finds the target finished.
TARGET_MIN_AGE_S = 0.5


@dataclass(frozen=True)
class Request:
    """One planned request of the open-loop schedule."""

    index: int
    due_s: float  #: offset from the start of the phase
    kind: str
    body: "bytes | None" = None  #: manifest for cold and hit submits
    key: "Key | None" = None
    target: "int | None" = None  #: request whose results a refetch reads


def _manifest_bytes(key: Key, gate_implementation: str, label: str) -> bytes:
    return json.dumps({"jobs": [key.job(gate_implementation, label)]}, sort_keys=True).encode()


def _kinds(rng: random.Random, count: int, colds: int, lead: int) -> "list[str]":
    """``lead`` colds, then the other colds, hits and refetches in seeded
    positions; hits and refetches split the rest exactly in half, so the
    mix -- and with it where the median falls -- is the same every run."""
    rest = count - colds
    tail = [COLD] * (colds - lead) + [HIT] * (rest // 2) + [REFETCH] * (rest - rest // 2)
    rng.shuffle(tail)
    return [COLD] * lead + tail


def _least_used(rng: random.Random, candidates: "list[Request]", uses: "dict[int, int]") -> Request:
    """A seeded pick among the candidates targeted least so far, so every
    run spreads its hits and refetches over the same targets."""
    fewest = min(uses.get(r.index, 0) for r in candidates)
    choice = rng.choice([r for r in candidates if uses.get(r.index, 0) == fewest])
    uses[choice.index] = fewest + 1
    return choice


def service_schedule(seed: int, rate: float, count: int, tag: str) -> "list[Request]":
    """The open-loop request plan of one service phase.

    ``count`` requests are due at a constant ``rate`` per second (a
    constant-throughput open loop: arrival bursts would make the run's
    queueing, and so its latencies, depend on the seed).  Every key of
    :data:`SERVICE_POOL` is submitted cold exactly once (the first six
    requests are cold); the other requests are hits -- an earlier cold
    key sent again with a new label and a seeded gate implementation --
    and refetches of an earlier submission's results.  ``tag`` keeps
    labels of different phases apart, so their job ids never collide.
    """
    rng = random.Random(f"service:{tag}:{seed}")
    keys = list(SERVICE_POOL)
    rng.shuffle(keys)
    colds = min(len(keys), count)
    plan: list[Request] = []
    submits: list[Request] = []
    uses: "dict[int, int]" = {}
    for index, kind in enumerate(_kinds(rng, count, colds, min(6, colds))):
        due = index / rate
        old = [r for r in submits if r.due_s <= due - TARGET_MIN_AGE_S] or submits[:1]
        if kind == COLD:
            key = keys.pop()
            request = Request(index, due, COLD, _manifest_bytes(key, "fm", f"{tag}c{index}"), key)
        elif kind == HIT:
            key = _least_used(rng, [r for r in old if r.kind == COLD] or submits[:1], uses).key
            implementation = rng.choice(GATE_IMPLEMENTATIONS)
            body = _manifest_bytes(key, implementation, f"{tag}h{index}")
            request = Request(index, due, HIT, body, key)
        else:
            request = Request(index, due, REFETCH, target=_least_used(rng, old, uses).index)
        if request.body is not None:
            submits.append(request)
        plan.append(request)
    return plan


def ladder_schedule(
    seed: int, rate: float, count: int, tag: str, known: "list[Request]"
) -> "list[Request]":
    """A ladder rung: ``count`` hits and refetches at a fixed ``rate``.

    Targets come from ``known`` -- submissions of the main phase, all
    finished by then -- so the rung measures cache-served traffic at a
    given offered rate, with no compilation in the loop.
    With ``rate`` infinite every request is due at once, which makes
    :func:`openloop.run_phase` a closed loop.
    """
    rng = random.Random(f"ladder:{tag}:{seed}")
    colds = [r for r in known if r.kind == COLD]
    submits = [r for r in known if r.body is not None]
    plan = []
    for index, kind in enumerate(_kinds(rng, count, 0, 0)):
        due = index / rate
        if kind == HIT:
            key = rng.choice(colds).key
            implementation = rng.choice(GATE_IMPLEMENTATIONS)
            body = _manifest_bytes(key, implementation, f"{tag}h{index}")
            plan.append(Request(index, due, HIT, body, key))
        else:
            plan.append(Request(index, due, REFETCH, target=rng.choice(submits).index))
    return plan


def all_keys() -> "list[Key]":
    """Every key any workload can send (the rows of ``expected.json``)."""
    return list(COMPILE_LARGE_POOL) + list(SWEEP_POOL) + list(SERVICE_POOL)

"""Flat-array scheduler core: batched candidate scoring on integer vectors.

The naive reference core scores every candidate on a fresh copy of
``DeviceState`` — dicts of lists that candidate generation walks and
every scored candidate mutates.  This module rebuilds the routing hot
path on flat integer vectors instead:

* :class:`FlatState` — a mirror of the run's working
  :class:`~repro.core.state.DeviceState` on ``array('i')`` vectors: one
  contiguous *slab* holding every trap's chain at a fixed base offset,
  chain lengths, per-qubit trap/position indices, capacities, and a
  ``bytearray`` bitset of completely full traps (the Pen term is a
  single counter read).  The mirror is advanced by
  :meth:`FlatRun.notify_applied` whenever the scheduler applies a swap
  for real, so it tracks the canonical state move-for-move.
* :class:`FlatCandidates` — candidate generation straight off the
  arrays, replaying the exact order and deduplication of
  :meth:`GenericSwapRules.candidates_for_gates` with precomputed
  per-edge shuttle weights and the fast
  :meth:`GenericSwap.unchecked` constructor.
* :class:`FlatBatchScorer` — the batched scorer: one ``select`` call
  evaluates **all** candidates of a generic-swap iteration in a single
  pass over the arrays.  A candidate's hypothetical placement costs a
  handful of array writes (a SWAP exchanges two position entries; a
  shuttle retargets the moved ion and adjusts two chain lengths, with
  uniform chain shifts folded into the distance arithmetic instead of
  written out) — no chain mutation, no per-candidate apply/undo
  dispatch, no method calls between candidates.

Scores are **bit-for-bit identical** to the reference scorer
(:meth:`HeuristicCost.swap_score`): the distance arithmetic replays
:meth:`HeuristicCost.pair_distance` operation-for-operation on the same
float inputs (the device's dense routing tables, exported flattened by
:attr:`QCCDDevice.flat_routing_tables`), the frontier minimum is read
off per-decay-class ``(dis, index)`` sort order, and the lookahead term
uses the reference scorer's base-plus-deltas definition, where a gate
whose distance is unchanged contributes an exact ``0.0``.  The
randomized naive-vs-flat parity suite under ``tests/core`` asserts
schedule and statistics equality between the two backends.
"""

from __future__ import annotations

from array import array
from bisect import insort

from repro.core.generic_swap import GenericSwap, GenericSwapKind, GenericSwapRules
from repro.core.heuristic import DecayTracker, HeuristicCost
from repro.core.state import DeviceState
from repro.hardware.device import QCCDDevice

Pair = tuple[int, int]


class FlatState:
    """Flat-array mirror of a :class:`DeviceState`.

    Layout: trap ``t``'s chain occupies ``slab[base[t] : base[t] +
    length[t]]`` (slots beyond the length are stale); ``qubit_trap`` /
    ``qubit_pos`` index by program-qubit id; ``full`` is a byte-per-trap
    occupancy bitset kept in sync with ``full_count`` (the Pen term).
    Mutation semantics mirror :meth:`DeviceState.unchecked_swap` and
    :meth:`DeviceState.unchecked_shuttle` exactly — same leaving end,
    same merge end, same position shifts.
    """

    __slots__ = (
        "num_traps",
        "base",
        "slab",
        "length",
        "capacity",
        "qubit_trap",
        "qubit_pos",
        "full",
        "full_count",
    )

    def __init__(self, state: DeviceState) -> None:
        chains, capacities, qubit_bound = state.flat_snapshot()
        num_traps = len(capacities)
        self.num_traps = num_traps
        self.capacity = array("i", capacities)
        base = array("i", [0]) * num_traps
        offset = 0
        for trap in range(num_traps):
            base[trap] = offset
            offset += capacities[trap]
        self.base = base
        slab = array("i", [-1]) * offset
        length = array("i", [0]) * num_traps
        qubit_trap = array("i", [-1]) * qubit_bound
        qubit_pos = array("i", [-1]) * qubit_bound
        full = bytearray(num_traps)
        full_count = 0
        for trap, chain in enumerate(chains):
            b0 = base[trap]
            for pos, qubit in enumerate(chain):
                slab[b0 + pos] = qubit
                qubit_trap[qubit] = trap
                qubit_pos[qubit] = pos
            length[trap] = len(chain)
            if len(chain) == capacities[trap]:
                full[trap] = 1
                full_count += 1
        self.slab = slab
        self.length = length
        self.qubit_trap = qubit_trap
        self.qubit_pos = qubit_pos
        self.full = full
        self.full_count = full_count

    # ------------------------------------------------------------------
    # mutations (mirrors of the DeviceState unchecked fast paths)
    # ------------------------------------------------------------------
    def apply_swap(self, qubit_a: int, qubit_b: int) -> None:
        """Mirror of :meth:`DeviceState.unchecked_swap`."""
        qpos = self.qubit_pos
        i = qpos[qubit_a]
        j = qpos[qubit_b]
        qpos[qubit_a] = j
        qpos[qubit_b] = i
        slab = self.slab
        b0 = self.base[self.qubit_trap[qubit_a]]
        slab[b0 + i] = qubit_b
        slab[b0 + j] = qubit_a

    def apply_shuttle(self, qubit: int, source_trap: int, target_trap: int) -> None:
        """Mirror of :meth:`DeviceState.unchecked_shuttle`."""
        slab = self.slab
        base = self.base
        length = self.length
        qpos = self.qubit_pos
        full = self.full
        if full[source_trap]:
            full[source_trap] = 0
            self.full_count -= 1
        remaining = length[source_trap] - 1
        length[source_trap] = remaining
        if target_trap < source_trap:
            # The ion leaves from the left end: the remaining chain
            # shifts down one slot (right pops leave the slab in place).
            b0 = base[source_trap]
            for offset in range(b0, b0 + remaining):
                other = slab[offset + 1]
                slab[offset] = other
                qpos[other] -= 1
        lt = length[target_trap]
        b0 = base[target_trap]
        if source_trap > target_trap:
            # Merge at the right end of the target chain.
            slab[b0 + lt] = qubit
            qpos[qubit] = lt
        else:
            # Merge at the left end: pre-existing ions shift up one slot.
            for offset in range(b0 + lt, b0, -1):
                other = slab[offset - 1]
                slab[offset] = other
                qpos[other] += 1
            slab[b0] = qubit
            qpos[qubit] = 0
        length[target_trap] = lt + 1
        self.qubit_trap[qubit] = target_trap
        if lt + 1 == self.capacity[target_trap]:
            full[target_trap] = 1
            self.full_count += 1

    # ------------------------------------------------------------------
    # introspection (tests and debugging; not on the hot path)
    # ------------------------------------------------------------------
    def chain(self, trap_id: int) -> list[int]:
        """The ordered ion chain of one trap, read off the slab."""
        b0 = self.base[trap_id]
        return list(self.slab[b0 : b0 + self.length[trap_id]])

    def assert_mirrors(self, state: DeviceState) -> None:
        """Raise :class:`AssertionError` unless this mirror matches ``state``."""
        chains, capacities, _ = state.flat_snapshot()
        assert self.num_traps == len(capacities), "trap count diverged"
        assert self.full_count == state.full_trap_count(), "full-trap count diverged"
        for trap, chain in enumerate(chains):
            assert self.length[trap] == len(chain), f"trap {trap} length diverged"
            assert self.chain(trap) == chain, f"trap {trap} chain diverged"
            assert bool(self.full[trap]) == (len(chain) == capacities[trap]), (
                f"trap {trap} fullness bit diverged"
            )
            for pos, qubit in enumerate(chain):
                assert self.qubit_trap[qubit] == trap, f"qubit {qubit} trap diverged"
                assert self.qubit_pos[qubit] == pos, f"qubit {qubit} position diverged"


class FlatCandidateBatch:
    """One iteration's candidate set as a list of scalar tuples.

    Each entry is ``(qubit_a, qubit_b, trap, target_trap, weight)`` with
    ``-1`` as the "not a SWAP" / "not a shuttle" sentinel for
    ``qubit_b`` / ``target_trap`` — one tuple allocation per candidate
    instead of a :class:`GenericSwap` object; the object is materialised
    only for the single winning candidate (:meth:`build`), not for the
    ~20 losers of a typical iteration.  List order is the reference
    candidate order — index ``i`` here is candidate ``i`` of the other
    backends.
    """

    __slots__ = ("items",)

    def __init__(self) -> None:
        self.items: list[tuple[int, int, int, int, float]] = []

    def __len__(self) -> int:
        return len(self.items)

    def build(self, index: int) -> GenericSwap:
        """Materialise candidate ``index`` as a :class:`GenericSwap`."""
        qubit_a, qubit_b, trap, target_trap, weight = self.items[index]
        if qubit_b < 0:
            return GenericSwap.unchecked(
                GenericSwapKind.SHUTTLE, qubit_a, None, trap, target_trap, weight
            )
        return GenericSwap.unchecked(
            GenericSwapKind.SWAP_GATE, qubit_a, qubit_b, trap, None, weight
        )

    def drop_reversing(self, last: GenericSwap) -> None:
        """Remove candidates that undo ``last`` — unless all of them do.

        Replays the reference loop's filter semantics: when every
        candidate reverses the previously applied swap, the set is kept
        unchanged (the scheduler must still pick something).
        """
        items = self.items
        reversing: list[int] = []
        if last.qubit_b is None:
            last_qubit = last.qubit_a
            last_source = last.trap
            last_target = last.target_trap
            for index, (qubit_a, qubit_b, trap, target_trap, _weight) in enumerate(items):
                if (
                    qubit_b < 0
                    and qubit_a == last_qubit
                    and trap == last_target
                    and target_trap == last_source
                ):
                    reversing.append(index)
        else:
            last_a = last.qubit_a
            last_b = last.qubit_b
            for index, (qubit_a, qubit_b, _trap, _target, _weight) in enumerate(items):
                if qubit_b < 0:
                    continue
                if (qubit_a == last_a and qubit_b == last_b) or (
                    qubit_a == last_b and qubit_b == last_a
                ):
                    reversing.append(index)
        if not reversing or len(reversing) == len(items):
            return
        for index in reversed(reversing):
            del items[index]


class FlatCandidates:
    """Candidate generation over the flat arrays.

    Replays the exact candidate order and deduplication of
    :meth:`GenericSwapRules.candidates_for_gates` (so tie-breaking and
    statistics are unchanged), with the per-edge shuttle weights
    ``shuttle_weight * (1 + junctions)`` precomputed into a dense float
    matrix.  Candidates are emitted into a :class:`FlatCandidateBatch`
    of parallel scalar lists — no per-candidate object is constructed
    until the scorer has picked the winner.
    """

    __slots__ = ("_flat", "_next_hop", "_n", "_inner", "_edge_weight", "_neighbors")

    def __init__(self, flat: FlatState, device: QCCDDevice, rules: GenericSwapRules) -> None:
        self._flat = flat
        n = device.num_traps
        self._n = n
        self._next_hop = device.flat_routing_tables[1]
        self._inner = rules.weights.inner_weight
        edge_weight = array("d", [0.0]) * (n * n)
        shuttle_weight = rules.weights.shuttle_weight
        for connection in device.connections:
            weight = shuttle_weight * (1 + connection.junctions)
            edge_weight[connection.trap_a * n + connection.trap_b] = weight
            edge_weight[connection.trap_b * n + connection.trap_a] = weight
        self._edge_weight = edge_weight
        self._neighbors: tuple[tuple[int, ...], ...] = tuple(
            tuple(device.neighbors(trap)) for trap in range(n)
        )

    def candidates_for_gates(
        self, state: DeviceState, gate_qubit_pairs: list[Pair]
    ) -> FlatCandidateBatch:
        """The candidate set ``S`` of Algorithm 1, read off the arrays.

        ``state`` is accepted for signature compatibility with the other
        generators but not consulted — the flat mirror is authoritative
        (and kept identical by :meth:`FlatRun.notify_applied`).
        """
        flat = self._flat
        qtrap = flat.qubit_trap
        qpos = flat.qubit_pos
        slab = flat.slab
        base = flat.base
        length = flat.length
        caps = flat.capacity
        next_hop = self._next_hop
        n = self._n
        inner = self._inner
        edge_weight = self._edge_weight
        neighbors = self._neighbors
        seen: set[tuple[int, int, int, int]] = set()
        seen_add = seen.add
        batch = FlatCandidateBatch()
        emit = batch.items.append
        for qubit_a, qubit_b in gate_qubit_pairs:
            trap_a = qtrap[qubit_a]
            trap_b = qtrap[qubit_b]
            if trap_a == trap_b:
                continue
            for qubit, goal in ((qubit_a, trap_b), (qubit_b, trap_a)):
                source = qtrap[qubit]
                if source == goal:
                    continue
                next_trap = next_hop[source * n + goal]
                towards_right = next_trap > source
                b0 = base[source]
                chain_len = length[source]
                index = qpos[qubit]
                end_index = chain_len - 1 if towards_right else 0
                end_qubit = slab[b0 + end_index] if chain_len else -1
                if end_qubit >= 0 and end_qubit != qubit:
                    key = (0, qubit, end_qubit, source)
                    if key not in seen:
                        seen_add(key)
                        distance = end_index - index if towards_right else index
                        emit((qubit, end_qubit, source, -1, inner * distance))
                neighbour_index = index + 1 if towards_right else index - 1
                if 0 <= neighbour_index < chain_len:
                    other = slab[b0 + neighbour_index]
                    if other != qubit and other != end_qubit:
                        key = (0, qubit, other, source)
                        if key not in seen:
                            seen_add(key)
                            emit((qubit, other, source, -1, inner))
                if index == end_index:
                    if length[next_trap] < caps[next_trap]:
                        key = (1, qubit, source, next_trap)
                        if key not in seen:
                            seen_add(key)
                            emit((qubit, -1, source, next_trap, edge_weight[source * n + next_trap]))
                    else:
                        # Eviction shuttles out of the full next trap.
                        bf = base[next_trap]
                        lf = length[next_trap]
                        for neighbour in neighbors[next_trap]:
                            if length[neighbour] >= caps[neighbour] or lf == 0:
                                continue
                            victim = slab[bf + lf - 1] if neighbour > next_trap else slab[bf]
                            if victim == qubit:
                                continue
                            key = (1, victim, next_trap, neighbour)
                            if key not in seen:
                                seen_add(key)
                                emit(
                                    (
                                        victim,
                                        -1,
                                        next_trap,
                                        neighbour,
                                        edge_weight[next_trap * n + neighbour],
                                    )
                                )
        return batch


def _flat_pair_distance(
    a: int,
    b: int,
    qtrap: array,
    qpos: array,
    length: array,
    next_hop: array,
    penultimate: array,
    dist: array,
    n: int,
    inner: float,
    shuttle_w: float,
) -> float:
    """Eq. 2's ``dis`` term off the flat arrays.

    Bit-identical to :meth:`HeuristicCost.pair_distance` (same operand
    order, same float inputs).  Also serves as the
    hypothetical-SWAP distance: the batched scorer exchanges the two
    position entries in ``qpos`` before calling it (a SWAP changes
    nothing else the distance reads).
    """
    ta = qtrap[a]
    tb = qtrap[b]
    pa = qpos[a]
    if ta == tb:
        separation = pa - qpos[b]
        if separation < 0:
            separation = -separation
        if separation > 1:
            separation -= 1
        else:
            separation = 0
        return inner * (separation + 1)
    pb = qpos[b]
    index = ta * n + tb
    hop_a = next_hop[index]
    to_end_a = length[ta] - 1 - pa if hop_a > ta else pa
    hop_b = penultimate[index]
    to_end_b = length[tb] - 1 - pb if hop_b > tb else pb
    return inner * (to_end_a + to_end_b) + shuttle_w * dist[index]


def _flat_shuttle_distance(
    a: int,
    b: int,
    moved: int,
    source: int,
    target: int,
    src_shift: int,
    tgt_shift: int,
    qtrap: array,
    qpos: array,
    length: array,
    next_hop: array,
    penultimate: array,
    dist: array,
    n: int,
    inner: float,
    shuttle_w: float,
) -> float:
    """``dis`` under a hypothetical shuttle of ``moved`` (source → target).

    The caller has already retargeted ``moved`` in ``qtrap``/``qpos``
    and adjusted the two chain lengths; the uniform position shift a
    left pop / left merge applies to *other* ions in the source/target
    chains is folded in here instead of being written to the arrays, so
    scoring a candidate never touches unrelated entries.
    """
    ta = qtrap[a]
    tb = qtrap[b]
    pa = qpos[a]
    if a != moved:
        if ta == source:
            pa += src_shift
        elif ta == target:
            pa += tgt_shift
    pb = qpos[b]
    if b != moved:
        if tb == source:
            pb += src_shift
        elif tb == target:
            pb += tgt_shift
    if ta == tb:
        separation = pa - pb
        if separation < 0:
            separation = -separation
        if separation > 1:
            separation -= 1
        else:
            separation = 0
        return inner * (separation + 1)
    index = ta * n + tb
    hop_a = next_hop[index]
    to_end_a = length[ta] - 1 - pa if hop_a > ta else pa
    hop_b = penultimate[index]
    to_end_b = length[tb] - 1 - pb if hop_b > tb else pb
    return inner * (to_end_a + to_end_b) + shuttle_w * dist[index]


class FlatBatchScorer:
    """Batched evaluation of ``H(swap)`` (Eq. 1) over the flat arrays.

    ``begin_iteration`` keeps a per-frontier snapshot (rebuilt on a DAG
    revision change, otherwise patched for only the gates recent swaps
    affected) plus per-iteration
    *index maps*: qubit -> gate indices and, for cross-trap gates,
    trap -> (gate index, which-end-the-route-leaves-by).  :meth:`select`
    then scores **all** candidates of the iteration in one pass — per
    candidate it assembles the exact set of gates whose distance can
    change (a few map lookups plus an end-direction test), recomputes
    only those, and reads everything else from cached aggregates:

    * the frontier minimum comes from per-decay-class ``(dis, index)``
      sort order — ``(dis + Pen) * factor`` is monotone in ``dis`` for a
      fixed factor, so the first un-touched entry of each class realises
      that class's minimum;
    * the lookahead term is the reference scorer's base-plus-deltas
      form: a cached in-order base sum plus the per-gate differences of
      the touched entries, accumulated in index order (an unchanged
      entry contributes an exact ``0.0``, so the exactness of the
      touched-set filter cannot change the float).

    Hypothetical placements never mutate chains: a SWAP exchanges two
    ``qubit_pos`` entries, a shuttle retargets the moved ion and adjusts
    two chain lengths, and the uniform position shift of bystander ions
    is folded into the distance arithmetic.  Scores are bit-identical to
    :meth:`HeuristicCost.swap_score`.
    """

    __slots__ = (
        "_flat",
        "_dist",
        "_next_hop",
        "_penultimate",
        "_n",
        "_inner",
        "_shuttle",
        "_base_penalty",
        "_frontier_pairs",
        "_lookahead_pairs",
        "_lookahead_weight",
        "_frontier_dis",
        "_lookahead_dis",
        "_frontier_traps",
        "_lookahead_traps",
        "_frontier_by_qubit",
        "_lookahead_by_qubit",
        "_frontier_by_trap",
        "_lookahead_by_trap",
        "_base_future",
        "_factors",
        "_ordered_by_factor",
        "_ordered_items",
        "_revision",
        "_pending_qubits",
        "_pending_traps",
        "_groups_dirty",
    )

    def __init__(self, flat: FlatState, device: QCCDDevice, cost: HeuristicCost) -> None:
        self._flat = flat
        self._dist, self._next_hop, self._penultimate = device.flat_routing_tables
        self._n = device.num_traps
        self._inner = cost.weights.inner_weight
        self._shuttle = cost.weights.shuttle_weight
        self._base_penalty = 0.0
        self._frontier_pairs: list[Pair] = []
        self._lookahead_pairs: list[Pair] = []
        self._lookahead_weight = 0.0
        self._frontier_dis: list[float] = []
        self._lookahead_dis: list[float] = []
        self._frontier_traps: list[Pair] = []
        self._lookahead_traps: list[Pair] = []
        self._frontier_by_qubit: dict[int, list[int]] = {}
        self._lookahead_by_qubit: dict[int, list[int]] = {}
        self._frontier_by_trap: dict[int, list[tuple[int, bool]]] = {}
        self._lookahead_by_trap: dict[int, list[tuple[int, bool]]] = {}
        self._base_future: float | None = None
        self._factors: list[float] = []
        self._ordered_by_factor: dict[float, list[tuple[float, int]]] = {}
        self._ordered_items: list[tuple[float, list[tuple[float, int]]]] = []
        self._revision = -1
        self._pending_qubits: set[int] = set()
        self._pending_traps: set[int] = set()
        self._groups_dirty = True

    # ------------------------------------------------------------------
    # cache invalidation
    # ------------------------------------------------------------------
    def notify_applied(self, candidate: GenericSwap) -> None:
        """Record what an applied swap invalidates for the next iteration."""
        if candidate.qubit_b is None:
            self._pending_qubits.add(candidate.qubit_a)
            self._pending_traps.add(candidate.trap)
            self._pending_traps.add(candidate.target_trap)  # type: ignore[arg-type]
        else:
            self._pending_qubits.add(candidate.qubit_a)
            self._pending_qubits.add(candidate.qubit_b)

    # ------------------------------------------------------------------
    # per-iteration snapshot
    # ------------------------------------------------------------------
    def begin_iteration(
        self,
        frontier_pairs: list[Pair],
        decay: DecayTracker,
        lookahead_pairs: "list[Pair] | None",
        lookahead_weight: float,
        revision: int,
    ) -> None:
        """Prepare the snapshots for this iteration's batched ``select``."""
        if revision != self._revision:
            self._frontier_pairs = frontier_pairs
            self._lookahead_pairs = lookahead_pairs or []
            self._lookahead_weight = lookahead_weight
            self._rebuild()
            self._revision = revision
            self._pending_qubits.clear()
            self._pending_traps.clear()
        elif self._pending_qubits or self._pending_traps:
            self._patch()
        self._base_future = None
        self._base_penalty = float(self._flat.full_count)

        factors = decay.factors(self._frontier_pairs)
        if self._groups_dirty or factors != self._factors:
            self._factors = factors
            ordered: dict[float, list[tuple[float, int]]] = {}
            setdefault = ordered.setdefault
            for index, dis in enumerate(self._frontier_dis):
                setdefault(factors[index], []).append((dis, index))
            for entries in ordered.values():
                entries.sort()
            self._ordered_by_factor = ordered
            self._ordered_items = list(ordered.items())
            self._groups_dirty = False

    def _pair_distance(self, a: int, b: int) -> float:
        """Real (non-hypothetical) pair distance off the current arrays."""
        flat = self._flat
        return _flat_pair_distance(
            a,
            b,
            flat.qubit_trap,
            flat.qubit_pos,
            flat.length,
            self._next_hop,
            self._penultimate,
            self._dist,
            self._n,
            self._inner,
            self._shuttle,
        )

    def _build_trap_map(
        self, trap_pairs: list[Pair]
    ) -> dict[int, list[tuple[int, bool]]]:
        """Cross-trap gate indices keyed by operand trap, with end flags.

        The flag records whether the gate's route leaves that trap by
        its *right* end (towards larger trap ids): a shuttle only
        changes the gate's ``to-end`` distance when it departs from /
        merges at the very end the route uses, so the flag makes the
        per-candidate affected test exact instead of trap-level
        conservative.
        """
        by_trap: dict[int, list[tuple[int, bool]]] = {}
        setdefault = by_trap.setdefault
        next_hop = self._next_hop
        penultimate = self._penultimate
        n = self._n
        for index, (trap_a, trap_b) in enumerate(trap_pairs):
            if trap_a == trap_b:
                continue
            flat_index = trap_a * n + trap_b
            setdefault(trap_a, []).append((index, next_hop[flat_index] > trap_a))
            setdefault(trap_b, []).append((index, penultimate[flat_index] > trap_b))
        return by_trap

    def _rebuild(self) -> None:
        """Recompute the full per-revision snapshot (frontier changed)."""
        pair_distance = self._pair_distance
        qtrap = self._flat.qubit_trap
        self._frontier_dis = [pair_distance(a, b) for a, b in self._frontier_pairs]
        self._lookahead_dis = [pair_distance(a, b) for a, b in self._lookahead_pairs]
        self._frontier_traps = [(qtrap[a], qtrap[b]) for a, b in self._frontier_pairs]
        self._lookahead_traps = [(qtrap[a], qtrap[b]) for a, b in self._lookahead_pairs]
        frontier_by_qubit: dict[int, list[int]] = {}
        setdefault = frontier_by_qubit.setdefault
        for index, (qubit_a, qubit_b) in enumerate(self._frontier_pairs):
            setdefault(qubit_a, []).append(index)
            setdefault(qubit_b, []).append(index)
        self._frontier_by_qubit = frontier_by_qubit
        lookahead_by_qubit: dict[int, list[int]] = {}
        setdefault = lookahead_by_qubit.setdefault
        for index, (qubit_a, qubit_b) in enumerate(self._lookahead_pairs):
            setdefault(qubit_a, []).append(index)
            setdefault(qubit_b, []).append(index)
        self._lookahead_by_qubit = lookahead_by_qubit
        self._frontier_by_trap = self._build_trap_map(self._frontier_traps)
        self._lookahead_by_trap = self._build_trap_map(self._lookahead_traps)
        self._groups_dirty = True

    def _patch(self) -> None:
        """Rescore only the gates affected by recently applied swaps."""
        qubits = self._pending_qubits
        traps = self._pending_traps
        if self._patch_section(
            qubits,
            traps,
            self._frontier_pairs,
            self._frontier_dis,
            self._frontier_traps,
            self._frontier_by_qubit,
            self._frontier_by_trap,
        ):
            self._groups_dirty = True
        self._patch_section(
            qubits,
            traps,
            self._lookahead_pairs,
            self._lookahead_dis,
            self._lookahead_traps,
            self._lookahead_by_qubit,
            self._lookahead_by_trap,
        )
        qubits.clear()
        traps.clear()

    def _patch_section(
        self,
        qubits: set[int],
        traps: set[int],
        pairs: list[Pair],
        dis: list[float],
        trap_pairs: list[Pair],
        by_qubit: dict[int, list[int]],
        by_trap: dict[int, list[tuple[int, bool]]],
    ) -> bool:
        """Refresh the entries the applied swaps may have changed.

        The affected entries are read straight off the index maps (the
        moved qubits' gates plus every cross-trap gate keyed on a
        touched trap) instead of scanning the whole gate list.  The
        trap map itself is maintained in place: an applied SWAP never
        changes trap membership, and an applied shuttle re-keys only
        the entries whose gate contains the moved ion — so map surgery
        on those few entries replaces a full rebuild.
        """
        affected: list[int] = []
        extend = affected.extend
        empty: tuple = ()
        for qubit in qubits:
            extend(by_qubit.get(qubit, empty))
        for trap in traps:
            for index, _leaves_right in by_trap.get(trap, empty):
                affected.append(index)
        if not affected:
            return False
        affected.sort()
        pair_distance = self._pair_distance
        qtrap = self._flat.qubit_trap
        next_hop = self._next_hop
        penultimate = self._penultimate
        n = self._n
        previous = -1
        for index in affected:
            if index == previous:
                continue
            previous = index
            qubit_a, qubit_b = pairs[index]
            dis[index] = pair_distance(qubit_a, qubit_b)
            old_a, old_b = trap_pairs[index]
            new_a = qtrap[qubit_a]
            new_b = qtrap[qubit_b]
            if new_a != old_a or new_b != old_b:
                if old_a != old_b:
                    flat_index = old_a * n + old_b
                    by_trap[old_a].remove((index, next_hop[flat_index] > old_a))
                    by_trap[old_b].remove((index, penultimate[flat_index] > old_b))
                if new_a != new_b:
                    flat_index = new_a * n + new_b
                    insort(by_trap.setdefault(new_a, []), (index, next_hop[flat_index] > new_a))
                    insort(by_trap.setdefault(new_b, []), (index, penultimate[flat_index] > new_b))
                trap_pairs[index] = (new_a, new_b)
        return True

    # ------------------------------------------------------------------
    # the batched pass
    # ------------------------------------------------------------------
    def select(self, candidates: FlatCandidateBatch, stats) -> GenericSwap:
        """Argmin of ``H`` over ``candidates`` in one pass over the arrays.

        Counts one candidate evaluation per candidate into ``stats`` and
        applies the reference tie-break (first candidate strictly better
        than the incumbent by more than ``1e-12`` wins), so schedules
        *and* statistics match the other backends bit-for-bit.

        The distance arithmetic is inlined — at full scale the scorer
        recomputes a couple of million distances per run and the call
        overhead of a helper per distance is the single largest cost.
        Touched-gate collections are plain lists that may hold
        duplicates: a duplicate recompute cannot change a minimum, and
        the lookahead delta pass sorts and skips equal neighbours, so
        no per-candidate set is ever materialised.

        The hypothetical array writes are reverted inline per candidate;
        an exception here aborts the scheduling run, so no try/finally
        is spent keeping the mirror pristine mid-batch.
        """
        flat = self._flat
        qtrap = flat.qubit_trap
        qpos = flat.qubit_pos
        length = flat.length
        caps = flat.capacity
        full_bits = flat.full
        next_hop = self._next_hop
        penultimate = self._penultimate
        dist = self._dist
        n = self._n
        inner = self._inner
        shuttle_w = self._shuttle
        factors = self._factors
        frontier_pairs = self._frontier_pairs
        f_by_qubit = self._frontier_by_qubit
        f_by_trap = self._frontier_by_trap
        ordered_items = self._ordered_items
        base_penalty = self._base_penalty
        lookahead_pairs = self._lookahead_pairs
        lookahead_weight = self._lookahead_weight
        lookahead_on = bool(lookahead_pairs) and lookahead_weight > 0.0
        empty: tuple = ()
        lookahead_dis: list[float] = []
        la_by_qubit: dict[int, list[int]] = {}
        la_by_trap: dict[int, list[tuple[int, bool]]] = {}
        num_lookahead = 0
        base_future = 0.0
        if lookahead_on:
            lookahead_dis = self._lookahead_dis
            la_by_qubit = self._lookahead_by_qubit
            la_by_trap = self._lookahead_by_trap
            num_lookahead = len(lookahead_pairs)
            cached_future = self._base_future
            if cached_future is None:
                for dis_value in lookahead_dis:
                    base_future += dis_value
                self._base_future = base_future
            else:
                base_future = cached_future
        infinity = float("inf")
        best_score = infinity
        best_index = 0
        cand_index = -1
        for moved_a, moved_b, cand_trap, cand_target, cand_weight in candidates.items:
            cand_index += 1
            if moved_b < 0:
                # ---- SHUTTLE: retarget the moved ion, adjust two lengths ----
                source = cand_trap
                target = cand_target
                source_len = length[source]
                target_len = length[target]
                penalty = base_penalty
                if full_bits[source]:
                    penalty -= 1.0
                if target_len + 1 == caps[target]:
                    penalty += 1.0
                old_pos = qpos[moved_a]
                if target > source:
                    src_shift = 0
                    tgt_shift = 1
                    qpos[moved_a] = 0
                else:
                    src_shift = -1
                    tgt_shift = 0
                    qpos[moved_a] = target_len
                qtrap[moved_a] = target
                length[source] = source_len - 1
                length[target] = target_len + 1
                # The shuttle departs the source end facing the target
                # and merges at the target end facing the source; only
                # gates routed through those exact ends change distance.
                departs_right = target > source
                merges_right = source > target
                touched = list(f_by_qubit.get(moved_a, empty))
                append = touched.append
                for index, leaves_right in f_by_trap.get(source, empty):
                    if leaves_right == departs_right:
                        append(index)
                for index, leaves_right in f_by_trap.get(target, empty):
                    if leaves_right == merges_right:
                        append(index)
                best = infinity
                for index in touched:
                    a, b = frontier_pairs[index]
                    ta = qtrap[a]
                    tb = qtrap[b]
                    pa = qpos[a]
                    if a != moved_a:
                        if ta == source:
                            pa += src_shift
                        elif ta == target:
                            pa += tgt_shift
                    pb = qpos[b]
                    if b != moved_a:
                        if tb == source:
                            pb += src_shift
                        elif tb == target:
                            pb += tgt_shift
                    if ta == tb:
                        separation = pa - pb
                        if separation < 0:
                            separation = -separation
                        if separation > 1:
                            separation -= 1
                        else:
                            separation = 0
                        dis_value = inner * (separation + 1)
                    else:
                        flat_index = ta * n + tb
                        to_end_a = length[ta] - 1 - pa if next_hop[flat_index] > ta else pa
                        to_end_b = length[tb] - 1 - pb if penultimate[flat_index] > tb else pb
                        dis_value = inner * (to_end_a + to_end_b) + shuttle_w * dist[flat_index]
                    score = (dis_value + penalty) * factors[index]
                    if score < best:
                        best = score
                for factor, ordered in ordered_items:
                    for dis_value, index in ordered:
                        if index in touched:
                            continue
                        score = (dis_value + penalty) * factor
                        if score < best:
                            best = score
                        break
                total = best + cand_weight
                if lookahead_on:
                    la_touched = list(la_by_qubit.get(moved_a, empty))
                    append = la_touched.append
                    for index, leaves_right in la_by_trap.get(source, empty):
                        if leaves_right == departs_right:
                            append(index)
                    for index, leaves_right in la_by_trap.get(target, empty):
                        if leaves_right == merges_right:
                            append(index)
                    future = base_future
                    if la_touched:
                        la_touched.sort()
                        previous = -1
                        for index in la_touched:
                            if index == previous:
                                continue
                            previous = index
                            a, b = lookahead_pairs[index]
                            ta = qtrap[a]
                            tb = qtrap[b]
                            pa = qpos[a]
                            if a != moved_a:
                                if ta == source:
                                    pa += src_shift
                                elif ta == target:
                                    pa += tgt_shift
                            pb = qpos[b]
                            if b != moved_a:
                                if tb == source:
                                    pb += src_shift
                                elif tb == target:
                                    pb += tgt_shift
                            if ta == tb:
                                separation = pa - pb
                                if separation < 0:
                                    separation = -separation
                                if separation > 1:
                                    separation -= 1
                                else:
                                    separation = 0
                                after = inner * (separation + 1)
                            else:
                                flat_index = ta * n + tb
                                to_end_a = length[ta] - 1 - pa if next_hop[flat_index] > ta else pa
                                to_end_b = length[tb] - 1 - pb if penultimate[flat_index] > tb else pb
                                after = inner * (to_end_a + to_end_b) + shuttle_w * dist[flat_index]
                            before = lookahead_dis[index]
                            if after != before:
                                future += after - before
                    total += lookahead_weight * (future / num_lookahead)
                qtrap[moved_a] = source
                qpos[moved_a] = old_pos
                length[source] = source_len
                length[target] = target_len
            else:
                # ---- SWAP: exchange the two position entries ----
                pos_a = qpos[moved_a]
                pos_b = qpos[moved_b]
                qpos[moved_a] = pos_b
                qpos[moved_b] = pos_a
                penalty = base_penalty
                touched_a = f_by_qubit.get(moved_a, empty)
                touched_b = f_by_qubit.get(moved_b, empty)
                best = infinity
                for touched in (touched_a, touched_b):
                    for index in touched:
                        a, b = frontier_pairs[index]
                        ta = qtrap[a]
                        tb = qtrap[b]
                        if ta == tb:
                            separation = qpos[a] - qpos[b]
                            if separation < 0:
                                separation = -separation
                            if separation > 1:
                                separation -= 1
                            else:
                                separation = 0
                            dis_value = inner * (separation + 1)
                        else:
                            flat_index = ta * n + tb
                            pa = qpos[a]
                            pb = qpos[b]
                            to_end_a = length[ta] - 1 - pa if next_hop[flat_index] > ta else pa
                            to_end_b = length[tb] - 1 - pb if penultimate[flat_index] > tb else pb
                            dis_value = inner * (to_end_a + to_end_b) + shuttle_w * dist[flat_index]
                        score = (dis_value + penalty) * factors[index]
                        if score < best:
                            best = score
                for factor, ordered in ordered_items:
                    for dis_value, index in ordered:
                        if index in touched_a or index in touched_b:
                            continue
                        score = (dis_value + penalty) * factor
                        if score < best:
                            best = score
                        break
                total = best + cand_weight
                if lookahead_on:
                    la_a = la_by_qubit.get(moved_a, empty)
                    la_b = la_by_qubit.get(moved_b, empty)
                    future = base_future
                    if la_a or la_b:
                        if la_a and la_b:
                            la_touched = list(la_a)
                            la_touched.extend(la_b)
                            la_touched.sort()
                        else:
                            la_touched = la_a or la_b
                        previous = -1
                        for index in la_touched:
                            if index == previous:
                                continue
                            previous = index
                            a, b = lookahead_pairs[index]
                            ta = qtrap[a]
                            tb = qtrap[b]
                            if ta == tb:
                                separation = qpos[a] - qpos[b]
                                if separation < 0:
                                    separation = -separation
                                if separation > 1:
                                    separation -= 1
                                else:
                                    separation = 0
                                after = inner * (separation + 1)
                            else:
                                flat_index = ta * n + tb
                                pa = qpos[a]
                                pb = qpos[b]
                                to_end_a = length[ta] - 1 - pa if next_hop[flat_index] > ta else pa
                                to_end_b = length[tb] - 1 - pb if penultimate[flat_index] > tb else pb
                                after = inner * (to_end_a + to_end_b) + shuttle_w * dist[flat_index]
                            before = lookahead_dis[index]
                            if after != before:
                                future += after - before
                    total += lookahead_weight * (future / num_lookahead)
                qpos[moved_a] = pos_a
                qpos[moved_b] = pos_b
            if total < best_score - 1e-12:
                best_score = total
                best_index = cand_index
        stats.candidate_evaluations += len(candidates)
        return candidates.build(best_index)


class FlatRun:
    """The per-run flat backend bundle handed through the scheduling loop.

    Owns the array mirror of the run's *working* state plus the flat
    candidate generator and batched scorer bound to it.  The scheduler
    calls :meth:`notify_applied` for every swap it applies for real —
    that single entry point both advances the mirror and feeds the
    scorer's qubit/trap invalidation sets, which is what keeps the
    arrays and the canonical :class:`DeviceState` move-for-move
    identical for the whole run.
    """

    __slots__ = ("flat", "scorer", "generator")

    def __init__(
        self,
        state: DeviceState,
        device: QCCDDevice,
        rules: GenericSwapRules,
        cost: HeuristicCost,
    ) -> None:
        self.flat = FlatState(state)
        self.generator = FlatCandidates(self.flat, device, rules)
        self.scorer = FlatBatchScorer(self.flat, device, cost)

    def notify_applied(self, candidate: GenericSwap) -> None:
        """Advance the mirror and invalidate snapshots after a real move."""
        if candidate.qubit_b is None:
            self.flat.apply_shuttle(
                candidate.qubit_a, candidate.trap, candidate.target_trap  # type: ignore[arg-type]
            )
        else:
            self.flat.apply_swap(candidate.qubit_a, candidate.qubit_b)
        self.scorer.notify_applied(candidate)

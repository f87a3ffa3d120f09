"""Heuristic cost functions of the S-SYNC scheduler (Eqs. 1–3).

``score(g)`` estimates the cost of making gate ``g`` executable from the
current (or a hypothetical) qubit placement: the weighted distance between
its two operands in the static topology graph plus a penalty counting
fully occupied traps (a full trap cannot receive a shuttled ion and
therefore risks blocking routing).

``H(swap) = min_g { decay(g) * score(g) } + w(swap)`` scores one candidate
generic swap; the scheduler picks the candidate with the lowest ``H``.
The decay factor inflates the score of gates whose qubits were moved
recently, discouraging the search from repeatedly shuffling the same
ions (paper §3.3 and §4.4: δ defaults to 0.001, reset after 5 idle
iterations).

:meth:`HeuristicCost.swap_score` here is the *reference* evaluator — a
scratch state copy and a full rescore per candidate — used by the naive
scheduler core.  The flat core (:mod:`repro.core.flatstate`) evaluates
the same quantities bit-identically on integer arrays; the randomized
parity suite holds the two together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.generic_swap import GenericSwap, GenericSwapKind
from repro.core.state import DeviceState
from repro.exceptions import SchedulingError
from repro.hardware.graph import GraphWeights


@dataclass
class DecayTracker:
    """Per-qubit decay bookkeeping (paper §3.3).

    A qubit that took part in a generic swap within the last
    ``reset_interval`` scheduler iterations contributes a factor of
    ``1 + delta`` to the score of any frontier gate touching it; after
    ``reset_interval`` iterations without further involvement the factor
    resets to 1.
    """

    delta: float = 0.001
    reset_interval: int = 5
    _last_touched: dict[int, int] = field(default_factory=dict)
    _iteration: int = 0

    def __post_init__(self) -> None:
        if self.delta < 0:
            raise SchedulingError("the decay delta cannot be negative")
        if self.reset_interval < 1:
            raise SchedulingError("the decay reset interval must be at least 1")

    def advance(self) -> None:
        """Move to the next scheduler iteration."""
        self._iteration += 1

    def record(self, qubits: tuple[int, ...]) -> None:
        """Mark qubits as touched by the generic swap applied this iteration."""
        for qubit in qubits:
            self._last_touched[qubit] = self._iteration

    def factor(self, qubits: tuple[int, ...]) -> float:
        """The decay multiplier for a gate acting on ``qubits``."""
        for qubit in qubits:
            last = self._last_touched.get(qubit)
            if last is not None and self._iteration - last < self.reset_interval:
                return 1.0 + self.delta
        return 1.0

    def factors(self, pairs: list[tuple[int, int]]) -> list[float]:
        """:meth:`factor` for many gates at once (one scheduler iteration).

        Bulk variant for the flat batch scorer: identical values, one
        call per iteration instead of one per gate.
        """
        last_touched = self._last_touched
        if not last_touched:
            return [1.0] * len(pairs)
        get = last_touched.get
        threshold = self._iteration - self.reset_interval
        inflated = 1.0 + self.delta
        result: list[float] = []
        append = result.append
        for qubit_a, qubit_b in pairs:
            last = get(qubit_a)
            if last is not None and last > threshold:
                append(inflated)
                continue
            last = get(qubit_b)
            append(inflated if last is not None and last > threshold else 1.0)
        return result

    def reset(self) -> None:
        """Forget all decay history."""
        self._last_touched.clear()
        self._iteration = 0


class HeuristicCost:
    """Distance + penalty scoring over the chain occupancy state."""

    def __init__(self, weights: GraphWeights | None = None) -> None:
        self.weights = weights or GraphWeights()

    # ------------------------------------------------------------------
    # Eq. 2: score(g)
    # ------------------------------------------------------------------
    def pair_distance(self, state: DeviceState, qubit_a: int, qubit_b: int) -> float:
        """Weighted routing distance between two qubits (the ``dis`` term).

        Same trap: ``inner_weight * chain distance`` (the cost of the SWAP
        that would make them adjacent, also a proxy for gate duration).
        Different traps: cost of SWAPping each operand to the chain end
        facing the other trap plus the shuttle-weighted trap distance.
        """
        trap_a = state.trap_of(qubit_a)
        trap_b = state.trap_of(qubit_b)
        inner = self.weights.inner_weight
        if trap_a == trap_b:
            return inner * (state.ion_separation(qubit_a, qubit_b) + 1)
        device = state.device
        # next_hop/penultimate_hop read the precomputed shortest-path
        # matrices — no path-list construction in this innermost loop.
        end_a = state.facing_end(trap_a, device.next_hop(trap_a, trap_b))
        end_b = state.facing_end(trap_b, device.penultimate_hop(trap_a, trap_b))
        edge_cost = inner * (state.distance_to_end(qubit_a, end_a) + state.distance_to_end(qubit_b, end_b))
        shuttle_cost = self.weights.shuttle_weight * device.trap_distance(trap_a, trap_b)
        return edge_cost + shuttle_cost

    def blocked_trap_penalty(self, state: DeviceState) -> float:
        """The Pen term: number of traps with no free slot."""
        return float(state.full_trap_count())

    def gate_score(self, state: DeviceState, qubit_a: int, qubit_b: int) -> float:
        """score(g) = dis(q1 → q2) + Pen (Eq. 2)."""
        return self.pair_distance(state, qubit_a, qubit_b) + self.blocked_trap_penalty(state)

    # ------------------------------------------------------------------
    # Eq. 1: H(swap)
    # ------------------------------------------------------------------
    def swap_score(
        self,
        state: DeviceState,
        candidate: GenericSwap,
        frontier_pairs: list[tuple[int, int]],
        decay: DecayTracker,
        lookahead_pairs: list[tuple[int, int]] | None = None,
        lookahead_weight: float = 0.5,
    ) -> float:
        """H(swap) for one candidate, evaluated on a hypothetical state.

        The candidate is applied to a scratch copy of ``state`` (the
        paper's ``π_temp`` / ``space_temp``), every frontier gate is
        scored under that placement, and the minimum decayed score plus
        the candidate's own weight is returned.  An optional lookahead
        term averages the scores of near-future gates, weighted by
        ``lookahead_weight`` (0 disables it and matches the paper's
        formulation exactly).

        The lookahead average is defined in *base-plus-deltas* form: the
        in-order sum of the gate distances under the **current**
        placement, plus the (rounded) per-gate difference the candidate
        introduces, accumulated in gate-list order.  A gate whose
        distance is unchanged contributes an exact ``0.0``, so the value
        is independent of *which* superset of the truly-changed gates an
        implementation inspects — this is the property that lets the
        fast backends combine a cached base sum with a handful of
        deltas and still be bit-identical to this reference.
        """
        if not frontier_pairs:
            raise SchedulingError("H(swap) needs at least one waiting gate")
        scratch = state.copy()
        apply_generic_swap(scratch, candidate)
        penalty = self.blocked_trap_penalty(scratch)
        best = float("inf")
        for qubit_a, qubit_b in frontier_pairs:
            score = self.pair_distance(scratch, qubit_a, qubit_b) + penalty
            score *= decay.factor((qubit_a, qubit_b))
            if score < best:
                best = score
        total = best + candidate.weight
        if lookahead_pairs and lookahead_weight > 0.0:
            future = 0.0
            for qubit_a, qubit_b in lookahead_pairs:
                future += self.pair_distance(state, qubit_a, qubit_b)
            for qubit_a, qubit_b in lookahead_pairs:
                after = self.pair_distance(scratch, qubit_a, qubit_b)
                before = self.pair_distance(state, qubit_a, qubit_b)
                if after != before:
                    future += after - before
            total += lookahead_weight * (future / len(lookahead_pairs))
        return total


def apply_generic_swap(state: DeviceState, candidate: GenericSwap) -> None:
    """Mutate ``state`` according to one generic swap."""
    if candidate.kind is GenericSwapKind.SWAP_GATE:
        assert candidate.qubit_b is not None
        state.swap_qubits(candidate.qubit_a, candidate.qubit_b)
    else:
        assert candidate.target_trap is not None
        state.shuttle(candidate.qubit_a, candidate.target_trap)

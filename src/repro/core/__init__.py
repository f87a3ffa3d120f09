"""S-SYNC core: device state, generic swaps, heuristics, scheduler, compiler."""

from repro.core.compiler import SSyncCompiler, SSyncConfig, compile_circuit
from repro.core.flatstate import (
    FlatBatchScorer,
    FlatCandidateBatch,
    FlatCandidates,
    FlatRun,
    FlatState,
)
from repro.core.generic_swap import GenericSwap, GenericSwapKind, GenericSwapRules
from repro.core.heuristic import DecayTracker, HeuristicCost, apply_generic_swap
from repro.core.mapping import (
    EvenDividedMapper,
    GatheringMapper,
    InitialMapper,
    STAMapper,
    get_mapper,
)
from repro.core.result import CompilationResult
from repro.core.scheduler import (
    SCHEDULER_BACKENDS,
    GenericSwapScheduler,
    SchedulerConfig,
    SchedulerStatistics,
)
from repro.core.state import LEFT, RIGHT, DeviceState

__all__ = [
    "CompilationResult",
    "DecayTracker",
    "DeviceState",
    "EvenDividedMapper",
    "FlatBatchScorer",
    "FlatCandidateBatch",
    "FlatCandidates",
    "FlatRun",
    "FlatState",
    "GatheringMapper",
    "GenericSwap",
    "GenericSwapKind",
    "GenericSwapRules",
    "GenericSwapScheduler",
    "HeuristicCost",
    "InitialMapper",
    "LEFT",
    "RIGHT",
    "SCHEDULER_BACKENDS",
    "SSyncCompiler",
    "SSyncConfig",
    "STAMapper",
    "SchedulerConfig",
    "SchedulerStatistics",
    "apply_generic_swap",
    "compile_circuit",
    "get_mapper",
]

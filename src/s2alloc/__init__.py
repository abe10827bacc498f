"""Statistically hardened slot allocator with analytical and simulated attack models.

Public surface:

  - AllocatorConfig / config_from_env: tunables (slot entropy, canary lengths,
    placement randomization, guard-page rate) with environment overrides;
  - ThreadHeap: the allocator itself (malloc/calloc/realloc/free plus canary
    checks and detection reporting);
  - ModelParams, s1_rates, s2_rates, s2_chain_rates, rates_for_strategy,
    attack_rate_A, fbc_overlap_D: attack/detection rate series;
  - simulate_strategy, simulate_allocator_attack: Monte Carlo of the same game,
    abstract or against a live heap;
  - cli.main: the `s2alloc` command-line entry point.
"""

from .config import AllocatorConfig, ConfigError, config_from_env
from .core import (
    DetectionKind,
    DetectionReport,
    FbcCheck,
    HeapCorruptionError,
    PagePool,
    SubBag,
    ThreadHeap,
)
from .canary import (
    HAS_HARDWARE_BACKEND,
    KeyedCanary,
    cmac_aes128,
    compute_canary,
    derive_mac_key,
)
from .model import (
    ModelDomainError,
    ModelParams,
    OverlapRate,
    RateSeries,
    WARN_ATTACK_PROB_CLAMPED,
    WARN_COMBINED_EXCEEDS_ONE,
    WARN_WINDOW_EXCEEDS_SLOTS,
    attack_rate_A,
    fbc_overlap_D,
    rates_for_strategy,
    s1_rates,
    s2_chain_rates,
    s2_rates,
)
from .os_mem import (
    ContractViolation,
    MemoryExhausted,
    MemoryTrap,
    SimulatedBacking,
)
from .rng import PcgState, current_thread_id, heap_rng
from .simulator import (
    GridPoint,
    HarnessResult,
    SimResult,
    evaluate_point,
    format_grid_report,
    rounds_to_reach_detection,
    simulate_allocator_attack,
    simulate_strategy,
)

__version__ = "0.1.0"

__all__ = [
    "AllocatorConfig",
    "ConfigError",
    "config_from_env",
    "DetectionKind",
    "DetectionReport",
    "FbcCheck",
    "HeapCorruptionError",
    "PagePool",
    "SubBag",
    "ThreadHeap",
    "HAS_HARDWARE_BACKEND",
    "KeyedCanary",
    "cmac_aes128",
    "compute_canary",
    "derive_mac_key",
    "ModelDomainError",
    "ModelParams",
    "OverlapRate",
    "RateSeries",
    "WARN_ATTACK_PROB_CLAMPED",
    "WARN_COMBINED_EXCEEDS_ONE",
    "WARN_WINDOW_EXCEEDS_SLOTS",
    "attack_rate_A",
    "fbc_overlap_D",
    "rates_for_strategy",
    "s1_rates",
    "s2_chain_rates",
    "s2_rates",
    "ContractViolation",
    "MemoryExhausted",
    "MemoryTrap",
    "SimulatedBacking",
    "PcgState",
    "current_thread_id",
    "heap_rng",
    "GridPoint",
    "HarnessResult",
    "SimResult",
    "evaluate_point",
    "format_grid_report",
    "rounds_to_reach_detection",
    "simulate_allocator_attack",
    "simulate_strategy",
    "__version__",
]

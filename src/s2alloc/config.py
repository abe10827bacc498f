"""Allocator configuration: size classes, tunables, environment overrides.

The allocator organizes memory as bags of equal-size slots. Each slot reserves
a fraction of its bytes for randomized in-slot placement, so the size class
chosen for a request is the smallest class whose *usable* size (slot size minus
the placement reserve) fits the request.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional


class ConfigError(ValueError):
    """Raised at startup for an invalid configuration value."""


def _build_size_classes() -> tuple[int, ...]:
    small = range(16, 1024 + 1, 16)        # 64 classes
    medium = range(1536, 8192 + 1, 512)    # 14 classes
    large = range(12288, 65536 + 1, 4096)  # 14 classes
    return tuple(small) + tuple(medium) + tuple(large)


SIZE_CLASSES: tuple[int, ...] = _build_size_classes()
PAGE_SIZE_DEFAULT = 4096
SLOTS_PER_SUBBAG = 256

# Environment variable names (all values are decimal strings).
ENV_ENTROPY_BITS = "S2_ENTROPY_BITS"
ENV_NEARBY_D = "S2_NEARBY_D"
ENV_FBC_LEN = "S2_FBC_LEN"
ENV_RIO_FRACTION = "S2_RIO_FRACTION"  # denominator k, meaning a reserve of 1/k
ENV_GUARD_RATE = "S2_GUARD_RATE"
ENV_SEED = "S2_SEED"
ENV_ABORT_ON_TAMPER = "S2_ABORT_ON_TAMPER"


def usable_size(slot_size: int, rio_fraction: Fraction) -> int:
    """Bytes of a slot available to the caller once the placement reserve is held back."""
    reserve = -((-slot_size * rio_fraction.numerator) // rio_fraction.denominator)
    return slot_size - int(reserve)


@dataclass(frozen=True)
class AllocatorConfig:
    """Tunable parameters shared by the allocator, the model, and the simulator.

    entropy_bits:    free slots required before an allocation (2**entropy_bits).
    nearby_check:    neighbor radius for free-block canary checks at allocation.
    fbc_len:         keyed canary length (bytes) planted in freed page-or-larger slots.
    rio_fraction:    fraction of each slot reserved for randomized placement.
    guard_page_rate: probability a new sub-bag protects one of its pages.
    heap_canary_len: keyed canary length (bytes) placed after live object data,
                     or before it when the object ends at its slot's end; at
                     most the smallest class's placement reserve (4 at 1/4).
    """

    entropy_bits: int = 8
    nearby_check: int = 2
    fbc_len: int = 8
    rio_fraction: Fraction = Fraction(1, 4)
    guard_page_rate: float = 0.10
    heap_canary_len: int = 1
    page_size: int = PAGE_SIZE_DEFAULT
    mac_key: Optional[bytes] = None
    seed: Optional[int] = None
    abort_on_tamper: bool = True
    size_classes: tuple[int, ...] = field(default=SIZE_CLASSES, repr=False)

    def __post_init__(self) -> None:
        if not (0 <= self.entropy_bits <= 16):
            raise ConfigError(f"entropy_bits must be in [0, 16], got {self.entropy_bits}")
        if self.nearby_check < 0:
            raise ConfigError(f"nearby_check must be >= 0, got {self.nearby_check}")
        if self.fbc_len < 1 or self.fbc_len > 16:
            raise ConfigError(f"fbc_len must be in [1, 16], got {self.fbc_len}")
        if not (0 < self.rio_fraction < 1):
            raise ConfigError(f"rio_fraction must be in (0, 1), got {self.rio_fraction}")
        if not (0.0 <= self.guard_page_rate <= 1.0):
            raise ConfigError(f"guard_page_rate must be in [0, 1], got {self.guard_page_rate}")
        if self.heap_canary_len < 1 or self.heap_canary_len > 16:
            raise ConfigError(f"heap_canary_len must be in [1, 16], got {self.heap_canary_len}")
        smallest = min(self.size_classes)
        reserve = smallest - self.usable(smallest)
        if self.heap_canary_len > reserve:
            # An object at placement 0 that fills the smallest class's usable
            # bytes would leave room for the canary on neither side.
            raise ConfigError(
                f"heap_canary_len {self.heap_canary_len} exceeds the {reserve}-byte "
                f"placement reserve of the smallest size class ({smallest} bytes)"
            )
        if self.page_size < 16 or self.page_size & (self.page_size - 1):
            raise ConfigError(f"page_size must be a power of two >= 16, got {self.page_size}")
        if self.mac_key is not None and len(self.mac_key) != 16:
            raise ConfigError("mac_key must be exactly 16 bytes")

    @property
    def r(self) -> int:
        """Minimum free-slot population a bag holds before serving an allocation."""
        return 1 << self.entropy_bits

    def usable(self, slot_size: int) -> int:
        return usable_size(slot_size, self.rio_fraction)

    def class_for(self, request: int) -> Optional[int]:
        """Smallest slot size whose usable bytes fit the request, or None for the huge path.

        A zero-byte request is treated as a one-byte request so it still owns
        a distinct slot.
        """
        if request < 0:
            raise ValueError(f"request must be >= 0, got {request}")
        request = max(request, 1)
        for b in self.size_classes:
            if request <= self.usable(b):
                return b
        return None


def _parse_int(env: dict, key: str, lo: int, hi: Optional[int] = None) -> Optional[int]:
    raw = env.get(key)
    if raw is None:
        return None
    try:
        value = int(raw, 10)
    except ValueError:
        raise ConfigError(f"{key}: not a decimal integer: {raw!r}") from None
    if value < lo or (hi is not None and value > hi):
        bound = f"[{lo}, {hi}]" if hi is not None else f">= {lo}"
        raise ConfigError(f"{key}: value {value} out of range {bound}")
    return value


def config_from_env(env: Optional[dict] = None, **overrides) -> AllocatorConfig:
    """Build a configuration from environment variables, failing fast on bad values.

    Every malformed or out-of-range value raises ConfigError naming the key.
    """
    env = os.environ if env is None else env
    kwargs = {}

    value = _parse_int(env, ENV_ENTROPY_BITS, 0, 16)
    if value is not None:
        kwargs["entropy_bits"] = value
    value = _parse_int(env, ENV_NEARBY_D, 0)
    if value is not None:
        kwargs["nearby_check"] = value
    value = _parse_int(env, ENV_FBC_LEN, 1, 16)
    if value is not None:
        kwargs["fbc_len"] = value
    value = _parse_int(env, ENV_RIO_FRACTION, 2)
    if value is not None:
        kwargs["rio_fraction"] = Fraction(1, value)
    raw = env.get(ENV_GUARD_RATE)
    if raw is not None:
        try:
            rate = float(raw)
        except ValueError:
            raise ConfigError(f"{ENV_GUARD_RATE}: not a decimal number: {raw!r}") from None
        if not (0.0 <= rate <= 1.0):
            raise ConfigError(f"{ENV_GUARD_RATE}: value {rate} out of range [0, 1]")
        kwargs["guard_page_rate"] = rate
    raw = env.get(ENV_SEED)
    if raw is not None:
        try:
            kwargs["seed"] = int(raw, 10)
        except ValueError:
            raise ConfigError(f"{ENV_SEED}: not a decimal integer: {raw!r}") from None
    value = _parse_int(env, ENV_ABORT_ON_TAMPER, 0, 1)
    if value is not None:
        kwargs["abort_on_tamper"] = bool(value)

    kwargs.update(overrides)
    try:
        return AllocatorConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

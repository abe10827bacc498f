"""Configuration: size-class table, usable-size math, env parsing, validation."""

import dataclasses
from fractions import Fraction

import pytest

from s2alloc.config import (
    AllocatorConfig,
    ConfigError,
    SIZE_CLASSES,
    SLOTS_PER_SUBBAG,
    config_from_env,
    usable_size,
)


def test_size_class_table_layout():
    assert len(SIZE_CLASSES) == 92
    small = tuple(range(16, 1024 + 1, 16))
    medium = tuple(range(1536, 8192 + 1, 512))
    large = tuple(range(12288, 65536 + 1, 4096))
    assert SIZE_CLASSES == small + medium + large
    assert len(small) == 64 and len(medium) == 14 and len(large) == 14


def test_all_classes_16_aligned_and_sorted():
    assert all(b % 16 == 0 for b in SIZE_CLASSES)
    assert list(SIZE_CLASSES) == sorted(SIZE_CLASSES)
    assert SLOTS_PER_SUBBAG == 256


def test_usable_size_reserves_placement_share():
    quarter = Fraction(1, 4)
    assert usable_size(16, quarter) == 12
    assert usable_size(32, quarter) == 24
    assert usable_size(1024, quarter) == 768
    assert usable_size(65536, quarter) == 49152
    # ceil semantics: 48 * 1/4 = 12 exactly; 20 would be 5 exactly
    assert usable_size(48, quarter) == 36
    assert usable_size(32, Fraction(1, 3)) == 32 - 11  # ceil(32/3) = 11


def test_class_for_request_boundaries():
    cfg = AllocatorConfig()
    assert cfg.class_for(0) == 16  # zero-byte requests occupy a real slot
    assert cfg.class_for(1) == 16
    assert cfg.class_for(12) == 16
    assert cfg.class_for(13) == 32
    assert cfg.class_for(24) == 32
    assert cfg.class_for(25) == 48
    assert cfg.class_for(49152) == 65536
    assert cfg.class_for(49153) is None  # beyond every class: separately mapped


def test_usable_never_below_request_for_mapped_classes():
    cfg = AllocatorConfig()
    for request in range(1, 49153, 7):
        b = cfg.class_for(request)
        assert b is not None
        assert cfg.usable(b) >= request
        # and the class below (if any) would not fit
        idx = cfg.size_classes.index(b)
        if idx:
            assert cfg.usable(cfg.size_classes[idx - 1]) < request


def test_r_is_power_of_two_of_entropy_bits():
    assert AllocatorConfig().r == 256
    assert dataclasses.replace(AllocatorConfig(), entropy_bits=0).r == 1
    assert dataclasses.replace(AllocatorConfig(), entropy_bits=11).r == 2048


def test_env_overrides():
    env = {
        "S2_ENTROPY_BITS": "11",
        "S2_NEARBY_D": "3",
        "S2_FBC_LEN": "4",
        "S2_RIO_FRACTION": "8",
        "S2_GUARD_RATE": "0.25",
        "S2_SEED": "99",
        "S2_ABORT_ON_TAMPER": "0",
    }
    cfg = config_from_env(env=env)
    assert cfg.entropy_bits == 11
    assert cfg.nearby_check == 3
    assert cfg.fbc_len == 4
    assert cfg.rio_fraction == Fraction(1, 8)
    assert cfg.guard_page_rate == 0.25
    assert cfg.seed == 99
    assert cfg.abort_on_tamper is False


def test_explicit_overrides_beat_env():
    cfg = config_from_env(env={"S2_ENTROPY_BITS": "11"}, entropy_bits=4)
    assert cfg.entropy_bits == 4


@pytest.mark.parametrize("key,value", [
    ("S2_ENTROPY_BITS", "many"),
    ("S2_ENTROPY_BITS", "3.5"),
    ("S2_NEARBY_D", "-1"),
    ("S2_FBC_LEN", "0"),
    ("S2_FBC_LEN", "17"),
    ("S2_RIO_FRACTION", "0"),
    ("S2_GUARD_RATE", "1.5"),
    ("S2_GUARD_RATE", "x"),
    ("S2_SEED", "1e4"),
])
def test_malformed_env_raises_and_names_key(key, value):
    with pytest.raises(ConfigError) as excinfo:
        config_from_env(env={key: value})
    assert key in str(excinfo.value)


@pytest.mark.parametrize("field,value", [
    ("entropy_bits", -1),
    ("entropy_bits", 17),
    ("nearby_check", -2),
    ("fbc_len", 0),
    ("fbc_len", 17),
    ("rio_fraction", Fraction(0)),
    ("rio_fraction", Fraction(1)),
    ("guard_page_rate", -0.1),
    ("guard_page_rate", 1.01),
    ("heap_canary_len", 0),
    ("page_size", 1000),
    ("page_size", 8),
    ("mac_key", b"short"),
])
def test_constructor_validation(field, value):
    with pytest.raises(ConfigError):
        dataclasses.replace(AllocatorConfig(), **{field: value})


@pytest.mark.parametrize("rio,classes,largest_canary", [
    (Fraction(1, 4), None, 4),       # class 16 keeps 4 bytes for placement
    (Fraction(1, 2), None, 8),
    (Fraction(1, 16), None, 1),
    (Fraction(1, 4), (64, 128), 16),
])
def test_heap_canary_fits_in_the_smallest_placement_reserve(rio, classes, largest_canary):
    base = AllocatorConfig(rio_fraction=rio, **({"size_classes": classes} if classes else {}))
    assert dataclasses.replace(base, heap_canary_len=largest_canary).heap_canary_len == largest_canary
    if largest_canary < 16:
        with pytest.raises(ConfigError, match="placement reserve"):
            dataclasses.replace(base, heap_canary_len=largest_canary + 1)


def test_config_is_frozen():
    cfg = AllocatorConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.entropy_bits = 4


def test_default_values():
    cfg = AllocatorConfig()
    assert cfg.entropy_bits == 8
    assert cfg.nearby_check == 2
    assert cfg.fbc_len == 8
    assert cfg.rio_fraction == Fraction(1, 4)
    assert cfg.guard_page_rate == 0.10
    assert cfg.heap_canary_len == 1
    assert cfg.page_size == 4096
    assert cfg.abort_on_tamper is True
    assert cfg.seed is None and cfg.mac_key is None

"""Keyed canary MAC: reference vectors, dual-path agreement, batching, key derivation."""

import os

import pytest

from s2alloc.canary import (
    HAS_HARDWARE_BACKEND,
    KeyedCanary,
    cmac_aes128,
    compute_canary,
    derive_mac_key,
)

RFC_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
RFC_VECTORS = [
    (b"", "bb1d6929e95937287fa37d129b756746"),
    (bytes.fromhex("6bc1bee22e409f96e93d7e117393172a"),
     "070a16b46b4d4144f79bdd9dd04a287c"),
    (bytes.fromhex("6bc1bee22e409f96e93d7e117393172a"
                   "ae2d8a571e03ac9c9eb76fac45af8e51"
                   "30c81c46a35ce411"),
     "dfa66747de9ae63030ca32611497c827"),
    (bytes.fromhex("6bc1bee22e409f96e93d7e117393172a"
                   "ae2d8a571e03ac9c9eb76fac45af8e51"
                   "30c81c46a35ce411e5fbc1191a0a52ef"
                   "f69f2445df4f9b17ad2b417be66c3710"),
     "51f0bebf7e3b9d92fc49741779363cfe"),
]

BACKENDS = ["sw"] + (["hw"] if HAS_HARDWARE_BACKEND else [])


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("message,expected", RFC_VECTORS,
                         ids=[f"len{len(m)}" for m, _ in RFC_VECTORS])
def test_reference_vectors(backend, message, expected):
    assert cmac_aes128(RFC_KEY, message, backend=backend) == bytes.fromhex(expected)


@pytest.mark.skipif(not HAS_HARDWARE_BACKEND, reason="accelerated backend unavailable")
def test_both_paths_agree_on_random_inputs():
    rnd = os.urandom
    for trial in range(10_000):
        key = rnd(16)
        message = rnd(trial % 33)  # covers empty, partial, one, two blocks
        assert cmac_aes128(key, message, backend="sw") == \
            cmac_aes128(key, message, backend="hw"), f"trial {trial}"


def test_tag_binds_the_address():
    mac = KeyedCanary(bytes(range(16)))
    base = 0x7F00_0000_1000
    tags = {mac.tag16(base + 16 * i) for i in range(256)}
    assert len(tags) == 256  # no collisions across neighboring slots


def test_tag_changes_with_key():
    a = KeyedCanary(bytes(16))
    b = KeyedCanary(bytes(15) + b"\x01")
    assert a.tag16(0x1000) != b.tag16(0x1000)


def test_single_address_flip_avalanches():
    mac = KeyedCanary(derive_mac_key(7))
    base = 0x4000_0000
    reference = mac.tag16(base)
    total_flips = 0
    trials = 0
    for bit in range(48):
        other = mac.tag16(base ^ (1 << bit))
        diff = int.from_bytes(reference, "little") ^ int.from_bytes(other, "little")
        total_flips += bin(diff).count("1")
        trials += 1
    assert total_flips / trials > 40  # ideal is 64 of 128 bits


def test_batch_tags_match_single_tags():
    mac = KeyedCanary(derive_mac_key(123))
    addresses = [0x1000 + 32 * i for i in range(256)]
    batch = mac.batch_tags(addresses)
    assert len(batch) == 256 * 16
    for i, address in enumerate(addresses):
        assert batch[i * 16:(i + 1) * 16] == mac.tag16(address)


@pytest.mark.parametrize("backend", ["sw", "auto"])
def test_batch_tags_backends_and_empty_batch(backend):
    mac = KeyedCanary(derive_mac_key(7), backend=backend)
    assert mac.batch_tags([]) == b""
    addresses = [0, 0x1000, (1 << 64) - 16]
    batch = mac.batch_tags(iter(addresses))
    assert batch == b"".join(compute_canary(mac.key, a, 16) for a in addresses)


def test_canary_is_tag_prefix():
    mac = KeyedCanary(derive_mac_key(5))
    address = 0xDEAD000
    for length in (1, 4, 8, 16):
        assert mac.canary(address, length) == mac.tag16(address)[:length]
        assert compute_canary(mac.key, address, length) == mac.canary(address, length)


@pytest.mark.parametrize("length", [0, -1, 17])
def test_canary_length_bounds(length):
    with pytest.raises(ValueError):
        compute_canary(bytes(16), 0x1000, length)


def test_derive_mac_key():
    assert derive_mac_key(42) == derive_mac_key(42)
    assert derive_mac_key(42) != derive_mac_key(43)
    assert len(derive_mac_key(0)) == 16
    assert derive_mac_key(None) != derive_mac_key(None)  # fresh entropy each time
    assert derive_mac_key(-5) == derive_mac_key(-5)  # negative seeds accepted


def test_mac_key_must_be_16_bytes():
    with pytest.raises(ValueError):
        KeyedCanary(b"tiny")
    with pytest.raises(ValueError):
        cmac_aes128(bytes(24), b"")


def test_deterministic_for_fixed_inputs():
    mac = KeyedCanary(bytes(range(16)))
    assert mac.tag16(0x123456789A) == mac.tag16(0x123456789A)

"""Keyed, address-bound canary values (CMAC-AES-128, RFC 4493).

Canary bytes are a truncated CMAC of the slot's base address under a secret
per-process key, so an attacker who can write memory but not read the key
cannot forge the bytes for a different slot.

Two interchangeable MAC cores are provided: a hardware-accelerated path backed
by the `cryptography` package (OpenSSL, AES-NI where available) and a
pure-Python software fallback. Tests hold them byte-identical.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional

import numpy as np

from . import _aes

try:
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
    from cryptography.hazmat.primitives.cmac import CMAC as _HwCMAC

    HAS_HARDWARE_BACKEND = True
except ImportError:  # pragma: no cover - cryptography is a declared dependency
    HAS_HARDWARE_BACKEND = False

_ZERO16 = bytes(16)


def _dbl(block: bytes) -> bytes:
    """GF(2^128) doubling used for CMAC subkey derivation."""
    value = int.from_bytes(block, "big")
    value <<= 1
    if value >> 128:
        value = (value & ((1 << 128) - 1)) ^ 0x87
    return value.to_bytes(16, "big")


def _ecb_encrypt_hw(key: bytes, data: bytes) -> bytes:
    ctx = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
    return ctx.update(data) + ctx.finalize()


def cmac_subkeys(key: bytes, backend: str = "auto") -> tuple[bytes, bytes]:
    if _use_hw(backend):
        l_block = _ecb_encrypt_hw(key, _ZERO16)
    else:
        l_block = _aes.encrypt_block_with_key(key, _ZERO16)
    k1 = _dbl(l_block)
    return k1, _dbl(k1)


def _use_hw(backend: str) -> bool:
    if backend == "auto":
        return HAS_HARDWARE_BACKEND
    if backend == "hw":
        if not HAS_HARDWARE_BACKEND:
            raise RuntimeError("hardware MAC backend unavailable")
        return True
    if backend == "sw":
        return False
    raise ValueError(f"unknown backend {backend!r}")


def _xor16(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(16, "big")


def cmac_aes128(key: bytes, message: bytes, backend: str = "auto") -> bytes:
    """Full 16-byte CMAC-AES-128 tag of an arbitrary-length message."""
    if len(key) != 16:
        raise ValueError("key must be 16 bytes")
    if _use_hw(backend):
        ctx = _HwCMAC(algorithms.AES(key))
        ctx.update(message)
        return ctx.finalize()

    k1, k2 = cmac_subkeys(key, backend="sw")
    round_keys = _aes.expand_key(key)
    n_blocks = max(1, -(-len(message) // 16))
    complete_last = len(message) % 16 == 0 and len(message) > 0
    state = _ZERO16
    for i in range(n_blocks - 1):
        state = _aes.encrypt_block(round_keys, _xor16(state, message[i * 16:(i + 1) * 16]))
    last = message[(n_blocks - 1) * 16:]
    if complete_last:
        last_block = _xor16(last, k1)
    else:
        padded = last + b"\x80" + bytes(15 - len(last))
        last_block = _xor16(padded, k2)
    return _aes.encrypt_block(round_keys, _xor16(state, last_block))


def _encode_address(address: int) -> bytes:
    if not 0 <= address < (1 << 64):
        raise ValueError(f"address must fit in 64 bits, got {address:#x}")
    return address.to_bytes(16, "little")


def compute_canary(key: bytes, address: int, length: int, backend: str = "auto") -> bytes:
    """Truncated keyed canary for a slot address.

    Returns the first `length` bytes (1..16) of the CMAC tag over the 16-byte
    little-endian zero-padded encoding of the address.
    """
    if not 1 <= length <= 16:
        raise ValueError(f"length must be in [1, 16], got {length}")
    return cmac_aes128(key, _encode_address(address), backend=backend)[:length]


class KeyedCanary:
    """Per-key canary engine with a single-block fast path.

    The address encoding is exactly one cipher block, so the tag reduces to
    one AES encryption of (message XOR subkey K1). Batches of addresses are
    pushed through a single ECB call, which lets the allocator precompute a
    sub-bag's worth of canaries at creation time. Output is bit-identical to
    compute_canary.
    """

    __slots__ = ("key", "_k1", "_round_keys", "_hw")

    def __init__(self, key: bytes, backend: str = "auto"):
        if len(key) != 16:
            raise ValueError("key must be 16 bytes")
        self.key = key
        self._hw = _use_hw(backend)
        self._k1, _ = cmac_subkeys(key, backend="hw" if self._hw else "sw")
        self._round_keys = None if self._hw else _aes.expand_key(key)

    def tag16(self, address: int) -> bytes:
        block = _xor16(_encode_address(address), self._k1)
        if self._hw:
            return _ecb_encrypt_hw(self.key, block)
        return _aes.encrypt_block(self._round_keys, block)

    def canary(self, address: int, length: int) -> bytes:
        if not 1 <= length <= 16:
            raise ValueError(f"length must be in [1, 16], got {length}")
        return self.tag16(address)[:length]

    def batch_tags(self, addresses: Iterable[int]) -> bytes:
        """Concatenated 16-byte tags for a sequence of addresses."""
        addrs = list(addresses)
        if not addrs:
            return b""
        mat = np.zeros((len(addrs), 16), dtype=np.uint8)
        mat[:, :8] = (
            np.asarray(addrs, dtype=np.uint64)
            .astype("<u8")
            .view(np.uint8)
            .reshape(len(addrs), 8)
        )
        mat ^= np.frombuffer(self._k1, dtype=np.uint8)
        blocks = mat.tobytes()
        if self._hw:
            return _ecb_encrypt_hw(self.key, blocks)
        rk = self._round_keys
        return b"".join(
            _aes.encrypt_block(rk, blocks[i:i + 16]) for i in range(0, len(blocks), 16)
        )


def derive_mac_key(seed: Optional[int]) -> bytes:
    """Process MAC key: OS entropy normally, or a deterministic derivation under a fixed seed."""
    import os

    if seed is None:
        return os.urandom(16)
    material = seed.to_bytes(16, "little", signed=True)
    return hashlib.blake2b(material, digest_size=16, person=b"s2allocKey").digest()

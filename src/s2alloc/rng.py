"""PCG-XSH-RR 64/32 pseudo-random generator.

Small, fast, seedable generator with one independent stream per heap. The
XSH-RR output permutation and the seeding sequence follow the published
reference implementation, so output for a given (seed, stream) pair is a
portable, testable contract.

Outputs are produced BLOCK at a time. The j-th state after s is
A^j * s + (1 + A + ... + A^(j-1)) * inc mod 2^64 (LCG jump-ahead, Brown,
"Random Number Generation with Arbitrary Strides", 1994), so one block is a
few numpy uint64 operations over constant tables, served from a list
iterator. Every draw consumes the same outputs in the same order as a
one-step-per-output generator would.
"""

from __future__ import annotations

import os
import threading

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_TWO32 = 1 << 32
_MULTIPLIER = 6364136223846793005

BLOCK = 256  # outputs generated per refill


def _jump_tables(n: int) -> tuple[np.ndarray, np.ndarray, int, int]:
    """A^j and 1 + A + ... + A^(j-1) mod 2^64 for j < n, plus both at j = n."""
    mult = [1]
    incr = [0]
    for _ in range(n):
        mult.append((mult[-1] * _MULTIPLIER) & _MASK64)
        incr.append((incr[-1] * _MULTIPLIER + 1) & _MASK64)
    return (np.array(mult[:n], dtype=np.uint64), np.array(incr[:n], dtype=np.uint64),
            mult[n], incr[n])


_JUMP_MULT, _JUMP_INCR, _BLOCK_MULT, _BLOCK_INCR = _jump_tables(BLOCK)


class PcgState:
    """One generator stream: 64-bit state plus a per-stream odd increment."""

    __slots__ = ("_state", "_inc", "_inc_terms", "_next")

    def __init__(self, seed: int, seq: int = 0):
        inc = ((seq << 1) | 1) & _MASK64
        # Reference seeding: step from 0, add the seed, step again.
        state = ((inc + (seed & _MASK64)) * _MULTIPLIER + inc) & _MASK64
        self._inc = inc
        self._state = state  # state of the first output not yet generated
        self._inc_terms = _JUMP_INCR * np.uint64(inc)
        self._next = iter(()).__next__

    def _refill(self) -> int:
        """Generate the next block of outputs; return its first and serve the rest."""
        state = self._state
        old = _JUMP_MULT * np.uint64(state) + self._inc_terms
        self._state = (state * _BLOCK_MULT + self._inc * _BLOCK_INCR) & _MASK64
        xorshifted = (((old >> np.uint64(18)) ^ old) >> np.uint64(27)) & np.uint64(_MASK32)
        rot = old >> np.uint64(59)
        out = ((xorshifted >> rot) | (xorshifted << ((np.uint64(32) - rot) & np.uint64(31)))) \
            & np.uint64(_MASK32)
        self._next = iter(out.tolist()).__next__
        return self._next()

    def next32(self) -> int:
        """Advance the stream and return the next 32-bit output."""
        try:
            return self._next()
        except StopIteration:
            return self._refill()

    def uniform_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) with no modulo bias.

        Uses rejection below a threshold of 2**32 mod bound; when bound divides
        2**32 the threshold is zero and the mapping is exact with no rejection.
        """
        if not 1 <= bound <= _TWO32:
            raise ValueError(f"bound must be in [1, 2**32], got {bound}")
        threshold = _TWO32 % bound
        try:
            raw = self._next()
        except StopIteration:
            raw = self._refill()
        while raw < threshold:
            raw = self.next32()
        return raw % bound

    def coin(self, rate: float) -> bool:
        """Bernoulli draw: true with the given probability (consumes one output)."""
        raw = self.next32()
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return raw < int(rate * _TWO32)


def heap_rng(seed: int | None, thread_id: int) -> PcgState:
    """Build a heap's generator: configured seed (or OS entropy) mixed with the thread id.

    The thread id selects the stream, so heaps on different threads draw from
    distinct sequences even with a shared fixed seed.
    """
    if seed is None:
        material = int.from_bytes(os.urandom(8), "little")
    else:
        material = seed & _MASK64
    return PcgState(material ^ (thread_id & _MASK64), seq=thread_id)


def current_thread_id() -> int:
    return threading.get_ident()

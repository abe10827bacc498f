"""Closed-form rates for the slot-guessing attacker/defender game.

The game abstracts the allocator: a victim object lands in one of r candidate
slots at one of the 16-aligned in-slot placements; an attacker holding a stale
reference writes l bytes at a guessed (slot, placement); freed slots carry a
c-byte canary at a uniform position; each allocation checks the canaries of
the chosen slot and d neighbors on each side.

Per-write quantities:
  attack_rate_A  — probability a single write lands exactly on the victim field.
  fbc_overlap_D  — probability a uniform l-byte write overlaps a uniform c-byte
                   canary within a slot of b bytes.

Round series (one allocation + one attacker write per round):
  s1_rates — the attacker reuses one stale reference every round.
  s2_rates — the attacker mints a fresh stale reference every round; canary
             corruption accumulates across rounds (a corrupted slot never
             heals until detection ends the game).
Spray variants are the same recurrences with m > 1 live victims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

MAX_ROUNDS = 10 ** 6

WARN_ATTACK_PROB_CLAMPED = "per-round attack probability m*A exceeded 1; clamped"
WARN_WINDOW_EXCEEDS_SLOTS = "check window 2d+1 exceeds slot count r; clamped"
WARN_COMBINED_EXCEEDS_ONE = "combined attack+detect mass exceeds 1 (series branches share survival mass)"


class ModelDomainError(ValueError):
    """Parameter combination outside a formula's domain."""


@dataclass(frozen=True)
class ModelParams:
    """Game parameters.

    r: candidate slot count (2**entropy_bits in the allocator).
    b: slot size in bytes.   s: victim object size.
    l: attacker write length (= sensitive field length).
    c: free-slot canary length.   d: neighbor check radius.
    m: live (sprayed) victim count.   rounds: round cap K.
    field_start: offset of the sensitive field inside the object; carried for
    completeness, it does not enter any closed form.
    """

    r: int
    b: int
    s: int
    l: int
    c: int
    d: int
    m: int = 1
    rounds: int = 500
    field_start: int = 0

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ModelDomainError(f"r must be >= 1, got {self.r}")
        if self.b < self.s:
            raise ModelDomainError(f"b must be >= s, got b={self.b} s={self.s}")
        if not 1 <= self.l <= self.b:
            raise ModelDomainError(f"l must be in [1, b], got l={self.l} b={self.b}")
        if not 1 <= self.c <= self.b:
            raise ModelDomainError(f"c must be in [1, b], got c={self.c} b={self.b}")
        if self.d < 0:
            raise ModelDomainError(f"d must be >= 0, got {self.d}")
        if self.m < 1:
            raise ModelDomainError(f"m must be >= 1, got {self.m}")
        if not 0 <= self.rounds <= MAX_ROUNDS:
            raise ModelDomainError(f"rounds must be in [0, {MAX_ROUNDS}], got {self.rounds}")
        if self.s < 1:
            raise ModelDomainError(f"s must be >= 1, got {self.s}")

    @property
    def placements(self) -> int:
        """Number of 16-aligned in-slot placements for the victim object."""
        return 1 + (self.b - self.s) // 16


def attack_rate_A(r: int, b: int, s: int) -> Fraction:
    """Per-write probability of hitting the victim's field exactly.

    The write must name the victim's slot (1/r) and its in-slot placement
    (one of 1 + floor((b-s)/16) values).
    """
    if r < 1:
        raise ModelDomainError(f"r must be >= 1, got {r}")
    if b < s:
        raise ModelDomainError(f"b must be >= s, got b={b} s={s}")
    return Fraction(1, r * (1 + (b - s) // 16))


class OverlapRate(Fraction):
    """Exact overlap probability; `.method` records how it was computed."""

    method: str

    def __new__(cls, numerator, denominator, method: str):
        self = super().__new__(cls, numerator, denominator)
        self.method = method
        return self


def _enumerate_overlaps(b: int, l: int, c: int) -> int:
    """Count (write position, canary position) pairs whose byte ranges overlap."""
    writes = np.arange(b - l + 1, dtype=np.int64)[:, None]
    canaries = np.arange(b - c + 1, dtype=np.int64)[None, :]
    return int(np.count_nonzero(
        (writes <= canaries + c - 1) & (canaries <= writes + l - 1)
    ))


def fbc_overlap_D(b: int, l: int, c: int) -> OverlapRate:
    """Probability a uniform l-byte write overlaps a uniform c-byte canary in a b-byte slot.

    Closed form when the slot is long enough that boundary effects factor out
    (b >= l + 2(c-1)); exact enumeration of all placement pairs otherwise.
    Result is an exact rational either way.
    """
    if not 1 <= l <= b:
        raise ModelDomainError(f"l must be in [1, b], got l={l} b={b}")
    if not 1 <= c <= b:
        raise ModelDomainError(f"c must be in [1, b], got c={c} b={b}")
    pairs = (b - l + 1) * (b - c + 1)
    if b >= l + 2 * (c - 1):
        numerator = b * (l + c - 1) - (l - 1) ** 2 - (c - 1) ** 2 - c * l + 1
        return OverlapRate(numerator, pairs, "closed-form")
    return OverlapRate(_enumerate_overlaps(b, l, c), pairs, "enumeration")


class _KahanSum:
    """Compensated accumulator: keeps million-term series sums at full precision."""

    __slots__ = ("total", "_c")

    def __init__(self, value: float = 0.0):
        self.total = value
        self._c = 0.0

    def add(self, value: float) -> float:
        y = value - self._c
        t = self.total + y
        self._c = (t - self.total) - y
        self.total = t
        return self.total


@dataclass
class RateSeries:
    """Per-round cumulative rates for one strategy.

    p_e[i-1]      — probability the game is still undecided entering round i
                    (the leading attempt and rounds 1..i-1 already resolved).
    p_attack[i-1] — cumulative attacker win probability through round i
                    (includes the leading pre-round attempt).
    p_detect[i-1] — cumulative detection probability through round i.

    A zero-round series has no outcomes at all: the leading attempt belongs
    to round 1 and is only counted once that round runs.
    """

    strategy: str
    params: ModelParams
    p_e: list[float] = field(default_factory=list)
    p_attack: list[float] = field(default_factory=list)
    p_detect: list[float] = field(default_factory=list)
    warnings: tuple[str, ...] = ()
    leading_attack: float = 0.0

    @property
    def rounds(self) -> int:
        return len(self.p_attack)

    @property
    def final_attack(self) -> float:
        return self.p_attack[-1] if self.p_attack else 0.0

    @property
    def final_detect(self) -> float:
        return self.p_detect[-1] if self.p_detect else 0.0

    def rows(self):
        for i in range(self.rounds):
            yield i + 1, self.p_e[i], self.p_attack[i], self.p_detect[i]


def _resolve_rates(
    p: ModelParams, A: Optional[float], D: Optional[float]
) -> tuple[float, float]:
    a = float(attack_rate_A(p.r, p.b, p.s)) if A is None else float(A)
    dd = float(fbc_overlap_D(p.b, p.l, p.c)) if D is None else float(D)
    if not 0.0 <= a <= 1.0:
        raise ModelDomainError(f"A must be in [0, 1], got {a}")
    if not 0.0 <= dd <= 1.0:
        raise ModelDomainError(f"D must be in [0, 1], got {dd}")
    return a, dd


def _finish(series: RateSeries) -> RateSeries:
    if series.p_attack and series.p_attack[-1] + series.p_detect[-1] > 1.0:
        series.warnings += (WARN_COMBINED_EXCEEDS_ONE,)
    return series


def s1_rates(
    p: ModelParams, A: Optional[float] = None, D: Optional[float] = None
) -> RateSeries:
    """Round series for the fixed-reference attacker.

    Per round, the attacker re-fires the same guess (hit probability m*A) and
    the defender's single allocation checks a (2d+1)-slot window, catching that
    round's canary corruption with probability (2d+1)/r * D. A and D may be
    overridden (e.g. to study degenerate games); by default they are computed
    from the parameters.
    """
    a, dd = _resolve_rates(p, A, D)
    warnings: tuple[str, ...] = ()
    m_attack = p.m * a
    if m_attack > 1.0:
        m_attack = 1.0
        warnings += (WARN_ATTACK_PROB_CLAMPED,)
    if 2 * p.d + 1 > p.r:
        warnings += (WARN_WINDOW_EXCEEDS_SLOTS,)
    round_detect = min(1.0, (2 * p.d + 1) / p.r * dd)

    series = RateSeries("s1" if p.m == 1 else "s1-spray", p, warnings=warnings,
                        leading_attack=m_attack)
    survive = 1.0 - m_attack  # mass entering round 1
    att = _KahanSum(m_attack)
    det = _KahanSum()
    for _ in range(p.rounds):
        series.p_e.append(survive)
        series.p_attack.append(min(1.0, att.add(survive * m_attack)))
        series.p_detect.append(min(1.0, det.add(survive * round_detect)))
        survive *= (1.0 - round_detect) * (1.0 - m_attack)
    return _finish(series)


def s2_rates(
    p: ModelParams,
    A: Optional[float] = None,
    D: Optional[float] = None,
    extra_window_factor: bool = True,
) -> RateSeries:
    """Round series for the fresh-reference attacker.

    Corruption accumulates: after i rounds each slot has escaped corruption
    with probability Q_i = ((r-D)/r)**i, and the defender's (2d+1)-slot window
    detects unless every windowed slot is clean. The windowed miss probability
    is a product of (Q_i*r - j)/(r - j) factors for j = 0..2d; by default it
    additionally carries a leading factor of the same shape with j = 2d
    (`extra_window_factor=True`). The single-factor variant is provided
    because the duplicated leading factor is the one term where this series
    and the exact sticky-corruption process disagree; the Monte Carlo
    comparison report quantifies that gap.

    Negative factors (possible once Q_i*r drops below 2d) clamp to zero.
    """
    if p.r <= 2 * p.d:
        raise ModelDomainError(f"r must exceed 2d, got r={p.r} d={p.d}")
    a, dd = _resolve_rates(p, A, D)
    warnings: tuple[str, ...] = ()
    m_attack = p.m * a
    if m_attack > 1.0:
        m_attack = 1.0
        warnings += (WARN_ATTACK_PROB_CLAMPED,)

    series = RateSeries("s2" if p.m == 1 else "s2-spray", p, warnings=warnings,
                        leading_attack=m_attack)
    r, d = p.r, p.d
    escape_base = (r - dd) / r
    survive = 1.0 - m_attack  # mass entering round 1
    att = _KahanSum(m_attack)
    det = _KahanSum()
    for i in range(1, p.rounds + 1):
        q_i = escape_base ** i
        miss = max(0.0, (q_i * r - 2 * d)) / (r - 2 * d) if extra_window_factor else 1.0
        for j in range(2 * d + 1):
            miss *= max(0.0, (q_i * r - j)) / (r - j)
        round_detect = min(1.0, max(0.0, 1.0 - miss))
        series.p_e.append(survive)
        series.p_attack.append(min(1.0, att.add(survive * m_attack)))
        series.p_detect.append(min(1.0, det.add(survive * round_detect)))
        survive *= (1.0 - round_detect) * (1.0 - m_attack)
    return _finish(series)


def rates_for_strategy(
    strategy: str,
    p: ModelParams,
    A: Optional[float] = None,
    D: Optional[float] = None,
    extra_window_factor: bool = True,
) -> RateSeries:
    """Dispatch by strategy name: s1, s2, s1-spray, s2-spray."""
    name = strategy.lower().replace("_", "-")
    if name in ("s1", "s1-spray"):
        return s1_rates(p, A=A, D=D)
    if name in ("s2", "s2-spray"):
        return s2_rates(p, A=A, D=D, extra_window_factor=extra_window_factor)
    raise ValueError(f"unknown strategy {strategy!r}")

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
  s1_rates       — the attacker reuses one stale reference every round.
  s2_rates       — the paper's series for an attacker who mints a fresh stale
                   reference every round; canary corruption accumulates (a
                   corrupted slot never heals until detection ends the game).
  s2_chain_rates — the same game as a chain over the corrupted-slot count; the
                   fresh-reference simulation is scored against it.
Spray variants are the same recurrences with m > 1 live victims.
"""

from __future__ import annotations

import itertools
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
        return placement_count(self.b, self.s)


def placement_count(b: int, s: int) -> int:
    """Number of 16-aligned offsets at which an s-byte object fits a b-byte slot."""
    return 1 + (b - s) // 16


def attack_rate_A(r: int, b: int, s: int) -> Fraction:
    """Per-write probability of hitting the victim's field exactly.

    The write must name the victim's slot (1/r) and its in-slot placement
    (one of `placement_count(b, s)` values).
    """
    if r < 1:
        raise ModelDomainError(f"r must be >= 1, got {r}")
    if b < s:
        raise ModelDomainError(f"b must be >= s, got b={b} s={s}")
    return Fraction(1, r * placement_count(b, s))


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


def _attack_mass(p: ModelParams, a: float) -> tuple[float, tuple[str, ...]]:
    """Per-round attack probability m*A, clamped to 1 with a warning."""
    return (1.0, (WARN_ATTACK_PROB_CLAMPED,)) if p.m * a > 1.0 else (p.m * a, ())


def _series(strategy: str, p: ModelParams, m_attack: float,
            warnings: tuple[str, ...], steps) -> RateSeries:
    """Collect (survive, attack, detect) rows, one per round, into a RateSeries."""
    series = RateSeries(strategy if p.m == 1 else strategy + "-spray", p,
                        warnings=warnings, leading_attack=m_attack)
    for survive, attack, detect in steps:
        series.p_e.append(survive)
        series.p_attack.append(attack)
        series.p_detect.append(detect)
    if series.p_attack and series.p_attack[-1] + series.p_detect[-1] > 1.0:
        series.warnings += (WARN_COMBINED_EXCEEDS_ONE,)
    return series


def _fold(m_attack: float, round_detects):
    """Rows of the paper's recurrence, which applies a round's detection to
    the mass entering the round."""
    survive = 1.0 - m_attack  # mass entering round 1
    att = _KahanSum(m_attack)
    det = _KahanSum()
    for round_detect in round_detects:
        yield (survive, min(1.0, att.add(survive * m_attack)),
               min(1.0, det.add(survive * round_detect)))
        survive *= (1.0 - round_detect) * (1.0 - m_attack)


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
    m_attack, warnings = _attack_mass(p, a)
    if 2 * p.d + 1 > p.r:
        warnings += (WARN_WINDOW_EXCEEDS_SLOTS,)
    round_detect = min(1.0, (2 * p.d + 1) / p.r * dd)
    return _series("s1", p, m_attack, warnings,
                   _fold(m_attack, itertools.repeat(round_detect, p.rounds)))


def s2_rates(
    p: ModelParams, A: Optional[float] = None, D: Optional[float] = None
) -> RateSeries:
    """Round series for the fresh-reference attacker, as the paper gives it.

    Corruption accumulates: after i rounds each slot has escaped corruption
    with probability Q_i = ((r-D)/r)**i, and the defender's (2d+1)-slot window
    detects unless every windowed slot is clean. The windowed miss probability
    is a leading (Q_i*r - 2d)/(r - 2d) factor times a product of
    (Q_i*r - j)/(r - j) factors for j = 0..2d. Putting the expected number of
    corrupted slots into that product overstates detection; `s2_chain_rates`
    follows the number itself.

    Negative factors (possible once Q_i*r drops below 2d) clamp to zero.
    """
    if p.r <= 2 * p.d:
        raise ModelDomainError(f"r must exceed 2d, got r={p.r} d={p.d}")
    a, dd = _resolve_rates(p, A, D)
    m_attack, warnings = _attack_mass(p, a)
    r, d = p.r, p.d
    escape_base = (r - dd) / r

    def round_detects():
        for i in range(1, p.rounds + 1):
            q_i = escape_base ** i
            miss = max(0.0, (q_i * r - 2 * d)) / (r - 2 * d)
            for j in range(2 * d + 1):
                miss *= max(0.0, (q_i * r - j)) / (r - j)
            yield min(1.0, max(0.0, 1.0 - miss))

    return _series("s2", p, m_attack, warnings, _fold(m_attack, round_detects()))


def s2_chain_steps(p: ModelParams):
    """Yield each round's (survive, attack, detect) row of `s2_chain_rates`."""
    m_attack, _ = _attack_mass(p, float(attack_rate_A(p.r, p.b, p.s)))
    r, d = p.r, p.d
    n_max = min(r, p.rounds)
    # P(miss | N) = (1/r) sum_u C(r - w_u, N) / C(r, N), where the window at u
    # reads w_u slots, clamped as in the simulator; over N the ratio is a
    # running product of (r - w - N) / (r - N).
    u = np.arange(r)
    widths, counts = np.unique(
        np.minimum(u + d, r - 1) - np.maximum(u - d, 0) + 1, return_counts=True)
    n = np.arange(n_max, dtype=np.float64)
    miss = np.zeros(n_max + 1)
    for w, count in zip(widths.tolist(), counts.tolist()):
        miss += count * np.append(1.0, np.cumprod(np.maximum(r - w - n, 0.0) / (r - n)))
    miss /= r
    hit = 1.0 - miss
    color = float(fbc_overlap_D(p.b, p.l, p.c)) * (r - np.arange(n_max + 1)) / r
    mass = np.zeros(n_max + 1)  # undecided mass by colored count N
    mass[0] = 1.0 - m_attack
    att = _KahanSum(m_attack)
    det = _KahanSum()
    for k in range(1, p.rounds + 1):
        x = mass[:min(k, n_max) + 1]  # N <= k once round k has colored
        survive = float(x.sum())
        attack = min(1.0, att.add(survive * m_attack))
        x *= 1.0 - m_attack
        moved = x * color[:len(x)]
        x -= moved
        x[1:] += moved[:-1]
        detect = min(1.0, det.add(float(x @ hit[:len(x)])))
        x *= miss[:len(x)]
        yield survive, attack, detect


def s2_chain_rates(p: ModelParams) -> RateSeries:
    """Round series for the fresh-reference attacker: a chain over the colored count.

    A colored slot holds a corrupted canary until the game ends. The chain
    splits the undecided mass by the number N of colored slots; each round
      1. the attack mass m*A leaves;
      2. N -> N+1 with probability D*(r-N)/r;
      3. detection takes 1 - P(miss | N), for the check window at a uniform
         slot, clamped at the range's ends;
      4. the missed mass carries forward.
    P(miss | N) treats the colored set as a uniform N-subset. Trials that
    survive favour clustered sets, which a window misses more often, so the
    chain is not exact: at r=12, s=16, c=b=32, d=1 and 6 rounds it gives
    detect 0.8589, where an exact chain over colored subsets gives 0.8571 and
    10**6 simulated trials give 0.8564-0.8571.
    """
    m_attack, warnings = _attack_mass(p, float(attack_rate_A(p.r, p.b, p.s)))
    return _series("s2", p, m_attack, warnings, s2_chain_steps(p))


def strategy_base(strategy: str) -> str:
    """The base game, s1 or s2, of a strategy name: s1, s2 or a -spray variant, any case."""
    base = strategy.lower().replace("_", "-").removesuffix("-spray")
    if base not in ("s1", "s2"):
        raise ValueError(f"unknown strategy {strategy!r}")
    return base


def rates_for_strategy(strategy: str, p: ModelParams) -> RateSeries:
    """Dispatch by strategy name to the paper's series: s1, s2, s1-spray, s2-spray."""
    return (s2_rates if strategy_base(strategy) == "s2" else s1_rates)(p)

"""Monte Carlo simulation of the reuse-attack game, abstract and against the real allocator.

Two layers:

  - simulate_strategy: a vectorized simulation of the abstract game (slots,
    placements, canary overlap as coin flips) used to validate the analytical
    rate series at scale;
  - simulate_allocator_attack: the same game driven through a live ThreadHeap,
    where hits, misses, and canary detections come from real memory state.

The abstract simulation is deterministic for a given seed: one numpy
Generator supplies every draw in a fixed order, so results are reproducible
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .config import AllocatorConfig, config_from_env
from .core import HeapCorruptionError, ThreadHeap
from .model import (
    ModelParams, RateSeries, placement_count, s1_rates, s2_chain_rates, s2_chain_steps,
    strategy_base,
)
from .rng import PcgState


@dataclass(frozen=True)
class SimResult:
    strategy: str
    trials: int
    rounds: int
    seed: int
    attack_rate: float
    detect_rate: float
    neither_rate: float
    ci95_attack: float
    ci95_detect: float
    undefined: bool = False

    def summary(self) -> str:
        if self.undefined:
            return f"{self.strategy}: no trials requested; rates undefined"
        return (
            f"{self.strategy}: trials={self.trials} rounds={self.rounds} "
            f"attack={self.attack_rate:.6f} (±{self.ci95_attack:.6f}) "
            f"detect={self.detect_rate:.6f} (±{self.ci95_detect:.6f}) "
            f"neither={self.neither_rate:.6f}"
        )


def _ci95(rate: float, trials: int) -> float:
    if trials <= 0:
        return 0.0
    return 1.96 * math.sqrt(max(rate * (1.0 - rate), 0.0) / trials)


def _draw_victims(rng, m: int, r: int, n_o: int, n: int):
    """Draw m distinct victim slots (rejection redraw) and placements per trial column."""
    vb = rng.integers(0, r, size=(m, n), dtype=np.int32)
    for j in range(1, m):
        while True:
            clash = np.zeros(n, dtype=bool)
            for k in range(j):
                clash |= vb[j] == vb[k]
            nc = int(clash.sum())
            if nc == 0:
                break
            vb[j, clash] = rng.integers(0, r, size=nc, dtype=np.int32)
    vr = rng.integers(0, n_o, size=(m, n), dtype=np.int32)
    return vb, vr


def simulate_strategy(
    strategy: str,
    params: ModelParams,
    trials: int,
    seed: int,
) -> SimResult:
    """Run the abstract attack game for `trials` independent trials.

    Strategy "s1" keeps one fixed stale reference for the whole trial;
    "s2" refreshes the stale reference every round, so previously planted
    canaries accumulate across the slots it has visited ("colored" slots).
    """
    base = strategy_base(strategy)
    if trials < 0:
        raise ValueError("trials must be >= 0")
    K = params.rounds
    if trials == 0:
        return SimResult(strategy, 0, K, seed, 0.0, 0.0, 0.0, 0.0, 0.0, undefined=True)

    r, b, s, l, c, d, m = (
        params.r, params.b, params.s, params.l, params.c, params.d, params.m,
    )
    rng = np.random.Generator(np.random.PCG64(seed))
    n_o = placement_count(b, s)
    fresh = base == "s2"
    att = det = 0
    alive = np.ones(trials, dtype=bool)
    vb, vr = _draw_victims(rng, m, r, n_o, trials)
    if not fresh:
        B = rng.integers(0, r, size=trials, dtype=np.int32)
        g = rng.integers(0, n_o, size=trials, dtype=np.int32)
    # Bit k of colored[t, j] marks slot 8*j + k of trial t as colored.
    colored = np.zeros((trials, (r + 7) >> 3), dtype=np.uint8) if fresh else None
    n = trials
    rows = np.arange(n)

    def attack_draw(Bk, gk):
        a = np.zeros(n, dtype=bool)
        for j in range(m):
            a |= (Bk == vb[j]) & (gk == vr[j])
        return a

    for k in range(1, K + 1):
        if not alive.any():
            break
        if k == 1:
            # Leading write against the setup victims, before any reuse churn.
            B0 = rng.integers(0, r, size=n, dtype=np.int32) if fresh else B
            g0 = rng.integers(0, n_o, size=n, dtype=np.int32) if fresh else g
            a0 = attack_draw(B0, g0) & alive
            att += int(a0.sum())
            alive &= ~a0
        vb, vr = _draw_victims(rng, m, r, n_o, n)
        Bk = rng.integers(0, r, size=n, dtype=np.int32) if fresh else B
        gk = rng.integers(0, n_o, size=n, dtype=np.int32) if fresh else g
        ak = attack_draw(Bk, gk) & alive
        att += int(ak.sum())
        alive &= ~ak
        x = rng.integers(0, b - l + 1, size=n, dtype=np.int32)
        f = rng.integers(0, b - c + 1, size=n, dtype=np.int32)
        coin = (x <= f + c - 1) & (f <= x + l - 1)
        u = rng.integers(0, r, size=n, dtype=np.int32)
        if fresh:
            colored[rows, Bk >> 3] |= (coin & alive).view(np.uint8) << (Bk & 7).astype(np.uint8)
            dk = np.zeros(n, dtype=bool)
            # A window offset past either end reads slot 0 or r - 1 instead,
            # which another offset of the same window reads anyway.
            for off in range(-d, d + 1):
                w = np.clip(u + off, 0, r - 1)
                dk |= ((colored[rows, w >> 3] >> (w & 7)) & 1).astype(bool)
        else:
            dk = coin & (np.abs(u - B) <= d)
        dk &= alive
        det += int(dk.sum())
        alive &= ~dk
        if alive.mean() < 0.5 and alive.any():
            # vb and vr are redrawn at the top of the next round, so only
            # per-trial state that outlives a round is compacted.
            idx = np.flatnonzero(alive)
            n = len(idx)
            if fresh:
                colored = colored[idx]
            else:
                B = B[idx]
                g = g[idx]
            alive = np.ones(n, dtype=bool)
            rows = np.arange(n)

    attack_rate = att / trials
    detect_rate = det / trials
    return SimResult(
        strategy, trials, K, seed,
        attack_rate, detect_rate, 1.0 - attack_rate - detect_rate,
        _ci95(attack_rate, trials), _ci95(detect_rate, trials),
    )


def reference_rates(strategy: str) -> Callable[[ModelParams], RateSeries]:
    """The series a simulation of `strategy` is scored against: `s1_rates`,
    or `s2_chain_rates` for the fresh reference (the paper's `s2_rates`
    misses that simulation by tens of sigma)."""
    return s2_chain_rates if strategy_base(strategy) == "s2" else s1_rates


def rounds_to_reach_detection(
    params: ModelParams, target: float = 0.65, cap: int = 12_000
) -> int:
    """Smallest round count at which `s2_chain_rates` detection reaches target,
    or `cap`; the chain is walked a round at a time. The horizon it picks
    leaves measurable mass in all three outcome buckets."""
    probe = replace(params, rounds=cap)
    for k, (_, _, detect) in enumerate(s2_chain_steps(probe), start=1):
        if detect >= target:
            return k
    return cap


# -- comparison of simulation and rate series ---------------------------------


@dataclass(frozen=True)
class GridPoint:
    strategy: str
    params: ModelParams
    result: SimResult
    attack_pred: float
    detect_pred: float
    z_attack: float
    z_detect: float


def _zscore(empirical: float, predicted: float, trials: int) -> float:
    se = max(math.sqrt(max(empirical * (1.0 - empirical), 0.0) / trials), 1e-12)
    return (empirical - predicted) / se


def evaluate_point(strategy: str, params: ModelParams, trials: int, seed: int) -> GridPoint:
    """Simulate one parameter point and score it against `reference_rates`."""
    result = simulate_strategy(strategy, params, trials, seed)
    series = reference_rates(strategy)(params)
    return GridPoint(
        strategy=strategy,
        params=params,
        result=result,
        attack_pred=series.final_attack,
        detect_pred=series.final_detect,
        z_attack=_zscore(result.attack_rate, series.final_attack, trials),
        z_detect=_zscore(result.detect_rate, series.final_detect, trials),
    )


def format_grid_report(points: list[GridPoint], elapsed: Optional[float] = None) -> str:
    """Human-readable cross-validation report for a batch of grid points.

    The ``elapsed:`` line is written only when ``elapsed`` is given, so a
    report without it depends on the points alone.
    """
    lines = [
        "Cross-validation of analytical rate series against Monte Carlo simulation",
        "(s1 points against s1_rates, s2 points against s2_chain_rates)",
        "",
        f"{'strategy':8s} {'b':>5s} {'m':>2s} {'rounds':>6s} {'trials':>7s} "
        f"{'sim att':>9s} {'sim det':>9s} {'z(att)':>8s} {'z(det)':>8s}",
    ]
    for pt in points:
        lines.append(
            f"{pt.strategy:8s} {pt.params.b:5d} {pt.params.m:2d} {pt.params.rounds:6d} "
            f"{pt.result.trials:7d} {pt.result.attack_rate:9.5f} {pt.result.detect_rate:9.5f} "
            f"{pt.z_attack:+8.2f} {pt.z_detect:+8.2f}"
        )
    lines += [
        "",
        f"worst |z| attack: {max((abs(pt.z_attack) for pt in points), default=0.0):.2f}",
        f"worst |z| detect: {max((abs(pt.z_detect) for pt in points), default=0.0):.2f}",
    ]
    if elapsed is not None:
        lines.append(f"elapsed: {elapsed:.1f}s")
    return "\n".join(lines)


# -- attack game against the real allocator -----------------------------------


@dataclass(frozen=True)
class HarnessResult:
    strategy: str
    trials: int
    rounds: int
    attack_rate: float
    detect_rate: float
    neither_rate: float
    ci95_attack: float
    ci95_detect: float


def simulate_allocator_attack(
    strategy: str,
    size: int,
    rounds: int,
    trials: int,
    seed: int,
    m: int = 1,
    write_len: int = 4,
    cfg: Optional[AllocatorConfig] = None,
) -> HarnessResult:
    """Play the reuse-attack game against a live heap.

    Per trial: mint a stale reference (allocate then free), then each round
    allocate m victim objects of the same size and write an attack payload
    through the stale reference at a guessed placement. An exact hit on a
    victim's placement is an attacker win; any canary detection raised by the
    allocator is a defender win. Strategy "s2" re-mints the stale reference
    every round. One heap serves all trials: every byte the attacker wrote is
    restored from an undo log and every allocation is returned before the next
    trial starts, so trials stay independent.
    """
    base = strategy_base(strategy)
    if trials <= 0:
        raise ValueError("trials must be positive")
    if cfg is None:
        cfg = config_from_env(env={}, seed=seed, guard_page_rate=0.0)
    if not cfg.abort_on_tamper:
        raise ValueError("the harness requires abort_on_tamper so detections raise")
    heap = ThreadHeap(cfg)
    class_size = heap._class_for_req(size)
    if class_size is None:
        raise ValueError(f"size {size} does not map to a slot class")
    n_o = placement_count(class_size, size)
    guesses = PcgState(seed, 1)  # attacker's own randomness, separate stream
    payload = b"\x41" * write_len
    l = write_len

    att = det = 0
    for _trial in range(trials):
        allocs: list[int] = []
        undo: list[tuple[int, bytes]] = []
        won = detected = False
        try:
            stale = heap.malloc(size)
            allocs.append(stale)
            heap.free(stale)
            allocs.pop()
            kind, sb, slot = heap.resolve(stale)
            stale_base = sb.base + slot * class_size
            guess = guesses.uniform_below(n_o) << 4
            for _round in range(rounds):
                victims = []
                for _ in range(m):
                    v = heap.malloc(size)
                    allocs.append(v)
                    victims.append(v)
                target = stale_base + guess
                undo.append((target, heap.backing.raw_read(target, l)))
                heap.backing.write(target, payload)
                for v in victims:
                    vkind, vsb, vslot = heap.resolve(v)
                    if vsb is sb and vslot == slot and v - stale_base == guess:
                        won = True
                        break
                if won:
                    break
                if base == "s2":
                    stale = heap.malloc(size)
                    allocs.append(stale)
                    heap.free(stale)
                    allocs.pop()
                    kind, sb, slot = heap.resolve(stale)
                    stale_base = sb.base + slot * class_size
                    guess = guesses.uniform_below(n_o) << 4
        except HeapCorruptionError:
            detected = True
        if won:
            att += 1
        elif detected:
            det += 1
        # Undo attack writes first so cleanup frees see pristine canaries.
        for address, original in reversed(undo):
            heap.backing.raw_write(address, original)
        for address in reversed(allocs):
            heap.free(address)
        heap.reports.clear()

    attack_rate = att / trials
    detect_rate = det / trials
    return HarnessResult(
        strategy, trials, rounds,
        attack_rate, detect_rate, 1.0 - attack_rate - detect_rate,
        _ci95(attack_rate, trials), _ci95(detect_rate, trials),
    )

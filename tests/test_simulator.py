"""Monte Carlo engine: frozen streams, statistical agreement, live-heap harness."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from s2alloc.config import config_from_env
from s2alloc.model import ModelParams, attack_rate_A, fbc_overlap_D, s1_rates, s2_chain_rates
from s2alloc.simulator import (
    GridPoint,
    _draw_victims,
    evaluate_point,
    format_grid_report,
    rounds_to_reach_detection,
    simulate_allocator_attack,
    simulate_strategy,
)


def zscore(observed, expected, trials):
    se = max(math.sqrt(observed * (1 - observed) / trials), 1e-12)
    return (observed - expected) / se


# -- frozen regression streams (exact float equality) ------------------------------

FROZEN = [
    ("s1", dict(r=64, b=32, s=16, l=4, c=8, d=2, m=1, rounds=40), 3000, 11,
     0.172, 0.596),
    ("s2", dict(r=64, b=32, s=16, l=4, c=8, d=2, m=1, rounds=40), 3000, 11,
     0.064, 0.936),
    ("s1-spray", dict(r=256, b=64, s=16, l=4, c=8, d=1, m=4, rounds=60), 2000, 99,
     0.1995, 0.0975),
    ("s2-spray", dict(r=128, b=16, s=16, l=2, c=4, d=3, m=2, rounds=50), 2000, 5,
     0.1685, 0.8315),
]


@pytest.mark.parametrize("strategy,params,trials,seed,attack,detect", FROZEN)
def test_frozen_streams(strategy, params, trials, seed, attack, detect):
    res = simulate_strategy(strategy, ModelParams(**params), trials=trials, seed=seed)
    assert res.attack_rate == attack
    assert res.detect_rate == detect


def dense_s2_reference(params, trials, seed):
    """The fresh-reference game with one bool per (trial, slot), as first written.

    Draws what simulate_strategy("s2", ...) draws, in the same order, and
    returns the attack and detect counts.
    """
    r, b, s, l, c, d, m = (
        params.r, params.b, params.s, params.l, params.c, params.d, params.m,
    )
    rng = np.random.Generator(np.random.PCG64(seed))
    n_o = 1 + (b - s) // 16
    att = det = 0
    alive = np.ones(trials, dtype=bool)
    vb, vr = _draw_victims(rng, m, r, n_o, trials)
    colored = np.zeros((trials, r), dtype=bool)
    n = trials
    rows = np.arange(n)
    compactions = 0

    def attack_draw(Bk, gk):
        a = np.zeros(n, dtype=bool)
        for j in range(m):
            a |= (Bk == vb[j]) & (gk == vr[j])
        return a

    for k in range(1, params.rounds + 1):
        if not alive.any():
            break
        if k == 1:
            B0 = rng.integers(0, r, size=n, dtype=np.int32)
            g0 = rng.integers(0, n_o, size=n, dtype=np.int32)
            a0 = attack_draw(B0, g0) & alive
            att += int(a0.sum())
            alive &= ~a0
        vb, vr = _draw_victims(rng, m, r, n_o, n)
        Bk = rng.integers(0, r, size=n, dtype=np.int32)
        gk = rng.integers(0, n_o, size=n, dtype=np.int32)
        ak = attack_draw(Bk, gk) & alive
        att += int(ak.sum())
        alive &= ~ak
        x = rng.integers(0, b - l + 1, size=n, dtype=np.int32)
        f = rng.integers(0, b - c + 1, size=n, dtype=np.int32)
        coin = (x <= f + c - 1) & (f <= x + l - 1)
        u = rng.integers(0, r, size=n, dtype=np.int32)
        colored[rows, Bk] |= coin & alive
        dk = np.zeros(n, dtype=bool)
        for off in range(-d, d + 1):
            w = u + off
            ok = (w >= 0) & (w < r)
            dk |= ok & colored[rows, np.clip(w, 0, r - 1)]
        dk &= alive
        det += int(dk.sum())
        alive &= ~dk
        if alive.mean() < 0.5 and alive.any():
            idx = np.flatnonzero(alive)
            n = len(idx)
            colored = colored[idx]
            alive = np.ones(n, dtype=bool)
            rows = np.arange(n)
            compactions += 1
    return att, det, compactions


PACKED_CASES = [
    (dict(r=7, b=32, s=16, l=4, c=8, d=1, m=1, rounds=40), 3000, 1),
    (dict(r=61, b=64, s=16, l=4, c=8, d=2, m=1, rounds=80), 3000, 2),
    (dict(r=61, b=16, s=16, l=2, c=4, d=0, m=4, rounds=60), 3000, 3),
    (dict(r=7, b=32, s=16, l=4, c=8, d=9, m=1, rounds=30), 2000, 4),
    (dict(r=256, b=32, s=16, l=4, c=2, d=2, m=4, rounds=200), 4000, 5),
    (dict(r=1000, b=48, s=16, l=4, c=8, d=3, m=2, rounds=150), 2000, 6),
]


@pytest.mark.parametrize("params,trials,seed", PACKED_CASES)
def test_packed_colored_matches_dense_reference(params, trials, seed):
    p = ModelParams(**params)
    att, det, compactions = dense_s2_reference(p, trials, seed)
    assert compactions >= 1
    res = simulate_strategy("s2", p, trials=trials, seed=seed)
    assert res.attack_rate == att / trials
    assert res.detect_rate == det / trials


def test_s2_colored_matrix_memory_gate():
    # One criterion-04 point at 2e4 trials: a dense bool matrix alone is 39 MiB.
    p = ModelParams(r=2048, b=64, s=16, l=4, c=8, d=2, m=1, rounds=70)
    tracemalloc.start()
    try:
        simulate_strategy("s2", p, trials=20_000, seed=20260814)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_same_seed_identical_different_seed_not():
    p = ModelParams(r=32, b=32, s=16, l=4, c=8, d=2, m=1, rounds=20)
    a = simulate_strategy("s1", p, trials=2000, seed=3)
    b = simulate_strategy("s1", p, trials=2000, seed=3)
    c = simulate_strategy("s1", p, trials=2000, seed=4)
    assert (a.attack_rate, a.detect_rate) == (b.attack_rate, b.detect_rate)
    assert (a.attack_rate, a.detect_rate) != (c.attack_rate, c.detect_rate)


# -- degenerate and structural cases ------------------------------------------------


def test_certain_hit_when_no_entropy():
    # One slot, the object fills it: the first guess always lands.
    p = ModelParams(r=1, b=16, s=16, l=4, c=8, d=0, m=1, rounds=1)
    res = simulate_strategy("s1", p, trials=500, seed=1)
    assert res.attack_rate == 1.0 and res.detect_rate == 0.0


def test_zero_trials_is_undefined():
    p = ModelParams(r=16, b=32, s=16, l=4, c=8, d=2, m=1, rounds=5)
    res = simulate_strategy("s1", p, trials=0, seed=1)
    assert res.undefined
    assert res.attack_rate == 0.0 and res.detect_rate == 0.0
    assert "undefined" in res.summary()


def test_outcomes_are_exclusive_and_exhaustive():
    p = ModelParams(r=64, b=32, s=16, l=4, c=8, d=2, m=2, rounds=30)
    for strategy in ("s1", "s2", "s1-spray", "s2-spray"):
        res = simulate_strategy(strategy, p, trials=4000, seed=17)
        total = res.attack_rate + res.detect_rate + res.neither_rate
        assert abs(total - 1.0) < 1e-12


def test_strategy_names_normalize():
    p = ModelParams(r=64, b=32, s=16, l=4, c=8, d=2, m=1, rounds=10)
    a = simulate_strategy("S1", p, trials=1000, seed=2)
    b = simulate_strategy("s1-spray", p, trials=1000, seed=2)
    assert a.attack_rate == b.attack_rate  # m=1 spray is plain s1
    with pytest.raises(ValueError):
        simulate_strategy("s9", p, trials=10, seed=1)


def test_result_summary_mentions_rates():
    p = ModelParams(r=16, b=32, s=16, l=4, c=8, d=2, m=1, rounds=5)
    res = simulate_strategy("s1", p, trials=1000, seed=1)
    text = res.summary()
    assert "attack" in text and "detect" in text
    assert res.ci95_attack >= 0 and res.ci95_detect >= 0


# -- statistical agreement with the analytical series -------------------------------


def test_single_round_attack_matches_exact_rate():
    # One round carries two guesses (the opening attempt folds into round 1),
    # so the exact rate is 1-(1-A)^2 with A = 1/512; the series agrees exactly.
    p = ModelParams(r=256, b=32, s=16, l=4, c=8, d=2, m=1, rounds=1)
    res = simulate_strategy("s1", p, trials=100_000, seed=13)
    A = float(attack_rate_A(256, 32, 16))
    expected = 1 - (1 - A) ** 2
    assert s1_rates(p).final_attack == expected
    assert abs(zscore(res.attack_rate, expected, 100_000)) < 3


def test_one_round_full_window_detection_matches_overlap_rate():
    # Window spans every slot: a missed guess is detected exactly when the
    # write overlaps a canary, so detection converges to the overlap rate
    # (the ~1/8192 guess-hit correction is far below the 3-sigma band).
    p = ModelParams(r=4096, b=32, s=16, l=4, c=8, d=4095, m=1, rounds=1)
    res = simulate_strategy("s1", p, trials=1_000_000, seed=7)
    overlap = fbc_overlap_D(32, 4, 8)
    assert overlap == Fraction(263, 725)
    assert abs(zscore(res.detect_rate, float(overlap), 1_000_000)) < 3


def test_table_point_monte_carlo_agreement():
    p = ModelParams(r=256, b=32, s=16, l=4, c=2, d=2, m=1, rounds=500)
    s1 = simulate_strategy("s1", p, trials=100_000, seed=7)
    assert s1.attack_rate == 0.35857 and s1.detect_rate == 0.56164  # frozen
    series = s1_rates(p)
    assert abs(zscore(s1.attack_rate, series.final_attack, 100_000)) < 3
    assert abs(zscore(s1.detect_rate, series.final_detect, 100_000)) < 3

    s2 = simulate_strategy("s2", p, trials=100_000, seed=7)
    assert s2.attack_rate == 0.04962 and s2.detect_rate == 0.95038  # frozen
    assert abs(s2.attack_rate - 0.055) < 0.02  # published-table band
    assert abs(s2.detect_rate - 0.95) < 0.05
    chain = s2_chain_rates(p)
    assert abs(zscore(s2.attack_rate, chain.final_attack, 100_000)) <= 3
    assert abs(zscore(s2.detect_rate, chain.final_detect, 100_000)) <= 3


def horizon_params(**fields):
    """Fresh-reference params at the round where the chain's detection reaches 0.65."""
    probe = ModelParams(**fields, rounds=0)
    return ModelParams(**fields, rounds=rounds_to_reach_detection(probe))


CHAIN_CASES = [
    dict(r=64, b=32, s=16, l=4, c=8, d=4, m=1),
    dict(r=256, b=96, s=64, l=8, c=8, d=2, m=1),
    dict(r=61, b=32, s=16, l=4, c=8, d=2, m=1),  # r not a multiple of 8
    dict(r=128, b=32, s=16, l=4, c=8, d=2, m=4),
]


@pytest.mark.parametrize("fields", CHAIN_CASES)
def test_chain_matches_simulation(fields):
    p = horizon_params(**fields)
    res = simulate_strategy("s2", p, trials=100_000, seed=11)
    chain = s2_chain_rates(p)
    assert abs(zscore(res.attack_rate, chain.final_attack, 100_000)) <= 3
    assert abs(zscore(res.detect_rate, chain.final_detect, 100_000)) <= 3


def exact_subset_chain(p):
    """Final (attack, detect) of the fresh-reference game with the colored set
    itself as the state: 2**r states, so small r only."""
    r, d = p.r, p.d
    m_attack = p.m * float(attack_rate_A(r, p.b, p.s))
    D = float(fbc_overlap_D(p.b, p.l, p.c))
    sets = np.arange(1 << r)
    miss = np.zeros(1 << r)
    for u in range(r):
        window = sum(1 << j for j in range(max(0, u - d), min(r - 1, u + d) + 1))
        miss += (sets & window) == 0
    miss /= r
    mass = np.zeros(1 << r)
    mass[0] = 1.0 - m_attack
    attack, detect = m_attack, 0.0
    for _ in range(p.rounds):
        attack += m_attack * mass.sum()
        mass *= 1.0 - m_attack
        colored = mass * (1.0 - D)
        for j in range(r):
            colored += np.bincount(sets | (1 << j), weights=mass * D / r, minlength=1 << r)
        mass = colored
        detect += float(mass @ (1.0 - miss))
        mass *= miss
    return attack, detect


@pytest.mark.parametrize("fields", [
    dict(r=16, b=32, s=16, l=4, c=8, d=3, m=1),
    dict(r=32, b=32, s=16, l=4, c=8, d=6, m=1),
])
def test_chain_clustering_residual_at_small_r_and_wide_window(fields):
    # Surviving trials favour clustered colored sets, which a window misses
    # more often than the chain's uniform set. With a window of 7/16 or
    # 13/32 of the slots the chain overstates detection by 3-6 sigma at 1e5
    # trials (seeds 1-3 and 11); attack still agrees.
    p = horizon_params(**fields)
    res = simulate_strategy("s2", p, trials=100_000, seed=11)
    chain = s2_chain_rates(p)
    assert abs(zscore(res.attack_rate, chain.final_attack, 100_000)) <= 3
    assert 0.0 < chain.final_detect - res.detect_rate < 0.01
    if p.r <= 16:
        attack, detect = exact_subset_chain(p)
        assert abs(zscore(res.attack_rate, attack, 100_000)) <= 3
        assert abs(zscore(res.detect_rate, detect, 100_000)) <= 3


def test_renewing_canaries_dominate_static_by_detection():
    p = ModelParams(r=64, b=32, s=16, l=4, c=8, d=2, m=1, rounds=60)
    s1 = simulate_strategy("s1", p, trials=20_000, seed=21)
    s2 = simulate_strategy("s2", p, trials=20_000, seed=21)
    assert s2.detect_rate > s1.detect_rate + 0.1
    assert s2.attack_rate < s1.attack_rate


# -- round calibration and grid machinery -------------------------------------------


def test_rounds_to_reach_detection_locked_values():
    locked = {(16, 1): 34, (16, 4): 35, (32, 1): 50, (32, 4): 51,
              (64, 1): 72, (64, 4): 73, (256, 1): 149, (256, 4): 151}
    for (b, m), expected in locked.items():
        p = ModelParams(r=2048, b=b, s=16, l=4, c=8, d=2, m=m, rounds=0)
        assert rounds_to_reach_detection(p, target=0.65, cap=12_000) == expected


@pytest.mark.parametrize("fields,target", [
    (dict(r=2048, b=64, s=16, l=4, c=8, d=2, m=1), 0.65),
    (dict(r=61, b=32, s=16, l=4, c=8, d=2, m=4), 0.7),
    (dict(r=7, b=32, s=16, l=4, c=8, d=9, m=1), 0.2),
])
def test_rounds_to_reach_detection_is_first_round_of_the_chain(fields, target):
    k = rounds_to_reach_detection(ModelParams(**fields, rounds=0), target=target)
    detect = s2_chain_rates(ModelParams(**fields, rounds=k)).p_detect
    assert detect[-1] >= target
    assert k == 1 or detect[-2] < target


def test_rounds_to_reach_detection_cap():
    p = ModelParams(r=2048, b=8192, s=16, l=1, c=1, d=0, m=1, rounds=0)
    assert rounds_to_reach_detection(p, target=0.999999, cap=50) == 50


def test_evaluate_point_wiring():
    p = ModelParams(r=128, b=32, s=16, l=4, c=8, d=2, m=1, rounds=30)
    point = evaluate_point("s2", p, trials=4000, seed=20260814)
    assert isinstance(point, GridPoint)
    assert point.result.trials == 4000
    series = s2_chain_rates(p)
    assert point.attack_pred == series.final_attack
    assert point.detect_pred == series.final_detect
    assert point.result.attack_rate + point.result.detect_rate <= 1.0
    z = zscore(point.result.attack_rate, point.attack_pred, 4000)
    assert math.isclose(point.z_attack, z, rel_tol=1e-9)
    stale = evaluate_point("s1-spray", p, trials=2000, seed=20260814)
    assert stale.detect_pred == s1_rates(p).final_detect


def test_grid_report_structure():
    points = []
    for b in (16, 32):
        p = ModelParams(r=128, b=b, s=16, l=4, c=8, d=2, m=1, rounds=20)
        points.append(evaluate_point("s1", p, trials=2000, seed=20260814))
        points.append(evaluate_point("s2", p, trials=2000, seed=20260814))
    report = format_grid_report(points, elapsed=1.0)
    assert "strategy" in report and "z(att)" in report and "z(det)" in report
    assert "worst |z| attack" in report
    assert "elapsed: 1.0s" in report
    assert "elapsed:" not in format_grid_report(points)
    assert "s2_chain_rates" in report
    for pt in points:
        assert f"{pt.result.attack_rate:9.5f}" in report
        assert f"{pt.z_detect:+8.2f}" in report
    worst = max(abs(pt.z_detect) for pt in points)
    assert f"worst |z| detect: {worst:.2f}" in report


# -- live-allocator harness ----------------------------------------------------------


def harness_cfg(seed):
    return config_from_env(env={}, seed=seed, guard_page_rate=0.0, nearby_check=0)


def test_harness_single_round_attack_rate_matches_exact_model():
    res = simulate_allocator_attack(
        "s1", size=16, rounds=1, trials=30_000, seed=31337, m=1, write_len=4,
        cfg=harness_cfg(31337),
    )
    expected = float(attack_rate_A(256, 32, 16))  # 1/512: class 32, two placements
    assert abs(zscore(max(res.attack_rate, 1e-9), expected, 30_000)) < 4
    assert res.detect_rate == 0.0  # no patrol, no victim frees -> nothing to catch


def test_harness_detects_with_patrol_enabled():
    cfg = config_from_env(env={}, seed=5, guard_page_rate=0.0)
    res = simulate_allocator_attack(
        "s1", size=16, rounds=30, trials=1500, seed=5, cfg=cfg)
    assert res.detect_rate > 0.05
    assert res.attack_rate + res.detect_rate + res.neither_rate == 1.0


def test_harness_renewal_dominates():
    cfg = config_from_env(env={}, seed=99, guard_page_rate=0.0)
    s1 = simulate_allocator_attack("s1", size=16, rounds=30, trials=1200, seed=99,
                                   cfg=cfg)
    s2 = simulate_allocator_attack("s2", size=16, rounds=30, trials=1200, seed=99,
                                   cfg=cfg)
    assert s2.detect_rate > s1.detect_rate + 0.3


def test_live_allocator_detects_at_least_as_often_as_abstract_game():
    # Small classes plant a whole-slot zero canary, strictly more sensitive
    # than the abstract game's c-byte canary at the same geometry.
    p = ModelParams(r=256, b=32, s=16, l=4, c=8, d=2, m=1, rounds=30)
    abstract = simulate_strategy("s1", p, trials=1500, seed=77)
    live = simulate_allocator_attack(
        "s1", size=16, rounds=30, trials=1500, seed=77,
        cfg=config_from_env(env={}, seed=77, guard_page_rate=0.0))
    assert live.detect_rate >= abstract.detect_rate


def test_harness_is_deterministic():
    cfg = config_from_env(env={}, seed=42, guard_page_rate=0.0)
    a = simulate_allocator_attack("s2", size=32, rounds=10, trials=400, seed=42,
                                  cfg=cfg)
    b = simulate_allocator_attack("s2", size=32, rounds=10, trials=400, seed=42,
                                  cfg=config_from_env(env={}, seed=42,
                                                      guard_page_rate=0.0))
    assert (a.attack_rate, a.detect_rate) == (b.attack_rate, b.detect_rate)


def test_harness_requires_abort_mode():
    cfg = config_from_env(env={}, seed=1, guard_page_rate=0.0, abort_on_tamper=False)
    with pytest.raises(ValueError):
        simulate_allocator_attack("s1", size=16, rounds=1, trials=10, seed=1, cfg=cfg)

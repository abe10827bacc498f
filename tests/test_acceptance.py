"""Acceptance gate: ten binding criteria, one test (= one pass/fail line) each.

Each test pins its tolerance next to the assertion. Statistical checks run at
fixed seeds so a pass is reproducible bit-for-bit; 3-sigma bands refer to the
binomial standard error at the stated trial count.
"""

import hashlib
import math
import os
import time
from fractions import Fraction
from pathlib import Path

import pytest

from s2alloc import cli
from s2alloc.canary import HAS_HARDWARE_BACKEND, cmac_aes128
from s2alloc.config import config_from_env
from s2alloc.core import FREE_MAC, DetectionKind, HeapCorruptionError, ThreadHeap
from s2alloc.model import (
    ModelParams,
    _enumerate_overlaps,
    attack_rate_A,
    fbc_overlap_D,
    s1_rates,
    s2_rates,
)
from s2alloc.rng import PcgState
from s2alloc.simulator import (
    evaluate_point,
    format_grid_report,
    rounds_to_reach_detection,
    simulate_strategy,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_criterion01_overlap_closed_form_matches_enumeration_exactly():
    """Closed-form overlap rate == exhaustive enumeration for every geometry
    with b in 4..64 and l, c <= b meeting the closed form's precondition."""
    start = time.monotonic()
    checked = 0
    for b in range(4, 65):
        for l in range(1, b + 1):
            for c in range(1, b + 1):
                if b < l + 2 * (c - 1):
                    continue  # outside the closed form's domain
                rate = fbc_overlap_D(b, l, c)
                assert rate.method == "closed-form", (b, l, c)
                brute = Fraction(
                    _enumerate_overlaps(b, l, c), (b - l + 1) * (b - c + 1)
                )
                assert rate == brute, (b, l, c)
                checked += 1
    elapsed = time.monotonic() - start
    assert checked == 23_401
    assert elapsed < 10.0, f"enumeration sweep took {elapsed:.1f}s"


def test_criterion02_single_guess_attack_rate_is_exact_rational():
    rate = attack_rate_A(256, 32, 16)
    assert isinstance(rate, Fraction)
    assert rate == Fraction(1, 512)
    assert math.isclose(float(rate), 0.002, rel_tol=0.025)


def test_criterion03_long_horizon_anchor_rates_within_bands():
    """Reference operating point (r=256, b=32, s=16, l=4, c=2, d=2, 500 rounds):
    the analytic series must land in the published band for each outcome."""
    p = ModelParams(r=256, b=32, s=16, l=4, c=2, d=2, m=1, rounds=500)
    stale = s1_rates(p)
    assert abs(stale.final_attack - 0.35) <= 0.05, stale.final_attack
    assert abs(stale.final_detect - 0.64) <= 0.10, stale.final_detect
    fresh = s2_rates(p)
    assert abs(fresh.final_attack - 0.055) <= 0.02, fresh.final_attack
    assert abs(fresh.final_detect - 0.95) <= 0.05, fresh.final_detect


def test_criterion04_series_vs_simulation_grid_agreement():
    """16-point grid (b in {16,32,64,256} x {s1,s2} x m in {1,4}), 1e5 trials
    per point at seed 20260814: every attack and detection rate within 3 sigma
    of its series (s1_rates, or s2_chain_rates for s2). Total runtime under
    10 minutes."""
    start = time.monotonic()
    points = []
    for b in (16, 32, 64, 256):
        for m in (1, 4):
            s1_params = ModelParams(r=2048, b=b, s=16, l=4, c=8, d=2, m=m,
                                    rounds=4000)
            points.append(evaluate_point("s1", s1_params, trials=100_000,
                                         seed=20260814))
            probe = ModelParams(r=2048, b=b, s=16, l=4, c=8, d=2, m=m, rounds=0)
            k = rounds_to_reach_detection(probe, target=0.65, cap=12_000)
            s2_params = ModelParams(r=2048, b=b, s=16, l=4, c=8, d=2, m=m,
                                    rounds=k)
            points.append(evaluate_point("s2", s2_params, trials=100_000,
                                         seed=20260814))
    elapsed = time.monotonic() - start

    # Written without its elapsed time, so a run leaves the tracked report
    # unchanged unless a rate moves.
    report = format_grid_report(points)
    report_path = REPO_ROOT / "acceptance_grid_report.txt"
    report_path.write_text(report + "\n")

    violations = [
        f"{name} z {z:+.2f} at {pt.strategy} b={pt.params.b} m={pt.params.m}"
        for pt in points
        for name, z in (("attack", pt.z_attack), ("detect", pt.z_detect))
        if abs(z) > 3.0
    ]
    assert violations == []
    assert elapsed < 600.0, f"grid took {elapsed:.0f}s"
    assert report_path.stat().st_size > 0


def test_criterion05_detection_soundness_no_false_or_missed_reports():
    """1e5-op random alloc/free fuzz raises zero reports; each of four
    injected-corruption families is caught 1000 out of 1000 times."""
    fuzz = ThreadHeap(config_from_env(env={}, seed=50505, guard_page_rate=0.2,
                                      abort_on_tamper=False))
    ops_rng = PcgState(50505, 3)
    live = []
    for _ in range(100_000):
        if live and (ops_rng.uniform_below(100) < 47):
            idx = ops_rng.uniform_below(len(live))
            live[idx], live[-1] = live[-1], live[idx]
            fuzz.free(live.pop())
        else:
            size = 1 + ops_rng.uniform_below(8192)
            if ops_rng.uniform_below(100) == 0:
                size += 60_000  # exercise the direct-mapped path too
            address = fuzz.malloc(size)
            assert address != 0
            live.append(address)
    for address in live:
        fuzz.free(address)
    assert fuzz.reports == [], f"false reports: {fuzz.reports[:3]}"

    heap = ThreadHeap(config_from_env(env={}, seed=50506, guard_page_rate=0.0,
                                      abort_on_tamper=True))
    inj_rng = PcgState(50506, 4)
    counts = {"double_free": 0, "bad_offset": 0, "overflow": 0, "stale_write": 0}
    for _ in range(1000):
        a = heap.malloc(24)
        heap.free(a)
        try:
            heap.free(a)
        except HeapCorruptionError as exc:
            assert exc.report.kind == DetectionKind.DOUBLE_FREE
            counts["double_free"] += 1

        a = heap.malloc(24)
        try:
            heap.free(a + 16)
        except HeapCorruptionError as exc:
            assert exc.report.kind == DetectionKind.INVALID_FREE
            counts["bad_offset"] += 1
        heap.free(a)

        a = heap.malloc(24)  # single placement; contiguous canary at byte 24
        guard_byte = heap.backing.raw_read(a + 24, 1)[0]
        # 1-byte overflow past the data that actually flips the guarded byte
        # (an overflow that happens to rewrite the canary with its own value
        # is invisible by design, so the injection must change it)
        heap.backing.write(a + 23, b"X" + bytes([guard_byte ^ 0xFF]))
        try:
            heap.free(a)
        except HeapCorruptionError as exc:
            assert exc.report.kind == DetectionKind.HEAP_CANARY_TAMPER
            counts["overflow"] += 1

        a = heap.malloc(16)
        _, sb, slot = heap.resolve(a)
        heap.free(a)
        base = sb.base + slot * 32
        offset = inj_rng.uniform_below(32)
        value = bytes([1 + inj_rng.uniform_below(255)])
        heap.backing.raw_write(base + offset, value)
        if not heap.check_fbc(sb, slot).intact:
            counts["stale_write"] += 1
        heap.backing.raw_write(base + offset, b"\x00")

    assert counts == {"double_free": 1000, "bad_offset": 1000,
                      "overflow": 1000, "stale_write": 1000}


def test_criterion06_large_slot_canary_hit_rate_matches_overlap():
    """Uniform 8-byte complement writes into free 8192-byte slots are flagged
    at the analytic overlap rate within 3 sigma over 1e4 trials."""
    heap = ThreadHeap(config_from_env(env={}, seed=606, guard_page_rate=0.0))
    test_rng = PcgState(606, 2)
    b, l, trials = 8192, 8, 10_000
    hits = 0
    for _ in range(trials):
        address = heap.malloc(6000)  # lands in class 8192
        _, sb, slot = heap.resolve(address)
        assert sb.bag.b == b
        heap.free(address)  # plants the keyed canary at a fresh random spot
        assert heap.slot_state(sb, slot) == FREE_MAC
        base = sb.base + slot * b
        x = test_rng.uniform_below(b - l + 1)
        original = heap.backing.raw_read(base + x, l)
        heap.backing.raw_write(base + x, bytes(v ^ 0xFF for v in original))
        if not heap.check_fbc(sb, slot).intact:
            hits += 1
        heap.backing.raw_write(base + x, original)
    rate = float(fbc_overlap_D(b, l, 8))
    sigma = math.sqrt(trials * rate * (1.0 - rate))
    assert abs(hits - trials * rate) <= 3.0 * sigma, \
        f"hits={hits} expected={trials * rate:.1f} sigma={sigma:.2f}"


def test_criterion07_structural_invariants_classes_alignment_guards():
    """92 size classes in 64/14/14 bands; 16-aligned addresses over 1e5
    random-size allocations; guard frequency within 3 sigma over 1e4 sub-bags;
    no allocation overlaps a guarded page."""
    cfg = config_from_env(env={})
    table = cfg.size_classes
    assert len(table) == 92
    assert table == tuple(sorted(table))
    assert [s for s in table if s <= 1024] == list(range(16, 1025, 16))
    assert [s for s in table if 1024 < s <= 8192] == list(range(1536, 8193, 512))
    assert [s for s in table if s > 8192] == list(range(12288, 65537, 4096))

    heap = ThreadHeap(config_from_env(env={}, seed=707, guard_page_rate=0.3))
    size_rng = PcgState(707, 5)
    allocations = []
    live = []
    for i in range(100_000):
        size = 1 + size_rng.uniform_below(6144)
        if i % 997 == 0:
            size = 49_153 + size_rng.uniform_below(40_000)  # direct-mapped
        address = heap.malloc(size)
        assert address % 16 == 0, f"unaligned address {address:#x} for {size}"
        allocations.append((address, size))
        live.append(address)
        if len(live) > 2000:
            heap.free(live.pop(0))
    page = cfg.page_size
    protected = heap.backing.protected_pages
    assert protected, "guard rate 0.3 must place guards in this workload"
    for address, size in allocations:
        for page_base in range((address // page) * page, address + size, page):
            assert page_base not in protected, \
                f"allocation {address:#x}+{size} overlaps guard {page_base:#x}"

    guard_heap = ThreadHeap(config_from_env(env={}, seed=17, guard_page_rate=0.5))
    bag = guard_heap.resolve(guard_heap.malloc(1))[1].bag
    subbags = 10_000
    guards = sum(1 for _ in range(subbags) if bag.add_subbag().guard_pages)
    sigma = math.sqrt(subbags * 0.5 * 0.5)
    assert abs(guards - subbags * 0.5) <= 3.0 * sigma, guards


RFC4493_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
RFC4493_MSG = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)
RFC4493_TAGS = {
    0: "bb1d6929e95937287fa37d129b756746",
    16: "070a16b46b4d4144f79bdd9dd04a287c",
    40: "dfa66747de9ae63030ca32611497c827",
    64: "51f0bebf7e3b9d92fc49741779363cfe",
}


def test_criterion08_mac_conformance_vectors_and_dual_path():
    """CMAC-AES-128 matches all four published vectors on both backends, and
    the software and hardware paths agree on 1e4 random inputs."""
    assert HAS_HARDWARE_BACKEND, "accelerated AES backend unavailable"
    for length, tag_hex in RFC4493_TAGS.items():
        expected = bytes.fromhex(tag_hex)
        assert cmac_aes128(RFC4493_KEY, RFC4493_MSG[:length], backend="sw") == expected
        assert cmac_aes128(RFC4493_KEY, RFC4493_MSG[:length], backend="hw") == expected

    draw = PcgState(808, 6)
    for trial in range(10_000):
        key = bytes(draw.uniform_below(256) for _ in range(16))
        message = bytes(draw.uniform_below(256) for _ in range(trial % 33))
        assert cmac_aes128(key, message, backend="sw") == \
            cmac_aes128(key, message, backend="hw")


def run_reference_trace(seed):
    heap = ThreadHeap(config_from_env(env={}, seed=seed, guard_page_rate=0.25,
                                      abort_on_tamper=False))
    addresses = []
    live = []
    for i in range(3000):
        address = heap.malloc((i * 29) % 3000 + 1)
        addresses.append(address)
        live.append(address)
        if i % 3 == 1:
            heap.free(live.pop(0))
        if i in (100, 1500, 2999):  # deliberate double frees, non-fatal mode
            heap.free(addresses[0])
    reports = [(r.kind, r.slot_address, r.detail) for r in heap.reports]
    return addresses, reports, sorted(heap.backing.protected_pages)


def test_criterion09_fixed_seed_runs_are_bit_identical():
    """Same-seed allocator traces (addresses, reports, guard layout) and
    Monte Carlo runs repeat exactly across independent executions."""
    assert run_reference_trace(909) == run_reference_trace(909)
    assert run_reference_trace(909) != run_reference_trace(910)

    p = ModelParams(r=256, b=32, s=16, l=4, c=8, d=2, m=2, rounds=80)
    first = simulate_strategy("s2", p, trials=20_000, seed=11)
    second = simulate_strategy("s2", p, trials=20_000, seed=11)
    assert first == second


# sha256 of repr((addresses, reports, guard pages)) of run_reference_trace,
# pinned from the one-step-per-output generator and the slot-by-slot patrol:
# a faster heap must still produce these traces bit for bit.
REFERENCE_TRACE_SHA256 = {
    909: "344b03ae8c032857823b06ec24cad4789ab4600b625e59965a2a5876a4f73577",
    910: "b377f8a321d382a33cd6012e41e9cbb4d6e76a45812cefbcc77ba793b4602414",
}


@pytest.mark.parametrize("seed", sorted(REFERENCE_TRACE_SHA256))
def test_reference_trace_digest_is_pinned(seed):
    addresses, reports, pages = run_reference_trace(seed)
    record = (addresses, [(kind.value, slot, detail) for kind, slot, detail in reports], pages)
    assert hashlib.sha256(repr(record).encode()).hexdigest() == REFERENCE_TRACE_SHA256[seed]


@pytest.mark.parametrize("size", [16, 128, 1024])
def test_criterion10_benchmark_reports_separate_malloc_free_timings(size, capsys):
    """bench at 1000 MiB total per size completes without detections and
    reports malloc and free per-op times separately (no absolute-time bar)."""
    code = cli.main(["bench", "--size", str(size),
                     "--total-bytes", str(1000 << 20), "--reps", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert f"size={size}" in out
    ops = (1000 << 20) // size
    assert f"ops={ops}" in out
    malloc_lines = [l for l in out.splitlines() if "malloc" in l and "ns/op" in l]
    free_lines = [l for l in out.splitlines() if "free" in l and "ns/op" in l]
    assert malloc_lines and free_lines

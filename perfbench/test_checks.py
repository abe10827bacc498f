"""Each output check of the benchmark rejects a deliberately wrong input.

Run with ``python3 -m pytest perfbench``.
"""

import sys
from pathlib import Path

import pytest

from checks import (
    CheckFailed,
    abstract_attack_bound,
    check_address,
    check_attack_bound,
    check_bytes,
    check_clamp_report,
    check_no_overlap,
    check_rates,
    check_usable,
    check_within_3sigma,
    live_attack_bound,
    sigma,
)
from tracer import Tracer

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from s2alloc.config import config_from_env  # noqa: E402
from s2alloc.core import ThreadHeap  # noqa: E402
from s2alloc.model import ModelParams, s1_rates  # noqa: E402


def test_overlapping_interval_pair_is_rejected():
    check_no_overlap([(0x2000, 0x2010), (0x1000, 0x1020), (0x1020, 0x1030)])
    with pytest.raises(CheckFailed, match="overlap"):
        check_no_overlap([(0x2000, 0x2010), (0x1000, 0x1021), (0x1020, 0x1030)])


def test_one_flipped_object_byte_is_rejected():
    data = bytes(range(200))
    check_bytes(data, bytes(range(200)), "object")
    flipped = bytearray(data)
    flipped[137] ^= 0x01
    with pytest.raises(CheckFailed, match="byte 137"):
        check_bytes(bytes(flipped), data, "object")


def test_bad_address_and_usable_size_are_rejected():
    check_address(0x1000_0010)
    for address in (0, 0x1000_0018):
        with pytest.raises(CheckFailed):
            check_address(address)
    check_usable(24, 24)
    check_usable(1, 0)
    check_usable(16384, 12289, page_size=4096)
    with pytest.raises(CheckFailed):
        check_usable(32, 24)
    with pytest.raises(CheckFailed):
        check_usable(12289, 12289, page_size=4096)


def test_rate_outside_unit_interval_is_rejected():
    check_rates(0.25, 0.5, 0.25, "point")
    with pytest.raises(CheckFailed, match="detect"):
        check_rates(0.25, 1.0000001, -0.0000001, "point")


def test_attack_rate_above_the_entropy_bound_is_rejected():
    trials = 100_000
    bound = abstract_attack_bound(rounds=34, m=1, r=2048, placements=1)
    check_attack_bound(bound, bound, trials, "at the bound")
    above = bound + 3.5 * sigma(bound, trials)
    with pytest.raises(CheckFailed, match="exceeds"):
        check_attack_bound(above, bound, trials, "s2 b=16")

    live = live_attack_bound(rounds=30, m=4, placements=65)
    assert live == 30 * 4 / (256 * 65)
    with pytest.raises(CheckFailed, match="exceeds"):
        check_attack_bound(live + 4 * sigma(live, 800), live, 800, "live s1-spray")


def test_s1_rate_four_sigma_off_its_series_is_rejected():
    trials = 100_000
    series = s1_rates(ModelParams(r=2048, b=16, s=16, l=4, c=8, d=2, m=1, rounds=4000))
    for predicted in (series.final_attack, series.final_detect):
        step = sigma(predicted, trials)
        check_within_3sigma(predicted + 2.9 * step, predicted, trials, "s1")
        check_within_3sigma(predicted - 2.9 * step, predicted, trials, "s1")
        for off in (4 * step, -4 * step):
            with pytest.raises(CheckFailed, match="3 sigma"):
                check_within_3sigma(predicted + off, predicted, trials, "s1")


@pytest.mark.parametrize("kind", ["FBC_TAMPER", "DOUBLE_FREE", "INVALID_FREE"])
def test_report_of_another_kind_is_rejected(kind):
    with pytest.raises(CheckFailed, match=kind):
        check_clamp_report(kind, request=16, placement=16, class_size=32, canary_len=1)


def test_canary_report_with_room_for_the_canary_is_rejected():
    check_clamp_report("HEAP_CANARY_TAMPER", request=16, placement=16, class_size=32,
                       canary_len=1)
    with pytest.raises(CheckFailed, match="within its 16 bytes"):
        check_clamp_report("HEAP_CANARY_TAMPER", request=16, placement=0, class_size=32,
                           canary_len=1)


def test_clamp_check_accepts_exactly_the_reports_a_full_write_causes():
    """malloc(16), write 16 bytes, free: the heap reports a slot exactly when
    the check calls the report the clamp fault, unless the object's last byte
    happens to equal the misplaced canary."""
    heap = ThreadHeap(config_from_env(env={}, seed=5, abort_on_tamper=False))
    clamped = reported = 0
    for i in range(400):
        address = heap.malloc(16)
        _, sb, slot = heap.resolve(address)
        placement = address - (sb.base + slot * sb.bag.b)
        heap.backing.write(address, bytes([i % 251 + 1]) * 16)
        n = len(heap.reports)
        heap.free(address)
        clamped += placement + 16 + 1 > sb.bag.b
        if len(heap.reports) > n:
            reported += 1
            check_clamp_report(heap.reports[-1].kind.value, 16, placement, sb.bag.b, 1)
    assert 0 < reported <= clamped
    assert clamped - reported <= 5


def test_self_time_excludes_child_spans():
    class Owner:
        @staticmethod
        def leaf():
            return sum(range(2000))

        @staticmethod
        def outer():
            return Owner.leaf() + Owner.leaf()

    tracer = Tracer()
    tracer._patches.replace(Owner, "leaf", lambda fn: tracer._wrap("leaf", fn))
    tracer._patches.replace(Owner, "outer", lambda fn: tracer._wrap("outer", fn))
    Owner.outer()
    tracer.uninstall()
    spans = tracer.summary()
    assert spans["leaf"]["calls"] == 2 and spans["outer"]["calls"] == 1
    assert list(tracer.parent) == [-1, 0, 0]
    assert spans["outer"]["self_ns"] == spans["outer"]["total_ns"] - spans["leaf"]["total_ns"]

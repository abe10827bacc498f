"""Allocator behavior: placement, canaries, detections, huge path, determinism."""

import io
import contextlib
import logging
import mmap
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from s2alloc.config import config_from_env
from s2alloc.core import (
    FREE_FRESH,
    FREE_MAC,
    GUARDED,
    TAKEN,
    DetectionKind,
    HeapCorruptionError,
    PagePool,
    ThreadHeap,
    heap_canary_offset,
)
from s2alloc.os_mem import SimulatedBacking


def make_heap(**overrides):
    overrides.setdefault("seed", 424242)
    overrides.setdefault("guard_page_rate", 0.0)
    return ThreadHeap(config_from_env(env={}, **overrides))


REPORT_LINE = re.compile(
    r"^s2alloc: (FBC_TAMPER|HEAP_CANARY_TAMPER|DOUBLE_FREE|INVALID_FREE) "
    r"slot=0x[0-9a-f]+ class=\d+ detail=.+$"
)


class _LogLines(logging.Handler):
    """Collects the messages logged to the "s2alloc" logger while installed."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.lines = []

    def emit(self, record):
        self.lines.append(record.getMessage())


def expect_detection(heap, kind):
    """Context manager asserting a detection of `kind` with a well-formed log line."""

    class _Ctx:
        def __enter__(self):
            self._lines = _LogLines()
            logging.getLogger("s2alloc").addHandler(self._lines)
            return self

        def __exit__(self, exc_type, exc, tb):
            logging.getLogger("s2alloc").removeHandler(self._lines)
            assert exc_type is HeapCorruptionError, f"expected detection, got {exc_type}"
            assert exc.report.kind == kind
            line = self._lines.lines[-1]
            assert line == exc.report.line()
            assert REPORT_LINE.match(line), line
            assert kind.value in line
            self.report = exc.report
            return True

    return _Ctx()


# -- basic allocation ----------------------------------------------------------


def test_small_request_lands_in_matching_class_aligned():
    heap = make_heap()
    address = heap.malloc(24)
    kind, sb, slot = heap.resolve(address)
    assert kind == "slot"
    assert sb.bag.b == 32
    assert address % 16 == 0
    assert heap.usable_size(address) == 24


def test_zero_byte_request_gets_unique_address():
    heap = make_heap()
    a, b = heap.malloc(0), heap.malloc(0)
    assert a and b and a != b
    assert heap.usable_size(a) == 1


def test_negative_request_rejected():
    heap = make_heap()
    with pytest.raises(ValueError):
        heap.malloc(-1)


def test_addresses_are_16_aligned_across_sizes():
    heap = make_heap()
    for size in list(range(1, 200, 7)) + [1000, 4000, 8000, 20000, 49152]:
        assert heap.malloc(size) % 16 == 0, size


def test_placement_randomization_covers_all_offsets():
    heap = make_heap(entropy_bits=4)
    # size 16 in class 32: two possible placements, 0 and 16
    seen = {0: 0, 16: 0}
    for _ in range(600):
        address = heap.malloc(16)
        _, sb, slot = heap.resolve(address)
        seen[address - (sb.base + slot * 32)] += 1
        heap.free(address)
    assert seen[0] > 200 and seen[16] > 200, seen


def test_slots_are_reused_after_free():
    heap = make_heap(entropy_bits=4)  # keep the candidate floor below 128
    first = [heap.malloc(100) for _ in range(128)]
    subbags = {id(heap.resolve(a)[1]) for a in first}
    assert len(subbags) == 1
    for a in first:
        heap.free(a)
    second = [heap.malloc(100) for _ in range(128)]
    assert {id(heap.resolve(a)[1]) for a in second} == subbags  # no new sub-bag


def test_distinct_live_allocations_never_share_a_slot():
    heap = make_heap()
    seen = set()
    for _ in range(1000):
        address = heap.malloc(40)
        _, sb, slot = heap.resolve(address)
        key = (id(sb), slot)
        assert key not in seen
        seen.add(key)


# -- free-path detections --------------------------------------------------------


def test_free_zeroes_small_slot():
    heap = make_heap()
    address = heap.malloc(24)
    heap.backing.write(address, b"\xAA" * 24)
    _, sb, slot = heap.resolve(address)
    heap.free(address)
    assert heap.backing.raw_read(sb.base + slot * 32, 32) == bytes(32)
    assert heap.slot_state(sb, slot) == FREE_FRESH


def test_double_free_detected():
    heap = make_heap()
    address = heap.malloc(24)
    heap.free(address)
    with expect_detection(heap, DetectionKind.DOUBLE_FREE):
        heap.free(address)


def test_offset_free_detected():
    heap = make_heap()
    address = heap.malloc(24)
    with expect_detection(heap, DetectionKind.INVALID_FREE):
        heap.free(address + 16)


def test_unowned_address_free_detected():
    heap = make_heap()
    heap.malloc(24)
    with expect_detection(heap, DetectionKind.INVALID_FREE):
        heap.free(0x1234)


def test_overflow_past_request_detected_at_free():
    heap = make_heap()
    address = heap.malloc(24)  # class 32: placement 0 only, canary at byte 24
    heap.backing.write(address, b"B" * 25)
    with expect_detection(heap, DetectionKind.HEAP_CANARY_TAMPER):
        heap.free(address)


def test_write_within_request_is_clean():
    heap = make_heap()
    address = heap.malloc(24)
    heap.backing.write(address, b"B" * 24)
    heap.free(address)  # no detection
    assert heap.reports == []


class _ForcedPlacement:
    """A heap's random stream with the placement draw fixed to index k.

    The placement draw is the one whose bound is the class's placement count;
    the heaps below keep the free-slot bound (at least r) above every
    placement count, and draw no guard page.
    """

    def __init__(self, rng):
        self.rng = rng
        self.placements = self.k = None

    def uniform_below(self, n):
        if n == self.placements:
            return self.k
        return self.rng.uniform_below(n)

    def __getattr__(self, name):
        return getattr(self.rng, name)


# Every small class, and two page-sized ones.
CANARY_CLASSES = [b for b in config_from_env(env={}).size_classes if b < 4096] + [4096, 8192]


def _canary_cases(heap):
    """Yield (class, req, p, object address, canary slot offset) with the
    object allocated, for every class in CANARY_CLASSES, every request that
    lands in it and every placement."""
    cfg = heap.cfg
    forced = heap.rng = _ForcedPlacement(heap.rng)
    for b in CANARY_CLASSES:
        below = max((c for c in cfg.size_classes if c < b), default=0)
        for req in range(cfg.usable(below) + 1 if below else 1, cfg.usable(b) + 1):
            forced.placements = 1 + (b - req) // 16
            for k in range(forced.placements):
                forced.k = k
                address = heap.malloc(req)
                yield b, req, 16 * k, address, heap_canary_offset(16 * k, req, b, 1)


def test_full_write_never_trips_the_heap_canary():
    """Writing exactly the requested bytes and freeing gives no report,
    wherever the canary had to go."""
    heap = make_heap(abort_on_tamper=False)
    before = 0
    write, free, resolve = heap.backing.write, heap.free, heap.resolve
    for b, req, p, address, cpos in _canary_cases(heap):
        _, sb, slot = resolve(address)
        assert sb.bag.b == b and address == sb.base + slot * b + p
        before += cpos < p
        write(address, b"\xA5" * req)
        free(address)
    assert heap.reports == []
    assert before > 0  # the canary went before the object in some cases


def test_tampered_heap_canary_is_reported_at_its_offset():
    heap = make_heap(abort_on_tamper=False)
    backing = heap.backing
    with contextlib.redirect_stderr(io.StringIO()):
        for b, req, p, address, cpos in _canary_cases(heap):
            backing.write(address, b"\xA5" * req)
            canary = backing.raw_read(address - p + cpos, 1)
            backing.raw_write(address - p + cpos, bytes([canary[0] ^ 0x5A]))
            heap.free(address)
            report = heap.reports.pop()
            assert report.kind is DetectionKind.HEAP_CANARY_TAMPER
            assert report.detail == f"heap canary at slot offset {cpos} modified before free"
            assert report.expected == canary
            assert heap.reports == []


def test_realloc_in_place_moves_the_canary_by_the_same_rule():
    heap = make_heap(abort_on_tamper=False)
    heap.rng = forced = _ForcedPlacement(heap.rng)
    forced.placements, forced.k = 2, 1
    address = heap.malloc(16)  # class 32, placement 16: no room after, canary at 15
    assert heap.realloc(address, 13) == address  # room after again: canary at 29
    heap.backing.write(address, b"\x11" * 13)
    assert heap.realloc(address, 16) == address  # back before the object, at 15
    heap.backing.write(address, b"\x22" * 16)
    heap.free(address)
    assert heap.reports == []


def test_stale_write_into_free_slot_detected_on_allocation():
    heap = make_heap(entropy_bits=0, nearby_check=2)
    address = heap.malloc(16)
    _, sb, slot = heap.resolve(address)
    heap.free(address)
    heap.backing.raw_write(sb.base + slot * 32 + 5, b"\x41")
    check = heap.check_fbc(sb, slot)
    assert not check.intact and check.position == 5
    with expect_detection(heap, DetectionKind.FBC_TAMPER) as ctx:
        for _ in range(600):  # with one candidate slot the window hits quickly
            heap.malloc(16)
    assert ctx.report.class_size == 32


def test_detection_report_fields():
    heap = make_heap()
    address = heap.malloc(24)
    heap.free(address)
    with expect_detection(heap, DetectionKind.DOUBLE_FREE) as ctx:
        heap.free(address)
    _, sb, slot = heap.resolve(address)
    assert ctx.report.slot_address == sb.base + slot * 32
    assert ctx.report.class_size == 32
    assert "already free" in ctx.report.detail


def test_non_abort_mode_reports_and_returns(caplog):
    seen = []
    heap = ThreadHeap(
        config_from_env(env={}, seed=1, guard_page_rate=0.0, abort_on_tamper=False),
        on_detection=seen.append,
    )
    address = heap.malloc(24)
    with caplog.at_level(logging.WARNING, logger="s2alloc"):
        report = heap.free(address + 16)
    assert report is not None and report.kind == DetectionKind.INVALID_FREE
    assert seen == [report] and heap.reports == [report]
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("s2alloc", logging.WARNING, report.line())]
    assert REPORT_LINE.match(report.line())
    assert heap.free(address) is None  # the true pointer still frees cleanly


def test_detection_goes_to_stderr_when_logging_is_not_configured():
    """With no handler anywhere, logging's last-resort handler prints each
    report's line to stderr, as a bare print did; abort mode still raises."""
    script = (
        "from s2alloc.config import config_from_env\n"
        "from s2alloc.core import HeapCorruptionError, ThreadHeap\n"
        "heap = ThreadHeap(config_from_env(env={}, seed=1, guard_page_rate=0.0))\n"
        "address = heap.malloc(24)\n"
        "heap.free(address)\n"
        "try:\n"
        "    heap.free(address)\n"
        "except HeapCorruptionError as exc:\n"
        "    print(exc.report.line())\n"
    )
    src = str(Path(sys.modules["s2alloc"].__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    line = done.stdout.strip()
    assert REPORT_LINE.match(line) and "DOUBLE_FREE" in line
    assert done.stderr == line + "\n"


def test_non_abort_malloc_returns_null_on_tamper():
    heap = ThreadHeap(config_from_env(
        env={}, seed=2, guard_page_rate=0.0, abort_on_tamper=False, entropy_bits=0))
    address = heap.malloc(16)
    _, sb, slot = heap.resolve(address)
    heap.free(address)
    heap.backing.raw_write(sb.base + slot * 32, b"\x99")
    with contextlib.redirect_stderr(io.StringIO()):
        results = [heap.malloc(16) for _ in range(600)]
    assert 0 in results  # the tampered candidate was reported and refused
    assert any(r.kind == DetectionKind.FBC_TAMPER for r in heap.reports)


# -- the allocation-time patrol ----------------------------------------------------


def reference_patrol(heap, bag, gid):
    """The patrol's verdict worked out slot by slot: the first free slot in the
    window whose free-block canary differs, as (slot address, expected, found,
    offset), or None."""
    d = heap.cfg.nearby_check
    c = heap.cfg.fbc_len
    slot = gid & 255
    sb = bag.subbags[gid >> 8]
    b = bag.b
    for k in range(max(0, slot - d), min(255, slot + d) + 1):
        state = bag.taken[gid - slot + k]
        if state in (TAKEN, GUARDED):
            continue
        start = sb.off + k * b
        if bag.small:
            found = bytes(sb.buf[start:start + b])
            if found != bytes(b):
                pos = next(i for i, byte in enumerate(found) if byte)
                return sb.base + k * b, b"\x00", found[pos:pos + 1], pos
            continue
        if state == FREE_MAC:
            f = bag.offset[gid - slot + k]
            expected = sb.fbc[k * c:(k + 1) * c]
        else:
            f, expected = 0, bytes(c)
        found = bytes(sb.buf[start + f:start + f + c])
        if found != expected:
            return sb.base + k * b, expected, found, f
    return None


def patrol_verdict(heap, bag, gid):
    """Run the heap's patrol on one chosen slot; return what it reported."""
    n_reports = len(heap.reports)
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            returned = heap._check_window(bag, gid)
        except HeapCorruptionError as exc:
            assert heap.cfg.abort_on_tamper
            report = exc.report
        else:
            assert returned is None or not heap.cfg.abort_on_tamper
            report = returned
    assert len(heap.reports) == n_reports + (report is not None)
    if report is None:
        return None
    assert report.kind == DetectionKind.FBC_TAMPER and report.class_size == bag.b
    offset = int(report.detail.rsplit(" ", 1)[1])
    assert report.detail == f"free-slot canary mismatch at slot offset {offset}"
    return report.slot_address, report.expected, report.found, offset


def tamper_spots(heap, bag, gid):
    """Byte addresses to tamper in one slot: inside its free-block canary, and
    for page-sized free slots one byte just outside it."""
    sb = bag.subbags[gid >> 8]
    base = sb.base + (gid & 255) * bag.b
    state = bag.taken[gid]
    if bag.small:
        return [base + (gid * 7) % bag.b]
    if state in (TAKEN, GUARDED):
        return [base]
    c = heap.cfg.fbc_len
    f = bag.offset[gid] if state == FREE_MAC else 0
    outside = f + c if f + c < bag.b else f - 1
    return [base + f + gid % c, base + outside]


@pytest.mark.parametrize("request_size", [24, 3000], ids=["class32", "class4096"])
def test_patrol_reports_match_slot_by_slot_reference(request_size):
    heaps = []
    for abort in (True, False):
        heap = make_heap(seed=516, guard_page_rate=1.0, abort_on_tamper=abort)
        live = [heap.malloc(request_size) for _ in range(700)]
        for address in live[1::2]:
            heap.free(address)
        heaps.append((heap, heap.resolve(live[0])[1].bag))
    d = heaps[0][0].cfg.nearby_check
    bag0 = heaps[0][1]
    assert bag0.taken == heaps[1][1].taken
    assert bag0.small == (request_size == 24)

    chosen_slots = set()
    windows = set()
    reports = 0
    for gid in range(len(bag0.taken)):
        if bag0.taken[gid] & 1:
            continue  # the patrol only ever starts from a free slot
        slot = gid & 255
        lo, hi = max(0, slot - d), min(255, slot + d)
        states = set(bag0.taken[gid - slot + lo:gid - slot + hi + 1])
        chosen_slots.add(slot)
        windows.add("taken" if TAKEN in states else "all free")
        if GUARDED in states:
            windows.add("guarded")
        for heap, bag in heaps:
            assert patrol_verdict(heap, bag, gid) is None  # intact window
        for k in range(gid - slot + lo, gid - slot + hi + 1):
            for spot in tamper_spots(heaps[0][0], bag0, k):
                for heap, bag in heaps:
                    original = heap.backing.raw_read(spot, 1)
                    heap.backing.raw_write(spot, bytes([original[0] ^ 0xA5]))
                    expected = reference_patrol(heap, bag, gid)
                    assert patrol_verdict(heap, bag, gid) == expected, (gid, k, spot)
                    heap.backing.raw_write(spot, original)
                    reports += expected is not None
    assert {0, 1, 254, 255} <= chosen_slots
    assert windows == {"all free", "taken", "guarded"}
    assert reports > 0
    if not bag0.small:
        assert {FREE_FRESH, FREE_MAC} <= set(bag0.taken)


# -- decommit of freed page-sized slots ---------------------------------------------


def granules_of_slot(heap, sb, slot):
    """(every whole decommit granule of a slot, the ones its free canary touches),
    as buffer offsets of their starts."""
    g = max(heap.cfg.page_size, mmap.PAGESIZE)
    b = sb.bag.b
    start = sb.off + slot * b
    whole = set(range(-(-start // g) * g, start + b - g + 1, g))
    f = sb.bag.offset[(sb.index << 8) + slot]
    c = heap.cfg.fbc_len
    touched = set(range((start + f) // g * g, start + f + c, g))
    return whole, whole & touched


@pytest.mark.parametrize("page_size", [4096, 1024])
@pytest.mark.parametrize("request_size", [3000, 3400, 6000, 18000],
                         ids=["class4096", "class4608", "class8192", "class24576"])
def test_free_decommits_every_whole_granule_but_the_canarys(page_size, request_size):
    heap = make_heap(page_size=page_size, seed=9)
    live = [heap.malloc(request_size) for _ in range(40)]
    before = {}
    for address in live:
        heap.backing.write(address, b"\xee" * request_size)
        _, sb, slot = heap.resolve(address)
        before[address] = bytes(sb.buf[sb.off + slot * sb.bag.b:sb.off + (slot + 1) * sb.bag.b])
        heap.free(address)
    bag = heap.resolve(live[0])[1].bag
    g = max(page_size, mmap.PAGESIZE)
    assert bag.decommits == (bag.b > g)
    decommitted = 0
    for address in live:
        _, sb, slot = heap.resolve(address)
        gid = (sb.index << 8) + slot
        assert bag.taken[gid] == FREE_MAC
        whole, kept = granules_of_slot(heap, sb, slot)
        for off in whole - kept:
            assert sb.buf[off:off + g] == bytes(g)
            decommitted += 1
        # The canary's granules keep their bytes, but for the canary itself.
        start, f, c = sb.off + slot * bag.b, bag.offset[gid], heap.cfg.fbc_len
        stale = bytearray(before[address])
        stale[f:f + c] = sb.fbc[slot * c:(slot + 1) * c]
        for off in kept:
            assert sb.buf[off:off + g] == stale[off - start:off - start + g]

        # The patrol still checks the canary alone: a write to a returned
        # granule goes unseen, as any write outside the canary always did,
        # and a flipped canary byte is still reported.
        if whole - kept:
            spot = sb.base + min(whole - kept) - sb.off
            heap.backing.raw_write(spot, b"\x41")
            assert heap.check_fbc(sb, slot).intact
            assert patrol_verdict(heap, bag, gid) is None
        spot = sb.base + slot * bag.b + bag.offset[gid]
        original = heap.backing.raw_read(spot, 1)
        heap.backing.raw_write(spot, bytes([original[0] ^ 0x5A]))
        expected = reference_patrol(heap, bag, gid)
        assert expected is not None and expected[0] == sb.base + slot * bag.b
        assert patrol_verdict(heap, bag, gid) == expected
        heap.backing.raw_write(spot, original)
    assert (decommitted > 0) == bag.decommits


# -- huge allocations ------------------------------------------------------------


def test_huge_allocation_roundtrip():
    heap = make_heap()
    address = heap.malloc(100_000)
    assert address % heap.cfg.page_size == 0
    assert heap.resolve(address)[0] == "huge"
    assert heap.resolve(address + 99_999)[0] == "huge"
    assert heap.usable_size(address) == 102_400  # page-rounded reservation
    assert heap.live_huge_count() == 1
    heap.free(address)
    assert heap.live_huge_count() == 0
    assert heap.resolve(address) == ("unknown",)


def test_huge_boundary_is_largest_class_usable():
    heap = make_heap()
    a = heap.malloc(49152)
    assert heap.resolve(a)[0] == "slot"
    b = heap.malloc(49153)
    assert heap.resolve(b)[0] == "huge"


def test_huge_interior_free_detected():
    heap = make_heap()
    address = heap.malloc(70_000)
    with expect_detection(heap, DetectionKind.INVALID_FREE) as ctx:
        heap.free(address + 5)
    assert "interior" in ctx.report.detail
    heap.free(address)  # base still frees cleanly


def test_huge_memory_is_zeroed_and_writable():
    heap = make_heap()
    address = heap.malloc(60_000)
    assert heap.backing.read(address, 60_000) == bytes(60_000)
    heap.backing.write(address + 59_990, b"tail bytes")
    heap.free(address)


# -- calloc / realloc -------------------------------------------------------------


def test_calloc_zeroes_every_class():
    heap = make_heap()
    for count, size in [(3, 5), (1, 24), (2, 100), (1, 2000), (1, 5000), (2, 30000)]:
        address = heap.calloc(count, size)
        assert address != 0
        assert heap.backing.read(address, count * size) == bytes(count * size)


def test_calloc_reused_slots_come_back_zero():
    heap = make_heap(entropy_bits=0)
    for _ in range(50):
        address = heap.malloc(4000)  # class 4096 keeps old bytes after free
        heap.backing.write(address, b"\xEE" * 4000)
        heap.free(address)
        address = heap.calloc(1, 4000)
        assert heap.backing.read(address, 4000) == bytes(4000)
        heap.free(address)


def test_calloc_keeps_canary_out_of_user_range():
    # At placement 16 a 32-byte object ends at the slot's end, so its canary
    # goes before it; filling every user byte must leave the canary intact.
    heap = make_heap()
    for _ in range(300):
        address = heap.calloc(1, 32)  # class 48, placements 0/16
        assert heap.backing.read(address, 32) == bytes(32)
        heap.backing.write(address, b"\x55" * 32)  # fill every user byte
        heap.free(address)  # canary must be intact
    assert heap.reports == []


def test_calloc_overflow_fails():
    heap = make_heap()
    assert heap.calloc(1 << 40, 1 << 30) == 0
    assert heap.calloc(1 << 32, 1 << 32) == 0


def test_calloc_zero_count():
    heap = make_heap()
    address = heap.calloc(0, 16)
    assert address != 0  # minimal allocation, like malloc(0)
    heap.free(address)


def test_realloc_grow_within_class_keeps_address():
    heap = make_heap()
    address = heap.malloc(17)  # class 32, placement always 0 (17 > 16)
    heap.backing.write(address, b"q" * 17)
    grown = heap.realloc(address, 24)
    assert grown == address
    assert heap.usable_size(grown) == 24
    assert heap.backing.read(grown, 17) == b"q" * 17
    heap.free(grown)


def test_realloc_across_classes_copies_data():
    heap = make_heap()
    address = heap.malloc(24)
    heap.backing.write(address, bytes(range(24)))
    moved = heap.realloc(address, 600)
    assert moved != address
    assert heap.backing.read(moved, 24) == bytes(range(24))
    assert heap.usable_size(moved) == 600
    # the old slot was freed: freeing the old pointer is a double free
    with expect_detection(heap, DetectionKind.DOUBLE_FREE):
        heap.free(address)


def test_realloc_shrink_copies_prefix():
    heap = make_heap()
    address = heap.malloc(600)
    heap.backing.write(address, bytes(range(256)) * 2)
    shrunk = heap.realloc(address, 20)
    assert heap.backing.read(shrunk, 20) == bytes(range(20))
    assert heap.usable_size(shrunk) == 20


def test_realloc_null_and_zero_semantics():
    heap = make_heap()
    address = heap.realloc(0, 40)
    assert address != 0 and heap.usable_size(address) == 40
    assert heap.realloc(address, 0) == 0
    with expect_detection(heap, DetectionKind.DOUBLE_FREE):
        heap.free(address)


def test_realloc_huge_to_slot_and_back():
    heap = make_heap()
    address = heap.malloc(60_000)
    heap.backing.write(address, b"h" * 100)
    small = heap.realloc(address, 100)
    assert heap.resolve(small)[0] == "slot"
    assert heap.backing.read(small, 100) == b"h" * 100
    big = heap.realloc(small, 80_000)
    assert heap.resolve(big)[0] == "huge"
    assert heap.backing.read(big, 100) == b"h" * 100


def test_usable_size_rejects_bogus_addresses():
    heap = make_heap()
    address = heap.malloc(24)
    with pytest.raises(ValueError):
        heap.usable_size(address + 4)
    with pytest.raises(ValueError):
        heap.usable_size(0x40)
    heap.free(address)
    with pytest.raises(ValueError):
        heap.usable_size(address)


# -- guard pages -------------------------------------------------------------------


def test_guard_page_blocks_overlapping_slots():
    heap = ThreadHeap(config_from_env(env={}, seed=8, guard_page_rate=1.0,
                                      entropy_bits=4))
    address = heap.malloc(1000)  # class 1536: sub-bag spans 96 pages
    _, sb, _ = heap.resolve(address)
    assert len(sb.guard_pages) == 1
    guard = sb.guard_pages[0]
    assert heap.backing.is_protected(guard)
    b = sb.bag.b
    lo = (guard - sb.base) // b
    hi = -(-(guard + heap.cfg.page_size - sb.base) // b) - 1
    for slot in range(lo, min(hi, 255) + 1):
        assert heap.slot_state(sb, slot) == GUARDED


def test_no_allocation_ever_touches_a_guarded_page():
    heap = ThreadHeap(config_from_env(env={}, seed=4, guard_page_rate=0.5,
                                      entropy_bits=4))
    protected = set()
    for _ in range(2000):
        address = heap.malloc(100)
        protected = heap.backing.protected_pages
        for page in protected:
            assert not (address < page + 4096 and page < address + 100), \
                f"allocation {address:#x} overlaps guard page {page:#x}"
    assert protected  # rate 0.5 must have produced guards by now


def test_zero_guard_rate_never_protects():
    heap = make_heap()
    for _ in range(500):
        heap.malloc(50)
    assert heap.backing.protected_pages == frozenset()


# -- determinism and threading ------------------------------------------------------


def trace_ops(seed, n=400):
    heap = ThreadHeap(config_from_env(env={}, seed=seed, guard_page_rate=0.25))
    addresses = []
    live = []
    for i in range(n):
        a = heap.malloc((i * 13) % 800 + 1)
        addresses.append(a)
        live.append(a)
        if i % 3 == 2:
            heap.free(live.pop(0))
    return addresses, sorted(heap.backing.protected_pages)


def test_seeded_heaps_replay_identically():
    assert trace_ops(77) == trace_ops(77)


def test_different_seeds_diverge():
    assert trace_ops(77) != trace_ops(78)


def test_unseeded_heaps_differ():
    a = ThreadHeap(config_from_env(env={}, guard_page_rate=0.0))
    b = ThreadHeap(config_from_env(env={}, guard_page_rate=0.0))
    aa = [a.malloc(16) for _ in range(32)]
    bb = [b.malloc(16) for _ in range(32)]
    assert aa != bb  # placement entropy comes from OS randomness


def test_explicit_stream_ids_give_distinct_streams():
    cfg = config_from_env(env={}, seed=5, guard_page_rate=0.0)
    backing = SimulatedBacking(page_size=cfg.page_size)
    pool = PagePool(backing)
    h1 = ThreadHeap(cfg, backing=backing, pool=pool, stream_id=0)
    h2 = ThreadHeap(cfg, backing=backing, pool=pool, stream_id=1)
    a = [h1.malloc(16) for _ in range(64)]
    b = [h2.malloc(16) for _ in range(64)]
    assert set(a).isdisjoint(b)  # separate sub-bags from the shared pool


def test_cross_thread_free_is_safe():
    heap = make_heap()
    addresses = [heap.malloc(48) for _ in range(200)]

    def other_thread():
        for address in addresses[::2]:
            heap.free(address)

    worker = threading.Thread(target=other_thread)
    worker.start()
    worker.join()
    for address in addresses[1::2]:
        heap.free(address)
    assert heap.reports == []


def test_concurrent_malloc_free_with_shared_pool():
    cfg = config_from_env(env={}, guard_page_rate=0.1)
    backing = SimulatedBacking(page_size=cfg.page_size)
    pool = PagePool(backing)
    heaps = [ThreadHeap(cfg, backing=backing, pool=pool, stream_id=i) for i in range(4)]
    errors = []

    def worker(heap):
        try:
            live = []
            for i in range(500):
                live.append(heap.malloc((i % 300) + 1))
                if len(live) > 32:
                    heap.free(live.pop(0))
            for address in live:
                heap.free(address)
        except Exception as exc:  # propagate to the main thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(h,)) for h in heaps]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert all(h.reports == [] for h in heaps)


# -- mixed workload sanity -----------------------------------------------------------


def test_no_false_reports_under_mixed_workload():
    heap = make_heap(guard_page_rate=0.2)
    live = {}
    rng_state = 0x12345
    for i in range(20_000):
        rng_state = (rng_state * 6364136223846793005 + 1442695040888963407) % 2**64
        roll = rng_state >> 40
        if live and roll % 3 == 0:
            key = next(iter(live))
            heap.free(live.pop(key))
        else:
            size = (roll % 6000) + 1
            address = heap.malloc(size)
            assert address != 0
            live[i] = address
    for address in live.values():
        heap.free(address)
    assert heap.reports == []

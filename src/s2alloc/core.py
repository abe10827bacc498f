"""The slot allocator: bags, sub-bags, randomized placement, canaries, guard pages.

Memory is organized big-bag-of-pages style: each size class owns a bag, bags
grow in 256-slot sub-bags carved from a shared bump-pointer pool, and every
slot holds at most one live object. Security mechanisms:

  - placement randomization: an object starts at a random 16-aligned offset
    inside its slot, so a stale reference cannot predict field addresses;
  - heap canary: keyed MAC bytes just past the object's data, or just before
    it when the object ends at the slot's end, checked at free (catches
    contiguous overflow);
  - free-block canaries: freed small slots are fully zeroed (any nonzero byte
    witnesses an illegal write); freed page-or-larger slots carry keyed MAC
    bytes at a random recorded position, and only those bytes are checked.
    Free hands every whole page of such a slot back to the OS (in units of
    max(page_size, mmap.PAGESIZE)) except the page or pages the canary
    touches, so a freed large object's stale bytes read as zero outside the
    kept pages;
  - allocation-time patrol: every allocation verifies the free-block canaries
    of the chosen slot and its neighbors within the sub-bag;
  - guard pages: a new sub-bag randomly protects one of its pages, and slots
    touching it are never handed out.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .canary import KeyedCanary, derive_mac_key
from .config import AllocatorConfig, SLOTS_PER_SUBBAG
from .os_mem import MemoryExhausted, SimulatedBacking
from .rng import PcgState, current_thread_id, heap_rng

# Per-slot states. GUARDED slots overlap a protected page and are permanently
# unavailable; FREE_FRESH slots have never been allocated (their canary is the
# demand-zero fill); FREE_MAC slots carry a keyed canary from their last free.
FREE_FRESH = 0
TAKEN = 1
FREE_MAC = 2
GUARDED = 3

_ENSURE_CAP = 10_000

# Zero buffers by length, made on first use and shared by every bag and heap
# (bytes are immutable): class-sized ones to clear and check free small slots,
# window-sized ones for the patrol's all-free screen.
_ZEROS: dict[int, bytes] = {}


def heap_canary_offset(p: int, req: int, b: int, iota: int) -> int:
    """Slot offset of the iota heap-canary bytes of a req-byte object at placement p.

    The canary goes right after the object. When that would run past the
    slot's end it goes right before the object instead: p >= 16 >= iota then,
    because AllocatorConfig keeps iota within every class's placement reserve.
    """
    end = p + req
    return end if end + iota <= b else p - iota


def zero_bytes(n: int) -> bytes:
    """The shared zero buffer of n bytes."""
    zeros = _ZEROS.get(n)
    if zeros is None:
        zeros = _ZEROS[n] = bytes(n)
    return zeros


class DetectionKind(Enum):
    FBC_TAMPER = "FBC_TAMPER"
    HEAP_CANARY_TAMPER = "HEAP_CANARY_TAMPER"
    DOUBLE_FREE = "DOUBLE_FREE"
    INVALID_FREE = "INVALID_FREE"


@dataclass(frozen=True)
class DetectionReport:
    kind: DetectionKind
    slot_address: int
    class_size: int
    expected: bytes = b""
    found: bytes = b""
    detail: str = ""

    def line(self) -> str:
        return (
            f"s2alloc: {self.kind.value} slot={self.slot_address:#x} "
            f"class={self.class_size} detail={self.detail}"
        )


class HeapCorruptionError(Exception):
    """Raised in place of process abort when tampering is detected."""

    def __init__(self, report: DetectionReport):
        super().__init__(report.line())
        self.report = report


@dataclass(frozen=True)
class FbcCheck:
    intact: bool
    expected: bytes = b""
    found: bytes = b""
    position: int = 0


class PagePool:
    """Single virtual pool for all sub-bags: chained reservations, bump cursor."""

    CHAIN_BYTES = 1 << 30

    def __init__(self, backing: SimulatedBacking):
        self.backing = backing
        self._chains: list[list] = []  # [base, buf, used, size]
        self._lock = threading.Lock()

    def carve(self, nbytes: int) -> tuple[int, "object", int]:
        """Return (address, region buffer, offset in buffer) for nbytes (page multiple)."""
        with self._lock:
            for chain in self._chains:
                if chain[2] + nbytes <= chain[3]:
                    off = chain[2]
                    chain[2] += nbytes
                    return chain[0] + off, chain[1], off
            size = max(self.CHAIN_BYTES, nbytes)
            base = self.backing.reserve(size)
            buf = self.backing.buffer_of(base)
            chain = [base, buf, nbytes, size]
            self._chains.append(chain)
            return base, buf, 0


class SubBag:
    """256 slots of one class, physically contiguous; unit of guard placement."""

    __slots__ = ("bag", "index", "base", "buf", "off", "guard_pages", "hc", "fbc")

    def __init__(self, bag: "Bag", index: int, base: int, buf, off: int):
        self.bag = bag
        self.index = index
        self.base = base
        self.buf = buf
        self.off = off
        self.guard_pages: tuple[int, ...] = ()
        self.hc = b""  # per-slot heap-canary bytes (heap_canary_len each)
        self.fbc = b""  # per-slot free-block canary bytes (fbc_len each; large classes only)


class Bag:
    """All sub-bags of one size class plus flat per-slot state arrays.

    Slot identity is gid = sub-bag index * 256 + slot; the free index is a
    swap-remove array supporting O(1) uniform random choice over free slots.
    """

    def __init__(self, heap: "ThreadHeap", class_size: int):
        self.heap = heap
        self.b = class_size
        self.usable = heap.cfg.usable(class_size)
        self.subbags: list[SubBag] = []
        self.taken = array("B")
        self.offset = array("H")  # placement p while taken, canary position f while free
        self.req = array("I")
        self.free_ids = array("i")
        self.free_pos = array("i")
        self.n_free = 0
        self.zeros = b""  # zero_bytes(class_size) once the class is in use
        self.small = class_size < heap.cfg.page_size
        # Only a slot larger than the decommit granule can hold a whole
        # granule apart from the one its canary touches.
        self.decommits = class_size > heap.backing.decommit_granule
        self.subbag_bytes = class_size * SLOTS_PER_SUBBAG
        self.npages = self.subbag_bytes // heap.cfg.page_size

    def add_subbag(self) -> SubBag:
        heap = self.heap
        cfg = heap.cfg
        base, buf, off = heap.pool.carve(self.subbag_bytes)
        sb = SubBag(self, len(self.subbags), base, buf, off)
        self.zeros = zero_bytes(self.b)
        self.subbags.append(sb)

        # Guard-page roll (one draw always, for reproducible traces).
        guarded = heap.rng.coin(cfg.guard_page_rate)
        guard_lo = guard_hi = -1
        if guarded:
            page_idx = heap.rng.uniform_below(self.npages)
            page_addr = base + page_idx * cfg.page_size
            heap.backing.protect(page_addr)
            sb.guard_pages = (page_addr,)
            guard_lo = (page_idx * cfg.page_size) // self.b
            guard_hi = -(-((page_idx + 1) * cfg.page_size) // self.b) - 1

        # Keyed canary tables for all 256 slot bases, one batched MAC call.
        tags = heap.canary.batch_tags(range(base, base + self.subbag_bytes, self.b))
        iota = cfg.heap_canary_len
        sb.hc = tags[0::16] if iota == 1 else b"".join(
            tags[i * 16:i * 16 + iota] for i in range(SLOTS_PER_SUBBAG)
        )
        if self.b >= cfg.page_size:
            c = cfg.fbc_len
            sb.fbc = b"".join(tags[i * 16:i * 16 + c] for i in range(SLOTS_PER_SUBBAG))

        gid0 = sb.index << 8
        page_shift = heap.page_shift
        for page in range(base >> page_shift, (base + self.subbag_bytes) >> page_shift):
            heap.page_map[page] = sb

        self.offset.extend(bytes(2 * SLOTS_PER_SUBBAG))
        self.req.extend(bytes(4 * SLOTS_PER_SUBBAG))
        if guard_lo < 0:
            self.taken.extend(bytes(SLOTS_PER_SUBBAG))
            self.free_pos.extend(range(self.n_free, self.n_free + SLOTS_PER_SUBBAG))
            self.free_ids.extend(range(gid0, gid0 + SLOTS_PER_SUBBAG))
            self.n_free += SLOTS_PER_SUBBAG
        else:
            states = bytearray(SLOTS_PER_SUBBAG)
            for slot in range(guard_lo, guard_hi + 1):
                states[slot] = GUARDED
            self.taken.extend(states)
            for slot in range(SLOTS_PER_SUBBAG):
                if states[slot]:
                    self.free_pos.append(-1)
                else:
                    self.free_pos.append(self.n_free)
                    self.free_ids.append(gid0 + slot)
                    self.n_free += 1
        return sb

    def ensure_free(self, minimum: int) -> None:
        attempts = 0
        while self.n_free < minimum:
            self.add_subbag()
            attempts += 1
            if attempts > _ENSURE_CAP:
                raise MemoryExhausted(
                    f"class {self.b}: cannot reach {minimum} free slots "
                    f"(guard rate too high for sub-bag geometry)"
                )

    def index_remove(self, gid: int) -> None:
        pos = self.free_pos[gid]
        last = self.free_ids[-1]
        self.free_ids[pos] = last
        self.free_pos[last] = pos
        self.free_ids.pop()
        self.free_pos[gid] = -1
        self.n_free -= 1

    def index_add(self, gid: int) -> None:
        self.free_pos[gid] = self.n_free
        self.free_ids.append(gid)
        self.n_free += 1


class ThreadHeap:
    """One thread's allocator front end over a shared pool and process key.

    All public entry points are serialized on the heap's internal lock, so
    frees arriving from other threads are safe as long as they call into the
    owning heap object. With a configured seed, the random stream id defaults
    to 0 (pass stream_id explicitly to give each heap its own reproducible
    stream); without a seed, streams are per-OS-thread and keyed from OS
    entropy.
    """

    def __init__(
        self,
        cfg: Optional[AllocatorConfig] = None,
        backing: Optional[SimulatedBacking] = None,
        pool: Optional[PagePool] = None,
        stream_id: Optional[int] = None,
        on_detection: Optional[Callable[[DetectionReport], None]] = None,
    ):
        self.cfg = cfg = cfg if cfg is not None else AllocatorConfig()
        self.backing = backing if backing is not None else SimulatedBacking(page_size=cfg.page_size)
        if self.backing.page_size != cfg.page_size:
            raise ValueError("backing page size does not match configuration")
        self.pool = pool if pool is not None else PagePool(self.backing)
        if stream_id is None:
            stream_id = 0 if cfg.seed is not None else current_thread_id()
        self.rng: PcgState = heap_rng(cfg.seed, stream_id)
        key = cfg.mac_key if cfg.mac_key is not None else derive_mac_key(cfg.seed)
        self.mac_key = key
        self.canary = KeyedCanary(key)
        self.page_shift = cfg.page_size.bit_length() - 1
        self.page_map: dict[int, SubBag] = {}
        self.bags: list[Bag] = [Bag(self, b) for b in cfg.size_classes]
        self._usables = [bag.usable for bag in self.bags]
        self._huge: dict[int, tuple[int, int]] = {}  # base -> (reserved length, requested)
        self._huge_bases: list[int] = []
        self.reports: list[DetectionReport] = []
        self.on_detection = on_detection
        self._lock = threading.RLock()
        # Hot-path copies of frozen config fields.
        self._r = cfg.r
        self._d = cfg.nearby_check
        self._iota = cfg.heap_canary_len
        self._c = cfg.fbc_len

    # -- detection ----------------------------------------------------------

    def _report(
        self,
        kind: DetectionKind,
        slot_address: int,
        class_size: int,
        expected: bytes = b"",
        found: bytes = b"",
        detail: str = "",
    ) -> DetectionReport:
        report = DetectionReport(kind, slot_address, class_size, expected, found, detail)
        self.reports.append(report)
        # Imported here, not at module level: detections are rare and the
        # import would add to every process's start-up. With no handler
        # configured, logging's last-resort handler writes the line to stderr.
        import logging
        logging.getLogger("s2alloc").warning("%s", report.line())
        if self.on_detection is not None:
            self.on_detection(report)
        if self.cfg.abort_on_tamper:
            raise HeapCorruptionError(report)
        return report

    # -- free-block canary checks -------------------------------------------

    def check_fbc(self, sb: SubBag, slot: int) -> FbcCheck:
        """Verify the free-block canary of one free slot (pure check, no report)."""
        state = sb.bag.taken[(sb.index << 8) + slot]
        # Checked as free whatever its state: FREE_MAC slots against their
        # keyed canary, every other slot as never allocated.
        hit = self._fbc_scan(sb, slot, (FREE_MAC if state == FREE_MAC else FREE_FRESH,))
        return FbcCheck(True) if hit is None else hit[1]

    def _fbc_scan(self, sb: SubBag, first: int, states) -> Optional[tuple[int, FbcCheck]]:
        """The free-block canary rule, over slots first, first + 1, ... of sb.

        ``states`` holds those slots' states; odd ones (TAKEN, GUARDED) are
        skipped. A free small slot must be all zero. A free page-or-larger
        slot must hold its keyed canary at the recorded position (FREE_MAC),
        or zeros at offset 0 if it was never allocated (FREE_FRESH). Returns
        the first slot that breaks the rule with what was expected and found
        there, or None.
        """
        bag = sb.bag
        b = bag.b
        buf = sb.buf
        start = sb.off + first * b
        if bag.small:
            zeros = bag.zeros
            for k, state in enumerate(states, first):
                if not state & 1:
                    found = buf[start:start + b]
                    if found != zeros:
                        pos = next(i for i, byte in enumerate(found) if byte)
                        return k, FbcCheck(False, b"\x00", bytes(found[pos:pos + 1]), pos)
                start += b
            return None
        c = self._c
        fbc = sb.fbc
        offsets = bag.offset
        base_gid = sb.index << 8
        for k, state in enumerate(states, first):
            if not state & 1:
                if state == FREE_MAC:
                    f = offsets[base_gid + k]
                    expected = fbc[k * c:(k + 1) * c]
                else:
                    f = 0
                    expected = zero_bytes(c)
                found = buf[start + f:start + f + c]
                if found != expected:
                    return k, FbcCheck(False, expected, bytes(found), f)
            start += b
        return None

    def _check_window(self, bag: Bag, gid: int) -> Optional[DetectionReport]:
        """Check the chosen slot's free-block canary plus d neighbors each side."""
        d = self._d
        slot = gid & 255
        lo = slot - d if slot >= d else 0
        hi = slot + d + 1
        if hi > SLOTS_PER_SUBBAG:
            hi = SLOTS_PER_SUBBAG
        base_gid = gid - slot
        states = bag.taken[base_gid + lo:base_gid + hi]
        sb = bag.subbags[gid >> 8]
        if bag.small:
            # Fast path for the common clean window: free small slots hold
            # only zeros, so one compare covers an all-free window and one per
            # free slot covers the rest. A mismatch goes on to the scan, which
            # finds the slot and what it holds for the report.
            b = bag.b
            buf = sb.buf
            start = sb.off + lo * b
            if states.count(FREE_FRESH) == hi - lo:
                n = (hi - lo) * b
                if buf[start:start + n] == zero_bytes(n):
                    return None
            else:
                zeros = bag.zeros
                for state in states:
                    if not state & 1 and buf[start:start + b] != zeros:
                        break
                    start += b
                else:
                    return None
        hit = self._fbc_scan(sb, lo, states)
        if hit is None:
            return None
        k, mismatch = hit
        return self._report(
            DetectionKind.FBC_TAMPER, sb.base + k * bag.b, bag.b,
            mismatch.expected, mismatch.found,
            f"free-slot canary mismatch at slot offset {mismatch.position}",
        )

    # -- allocation ----------------------------------------------------------

    def malloc(self, size: int) -> int:
        with self._lock:
            return self._malloc_locked(size)

    def _malloc_locked(self, size: int) -> int:
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        req = size if size > 0 else 1
        idx = bisect_left(self._usables, req)
        if idx == len(self._usables):
            return self._malloc_huge(req)
        bag = self.bags[idx]
        r = self._r
        if bag.n_free < r:
            try:
                bag.ensure_free(r)
            except MemoryExhausted:
                return 0

        rng = self.rng
        gid = bag.free_ids[rng.uniform_below(bag.n_free)]
        if self._check_window(bag, gid) is not None:
            return 0  # reported; abort mode raises inside _report

        bag.index_remove(gid)
        b = bag.b
        iota = self._iota
        p = rng.uniform_below(1 + ((b - req) >> 4)) << 4
        sb = bag.subbags[gid >> 8]
        slot = gid & 255
        start = sb.off + slot * b
        cpos = heap_canary_offset(p, req, b, iota)
        if iota == 1:
            sb.buf[start + cpos] = sb.hc[slot]
        else:
            sb.buf[start + cpos:start + cpos + iota] = sb.hc[slot * iota:(slot + 1) * iota]
        bag.taken[gid] = TAKEN
        bag.offset[gid] = p
        bag.req[gid] = req
        return sb.base + slot * b + p

    def _malloc_huge(self, req: int) -> int:
        try:
            base = self.backing.reserve(req)
        except MemoryExhausted:
            return 0
        page = self.cfg.page_size
        length = -(-req // page) * page
        self._huge[base] = (length, req)
        insort(self._huge_bases, base)
        return base

    # -- release --------------------------------------------------------------

    def free(self, address: int) -> Optional[DetectionReport]:
        with self._lock:
            return self._free_locked(address)

    def _free_locked(self, address: int) -> Optional[DetectionReport]:
        record = self._huge.get(address)
        if record is not None:
            self.backing.release(address)
            del self._huge[address]
            self._huge_bases.remove(address)
            return None

        sb = self.page_map.get(address >> self.page_shift)
        if sb is None:
            detail = "address not owned by any sub-bag or huge record"
            if self._huge_of(address) is not None:
                detail = "interior pointer into a huge allocation"
            return self._report(DetectionKind.INVALID_FREE, address, 0, detail=detail)

        bag = sb.bag
        b = bag.b
        rel = address - sb.base
        slot = rel // b
        p_found = rel - slot * b
        gid = (sb.index << 8) + slot
        state = bag.taken[gid]
        slot_address = sb.base + slot * b

        if state == GUARDED:
            return self._report(
                DetectionKind.INVALID_FREE, slot_address, b,
                detail="slot overlaps a guard page and was never allocatable",
            )
        if state != TAKEN:
            return self._report(
                DetectionKind.DOUBLE_FREE, slot_address, b,
                detail="slot is already free",
            )
        if p_found != bag.offset[gid]:
            return self._report(
                DetectionKind.INVALID_FREE, slot_address, b,
                expected=bytes([bag.offset[gid] & 0xFF]), found=bytes([p_found & 0xFF]),
                detail=f"freed pointer offset {p_found} does not match placement {bag.offset[gid]}",
            )

        iota = self._iota
        cpos = heap_canary_offset(p_found, bag.req[gid], b, iota)
        start = sb.off + slot * b
        if iota == 1:
            intact = sb.buf[start + cpos] == sb.hc[slot]
        else:
            intact = sb.buf[start + cpos:start + cpos + iota] == sb.hc[slot * iota:(slot + 1) * iota]
        if not intact:
            expected = sb.hc[slot * iota:(slot + 1) * iota]
            found = bytes(sb.buf[start + cpos:start + cpos + iota])
            return self._report(
                DetectionKind.HEAP_CANARY_TAMPER, slot_address, b,
                expected=expected, found=found,
                detail=f"heap canary at slot offset {cpos} modified before free",
            )

        if bag.small:
            sb.buf[start:start + b] = bag.zeros
            bag.taken[gid] = FREE_FRESH
        else:
            c = self._c
            f = self.rng.uniform_below(b - c + 1)
            if bag.decommits:
                self._decommit_slot(sb, start, f)
            sb.buf[start + f:start + f + c] = sb.fbc[slot * c:(slot + 1) * c]
            bag.offset[gid] = f
            bag.taken[gid] = FREE_MAC
        bag.req[gid] = 0
        bag.index_add(gid)
        return None

    def _decommit_slot(self, sb: SubBag, start: int, f: int) -> None:
        """Return the whole granules of the slot at buffer offset start to the
        OS, except the granule or granules its canary at slot offset f touches.

        Granules are aligned in the region's buffer, as `decommit` requires.
        """
        g = self.backing.decommit_granule
        lo = -(-start // g) * g
        hi = (start + sb.bag.b) // g * g
        keep_lo = (start + f) // g * g
        keep_hi = -(-(start + f + self._c) // g) * g
        to_address = sb.base - sb.off
        if lo < keep_lo:
            self.backing.decommit(to_address + lo, keep_lo - lo)
        if keep_hi < hi:
            self.backing.decommit(to_address + keep_hi, hi - keep_hi)

    # -- derived entry points --------------------------------------------------

    def calloc(self, count: int, size: int) -> int:
        if count < 0 or size < 0:
            raise ValueError("count and size must be >= 0")
        total = count * size
        if total >= (1 << 64):
            return 0
        with self._lock:
            address = self._malloc_locked(total)
            if address == 0:
                return 0
            cls = self._class_of(address)
            if total and cls is not None and cls >= self.cfg.page_size:
                # Small slots and fresh huge pages are already zero; recycled
                # page-sized slots keep stale data in the pages free left
                # committed (the canary's).
                self.backing.raw_write(address, bytes(total))
            return address

    def realloc(self, address: int, new_size: int) -> int:
        if address == 0:
            return self.malloc(new_size)
        if new_size == 0:
            self.free(address)
            return 0
        with self._lock:
            record = self._huge.get(address)
            if record is not None:
                length, old_req = record
                page = self.cfg.page_size
                if new_size > self._usables[-1] and -(-new_size // page) * page == length:
                    self._huge[address] = (length, new_size)
                    return address
                return self._realloc_move(address, old_req, new_size)

            sb = self.page_map.get(address >> self.page_shift)
            if sb is None:
                self._report(DetectionKind.INVALID_FREE, address, 0,
                             detail="realloc of unowned address")
                return 0
            bag = sb.bag
            b = bag.b
            rel = address - sb.base
            slot = rel // b
            gid = (sb.index << 8) + slot
            if bag.taken[gid] != TAKEN or bag.offset[gid] != rel - slot * b:
                self._report(DetectionKind.INVALID_FREE, sb.base + slot * b, b,
                             detail="realloc of address that is not a live allocation")
                return 0
            old_req = bag.req[gid]
            p = bag.offset[gid]
            iota = self._iota
            if self._class_for_req(new_size) == b and p + new_size <= b:
                start = sb.off + slot * b
                cpos = heap_canary_offset(p, new_size, b, iota)
                sb.buf[start + cpos:start + cpos + iota] = sb.hc[slot * iota:(slot + 1) * iota]
                bag.req[gid] = new_size
                return address
            return self._realloc_move(address, old_req, new_size)

    def _realloc_move(self, address: int, old_req: int, new_size: int) -> int:
        new_address = self._malloc_locked(new_size)
        if new_address == 0:
            return 0
        keep = min(old_req, new_size)
        if keep:
            self.backing.raw_write(new_address, self.backing.raw_read(address, keep))
        self._free_locked(address)
        return new_address

    def usable_size(self, address: int) -> int:
        with self._lock:
            record = self._huge.get(address)
            if record is not None:
                return record[0]
            sb = self.page_map.get(address >> self.page_shift)
            if sb is None:
                raise ValueError(f"address {address:#x} is not a live allocation")
            bag = sb.bag
            rel = address - sb.base
            slot = rel // bag.b
            gid = (sb.index << 8) + slot
            if bag.taken[gid] != TAKEN or bag.offset[gid] != rel - slot * bag.b:
                raise ValueError(f"address {address:#x} is not a live allocation")
            return bag.req[gid]

    # -- resolution -------------------------------------------------------------

    def resolve(self, address: int):
        """Map an address to ("slot", sub-bag, slot index), ("huge", base, length), or ("unknown",)."""
        with self._lock:
            sb = self.page_map.get(address >> self.page_shift)
            if sb is not None:
                slot = (address - sb.base) // sb.bag.b
                return ("slot", sb, slot)
            huge = self._huge_of(address)
            if huge is not None:
                return ("huge", huge[0], huge[1])
            return ("unknown",)

    def _huge_of(self, address: int) -> Optional[tuple[int, int]]:
        idx = bisect_right(self._huge_bases, address) - 1
        if idx < 0:
            return None
        base = self._huge_bases[idx]
        length, _req = self._huge[base]
        if address < base + length:
            return base, length
        return None

    def _class_of(self, address: int) -> Optional[int]:
        sb = self.page_map.get(address >> self.page_shift)
        return sb.bag.b if sb is not None else None

    def _class_for_req(self, request: int) -> Optional[int]:
        request = max(request, 1)
        idx = bisect_left(self._usables, request)
        if idx == len(self._usables):
            return None
        return self.bags[idx].b

    # -- introspection (tests, harnesses) -----------------------------------------

    def live_huge_count(self) -> int:
        return len(self._huge)

    def slot_state(self, sb: SubBag, slot: int) -> int:
        return sb.bag.taken[(sb.index << 8) + slot]

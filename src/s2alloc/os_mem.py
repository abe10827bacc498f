"""Page-granular memory reservation and protection over a simulated address space.

The allocator core runs on `SimulatedBacking`: regions are anonymous
zero-filled buffers at synthetic base addresses, and page protection is
enforced by the checked-access operations instead of hardware.
"""

from __future__ import annotations

import bisect
import mmap
import threading
from dataclasses import dataclass, field
from typing import Iterator, Optional


class MemoryTrap(Exception):
    """Checked access touched a protected page."""

    def __init__(self, address: int):
        super().__init__(f"access to protected page at {address:#x}")
        self.address = address


class ContractViolation(ValueError):
    """Caller broke a reserve/protect precondition (unaligned or out-of-region page)."""


class MemoryExhausted(Exception):
    """The backing store could not satisfy a reservation."""


@dataclass
class _Region:
    base: int
    length: int
    buf: "mmap.mmap | bytearray"


def _alloc_buffer(length: int) -> "mmap.mmap | bytearray":
    # Anonymous mmap commits pages lazily, which keeps large mostly-untouched
    # reservations cheap; bytearray is the portable fallback.
    try:
        return mmap.mmap(-1, length)
    except (OSError, ValueError, OverflowError):
        return bytearray(length)


@dataclass
class SimulatedBacking:
    """In-process address space: zero-filled regions plus software page protection.

    Checked `read`/`write` honor protection and raise MemoryTrap; `raw_read`/
    `raw_write` bypass it for tests and allocator-internal fast paths that are
    provably confined to unprotected pages.
    """

    page_size: int = 4096
    log_accesses: bool = False
    access_log: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self._regions: dict[int, _Region] = {}
        self._bases: list[int] = []
        self._protected: set[int] = set()
        self._next_base = 0x10_0000_0000
        self._lock = threading.Lock()

    # -- reservation ------------------------------------------------------

    def reserve(self, length: int) -> int:
        if length <= 0:
            raise ContractViolation(f"reserve length must be > 0, got {length}")
        length = -(-length // self.page_size) * self.page_size
        try:
            buf = _alloc_buffer(length)
        except MemoryError as exc:
            raise MemoryExhausted(str(exc)) from exc
        with self._lock:
            base = self._next_base
            self._next_base += length + self.page_size  # keep regions non-adjacent
            region = _Region(base, length, buf)
            self._regions[base] = region
            bisect.insort(self._bases, base)
            return base

    def release(self, base: int) -> None:
        with self._lock:
            region = self._regions.pop(base, None)
            if region is None:
                raise ContractViolation(f"release of unknown region {base:#x}")
            self._bases.remove(base)
            for page in range(base, base + region.length, self.page_size):
                self._protected.discard(page)
        if isinstance(region.buf, mmap.mmap):
            region.buf.close()

    def region_of(self, address: int) -> Optional[_Region]:
        idx = bisect.bisect_right(self._bases, address) - 1
        if idx < 0:
            return None
        region = self._regions[self._bases[idx]]
        if address >= region.base + region.length:
            return None
        return region

    def buffer_of(self, base: int) -> "mmap.mmap | bytearray":
        """Raw buffer of a region, for owner-managed fast-path access."""
        return self._regions[base].buf

    # -- protection -------------------------------------------------------

    def _page_in_region(self, page: int) -> _Region:
        if page % self.page_size:
            raise ContractViolation(f"page {page:#x} is not page-aligned")
        region = self.region_of(page)
        if region is None:
            raise ContractViolation(f"page {page:#x} is outside every reserved region")
        return region

    def protect(self, page: int) -> None:
        self._page_in_region(page)
        self._protected.add(page)

    def unprotect(self, page: int) -> None:
        self._page_in_region(page)
        self._protected.discard(page)

    def is_protected(self, page: int) -> bool:
        return page in self._protected

    @property
    def protected_pages(self) -> frozenset[int]:
        return frozenset(self._protected)

    # -- checked access ---------------------------------------------------

    def _locate(self, address: int, length: int) -> tuple[_Region, int]:
        region = self.region_of(address)
        if region is None or address + length > region.base + region.length:
            raise ContractViolation(
                f"access [{address:#x}, +{length}) is outside every reserved region"
            )
        return region, address - region.base

    def _check_pages(self, address: int, length: int) -> None:
        if not self._protected:
            return
        first = address - (address % self.page_size)
        last = (address + length - 1) - ((address + length - 1) % self.page_size)
        for page in range(first, last + 1, self.page_size):
            if page in self._protected:
                raise MemoryTrap(page)

    def read(self, address: int, length: int) -> bytes:
        region, off = self._locate(address, length)
        self._check_pages(address, length)
        if self.log_accesses:
            self.access_log.append(("read", address, length))
        return bytes(region.buf[off:off + length])

    def write(self, address: int, data: bytes) -> None:
        region, off = self._locate(address, len(data))
        self._check_pages(address, len(data))
        if self.log_accesses:
            self.access_log.append(("write", address, len(data)))
        region.buf[off:off + len(data)] = data

    # -- raw access (tests / owner fast paths) -----------------------------

    def raw_read(self, address: int, length: int) -> bytes:
        region, off = self._locate(address, length)
        return bytes(region.buf[off:off + length])

    def raw_write(self, address: int, data: bytes) -> None:
        region, off = self._locate(address, len(data))
        region.buf[off:off + len(data)] = data

    def iter_regions(self) -> Iterator[tuple[int, int]]:
        for base in self._bases:
            yield base, self._regions[base].length

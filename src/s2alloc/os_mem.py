"""Page-granular memory reservation and protection over a simulated address space.

The allocator core runs on `SimulatedBacking`: regions are anonymous
zero-filled buffers at synthetic base addresses, and page protection is
enforced by the checked-access operations instead of hardware. A range can
be handed back to the OS with `decommit`; it then reads as zero again.
"""

from __future__ import annotations

import bisect
import mmap
import threading
from dataclasses import dataclass
from typing import Iterator, Optional


class MemoryTrap(Exception):
    """Checked access touched a protected page."""

    def __init__(self, address: int):
        super().__init__(f"access to protected page at {address:#x}")
        self.address = address


class ContractViolation(ValueError):
    """Caller broke a reserve/protect/decommit precondition (unaligned or out-of-region range)."""


class MemoryExhausted(Exception):
    """The backing store could not satisfy a reservation."""


@dataclass(slots=True)
class _Region:
    base: int
    length: int
    buf: Optional[mmap.mmap]


# Stands in for "no region cached": every offset misses its empty span.
_NO_REGION = _Region(0, 0, None)


@dataclass
class SimulatedBacking:
    """In-process address space: zero-filled regions plus software page protection.

    Checked `read`/`write` honor protection and raise MemoryTrap; `raw_read`/
    `raw_write` bypass it for tests and allocator-internal fast paths that are
    provably confined to unprotected pages. Every access must lie wholly in
    one region, or it raises ContractViolation.

    Each access is one call: the region is looked up in a one-entry cache of
    the last region hit (a bisect over region bases on a miss), and the pages
    it spans are found with a page mask, so an access within one page costs
    one set lookup, and none while no page is protected.

    Regions are private mappings, so `decommit` both returns their pages to
    the OS and makes them read as zero. (In a shared anonymous mapping, which
    is what `mmap.mmap(-1, n)` gives by default, MADV_DONTNEED only unmaps
    the pages: they stay allocated and keep their bytes.)
    """

    page_size: int = 4096

    def __post_init__(self) -> None:
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ContractViolation(f"page size must be a power of two, got {self.page_size}")
        self._page_mask = -self.page_size
        # The unit `decommit` works in: a whole simulated page and a whole OS page.
        self.decommit_granule = max(self.page_size, mmap.PAGESIZE)
        self._regions: dict[int, _Region] = {}
        self._bases: list[int] = []
        self._protected: set[int] = set()
        self._last = _NO_REGION
        self._next_base = 0x10_0000_0000
        self._lock = threading.Lock()

    # -- reservation ------------------------------------------------------

    def reserve(self, length: int) -> int:
        if length <= 0:
            raise ContractViolation(f"reserve length must be > 0, got {length}")
        length = -(-length // self.page_size) * self.page_size
        # Anonymous mmap commits pages lazily, which keeps large
        # mostly-untouched reservations cheap.
        try:
            buf = mmap.mmap(-1, length, mmap.MAP_PRIVATE)
        except (OSError, ValueError, OverflowError, MemoryError) as exc:
            raise MemoryExhausted(f"cannot map {length} bytes: {exc}") from exc
        with self._lock:
            base = self._next_base
            self._next_base += length + self.page_size  # keep regions non-adjacent
            self._regions[base] = _Region(base, length, buf)
            bisect.insort(self._bases, base)
            return base

    def release(self, base: int) -> None:
        with self._lock:
            region = self._regions.pop(base, None)
            if region is None:
                raise ContractViolation(f"release of unknown region {base:#x}")
            self._bases.remove(base)
            self._last = _NO_REGION
            for page in range(base, base + region.length, self.page_size):
                self._protected.discard(page)
        region.buf.close()

    def decommit(self, address: int, length: int) -> None:
        """Return [address, address + length) to the OS; it reads as zero afterwards.

        The range must lie in one region; its offset from the region's base
        must be a multiple of `decommit_granule`, and its length a positive
        multiple. Protection is left as it is. The region is found as the
        accessors find it.
        """
        region = self._last
        off = address - region.base
        if not 0 <= off < region.length or off + length > region.length:
            region = self._region_for(address, length)
            off = address - region.base
        granule = self.decommit_granule
        if length <= 0 or off % granule or length % granule:
            raise ContractViolation(
                f"decommit [{address:#x}, +{length}) is not aligned to {granule} bytes"
            )
        region.buf.madvise(mmap.MADV_DONTNEED, off, length)

    def region_of(self, address: int) -> Optional[_Region]:
        idx = bisect.bisect_right(self._bases, address) - 1
        if idx < 0:
            return None
        region = self._regions[self._bases[idx]]
        if address >= region.base + region.length:
            return None
        return region

    def buffer_of(self, base: int) -> mmap.mmap:
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

    # -- access -----------------------------------------------------------
    #
    # The four accessors repeat the cached-region test (and the checked pair
    # the page test) inline: a helper call would double the cost of an access.

    def _region_for(self, address: int, length: int) -> _Region:
        """The region holding all of [address, address + length); caches it.

        Under the lock, so that a concurrent `release` cannot leave its region
        in the cache.
        """
        with self._lock:
            region = self.region_of(address)
            if region is None or address + length > region.base + region.length:
                raise ContractViolation(
                    f"access [{address:#x}, +{length}) is outside every reserved region"
                )
            self._last = region
            return region

    def _trap_span(self, first: int, last: int) -> None:
        """Raise MemoryTrap for the lowest protected page in [first, last]."""
        for page in range(first, last + 1, self.page_size):
            if page in self._protected:
                raise MemoryTrap(page)

    def read(self, address: int, length: int) -> bytes:
        region = self._last
        off = address - region.base
        if not 0 <= off < region.length or off + length > region.length:
            region = self._region_for(address, length)
            off = address - region.base
        if self._protected:
            first = address & self._page_mask
            last = (address + length - 1) & self._page_mask
            if first == last:
                if first in self._protected:
                    raise MemoryTrap(first)
            else:
                self._trap_span(first, last)
        return region.buf[off:off + length]

    def write(self, address: int, data: bytes) -> None:
        length = len(data)
        region = self._last
        off = address - region.base
        if not 0 <= off < region.length or off + length > region.length:
            region = self._region_for(address, length)
            off = address - region.base
        if self._protected:
            first = address & self._page_mask
            last = (address + length - 1) & self._page_mask
            if first == last:
                if first in self._protected:
                    raise MemoryTrap(first)
            else:
                self._trap_span(first, last)
        region.buf[off:off + length] = data

    def raw_read(self, address: int, length: int) -> bytes:
        region = self._last
        off = address - region.base
        if not 0 <= off < region.length or off + length > region.length:
            region = self._region_for(address, length)
            off = address - region.base
        return region.buf[off:off + length]

    def raw_write(self, address: int, data: bytes) -> None:
        length = len(data)
        region = self._last
        off = address - region.base
        if not 0 <= off < region.length or off + length > region.length:
            region = self._region_for(address, length)
            off = address - region.base
        region.buf[off:off + length] = data

    def iter_regions(self) -> Iterator[tuple[int, int]]:
        for base in self._bases:
            yield base, self._regions[base].length

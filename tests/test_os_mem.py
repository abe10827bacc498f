"""Simulated address space: reservations, page protection, checked vs raw access."""

import bisect
import mmap
import random

import pytest

from s2alloc import os_mem
from s2alloc.os_mem import (
    ContractViolation,
    MemoryExhausted,
    MemoryTrap,
    SimulatedBacking,
)


@pytest.fixture
def backing():
    return SimulatedBacking(page_size=4096)


def test_reserve_rounds_up_to_pages(backing):
    base = backing.reserve(1)
    regions = dict(backing.iter_regions())
    assert regions[base] == 4096
    base2 = backing.reserve(4097)
    assert dict(backing.iter_regions())[base2] == 8192


def test_regions_are_page_aligned_and_disjoint(backing):
    bases = [backing.reserve(10_000) for _ in range(5)]
    assert all(b % 4096 == 0 for b in bases)
    spans = sorted((b, b + length) for b, length in backing.iter_regions())
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert start > end  # a hole separates regions: no cross-region runs


def test_fresh_memory_is_zero(backing):
    base = backing.reserve(8192)
    assert backing.read(base, 8192) == bytes(8192)


def test_read_write_roundtrip(backing):
    base = backing.reserve(4096)
    backing.write(base + 100, b"hello world")
    assert backing.read(base + 100, 11) == b"hello world"
    assert backing.raw_read(base + 100, 11) == b"hello world"


def test_out_of_region_access_rejected(backing):
    base = backing.reserve(4096)
    with pytest.raises(ContractViolation):
        backing.read(base + 4090, 10)  # runs off the end
    with pytest.raises(ContractViolation):
        backing.write(base - 1, b"x")
    with pytest.raises(ContractViolation):
        backing.read(12345, 1)  # never reserved


def test_reserve_rejects_nonpositive(backing):
    with pytest.raises(ContractViolation):
        backing.reserve(0)
    with pytest.raises(ContractViolation):
        backing.reserve(-4096)


def test_protection_traps_checked_access(backing):
    base = backing.reserve(3 * 4096)
    page = base + 4096
    backing.protect(page)
    assert backing.is_protected(page)
    with pytest.raises(MemoryTrap) as excinfo:
        backing.write(page + 5, b"x")
    assert excinfo.value.address == page
    with pytest.raises(MemoryTrap):
        backing.read(page + 4095, 1)
    # straddling access from the previous page traps too
    with pytest.raises(MemoryTrap):
        backing.write(page - 2, b"abcd")
    # neighboring pages stay usable
    backing.write(base, b"ok")
    backing.write(page + 4096, b"ok")


def test_raw_access_bypasses_protection(backing):
    base = backing.reserve(4096)
    backing.protect(base)
    backing.raw_write(base + 8, b"Z")
    assert backing.raw_read(base + 8, 1) == b"Z"


def test_unprotect_restores_access(backing):
    base = backing.reserve(4096)
    backing.protect(base)
    backing.unprotect(base)
    assert not backing.is_protected(base)
    backing.write(base, b"fine")


def test_protect_requires_aligned_reserved_page(backing):
    base = backing.reserve(4096)
    with pytest.raises(ContractViolation):
        backing.protect(base + 1)
    with pytest.raises(ContractViolation):
        backing.protect(base + 65536)


def test_protected_pages_snapshot(backing):
    base = backing.reserve(2 * 4096)
    backing.protect(base)
    snapshot = backing.protected_pages
    backing.protect(base + 4096)
    assert snapshot == frozenset({base})
    assert backing.protected_pages == frozenset({base, base + 4096})


def test_release_frees_and_clears_protection(backing):
    base = backing.reserve(4096)
    backing.protect(base)
    backing.release(base)
    assert not backing.is_protected(base)
    with pytest.raises(ContractViolation):
        backing.read(base, 1)
    with pytest.raises(ContractViolation):
        backing.release(base)


def test_buffer_of_exposes_live_region(backing):
    base = backing.reserve(4096)
    buf = backing.buffer_of(base)
    buf[10:13] = b"abc"
    assert backing.read(base + 10, 3) == b"abc"


def test_custom_page_size():
    backing = SimulatedBacking(page_size=16384)
    base = backing.reserve(1)
    assert dict(backing.iter_regions())[base] == 16384
    assert base % 16384 == 0


def test_page_size_must_be_a_power_of_two():
    with pytest.raises(ContractViolation):
        SimulatedBacking(page_size=3000)
    with pytest.raises(ContractViolation):
        SimulatedBacking(page_size=0)


def test_mmap_failure_is_memory_exhausted(backing, monkeypatch):
    def refuse(*args):
        raise OSError(12, "Cannot allocate memory")

    monkeypatch.setattr(os_mem.mmap, "mmap", refuse)
    with pytest.raises(MemoryExhausted):
        backing.reserve(1 << 30)
    assert list(backing.iter_regions()) == []


# -- decommit ------------------------------------------------------------------


def test_decommit_reads_as_zero_and_keeps_the_rest(backing):
    g = backing.decommit_granule
    base = backing.reserve(4 * g)
    backing.write(base, b"\xab" * (4 * g))
    backing.decommit(base + g, 2 * g)
    assert backing.read(base, g) == b"\xab" * g
    assert backing.read(base + g, 2 * g) == bytes(2 * g)
    assert backing.read(base + 3 * g, g) == b"\xab" * g
    backing.write(base + g + 5, b"back")  # a decommitted range is writable again
    assert backing.read(base + g, 9) == bytes(5) + b"back"


def test_decommit_granule_is_the_larger_page():
    assert SimulatedBacking(page_size=1024).decommit_granule == max(1024, mmap.PAGESIZE)
    assert SimulatedBacking(page_size=16384).decommit_granule == max(16384, mmap.PAGESIZE)


def test_decommit_rejects_misaligned_or_cross_region_ranges():
    backing = SimulatedBacking(page_size=1024)
    g = backing.decommit_granule
    a = backing.reserve(3 * g + 1024)  # the next region's base is not g-aligned
    b = backing.reserve(2 * g)
    bad = [
        (a + 1, g), (a + 1024, g), (a, 1024), (a, g + 1), (a, 0), (a, -g),  # alignment
        (a + 3 * g, g), (a + 2 * g, 2 * g), (b - g, 2 * g),                    # past the end
        (a + 4 * g, g), (12345 * g, g),                                       # outside any
    ]
    for address, length in bad:
        with pytest.raises(ContractViolation):
            backing.decommit(address, length)
    backing.decommit(b, g)  # aligned to its region's base, not to the address
    backing.decommit(a + 2 * g, g)
    backing.protect(a)
    backing.decommit(a, g)  # protection does not matter and stays
    assert backing.is_protected(a)


def test_release_after_decommit(backing):
    g = backing.decommit_granule
    base = backing.reserve(2 * g)
    backing.write(base, b"x" * (2 * g))
    backing.decommit(base, 2 * g)
    backing.release(base)
    with pytest.raises(ContractViolation):
        backing.decommit(base, g)
    assert list(backing.iter_regions()) == []


# -- the access layer against a reference ----------------------------------


class ReferenceAccess:
    """The checked-access layer as first written, over the backing's public
    view: a bisect over region bases for every access, then a loop over every
    page the access spans, lowest first, against the protected set."""

    def __init__(self, backing: SimulatedBacking):
        self.backing = backing
        self.page_size = backing.page_size

    def _locate(self, address, length):
        regions = sorted(self.backing.iter_regions())
        idx = bisect.bisect_right([base for base, _ in regions], address) - 1
        if idx >= 0:
            base, size = regions[idx]
            if address < base + size and address + length <= base + size:
                return self.backing.buffer_of(base), address - base
        raise ContractViolation(
            f"access [{address:#x}, +{length}) is outside every reserved region"
        )

    def _check_pages(self, address, length):
        protected = self.backing.protected_pages
        if not protected:
            return
        first = address - (address % self.page_size)
        last = (address + length - 1) - ((address + length - 1) % self.page_size)
        for page in range(first, last + 1, self.page_size):
            if page in protected:
                raise MemoryTrap(page)

    def read(self, address, length):
        buf, off = self._locate(address, length)
        self._check_pages(address, length)
        return bytes(buf[off:off + length])

    def write(self, address, data):
        buf, off = self._locate(address, len(data))
        self._check_pages(address, len(data))
        buf[off:off + len(data)] = data

    def raw_read(self, address, length):
        buf, off = self._locate(address, length)
        return bytes(buf[off:off + length])

    def raw_write(self, address, data):
        buf, off = self._locate(address, len(data))
        buf[off:off + len(data)] = data

    def decommit(self, address, length):
        """Zero-fill, under the same contract as the backing's decommit."""
        granule = max(self.page_size, mmap.PAGESIZE)
        buf, off = self._locate(address, length)
        if length <= 0 or off % granule or length % granule:
            raise ContractViolation("misaligned decommit")
        buf[off:off + length] = bytes(length)


def _outcome(call, *args):
    """What an access returned or raised, in comparable form."""
    try:
        return ("ok", call(*args))
    except MemoryTrap as exc:
        return ("trap", exc.address, str(exc))
    except ContractViolation as exc:
        return ("contract", str(exc))


class _Twins:
    """Two backings fed the same reservations, protections and releases: the
    reference layer accesses one, the backing's own methods the other."""

    def __init__(self, page_size=4096):
        self.page_size = page_size
        self.old = SimulatedBacking(page_size=page_size)
        self.new = SimulatedBacking(page_size=page_size)
        self.ref = ReferenceAccess(self.old)

    def reserve(self, length):
        base = self.old.reserve(length)
        assert self.new.reserve(length) == base
        return base

    def protect(self, page):
        self.old.protect(page)
        self.new.protect(page)

    def unprotect(self, page):
        self.old.unprotect(page)
        self.new.unprotect(page)

    def release(self, base):
        self.old.release(base)
        self.new.release(base)

    def decommit(self, address, length):
        expected = _outcome(self.ref.decommit, address, length)
        found = _outcome(self.new.decommit, address, length)
        assert found[0] == expected[0], (hex(address), length, found, expected)
        return found

    def access(self, op, address, arg):
        expected = _outcome(getattr(self.ref, op), address, arg)
        found = _outcome(getattr(self.new, op), address, arg)
        assert found == expected, (op, hex(address), arg if isinstance(arg, int) else len(arg))
        if found[0] == "ok" and op.endswith("read"):
            assert type(found[1]) is bytes
        return found

    def same_memory(self):
        assert list(self.old.iter_regions()) == list(self.new.iter_regions())
        for base, length in self.new.iter_regions():
            assert self.old.buffer_of(base)[:] == self.new.buffer_of(base)[:]


def test_edge_accesses_match_reference():
    ps = 4096
    twins = _Twins(ps)
    a = twins.reserve(3 * ps)
    b = twins.reserve(ps)
    end = a + 3 * ps
    data = bytes(range(1, 40))
    cases = [
        (a, 0), (end, 0), (end - 1, 0), (a - 1, 0), (b, 0), (b + ps, 0),  # zero length
        (a, 1), (end - 1, 1), (end - 1, 2), (end, 1), (a - 1, 2),         # region edges
        (a + ps - 3, 6), (a + 2 * ps - 1, 2), (a + ps - 1, ps + 2),       # page crossings
        (a, 3 * ps), (a, 3 * ps + 1), (b - ps, 8), (b - 1, 1), (0, 1),    # whole region, gaps
    ]
    # Unprotected, then the first, middle and last page protected in turn,
    # then all three, and each time an access to the other region in between
    # so the cached region changes.
    layouts = [(), (a,), (a + ps,), (a + 2 * ps,), (a, a + ps, a + 2 * ps)]
    for pages in layouts:
        for page in pages:
            twins.protect(page)
        for address, length in cases:
            twins.access("read", address, length)
            twins.access("raw_read", address, length)
            twins.access("read", b + 7, 3)
            twins.access("write", address, data[:length] if length <= len(data) else bytes(length))
            twins.access("raw_write", address, data[:length] if length <= len(data) else bytes(length))
        for page in pages:
            twins.unprotect(page)
    twins.same_memory()


def test_trap_names_lowest_protected_page():
    twins = _Twins(4096)
    a = twins.reserve(4 * 4096)
    twins.protect(a + 4096)
    twins.protect(a + 3 * 4096)
    found = twins.access("write", a + 100, bytes(4 * 4096 - 100))
    assert found[:2] == ("trap", a + 4096)
    found = twins.access("read", a + 2 * 4096 + 5, 2 * 4096 - 5)
    assert found[:2] == ("trap", a + 3 * 4096)


def test_released_cached_region_is_not_served():
    twins = _Twins(4096)
    a = twins.reserve(4096)
    b = twins.reserve(4096)
    twins.access("write", a + 10, b"cached")
    assert twins.new.read(a + 10, 6) == b"cached"  # a is now the cached region
    twins.release(a)
    for op, arg in (("read", 6), ("raw_read", 6), ("write", b"x"), ("raw_write", b"x"),
                    ("read", 0)):
        assert twins.access(op, a + 10, arg)[0] == "contract"
    # A region reserved after the release is served, and so is the other one.
    c = twins.reserve(4096)
    twins.access("write", c, b"new")
    twins.access("read", b, 4)
    twins.same_memory()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_accesses_match_reference(seed):
    """Random reads and writes, checked and raw, around region and page edges,
    while pages are protected and unprotected, ranges are decommitted and
    regions come and go."""
    rng = random.Random(seed)
    ps = 4096
    twins = _Twins(ps)
    sizes = {}  # every region ever reserved, released ones included

    def reserve(pages):
        base = twins.reserve(ps * pages)
        sizes[base] = ps * pages
        return base

    live = [reserve(n) for n in (1, 3, 5)]
    lengths = [0, 1, 2, 15, 16, 17, ps - 1, ps, ps + 1, 2 * ps + 3]
    for _ in range(3000):
        roll = rng.random()
        if roll < 0.03 and len(live) > 1:
            twins.release(live.pop(rng.randrange(len(live))))
            continue
        if roll < 0.06:
            live.append(reserve(rng.randint(1, 4)))
            continue
        if roll < 0.15:
            base = rng.choice(live)
            page = base + ps * rng.randrange(sizes[base] // ps)
            if twins.new.is_protected(page):
                twins.unprotect(page)
            else:
                twins.protect(page)
            continue
        if roll < 0.2:
            base = rng.choice(live) if rng.random() < 0.9 else rng.choice(list(sizes))
            g = twins.new.decommit_granule
            address = base + g * rng.randrange(sizes[base] // g + 1)
            length = g * rng.randint(0, 3)
            if rng.random() < 0.2:
                address += rng.choice([-16, 16, ps // 2])
            if rng.random() < 0.2:
                length += rng.choice([-1, 1, ps // 2])
            twins.decommit(address, length)
            continue
        base = rng.choice(live) if rng.random() < 0.9 else rng.choice(list(sizes))
        size = sizes[base]
        anchor = rng.choice([base, base + size, base + ps * rng.randrange(size // ps + 1),
                             base + rng.randrange(size)])
        address = anchor + rng.randint(-20, 20)
        length = rng.choice(lengths) if rng.random() < 0.7 else rng.randrange(3 * ps)
        op = rng.choice(["read", "write", "raw_read", "raw_write"])
        if op.endswith("write"):
            twins.access(op, address, rng.randbytes(length))
        else:
            twins.access(op, address, length)
    twins.same_memory()

"""One benchmark workload, run in a process of its own.

Started by run.py as ``workloads.py --workload NAME --seed N --seconds S
--trace 0|1 --spawned-at T``. It imports s2alloc from the checkout's ``src``
directory, builds its inputs from the seed, runs whole rounds of its work
within the measuring time, checks every output and prints one JSON object as
the last line of standard output.

A round is a fixed list of items (an acceptance size, a block of churn steps,
a grid point, a live game). Timing figures come from the fastest tenth (at
least one) of each item's repetitions in the run; see README.md for why.

With ``--trace 0`` the object holds the end-to-end metrics. With
``--trace 1`` it first runs untraced rounds for half the time, then a fixed
number of rounds with every library entry point wrapped in spans, and prints
the per-layer metrics plus the tracing overhead; the spans are written to
``perfbench/out/spans-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import sys
import time
import tracemalloc
import types
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

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
)
from tracer import Patches, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
PAGE = os.sysconf("SC_PAGE_SIZE")


def load_library():
    """Import s2alloc from the checkout's sources, never from an installed copy."""
    if not (SRC / "s2alloc" / "__init__.py").is_file():
        raise SystemExit(f"s2alloc sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    from s2alloc import canary, config, core, model, os_mem, rng, simulator

    return types.SimpleNamespace(canary=canary, config=config, core=core, model=model,
                                 os_mem=os_mem, rng=rng, simulator=simulator)


def rss_bytes() -> int:
    with open("/proc/self/statm", "rb") as f:
        return int(f.read().split()[1]) * PAGE


def s2alloc_heap_bytes() -> int:
    """Bytes of Python heap held by objects allocated in s2alloc's own files."""
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, str(SRC / "s2alloc" / "*"))])
    return sum(stat.size for stat in snapshot.statistics("filename"))


class Rep:
    """One repetition of one item: its wall time and the allocator calls it made."""

    __slots__ = ("wall_s", "malloc_ns", "free_ns", "calls")

    def __init__(self):
        self.wall_s = 0.0
        self.malloc_ns = array("i")
        self.free_ns = array("i")
        self.calls = 0

    def __lt__(self, other: "Rep") -> bool:
        return self.wall_s > other.wall_s  # heap order: the slowest on top, evicted first


# Repetitions kept per item: the fastest KEEP. Keeping no more bounds the
# benchmark's own memory, which would otherwise grow with the machine's speed
# and show in peak_rss_mb.
KEEP = 40


class Stats:
    """What one run measured."""

    def __init__(self, spawned_at: float):
        self.spawned_at = spawned_at
        self.first_call: float | None = None
        self.reps: dict[str, list[Rep]] = {}  # per item, the fastest KEEP, as a heap
        self.rep_count: dict[str, int] = {}
        self.current = Rep()
        self.round_s: list[float] = []
        self.attempted = 0      # operations the workload attempted
        self.failed = 0         # of those, known-fault failures
        self.overhead: tuple[float, int] | None = None  # (bytes, live objects)

    def begin(self) -> Rep:
        """Start a repetition; its time is what `timed` blocks add to it."""
        rep = self.current = Rep()
        if self.first_call is None:
            self.first_call = time.monotonic()
        return rep

    @contextmanager
    def timed(self, rep: Rep):
        t0 = time.perf_counter()
        yield rep
        rep.wall_s += time.perf_counter() - t0

    @contextmanager
    def rep(self, item: str):
        """One repetition timed as a whole."""
        rep = self.begin()
        with self.timed(rep):
            yield rep
        self.keep(item, rep)

    def keep(self, item: str, rep: Rep) -> None:
        kept = self.reps.setdefault(item, [])
        self.rep_count[item] = self.rep_count.get(item, 0) + 1
        if len(kept) < KEEP:
            heapq.heappush(kept, rep)
        else:
            heapq.heappushpop(kept, rep)

    def fastest(self) -> list[list[Rep]]:
        """Per item, the fastest tenth of its repetitions (at least one, at most KEEP)."""
        return [sorted(kept, key=lambda r: r.wall_s)[:max(1, self.rep_count[item] // 10)]
                for item, kept in self.reps.items()]

    def samples(self, field: str) -> np.ndarray:
        """Per-call times of one kind from the fastest tenth of repetitions."""
        return np.concatenate([np.asarray(getattr(r, field), dtype=np.float64)
                               for reps in self.fastest() for r in reps])

    def malloc_p999_ns(self) -> float:
        # Untraced, but reported with the per-layer metrics: over ten runs its
        # spread reached the largest bound an end-to-end metric may have.
        return float(np.percentile(self.samples("malloc_ns"), 99.9))

    def end_to_end(self) -> dict:
        kept = self.fastest()
        flat = [rep for reps in kept for rep in reps]
        calling = [r for r in flat if r.calls]
        extra_bytes, live = self.overhead
        return {
            "setup_s": (self.first_call - self.spawned_at, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "malloc_ns": (float(np.median(self.samples("malloc_ns"))), "ns"),
            "free_ns": (float(np.median(self.samples("free_ns"))), "ns"),
            "heap_ops_per_s": (sum(r.calls for r in calling) / sum(r.wall_s for r in calling),
                               "op/s"),
            "round_s": (sum(sum(r.wall_s for r in reps) / len(reps) for reps in kept), "s"),
            "overhead_bytes_per_live": (extra_bytes / live, "B"),
        }


def check_known_fault(heap, new_reports, address: int, request: int) -> None:
    """The only report a workload may cause is the heap-canary clamp fault."""
    if len(new_reports) != 1:
        raise CheckFailed(f"{len(new_reports)} reports from one call")
    _, sb, slot = heap.resolve(address)
    placement = address - (sb.base + slot * sb.bag.b)
    check_clamp_report(new_reports[0].kind.value, request, placement, sb.bag.b,
                       heap.cfg.heap_canary_len)


# -- heap-grow -----------------------------------------------------------------


class HeapGrow:
    """A fresh heap per acceptance size takes a long run of mallocs; every
    object is written in full, read back and freed."""

    SIZES = (16, 128, 1024)
    OBJECTS = 10_000
    # Fixed, so that placements, and with them the objects the canary clamp
    # fault hits, are the same in every round and every run.
    HEAP_SEED = 240201894
    BLOB = 1 << 16
    TRACED_ROUNDS = 2

    def __init__(self, s2, seed: int):
        self.s2 = s2
        # Contents are fixed too: an object whose last byte happens to equal
        # the misplaced canary escapes the report, so contents drawn per seed
        # would move the fault count. The seed sets the order of the frees.
        fixed = np.random.default_rng(self.HEAP_SEED)
        self.blob = fixed.bytes(self.BLOB)
        self.offsets = fixed.integers(0, self.BLOB - max(self.SIZES), self.OBJECTS).tolist()
        self.free_order = np.random.default_rng([seed, 1]).permutation(self.OBJECTS).tolist()
        self.addrs = array("Q", bytes(8 * self.OBJECTS))
        self.ticks = array("i", bytes(4 * self.OBJECTS))

    def new_heap(self):
        cfg = self.s2.config.config_from_env(env={}, seed=self.HEAP_SEED, abort_on_tamper=False)
        return self.s2.core.ThreadHeap(cfg)

    def fill(self, heap, size: int) -> None:
        malloc, write = heap.malloc, heap.backing.write
        addrs, ticks, blob, offsets = self.addrs, self.ticks, self.blob, self.offsets
        clock = time.perf_counter_ns
        for i in range(self.OBJECTS):
            t0 = clock()
            address = malloc(size)
            ticks[i] = clock() - t0
            if address == 0 or address & 15:
                check_address(address, f"malloc({size})")
            addrs[i] = address
            o = offsets[i]
            write(address, blob[o:o + size])

    def round(self, stats: Stats) -> None:
        extra_bytes = 0
        for size in self.SIZES:
            gc.collect()
            base = rss_bytes()
            heap = self.new_heap()
            rep = stats.begin()
            with stats.timed(rep):
                self.fill(heap, size)
            extra_bytes += rss_bytes() - base - self.OBJECTS * size
            rep.malloc_ns.extend(self.ticks)
            self.check_live(heap, size)
            with stats.timed(rep):
                self.read_and_free(heap, size, stats)
            rep.free_ns.extend(self.ticks)
            rep.calls += 2 * self.OBJECTS
            stats.attempted += 2 * self.OBJECTS
            stats.keep(str(size), rep)
            del heap
        if stats.overhead is None:
            stats.overhead = (extra_bytes, self.OBJECTS * len(self.SIZES))

    def check_live(self, heap, size: int) -> None:
        usable_size = heap.usable_size
        for address in self.addrs:
            if usable_size(address) != size:
                check_usable(usable_size(address), size)
        check_no_overlap([(a, a + size) for a in self.addrs])

    def read_and_free(self, heap, size: int, stats: Stats) -> None:
        """Read every object back and free it, in the seed's order; a free
        that reports is checked to be the clamp fault and counted as failed."""
        addrs, ticks, blob, offsets = self.addrs, self.ticks, self.blob, self.offsets
        read, free = heap.backing.read, heap.free
        reports = heap.reports
        clock = time.perf_counter_ns
        for k, i in enumerate(self.free_order):
            address = addrs[i]
            o = offsets[i]
            expected = blob[o:o + size]
            found = read(address, size)
            if found != expected:
                check_bytes(found, expected, f"object of {size} bytes before free")
            n_reports = len(reports)
            t0 = clock()
            free(address)
            ticks[k] = clock() - t0
            if len(reports) != n_reports:
                check_known_fault(heap, reports[n_reports:], address, size)
                stats.failed += 1

    def py_bytes_per_live(self) -> float:
        total = 0
        for size in self.SIZES:
            tracemalloc.start()
            heap = self.new_heap()
            self.fill(heap, size)
            total += s2alloc_heap_bytes()
            tracemalloc.stop()
            del heap
            gc.collect()
        return total / (self.OBJECTS * len(self.SIZES))


# -- heap-churn ----------------------------------------------------------------


MALLOC, CALLOC, REALLOC = 0, 1, 2


class HeapChurn:
    """A fixed live set; each step frees a random live object and replaces it
    with malloc, calloc or realloc, over small, page-sized and direct-mapped
    requests."""

    LIVE = 4000
    STEPS = 4000
    BLOB = 1 << 18
    TRACED_ROUNDS = 4

    def __init__(self, s2, seed: int):
        self.s2 = s2
        self.gen = np.random.default_rng([seed, 2])
        self.blob = self.gen.bytes(self.BLOB)
        self.cfg = s2.config.config_from_env(env={}, seed=seed, abort_on_tamper=False)
        self.largest_slot = self.cfg.usable(self.cfg.size_classes[-1])
        self.live_addr = array("Q", bytes(8 * self.LIVE))
        self.live_size = array("Q", bytes(8 * self.LIVE))
        self.live_off = array("Q", bytes(8 * self.LIVE))
        self.heap, self.overhead = self.warm_up()

    def draw(self, n: int):
        """Sizes and content offsets for n objects. Every block of n holds the
        same share of each size band, so rounds differ in order, not in make-up."""
        gen = self.gen
        n_page, n_huge = round(n * 0.13), round(n * 0.02)
        sizes = np.concatenate([gen.integers(1, 1025, n - n_page - n_huge),
                                gen.integers(2689, 16385, n_page),
                                gen.integers(49153, 81921, n_huge)])
        gen.shuffle(sizes)
        # A request that is a multiple of 16 trips the canary clamp fault on
        # a seed-dependent share of frees, so this workload draws none; the
        # fault is counted in heap-grow, where its count repeats exactly.
        sizes -= sizes % 16 == 0
        offsets = gen.integers(0, self.BLOB - 81920, n)
        return sizes, offsets

    def warm_up(self):
        """Fill the live set on a fresh heap; return the heap and the RSS
        overhead (bytes, objects) at the full live set. Inputs are drawn and
        bookkeeping preallocated before the baseline, so the growth is the heap's."""
        sizes, offsets = self.draw(self.LIVE)
        self.live_size[:] = array("Q", sizes.tobytes())
        self.live_off[:] = array("Q", offsets.tobytes())
        blob, live_addr, live_size, live_off = self.blob, self.live_addr, self.live_size, self.live_off
        gc.collect()
        base = rss_bytes()
        heap = self.s2.core.ThreadHeap(self.cfg)
        malloc, write = heap.malloc, heap.backing.write
        for i in range(self.LIVE):
            size = live_size[i]
            address = malloc(size)
            if address == 0 or address & 15:
                check_address(address, f"malloc({size})")
            o = live_off[i]
            write(address, blob[o:o + size])
            live_addr[i] = address
        return heap, (rss_bytes() - base - int(sizes.sum()), self.LIVE)

    def check_live(self) -> None:
        heap = self.heap
        for address, size in zip(self.live_addr, self.live_size):
            page = self.cfg.page_size if size > self.largest_slot else None
            check_usable(heap.usable_size(address), size, page)
        check_no_overlap([(a, a + s) for a, s in zip(self.live_addr, self.live_size)])

    def round(self, stats: Stats) -> None:
        gen = self.gen
        n = self.STEPS
        kinds = np.repeat([MALLOC, CALLOC, REALLOC], [n * 8 // 10, n // 10, n - n * 9 // 10])
        gen.shuffle(kinds)
        kinds = kinds.tolist()
        victims = gen.integers(0, self.LIVE, n).tolist()
        sizes, offsets = (a.tolist() for a in self.draw(n))
        heap = self.heap
        malloc, calloc, realloc, free = heap.malloc, heap.calloc, heap.realloc, heap.free
        read, write = heap.backing.read, heap.backing.write
        reports = heap.reports
        blob = self.blob
        live_addr, live_size, live_off = self.live_addr, self.live_size, self.live_off
        clock = time.perf_counter_ns
        calls = 0
        with stats.rep("steps") as rep:
            malloc_ns, free_ns = rep.malloc_ns, rep.free_ns
            for kind, v, size, o in zip(kinds, victims, sizes, offsets):
                old, old_size, old_o = live_addr[v], live_size[v], live_off[v]
                expected = blob[old_o:old_o + old_size]
                found = read(old, old_size)
                if found != expected:
                    check_bytes(found, expected, f"live object of {old_size} bytes")
                n_reports = len(reports)
                if kind == REALLOC:
                    address = realloc(old, size)
                    calls += 1
                    if address == 0 or address & 15:
                        check_address(address, f"realloc(, {size})")
                    keep = min(old_size, size)
                    found = read(address, keep)
                    if found != expected[:keep]:
                        check_bytes(found, expected[:keep], "prefix kept by realloc")
                else:
                    t0 = clock()
                    free(old)
                    free_ns.append(clock() - t0)
                    if kind == MALLOC:
                        t0 = clock()
                        address = malloc(size)
                        malloc_ns.append(clock() - t0)
                    else:
                        address = calloc(1, size)
                    calls += 2
                    if address == 0 or address & 15:
                        check_address(address, f"allocation of {size}")
                    if kind == CALLOC:
                        found = read(address, size)
                        if found.count(0) != size:
                            check_bytes(found, bytes(size), "calloc memory")
                if len(reports) != n_reports:
                    raise CheckFailed(
                        f"report from a step of heap-churn: {reports[n_reports].line()}")
                write(address, blob[o:o + size])
                live_addr[v], live_size[v], live_off[v] = address, size, o
            rep.calls = calls
        self.check_live()
        stats.attempted += calls
        stats.overhead = self.overhead

    def py_bytes_per_live(self) -> float:
        tracemalloc.start()
        self.heap, _ = self.warm_up()
        total = s2alloc_heap_bytes()
        tracemalloc.stop()
        return total / self.LIVE


# -- uaf-game ------------------------------------------------------------------


class UafGame:
    """The attack game: abstract Monte Carlo points scored against their
    series, then live games against a real heap."""

    # Criterion-04 grid points: r=2048, s=16, l=4, c=8, d=2; s1 runs 4000
    # rounds, s2 the rounds its detection series needs to reach 0.65.
    POINTS = [(strategy, b, m) for b in (16, 64) for m in (1, 4) for strategy in ("s1", "s2")]
    TRIALS = 20_000
    # The criterion-04 seed. The s1 points are gated at 3 sigma; at a seed
    # drawn per run, 8 such gates would fail about one run in fifty by chance.
    POINT_SEED = 20260814
    GAMES = [(strategy, m, size) for strategy, m in (("s1", 1), ("s2", 1), ("s1-spray", 4))
             for size in (16, 3072)]
    GAME_ROUNDS = 30
    GAME_TRIALS = 200
    TRACED_ROUNDS = 1

    def __init__(self, s2, seed: int):
        self.s2 = s2
        self.seed = seed
        self.rounds_done = 0
        self.point_log: list[tuple[str, int, int]] = []  # (strategy, trials, rounds)
        self.s2_peak_mb = 0.0
        self.traced_memory = False
        self.timer: HarnessTimer | None = None
        self.live_trials = 0

    def point_params(self, strategy: str, b: int, m: int):
        sim = self.s2.simulator
        ModelParams = self.s2.model.ModelParams
        if strategy == "s1":
            return ModelParams(r=2048, b=b, s=16, l=4, c=8, d=2, m=m, rounds=4000)
        probe = ModelParams(r=2048, b=b, s=16, l=4, c=8, d=2, m=m, rounds=0)
        k = sim.rounds_to_reach_detection(probe, target=0.65, cap=12_000)
        return ModelParams(r=2048, b=b, s=16, l=4, c=8, d=2, m=m, rounds=k)

    def play_point(self, strategy: str, b: int, m: int, stats: Stats) -> None:
        sim, model = self.s2.simulator, self.s2.model
        params = self.point_params(strategy, b, m)
        watch = self.traced_memory and strategy == "s2"
        if watch:
            tracemalloc.start()
        result = sim.simulate_strategy(strategy, params, self.TRIALS, self.POINT_SEED)
        if watch:
            self.s2_peak_mb = max(self.s2_peak_mb, tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()
        series = model.rates_for_strategy(strategy, params)
        what = f"{strategy} b={b} m={m}"
        check_rates(result.attack_rate, result.detect_rate, result.neither_rate, what)
        if strategy == "s1":
            check_within_3sigma(result.attack_rate, series.final_attack, self.TRIALS,
                                f"{what} attack vs s1_rates")
            check_within_3sigma(result.detect_rate, series.final_detect, self.TRIALS,
                                f"{what} detect vs s1_rates")
        bound = abstract_attack_bound(params.rounds, m, params.r, params.placements)
        check_attack_bound(result.attack_rate, bound, self.TRIALS, what)
        self.point_log.append((strategy, self.TRIALS, params.rounds))
        stats.attempted += self.TRIALS

    def play_game(self, strategy: str, m: int, size: int, seed: int, stats: Stats) -> None:
        result = self.s2.simulator.simulate_allocator_attack(
            strategy, size, rounds=self.GAME_ROUNDS, trials=self.GAME_TRIALS, seed=seed, m=m)
        what = f"live {strategy} size={size}"
        check_rates(result.attack_rate, result.detect_rate, result.neither_rate, what)
        cfg = self.s2.config.config_from_env(env={})
        placements = 1 + (cfg.class_for(size) - size) // 16
        bound = live_attack_bound(self.GAME_ROUNDS, m, placements, min_free=cfg.r)
        check_attack_bound(result.attack_rate, bound, self.GAME_TRIALS, what)
        stats.attempted += self.GAME_TRIALS
        self.live_trials += self.GAME_TRIALS

    def round(self, stats: Stats) -> None:
        for strategy, b, m in self.POINTS:
            with stats.rep(f"{strategy} b={b} m={m}"):
                self.play_point(strategy, b, m, stats)
        seeds = np.random.default_rng([self.seed, 3, self.rounds_done]).integers(
            1, 2**31, len(self.GAMES)).tolist()
        for (strategy, m, size), seed in zip(self.GAMES, seeds):
            if self.timer is not None:
                self.timer.begin_game()
            with stats.rep(f"live {strategy} size={size}"):
                self.play_game(strategy, m, size, seed, stats)
            if self.timer is not None:
                self.timer.end_game()
        self.rounds_done += 1


class HarnessTimer:
    """Times the live harness's malloc and free calls with the same two clock
    reads the heap workloads put around their own calls, and tracks the live
    set to measure RSS per live object at each game's peak."""

    def __init__(self, s2, stats: Stats):
        self.patches = Patches()
        self.extra_bytes = 0
        self.peak_objects = 0
        timer = self

        def timed_malloc(fn):
            def malloc(heap, size):
                t0 = time.perf_counter_ns()
                address = fn(heap, size)
                rep = stats.current
                rep.malloc_ns.append(time.perf_counter_ns() - t0)
                rep.calls += 1
                if address:
                    timer.allocated(address, size)
                return address
            return malloc

        def timed_free(fn):
            def free(heap, address):
                t0 = time.perf_counter_ns()
                report = fn(heap, address)
                rep = stats.current
                rep.free_ns.append(time.perf_counter_ns() - t0)
                rep.calls += 1
                timer.released(address)
                return report
            return free

        self.patches.replace(s2.core.ThreadHeap, "malloc", timed_malloc)
        self.patches.replace(s2.core.ThreadHeap, "free", timed_free)

    def begin_game(self) -> None:
        self.live: dict[int, int] = {}
        self.live_bytes = 0
        self.peak = (0, 0, 0)  # (objects, bytes, RSS growth)
        gc.collect()  # the last game's heap is a reference cycle
        self.base = rss_bytes()

    def allocated(self, address: int, size: int) -> None:
        self.live[address] = size
        self.live_bytes += size
        if len(self.live) > self.peak[0]:
            self.peak = (len(self.live), self.live_bytes, rss_bytes() - self.base)

    def released(self, address: int) -> None:
        self.live_bytes -= self.live.pop(address, 0)

    def end_game(self) -> None:
        objects, nbytes, growth = self.peak
        self.extra_bytes += growth - nbytes
        self.peak_objects += objects

    def uninstall(self) -> None:
        self.patches.undo()


WORKLOADS = {"heap-grow": HeapGrow, "heap-churn": HeapChurn, "uaf-game": UafGame}


def run_rounds(workload, stats: Stats, seconds: float | None, count: int | None = None) -> None:
    """Exactly `count` whole rounds, or whole rounds within `seconds`: at least
    one, and no further round that the last one's length says would overrun."""
    start = time.perf_counter()
    done = 0
    while True:
        t0 = time.perf_counter()
        workload.round(stats)
        t1 = time.perf_counter()
        stats.round_s.append(t1 - t0)
        done += 1
        if count is not None:
            if done >= count:
                return
        elif t1 - start + (t1 - t0) > seconds:
            return


def untraced(s2, name: str, workload, stats: Stats, seconds: float) -> dict:
    timer = None
    if name == "uaf-game":
        timer = workload.timer = HarnessTimer(s2, stats)
    try:
        run_rounds(workload, stats, seconds)
    finally:
        if timer is not None:
            timer.uninstall()
    if timer is not None:
        stats.overhead = (timer.extra_bytes, timer.peak_objects)
    return stats.end_to_end()


def traced(s2, name: str, workload, stats: Stats, seconds: float) -> dict:
    plain = Stats(stats.spawned_at)
    untraced(s2, name, workload, plain, seconds / 2)
    stats.attempted, stats.failed = plain.attempted, plain.failed
    if name == "uaf-game":
        workload.timer = None
        workload.traced_memory = True
        workload.point_log.clear()
        workload.live_trials = 0
    tracer = Tracer()
    tracer.install(s2)
    try:
        run_rounds(workload, stats, None, count=workload.TRACED_ROUNDS)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{name}.npz")
    py_bytes = workload.py_bytes_per_live() if name != "uaf-game" else 0.0
    # Against the untraced rounds just before the traced ones: the host's speed
    # changes over seconds, so rounds from the start of the run would compare
    # two speeds, not two modes.
    before = plain.round_s[-len(stats.round_s):]
    overhead_pct = 100.0 * (np.median(stats.round_s) / np.median(before) - 1.0)
    return layer_metrics(tracer, workload, plain.malloc_p999_ns(), py_bytes, overhead_pct)


def layer_metrics(tracer: Tracer, workload, malloc_p999_ns: float, py_bytes: float,
                  overhead_pct: float) -> dict:
    spans = tracer.summary()

    def calls(span):
        return spans.get(span, {}).get("calls", 0)

    def total(span, key="total_ns"):
        return spans.get(span, {}).get(key, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    def per_call(span, key="self_ns"):
        return ratio(total(span, key), calls(span))

    index_spans = ("core.index_remove", "core.index_add")
    kinds = tracer.report_kinds
    live_trials = getattr(workload, "live_trials", 0)
    point_log = getattr(workload, "point_log", [])
    point_ns = {"s1": [], "s2": []}
    trial_rounds = 0
    if "simulator.simulate_strategy" in tracer.names:
        sim_id = tracer.names.index("simulator.simulate_strategy")
        ids = np.asarray(tracer.name_id)
        dur = np.asarray(tracer.end) - np.asarray(tracer.start)
        for (strategy, trials, rounds), ns in zip(point_log, dur[ids == sim_id]):
            point_ns[strategy].append(float(ns))
            trial_rounds += trials * rounds
    sim_s = (sum(point_ns["s1"]) + sum(point_ns["s2"])) / 1e9
    series_ns = total("model.rates_for_strategy") + total("simulator.rounds_to_reach_detection")
    return {
        "rng.uniform_below_ns": (per_call("rng.uniform_below"), "ns"),
        "rng.draws_per_malloc": (ratio(calls("rng.uniform_below") + calls("rng.coin"),
                                       calls("core.malloc")), "draws/malloc"),
        "core.malloc_self_ns": (per_call("core.malloc"), "ns"),
        "core.malloc_p999_ns": (malloc_p999_ns, "ns"),
        "core.free_self_ns": (per_call("core.free"), "ns"),
        "core.calloc_ns": (per_call("core.calloc", "total_ns"), "ns"),
        "core.realloc_ns": (per_call("core.realloc", "total_ns"), "ns"),
        "core.index_ns": (ratio(sum(total(s, "self_ns") for s in index_spans),
                                sum(calls(s) for s in index_spans)), "ns"),
        "core.subbags_created": (calls("core.add_subbag"), "count"),
        "core.add_subbag_ns": (per_call("core.add_subbag"), "ns"),
        "core.resolve_ns": (per_call("core.resolve"), "ns"),
        "core.reports.FBC_TAMPER": (kinds["FBC_TAMPER"], "count"),
        "core.reports.HEAP_CANARY_TAMPER": (kinds["HEAP_CANARY_TAMPER"], "count"),
        "core.fbc_tamper_per_live_trial": (ratio(kinds["FBC_TAMPER"], live_trials), "ratio"),
        "core.py_bytes_per_live": (py_bytes, "B"),
        "canary.batch_tags_ns": (per_call("canary.batch_tags", "total_ns"), "ns"),
        "canary.tags_per_call": (ratio(tracer.tags, calls("canary.batch_tags")), "tags/call"),
        "os_mem.reserve_ns": (per_call("os_mem.reserve", "total_ns"), "ns"),
        "os_mem.reserve_calls": (calls("os_mem.reserve"), "count"),
        "os_mem.write_ns": (per_call("os_mem.write", "total_ns"), "ns"),
        "model.series_ms": (ratio(series_ns, len(point_log)) / 1e6, "ms"),
        "simulator.s1_point_s": (ratio(sum(point_ns["s1"]), len(point_ns["s1"])) / 1e9, "s"),
        "simulator.s2_point_s": (ratio(sum(point_ns["s2"]), len(point_ns["s2"])) / 1e9, "s"),
        "simulator.trial_rounds_per_s": (ratio(trial_rounds, sim_s), "1/s"),
        "simulator.s2_traced_peak_mb": (getattr(workload, "s2_peak_mb", 0.0), "MiB"),
        "simulator.live_self_ms": (ratio(total("simulator.simulate_allocator_attack", "self_ns"),
                                         live_trials) / 1e6, "ms"),
        "trace.overhead_pct": (float(overhead_pct), "%"),
        "trace.spans": (len(tracer), "count"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() just before this process was started")
    args = parser.parse_args(argv)
    stats = Stats(args.spawned_at if args.spawned_at is not None else time.monotonic())
    s2 = load_library()
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        workload = WORKLOADS[args.workload](s2, args.seed)
        run = traced if args.trace else untraced
        metrics = run(s2, args.workload, workload, stats, args.seconds)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        result["correct"] = False
        metrics = {}
    result["attempted"] = stats.attempted
    result["failed"] = stats.failed
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

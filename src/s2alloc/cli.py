"""Command-line front end: rate tables, simulations, benchmarks, self-test.

Subcommands:
  analyze   print the analytical rate series as CSV (optionally sweeping b)
  simulate  run Monte Carlo trials and compare them to the rate series
  bench     measure allocator throughput (separate malloc / free timings)
  selftest  run built-in correctness checks; nonzero exit on any failure
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import json
import resource
import sys
import threading
import time
from array import array
from typing import Optional

from .canary import cmac_aes128, HAS_HARDWARE_BACKEND
from .config import AllocatorConfig, ConfigError, config_from_env
from .core import (
    FREE_FRESH,
    FREE_MAC,
    GUARDED,
    TAKEN,
    DetectionKind,
    HeapCorruptionError,
    PagePool,
    ThreadHeap,
)
from .os_mem import SimulatedBacking
from .model import (
    ModelDomainError,
    ModelParams,
    attack_rate_A,
    fbc_overlap_D,
    rates_for_strategy,
)
from .rng import PcgState
from .simulator import reference_rates, simulate_allocator_attack, simulate_strategy

_STRATEGIES = ("s1", "s2", "s1-spray", "s2-spray")


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--strategy", required=True, choices=_STRATEGIES,
                        help="attacker strategy")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--b", type=int, help="slot size in bytes")
    group.add_argument("--b-range", metavar="LO:HI:STEP",
                       help="sweep slot sizes lo..hi inclusive in steps")
    parser.add_argument("--s", type=int, default=16, help="victim object size (default 16)")
    parser.add_argument("--l", type=int, default=4, help="attacker overwrite length (default 4)")
    parser.add_argument("--c", type=int, default=8,
                        help="free-block canary length (default 8)")
    parser.add_argument("--d", type=int, default=2,
                        help="neighbor slots checked each side on allocation (default 2)")
    parser.add_argument("--entropy-bits", type=int, default=8,
                        help="log2 of the free-slot candidate set (default 8)")
    parser.add_argument("--spray-m", type=int, default=4,
                        help="victims allocated per round for spray strategies (default 4)")
    parser.add_argument("--rounds", type=int, default=500,
                        help="attack rounds per trial (default 500)")


def _parse_b_values(args) -> list[int]:
    if args.b is not None:
        return [args.b]
    parts = args.b_range.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--b-range must be LO:HI:STEP, got {args.b_range!r}")
    try:
        lo, hi, step = (int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"--b-range must be three integers, got {args.b_range!r}")
    if step <= 0 or hi < lo:
        raise ConfigError(f"--b-range needs lo <= hi and step > 0, got {args.b_range!r}")
    return list(range(lo, hi + 1, step))


def _params_for(args, b: int) -> ModelParams:
    m = args.spray_m if args.strategy.endswith("-spray") else 1
    return ModelParams(
        r=1 << args.entropy_bits, b=b, s=args.s, l=args.l, c=args.c,
        d=args.d, m=m, rounds=args.rounds,
    )


def _validate_points(args, b_values: list[int], rates) -> None:
    # Probe every point with a zero-round series so parameter errors surface
    # before any output is written.
    for b in b_values:
        rates(dataclasses.replace(_params_for(args, b), rounds=0))


def cmd_analyze(args, out) -> int:
    b_values = _parse_b_values(args)
    rates = functools.partial(rates_for_strategy, args.strategy)  # the paper's series
    _validate_points(args, b_values, rates)
    sweep = len(b_values) > 1
    print("round,p_e,p_attack,p_detect", file=out)
    for b in b_values:
        if sweep:
            print(f"# b={b}", file=out)
        series = rates(_params_for(args, b))
        for i, pe, pa, pd in series.rows():
            print(f"{i},{pe:.10g},{pa:.10g},{pd:.10g}", file=out)
        for warning in series.warnings:
            print(f"warning: b={b}: {warning}", file=sys.stderr)
    return 0


def _simulate_record(args, params: ModelParams, result, rates, series,
                     elapsed: float) -> dict:
    """One JSON-ready record of a simulated point: inputs, rates, series, cost."""
    def rate(value):
        return None if result.trials == 0 else value  # undefined without trials

    return {
        "strategy": args.strategy,
        "params": dataclasses.asdict(params),
        "trials": args.trials,
        "seed": args.seed,
        "against_allocator": args.against_allocator,
        "attack_rate": rate(result.attack_rate),
        "attack_ci95": rate(result.ci95_attack),
        "detect_rate": rate(result.detect_rate),
        "detect_ci95": rate(result.ci95_detect),
        "neither_rate": rate(result.neither_rate),
        "series": None if series is None else rates.__name__,
        "series_final_attack": None if series is None else series.final_attack,
        "series_final_detect": None if series is None else series.final_detect,
        "elapsed_s": elapsed,
        # ru_maxrss is in KiB on Linux: the process's peak so far.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def cmd_simulate(args, out) -> int:
    b_values = _parse_b_values(args)
    rates = reference_rates(args.strategy)
    _validate_points(args, b_values, rates)
    status = 0
    for b in b_values:
        params = _params_for(args, b)
        started = time.perf_counter()
        if args.against_allocator:
            result = simulate_allocator_attack(
                args.strategy, size=args.s, rounds=args.rounds,
                trials=args.trials, seed=args.seed, m=params.m,
                write_len=args.l,
            )
            series = None
        else:
            result = simulate_strategy(args.strategy, params, args.trials, args.seed)
            series = rates(params)
        if args.json:
            record = _simulate_record(
                args, params, result, rates, series, time.perf_counter() - started)
            print(json.dumps(record), file=out)
            continue
        if series is None:
            print(f"b={b} strategy={args.strategy} trials={result.trials} "
                  f"rounds={result.rounds} seed={args.seed} (live allocator)", file=out)
            print(f"  attack:  {result.attack_rate:.6f} (±{result.ci95_attack:.6f})", file=out)
            print(f"  detect:  {result.detect_rate:.6f} (±{result.ci95_detect:.6f})", file=out)
            print(f"  neither: {result.neither_rate:.6f}", file=out)
            continue
        print(f"b={b} strategy={args.strategy} trials={result.trials} "
              f"rounds={result.rounds} seed={args.seed}", file=out)
        if result.undefined:
            print("  no trials requested; empirical rates undefined", file=out)
            continue
        print(f"  attack:  {result.attack_rate:.6f} (±{result.ci95_attack:.6f})  "
              f"series {series.final_attack:.6f}  "
              f"delta {result.attack_rate - series.final_attack:+.6f}", file=out)
        print(f"  detect:  {result.detect_rate:.6f} (±{result.ci95_detect:.6f})  "
              f"series {series.final_detect:.6f}  "
              f"delta {result.detect_rate - series.final_detect:+.6f}", file=out)
        print(f"  neither: {result.neither_rate:.6f}", file=out)
    return status


def _bench_worker(heap: ThreadHeap, size: int, count: int, times: list, barrier) -> None:
    addrs = array("Q")
    append = addrs.append
    malloc = heap.malloc
    free = heap.free
    barrier.wait()
    t0 = time.perf_counter_ns()
    for _ in range(count):
        append(malloc(size))
    t1 = time.perf_counter_ns()
    barrier.wait()
    t2 = time.perf_counter_ns()
    for address in addrs:
        free(address)
    t3 = time.perf_counter_ns()
    times.append((t1 - t0, t3 - t2))


def cmd_bench(args, out) -> int:
    cfg = config_from_env(seed=args.seed)
    total_ops = args.total_bytes // args.size
    if total_ops <= 0:
        raise ConfigError("total bytes must cover at least one allocation")
    nthreads = max(args.threads, 1)
    for rep in range(args.reps):
        backing = SimulatedBacking(page_size=cfg.page_size)
        pool = PagePool(backing)
        heaps = [ThreadHeap(cfg, backing=backing, pool=pool, stream_id=i)
                 for i in range(nthreads)]
        share = total_ops // nthreads
        counts = [share + (1 if i < total_ops - share * nthreads else 0)
                  for i in range(nthreads)]
        times: list = []
        if nthreads == 1:
            barrier = threading.Barrier(1)
            _bench_worker(heaps[0], args.size, counts[0], times, barrier)
        else:
            barrier = threading.Barrier(nthreads)
            workers = [
                threading.Thread(
                    target=_bench_worker,
                    args=(heaps[i], args.size, counts[i], times, barrier),
                )
                for i in range(nthreads)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join()
        malloc_ns = sum(t[0] for t in times) / total_ops
        free_ns = sum(t[1] for t in times) / total_ops
        print(f"rep={rep} size={args.size} ops={total_ops} threads={nthreads}", file=out)
        print(f"  malloc: {malloc_ns:10.1f} ns/op", file=out)
        print(f"  free:   {free_ns:10.1f} ns/op", file=out)
        # The heap/pool/backing graph is cyclic; collect now so the mapped
        # regions are returned to the OS before the next repetition rather
        # than whenever the cycle collector happens to run.
        del heaps, pool, backing
        gc.collect()
    return 0


# -- selftest -----------------------------------------------------------------


def _selftest_checks(sabotage: bool):
    yield "keyed-mac reference vectors", _check_mac_vectors
    yield "random stream reference vector", _check_rng_vector
    yield "size class table", _check_size_classes
    yield "overlap rate closed form vs enumeration", _check_overlap
    yield "detection smoke tests", _check_detections
    yield ("heap consistency sweep", lambda: _check_heap_consistency(sabotage))


def _check_mac_vectors() -> None:
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    vectors = [
        (b"", "bb1d6929e95937287fa37d129b756746"),
        (bytes.fromhex("6bc1bee22e409f96e93d7e117393172a"),
         "070a16b46b4d4144f79bdd9dd04a287c"),
    ]
    for message, expected in vectors:
        for backend in ("sw",) + (("hw",) if HAS_HARDWARE_BACKEND else ()):
            got = cmac_aes128(key, message, backend=backend)
            if got != bytes.fromhex(expected):
                raise AssertionError(f"mac mismatch ({backend}, len={len(message)})")


def _check_rng_vector() -> None:
    rng = PcgState(42, 54)
    expected = [0xA15C02B7, 0x7B47F409, 0xBA1D3330, 0x83D2F293, 0xBFA4784B]
    got = [rng.next32() for _ in range(5)]
    if got != expected:
        raise AssertionError(f"pcg stream mismatch: {[hex(v) for v in got]}")


def _check_size_classes() -> None:
    cfg = AllocatorConfig()
    classes = cfg.size_classes
    if len(classes) != 92:
        raise AssertionError(f"expected 92 size classes, got {len(classes)}")
    if classes != tuple(sorted(classes)) or any(b % 16 for b in classes):
        raise AssertionError("size classes must be sorted and 16-byte aligned")
    for request in (1, 16, 17, 100, 1024, 1025, 8192, 49152):
        b = cfg.class_for(request)
        if b is None or cfg.usable(b) < request:
            raise AssertionError(f"request {request} maps to unusable class {b}")


def _check_overlap() -> None:
    from .model import _enumerate_overlaps
    from fractions import Fraction
    for b, l, c in ((32, 4, 8), (16, 4, 8), (48, 1, 1), (64, 12, 5)):
        rate = fbc_overlap_D(b, l, c)
        hits = _enumerate_overlaps(b, l, c)
        brute = Fraction(hits, (b - l + 1) * (b - c + 1))
        if Fraction(rate) != brute:
            raise AssertionError(f"overlap mismatch at b={b} l={l} c={c}")
    if attack_rate_A(256, 32, 16) != Fraction(1, 512):
        raise AssertionError("reference attack rate mismatch")


def _check_detections() -> None:
    overrides = dict(seed=2024, guard_page_rate=0.0)
    heap = ThreadHeap(config_from_env(env={}, **overrides))
    a = heap.malloc(24)
    heap.free(a)
    try:
        heap.free(a)
        raise AssertionError("double free went unnoticed")
    except HeapCorruptionError as exc:
        if exc.report.kind != DetectionKind.DOUBLE_FREE:
            raise AssertionError(f"wrong detection kind {exc.report.kind}")
    heap = ThreadHeap(config_from_env(env={}, **overrides))
    a = heap.malloc(24)
    heap.backing.write(a, b"X" * 25)
    try:
        heap.free(a)
        raise AssertionError("overflow past requested size went unnoticed")
    except HeapCorruptionError as exc:
        if exc.report.kind != DetectionKind.HEAP_CANARY_TAMPER:
            raise AssertionError(f"wrong detection kind {exc.report.kind}")
    heap = ThreadHeap(config_from_env(env={}, **overrides))
    a = heap.malloc(24)
    try:
        heap.free(a + 16)
        raise AssertionError("offset free went unnoticed")
    except HeapCorruptionError as exc:
        if exc.report.kind != DetectionKind.INVALID_FREE:
            raise AssertionError(f"wrong detection kind {exc.report.kind}")


def _check_heap_consistency(sabotage: bool) -> None:
    heap = ThreadHeap(config_from_env(env={}, seed=77, guard_page_rate=0.0))
    live = []
    for i in range(2000):
        address = heap.malloc((i % 200) + 1)
        live.append(address)
        if i % 3 == 0:
            heap.free(live.pop(0))
    if sabotage:
        # Flip one occupancy bit behind the allocator's back, leaving the
        # free index untouched; the sweep must notice the disagreement.
        for bag in heap.bags:
            for gid in range(len(bag.taken)):
                if bag.taken[gid] == TAKEN:
                    bag.taken[gid] = FREE_FRESH
                    break
            else:
                continue
            break
    for bag in heap.bags:
        free_set = set(bag.free_ids)
        if len(free_set) != bag.n_free:
            raise AssertionError(f"class {bag.b}: free index contains duplicates")
        free_states = 0
        for gid in range(len(bag.taken)):
            state = bag.taken[gid]
            sb = bag.subbags[gid >> 8]
            if state == TAKEN:
                if bag.offset[gid] + max(bag.req[gid], 1) > bag.b:
                    raise AssertionError(
                        f"class {bag.b}: slot {gid} bookkeeping out of range")
                if gid in free_set:
                    raise AssertionError(
                        f"class {bag.b}: free index lists a taken slot")
            elif state in (FREE_FRESH, FREE_MAC):
                free_states += 1
                if gid not in free_set:
                    raise AssertionError(
                        f"class {bag.b}: slot {gid} marked free but missing "
                        f"from the free index")
                result = heap.check_fbc(sb, gid & 255)
                if not result.intact:
                    raise AssertionError(
                        f"class {bag.b}: free slot {gid} canary mismatch at "
                        f"offset {result.position}")
            elif state != GUARDED:
                raise AssertionError(f"class {bag.b}: slot {gid} has unknown state")
        if free_states != bag.n_free:
            raise AssertionError(
                f"class {bag.b}: {free_states} slots marked free but the index "
                f"holds {bag.n_free}")


def cmd_selftest(args, out) -> int:
    failures = 0
    for name, check in _selftest_checks(args.sabotage):
        try:
            check()
        except Exception as exc:  # deliberate: report any failure and continue
            failures += 1
            print(f"FAIL - {name}: {exc}", file=out)
        else:
            print(f"ok - {name}", file=out)
    if failures:
        print(f"FAILED ({failures} of 6 checks)", file=out)
        return 1
    print("PASSED", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="s2alloc",
        description="Canary-hardened slot allocator: models, simulations, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="print analytical rate series as CSV")
    _add_model_arguments(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="Monte Carlo the attack game")
    _add_model_arguments(p_sim)
    p_sim.add_argument("--trials", type=int, default=100_000,
                       help="independent trials (default 100000)")
    p_sim.add_argument("--seed", type=int, default=1, help="simulation seed (default 1)")
    p_sim.add_argument("--against-allocator", action="store_true",
                       help="drive the real allocator instead of the abstract game")
    p_sim.add_argument("--json", action="store_true",
                       help="print one JSON record per point instead of text")
    p_sim.set_defaults(func=cmd_simulate)

    p_bench = sub.add_parser("bench", help="measure allocator throughput")
    p_bench.add_argument("--size", type=int, required=True, help="allocation size in bytes")
    p_bench.add_argument("--total-bytes", type=int, default=1000 * (1 << 20),
                         help="bytes to allocate per repetition (default 1000 MiB)")
    p_bench.add_argument("--reps", type=int, default=1, help="repetitions (default 1)")
    p_bench.add_argument("--threads", type=int, default=1,
                         help="worker threads, each with its own heap (default 1)")
    p_bench.add_argument("--seed", type=int, default=1, help="allocator seed (default 1)")
    p_bench.set_defaults(func=cmd_bench)

    p_self = sub.add_parser("selftest", help="run built-in correctness checks")
    p_self.add_argument("--sabotage", action="store_true", help=argparse.SUPPRESS)
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except (ConfigError, ModelDomainError, ValueError) as exc:
        print(f"s2alloc: error: {exc}", file=sys.stderr)
        return 2
    except HeapCorruptionError as exc:
        print(f"s2alloc: corruption detected: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

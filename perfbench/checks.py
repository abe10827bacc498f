"""Output checks of the benchmark.

Each check tests a property of the program's output or compares it with an
independent computation; none compares against a stored copy of an earlier
run. A failed check raises CheckFailed.
"""

from __future__ import annotations

import math


class CheckFailed(AssertionError):
    pass


def check_address(address: int, what: str = "allocation") -> None:
    if address == 0:
        raise CheckFailed(f"{what} returned 0")
    if address % 16:
        raise CheckFailed(f"{what} returned {address:#x}, not 16-aligned")


def check_usable(usable: int, request: int, page_size: int | None = None) -> None:
    """A slot reports exactly the request (at least 1); a direct-mapped block
    (page_size given) reports the request rounded up to whole pages."""
    want = max(request, 1)
    if page_size is not None:
        want = -(-want // page_size) * page_size
    if usable != want:
        raise CheckFailed(f"usable_size {usable} for a request of {request}, expected {want}")


def check_no_overlap(intervals) -> None:
    """No two [start, end) intervals share a byte."""
    ordered = sorted(intervals)
    for (s0, e0), (s1, e1) in zip(ordered, ordered[1:]):
        if s1 < e0:
            raise CheckFailed(f"live objects overlap: [{s0:#x}, {e0:#x}) and [{s1:#x}, {e1:#x})")


def check_bytes(found: bytes, expected: bytes, what: str) -> None:
    if found != expected:
        at = next((i for i, (x, y) in enumerate(zip(found, expected)) if x != y),
                  min(len(found), len(expected)))
        raise CheckFailed(f"{what}: byte {at} of {len(expected)} differs")


def check_rates(attack: float, detect: float, neither: float, what: str) -> None:
    for name, rate in (("attack", attack), ("detect", detect), ("neither", neither)):
        if not 0.0 <= rate <= 1.0:
            raise CheckFailed(f"{what}: {name} rate {rate} outside [0, 1]")


def sigma(p: float, trials: int) -> float:
    p = min(max(p, 0.0), 1.0)
    return math.sqrt(p * (1.0 - p) / trials)


def check_within_3sigma(observed: float, predicted: float, trials: int, what: str) -> None:
    """Observed Monte Carlo rate within 3 binomial standard errors of the prediction."""
    if abs(observed - predicted) > 3.0 * sigma(predicted, trials):
        raise CheckFailed(f"{what}: {observed:.6f} is more than 3 sigma from {predicted:.6f}")


def abstract_attack_bound(rounds: int, m: int, r: int, placements: int) -> float:
    """Union bound on the abstract game's attack rate: the leading write plus
    one write per round, each hitting one of m victims with probability
    1/(r * placements)."""
    return (rounds + 1) * m / (r * placements)


def live_attack_bound(rounds: int, m: int, placements: int, min_free: int = 256) -> float:
    """Union bound on the live game's attack rate: each round's m victims are
    drawn uniformly from at least min_free free slots and a placement the
    attacker cannot see."""
    return m * rounds / (min_free * placements)


def check_attack_bound(observed: float, bound: float, trials: int, what: str) -> None:
    """Attack rate at most its union bound plus 3 standard errors."""
    if bound >= 1.0:
        return
    if observed > bound + 3.0 * sigma(bound, trials):
        raise CheckFailed(f"{what}: attack rate {observed:.6f} exceeds the bound {bound:.6f}")


def check_clamp_report(kind: str, request: int, placement: int, class_size: int,
                       canary_len: int) -> None:
    """Accept a report only as the known heap-canary clamp fault.

    When placement + request leaves fewer than canary_len bytes before the
    slot's end, the allocator moves the heap canary back onto the object's
    own last bytes, so writing the object in full trips HEAP_CANARY_TAMPER at
    free. The workloads write only within the requested bytes, so any other
    report, or this kind on an object with room for its canary, is a failure.
    """
    if kind != "HEAP_CANARY_TAMPER":
        raise CheckFailed(f"unexpected {kind} report")
    if placement + request + canary_len <= class_size:
        raise CheckFailed(
            f"HEAP_CANARY_TAMPER on an object written within its {request} bytes "
            f"at placement {placement} of a {class_size}-byte slot")

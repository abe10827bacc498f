"""Deterministic RNG: reference stream, bounded draws, stream separation."""

import pytest

from s2alloc.rng import BLOCK, PcgState, current_thread_id, heap_rng

_MASK64 = (1 << 64) - 1


class ScalarPcg:
    """Reference generator: one LCG step per output, as the published
    PCG-XSH-RR 64/32 code does it. The block generator must match it."""

    def __init__(self, seed, seq=0):
        self.inc = ((seq << 1) | 1) & _MASK64
        self.state = 0
        self.outputs = 0
        self.next32()
        self.state = (self.state + (seed & _MASK64)) & _MASK64
        self.next32()
        self.outputs = 0

    def next32(self):
        old = self.state
        self.state = (old * 6364136223846793005 + self.inc) & _MASK64
        self.outputs += 1
        xorshifted = (((old >> 18) ^ old) >> 27) & 0xFFFFFFFF
        rot = old >> 59
        return ((xorshifted >> rot) | (xorshifted << ((-rot) & 31))) & 0xFFFFFFFF

    def uniform_below(self, bound):
        threshold = (1 << 32) % bound
        while True:
            raw = self.next32()
            if raw >= threshold:
                return raw % bound

    def coin(self, rate):
        raw = self.next32()
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return raw < int(rate * (1 << 32))

# Output of the 64/32 xorshift-rotate generator for seed=42, sequence=54,
# cross-checked against the generator author's published reference output.
REFERENCE_STREAM = [
    0xA15C02B7, 0x7B47F409, 0xBA1D3330, 0x83D2F293, 0xBFA4784B,
    0xCBED606E, 0xBFC6A3AD, 0x812FFF6D, 0xE61F305A, 0xF9384B90,
]


def test_reference_stream():
    rng = PcgState(42, 54)
    assert [rng.next32() for _ in range(10)] == REFERENCE_STREAM


def test_streams_differ_by_sequence():
    a = PcgState(42, 54)
    b = PcgState(42, 55)
    assert [a.next32() for _ in range(8)] != [b.next32() for _ in range(8)]


def test_same_seed_same_stream():
    a, b = PcgState(7, 3), PcgState(7, 3)
    assert [a.next32() for _ in range(100)] == [b.next32() for _ in range(100)]


def test_uniform_below_256_is_low_byte():
    raw = PcgState(1234, 9)
    bounded = PcgState(1234, 9)
    for _ in range(2000):
        assert bounded.uniform_below(256) == raw.next32() & 0xFF


def test_uniform_below_range_and_errors():
    rng = PcgState(5, 5)
    for bound in (1, 2, 3, 7, 100, 2**16, 2**32):
        for _ in range(50):
            assert 0 <= rng.uniform_below(bound) < bound
    with pytest.raises(ValueError):
        rng.uniform_below(0)
    with pytest.raises(ValueError):
        rng.uniform_below(2**32 + 1)
    with pytest.raises(ValueError):
        rng.uniform_below(-4)


def test_uniform_below_one_consumes_a_draw():
    a, b = PcgState(11, 2), PcgState(11, 2)
    assert a.uniform_below(1) == 0
    b.next32()
    assert a.next32() == b.next32()


def test_coin_consumes_exactly_one_draw_at_any_rate():
    for rate in (0.0, 0.3, 1.0):
        a, b = PcgState(99, 1), PcgState(99, 1)
        a.coin(rate)
        b.next32()
        assert a.next32() == b.next32()


def test_coin_extremes():
    rng = PcgState(3, 3)
    assert not any(rng.coin(0.0) for _ in range(200))
    assert all(rng.coin(1.0) for _ in range(200))


def test_coin_rate_roughly_respected():
    rng = PcgState(123, 0)
    n = 20000
    hits = sum(rng.coin(0.1) for _ in range(n))
    # 5-sigma band around 0.1 * n
    sigma = (n * 0.1 * 0.9) ** 0.5
    assert abs(hits - 0.1 * n) < 5 * sigma


def test_bounded_draws_are_uniform_chi_square():
    # 7,000,000 draws over 7 buckets; chi-square with 6 degrees of freedom
    # has mean 6 and variance 12, so 6 + 5*sqrt(12) is a 5-sigma bound.
    rng = PcgState(20260814, 77)
    n = 7_000_000
    counts = [0] * 7
    draw = rng.uniform_below
    for _ in range(n):
        counts[draw(7)] += 1
    expected = n / 7
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 6 + 5 * (12 ** 0.5), (chi2, counts)


def test_heap_rng_deterministic_with_seed():
    a = heap_rng(31337, 4)
    b = heap_rng(31337, 4)
    assert [a.next32() for _ in range(16)] == [b.next32() for _ in range(16)]
    c = heap_rng(31337, 5)
    assert [a.next32() for _ in range(4)] != [c.next32() for _ in range(4)]


def test_heap_rng_unseeded_streams_differ():
    a = heap_rng(None, 4)
    b = heap_rng(None, 4)
    assert [a.next32() for _ in range(4)] != [b.next32() for _ in range(4)]


def test_current_thread_id_is_stable_int():
    assert isinstance(current_thread_id(), int)
    assert current_thread_id() == current_thread_id()


# Draws that interleave every kind of call: bounds 1 and 2**32 never reject,
# 3 rarely, 2**31 + 1 about half the time.
_SCHEDULE = [
    ("next32", None), ("uniform_below", 1), ("coin", 0.3), ("uniform_below", 3),
    ("uniform_below", 2**31 + 1), ("coin", 0.0), ("uniform_below", 2**32),
    ("uniform_below", 2**31 + 1), ("coin", 1.0), ("uniform_below", 2**31 + 1),
]


@pytest.mark.parametrize("seed, seq", [(42, 54), (0, 0), (2**64 - 1, 2**63 + 5),
                                       (-7, 3), (240201894, 0), (909, 140000)])
def test_block_generator_matches_scalar_reference(seed, seq):
    block, scalar = PcgState(seed, seq), ScalarPcg(seed, seq)
    crossings = 0  # rejected draws whose redraw starts a new block
    step = 0
    while scalar.outputs < 3 * BLOCK or crossings < 3:
        assert scalar.outputs < 400 * BLOCK, "too few rejections cross a block edge"
        op, arg = _SCHEDULE[step % len(_SCHEDULE)]
        step += 1
        before = scalar.outputs
        expected = getattr(scalar, op)() if arg is None else getattr(scalar, op)(arg)
        got = getattr(block, op)() if arg is None else getattr(block, op)(arg)
        assert got == expected, (step, op, arg)
        crossings += any(k % BLOCK == 0 for k in range(before + 1, scalar.outputs))
    assert [block.next32() for _ in range(2 * BLOCK + 3)] == \
        [scalar.next32() for _ in range(2 * BLOCK + 3)]

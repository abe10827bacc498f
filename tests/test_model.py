"""Rate model: exact rational anchors, series recurrences, domain rules, invariants."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from s2alloc.model import (
    MAX_ROUNDS,
    ModelDomainError,
    ModelParams,
    OverlapRate,
    WARN_ATTACK_PROB_CLAMPED,
    WARN_COMBINED_EXCEEDS_ONE,
    WARN_WINDOW_EXCEEDS_SLOTS,
    attack_rate_A,
    fbc_overlap_D,
    rates_for_strategy,
    s1_rates,
    s2_chain_rates,
    s2_rates,
)


# -- per-round attack success rate --------------------------------------------

def test_attack_rate_reference_values():
    assert attack_rate_A(256, 32, 16) == Fraction(1, 512)
    assert attack_rate_A(1, 16, 16) == Fraction(1)
    assert attack_rate_A(256, 64, 16) == Fraction(1, 1024)
    assert attack_rate_A(2048, 16, 16) == Fraction(1, 2048)


def test_attack_rate_is_exact_rational():
    rate = attack_rate_A(256, 32, 16)
    assert isinstance(rate, Fraction)
    assert (rate.numerator, rate.denominator) == (1, 512)


@given(
    r=st.integers(1, 4096),
    b=st.integers(1, 64).map(lambda v: 16 * v),
    s=st.integers(1, 1024),
)
def test_attack_rate_monotone_and_bounded(r, b, s):
    if s > b:
        return
    rate = attack_rate_A(r, b, s)
    assert 0 < rate <= 1
    assert attack_rate_A(r + 1, b, s) < rate  # more slots, harder exact hit
    if b - 16 >= max(s, 16):
        assert attack_rate_A(r, b - 16, s) >= rate  # fewer placements, easier


# -- canary/overwrite overlap probability -------------------------------------

def test_overlap_reference_values():
    anchors = [
        (32, 4, 8, Fraction(263, 725), "closed-form"),
        (32, 4, 2, Fraction(143, 899), "closed-form"),
        (1, 1, 1, Fraction(1), "closed-form"),
        (16, 4, 8, Fraction(29, 39), "enumeration"),
        (8192, 8, 8, Fraction(122719, 66994225), "closed-form"),
    ]
    for b, l, c, expected, method in anchors:
        rate = fbc_overlap_D(b, l, c)
        assert rate == expected, (b, l, c)
        assert rate.method == method, (b, l, c)


def test_overlap_is_overlap_rate_subtype():
    rate = fbc_overlap_D(32, 4, 8)
    assert isinstance(rate, OverlapRate)
    assert isinstance(rate, Fraction)


def test_overlap_closed_form_matches_enumeration_everywhere():
    # For every geometry where the closed form applies, brute-force pair
    # counting must agree exactly.
    for b in range(4, 65):
        for l in range(1, b + 1):
            for c in range(1, b + 1):
                if b < l + 2 * (c - 1):
                    continue
                rate = fbc_overlap_D(b, l, c)
                hits = sum(
                    1
                    for x in range(b - l + 1)
                    for f in range(b - c + 1)
                    if x <= f + c - 1 and f <= x + l - 1
                )
                assert rate == Fraction(hits, (b - l + 1) * (b - c + 1)), (b, l, c)
                assert rate.method == "closed-form"


def test_overlap_enumeration_path_used_when_closed_form_invalid():
    rate = fbc_overlap_D(8, 2, 8)
    assert rate.method == "enumeration"
    assert rate == Fraction(1)  # canary spans the whole slot: always overlapped


@given(
    b=st.integers(1, 256),
    l=st.integers(1, 256),
    c=st.integers(1, 256),
)
def test_overlap_bounds_and_symmetry(b, l, c):
    if l > b or c > b:
        return
    rate = fbc_overlap_D(b, l, c)
    assert 0 < rate <= 1
    assert fbc_overlap_D(b, c, l) == rate  # writing and canary roles are symmetric


def test_overlap_rejects_bad_geometry():
    with pytest.raises(ValueError):
        fbc_overlap_D(8, 9, 1)
    with pytest.raises(ValueError):
        fbc_overlap_D(8, 1, 9)
    with pytest.raises(ValueError):
        fbc_overlap_D(0, 1, 1)


# -- rate series ---------------------------------------------------------------

TABLE_POINT = ModelParams(r=256, b=32, s=16, l=4, c=2, d=2, m=1, rounds=500)


def test_stale_reference_series_anchor():
    series = s1_rates(TABLE_POINT)
    assert series.final_attack == pytest.approx(0.357041, abs=5e-6)
    assert series.final_detect == pytest.approx(0.564822, abs=5e-6)
    assert series.warnings == ()


def test_fresh_reference_series_anchor():
    series = s2_rates(TABLE_POINT)
    assert series.final_attack == pytest.approx(0.040839, abs=5e-6)
    assert series.final_detect == pytest.approx(0.961038, abs=5e-6)
    assert WARN_COMBINED_EXCEEDS_ONE in series.warnings
    # Putting the expected colored count into the miss product overstates
    # detection; the chain follows the count's distribution.
    chain = s2_chain_rates(TABLE_POINT)
    assert chain.final_detect < series.final_detect
    assert chain.final_attack > series.final_attack
    assert chain.warnings == ()


@pytest.mark.parametrize("r,d,m", [(1, 0, 1), (7, 6, 2), (7, 9, 1), (40, 39, 3)])
def test_chain_with_window_spanning_every_slot_is_closed_form(r, d, m):
    # Every window reads every slot, so the first colored slot is caught at
    # once: with S = 1 - mA entering round 1, each round adds mA*S to attack
    # and S*(1-mA)*D to detect, then S <- S*(1-mA)*(1-D).
    p = ModelParams(r=r, b=32, s=16, l=4, c=8, d=d, m=m, rounds=60)
    mA = m * float(attack_rate_A(r, 32, 16))
    D = float(fbc_overlap_D(32, 4, 8))
    survive, attack, detect = 1.0 - mA, mA, 0.0
    series = s2_chain_rates(p)
    for i in range(60):
        attack += mA * survive
        detect += survive * (1.0 - mA) * D
        assert series.p_e[i] == pytest.approx(survive, abs=1e-12)
        assert series.p_attack[i] == pytest.approx(attack, abs=1e-12)
        assert series.p_detect[i] == pytest.approx(detect, abs=1e-12)
        survive *= (1.0 - mA) * (1.0 - D)


def test_series_first_round_mass():
    series = s1_rates(ModelParams(r=256, b=32, s=16, l=4, c=8, d=2, m=1, rounds=1))
    m_attack = 1.0 / 512
    assert series.p_e[0] == pytest.approx(1.0 - m_attack, abs=1e-15)
    assert series.p_attack[0] >= m_attack


def test_series_row_lengths_match_rounds():
    params = ModelParams(r=64, b=32, s=16, l=4, c=8, d=1, m=1, rounds=17)
    for series in (s1_rates(params), s2_rates(params), s2_chain_rates(params)):
        assert len(series.p_e) == len(series.p_attack) == len(series.p_detect) == 17
        assert series.rounds == 17
        assert list(series.rows())[0][0] == 1
        assert list(series.rows())[-1][0] == 17


def test_zero_rounds_series_is_empty():
    params = ModelParams(r=64, b=32, s=16, l=4, c=8, d=1, m=1, rounds=0)
    for series in (s1_rates(params), s2_chain_rates(params)):
        assert series.p_e == [] and series.final_attack == 0.0
        assert series.final_detect == 0.0
        assert series.leading_attack > 0.0  # the would-be first attempt, informational


def test_spray_multiplies_per_round_attack():
    single = s1_rates(ModelParams(r=256, b=32, s=16, l=4, c=8, d=2, m=1, rounds=100))
    spray = s1_rates(ModelParams(r=256, b=32, s=16, l=4, c=8, d=2, m=4, rounds=100))
    assert spray.final_attack > single.final_attack * 3.0


def test_rate_overrides_take_precedence():
    params = ModelParams(r=256, b=32, s=16, l=4, c=8, d=2, m=1, rounds=50)
    inert = s1_rates(params, A=0.0, D=0.0)
    assert inert.final_attack == 0.0
    assert inert.final_detect == 0.0
    assert inert.p_e[-1] == 1.0
    certain = s1_rates(params, A=1.0)
    assert certain.final_attack == 1.0
    with pytest.raises(ValueError):
        s1_rates(params, A=1.5)
    with pytest.raises(ValueError):
        s2_rates(params, D=-0.1)


def test_fresh_reference_requires_window_inside_slots():
    with pytest.raises(ModelDomainError):
        s2_rates(ModelParams(r=4, b=32, s=16, l=4, c=8, d=2, m=1, rounds=5))
    # boundary: r = 2d + 1 is allowed
    s2_rates(ModelParams(r=5, b=32, s=16, l=4, c=8, d=2, m=1, rounds=5))


def test_window_clamp_warning():
    series = s1_rates(ModelParams(r=4, b=32, s=16, l=4, c=8, d=2, m=1, rounds=5))
    assert WARN_WINDOW_EXCEEDS_SLOTS in series.warnings


def test_attack_clamp_warning():
    params = ModelParams(r=1, b=16, s=16, l=4, c=8, d=0, m=3, rounds=2)
    for series in (s1_rates(params), s2_chain_rates(params)):
        assert WARN_ATTACK_PROB_CLAMPED in series.warnings
        assert series.final_attack <= 1.0


def test_rounds_cap():
    with pytest.raises(ValueError):
        ModelParams(r=256, b=32, s=16, l=4, c=8, d=2, m=1, rounds=MAX_ROUNDS + 1)
    ModelParams(r=256, b=32, s=16, l=4, c=8, d=2, m=1, rounds=MAX_ROUNDS)


def test_strategy_dispatch():
    params = ModelParams(r=256, b=32, s=16, l=4, c=8, d=2, m=4, rounds=10)
    assert rates_for_strategy("s1", params).final_attack == s1_rates(params).final_attack
    assert rates_for_strategy("S2-SPRAY", params).final_detect == \
        s2_rates(params).final_detect
    assert rates_for_strategy("s2_spray", params).final_detect == \
        s2_rates(params).final_detect
    with pytest.raises(ValueError):
        rates_for_strategy("s3", params)


@settings(max_examples=60, deadline=None)
@given(
    r=st.sampled_from([8, 32, 256, 2048]),
    b=st.sampled_from([16, 32, 64, 256]),
    l=st.integers(1, 8),
    c=st.integers(1, 8),
    d=st.integers(0, 3),
    m=st.integers(1, 4),
    rounds=st.integers(0, 400),
    strategy=st.sampled_from(["s1", "s2", "chain"]),
)
def test_series_entries_are_probabilities(r, b, l, c, d, m, rounds, strategy):
    if strategy == "s2" and r <= 2 * d:
        return
    params = ModelParams(r=r, b=b, s=16, l=l, c=c, d=d, m=m, rounds=rounds)
    if strategy == "chain":
        series = s2_chain_rates(params)
        assert series.final_attack + series.final_detect <= 1.0 + 1e-12
    else:
        series = rates_for_strategy(strategy, params)
    for name in ("p_e", "p_attack", "p_detect"):
        values = getattr(series, name)
        assert all(0.0 <= v <= 1.0 for v in values), name
    # cumulative series never decrease
    for name in ("p_attack", "p_detect"):
        values = getattr(series, name)
        assert all(a <= b_ + 1e-12 for a, b_ in zip(values, values[1:])), name
    # survivor mass never increases
    assert all(a >= b_ - 1e-12 for a, b_ in zip(series.p_e, series.p_e[1:]))
    # outcome masses are consistent: within rounding, attack + detect <= 1,
    # except for the fresh-reference double-counting the series flags itself
    if series.final_attack + series.final_detect > 1.0 + 1e-9:
        assert WARN_COMBINED_EXCEEDS_ONE in series.warnings

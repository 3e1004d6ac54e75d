"""Exact exponent algebra: closed forms, limits, classification, scaling."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memwave.criticality import (
    INF,
    DataTraits,
    VERDICT_TAGS,
    blow_up_scaling_exponents,
    classify,
    compute_exponents,
    fujita_exponent,
)

rational_gamma = st.fractions(
    min_value=Fraction(1, 100), max_value=Fraction(99, 100), max_denominator=100
)
rational_p = st.fractions(
    min_value=Fraction(101, 100), max_value=Fraction(12, 1), max_denominator=100
)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_fujita_values():
    assert fujita_exponent(1) == 3
    assert fujita_exponent(2) == 2
    assert fujita_exponent(3) == Fraction(5, 3)


def test_exponent_examples():
    exps = compute_exponents(1, 0.9)
    assert exps.p_c == 3
    assert float(exps.p_gamma) == pytest.approx(3.75)
    assert float(exps.p_1) == pytest.approx(4.0)
    assert exps.sobolev_cap == INF

    # vanishing positive part: n = 1, gamma = 1/2
    exps = compute_exponents(1, Fraction(1, 2))
    assert exps.p_gamma == INF
    assert exps.p_1 == INF

    # n = 3, gamma = 3/4: p_gamma = 1 + 2(5/4)/(5/2) = 2
    exps = compute_exponents(3, Fraction(3, 4))
    assert exps.p_gamma == Fraction(2)

    with pytest.raises(ValueError):
        compute_exponents(1, 0.0)
    with pytest.raises(ValueError):
        compute_exponents(0, 0.5)


def test_boundary_gamma_for_three_dimensions_is_exact():
    # at gamma = 11/16 the n = 3 global threshold meets the local-theory cap
    exps = compute_exponents(3, Fraction(11, 16))
    assert exps.p_3 == Fraction(3, 1)
    assert exps.sobolev_cap == Fraction(3, 1)
    assert exps.p_3 == exps.sobolev_cap
    # strictly below the cap once gamma exceeds 11/16
    above = compute_exponents(3, Fraction(12, 16))
    assert above.p_3 < above.sobolev_cap


def test_inv_gamma_identity_at_corner():
    # at gamma = (n-2)/n all three of p_gamma, 1/gamma, n/(n-2) coincide
    exps = compute_exponents(3, Fraction(1, 3))
    assert exps.p_gamma == exps.inv_gamma == exps.sobolev_cap == 3


@given(gamma=rational_gamma, n=st.integers(min_value=1, max_value=3))
@settings(max_examples=200, deadline=None)
def test_ordering_p_gamma_below_dimension_thresholds(n, gamma):
    if gamma * n <= n - 2:  # ordering claim applies above the corner
        return
    exps = compute_exponents(n, gamma)
    for other in (exps.p_n, exps.sobolev_cap):
        if other != INF and exps.p_gamma != INF:
            assert exps.p_gamma <= other


def test_limit_report_values():
    def limit_rows(n):
        return [compute_exponents(n, 1.0 - 10.0**-k) for k in range(2, 7)]

    target = float(fujita_exponent(1))
    rows1 = limit_rows(1)
    assert abs(float(rows1[-1].p_gamma) - target) <= 1e-4
    assert abs(float(rows1[-1].p_1) - target) <= 1e-4
    gaps = [abs(float(row.p_gamma) - target) for row in rows1]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))  # monotone approach

    rows2 = limit_rows(2)
    assert abs(float(rows2[-1].p_2) - 3.0) <= 1e-3

    rows3 = limit_rows(3)
    assert abs(float(rows3[-1].p_3) - 2.0) <= 1e-4


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_examples():
    positive = DataTraits(positive_mean=True)
    small = DataTraits(positive_mean=True, small_data=True, compact_support=True)

    verdict = classify(1, 0.9, 2.0, positive)
    assert verdict.tag == "BlowUpPositiveData"

    verdict = classify(1, 0.9, 4.5, small)
    assert verdict.tag == "GlobalSmallData"

    verdict = classify(1, 0.9, 3.9, small)
    assert verdict.tag == "OpenRegion"


def test_classify_boundary_conventions():
    positive = DataTraits(positive_mean=True)
    small = DataTraits(positive_mean=True, small_data=True, compact_support=True)
    small_not_positive = DataTraits(small_data=True, compact_support=True)
    # p = p_gamma belongs to the blow-up clause (closed inequality)
    verdict = classify(1, Fraction(9, 10), Fraction(15, 4), positive)
    assert verdict.tag == "BlowUpPositiveData"
    # at gamma = 1/2, n = 1: p_gamma = +inf, so positive-mean data blows up
    # for every p (no upper constraint)
    verdict = classify(1, Fraction(1, 2), 100.0, positive)
    assert verdict.tag == "BlowUpPositiveData"
    # gamma = 1/2 is excluded from the global window (open interval)
    verdict = classify(1, Fraction(1, 2), 100.0, small_not_positive)
    assert verdict.tag == "OutsideTheoremScope"
    # gamma = 11/16 is excluded for n = 3
    verdict = classify(3, Fraction(11, 16), 2.9, small)
    assert verdict.tag == "OutsideTheoremScope"


def test_classify_upper_open_strip_boundary():
    # the open strip is (p_gamma, p_n]: p exactly at the dimension threshold
    # classifies as open even with small compact data
    small = DataTraits(positive_mean=True, small_data=True, compact_support=True)
    verdict = classify(1, Fraction(9, 10), Fraction(4), small)  # p_1 = 4
    assert verdict.tag == "OpenRegion"
    just_above = classify(1, Fraction(9, 10), Fraction(401, 100), small)
    assert just_above.tag == "GlobalSmallData"


def test_classify_low_gamma_clause_for_n3():
    positive = DataTraits(positive_mean=True)
    verdict = classify(3, 0.2, 1.5, positive)  # gamma <= 1/3, p <= 3
    assert verdict.tag == "BlowUpPositiveData"
    assert "ii" in verdict.citation
    # without positive mean nothing is proven
    verdict = classify(3, 0.2, 1.5, DataTraits())
    assert verdict.tag == "OutsideTheoremScope"


def test_classify_requires_p_above_one():
    with pytest.raises(ValueError):
        classify(1, 0.9, 1.0, DataTraits())


@given(
    n=st.integers(min_value=1, max_value=3),
    gamma=rational_gamma,
    p=rational_p,
    positive=st.booleans(),
    small=st.booleans(),
    compact=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_classify_is_total(n, gamma, p, positive, small, compact):
    verdict = classify(
        n, gamma, p,
        DataTraits(positive_mean=positive, small_data=small, compact_support=compact),
    )
    assert verdict.tag in VERDICT_TAGS
    if verdict.tag != "OutsideTheoremScope":
        assert verdict.citation


# ---------------------------------------------------------------------------
# scaling exponents
# ---------------------------------------------------------------------------

def test_scaling_example_value():
    e1, e2 = blow_up_scaling_exponents(1, Fraction(9, 10), Fraction(2))
    assert e2 == Fraction(-7, 10)
    assert e1 == Fraction(-27, 10)
    assert e1 < e2


@given(n=st.integers(min_value=1, max_value=3), gamma=rational_gamma, p=rational_p)
@settings(max_examples=300, deadline=None)
def test_scaling_order_and_sign_equivalence(n, gamma, p):
    e1, e2 = blow_up_scaling_exponents(n, gamma, p)
    assert e1 < e2
    if n - 2 + 2 * gamma > 0:
        p_gamma = compute_exponents(n, gamma).p_gamma
        # sign(e2) matches sign(p - p_gamma) exactly, ties at equality
        diff = p - p_gamma
        if diff < 0:
            assert e2 < 0
        elif diff > 0:
            assert e2 > 0
        else:
            assert e2 == 0


def test_scaling_tie_is_exact():
    p_gamma = compute_exponents(1, Fraction(9, 10)).p_gamma  # = 15/4
    _, e2 = blow_up_scaling_exponents(1, Fraction(9, 10), p_gamma)
    assert e2 == 0


def test_sign_equivalence_thousand_samples():
    # fixed-seed rational sweep; exact arithmetic end to end
    import random

    rng = random.Random(12345)
    checked = 0
    while checked < 1000:
        n = rng.randint(1, 3)
        gamma = Fraction(rng.randint(1, 99), 100)
        p = 1 + Fraction(rng.randint(1, 1100), 100)
        if n - 2 + 2 * gamma <= 0:
            continue
        p_gamma = compute_exponents(n, gamma).p_gamma
        _, e2 = blow_up_scaling_exponents(n, gamma, p)
        assert (e2 < 0) == (p < p_gamma)
        assert (e2 == 0) == (p == p_gamma)
        checked += 1

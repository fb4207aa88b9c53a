"""Chern calculus operations: frozen values and algebraic identities."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fano_acm import (
    ChernData,
    FanoThreefold,
    chi_twist,
    complement_in_trivial,
    curve_invariants,
    dual,
    euler_char,
    forced_c2,
    forced_c3,
    format_rational,
    serre_chern,
    twist,
    whitney_sum,
)
from support import (
    VARIETIES,
    chi_line_poly,
    genus_via_chi_bookkeeping,
    third_difference,
)

S_C = ChernData(2, -1, 2, 0)
S_E = ChernData(2, 0, 2, 0)
S_L = ChernData(2, 0, 1, 0)
O = ChernData.trivial(1)


# --- strategies -------------------------------------------------------------

@st.composite
def chern_data(draw, max_rank=6, spread=30):
    rank = draw(st.integers(0, max_rank))
    if rank == 0:
        return ChernData(0, 0, 0, 0)
    c1 = draw(st.integers(-spread, spread))
    c2 = 0 if rank == 1 else draw(st.integers(-spread, spread))
    c3 = 0 if rank <= 2 else draw(st.integers(-spread, spread))
    return ChernData(rank, c1, c2, c3)


varieties = st.sampled_from(VARIETIES)
small_ints = st.integers(-8, 8)


# --- type invariants --------------------------------------------------------

def test_fano_threefold_rejects_other_degrees():
    for d in (0, 1, 2, 6, -3):
        with pytest.raises(ValueError):
            FanoThreefold(d)


def test_chern_data_vanishing_above_rank():
    with pytest.raises(ValueError):
        ChernData(0, 1, 0, 0)
    with pytest.raises(ValueError):
        ChernData(1, 2, 1, 0)
    with pytest.raises(ValueError):
        ChernData(2, 1, 2, 5)
    with pytest.raises(ValueError):
        ChernData(-1, 0, 0, 0)
    ChernData(3, 1, 2, 5)  # no constraint above rank 2


# --- twist ------------------------------------------------------------------

def test_twist_of_sc_by_one():
    assert twist(S_C, FanoThreefold(3), 1) == ChernData(2, 1, 2, 0)


def test_twist_by_zero_is_identity():
    X = FanoThreefold(4)
    for c in (S_C, S_L, ChernData(3, 2, 7, 2), ChernData.trivial(0)):
        assert twist(c, X, 0) == c


def test_twist_of_se_by_one_at_d5():
    assert twist(S_E, FanoThreefold(5), 1) == ChernData(2, 2, 7, 0)


@settings(max_examples=200)
@given(chern_data(), varieties, small_ints, small_ints)
def test_twist_additivity(c, X, s, t):
    assert twist(twist(c, X, s), X, t) == twist(c, X, s + t)


# --- euler_char / chi_twist -------------------------------------------------

def test_chi_of_polarization_is_d_plus_2():
    for X in VARIETIES:
        assert euler_char(ChernData.line_bundle(1), X) == X.d + 2
        # independent route: the chi(O(t)) cubic at t = 1
        assert chi_line_poly(X.d, 1) == X.d + 2


def test_chi_of_sl_is_one():
    for X in VARIETIES:
        assert euler_char(S_L, X) == 1


def test_chi_of_rank3_block_at_d5():
    assert euler_char(ChernData(3, 2, 8, 2), FanoThreefold(5)) == 10


def euler_char_five_terms(c, X):
    # Riemann-Roch term by term, as the five-Fraction sum it is stated as
    d = X.d
    return (
        Fraction(d * c.c1**3 - 3 * c.c1 * c.c2, 6)
        + Fraction(d * c.c1**2 - 2 * c.c2, 2)
        + Fraction((d + 3) * c.c1, 3)
        + Fraction(c.c3, 2)
        + c.rank
    )


@st.composite
def large_chern_data(draw):
    return ChernData(
        draw(st.integers(3, 10**9)),
        draw(st.integers(-10**6, 10**6)),
        draw(st.integers(-10**9, 10**9)),
        draw(st.integers(-10**9, 10**9)),
    )


@settings(max_examples=500)
@given(st.one_of(chern_data(), large_chern_data()), varieties)
def test_euler_char_matches_five_term_formula(c, X):
    assert euler_char(c, X) == euler_char_five_terms(c, X)


def test_chi_twist_of_line_matches_cubic():
    for X in VARIETIES:
        for t in range(-6, 7):
            assert chi_twist(O, X, t) == chi_line_poly(X.d, t)


def test_chi_twist_of_line_d3_closed_form():
    X = FanoThreefold(3)
    for t in range(-5, 6):
        expected = Fraction(t**3, 2) + Fraction(3 * t**2, 2) + 2 * t + 1
        assert chi_twist(O, X, t) == expected


def test_chi_vanishing_of_sc1_at_minus_one_minus_two():
    sc1 = ChernData(2, 1, 2, 0)
    for X in VARIETIES:
        assert chi_twist(sc1, X, -1) == 0
        assert chi_twist(sc1, X, -2) == 0


@settings(max_examples=200)
@given(chern_data(), varieties)
def test_chi_cubic_leading_coefficient(c, X):
    lead6 = third_difference(lambda t: chi_twist(c, X, t))
    assert lead6 == c.rank * X.d


# --- whitney_sum ------------------------------------------------------------

def test_whitney_sc1_squared():
    sc1 = ChernData(2, 1, 2, 0)
    for X in VARIETIES:
        assert whitney_sum(sc1, sc1, X) == ChernData(4, 2, X.d + 4, 4)


def test_whitney_neutral_element():
    X = FanoThreefold(5)
    zero = ChernData.trivial(0)
    for c in (S_C, ChernData(3, 1, 3, 1)):
        assert whitney_sum(c, zero, X) == c
        assert whitney_sum(zero, c, X) == c


def test_whitney_sc1_plus_f33_exposes_table_misprint():
    # forced values are the independent oracle: forced c3 at (r, c1) = (5, 4)
    # is 4d+12, not the table's printed 4d+2
    sc1 = ChernData(2, 1, 2, 0)
    for X in VARIETIES:
        f33 = ChernData(3, 3, 3 * X.d + 3, X.d + 3)
        total = whitney_sum(sc1, f33, X)
        assert total == ChernData(5, 4, 6 * X.d + 5, 4 * X.d + 12)
        assert total.c2 == forced_c2(X, 5, 4)
        assert total.c3 == forced_c3(X, 5, 4)


@settings(max_examples=200)
@given(chern_data(), chern_data(), varieties)
def test_whitney_commutative(a, b, X):
    assert whitney_sum(a, b, X) == whitney_sum(b, a, X)


@settings(max_examples=200)
@given(chern_data(), chern_data(), chern_data(), varieties)
def test_whitney_associative(a, b, c, X):
    lhs = whitney_sum(whitney_sum(a, b, X), c, X)
    rhs = whitney_sum(a, whitney_sum(b, c, X), X)
    assert lhs == rhs


@settings(max_examples=200)
@given(chern_data(), chern_data(), varieties, small_ints)
def test_twist_distributes_over_whitney(a, b, X, t):
    lhs = twist(whitney_sum(a, b, X), X, t)
    rhs = whitney_sum(twist(a, X, t), twist(b, X, t), X)
    assert lhs == rhs


@settings(max_examples=200)
@given(chern_data(), chern_data(), varieties, small_ints)
def test_chi_additive_over_whitney(a, b, X, t):
    assert chi_twist(whitney_sum(a, b, X), X, t) == chi_twist(a, X, t) + chi_twist(b, X, t)


# --- dual -------------------------------------------------------------------

def test_dual_of_sc1_is_sc():
    sc1 = ChernData(2, 1, 2, 0)
    assert dual(sc1) == S_C
    for X in VARIETIES:
        assert dual(sc1) == twist(sc1, X, -1)


def test_dual_sign_rule_and_involution():
    c = ChernData(3, 2, 8, 2)
    assert dual(c) == ChernData(3, -2, 8, -2)
    assert dual(dual(c)) == c


@settings(max_examples=200)
@given(st.integers(-20, 20), st.integers(-40, 40), varieties)
def test_rank2_self_duality(c1, c2, X):
    c = ChernData(2, c1, c2, 0)
    assert dual(c) == twist(c, X, -c1)


@settings(max_examples=300)
@given(chern_data(), varieties, small_ints)
def test_serre_duality_for_chi(c, X, t):
    assert chi_twist(dual(c), X, -2 - t) == -chi_twist(c, X, t)


# --- complement_in_trivial ----------------------------------------------------

def test_complement_example_rank7():
    X = FanoThreefold(5)
    g = ChernData(3, 2, 8, 2)
    F = complement_in_trivial(g, 10, X)
    assert F == ChernData(7, 2, 12, 10)
    assert (F.c2, F.c3) == (forced_c2(X, 7, 2), forced_c3(X, 7, 2))
    # defining property, checked through the public ops
    assert whitney_sum(dual(F), g, X) == ChernData.trivial(10)


def test_complement_of_trivial_is_trivial():
    X = FanoThreefold(3)
    assert complement_in_trivial(ChernData.trivial(3), 7, X) == ChernData.trivial(4)


def test_complement_requires_larger_n():
    X = FanoThreefold(3)
    with pytest.raises(ValueError):
        complement_in_trivial(ChernData(3, 1, 3, 1), 3, X)


def test_complement_with_no_valid_solution_raises():
    # solving Whitney for O(1) inside O^2 forces k = (1, -1, 3, -3), which is
    # not valid rank-1 Chern data; no complement exists
    X = FanoThreefold(3)
    with pytest.raises(ValueError):
        complement_in_trivial(ChernData.line_bundle(1), 2, X)


# --- serre_chern --------------------------------------------------------------

def test_serre_chern_rational_curve_series():
    for X in VARIETIES:
        for r in range(2, 9):
            assert serre_chern(X, r, 1, r, 0) == ChernData(r, 1, r, r - 2)


def test_serre_chern_high_genus_curve():
    for X in VARIETIES:
        d = X.d
        assert serre_chern(X, 3, 3, 3 * d + 3, 2 * d + 4) == ChernData(
            3, 3, 3 * d + 3, d + 3
        )


def test_serre_chern_elliptic_curve_rank2():
    assert serre_chern(FanoThreefold(3), 2, 2, 5, 1) == ChernData(2, 2, 5, 0)


def test_serre_chern_rejects_bad_input():
    X = FanoThreefold(3)
    with pytest.raises(ValueError):
        serre_chern(X, 1, 1, 1, 0)
    with pytest.raises(ValueError):
        serre_chern(X, 3, 1, 0, 0)


# --- curve_invariants ---------------------------------------------------------

def test_curve_invariants_frozen_values():
    assert curve_invariants(FanoThreefold(3), 3, 1) == (3, 0)
    for X in VARIETIES:
        assert curve_invariants(X, 3, 3) == (3 * X.d + 3, 2 * X.d + 4)
    # degree matches the rank-7 block on V_5; genus from the formula
    assert curve_invariants(FanoThreefold(5), 7, 2) == (12, 6)


def test_curve_invariants_refuses_a_rank_below_2():
    # r - 1 sections cut out a curve only for r >= 2
    for X in VARIETIES:
        for r in (1, 0, -1):
            with pytest.raises(ValueError, match=rf"^rank must be >= 2, got {r}$"):
                curve_invariants(X, r, 1)


def test_curve_invariants_always_integral():
    for X in VARIETIES:
        for r in range(2, 51):
            c1_min = -(-r // X.d)
            for c1 in range(c1_min, r + 1):
                degree, genus = curve_invariants(X, r, c1)
                assert isinstance(degree, int) and isinstance(genus, int)


def test_curve_invariants_agree_with_chi_bookkeeping():
    for X in VARIETIES:
        for r in range(2, 21):
            for c1 in range(-(-r // X.d), r + 1):
                degree, genus = curve_invariants(X, r, c1)
                assert degree == forced_c2(X, r, c1)
                assert genus == genus_via_chi_bookkeeping(X, r, c1)


# --- rational formatting --------------------------------------------------------

def test_format_rational():
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(0)) == "0"
    assert format_rational(7) == "7"

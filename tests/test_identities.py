"""Polynomial identities the fast paths rely on, proved with sympy.

The library functions run unchanged on symbolic stand-ins for their integer
inputs.  ``Exact`` wraps an integer polynomial: ``// m`` divides exactly and
``% m`` reports whether m divides the polynomial at every integer point.  An
integer polynomial taken mod m is periodic with period m in each variable,
so checking every point of {0, ..., m-1}^n settles divisibility everywhere;
the floor division in the code is then exact division.  What is asserted
below therefore holds for all integers, not only for samples.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import pytest

sp = pytest.importorskip("sympy")

from fano_acm import (  # noqa: E402
    BLOCKS,
    ChernData,
    chi_twist,
    curve_invariants,
    dual,
    euler_char,
    forced_c2,
    forced_c3,
    twist,
    whitney_power,
    whitney_sum,
)
from fano_acm.catalog import _linear_in_d, _whitney_total  # noqa: E402


def _divides(m: int, e) -> bool:
    symbols = sorted(e.free_symbols, key=str)
    if symbols:
        assert all(c.is_integer for c in sp.Poly(e, *symbols).coeffs()), e
    return all(
        e.subs(dict(zip(symbols, point))) % m == 0
        for point in itertools.product(range(m), repeat=len(symbols))
    )


class Exact:
    """An integer polynomial standing in for an int."""

    def __init__(self, e):
        self.e = sp.expand(sp.sympify(e))

    @staticmethod
    def _of(other):
        return other.e if isinstance(other, Exact) else other

    def __add__(self, other):
        return Exact(self.e + self._of(other))

    __radd__ = __add__

    def __sub__(self, other):
        return Exact(self.e - self._of(other))

    def __rsub__(self, other):
        return Exact(self._of(other) - self.e)

    def __mul__(self, other):
        return Exact(self.e * self._of(other))

    __rmul__ = __mul__

    def __neg__(self):
        return Exact(-self.e)

    def __pow__(self, n: int):
        return Exact(self.e**n)

    def __floordiv__(self, m: int):
        assert _divides(m, self.e), f"{m} does not divide {self.e}"
        return Exact(self.e / m)

    def __mod__(self, m: int) -> int:
        return 0 if _divides(m, self.e) else 1

    def __eq__(self, other):
        return sp.expand(self.e - self._of(other)) == 0

    def __lt__(self, other):
        # a relational sympy cannot decide raises TypeError here
        return bool(self.e < self._of(other))


def _symbols(names: str, **assumptions):
    return [Exact(s) for s in sp.symbols(names, integer=True, **assumptions)]


d, r, c1, t, c1a, c1b, p0, p1, q0, q1, u0, u1, v0, v1 = _symbols(
    "d r c1 t c1a c1b p0 p1 q0 q1 u0 u1 v0 v1"
)
# ranks of at least 3 and copy counts of at least 0, so that the range checks
# in ChernData and whitney_power decide; the formulas are polynomials in
# them either way
s_a, s_b, k = _symbols("s_a s_b k", nonnegative=True)
X = SimpleNamespace(d=d)


def _linear(e: Exact | int) -> bool:
    return sp.degree(sp.sympify(Exact._of(e)), d.e) <= 1


def _free_of_d(e: Exact | int) -> bool:
    return d.e not in sp.sympify(Exact._of(e)).free_symbols


# --- the rank-linear census rows ---------------------------------------------------

def test_forced_c2_is_its_rank_0_value_plus_rank():
    assert forced_c2(X, r, c1) == forced_c2(X, 0, c1) + r


def test_forced_c3_is_its_rank_2_value_plus_c1_per_rank():
    assert forced_c3(X, r, c1) == forced_c3(X, 2, c1) + c1 * (r - 2)


def test_curve_genus_is_its_rank_2_value_plus_c1_minus_1_per_rank():
    rank = s_a + 2  # curve_invariants refuses rank < 2
    degree, genus = curve_invariants(X, rank, c1)
    degree_2, genus_2 = curve_invariants(X, 2, c1)
    assert degree == forced_c2(X, rank, c1) == degree_2 + (rank - 2)
    assert genus == genus_2 + (c1 - 1) * (rank - 2)


def test_forced_classes_match_the_printed_closed_forms():
    de, re_, ce = d.e, r.e, c1.e
    half, sixth, third = sp.Rational(1, 2), sp.Rational(1, 6), sp.Rational(1, 3)
    assert forced_c2(X, r, c1) == de * ce**2 * half + re_ - de * ce * half
    assert forced_c3(X, r, c1) == (
        -2 * ce + ce * re_ - de * ce**2 * half + de * ce**3 * sixth + de * ce * third
    )


# --- linear in d: the interpolated symbolic table columns ----------------------------

def _shaped(rank, c1_, c2_0, c2_1, c3_0, c3_1) -> ChernData:
    """Chern data with c1 free of d and c2, c3 linear in d."""
    return ChernData(rank, c1_, c2_0 + c2_1 * d, c3_0 + c3_1 * d)


def _keeps_shape(c: ChernData) -> bool:
    return (
        _free_of_d(c.rank) and _free_of_d(c.c1) and _linear(c.c2) and _linear(c.c3)
    )


def test_twist_keeps_c2_c3_linear_in_d():
    assert _keeps_shape(twist(_shaped(s_a + 3, c1a, p0, p1, q0, q1), X, t))


def test_whitney_sum_keeps_c2_c3_linear_in_d():
    a = _shaped(s_a + 3, c1a, p0, p1, q0, q1)
    b = _shaped(s_b + 3, c1b, u0, u1, v0, v1)
    assert _keeps_shape(whitney_sum(a, b, X))


def test_whitney_power_keeps_c2_c3_linear_in_d():
    assert _keeps_shape(whitney_power(_shaped(s_a + 3, c1a, p0, p1, q0, q1), X, k))


def test_every_block_starts_linear_in_d():
    for spec in BLOCKS.values():
        assert _keeps_shape(spec.base_chern(X)), spec.family


def test_three_degrees_recover_a_linear_polynomial():
    a, b = _symbols("a b")
    poly = _linear_in_d(tuple(a + b * n for n in (3, 4, 5)))
    assert (poly.const, poly.d_coeff) == (a, b)


# --- forced classes under Whitney sums, and Whitney powers -------------------------

def _forced(rank, c1_) -> ChernData:
    return ChernData(rank, c1_, forced_c2(X, rank, c1_), forced_c3(X, rank, c1_))


def test_forced_classes_are_closed_under_whitney_sum():
    # ranks of at least 3, so that ChernData accepts the forced tail; both
    # sides are polynomials in the ranks, so the identity holds at every rank
    r1, r2 = s_a + 3, s_b + 3
    assert whitney_sum(_forced(r1, c1a), _forced(r2, c1b), X) == _forced(
        r1 + r2, c1a + c1b
    )


def test_whitney_power_is_the_k_fold_whitney_sum():
    # induction on k: no copies are the zero sheaf, and k + 1 copies are k
    # copies plus one more
    c = ChernData(s_a + 3, c1a, p0, q0)
    assert whitney_power(c, X, 0) == ChernData.trivial(0)
    assert whitney_power(c, X, k + 1) == whitney_sum(whitney_power(c, X, k), c, X)


# --- the one-pass Whitney total of a Decomposition ----------------------------------

def test_whitney_total_of_no_summands_is_the_zero_sheaf():
    assert _whitney_total(d, 0, 0, 0, 0, 0, 0, 0) == ChernData.trivial(0)


def test_whitney_total_adds_a_summand_as_whitney_sum_does():
    # Induction on the number of summands, the empty sum being the case
    # above.  The power sums of any multiset of integers a_i are
    #   s1,  s2 = s1^2 - 2 e2,  s3 = s1^3 - 3 s1 e2 + 3 e3
    # for integers e2, e3 (Newton's identities); written so, the exact
    # divisions of the closed form are visible to Exact's // check.
    s1, e2, e3, sum_c2, sum_c3, sum_c1c2, a, b, c = _symbols(
        "s1 e2 e3 sum_c2 sum_c3 sum_c1c2 a b c"
    )
    # ranks of at least 3 so that ChernData's checks decide; both sides are
    # polynomials in the ranks, so the identity holds at every rank
    rank, summand_rank = s_a + 3, s_b + 3

    def power_sums(s1, e2, e3):
        return s1, s1 * s1 - 2 * e2, s1**3 - 3 * s1 * e2 + 3 * e3

    p1, p2, p3 = power_sums(s1, e2, e3)
    # one more summand a keeps that form, with e2 + a s1 and e3 + a e2
    assert (p1 + a, p2 + a * a, p3 + a**3) == power_sums(s1 + a, e2 + a * s1, e3 + a * e2)
    before = _whitney_total(d, rank, p1, p2, p3, sum_c2, sum_c3, sum_c1c2)
    after = _whitney_total(
        d, rank + summand_rank, p1 + a, p2 + a * a, p3 + a**3,
        sum_c2 + b, sum_c3 + c, sum_c1c2 + a * b,
    )
    assert after == whitney_sum(before, ChernData(summand_rank, a, b, c), X)


# --- twists: additive in the twist, distributive over Whitney sums ------------------

def test_twist_is_additive_in_the_twist():
    # F(s)(t) = F(s + t); u0 stands for the twist s
    c = ChernData(s_a + 3, c1a, p0, q0)
    assert twist(twist(c, X, u0), X, t) == twist(c, X, u0 + t)


def test_twist_distributes_over_whitney_sums():
    # (A + B)(t) = A(t) + B(t)
    a = ChernData(s_a + 3, c1a, p0, q0)
    b = ChernData(s_b + 3, c1b, u0, v0)
    assert twist(whitney_sum(a, b, X), X, t) == whitney_sum(
        twist(a, X, t), twist(b, X, t), X
    )


# --- Riemann-Roch: additivity, Serre duality, the defining vanishing ---------------

@pytest.fixture
def exact_chi(monkeypatch):
    # euler_char divides by 6 through Fraction, which takes only rationals;
    # divide the polynomial exactly instead
    monkeypatch.setattr(
        "fano_acm.chow.Fraction", lambda n, m: Exact(sp.Rational(1, m) * Exact._of(n))
    )


def test_chi_is_additive_over_whitney_sums(exact_chi):
    a = ChernData(s_a + 3, c1a, p0, q0)
    b = ChernData(s_b + 3, c1b, u0, v0)
    assert euler_char(whitney_sum(a, b, X), X) == euler_char(a, X) + euler_char(b, X)


def test_serre_duality_for_chi(exact_chi):
    # chi(F(t)) = -chi(F*(-2 - t)), since K = O(-2) on V_d; t = 0 is
    # chi(F) = -chi(F*(-2))
    c = ChernData(s_a + 3, c1a, p0, q0)
    assert chi_twist(c, X, t) == -chi_twist(dual(c), X, -2 - t)
    assert euler_char(c, X) == -chi_twist(dual(c), X, -2)


def test_forced_classes_have_chi_of_minus_1_and_minus_2_twists_zero(exact_chi):
    # the paper's defining condition, which forced_c2 and forced_c3 solve
    c = _forced(s_a + 3, c1)
    assert chi_twist(c, X, -1) == 0
    assert chi_twist(c, X, -2) == 0

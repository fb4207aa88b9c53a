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
import math
from types import SimpleNamespace

import pytest

sp = pytest.importorskip("sympy")

from fano_acm import (  # noqa: E402
    BLOCKS,
    BlockId,
    ChernData,
    FanoThreefold,
    Family,
    TwistOf,
    block_chern,
    chi_twist,
    curve_invariants,
    dual,
    euler_char,
    forced_c2,
    forced_c3,
    serre_chern,
    twist,
    whitney_power,
    whitney_sum,
)
from fano_acm import rank2  # noqa: E402
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

    def __le__(self, other):
        return bool(self.e <= self._of(other))


def _symbols(names: str, **assumptions):
    return [Exact(s) for s in sp.symbols(names, integer=True, **assumptions)]


# d positive, so that serre_chern's check of a curve degree such as d + 2
# decides when a block is built from its construction
d = Exact(sp.Symbol("d", integer=True, positive=True))
r, c1, t, c1a, c1b, p0, p1, q0, q1, u0, u1, v0, v1 = _symbols(
    "r c1 t c1a c1b p0 p1 q0 q1 u0 u1 v0 v1"
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


def _chern_product(a: ChernData, b: ChernData) -> ChernData:
    """The reference for every Whitney sum, independent of chow: c(A) c(B),
    each written c = 1 + c1 H + (c2/d) H^2 + (c3/d) H^3 in Q(d)[H]/(H^4),
    since H^2 = dL and H^3 = dP; then c2 = d [H^2] and c3 = d [H^3]."""
    H, de = sp.Symbol("H"), d.e

    def chern_polynomial(c: ChernData):
        c1_, c2_, c3_ = (Exact._of(e) for e in (c.c1, c.c2, c.c3))
        return 1 + c1_ * H + c2_ / de * H**2 + c3_ / de * H**3

    product = sp.expand(chern_polynomial(a) * chern_polynomial(b))
    return ChernData(a.rank + b.rank, Exact(product.coeff(H, 1)),
                     Exact(de * product.coeff(H, 2)), Exact(de * product.coeff(H, 3)))


def test_whitney_sum_is_the_product_of_chern_polynomials():
    a = ChernData(s_a + 3, c1a, p0, q0)
    b = ChernData(s_b + 3, c1b, u0, v0)
    assert whitney_sum(a, b, X) == _chern_product(a, b)


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
    assert whitney_power(c, X, k + 1) == _chern_product(whitney_power(c, X, k), c)


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
    assert after == _chern_product(before, ChernData(summand_rank, a, b, c))


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


# --- the rank-2 rule table ------------------------------------------------------------

_MODEL_FAMILIES = (Family.SL, Family.SC, Family.SE)


def test_rank2_rule_table_holds_each_model_base_at_any_d():
    # the base (c1, c2) of S_L, S_C and S_E, as polynomials in d, are free
    # of d, so the one table read on V_3 serves every degree
    assert list(rank2._RULES) == list(_MODEL_FAMILIES)
    for family, (b1, b2) in rank2._RULES.items():
        base = BLOCKS[family].base_chern(X)
        assert (base.rank, base.c1, base.c2, base.c3) == (2, b1, b2, 0), family


def test_rank2_rule_c2_is_the_rank_2_twist():
    # the rule's c2 of a model's twist by t is chow.twist's, d and t symbolic
    for family, (b1, b2) in rank2._RULES.items():
        assert rank2._model_c2(d, b1, b2, t) == twist(ChernData(2, b1, b2, 0), X, t).c2, family


@pytest.mark.parametrize("n", [3, 4, 5])
def test_classify_rank2_solves_each_model_twist(n):
    # on V_n, with t symbolic: classify_rank2 finds each model's twist by t
    # from its twisted (c1, c2), and TwistOf.chern gives those classes back
    V = FanoThreefold(n)
    for family in _MODEL_FAMILIES:
        c = twist(block_chern(BlockId(family), V), V, t)
        assert rank2.classify_rank2(V, c.c1, c.c2) == TwistOf(family, t)
        assert TwistOf(family, t).chern(V) == c


def _times_d(e) -> bool:
    """Whether e is d times a polynomial with integer coefficients."""
    q = sp.cancel(Exact._of(e) / d.e)
    return q.is_polynomial(*q.free_symbols) and all(
        c.is_integer for c in sp.Poly(q, *sorted(q.free_symbols, key=str)).coeffs()
    )


def test_rank2_families_are_disjoint():
    # classify_rank2 takes the first match, which is then the only one.
    # Split sums O(a) + O(b) have c2 = d a b = 0 mod d.  A model's twist by
    # t has c1 = b1 + 2t and c2 = b2 mod d: S_C's b1 is odd, so its c1 is
    # odd; S_L and S_E have even c1 and, at the same c1, the same t and
    # c2 = 1 + d t^2 and 2 + d t^2, neither 0 mod d as d >= 3.
    a, b = _symbols("a b")
    assert _times_d(whitney_sum(ChernData.line_bundle(a), ChernData.line_bundle(b), X).c2)
    table = rank2._RULES
    for family, (b1, b2) in table.items():
        assert _divides(2, Exact._of(twist(ChernData(2, b1, b2, 0), X, t).c1 - b1))
        assert _times_d(rank2._model_c2(d, b1, b2, t) - b2) and 0 < b2 < 3, family
    assert table[Family.SC][0] % 2 == 1
    assert table[Family.SL][0] == table[Family.SE][0] == 0
    assert rank2._model_c2(d, 0, table[Family.SL][1], t) == 1 + d * t * t
    assert rank2._model_c2(d, 0, table[Family.SE][1], t) == 2 + d * t * t


# --- twists from the splitting principle ------------------------------------------

# Four ranks: both sides of the twist identity below are polynomials of
# degree at most 3 in r, so agreeing at four ranks they agree at every r.
_TWIST_RANKS = (3, 4, 5, 6)


def _ring_product(x, y):
    """Product of x0 + x1 H + x2 L + x3 P and y0 + y1 H + y2 L + y3 P in
    the Chow ring of V_d: H.L = P, H^2 = dL, H^3 = dP, degree 4 is zero."""
    return (
        x[0] * y[0],
        x[0] * y[1] + x[1] * y[0],
        x[0] * y[2] + x[2] * y[0] + d * x[1] * y[1],
        x[0] * y[3] + x[3] * y[0] + x[1] * y[2] + x[2] * y[1],
    )


def _splitting_twist(c: ChernData, tw) -> ChernData:
    """c_k(F(tw)) = sum_i C(r-i, k-i) c_i(F) (tw H)^(k-i), evaluated in the
    ring, with C(n, m) = n (n-1) ... (n-m+1) / m!, a polynomial in n."""
    r = c.rank
    classes = ((1, 0, 0, 0), (0, c.c1, 0, 0), (0, 0, c.c2, 0), (0, 0, 0, c.c3))
    powers = [(1, 0, 0, 0)]
    for _ in range(3):
        powers.append(_ring_product(powers[-1], (0, tw, 0, 0)))
    return ChernData(r, *(
        sum(
            sp.ff(r - i, k - i) / math.factorial(k - i)
            * _ring_product(classes[i], powers[k - i])[k]
            for i in range(k + 1)
        )
        for k in (1, 2, 3)
    ))


@pytest.mark.parametrize("r", _TWIST_RANKS)
def test_splitting_principle_gives_the_binomial_twist(r):
    # with Chern roots x_j, c(F(t)) = prod_j (1 + x_j + tH); its degree-k
    # part is sum_i C(r-i, k-i) e_i(x) (tH)^(k-i), e_i(x) being c_i(F)
    xs, y = sp.symbols(f"x1:{r + 1}"), sp.Symbol("y")
    product = sp.Poly(sp.prod(1 + x + y for x in xs), *xs, y)
    e = [sp.Add(*(sp.Mul(*m) for m in itertools.combinations(xs, i))) for i in range(4)]
    for k in (1, 2, 3):
        part = sp.Add(*(
            coeff * sp.Mul(*(v**n for v, n in zip((*xs, y), monom)))
            for monom, coeff in product.terms() if sum(monom) == k
        ))
        binomial = sp.Add(*(math.comb(r - i, k - i) * e[i] * y ** (k - i) for i in range(k + 1)))
        assert sp.expand(part - binomial) == 0, (r, k)


@pytest.mark.parametrize("r", _TWIST_RANKS)
def test_twist_is_the_splitting_principle_twist(r):
    c = ChernData(r, c1a, p0, q0)
    assert twist(c, X, t) == _splitting_twist(c, t)


def test_every_block_twisted_by_1_is_its_splitting_principle_twist():
    # the twist-1 entries of catalog._block_table, at ranks 1 to 7 and any d
    for spec in BLOCKS.values():
        base = spec.base_chern(X)
        assert twist(base, X, 1) == _splitting_twist(base, 1), spec.family


def test_twist_is_cubic_in_the_rank():
    # what lets four ranks stand for all of them; C(r-i, k-i) with
    # k - i <= 3 is cubic in r by its product formula
    twisted = twist(ChernData(s_a + 3, c1a, p0, q0), X, t)
    assert all(sp.degree(Exact._of(e), s_a.e) <= 3 for e in twisted.tuple())


# --- Riemann-Roch: Hirzebruch, additivity, Serre duality, the defining vanishing --

@pytest.fixture
def exact_chi(monkeypatch):
    # euler_char divides by 6 through Fraction, which takes only rationals;
    # divide the polynomial exactly instead
    monkeypatch.setattr(
        "fano_acm.chow.Fraction", lambda n, m: Exact(sp.Rational(1, m) * Exact._of(n))
    )


def _ring_sum(*xs):
    return tuple(sum(parts) for parts in zip(*xs))


def _ring_scale(q, x):
    return tuple(q * e for e in x)


def test_td3_of_v_d_is_1_exactly_when_c2_of_the_tangent_bundle_is_12_l():
    # V_d has index 2, so c1(T) = 2H; with c2(T) = g L, chi(O) = td_3 =
    # c1(T) c2(T) / 24 = 1 forces g = 12
    g = sp.Symbol("g")
    td3 = Exact._of(_ring_product((0, 2, 0, 0), (0, 0, g, 0))[3]) / 24
    assert sp.solve(td3 - 1, g) == [12]


def test_euler_char_is_hirzebruch_riemann_roch(exact_chi):
    # chi(F) = deg (ch(F) td(V_d))_3 in the ring of _ring_product, P of
    # degree 1, for symbolic d, r, c1, c2 = p0 and c3 = q0; euler_char
    # reads only the four classes, so F need not pass ChernData's checks
    half, sixth, twelfth = sp.Rational(1, 2), sp.Rational(1, 6), sp.Rational(1, 12)
    cT1, cT2 = (0, 2, 0, 0), (0, 0, 12, 0)
    td = _ring_sum(
        (1, 0, 0, 0),
        _ring_scale(half, cT1),
        _ring_scale(twelfth, _ring_sum(_ring_product(cT1, cT1), cT2)),
        _ring_scale(sp.Rational(1, 24), _ring_product(cT1, cT2)),
    )
    f1, f2, f3 = (0, c1, 0, 0), (0, 0, p0, 0), (0, 0, 0, q0)
    f1_2 = _ring_product(f1, f1)
    ch = _ring_sum(
        (r, 0, 0, 0),
        f1,
        _ring_scale(half, _ring_sum(f1_2, _ring_scale(-2, f2))),
        _ring_scale(sixth, _ring_sum(
            _ring_product(f1_2, f1), _ring_scale(-3, _ring_product(f1, f2)),
            _ring_scale(3, f3),
        )),
    )
    F = SimpleNamespace(rank=r, c1=c1, c2=p0, c3=q0)
    assert td == (1, 1, (d + 3) * sp.Rational(1, 3), 1)
    assert euler_char(F, X) == _ring_product(ch, td)[3]


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


# --- the Serre construction: three derivations of c3 agree -------------------------

def test_serre_chern_c3_balances_chi_across_the_sequence(exact_chi):
    # 0 -> O^{r-1} -> F -> I_D(c1) -> 0 and 0 -> I_D(c1) -> O(c1) -> O_D(c1) -> 0
    # give chi(F) = (r-1) chi(O) + chi(O(c1)) - chi(O_D(c1)), and Riemann-Roch
    # on D, of degree deg = H.D and arithmetic genus p_a, gives
    # chi(O_D(c1)) = c1 deg + 1 - p_a.  chi(F) is linear in c3 with slope
    # 1/2, so the balance has one solution.
    rank, degree, genus = s_a + 2, s_b + 1, u0
    target = (
        (rank - 1) * euler_char(ChernData.trivial(1), X)
        + euler_char(ChernData.line_bundle(c1), X)
        - (c1 * degree + 1 - genus)
    )
    unknown = sp.Symbol("c3")
    chi = euler_char(ChernData(rank, c1, degree, Exact(unknown)), X)
    (c3,) = sp.solve(Exact._of(chi - target), unknown)
    assert serre_chern(X, rank, c1, degree, genus) == ChernData(rank, c1, degree, Exact(c3))


@pytest.mark.parametrize("case", ["c1 >= 1", "c1 <= 0"])
def test_serre_chern_of_the_forced_curve_has_the_forced_classes(case):
    # the curve of curve_invariants carries forced_c2 and forced_c3.  d > 0,
    # and c1 = n + 1 or -n with n >= 0, so that sympy decides the degree's
    # positivity, which serre_chern checks; together the cases cover every c1
    V = SimpleNamespace(d=Exact(sp.Symbol("dp", integer=True, positive=True)))
    n = Exact(sp.Symbol("n", integer=True, nonnegative=True))
    rank, c1_ = s_a + 2, n + 1 if case == "c1 >= 1" else -n
    degree, genus = curve_invariants(V, rank, c1_)
    assert serre_chern(V, rank, c1_, degree, genus) == ChernData(
        rank, c1_, forced_c2(V, rank, c1_), forced_c3(V, rank, c1_)
    )

"""Exact Chern class and Riemann-Roch calculus on the index-2 Fano threefolds V_d.

V_d is the degree-d Fano threefold of index 2 with cyclic Picard group: a
cubic in P^4 (d = 3), a complete intersection of two quadrics in P^5 (d = 4)
or a triple hyperplane section of the Grassmannian G(1,4) in P^9 (d = 5).
The even cohomology is generated by the hyperplane class H, the line class L
and the point class P, multiplying as

    H.L = P,    H^2 = d.L,    H^3 = d.P,

and the canonical class is K = -2H.  Chern classes of a sheaf are recorded as
the integer coefficients against H, L and P, so every operation in this
module is exact integer or rational arithmetic.  There is no floating point
and no tolerance anywhere in this package.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

__all__ = [
    "InternalError",
    "Rational",
    "format_rational",
    "FanoThreefold",
    "ChernData",
    "twist",
    "euler_char",
    "chi_twist",
    "whitney_sum",
    "whitney_power",
    "dual",
    "complement_in_trivial",
    "serre_chern",
    "curve_invariants",
    "forced_c2",
    "forced_c3",
]


class InternalError(ValueError):
    """An invariant of the library's own arithmetic failed: a bug, not bad
    input.  A ValueError, so callers that catch ValueError still do."""


# Exact rationals, always stored reduced with positive denominator.
Rational = Fraction


def format_rational(q: Fraction | int) -> str:
    """Render a rational as "p/q" reduced, or as a bare integer when q = 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _binom2(n: int) -> int:
    # n(n-1)/2 for any integer n (math.comb rejects negatives)
    return n * (n - 1) // 2


def _binom3(n: int) -> int:
    # n(n-1)(n-2)/6; three consecutive integers are divisible by 6
    return n * (n - 1) * (n - 2) // 6


class FanoThreefold(namedtuple("FanoThreefold", "d")):
    """The ambient variety V_d.  Only d = 3, 4, 5 occur in this family."""

    __slots__ = ()

    def __new__(cls, d: int) -> "FanoThreefold":
        if d not in (3, 4, 5):
            raise ValueError(f"V_d requires d in {{3, 4, 5}}, got d={d}")
        return super().__new__(cls, d)

    @classmethod
    def _make(cls, iterable) -> "FanoThreefold":
        # namedtuple's _make, which _replace calls, would skip the check
        return cls(*iterable)

    def __str__(self) -> str:
        return f"V_{self.d}"


class _Record:
    """Base of the slotted records ChernData, catalog.BlockId and
    catalog.Decomposition: repr from the ``_fields``, equality with the same
    class only, hash and pickling from their ``_values()``, and a
    dataclass's FrozenInstanceError on assignment and deletion."""

    __slots__ = ()

    def __setattr__(self, name: str, *value) -> None:
        import dataclasses  # on this error path only, to keep it off the import path
        verb = "assign to" if value else "delete"
        raise dataclasses.FrozenInstanceError(f"cannot {verb} field {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()

    @classmethod
    def _setters(cls) -> list:
        # the setters of the class's own slots, in order, which bypass __setattr__
        return [cls.__dict__[name].__set__ for name in cls.__slots__]


class ChernData(_Record):
    """Chern classes of a rank-r sheaf, as integers in the H/L/P basis.

    Chern classes above the rank vanish, so rank <= 2 forces the tail to
    zero; the rank-0 zero sheaf has no Chern classes at all.  Rank-2 data
    always carries c3 = 0, which keeps Whitney sums uniform across ranks.
    """

    __slots__ = _fields = __match_args__ = ("rank", "c1", "c2", "c3")

    def __init__(self, rank: int, c1: int, c2: int, c3: int) -> None:
        # in this order: a symbolic rank may not decide rank < 3
        if rank < 0:
            raise ValueError(f"rank must be non-negative, got {rank}")
        if rank == 0 and (c1, c2, c3) != (0, 0, 0):
            raise ValueError("rank 0 forces c1 = c2 = c3 = 0")
        if rank == 1 and (c2, c3) != (0, 0):
            raise ValueError("rank 1 forces c2 = c3 = 0")
        if rank == 2 and c3 != 0:
            raise ValueError("rank 2 forces c3 = 0")
        _set_rank(self, rank)
        _set_c1(self, c1)
        _set_c2(self, c2)
        _set_c3(self, c3)

    @classmethod
    def line_bundle(cls, a: int) -> "ChernData":
        """Chern data of O(a)."""
        return cls(1, a, 0, 0)

    @classmethod
    def trivial(cls, rank: int) -> "ChernData":
        """Chern data of O^rank (rank 0 gives the zero sheaf)."""
        return cls(rank, 0, 0, 0)

    def tuple(self) -> tuple[int, int, int, int]:
        return (self.rank, self.c1, self.c2, self.c3)


_set_rank, _set_c1, _set_c2, _set_c3 = ChernData._setters()


def twist(c: ChernData, X: FanoThreefold, t: int) -> ChernData:
    """Chern data of F(t) = F (x) O(tH) for F with Chern data ``c``.

    c1 -> c1 + r t
    c2 -> c2 + (r-1) t c1 d + C(r,2) t^2 d
    c3 -> c3 + (r-2) c2 t + C(r-1,2) c1 t^2 d + C(r,3) t^3 d

    The formulas keep out-of-range classes at zero for rank <= 2, so the
    result is always a valid ChernData.  Any integer t is accepted.
    """
    d, r = X.d, c.rank
    return ChernData(
        r,
        c.c1 + r * t,
        c.c2 + (r - 1) * t * c.c1 * d + _binom2(r) * t * t * d,
        c.c3
        + (r - 2) * c.c2 * t
        + _binom2(r - 1) * c.c1 * t * t * d
        + _binom3(r) * t**3 * d,
    )


def euler_char(c: ChernData, X: FanoThreefold) -> Fraction:
    """Riemann-Roch Euler characteristic chi(F) on V_d, as an exact rational.

    chi(F) = (d c1^3 - 3 c1 c2)/6 + (d c1^2 - 2 c2)/2 + (d+3) c1/3 + c3/2 + r

    Integrality is a property of the input being the Chern data of an actual
    sheaf; it is never assumed or enforced here.
    """
    d, c1, c2 = X.d, c.c1, c.c2
    return Fraction(
        d * c1**3
        - 3 * c1 * c2
        + 3 * d * c1**2
        - 6 * c2
        + 2 * (d + 3) * c1
        + 3 * c.c3
        + 6 * c.rank,
        6,
    )


def chi_twist(c: ChernData, X: FanoThreefold, t: int) -> Fraction:
    """chi(F(t)); as a function of t a cubic with leading coefficient r d / 6."""
    return euler_char(twist(c, X, t), X)


def whitney_sum(a: ChernData, b: ChernData, X: FanoThreefold) -> ChernData:
    """Chern data of a direct sum, from c(A + B) = c(A).c(B).

    The c1.c1 cross term carries a factor d (H^2 = dL), the c1.c2 cross
    terms a factor 1 (H.L = P).
    """
    d = X.d
    return ChernData(
        a.rank + b.rank,
        a.c1 + b.c1,
        a.c2 + b.c2 + d * a.c1 * b.c1,
        a.c3 + b.c3 + a.c1 * b.c2 + a.c2 * b.c1,
    )


def whitney_power(c: ChernData, X: FanoThreefold, k: int) -> ChernData:
    """Chern data of the direct sum of k >= 0 copies, from c(E^k) = c(E)^k.

    c1 -> k c1
    c2 -> k c2 + C(k,2) d c1^2
    c3 -> k c3 + 2 C(k,2) c1 c2 + C(k,3) d c1^3

    Equal to k - 1 iterated whitney_sum calls, in constant time.
    """
    if k < 0:
        raise ValueError(f"number of copies must be non-negative, got {k}")
    d = X.d
    return ChernData(
        k * c.rank,
        k * c.c1,
        k * c.c2 + _binom2(k) * d * c.c1**2,
        k * c.c3 + 2 * _binom2(k) * c.c1 * c.c2 + _binom3(k) * d * c.c1**3,
    )


def dual(c: ChernData) -> ChernData:
    """Chern data of the dual: c_i -> (-1)^i c_i."""
    return ChernData(c.rank, -c.c1, c.c2, -c.c3)


def complement_in_trivial(g: ChernData, n: int, X: FanoThreefold) -> ChernData:
    """Chern data of F = K* for the kernel K of a surjection O^n ->> G.

    Solves whitney_sum(k, g) = trivial of rank n for the unique integer
    solution k and returns dual(k).  Raises ValueError when n <= rank(g),
    or when the solved k violates the rank-vanishing constraints on Chern
    data (possible only for n - rank(g) <= 2; no bundle complement exists
    in that case).
    """
    if n <= g.rank:
        raise ValueError(f"need n > rank; got n={n}, rank={g.rank}")
    d = X.d
    try:
        k = ChernData(
            n - g.rank,
            -g.c1,
            d * g.c1**2 - g.c2,
            -g.c3 + 2 * g.c1 * g.c2 - d * g.c1**3,
        )
    except ValueError as exc:
        raise ValueError(
            f"no rank-{n - g.rank} complement of {g.tuple()} inside O^{n}: {exc}"
        ) from None
    if whitney_sum(k, g, X) != ChernData.trivial(n):
        raise InternalError("internal error: Whitney solution failed to verify")
    return dual(k)


def serre_chern(
    X: FanoThreefold,
    rank: int,
    c1: int,
    curve_degree: int,
    curve_genus: int,
) -> ChernData:
    """Chern data of the rank-r bundle attached to a curve D of the given
    degree and arithmetic genus via 0 -> O^{r-1} -> F -> I_D(c1) -> 0.

    c2 is the curve degree; c3 = 2 p_a - 2 + deg (2 - c1), the unique value
    balancing chi across the sequence.
    """
    if rank < 2:
        raise ValueError(f"rank must be >= 2, got {rank}")
    if curve_degree <= 0:
        raise ValueError(f"curve degree must be positive, got {curve_degree}")
    c3 = 2 * curve_genus - 2 + curve_degree * (2 - c1)
    return ChernData(rank, c1, curve_degree, c3)


def forced_c2(X: FanoThreefold, rank: int, c1: int) -> int:
    """c2 = d c1^2/2 + r - d c1/2, the unique second class compatible with
    chi(F(-1)) = chi(F(-2)) = 0.  Integral for every c1: c1(c1-1) is even."""
    num = X.d * c1 * (c1 - 1)
    if num % 2:
        raise InternalError("internal error: forced c2 is not an integer")
    return num // 2 + rank


def forced_c3(X: FanoThreefold, rank: int, c1: int) -> int:
    """c3 = -2 c1 + c1 r - d c1^2/2 + d c1^3/6 + d c1/3, equivalently
    c1 (r-2) + d c1(c1-1)(c1-2)/6, which is integral for every c1."""
    return c1 * (rank - 2) + X.d * _binom3(c1)


def curve_invariants(X: FanoThreefold, rank: int, c1: int) -> tuple[int, int]:
    """Degree and arithmetic genus of the curve cut out by r-1 general
    sections of a rank-r bundle carrying the forced Chern classes.

    degree = forced_c2(X, r, c1)
    genus  = (c1-1)(r-1) - d c1^2 + d c1^3/3 + 2 d c1/3

    Both are exact integers; a non-integral value raises (it cannot occur,
    since c1(c1-1)(c1-2) is divisible by 3).
    """
    if rank < 2:
        raise ValueError(f"rank must be >= 2, got {rank}")
    degree = forced_c2(X, rank, c1)
    num = X.d * c1 * (c1 - 1) * (c1 - 2)
    if num % 3:
        raise InternalError("internal error: genus formula is not an integer")
    genus = (c1 - 1) * (rank - 1) + num // 3
    return degree, genus

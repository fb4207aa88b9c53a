"""Decision procedure for rank-2 invariants on V_d.

Up to twist, the indecomposable rank-2 bundles without intermediate
cohomology are exactly S_L, S_C and S_E; decomposable ones are sums of two
line bundles.  Given (d, c1, c2) this module decides which of those models
(if any) carries these invariants.

The procedure is purely numerical: it answers "which classified bundle has
these invariants", never "is a given bundle ACM" (the latter is a
cohomological question outside the scope of this library).  Twists are found
by exact parity/solve steps, never by a bounded scan, so arbitrarily large
inputs are handled correctly.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .catalog import _VARIETIES, BlockId, Family, block_chern
from .chow import ChernData, FanoThreefold, whitney_sum

__all__ = [
    "TwistOf",
    "SplitLineBundles",
    "NoACMBundle",
    "NO_ACM_BUNDLE",
    "Rank2Verdict",
    "classify_rank2",
]

class TwistOf(namedtuple("TwistOf", "family twist")):
    """The query invariants belong to family(t), family being SL, SC or SE,
    for a unique twist t."""

    __slots__ = ()

    @property
    def kind(self) -> str:
        return f"TwistOf{self.family.name}"

    def chern(self, X: FanoThreefold) -> ChernData:
        b1, b2 = _RULES[self.family]
        t = self.twist
        return ChernData(2, b1 + 2 * t, _model_c2(X.d, b1, b2, t), 0)

    def render(self) -> str:
        return BlockId(self.family, self.twist).render()

    def to_json(self) -> dict:
        return {"kind": self.kind, "twist": self.twist}


class SplitLineBundles(namedtuple("SplitLineBundles", "a b")):
    """The query invariants belong to O(a) + O(b), a >= b."""

    __slots__ = ()
    kind = "split"

    def chern(self, X: FanoThreefold) -> ChernData:
        return whitney_sum(
            ChernData.line_bundle(self.a), ChernData.line_bundle(self.b), X
        )

    def render(self) -> str:
        return f"O({self.a}) ⊕ O({self.b})"

    def to_json(self) -> dict:
        return {"kind": self.kind, "a": self.a, "b": self.b}


class NoACMBundle(namedtuple("NoACMBundle", "")):
    """No bundle without intermediate cohomology has the query invariants."""

    __slots__ = ()
    kind = "none"

    def __bool__(self) -> bool:
        return True  # a verdict, not an empty tuple

    def to_json(self) -> dict:
        return {"kind": self.kind}


NO_ACM_BUNDLE = NoACMBundle()

Rank2Verdict = TwistOf | SplitLineBundles | NoACMBundle


# The base (c1, c2) of S_L, S_C and S_E in classify_rank2's order; free of d, read on V_3.
_RULES: dict[Family, tuple[int, int]] = {
    family: (c.c1, c.c2)
    for family in (Family.SL, Family.SC, Family.SE)
    for c in (block_chern(BlockId(family), _VARIETIES[0]),)
}


def _model_c2(d: int, b1: int, b2: int, t: int) -> int:
    """c2 of the twist by t of a rank-2 model with base (c1, c2) = (b1, b2):
    the rank-2 case of chow.twist, c2 + (r-1) t c1 d + C(r,2) t^2 d."""
    return b2 + d * t * (b1 + t)


def _match_split(X: FanoThreefold, c1: int, c2: int) -> tuple[int, int] | None:
    # a + b = c1 and d a b = c2: integer roots of x^2 - c1 x + c2/d.
    if c2 % X.d:
        return None
    q = c2 // X.d
    disc = c1 * c1 - 4 * q
    if disc < 0:
        return None
    s = math.isqrt(disc)
    if s * s != disc or (c1 + s) % 2:
        return None
    return ((c1 + s) // 2, (c1 - s) // 2)


def classify_rank2(X: FanoThreefold, c1: int, c2: int) -> Rank2Verdict:
    """Decide which rank-2 model on V_d has invariants (c1, c2).

    Tries the twists of S_L (c1 even, c2 = 1 + d t^2 at c1 = 2t), of S_C
    (c1 odd) and of S_E (c1 even), then the split pair O(a) + O(b).  The
    four families are disjoint (c2 mod d separates split from the models,
    parity separates S_C, and S_L/S_E twists differ by 1 in c2), so the
    first match is the only one.  Each model's twist solves c1 = b1 + 2t
    by parity, its base (b1, b2) read from _RULES.
    """
    d = X.d
    for family, (b1, b2) in _RULES.items():
        if not (c1 - b1) % 2:
            t = (c1 - b1) // 2
            if _model_c2(d, b1, b2, t) == c2:
                return TwistOf(family, t)
    ab = _match_split(X, c1, c2)
    if ab is not None:
        return SplitLineBundles(*ab)
    return NO_ACM_BUNDLE

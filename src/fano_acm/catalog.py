"""The named building-block bundles on V_d and the machine-checkable census table.

A small collection of standard bundles without intermediate cohomology
generates, under direct sums and twists, every invariant realized at small
rank: the rank-2 bundles S_L, S_C, S_E attached to a line, a conic and an
elliptic curve of degree d+2, and the F_{r,c} series of higher-rank bundles.
This module stores their exact Chern data, their availability per degree d,
and a verbatim transcription of the classical rank <= 7 census table (one
historically misprinted entry included).  verify_table1 recomputes every row
and reports mismatches; the stored data is never silently corrected.

A block's Chern data at twist 0 depends only on its family and d, so it is
cached per (family, variety), at most 30 entries filled on first use.  So
is its data at twist 1, which covers S_C(1) and S_E(1), the only twisted
blocks of the table and of every witness; other twists are computed on
each call, since they are unbounded.  The symbolic table columns
(polynomials in d) are read off the numeric Whitney sums at d = 3, 4, 5:
every such sum is linear in d, so two degrees determine the polynomial and
the third checks it.

BlockSpec, DPoly, TableRow and Discrepancy, like the package's other value
records, are collections.namedtuple subclasses with ``__slots__ = ()``, equal
to a plain tuple of their fields.  BlockId, Decomposition and chow.ChernData
are frozen records with ``__slots__`` (chow._Record), each equal only to its
own class; a BlockId keeps its (family order, twist) sort key in a slot,
and a Decomposition stores only its block counts, expanding ``blocks`` from
them on each read.  Counts given in canonical order are stored as given,
without a sort, and the Chern data of a Decomposition is one pass over its
counts into the closed form of _whitney_total: no pairwise Whitney sums.
"""

from __future__ import annotations

import enum
import functools
from collections import namedtuple
from collections.abc import Callable
from operator import itemgetter

from .chow import (
    ChernData,
    FanoThreefold,
    InternalError,
    _Record,
    euler_char,
    forced_c2,
    forced_c3,
    twist,
)

__all__ = [
    "Family",
    "BlockId",
    "BlockSpec",
    "BLOCKS",
    "UnavailableBlock",
    "block_available",
    "block_chern",
    "Decomposition",
    "DPoly",
    "TableRow",
    "Discrepancy",
    "table1_rows",
    "verify_table1",
    "table_export_rows",
    "TABLE_EXPORT_COLUMNS",
]


class Family(enum.Enum):
    """The block families; the enum value is the display name."""

    OV = "O_V"
    SL = "S_L"
    SC = "S_C"
    SE = "S_E"
    F31 = "F_{3,1}"
    F32 = "F_{3,2}"
    F33 = "F_{3,3}"
    F41 = "F_{4,1}"
    F51 = "F_{5,1}"
    F72 = "F_{7,2}"

    # members are singletons: identity hashing is exact, and it is a C
    # slot where Enum's own hash of the member name is Python code
    __hash__ = object.__hash__


_FAMILY_ORDER = {fam: i for i, fam in enumerate(Family)}


class UnavailableBlock(ValueError):
    """Raised when a block family is not defined on the requested V_d."""


class BlockId(_Record):
    """A catalog block: a family together with a twist, e.g. S_C(1)."""

    __slots__ = ("family", "twist", "_key")
    _fields = __match_args__ = ("family", "twist")

    def __init__(self, family: Family, twist: int = 0) -> None:
        _set_family(self, family)
        _set_twist(self, twist)
        _set_key(self, (_FAMILY_ORDER[family], twist))

    def sort_key(self) -> tuple[int, int]:
        return self._key

    def render(self) -> str:
        if self.twist == 0:
            return self.family.value
        return f"{self.family.value}({self.twist})"

    def to_json(self) -> dict:
        return {"family": self.family.name, "twist": self.twist}


_set_family, _set_twist, _set_key = BlockId._setters()


class BlockSpec(namedtuple("BlockSpec", "family rank base_c1 d_set provenance")):
    """Static data of one block family: rank, Chern data at twist 0 as a
    function of d, availability (``d_set``, a frozenset of degrees), and a
    short provenance note."""

    __slots__ = ()

    def base_chern(self, X: FanoThreefold) -> ChernData:
        c2, c3 = _BASE_TAIL[self.family]
        return ChernData(self.rank, self.base_c1, c2(X.d), c3(X.d))

    def h0(self, X: FanoThreefold) -> int:
        # chi of the block; these blocks have no higher cohomology at twist 0
        chi = euler_char(self.base_chern(X), X)
        if chi.denominator != 1:
            raise InternalError(f"internal error: chi of {self.family} not integral")
        return chi.numerator


class DPoly(namedtuple("DPoly", "const d_coeff", defaults=(0,))):
    """An integer polynomial const + d_coeff * d in the ambient degree d.

    Everything printed in the census table, and every Whitney sum of catalog
    blocks, is linear in d.
    """

    __slots__ = ()

    def __call__(self, d: int) -> int:
        return self.const + self.d_coeff * d

    def __str__(self) -> str:
        if self.d_coeff == 0:
            return str(self.const)
        head = "d" if self.d_coeff == 1 else f"{self.d_coeff}d"
        if self.const == 0:
            return head
        sign = "+" if self.const > 0 else "-"
        return f"{head}{sign}{abs(self.const)}"


# Tail classes (c2, c3) at twist 0, as polynomials in d.
_BASE_TAIL: dict[Family, tuple[DPoly, DPoly]] = {
    Family.OV: (DPoly(0), DPoly(0)),
    Family.SL: (DPoly(1), DPoly(0)),
    Family.SC: (DPoly(2), DPoly(0)),
    Family.SE: (DPoly(2), DPoly(0)),
    Family.F31: (DPoly(3), DPoly(1)),
    Family.F32: (DPoly(3, 1), DPoly(2)),
    Family.F33: (DPoly(3, 3), DPoly(3, 1)),
    Family.F41: (DPoly(4), DPoly(2)),
    Family.F51: (DPoly(5), DPoly(3)),
    Family.F72: (DPoly(12), DPoly(10)),
}

_ALL_D = frozenset({3, 4, 5})

BLOCKS: dict[Family, BlockSpec] = {
    spec.family: spec
    for spec in (
        BlockSpec(Family.OV, 1, 0, _ALL_D, "trivial line bundle"),
        BlockSpec(
            Family.SL, 2, 0, _ALL_D,
            "Serre construction on a line: 0 -> O -> S_L -> I_L -> 0",
        ),
        BlockSpec(
            Family.SC, 2, -1, _ALL_D,
            "Serre construction on a conic: 0 -> O(-1) -> S_C -> I_C -> 0",
        ),
        BlockSpec(
            Family.SE, 2, 0, _ALL_D,
            "Serre construction on an elliptic curve of degree d+2",
        ),
        BlockSpec(
            Family.F31, 3, 1, _ALL_D,
            "rank-3 bundle from a rational normal cubic: 0 -> O^2 -> F -> I_D(1) -> 0",
        ),
        BlockSpec(
            Family.F32, 3, 2, _ALL_D,
            "second exterior power of F_{3,1}, isomorphic to F_{3,1}*(1)",
        ),
        BlockSpec(
            Family.F33, 3, 3, _ALL_D,
            "rank-3 bundle from a curve of degree 3d+3 and genus 2d+4 "
            "obtained by liaison from sections of S_L(2) and S_C(3)",
        ),
        BlockSpec(
            Family.F41, 4, 1, frozenset({4, 5}),
            "rank-4 bundle from a rational normal quartic "
            "(census-listed for d = 4, 5, where h0 >= rank holds)",
        ),
        BlockSpec(
            Family.F51, 5, 1, frozenset({5}),
            "rank-5 bundle from a rational normal quintic on V_5",
        ),
        BlockSpec(
            Family.F72, 7, 2, frozenset({5}),
            "dual of the kernel of the evaluation O^10 ->> F_{3,2} on V_5",
        ),
    )
}


def block_available(family: Family, X: FanoThreefold) -> bool:
    return X.d in BLOCKS[family].d_set


def block_chern(block: BlockId, X: FanoThreefold) -> ChernData:
    """Chern data of the block at its twist; UnavailableBlock if the family
    is not defined on V_d (e.g. F_{5,1} with d = 4)."""
    if not block_available(block.family, X):
        raise UnavailableBlock(f"{block.family.value} is not available on {X}")
    return _block_chern_unchecked(block, X)


@functools.cache
def _base_chern(family: Family, X: FanoThreefold) -> ChernData:
    # at most 10 families x 3 degrees; filled on first use
    return BLOCKS[family].base_chern(X)


@functools.cache
def _twist1_chern(family: Family, X: FanoThreefold) -> ChernData:
    # at most 10 families x 3 degrees; filled on first use
    return twist(_base_chern(family, X), X, 1)


def _block_chern_unchecked(block: BlockId, X: FanoThreefold) -> ChernData:
    # formulas evaluate at any d; availability is checked by callers that care
    if not block.twist:
        return _base_chern(block.family, X)
    if block.twist == 1:
        return _twist1_chern(block.family, X)
    return twist(_base_chern(block.family, X), X, block.twist)


def _block_rank_c1(block: BlockId) -> tuple[int, int]:
    # rank and c1 of every block are independent of d
    spec = BLOCKS[block.family]
    return spec.rank, spec.base_c1 + spec.rank * block.twist


def _whitney_total(
    d: int, rank: int, s1: int, s2: int, s3: int, sum_c2: int, sum_c3: int, sum_c1c2: int
) -> ChernData:
    """Chern data of a direct sum from sums over its summands, each counted
    with multiplicity: the total rank, the power sums s1, s2, s3 of the
    summands' c1, and the sums of their c2, c3 and c1 c2.

    With c(E) = prod (1 + a_i H + b_i L + c_i P), H^2 = dL and H.L = P:

        c2 = sum b + d e2(a),    c3 = sum c + sum_{i != j} a_i b_j + d e3(a),

    where e2 = (s1^2 - s2)/2 and e3 = (s1^3 - 3 s1 s2 + 2 s3)/6 are the
    elementary symmetric functions of the a_i (Newton's identities), and
    sum_{i != j} a_i b_j = s1 sum b - sum a b.  Both divisions are exact.
    tests/test_identities.py proves this equal to the fold of whitney_sum.
    """
    e2 = (s1 * s1 - s2) // 2
    e3 = (s1 * s1 * s1 - 3 * s1 * s2 + 2 * s3) // 6
    return ChernData(rank, s1, sum_c2 + d * e2, sum_c3 + s1 * sum_c2 - sum_c1c2 + d * e3)


class Decomposition(_Record):
    """A multiset of blocks representing a direct sum.

    Only ``counts`` is stored: (block, multiplicity) pairs with distinct
    blocks in canonical (family, twist) order and positive multiplicities,
    so equal multisets compare and hash equal.  Give either ``blocks`` in
    any order or ``counts`` (any order, repeats merged, zeros dropped);
    counts that are already canonical, a tuple of tuples, are kept as given.
    The ``blocks`` property lists every summand in canonical order,
    expanded from ``counts`` on each read, as are render(), to_json() and
    sort_key(); rank, c1 and chern() work from ``counts`` alone, so a
    decomposition costs the same at any multiplicity until it is expanded.
    """

    __slots__ = ("counts",)
    _fields = ("blocks",)
    __match_args__ = ("blocks", "counts")

    def __init__(self, blocks: tuple[BlockId, ...] = (),
                 counts: tuple[tuple[BlockId, int], ...] | None = None) -> None:
        if counts is None:
            counts = [(b, 1) for b in blocks]
        elif blocks:
            raise ValueError("give a Decomposition its blocks or its counts, not both")
        _set_counts(self, counts)
        self.__post_init__()

    def __post_init__(self) -> None:
        # Canonicalizes the pairs __init__ stored; a method of its own so that
        # a tracer can wrap it and read the given summands from ``blocks``.
        # Pairs already canonical (tuples with keys strictly increasing and
        # counts positive), as witness() builds them, are stored as they are.
        last = (-1,)  # below every (family order, twist) key
        for pair in self.counts:
            b, k = pair
            if k <= 0 or b._key <= last or pair.__class__ is not tuple:
                break
            last = b._key
        else:
            _set_counts(self, tuple(self.counts))
            return
        counts: list[tuple[BlockId, int]] = []
        last = None
        keyed = sorted([(b._key, b, k) for b, k in self.counts], key=itemgetter(0))
        for key, b, k in keyed:
            if k < 0:
                raise ValueError(f"negative count {k} of {b.render()}")
            if not k:
                continue
            if key == last:
                counts[-1] = (counts[-1][0], counts[-1][1] + k)
            else:
                counts.append((b, k))
                last = key
        _set_counts(self, tuple(counts))

    @property
    def blocks(self) -> tuple[BlockId, ...]:
        return tuple(self._expanded(lambda b: b))

    def _values(self) -> tuple:
        return self.counts  # equality and hash; the repr shows blocks

    def __reduce__(self):
        return self.__class__, ((), self.counts)

    def _expanded(self, per_block: Callable[[BlockId], object]) -> list:
        # per_block is called once per distinct block, its value repeated
        out = []
        for b, k in self.counts:
            out += [per_block(b)] * k
        return out

    @property
    def rank(self) -> int:
        return sum(_block_rank_c1(b)[0] * k for b, k in self.counts)

    @property
    def c1(self) -> int:
        return sum(_block_rank_c1(b)[1] * k for b, k in self.counts)

    def chern(self, X: FanoThreefold) -> ChernData:
        """Whitney sum of the blocks, in one pass over ``counts`` (computed
        whether or not every block is available on X; availability is
        validated separately).  See _whitney_total for the closed form."""
        counts = self.counts
        if len(counts) == 1 and counts[0][1] == 1:
            # one copy of one block, as in five census rows: its cached data
            return _block_chern_unchecked(counts[0][0], X)
        rank = s1 = s2 = s3 = sum_c2 = sum_c3 = sum_c1c2 = 0
        for b, k in counts:
            c = _block_chern_unchecked(b, X)
            a, k_a, k_c2 = c.c1, k * c.c1, k * c.c2
            rank += k * c.rank
            s1 += k_a
            s2 += k_a * a
            s3 += k_a * a * a
            sum_c2 += k_c2
            sum_c3 += k * c.c3
            sum_c1c2 += k_c2 * a
        return _whitney_total(X.d, rank, s1, s2, s3, sum_c2, sum_c3, sum_c1c2)

    def render(self) -> str:
        return " ⊕ ".join(self._expanded(BlockId.render))

    def to_json(self) -> list[dict]:
        """One dict per summand, in canonical order.  Copies of a block
        share one dict, so do not mutate the dicts."""
        return self._expanded(BlockId.to_json)

    def sort_key(self) -> tuple:
        return tuple(self._expanded(BlockId.sort_key))


(_set_counts,) = Decomposition._setters()


class TableRow(
    namedtuple("TableRow", "d_set rank c1 c2_printed c3_printed decomposition")
):
    """One census-table row, transcribed verbatim (misprints included): the
    degrees it applies to, rank, c1, the printed c2 and c3 as DPolys, and
    its Decomposition."""

    __slots__ = ()


_SC1 = BlockId(Family.SC, 1)
_SE1 = BlockId(Family.SE, 1)
_F31 = BlockId(Family.F31)
_F32 = BlockId(Family.F32)
_F33 = BlockId(Family.F33)
_F41 = BlockId(Family.F41)
_F51 = BlockId(Family.F51)

_45 = frozenset({4, 5})
_5 = frozenset({5})


def _dec(*blocks: BlockId) -> Decomposition:
    return Decomposition(blocks)


# The 23 rows of the rank <= 7 census, verbatim.  The single-block rows for
# (r, c) = (3,1), (4,1), (5,1), (3,2), (3,3) are the named bundles F_{r,c}.
# The rank-5, c=4 row prints c3 = 4d+2; the Whitney sum of its decomposition
# (and the forced value) is 4d+12.  Stored as printed; see verify_table1.
_TABLE1: tuple[TableRow, ...] = (
    TableRow(_ALL_D, 3, 1, DPoly(3), DPoly(1), _dec(_F31)),
    TableRow(_ALL_D, 3, 2, DPoly(3, 1), DPoly(2), _dec(_F32)),
    TableRow(_ALL_D, 3, 3, DPoly(3, 3), DPoly(3, 1), _dec(_F33)),
    TableRow(_45, 4, 1, DPoly(4), DPoly(2), _dec(_F41)),
    TableRow(_ALL_D, 4, 2, DPoly(4, 1), DPoly(4), _dec(_SC1, _SC1)),
    TableRow(_ALL_D, 4, 3, DPoly(4, 3), DPoly(6, 1), _dec(_SC1, _SE1)),
    TableRow(_ALL_D, 4, 4, DPoly(4, 6), DPoly(8, 4), _dec(_SE1, _SE1)),
    TableRow(_5, 5, 1, DPoly(5), DPoly(3), _dec(_F51)),
    TableRow(_ALL_D, 5, 2, DPoly(5, 1), DPoly(6), _dec(_SC1, _F31)),
    TableRow(_ALL_D, 5, 3, DPoly(5, 3), DPoly(9, 1), _dec(_SC1, _F32)),
    TableRow(_ALL_D, 5, 4, DPoly(5, 6), DPoly(2, 4), _dec(_SC1, _F33)),
    TableRow(_ALL_D, 5, 5, DPoly(5, 10), DPoly(15, 10), _dec(_SE1, _F33)),
    TableRow(_ALL_D, 6, 2, DPoly(6, 1), DPoly(8), _dec(_F31, _F31)),
    TableRow(_ALL_D, 6, 3, DPoly(6, 3), DPoly(12, 1), _dec(_SC1, _SC1, _SC1)),
    TableRow(_ALL_D, 6, 4, DPoly(6, 6), DPoly(16, 4), _dec(_SC1, _SC1, _SE1)),
    TableRow(_ALL_D, 6, 5, DPoly(6, 10), DPoly(20, 10), _dec(_SC1, _SE1, _SE1)),
    TableRow(_ALL_D, 6, 6, DPoly(6, 15), DPoly(24, 20), _dec(_SE1, _SE1, _SE1)),
    TableRow(_45, 7, 2, DPoly(7, 1), DPoly(10), _dec(_F41, _F31)),
    TableRow(_ALL_D, 7, 3, DPoly(7, 3), DPoly(15, 1), _dec(_SC1, _SC1, _F31)),
    TableRow(_ALL_D, 7, 4, DPoly(7, 6), DPoly(20, 4), _dec(_SC1, _SE1, _F31)),
    TableRow(_ALL_D, 7, 5, DPoly(7, 10), DPoly(25, 10), _dec(_SE1, _SE1, _F31)),
    TableRow(_ALL_D, 7, 6, DPoly(7, 15), DPoly(30, 20), _dec(_SE1, _SE1, _F32)),
    TableRow(_ALL_D, 7, 7, DPoly(7, 21), DPoly(35, 35), _dec(_SE1, _SE1, _F33)),
)


def table1_rows() -> list[TableRow]:
    """All 23 census rows, verbatim, in printed order."""
    return list(_TABLE1)


class Discrepancy(
    namedtuple(
        "Discrepancy",
        "d rank c1 printed_c2 printed_c3 computed_c2 computed_c3 forced_c2 forced_c3",
    )
):
    """A table row whose printed invariants disagree with the recomputation.

    ``computed`` values come from the Whitney sum of the row's decomposition,
    ``forced`` values from the closed-form identities in (rank, c1); a row is
    flagged when anything differs from the printed data.
    """

    __slots__ = ()


def _checked_rows(
    X: FanoThreefold,
) -> list[tuple[TableRow, ChernData, Discrepancy | None]]:
    """Every census row applicable to X, with the Whitney sum of its
    decomposition and its Discrepancy (None when it matches), so that a
    report listing both computes each total once."""
    out = []
    for row in _TABLE1:
        if X.d not in row.d_set:
            continue
        total = row.decomposition.chern(X)
        fc2 = forced_c2(X, row.rank, row.c1)
        fc3 = forced_c3(X, row.rank, row.c1)
        pc2 = row.c2_printed(X.d)
        pc3 = row.c3_printed(X.d)
        printed_ok = (total.rank, total.c1, total.c2, total.c3) == (
            row.rank,
            row.c1,
            pc2,
            pc3,
        )
        forced_ok = (total.c2, total.c3) == (fc2, fc3)
        disc = None
        if not (printed_ok and forced_ok):
            disc = Discrepancy(
                X.d, row.rank, row.c1, pc2, pc3,
                total.c2, total.c3, fc2, fc3,
            )
        out.append((row, total, disc))
    return out


def verify_table1(X: FanoThreefold) -> list[Discrepancy]:
    """Recompute every census row applicable to X and report all mismatches.

    Discrepancies are data, not errors: the verbatim table is the object
    under test.
    """
    return [disc for _, _, disc in _checked_rows(X) if disc is not None]


def _linear_in_d(values: tuple[int, int, int]) -> DPoly:
    """The DPoly through the values at d = 3, 4, 5.  Every Whitney sum of
    catalog blocks is linear in d (c1 is free of d, c2 and c3 are linear,
    and twist and Whitney sums keep that shape), so the first two values
    determine it and the third confirms it."""
    f3, f4, f5 = values
    coef = f4 - f3
    if f5 - f4 != coef:
        raise InternalError(f"internal error: {values} at d = 3, 4, 5 is not linear in d")
    return DPoly(f3 - 3 * coef, coef)


TABLE_EXPORT_COLUMNS = (
    "d_set",
    "rank",
    "c1",
    "c2_printed",
    "c3_printed",
    "c2_computed",
    "c3_computed",
    "decomposition",
    "status",
)


def _symbolic_checked_rows():
    """(row, printed c2, c3, computed c2, c3, ok) for every census row, with
    the values as polynomials in d, read off the totals at d = 3, 4, 5."""
    varieties = [FanoThreefold(d) for d in (3, 4, 5)]
    for row in _TABLE1:
        totals = [row.decomposition.chern(V) for V in varieties]
        c2c = _linear_in_d(tuple(t.c2 for t in totals))
        c3c = _linear_in_d(tuple(t.c3 for t in totals))
        ok = totals[0].c1 == row.c1 and c2c == row.c2_printed and c3c == row.c3_printed
        yield row, str(row.c2_printed), str(row.c3_printed), str(c2c), str(c3c), ok


def table_export_rows(X: FanoThreefold | None = None) -> list[dict]:
    """The census table with recomputed columns, one dict per row.

    With X given, rows are restricted to those applicable to X.d, all
    values are integers and a row's status is "ok" exactly when
    verify_table1 reports no discrepancy for it; without it all 23 rows
    appear with values as polynomials in d (rendered like "4d+12").
    """
    if X is None:
        checked = _symbolic_checked_rows()
    else:
        checked = (
            (row, row.c2_printed(X.d), row.c3_printed(X.d), total.c2, total.c3, disc is None)
            for row, total, disc in _checked_rows(X)
        )
    return [
        {
            "d_set": ",".join(str(d) for d in sorted(row.d_set)),
            "rank": row.rank,
            "c1": row.c1,
            "c2_printed": pc2,
            "c3_printed": pc3,
            "c2_computed": cc2,
            "c3_computed": cc3,
            "decomposition": row.decomposition.render(),
            "status": "ok" if ok else "mismatch",
        }
        for row, pc2, pc3, cc2, cc3, ok in checked
    ]

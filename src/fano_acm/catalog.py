"""The named building-block bundles on V_d and the machine-checkable census table.

A small collection of standard bundles without intermediate cohomology
generates, under direct sums and twists, every invariant realized at small
rank: the rank-2 bundles S_L, S_C, S_E attached to a line, a conic and an
elliptic curve of degree d+2, and the F_{r,c} series of higher-rank bundles.
This module builds their exact Chern data from their constructions and holds
their availability per degree d and a verbatim transcription of the
classical rank <= 7 census table (one historically misprinted entry
included).  verify_table1 recomputes every row and reports mismatches; the
stored data is never silently corrected.

BlockSpec, DPoly, TableRow and Discrepancy are collections.namedtuple
subclasses with ``__slots__ = ()``, equal to a plain tuple of their fields.
BlockId and Decomposition, like chow.ChernData, are frozen records with
``__slots__`` (chow._Record), each equal only to its own class.  A
Decomposition stores only its block counts; its Chern data is one
chow._whitney_total over them.  The README describes the block table and
the symbolic table columns.
"""

from __future__ import annotations

import enum
import functools
from collections import namedtuple
from collections.abc import Callable

from .chow import (
    ChernData, FanoThreefold, InternalError, _Record, _moments, _whitney_total,
    complement_in_trivial, dual, euler_char, forced_c2, forced_c3, serre_chern, twist,
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
    """Static data of one block family: rank and c1 at twist 0, read off its
    construction, availability (``d_set``, a frozenset of degrees), and a
    short provenance note.  base_chern evaluates the construction on X."""

    __slots__ = ()

    def base_chern(self, X: FanoThreefold) -> ChernData:
        return _FAMILY_ROWS[self.family][0](X)

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


_ALL_D = frozenset({3, 4, 5})
_VARIETIES = (FanoThreefold(3), FanoThreefold(4), FanoThreefold(5))
_V5 = _VARIETIES[2]


def _serre(rank: int, c1: int, degree: DPoly, genus: DPoly, shift: int = 0) -> Callable:
    # F(shift) for 0 -> O^{rank-1} -> F -> I_D(c1) -> 0, D of that degree and genus
    return lambda X: twist(serre_chern(X, rank, c1, degree(X.d), genus(X.d)), X, shift)


# One row per block family: its construction, the degrees it is available on
# and its provenance.  BLOCKS reads rank and c1 off the construction on V_3.
_FAMILY_ROWS: dict[Family, tuple[Callable[[FanoThreefold], ChernData], frozenset, str]] = {
    Family.OV: (lambda X: ChernData.trivial(1), _ALL_D, "trivial line bundle"),
    Family.SL: (_serre(2, 0, DPoly(1), DPoly(0)), _ALL_D,
                "Serre construction on a line: 0 -> O -> S_L -> I_L -> 0"),
    Family.SC: (_serre(2, 1, DPoly(2), DPoly(0), -1), _ALL_D,
                "Serre construction on a conic: 0 -> O(-1) -> S_C -> I_C -> 0"),
    Family.SE: (_serre(2, 2, DPoly(2, 1), DPoly(1), -1), _ALL_D,
                "Serre construction on an elliptic curve of degree d+2"),
    Family.F31: (_serre(3, 1, DPoly(3), DPoly(0)), _ALL_D,
                 "rank-3 bundle from a rational normal cubic: 0 -> O^2 -> F -> I_D(1) -> 0"),
    Family.F32: (lambda X: twist(dual(_FAMILY_ROWS[Family.F31][0](X)), X, 1), _ALL_D,
                 "second exterior power of F_{3,1}, isomorphic to F_{3,1}*(1)"),
    Family.F33: (_serre(3, 3, DPoly(3, 3), DPoly(4, 2)), _ALL_D,
                 "rank-3 bundle from a curve of degree 3d+3 and genus 2d+4 "
                 "obtained by liaison from sections of S_L(2) and S_C(3)"),
    Family.F41: (_serre(4, 1, DPoly(4), DPoly(0)), frozenset({4, 5}),
                 "rank-4 bundle from a rational normal quartic "
                 "(census-listed for d = 4, 5, where h0 >= rank holds)"),
    Family.F51: (_serre(5, 1, DPoly(5), DPoly(0)), frozenset({5}),
                 "rank-5 bundle from a rational normal quintic on V_5"),
    # on V_5, where it exists, whatever X is
    Family.F72: (lambda X: complement_in_trivial(_FAMILY_ROWS[Family.F32][0](_V5), 10, _V5),
                 frozenset({5}), "dual of the kernel of the evaluation O^10 ->> F_{3,2} on V_5"),
}

BLOCKS: dict[Family, BlockSpec] = {
    family: BlockSpec(family, c.rank, c.c1, d_set, provenance)
    for family, (build, d_set, provenance) in _FAMILY_ROWS.items()
    for c in (build(_VARIETIES[0]),)
}


def block_available(family: Family, X: FanoThreefold) -> bool:
    return X.d in BLOCKS[family].d_set


def block_chern(block: BlockId, X: FanoThreefold) -> ChernData:
    """Chern data of the block at its twist; UnavailableBlock if the family
    is not defined on V_d (e.g. F_{5,1} with d = 4)."""
    if not block_available(block.family, X):
        raise UnavailableBlock(f"{block.family.value} is not available on {X}")
    return _block_data(block, X)[0]


@functools.cache
def _block_table(d: int) -> dict[tuple[int, int], tuple]:
    """The entries (c, *_moments(c)) of every family at twists 0 and 1 on
    V_d, available there or not (see BLOCKS), keyed by BlockId._key; built
    on first use."""
    X = _VARIETIES[d - 3]
    table = {}
    for family, order in _FAMILY_ORDER.items():
        base = BLOCKS[family].base_chern(X)
        for t, c in ((0, base), (1, twist(base, X, 1))):
            table[order, t] = (c, *_moments(c))
    return table


def _block_data(block: BlockId, X: FanoThreefold) -> tuple:
    """The block's table entry on X; at twists the table does not hold,
    built on each call from the twisted base entry."""
    table = _block_table(X.d)
    entry = table.get(block._key)
    if entry is None:
        c = twist(table[block._key[0], 0][0], X, block.twist)
        entry = (c, *_moments(c))
    return entry


def _block_rank_c1(block: BlockId) -> tuple[int, int]:
    # rank and c1 of every block are independent of d
    spec = BLOCKS[block.family]
    return spec.rank, spec.base_c1 + spec.rank * block.twist


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
        merged: dict[tuple[int, int], tuple[BlockId, int]] = {}
        for b, k in self.counts:
            if k < 0:
                raise ValueError(f"negative count {k} of {b.render()}")
            if k:
                merged[b._key] = (b, merged.get(b._key, (b, 0))[1] + k)
        _set_counts(self, tuple(merged[key] for key in sorted(merged)))

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
        """Whitney sum of the blocks, whether or not each is available on
        X: one _whitney_total over the _moments in their table entries, for
        one block as for many."""
        table = _block_table(X.d)
        rank = s1 = s2 = s3 = sum_c2 = sum_c3 = sum_c1c2 = 0
        for b, k in self.counts:
            _, r, a, a2, a3, c2, c3, ac2 = table.get(b._key) or _block_data(b, X)
            rank += k * r
            s1 += k * a
            s2 += k * a2
            s3 += k * a3
            sum_c2 += k * c2
            sum_c3 += k * c3
            sum_c1c2 += k * ac2
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


@functools.cache
def _table_columns(d: int | None) -> tuple[tuple[TableRow, dict, tuple, tuple], ...]:
    """The census columns that no Whitney total enters, per row applicable
    at degree d, or every row for d None: the row, its export dict with
    c2_computed, c3_computed and status None, the printed (c2, c3) (ints at
    d, DPoly strings for None), and what the totals are also checked
    against: the forced (c2, c3) at d, or the printed c2 and c3 at
    d = 3, 4, 5 as int triples."""
    out = []
    for row in _TABLE1:
        if d is None:
            printed = (str(row.c2_printed), str(row.c3_printed))
            check = tuple(tuple(map(p, (3, 4, 5))) for p in (row.c2_printed, row.c3_printed))
        elif d in row.d_set:
            X = _VARIETIES[d - 3]
            printed = (row.c2_printed(d), row.c3_printed(d))
            check = (forced_c2(X, row.rank, row.c1), forced_c3(X, row.rank, row.c1))
        else:
            continue
        d_set = ",".join(str(e) for e in sorted(row.d_set))
        export = dict(zip(TABLE_EXPORT_COLUMNS, (
            d_set, row.rank, row.c1, *printed, None, None, row.decomposition.render(), None,
        )))
        out.append((row, export, printed, check))
    return tuple(out)


def _checked_rows(X: FanoThreefold) -> list[tuple[dict, ChernData, Discrepancy | None]]:
    """Every census row applicable to X, as its export dict (not to be
    mutated), the Whitney sum of its decomposition and its Discrepancy
    (None when it matches), so that a report listing both computes each
    total once."""
    out = []
    for row, export, printed, forced in _table_columns(X.d):
        total = row.decomposition.chern(X)
        tail = (total.c2, total.c3)
        disc = None
        if tail != printed or tail != forced or (total.rank, total.c1) != (row.rank, row.c1):
            disc = Discrepancy(X.d, row.rank, row.c1, *printed, *tail, *forced)
        out.append((export, total, disc))
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
    "d_set", "rank", "c1", "c2_printed", "c3_printed", "c2_computed", "c3_computed",
    "decomposition", "status",
)


def table_export_rows(X: FanoThreefold | None = None) -> list[dict]:
    """The census table with recomputed columns, one new dict per row.

    With X given, rows are restricted to those applicable to X.d, all
    values are integers and a row's status is "ok" exactly when
    verify_table1 reports no discrepancy for it; without it all 23 rows
    appear with values as polynomials in d (rendered like "4d+12").
    """
    if X is not None:
        return [
            dict(export, c2_computed=total.c2, c3_computed=total.c3,
                 status="ok" if disc is None else "mismatch")
            for export, total, disc in _checked_rows(X)
        ]
    rows = []
    for row, export, (pc2, pc3), (at_d_c2, at_d_c3) in _table_columns(None):
        # totals equal to the printed values at d = 3, 4, 5 are the printed
        # polynomials; any other is read off, linear in d or InternalError
        t3, t4, t5 = map(row.decomposition.chern, _VARIETIES)
        c2, c3 = (t3.c2, t4.c2, t5.c2), (t3.c3, t4.c3, t5.c3)
        c2_ok, c3_ok = c2 == at_d_c2, c3 == at_d_c3
        rows.append(dict(
            export,
            c2_computed=pc2 if c2_ok else str(_linear_in_d(c2)),
            c3_computed=pc3 if c3_ok else str(_linear_in_d(c3)),
            status="ok" if c2_ok and c3_ok and t3.c1 == row.c1 else "mismatch",
        ))
    return rows

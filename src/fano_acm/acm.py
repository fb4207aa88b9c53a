"""Admissibility, forced invariants and explicit witnesses for rank >= 3.

A rank-r bundle without intermediate cohomology that has no trivial summand,
at least r sections, none after twisting by O(-1), and r-1 sections with a
curve as dependency locus, exists on V_d exactly when

    r/d <= c1 <= r        (admissibility)

and then its remaining Chern classes are forced:

    c2 = d c1^2/2 + r - d c1/2
    c3 = -2 c1 + c1 r - d c1^2/2 + d c1^3/6 + d c1/3.

The relaxed admissibility mode widens the lower bound to (r-1)/d <= c1
(dropping the section-count hypothesis); no witness is attempted there, and
existence is reported as unknown.

witness() realizes every strictly admissible (r, c1) as an explicit direct
sum of catalog blocks, in constant time at any rank, and refuses ranks
above WITNESS_MAX_RANK.  validate_witness() decides five checks on the
exact Whitney total.  oracle_enumerate() independently brute-forces all
such sums, each of which carries the forced classes, and refuses ranks
above ORACLE_MAX_RANK or its bound.  enumerate_admissible() and the
census refuse more than ENUMERATE_MAX_TRIPLES triples, counted before the
first is built.  Each refusal is a BoundExceeded, exit 1 on the command
line.  The README describes how witnesses are built.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from collections.abc import Iterator

from .catalog import BLOCKS, BlockId, Decomposition, Family, _block_rank_c1, table1_rows
from .chow import ChernData, FanoThreefold, curve_invariants, forced_c2, forced_c3

__all__ = [
    "InvalidRank",
    "NotAdmissible",
    "BoundExceeded",
    "AdmissibleTriple",
    "admissible",
    "enumerate_admissible",
    "make_triple",
    "witness",
    "validate_witness",
    "Check",
    "ValidationReport",
    "oracle_enumerate",
    "ORACLE_DEFAULT_BOUND",
    "ORACLE_MAX_RANK",
    "WITNESS_MAX_RANK",
    "ENUMERATE_MAX_TRIPLES",
]


class InvalidRank(ValueError):
    """Rank below 3 where the higher-rank machinery applies, or a negative
    rank given to oracle_enumerate."""


class NotAdmissible(ValueError):
    """A query outside the admissible range r/d <= c1 <= r."""


class BoundExceeded(ValueError):
    """A query above a size bound: brute-force enumeration above its
    configured bound or ORACLE_MAX_RANK, an enumeration of more than
    ENUMERATE_MAX_TRIPLES admissible triples, or a witness above
    WITNESS_MAX_RANK."""


class AdmissibleTriple(
    namedtuple("AdmissibleTriple", "d rank c1 c2 c3 curve_degree curve_genus")
):
    """An admissible (d, r, c1) with its forced classes and curve data."""

    __slots__ = ()

    def to_json(self) -> dict:
        return self._asdict()

    def chern(self) -> ChernData:
        return ChernData(self.rank, self.c1, self.c2, self.c3)


def _check_rank(rank: int) -> None:
    if rank < 3:
        raise InvalidRank(f"rank must be >= 3, got {rank}")


def _lowest_c1(d: int, rank: int, relaxed: bool) -> int:
    """ceil(lower / d), the least admissible c1 at this rank, lower being
    r, or r-1 when relaxed: the one derivation of the admissible range."""
    lower = rank - 1 if relaxed else rank
    return -(-lower // d)


def admissible(X: FanoThreefold, rank: int, c1: int, relaxed: bool = False) -> bool:
    """Whether (d, r, c1) is admissible: r/d <= c1 <= r, or with the relaxed
    lower bound (r-1)/d <= c1.  Exact integer comparisons."""
    _check_rank(rank)
    return _lowest_c1(X.d, rank, relaxed) <= c1 <= rank


def make_triple(X: FanoThreefold, rank: int, c1: int) -> AdmissibleTriple:
    """The triple at (d, r, c1) with forced classes and curve invariants
    filled in.  The formulas are total; admissibility is the caller's call."""
    degree, genus = curve_invariants(X, rank, c1)
    return AdmissibleTriple(
        X.d,
        rank,
        c1,
        forced_c2(X, rank, c1),
        forced_c3(X, rank, c1),
        degree,
        genus,
    )


# Most admissible triples one enumeration builds: enumerate_admissible() at
# one rank, or the census over 3 <= r <= max-rank (the relaxed census of V_5
# up to rank 2000 has 1,602,396).  It bounds the census's run time, as the
# census streams its rows, and the length of enumerate_admissible()'s list.
ENUMERATE_MAX_TRIPLES = 2 * 10**6


def _ceil_sum(n: int, d: int) -> int:
    """sum of ceil(m/d) over 1 <= m <= n (0 for n <= 0)."""
    if n <= 0:
        return 0
    q, s = divmod(n, d)
    return d * q * (q + 1) // 2 + s * (q + 1)


def _admissible_count(d: int, max_rank: int, relaxed: bool) -> int:
    """Number of admissible (r, c1) with 1 <= r <= max_rank: rank r has
    r + 1 - _lowest_c1(d, r, relaxed) of them, summed in closed form."""
    n = max(max_rank, 0)
    return n * (n + 3) // 2 - _ceil_sum(n - relaxed, d)


def _admissible_rows(
    X: FanoThreefold, ranks: range, relaxed: bool = False
) -> Iterator[tuple[int, int, int, int, int, int, int]]:
    """(d, rank, c1, c2, c3, curve_degree, curve_genus) for every admissible
    c1 at each rank of ``ranks`` (a step-1 range), ascending in rank, then
    c1.  Before the first row it raises InvalidRank for a non-empty range
    starting below 3, and BoundExceeded for more than ENUMERATE_MAX_TRIPLES
    rows."""
    if ranks:
        _check_rank(ranks.start)
    d = X.d
    count = _admissible_count(d, ranks.stop - 1, relaxed) - _admissible_count(
        d, ranks.start - 1, relaxed
    )
    if count > ENUMERATE_MAX_TRIPLES:
        raise BoundExceeded(
            f"{count} admissible triples exceed the enumeration bound "
            f"{ENUMERATE_MAX_TRIPLES}"
        )
    if not ranks:
        return
    # Every row is its c1's rank-2 values plus a multiple of rank - 2:
    # c2 = degree grows by 1, c3 by c1 and the genus by c1 - 1 per rank.
    # The rank-2 part is computed once per c1, checks included.
    lowest = _lowest_c1(d, ranks.start, relaxed)
    at_rank_2 = [
        (c1, *curve_invariants(X, 2, c1), forced_c3(X, 2, c1))
        for c1 in range(lowest, ranks.stop)
    ]
    for rank in ranks:
        s = rank - 2
        first = _lowest_c1(d, rank, relaxed) - lowest
        for c1, degree, genus, c3 in at_rank_2[first : rank + 1 - lowest]:
            degree += s  # c2 is the degree
            yield d, rank, c1, degree, c3 + c1 * s, degree, genus + (c1 - 1) * s


def enumerate_admissible(
    X: FanoThreefold, rank: int, relaxed: bool = False
) -> list[AdmissibleTriple]:
    """All admissible triples at this rank, ascending in c1.  Raises
    BoundExceeded above ENUMERATE_MAX_TRIPLES triples."""
    rows = _admissible_rows(X, range(rank, rank + 1), relaxed)
    return list(map(AdmissibleTriple._make, rows))


# Census rows by (d, r, c1); for r <= 7 they cover every strictly admissible
# (r, c1) and seed every witness.
_SEEDS = {
    (d, row.rank, row.c1): row.decomposition for row in table1_rows() for d in row.d_set
}


@functools.cache
def _seed_plan(key: tuple[int, int, int]) -> tuple[tuple[BlockId, int, int], ...]:
    """The merge plan of the census row _SEEDS[key] on V_d, d = key[0],
    built on first use: the seed's blocks and the three peeled blocks, the
    summands of (rank, c1) = (2, 1), (2, 2) and (d, 1) in _oracle_blocks(d),
    in canonical order, each with its count in the seed and the index of
    the peeled run that adds to it, or 3 for none."""
    d = key[0]
    summands = {(r, c1): b for b, r, c1 in _oracle_blocks(d)}
    plan = {b._key: (b, k, 3) for b, k in _SEEDS[key].counts}
    for run, b in enumerate(summands[rc] for rc in ((2, 1), (2, 2), (d, 1))):
        plan[b._key] = (b, plan.get(b._key, (b, 0))[1], run)
    return tuple(plan[block_key] for block_key in sorted(plan))


def _peel_counts(d: int, rank: int, c1: int) -> tuple[int, int, int]:
    """Numbers of S_C(1), S_E(1) and rank-d steps peeled from a strictly
    admissible (r, c1) before r <= 7.

    A step applies while r > 7: S_E(1) when c1 = r, taking (r, c1) to
    (r-2, r-2); else S_C(1) when d(c1-1) >= r-2, taking it to (r-2, c1-1);
    else the rank-d block, taking it to (r-d, c1-1).  After j S_C(1) steps
    the S_C(1) condition reads (d-2) j <= d(c1-1) - r + 2, so it only gets
    harder; a rank-d step leaves it as it is and never reaches c1 = r.  The
    run is therefore S_C(1)^a followed by S_E(1)^b or by rank-d^c.
    """
    sc = 0
    if rank > 7 and c1 < rank and d * (c1 - 1) >= rank - 2:
        sc = 1 + min(
            (d * (c1 - 1) - rank + 2) // (d - 2), (rank - 8) // 2, rank - c1 - 1
        )
    rank, c1 = rank - 2 * sc, c1 - sc
    if rank <= 7:
        return sc, 0, 0
    if c1 == rank:
        return sc, (rank - 6) // 2, 0
    return sc, 0, -(-(rank - 7) // d)


# Largest rank witness() answers.  It bounds the expansion that blocks,
# render() and to_json() make, up to r/2 summands, which the command line
# prints: the json witness at the bound takes about 0.2 s and 95 MB peak
# RSS (Python 3.11, 2-vCPU VM).  Far above it the expansion fails with
# MemoryError (rank 10^18) or OverflowError (rank 10^50).
WITNESS_MAX_RANK = 10**6


def witness(X: FanoThreefold, rank: int, c1: int) -> Decomposition:
    """An explicit direct sum of catalog blocks with the forced invariants
    at (d, r, c1).  Raises NotAdmissible outside the strict range, and
    BoundExceeded for an admissible rank above WITNESS_MAX_RANK."""
    if not admissible(X, rank, c1):
        if c1 <= rank:
            reason = f"r/d ≤ c1 fails ({rank}/{X.d} > {c1})"
        else:
            reason = f"c1 ≤ r fails ({c1} > {rank})"
        raise NotAdmissible(f"not admissible: {reason}")
    if rank > WITNESS_MAX_RANK:
        raise BoundExceeded(f"rank {rank} exceeds the witness bound {WITNESS_MAX_RANK}")
    d = X.d
    sc, se, rd = _peel_counts(d, rank, c1)
    key = (d, rank - 2 * (sc + se) - d * rd, c1 - sc - 2 * se - rd)
    if not (sc or se or rd):
        return _SEEDS[key]
    # the seed's plan lists the merged counts in canonical order, so that
    # Decomposition stores them without sorting
    peeled = (sc, se, rd, 0)
    counts = []
    for block, k, run in _seed_plan(key):
        k += peeled[run]
        if k:
            counts.append((block, k))
    return Decomposition(counts=tuple(counts))


class Check(namedtuple("Check", "name passed detail")):
    """One verdict of validate_witness, with its detail string."""

    __slots__ = ()

    def to_json(self) -> dict:
        return self._asdict()


_CHECK_NAMES = ("availability", "rank", "c1", "c2_c3_forced", "no_trivial_summands")
_OV = Family.OV  # a global read is several times cheaper than the enum's attribute


class ValidationReport(
    namedtuple(
        "ValidationReport", "X rank c1 total forced unavailable trivial verdicts"
    )
):
    """The facts the five witness checks read: the variety, the target rank
    and c1, the Whitney total (not in the json form), the forced (c2, c3),
    the sorted names of the families not available on X, the number of
    O_V summands, and the five verdicts in the order of ``checks``, whose
    Check records are built on each read."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(self.verdicts)

    @property
    def checks(self) -> tuple[Check, ...]:
        return tuple(map(Check, _CHECK_NAMES, self.verdicts, self._details()))

    def _details(self) -> tuple[str, ...]:
        """The five checks' detail strings, in the order of ``checks``."""
        X, total, (fc2, fc3) = self.X, self.total, self.forced
        return (
            f"not available on {X}: {', '.join(self.unavailable)}"
            if self.unavailable
            else f"all blocks available on {X}",
            f"rank sum {total.rank}, target {self.rank}",
            f"c1 sum {total.c1}, target {self.c1}",
            f"c2 {total.c2} vs forced {fc2}, c3 {total.c3} vs forced {fc3}",
            f"{self.trivial} trivial summand(s)" if self.trivial else "no trivial summands",
        )

    def to_json(self) -> dict:
        return {"ok": self.ok, "checks": [c.to_json() for c in self.checks]}


def validate_witness(
    X: FanoThreefold, dec: Decomposition, rank: int, c1: int
) -> ValidationReport:
    """Check a decomposition against the target (d, r, c1): block
    availability, rank sum, c1 sum, forced (c2, c3), no trivial summands.
    All five verdicts are decided here, on the exact Whitney total."""
    total = dec.chern(X)
    forced = (forced_c2(X, rank, c1), forced_c3(X, rank, c1))
    d, unavailable, trivial = X.d, [], 0
    for b, k in dec.counts:
        family = b.family
        if d not in BLOCKS[family].d_set:  # block_available, inlined
            unavailable.append(family.value)
        if family is _OV:
            trivial += k
    unavailable = tuple(sorted(set(unavailable))) if unavailable else ()
    verdicts = (
        not unavailable,
        total.rank == rank,
        total.c1 == c1,
        (total.c2, total.c3) == forced,
        not trivial,
    )
    return ValidationReport(X, rank, c1, total, forced, unavailable, trivial, verdicts)


ORACLE_DEFAULT_BOUND = 12

# Largest rank oracle_enumerate() searches, whatever its bound: rank 60 on
# V_5 with c1 = 30 finds 8,310 decompositions in about 0.25 s (Python 3.11,
# 2-vCPU VM), and the search grows quickly past it.
ORACLE_MAX_RANK = 60

@functools.cache
def _oracle_blocks(d: int) -> tuple[tuple[BlockId, int, int], ...]:
    """(block, rank, c1) of each witness summand on V_d, in ascending
    BlockId.sort_key order: every family at twists 0 and 1 whose one-block
    Decomposition passes validate_witness at its own (rank, c1), with
    r/d <= c1 <= r.  No family has that range at another twist."""
    X, out = FanoThreefold(d), []
    for b in [BlockId(family, t) for family in Family for t in (0, 1)]:
        rank, c1 = _block_rank_c1(b)
        valid = validate_witness(X, Decomposition((b,)), rank, c1).ok
        if valid and _lowest_c1(d, rank, False) <= c1 <= rank:
            out.append((b, rank, c1))
    return tuple(out)


def oracle_enumerate(
    X: FanoThreefold, rank: int, c1: int, bound: int = ORACLE_DEFAULT_BOUND
) -> list[Decomposition]:
    """All multisets of eligible blocks with rank sum r and c1 sum c1,
    by exhaustive search, in Decomposition.sort_key order.  Raises
    BoundExceeded for rank above ORACLE_MAX_RANK or ``bound``, then
    InvalidRank for a negative rank."""
    if rank > ORACLE_MAX_RANK:
        raise BoundExceeded(f"rank {rank} exceeds the oracle ceiling {ORACLE_MAX_RANK}")
    if rank > bound:
        raise BoundExceeded(f"rank {rank} exceeds the enumeration bound {bound}")
    if rank < 0:
        raise InvalidRank(f"rank must be >= 0, got {rank}")
    d = X.d
    candidates = _oracle_blocks(d)
    found: list[Decomposition] = []

    def search(
        start: int, r_left: int, c1_left: int, chosen: list[tuple[BlockId, int]]
    ) -> None:
        # chosen holds (block, multiplicity) runs of candidates before start
        if r_left == 0:
            if c1_left == 0:
                found.append(Decomposition(counts=tuple(chosen)))
            return
        # candidates ascend in key and each is tried from most copies down
        # to one, so results come out in Decomposition.sort_key order
        for i in range(start, len(candidates)):
            b, br, bc1 = candidates[i]
            k = r_left // br
            r, c = r_left - k * br, c1_left - k * bc1
            while k:
                # every candidate has r/d <= c1 <= r, so every sum of them
                # has too: a remainder outside that range (_lowest_c1 <= c
                # <= r, cross-multiplied) cannot be filled
                if c <= r <= d * c:
                    chosen.append((b, k))
                    search(i + 1, r, c, chosen)
                    chosen.pop()
                r, c, k = r + br, c + bc1, k - 1

    search(0, rank, c1, [])
    return found

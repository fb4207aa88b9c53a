"""Admissibility, forced classes, witnesses and the brute-force oracle."""

from __future__ import annotations

import copy
import dataclasses
import pathlib
import pickle
import re
import subprocess
import sys
import tracemalloc
import types
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fano_acm
from fano_acm import (
    AdmissibleTriple,
    BlockId,
    BlockSpec,
    BoundExceeded,
    ChernData,
    Check,
    Decomposition,
    Discrepancy,
    DPoly,
    FanoThreefold,
    Family,
    InvalidRank,
    NoACMBundle,
    NotAdmissible,
    SplitLineBundles,
    TableRow,
    TwistOf,
    admissible,
    block_available,
    chi_twist,
    enumerate_admissible,
    euler_char,
    forced_c2,
    forced_c3,
    make_triple,
    oracle_enumerate,
    table1_rows,
    validate_witness,
    witness,
)
from fano_acm.acm import (
    _SEEDS,
    ENUMERATE_MAX_TRIPLES,
    ORACLE_MAX_RANK,
    WITNESS_MAX_RANK,
    _admissible_count,
    _admissible_rows,
    _oracle_blocks,
    _peel_counts,
    _seed_plan,
)
from fano_acm import acm, catalog, chow, cli, rank2
from fano_acm.catalog import _block_rank_c1
from fano_acm.cli import _Result
from support import VARIETIES

SC1 = BlockId(Family.SC, 1)
SE1 = BlockId(Family.SE, 1)
F31 = BlockId(Family.F31)
F33 = BlockId(Family.F33)
F41 = BlockId(Family.F41)
F51 = BlockId(Family.F51)
F72 = BlockId(Family.F72)


def strict_c1_range(X, rank):
    return range(-(-rank // X.d), rank + 1)


# --- forced values -----------------------------------------------------------

def test_forced_values_frozen():
    assert (forced_c2(FanoThreefold(3), 3, 1), forced_c3(FanoThreefold(3), 3, 1)) == (3, 1)
    assert (forced_c2(FanoThreefold(5), 7, 2), forced_c3(FanoThreefold(5), 7, 2)) == (12, 10)
    assert (forced_c2(FanoThreefold(3), 5, 4), forced_c3(FanoThreefold(3), 5, 4)) == (23, 24)


def test_forced_values_integral_on_wide_range():
    for X in VARIETIES:
        for r in range(3, 30):
            for c1 in range(-10, 31):
                assert isinstance(forced_c2(X, r, c1), int)
                assert isinstance(forced_c3(X, r, c1), int)


# --- admissibility -----------------------------------------------------------

def test_admissible_examples():
    assert admissible(FanoThreefold(3), 3, 1)
    assert not admissible(FanoThreefold(3), 4, 1)
    assert admissible(FanoThreefold(3), 4, 1, relaxed=True)


def test_admissible_rejects_small_rank():
    with pytest.raises(InvalidRank):
        admissible(FanoThreefold(3), 2, 1)


def test_enumerate_admissible_ranges():
    assert [t.c1 for t in enumerate_admissible(FanoThreefold(3), 3)] == [1, 2, 3]
    assert [t.c1 for t in enumerate_admissible(FanoThreefold(5), 5)] == [1, 2, 3, 4, 5]
    triples = enumerate_admissible(FanoThreefold(3), 8)
    assert [t.c1 for t in triples] == [3, 4, 5, 6, 7, 8]
    assert len(triples) == 6


def test_enumerate_admissible_relaxed_widens_lower_bound():
    assert [t.c1 for t in enumerate_admissible(FanoThreefold(3), 4, relaxed=True)] == [1, 2, 3, 4]


@pytest.mark.parametrize("X", VARIETIES, ids=str)
def test_enumerate_admissible_matches_make_triple_up_to_rank_10_4(X):
    for relaxed in (False, True):
        for rank in [*range(3, 41), 99, 100, 1001, 9999, 10**4]:
            expected = [
                make_triple(X, rank, c1)
                for c1 in range(rank + 1)
                if admissible(X, rank, c1, relaxed=relaxed)
            ]
            assert enumerate_admissible(X, rank, relaxed=relaxed) == expected


@pytest.mark.parametrize("X", VARIETIES, ids=str)
def test_admissible_count_closed_form_matches_counting(X):
    for relaxed in (False, True):
        running = 0
        for max_rank in range(3, 200):
            running += sum(
                admissible(X, max_rank, c1, relaxed=relaxed) for c1 in range(max_rank + 1)
            )
            count = _admissible_count(X.d, max_rank, relaxed)
            assert count - _admissible_count(X.d, 2, relaxed) == running


def test_rank_2000_census_fits_the_enumeration_bound():
    d5 = FanoThreefold(5)
    rows = _admissible_count(5, 2000, True) - _admissible_count(5, 2, True)
    assert rows == 1_602_396 <= ENUMERATE_MAX_TRIPLES
    assert next(_admissible_rows(d5, range(3, 2001), relaxed=True))[:3] == (5, 3, 1)


@pytest.mark.parametrize("X", VARIETIES, ids=str)
def test_enumeration_above_the_bound_raises_before_building_rows(X):
    # the largest census that fits, then one rank more
    max_rank = 3
    while _admissible_count(X.d, max_rank + 1, False) - _admissible_count(
        X.d, 2, False
    ) <= ENUMERATE_MAX_TRIPLES:
        max_rank += 1
    assert next(_admissible_rows(X, range(3, max_rank + 1)))[1] == 3
    with pytest.raises(BoundExceeded, match="exceed the enumeration bound 2000000"):
        next(_admissible_rows(X, range(3, max_rank + 2)))
    for rank in (10**8, 10**18, 10**50):
        with pytest.raises(BoundExceeded):
            enumerate_admissible(X, rank)
        with pytest.raises(BoundExceeded):
            next(_admissible_rows(X, range(3, rank), relaxed=True))
    with pytest.raises(InvalidRank):
        enumerate_admissible(X, 2)


def test_triple_fields():
    t = make_triple(FanoThreefold(5), 7, 2)
    assert t.to_json() == {
        "d": 5, "rank": 7, "c1": 2, "c2": 12, "c3": 10,
        "curve_degree": 12, "curve_genus": 6,
    }
    assert t.chern() == ChernData(7, 2, 12, 10)


# --- witnesses ---------------------------------------------------------------

def test_witness_case_b_then_table():
    dec = witness(FanoThreefold(3), 8, 3)
    assert dec == Decomposition((SC1, F31, F31))


def test_witness_case_c():
    dec = witness(FanoThreefold(3), 9, 3)
    assert dec == Decomposition((F31, F31, F31))


def test_witness_case_a():
    dec = witness(FanoThreefold(4), 8, 8)
    assert dec == Decomposition((SE1, SE1, SE1, SE1))


def test_witness_uses_rank_d_block_per_degree():
    assert F51 in witness(FanoThreefold(5), 13, 3).blocks
    assert F41 in witness(FanoThreefold(4), 12, 3).blocks


def test_witness_not_admissible_message():
    with pytest.raises(NotAdmissible) as info:
        witness(FanoThreefold(3), 4, 1)
    assert str(info.value) == "not admissible: r/d ≤ c1 fails (4/3 > 1)"
    with pytest.raises(NotAdmissible) as info:
        witness(FanoThreefold(3), 5, 6)
    assert "c1 ≤ r fails (6 > 5)" in str(info.value)


def test_witness_invalid_rank():
    with pytest.raises(InvalidRank):
        witness(FanoThreefold(3), 2, 1)


def test_witness_totality_up_to_rank_20():
    for X in VARIETIES:
        for r in range(3, 21):
            for c1 in strict_c1_range(X, r):
                dec = witness(X, r, c1)
                report = validate_witness(X, dec, r, c1)
                assert report.ok, (X.d, r, c1, report.to_json())


def reference_witness(X, rank, c1):
    """The witness by peeling one block per step, as the definition reads:
    S_E(1) when c1 = r, S_C(1) when d(c1-1) >= r-2, else the rank-d block,
    down to the census row at r <= 7."""
    rank_d = {3: F31, 4: F41, 5: F51}[X.d]
    peeled = []
    while rank > 7:
        if c1 == rank:
            peeled.append(SE1)
            rank, c1 = rank - 2, c1 - 2
        elif X.d * (c1 - 1) >= rank - 2:
            peeled.append(SC1)
            rank, c1 = rank - 2, c1 - 1
        else:
            peeled.append(rank_d)
            rank, c1 = rank - X.d, c1 - 1
    (row,) = [
        row for row in table1_rows()
        if (row.rank, row.c1) == (rank, c1) and X.d in row.d_set
    ]
    return Decomposition(row.decomposition.blocks + tuple(peeled))


def test_closed_form_witness_matches_stepwise_peeling():
    for X in VARIETIES:
        for r in range(3, 151):
            for c1 in strict_c1_range(X, r):
                assert witness(X, r, c1) == reference_witness(X, r, c1), (X.d, r, c1)


def large_rank_c1_values(X, r):
    """c1 = r (S_E(1) run), r - 1 (one S_C(1) step, then S_E(1)), the
    smallest c1 with an S_C(1) step, (r-2)//d + 1 when admissible, and the
    minimal c1 (rank-d run)."""
    minimal = -(-r // X.d)
    candidates = {r, r - 1, -(-(r - 2) // X.d) + 1, (r - 2) // X.d + 1, minimal}
    return sorted(c1 for c1 in candidates if c1 >= minimal)


@pytest.mark.parametrize("X", VARIETIES, ids=str)
def test_witness_at_rank_one_million(X):
    r = 10**6
    for c1 in large_rank_c1_values(X, r):
        dec = witness(X, r, c1)
        report = validate_witness(X, dec, r, c1)
        assert report.ok, (X.d, c1, report.to_json())
        assert len(dec.counts) <= 4


@pytest.mark.parametrize("X", VARIETIES, ids=str)
def test_witness_at_rank_one_million_in_constant_memory(X):
    r = 10**6
    for c1 in (r, -(-r // X.d)):
        validate_witness(X, witness(X, r, c1), r, c1)  # fill the block caches
        tracemalloc.start()
        try:
            dec = witness(X, r, c1)
            report = validate_witness(X, dec, r, c1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok, (X.d, c1)
        assert peak < 64 * 2**10, (X.d, c1, peak)


def is_canonical(counts) -> bool:
    """Tuple pairs with strictly increasing (family, twist) keys and positive
    counts: what Decomposition stores without sorting."""
    keys = [pair[0].sort_key() for pair in counts]
    return (
        all(type(pair) is tuple for pair in counts)
        and all(k > 0 for _, k in counts)
        and all(a < b for a, b in zip(keys, keys[1:]))
    )


def test_witness_hands_decomposition_canonical_counts(monkeypatch):
    # witness() merges the peeled runs into its seed's counts itself, so
    # Decomposition.__post_init__ receives canonical counts and keeps them
    post_init, given = Decomposition.__dict__["__post_init__"], []

    def hook(obj):
        given.append(obj.counts)
        post_init(obj)

    monkeypatch.setattr(Decomposition, "__post_init__", hook)
    cases = [(X, r, c1) for X in VARIETIES for r in range(3, 151)
             for c1 in strict_c1_range(X, r)]
    cases += [(X, 10**6, c1) for X in VARIETIES
              for c1 in large_rank_c1_values(X, 10**6)]
    for X, r, c1 in cases:
        del given[:]
        dec = witness(X, r, c1)
        assert is_canonical(dec.counts), (X.d, r, c1)
        if r > 7:  # below, the census row itself is the witness
            assert len(given) == 1 and is_canonical(given[0]), (X.d, r, c1)
            assert dec.counts is given[0]


def reference_merge(X, rank, c1):
    """The witness's counts by merging the peeled runs into the seed's
    counts with key comparisons, as witness() did before its seed plans."""
    sc, se, rd = _peel_counts(X.d, rank, c1)
    seed = _SEEDS[(X.d, rank - 2 * (sc + se) - X.d * rd, c1 - sc - 2 * se - rd)]
    counts, i = list(seed.counts), 0
    for block, k in ((SC1, sc), (SE1, se), ({3: F31, 4: F41, 5: F51}[X.d], rd)):
        if not k:
            continue
        key = block._key
        while i < len(counts) and counts[i][0]._key < key:
            i += 1
        if i < len(counts) and counts[i][0]._key == key:
            counts[i] = (block, counts[i][1] + k)
        else:
            counts.insert(i, (block, k))
    return tuple(counts)


def test_witness_counts_match_the_reference_merge(monkeypatch):
    post_init, given = Decomposition.__dict__["__post_init__"], []

    def hook(obj):
        given.append(obj.counts)
        post_init(obj)

    monkeypatch.setattr(Decomposition, "__post_init__", hook)
    cases = [(X, r, c1) for X in VARIETIES for r in range(3, 201)
             for c1 in strict_c1_range(X, r)]
    cases += [(X, 10**6, c1) for X in VARIETIES
              for c1 in large_rank_c1_values(X, 10**6)]
    for X, r, c1 in cases:
        del given[:]
        dec = witness(X, r, c1)
        assert dec.counts == reference_merge(X, r, c1), (X.d, r, c1)
        if r > 7:  # stored as given, without a sort
            assert len(given) == 1 and dec.counts is given[0], (X.d, r, c1)


def test_seed_plans_are_canonical_and_cover_every_seed():
    for key in _SEEDS:
        plan = _seed_plan(key)
        keys = [block.sort_key() for block, _, _ in plan]
        assert keys == sorted(set(keys))
    for key, seed in _SEEDS.items():
        plan = _seed_plan(key)
        assert tuple((b, k) for b, k, _ in plan if k) == seed.counts
        runs = {b: run for b, _, run in plan if run != 3}
        assert runs == {SC1: 0, SE1: 1, {3: F31, 4: F41, 5: F51}[key[0]]: 2}


@pytest.mark.parametrize("X", VARIETIES, ids=str)
def test_witness_above_rank_bound_raises_bound_exceeded(X):
    for r in (WITNESS_MAX_RANK + 1, 10**18, 10**50):
        for c1 in (r, r - 1, -(-r // X.d)):
            with pytest.raises(BoundExceeded, match="exceeds the witness bound"):
                witness(X, r, c1)
    # outside the admissible range the answer stays NotAdmissible
    with pytest.raises(NotAdmissible):
        witness(X, 10**50, 1)
    with pytest.raises(NotAdmissible):
        witness(X, 10**50, 10**50 + 1)


def test_validation_report_carries_total_outside_json():
    X = FanoThreefold(4)
    dec = witness(X, 30, 12)
    report = validate_witness(X, dec, 30, 12)
    assert report.total == dec.chern(X)
    assert set(report.to_json()) == {"ok", "checks"}


# --- validation --------------------------------------------------------------

def test_validate_f72_on_v5():
    report = validate_witness(FanoThreefold(5), Decomposition((F72,)), 7, 2)
    assert report.ok
    assert [c.name for c in report.checks] == [
        "availability", "rank", "c1", "c2_c3_forced", "no_trivial_summands",
    ]


def test_validate_f72_on_v3_fails_availability():
    report = validate_witness(FanoThreefold(3), Decomposition((F72,)), 7, 2)
    assert not report.ok
    by_name = {c.name: c for c in report.checks}
    assert not by_name["availability"].passed
    assert by_name["rank"].passed and by_name["c1"].passed


def test_validate_confirms_corrected_c3_for_misprinted_row():
    X = FanoThreefold(3)
    report = validate_witness(X, Decomposition((SC1, F33)), 5, 4)
    assert report.ok
    by_name = {c.name: c for c in report.checks}
    assert "c3 24 vs forced 24" in by_name["c2_c3_forced"].detail


def test_validate_flags_trivial_summands():
    X = FanoThreefold(3)
    dec = Decomposition((BlockId(Family.OV), SC1, F31))
    report = validate_witness(X, dec, 6, 2)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["no_trivial_summands"].passed


def test_validate_flags_wrong_totals():
    X = FanoThreefold(3)
    report = validate_witness(X, Decomposition((SC1, SC1)), 5, 2)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["rank"].passed
    assert by_name["c1"].passed


def test_validate_computes_twists_outside_the_block_table():
    # S_L(5) and F_{3,2}(-3) are off the table's twists 0 and 1, and
    # F_{5,1} is not available on V_3; the values are those of the
    # per-block lookups the table replaced
    X = FanoThreefold(3)
    blocks = (BlockId(Family.SL, 5), BlockId(Family.F32, -3), F51)
    report = validate_witness(X, Decomposition(blocks), 10, 4)
    assert report == (
        X, 10, 4, ChernData(10, 4, -69, -130), (28, 44), ("F_{5,1}",), 0,
        (False, True, True, False, True),
    )
    assert report.to_json() == {"ok": False, "checks": [
        {"name": "availability", "passed": False, "detail": "not available on V_3: F_{5,1}"},
        {"name": "rank", "passed": True, "detail": "rank sum 10, target 10"},
        {"name": "c1", "passed": True, "detail": "c1 sum 4, target 4"},
        {"name": "c2_c3_forced", "passed": False,
         "detail": "c2 -69 vs forced 28, c3 -130 vs forced 44"},
        {"name": "no_trivial_summands", "passed": True, "detail": "no trivial summands"},
    ]}
    blocks += (BlockId(Family.OV), BlockId(Family.OV, 2), F72)
    report = validate_witness(X, Decomposition(blocks), 19, 8)
    assert report == (
        X, 19, 8, ChernData(19, 8, 3, -276), (103, 304), ("F_{5,1}", "F_{7,2}"), 2,
        (False, True, True, False, False),
    )


def reference_checks(X, dec, rank, c1):
    """The five checks built eagerly, one rule and one detail string each,
    on the decomposition's Whitney total."""
    unavailable = sorted(
        {b.family.value for b in dec.blocks if not block_available(b.family, X)}
    )
    total = dec.chern(X)
    fc2, fc3 = forced_c2(X, rank, c1), forced_c3(X, rank, c1)
    trivial = sum(b.family is Family.OV for b in dec.blocks)
    return (
        Check(
            "availability",
            not unavailable,
            f"not available on {X}: {', '.join(unavailable)}"
            if unavailable
            else f"all blocks available on {X}",
        ),
        Check("rank", total.rank == rank, f"rank sum {total.rank}, target {rank}"),
        Check("c1", total.c1 == c1, f"c1 sum {total.c1}, target {c1}"),
        Check(
            "c2_c3_forced",
            total.c2 == fc2 and total.c3 == fc3,
            f"c2 {total.c2} vs forced {fc2}, c3 {total.c3} vs forced {fc3}",
        ),
        Check(
            "no_trivial_summands",
            trivial == 0,
            f"{trivial} trivial summand(s)" if trivial else "no trivial summands",
        ),
    )


@settings(max_examples=300)
@given(
    st.sampled_from(VARIETIES),
    st.lists(
        st.tuples(
            st.builds(BlockId, st.sampled_from(list(Family)), st.integers(-3, 3)),
            st.integers(0, 5),
        ),
        max_size=6,
    ),
    st.sampled_from(["exact", "c2"]) | st.tuples(st.integers(0, 60), st.integers(-20, 40)),
)
def test_validation_report_keeps_every_check(X, pairs, target):
    dec = Decomposition(counts=tuple(pairs))
    if target == "exact":  # the decomposition's own rank and c1
        rank, c1 = dec.rank, dec.c1
    elif target == "c2":  # the rank whose forced c2 is the total's c2
        c1 = dec.c1
        rank = dec.chern(X).c2 - X.d * c1 * (c1 - 1) // 2
    else:
        rank, c1 = target
    report = validate_witness(X, dec, rank, c1)
    expected = reference_checks(X, dec, rank, c1)
    assert report.checks == expected
    assert report.to_json() == {
        "ok": all(c.passed for c in expected),
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in expected
        ],
    }
    assert report.ok == all(c.passed for c in report.checks)
    assert report.total == dec.chern(X)


def test_import_does_not_load_typing():
    # The value records, cli._Result included, subclass collections.namedtuple;
    # typing.NamedTuple would load typing on every import.  ChernData, BlockId
    # and Decomposition are slotted classes, as dataclasses loads inspect;
    # the cli imports json and csv only for the format that needs them.  -S
    # keeps site start-up, which may load typing itself, out of the check.
    src = str(pathlib.Path(fano_acm.__file__).parent.parent)
    heavy = ("typing", "dataclasses", "inspect", "json", "csv")
    for module in ("fano_acm", "fano_acm.cli"):
        result = subprocess.run(
            [sys.executable, "-S", "-c",
             f"import sys; sys.path.insert(0, {src!r}); import {module}; "
             f"print([m for m in {heavy!r} if m in sys.modules])"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (result.returncode, result.stdout) == (0, "[]\n"), (module, result.stderr)


def test_package_exports_exactly_the_modules_public_names():
    # __init__ re-exports each module's __all__ and names nothing itself
    public = {
        name for name, value in vars(fano_acm).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    modules = (chow, catalog, rank2, acm)
    assert public == {name for module in modules for name in module.__all__}
    for module in modules:
        for name in module.__all__:
            assert getattr(fano_acm, name) is getattr(module, name), (module, name)
    assert not public & set(cli.__all__)


_RECORDS = [
    # (type, positional arguments, the same as keywords, repr)
    (FanoThreefold, (3,), {"d": 3}, "FanoThreefold(d=3)"),
    (
        BlockSpec,
        (Family.F51, 5, 1, frozenset({5}), "on V_5"),
        {"family": Family.F51, "rank": 5, "base_c1": 1, "d_set": frozenset({5}),
         "provenance": "on V_5"},
        "BlockSpec(family=<Family.F51: 'F_{5,1}'>, rank=5, base_c1=1, "
        "d_set=frozenset({5}), provenance='on V_5')",
    ),
    (DPoly, (3,), {"const": 3, "d_coeff": 0}, "DPoly(const=3, d_coeff=0)"),
    (
        TableRow,
        (frozenset({5}), 5, 1, DPoly(5), DPoly(3), Decomposition((F51,))),
        {"d_set": frozenset({5}), "rank": 5, "c1": 1, "c2_printed": DPoly(5),
         "c3_printed": DPoly(3), "decomposition": Decomposition((F51,))},
        "TableRow(d_set=frozenset({5}), rank=5, c1=1, "
        "c2_printed=DPoly(const=5, d_coeff=0), c3_printed=DPoly(const=3, d_coeff=0), "
        "decomposition=Decomposition(blocks=(BlockId(family=<Family.F51: 'F_{5,1}'>, "
        "twist=0),)))",
    ),
    (
        Discrepancy,
        (5, 5, 4, 35, 22, 35, 32, 35, 32),
        {"d": 5, "rank": 5, "c1": 4, "printed_c2": 35, "printed_c3": 22,
         "computed_c2": 35, "computed_c3": 32, "forced_c2": 35, "forced_c3": 32},
        "Discrepancy(d=5, rank=5, c1=4, printed_c2=35, printed_c3=22, computed_c2=35, "
        "computed_c3=32, forced_c2=35, forced_c3=32)",
    ),
    (
        AdmissibleTriple,
        (3, 4, 2, 7, 4, 7, 3),
        {"d": 3, "rank": 4, "c1": 2, "c2": 7, "c3": 4, "curve_degree": 7,
         "curve_genus": 3},
        "AdmissibleTriple(d=3, rank=4, c1=2, c2=7, c3=4, curve_degree=7, curve_genus=3)",
    ),
    (
        Check,
        ("rank", True, "rank sum 4, target 4"),
        {"name": "rank", "passed": True, "detail": "rank sum 4, target 4"},
        "Check(name='rank', passed=True, detail='rank sum 4, target 4')",
    ),
    (
        TwistOf,
        (Family.SC, 1),
        {"family": Family.SC, "twist": 1},
        "TwistOf(family=<Family.SC: 'S_C'>, twist=1)",
    ),
    (SplitLineBundles, (2, -1), {"a": 2, "b": -1}, "SplitLineBundles(a=2, b=-1)"),
    (NoACMBundle, (), {}, "NoACMBundle()"),
    (
        _Result,  # builtins as makers, since a lambda does not pickle
        (dict, tuple, list),
        {"json": dict, "csv": tuple, "human": list, "note": None, "rows": None},
        "_Result(json=<class 'dict'>, csv=<class 'tuple'>, human=<class 'list'>, "
        "note=None, rows=None)",
    ),
]


@pytest.mark.parametrize(
    "cls, args, kwargs, text", _RECORDS, ids=[r[0].__name__ for r in _RECORDS]
)
def test_value_records_behave_as_frozen_records(cls, args, kwargs, text):
    record, twin = cls(*args), cls(**kwargs)
    assert repr(record) == text
    assert record == twin and hash(record) == hash(twin)
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record and hash(copy) == hash(record)
    assert record  # NoACMBundle() too, though it has no fields
    for name in (*record._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)


_SLOTTED = [
    # (type, positional arguments, the same as keywords, repr, field values,
    #  a build that fails, its ValueError message)
    (
        ChernData, (3, 1, 3, 1), {"rank": 3, "c1": 1, "c2": 3, "c3": 1},
        "ChernData(rank=3, c1=1, c2=3, c3=1)", (3, 1, 3, 1),
        lambda: ChernData(2, 0, 1, 1), "rank 2 forces c3 = 0",
    ),
    (
        BlockId, (Family.SC, 1), {"family": Family.SC, "twist": 1},
        "BlockId(family=<Family.SC: 'S_C'>, twist=1)", (Family.SC, 1),
        lambda: Decomposition(counts=((SC1, -1),)), "negative count -1 of S_C(1)",
    ),
    (
        Decomposition, ((SE1, SC1, SE1),), {"blocks": (SE1, SC1, SE1)},
        "Decomposition(blocks=(BlockId(family=<Family.SC: 'S_C'>, twist=1), "
        "BlockId(family=<Family.SE: 'S_E'>, twist=1), "
        "BlockId(family=<Family.SE: 'S_E'>, twist=1)))",
        ((SC1, SE1, SE1), ((SC1, 1), (SE1, 2))),
        lambda: Decomposition((SC1,), counts=((SC1, 1),)),
        "give a Decomposition its blocks or its counts, not both",
    ),
]


@pytest.mark.parametrize(
    "cls, args, kwargs, text, values, bad, message", _SLOTTED,
    ids=[r[0].__name__ for r in _SLOTTED],
)
def test_slotted_records_behave_as_frozen_dataclasses(
    cls, args, kwargs, text, values, bad, message
):
    record, twin = cls(*args), cls(**kwargs)
    assert repr(record) == text
    assert record == twin and hash(record) == hash(twin)
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(copied) is cls and copied == record and hash(copied) == hash(record)
    assert record != values and values != record  # equal only to its own class
    assert cls.__match_args__ == tuple(kwargs) + (("counts",) if cls is Decomposition else ())
    match record:
        case cls(first):
            assert first == values[0]
    for name in cls.__match_args__:
        with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to"):
            setattr(record, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete"):
            delattr(record, name)
    assert record == twin
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        bad()


def test_fano_threefold_checks_d_however_it_is_built():
    message = r"^V_d requires d in \{3, 4, 5\}, got d=7$"
    for build in (lambda: FanoThreefold(7), lambda: FanoThreefold._make([7]),
                  lambda: FanoThreefold(3)._replace(d=7)):
        with pytest.raises(ValueError, match=message):
            build()


# --- oracle -------------------------------------------------------------------

def test_oracle_unique_decompositions():
    assert oracle_enumerate(FanoThreefold(3), 4, 2) == [Decomposition((SC1, SC1))]
    assert oracle_enumerate(FanoThreefold(3), 3, 1) == [Decomposition((F31,))]


def test_oracle_finds_all_rank7_c2_decompositions_on_v5():
    decs = oracle_enumerate(FanoThreefold(5), 7, 2)
    assert Decomposition((F72,)) in decs
    assert Decomposition((F41, F31)) in decs
    assert Decomposition((SC1, F51)) in decs
    assert len(decs) == 3


def test_oracle_bound():
    with pytest.raises(BoundExceeded):
        oracle_enumerate(FanoThreefold(3), 13, 5)
    assert oracle_enumerate(FanoThreefold(3), 13, 5, bound=13)


def test_oracle_refuses_ranks_above_its_ceiling_whatever_the_bound():
    assert ORACLE_MAX_RANK == 60
    for rank, bound in ((61, 1000), (1000, 1000), (10**18, 10**18), (61, 0)):
        with pytest.raises(BoundExceeded, match=f"^rank {rank} exceeds the oracle ceiling 60$"):
            oracle_enumerate(FanoThreefold(5), rank, rank // 2, bound=bound)


def test_oracle_answers_at_its_ceiling():
    X = FanoThreefold(5)
    decs = oracle_enumerate(X, ORACLE_MAX_RANK, 60, bound=ORACLE_MAX_RANK)
    assert Decomposition(counts=((SE1, 30),)) in decs and len(decs) == 11
    for dec in decs:
        assert dec.chern(X) == make_triple(X, 60, 60).chern()


def test_oracle_refuses_a_negative_rank():
    for rank in (-1, -5, -(10**50)):
        with pytest.raises(InvalidRank, match=f"rank must be >= 0, got {rank}"):
            oracle_enumerate(FanoThreefold(3), rank, 2)
    assert oracle_enumerate(FanoThreefold(3), 0, 0) == [Decomposition(())]
    assert oracle_enumerate(FanoThreefold(3), 1, 0) == []


def test_oracle_excludes_trivial_and_sl_blocks():
    for decs in (oracle_enumerate(FanoThreefold(5), 6, 2),
                 oracle_enumerate(FanoThreefold(5), 4, 1)):
        for dec in decs:
            assert all(b.family not in (Family.OV, Family.SL) for b in dec.blocks)


def test_oracle_closure_all_sums_carry_forced_classes():
    for X in VARIETIES:
        for r in range(3, 10):
            for c1 in range(0, r + 1):
                for dec in oracle_enumerate(X, r, c1):
                    total = dec.chern(X)
                    assert total.rank == r and total.c1 == c1
                    assert total.c2 == forced_c2(X, r, c1)
                    assert total.c3 == forced_c3(X, r, c1)


def test_oracle_matches_brute_force_over_block_multisets():
    # every multiset of at most r/2 eligible blocks, grouped by its sums,
    # inadmissible (r, c1) included: the search's pruning loses nothing
    eligible = [SC1, SE1] + [BlockId(f) for f in (
        Family.F31, Family.F32, Family.F33, Family.F41, Family.F51, Family.F72)]
    for X in VARIETIES:
        blocks = [b for b in eligible if block_available(b.family, X)]
        by_sums = {}
        for n in range(0, 6):
            for combo in combinations_with_replacement(blocks, n):
                dec = Decomposition(combo)
                by_sums.setdefault((dec.rank, dec.c1), set()).add(dec)
        for r in range(0, 11):
            for c1 in range(-1, r + 2):
                found = oracle_enumerate(X, r, c1)
                assert len(set(found)) == len(found)
                assert set(found) == by_sums.get((r, c1), set()), (X.d, r, c1)


def test_oracle_deterministic_order():
    decs = oracle_enumerate(FanoThreefold(5), 7, 2)
    assert decs == sorted(decs, key=Decomposition.sort_key)
    assert decs == oracle_enumerate(FanoThreefold(5), 7, 2)


# about 0.6 s for the three degrees on a 2-vCPU VM
_ORDER_MAX_RANK = 30


def test_oracle_results_come_out_in_canonical_order_without_a_sort():
    # the search tries candidates in ascending key and each from most
    # copies down to one; nothing sorts its results afterwards
    n = 0
    for X in VARIETIES:
        blocks = [b for b, _, _ in _oracle_blocks(X.d)]
        assert blocks == sorted(blocks, key=BlockId.sort_key)
        for r in range(0, _ORDER_MAX_RANK + 1):
            for c1 in range(-1, r + 2):
                found = oracle_enumerate(X, r, c1, bound=60)
                assert found == sorted(found, key=Decomposition.sort_key), (X.d, r, c1)
                assert len(set(found)) == len(found), (X.d, r, c1)
                n += len(found)
    assert n == 39835


def test_every_eligible_block_has_rank_at_most_d_c1():
    # so every sum of eligible blocks has r <= d c1 too: the census's
    # relaxed-only rows, where d c1 = r - 1, are out of the catalog's reach
    for X in VARIETIES:
        blocks = _oracle_blocks(X.d)
        assert blocks
        # the table is built once per degree and read by every call
        assert _oracle_blocks(X.d) is blocks
        for b, rank, c1 in blocks:
            assert (rank, c1) == _block_rank_c1(b), (X.d, b)
            assert rank <= X.d * c1, (X.d, b)


def test_witness_summands_are_the_catalog_blocks_the_rule_admits():
    # _oracle_blocks derives them: one-block witnesses at their own
    # (rank, c1), inside r/d <= c1 <= r
    F32 = BlockId(Family.F32)
    on_v3 = (SC1, SE1, F31, F32, F33)
    expected = {3: on_v3, 4: on_v3 + (F41,), 5: on_v3 + (F41, F51, F72)}
    for X in VARIETIES:
        assert tuple(b for b, _, _ in _oracle_blocks(X.d)) == expected[X.d], X.d


def test_each_family_has_the_admissible_range_at_twist_0_or_1_only():
    # the twists t with ceil(r/d) <= b1 + r t <= r, solved for t; the
    # interval has length (r - ceil(r/d)) / r < 1, so it holds at most one
    # integer, and _oracle_blocks need try no twist but 0 and 1
    for spec in catalog.BLOCKS.values():
        r, b1 = spec.rank, spec.base_c1
        for d in (3, 4, 5):
            lowest = -(-r // d)
            twists = range(-((b1 - lowest) // r), (r - b1) // r + 1)
            assert len(twists) <= 1 and set(twists) <= {0, 1}, (spec.family, d)
            for t in (*twists, twists.start - 1, twists.stop):
                c1 = b1 + r * t
                assert (lowest <= c1 <= r) == (t in twists), (spec.family, d, t)


def test_one_block_decompositions_take_the_whitney_loop_to_the_block_data():
    for X in VARIETIES:
        for family in Family:
            for t in (0, 1):
                b = BlockId(family, t)
                assert Decomposition((b,)).chern(X) == catalog._block_data(b, X)[0], (X.d, b)


def test_oracle_finds_nothing_on_the_relaxed_only_census_rows():
    for X in VARIETIES:
        unknown = [row for row in _admissible_rows(X, range(3, 13), True)
                   if X.d * row[2] < row[1]]
        assert unknown
        for _, r, c1, *_ in unknown:
            assert X.d * c1 == r - 1
            assert admissible(X, r, c1, relaxed=True) and not admissible(X, r, c1)
            assert oracle_enumerate(X, r, c1) == [], (X.d, r, c1)


# about 0.3 s for the three degrees on a 2-vCPU VM
_REACH_MAX_RANK = 800


def test_block_sums_reach_exactly_the_admissible_range():
    # the existence statement, checked without witness: an unbounded
    # knapsack over the eligible blocks, where bit r of reach[c] says that
    # some sum of them has rank r and c1 = c.  Every block has c1 >= 1, so
    # no sum has c1 > R at rank <= R.
    R = _REACH_MAX_RANK
    below = (1 << (R + 1)) - 1
    for X in VARIETIES:
        reach = [1] + [0] * R  # the empty sum
        for b, br, bc in _oracle_blocks(X.d):
            assert (br, bc) == _block_rank_c1(b)
            assert bc >= 1
            for c in range(bc, R + 1):
                reach[c] |= (reach[c - bc] << br) & below
        for r in range(3, R + 1):
            for c1 in range(0, r + 2):
                reached = c1 <= R and reach[c1] >> r & 1
                assert bool(reached) == admissible(X, r, c1), (X.d, r, c1)


# --- chi identities of admissible triples ---------------------------------------

def test_chi_vanishing_for_admissible_triples():
    for X in VARIETIES:
        for r in range(3, 16):
            for c1 in strict_c1_range(X, r):
                c = make_triple(X, r, c1).chern()
                assert chi_twist(c, X, -1) == 0
                assert chi_twist(c, X, -2) == 0
                assert chi_twist(c, X, -3) == X.d * (c1 - r)


def test_section_count_at_chi_level():
    for X in VARIETIES:
        for r in range(3, 21):
            for c1 in strict_c1_range(X, r):
                c = make_triple(X, r, c1).chern()
                assert euler_char(c, X) >= r

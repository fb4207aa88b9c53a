"""Catalog blocks, the census table and its verification."""

from __future__ import annotations

import dataclasses
import re
import tracemalloc
from collections import Counter
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fano_acm import (
    BLOCKS,
    BlockId,
    ChernData,
    Decomposition,
    DPoly,
    FanoThreefold,
    Family,
    UnavailableBlock,
    block_available,
    block_chern,
    complement_in_trivial,
    euler_char,
    forced_c2,
    forced_c3,
    table1_rows,
    table_export_rows,
    twist,
    verify_table1,
    whitney_power,
    whitney_sum,
    witness,
)
from fano_acm.catalog import _base_chern, _linear_in_d, _twist1_chern
from support import VARIETIES

SC1 = BlockId(Family.SC, 1)
SE1 = BlockId(Family.SE, 1)

# every block at the twist it is used with in witnesses
WITNESS_BLOCKS = (
    SC1,
    SE1,
    BlockId(Family.F31),
    BlockId(Family.F32),
    BlockId(Family.F33),
    BlockId(Family.F41),
    BlockId(Family.F51),
    BlockId(Family.F72),
)


def available_varieties(family: Family):
    return [X for X in VARIETIES if block_available(family, X)]


# --- block data ---------------------------------------------------------------

def test_base_chern_data():
    expected = {
        Family.OV: lambda d: (1, 0, 0, 0),
        Family.SL: lambda d: (2, 0, 1, 0),
        Family.SC: lambda d: (2, -1, 2, 0),
        Family.SE: lambda d: (2, 0, 2, 0),
        Family.F31: lambda d: (3, 1, 3, 1),
        Family.F32: lambda d: (3, 2, d + 3, 2),
        Family.F33: lambda d: (3, 3, 3 * d + 3, d + 3),
        Family.F41: lambda d: (4, 1, 4, 2),
        Family.F51: lambda d: (5, 1, 5, 3),
        Family.F72: lambda d: (7, 2, 12, 10),
    }
    for family, spec in BLOCKS.items():
        for X in available_varieties(family):
            assert spec.base_chern(X).tuple() == expected[family](X.d)


def test_availability():
    assert not block_available(Family.F41, FanoThreefold(3))
    assert block_available(Family.F41, FanoThreefold(4))
    assert not block_available(Family.F51, FanoThreefold(4))
    assert not block_available(Family.F72, FanoThreefold(3))
    for family in (Family.OV, Family.SL, Family.SC, Family.SE,
                   Family.F31, Family.F32, Family.F33):
        assert all(block_available(family, X) for X in VARIETIES)


def test_block_chern_twist_examples():
    assert block_chern(SC1, FanoThreefold(4)) == ChernData(2, 1, 2, 0)
    assert block_chern(SE1, FanoThreefold(3)) == ChernData(2, 2, 5, 0)


def test_unavailable_block_raises():
    with pytest.raises(UnavailableBlock):
        block_chern(BlockId(Family.F72), FanoThreefold(3))
    with pytest.raises(UnavailableBlock):
        block_chern(BlockId(Family.F51), FanoThreefold(4))


def test_h0_values():
    for X in VARIETIES:
        assert BLOCKS[Family.SL].h0(X) == 1
        assert BLOCKS[Family.SC].h0(X) == 0
        assert BLOCKS[Family.F31].h0(X) == X.d
        assert euler_char(block_chern(SC1, X), X) == X.d
    assert BLOCKS[Family.F32].h0(FanoThreefold(5)) == 10


def test_blocks_satisfy_forced_identities_at_witness_twists():
    for block in WITNESS_BLOCKS:
        for X in available_varieties(block.family):
            c = block_chern(block, X)
            assert c.c2 == forced_c2(X, c.rank, c.c1), (block, X)
            assert c.c3 == forced_c3(X, c.rank, c.c1), (block, X)


def test_f72_is_complement_of_f32():
    X = FanoThreefold(5)
    f32 = block_chern(BlockId(Family.F32), X)
    assert block_chern(BlockId(Family.F72), X) == complement_in_trivial(f32, 10, X)


def test_chi_integral_on_blocks_and_their_sums():
    for X in VARIETIES:
        blocks = [b for b in WITNESS_BLOCKS if block_available(b.family, X)]
        cherns = [block_chern(b, X) for b in blocks]
        for c in cherns:
            assert euler_char(c, X).denominator == 1
        for a, b in combinations_with_replacement(cherns, 2):
            assert euler_char(whitney_sum(a, b, X), X).denominator == 1


# --- decompositions -------------------------------------------------------------

def test_decomposition_canonical_order_and_render():
    dec = Decomposition((BlockId(Family.F31), SC1, BlockId(Family.F31)))
    assert dec.render() == "S_C(1) ⊕ F_{3,1} ⊕ F_{3,1}"
    assert dec == Decomposition((BlockId(Family.F31), BlockId(Family.F31), SC1))
    assert dec.rank == 8 and dec.c1 == 3


@settings(max_examples=300)
@given(
    st.sampled_from(list(Family)),
    st.integers(-5, 5),
    st.integers(0, 50),
    st.sampled_from(VARIETIES),
)
def test_whitney_power_matches_iterated_whitney_sum(family, t, k, X):
    # every family at every twist, available on X or not: the formula is
    # pure Chern arithmetic
    c = twist(BLOCKS[family].base_chern(X), X, t)
    total = ChernData.trivial(0)
    for _ in range(k):
        total = whitney_sum(total, c, X)
    assert whitney_power(c, X, k) == total


def test_whitney_power_rejects_negative_copies():
    with pytest.raises(ValueError):
        whitney_power(ChernData.trivial(1), FanoThreefold(3), -1)


def sample_decompositions():
    decs = [row.decomposition for row in table1_rows()]
    for X in VARIETIES:
        for r, c1 in ((8, 3), (9, 3), (8, 8), (13, 5), (40, 17), (41, 40), (150, 50)):
            if X.d * c1 >= r:
                decs.append(witness(X, r, c1))
    decs.append(Decomposition((SE1, BlockId(Family.OV), SC1, BlockId(Family.OV), SE1)))
    decs.append(Decomposition(()))
    return decs


def test_decomposition_counts_expand_to_blocks():
    for dec in sample_decompositions():
        expanded = tuple(b for b, k in dec.counts for _ in range(k))
        assert expanded == dec.blocks
        distinct = [b for b, _ in dec.counts]
        assert len(set(distinct)) == len(distinct)
        assert all(k > 0 for _, k in dec.counts)
        assert Decomposition(counts=tuple(reversed(dec.counts))) == dec


def test_decomposition_from_counts_merges_and_drops_zeros():
    dec = Decomposition(counts=((BlockId(Family.F31), 0), (SE1, 2), (SC1, 1), (SE1, 1)))
    assert dec.counts == ((SC1, 1), (SE1, 3))
    assert dec == Decomposition((SE1, SC1, SE1, SE1))
    assert Decomposition(counts=()) == Decomposition(())


def test_decomposition_rejects_bad_counts():
    with pytest.raises(ValueError):
        Decomposition(counts=((SC1, -1),))
    with pytest.raises(ValueError):
        Decomposition((SC1,), counts=((SC1, 1),))


def test_post_init_hook_sees_the_given_summands(monkeypatch):
    # bench/spans.py wraps __post_init__ on the class and reads obj.blocks
    # before calling the original, to count the summands each build sorts
    post_init, seen = Decomposition.__dict__["__post_init__"], []

    def hook(obj):
        seen.append(obj.blocks)
        post_init(obj)

    monkeypatch.setattr(Decomposition, "__post_init__", hook)
    F31 = BlockId(Family.F31)
    shuffled = (SE1, F31, SC1, SE1, BlockId(Family.OV))
    from_blocks = Decomposition(shuffled)
    from_counts = Decomposition(counts=((SE1, 2), (F31, 0), (SC1, 1), (SE1, 1)))
    assert seen == [shuffled, (SE1, SE1, SC1, SE1)]
    assert from_blocks.counts == ((BlockId(Family.OV), 1), (SC1, 1), (SE1, 2), (F31, 1))
    assert from_counts.counts == ((SC1, 1), (SE1, 3))


@settings(max_examples=300)
@given(
    st.lists(
        st.tuples(
            st.builds(BlockId, st.sampled_from(list(Family)), st.integers(-3, 3)),
            st.integers(0, 5),
        ),
        max_size=8,
    ),
    st.randoms(use_true_random=False),
)
def test_decomposition_from_blocks_or_counts_is_one_multiset(pairs, rnd):
    blocks = [b for b, k in pairs for _ in range(k)]
    rnd.shuffle(blocks)
    from_blocks = Decomposition(tuple(blocks))
    from_counts = Decomposition(counts=tuple(pairs))
    assert from_blocks == from_counts
    assert hash(from_blocks) == hash(from_counts)
    # reference expansion: distinct blocks in (family, twist) order, each
    # repeated by its total multiplicity
    totals = Counter()
    for b, k in pairs:
        totals[b] += k
    expected = tuple(
        b for b in sorted(totals, key=lambda b: (list(Family).index(b.family), b.twist))
        for _ in range(totals[b])
    )
    for dec in (from_blocks, from_counts):
        assert type(dec.blocks) is tuple and dec.blocks == expected
        assert dec.render() == " ⊕ ".join(b.render() for b in expected)
        assert dec.to_json() == [b.to_json() for b in expected]
        assert dec.sort_key() == tuple(b.sort_key() for b in expected)


def test_decomposition_is_immutable():
    dec = Decomposition((SE1, SC1, SE1))
    for name in ("blocks", "counts"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(dec, name, ())
    assert dec.blocks == (SC1, SE1, SE1)
    assert dec.counts == ((SC1, 1), (SE1, 2))


def test_decomposition_with_huge_count_is_exact_in_constant_memory():
    k = 10**50
    for X in VARIETIES:
        dec = Decomposition(counts=((SE1, 1),))
        dec.chern(X)  # fill the block caches outside the traced window
        tracemalloc.start()
        try:
            dec = Decomposition(counts=((SE1, k),))
            rank, c1, total = dec.rank, dec.c1, dec.chern(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10
        assert (rank, c1) == (2 * k, 2 * k)
        assert total == whitney_power(block_chern(SE1, X), X, k)


def test_decomposition_chern_matches_blockwise_whitney_sum():
    for X in VARIETIES:
        for dec in sample_decompositions():
            total = ChernData.trivial(0)
            for b in dec.blocks:
                block = twist(BLOCKS[b.family].base_chern(X), X, b.twist)
                total = whitney_sum(total, block, X)
            assert dec.chern(X) == total
            assert (dec.rank, dec.c1) == (total.rank, total.c1)


def fold_of_whitney_sum(dec: Decomposition, X: FanoThreefold) -> ChernData:
    # one summand at a time, each block's data recomputed from its base
    total = ChernData.trivial(0)
    for b in dec.blocks:
        total = whitney_sum(total, twist(BLOCKS[b.family].base_chern(X), X, b.twist), X)
    return total


any_block = st.builds(BlockId, st.sampled_from(list(Family)), st.integers(-5, 5))


def test_decomposition_chern_of_one_block_kind_is_the_fold():
    # every family (O_V, S_L and the families unavailable on X included)
    # at every twist in [-5, 5], on every V_d, in 0 to 3 copies
    for X in VARIETIES:
        assert Decomposition(()).chern(X) == ChernData.trivial(0)
        for family in Family:
            for t in range(-5, 6):
                for k in range(4):
                    dec = Decomposition(counts=((BlockId(family, t), k),))
                    assert dec.chern(X) == fold_of_whitney_sum(dec, X), (X, family, t, k)


@settings(max_examples=300)
@given(
    st.lists(st.tuples(any_block, st.integers(0, 4)), max_size=6),
    st.sampled_from(VARIETIES),
)
def test_decomposition_chern_is_the_fold_of_whitney_sum(pairs, X):
    dec = Decomposition(counts=tuple(pairs))
    assert dec.chern(X) == fold_of_whitney_sum(dec, X)


def test_decomposition_chern_at_a_count_of_10_to_the_50():
    k = 10**50
    for X in VARIETIES:
        for family in Family:
            block = BlockId(family, -3)
            c = twist(BLOCKS[family].base_chern(X), X, -3)
            assert Decomposition(counts=((block, k),)).chern(X) == whitney_power(c, X, k)
            mixed = Decomposition(counts=((block, k), (SC1, 2), (SE1, k + 1)))
            expected = whitney_sum(
                whitney_sum(whitney_power(c, X, k), whitney_power(block_chern(SC1, X), X, 2), X),
                whitney_power(block_chern(SE1, X), X, k + 1),
                X,
            )
            assert mixed.chern(X) == expected, (X, family)


def test_canonical_counts_are_stored_as_given():
    counts = ((SC1, 2), (SE1, 1), (BlockId(Family.F31), 10**50))
    assert Decomposition(counts=counts).counts is counts
    # a list of pairs, or pairs that are not tuples, are still made tuples
    assert Decomposition(counts=list(counts)).counts == counts
    assert Decomposition(counts=[[SC1, 2], [SE1, 1]]).counts == ((SC1, 2), (SE1, 1))


def test_canonical_prefix_then_a_repeat_zero_or_negative_count():
    F31 = BlockId(Family.F31)
    prefix = ((SC1, 2), (SE1, 1), (F31, 3))
    assert Decomposition(counts=prefix + ((SE1, 4),)).counts == (
        (SC1, 2), (SE1, 5), (F31, 3))
    assert Decomposition(counts=prefix + ((F31, 1),)).counts == (
        (SC1, 2), (SE1, 1), (F31, 4))
    assert Decomposition(counts=prefix + ((BlockId(Family.F33), 0),)).counts == prefix
    assert Decomposition(counts=((SC1, 0),) + prefix).counts == prefix
    assert Decomposition(counts=prefix[:1] + ((SE1, 0),) + prefix[2:]).counts == (
        (SC1, 2), (F31, 3))
    with pytest.raises(ValueError, match=re.escape("negative count -1 of F_{3,3}")):
        Decomposition(counts=prefix + ((BlockId(Family.F33), -1),))
    with pytest.raises(ValueError, match=re.escape("negative count -2 of S_C(1)")):
        Decomposition(counts=((SC1, -2),) + prefix[1:])


@settings(max_examples=300)
@given(
    st.sets(any_block, max_size=5),
    st.lists(st.integers(1, 5), min_size=5, max_size=5),
    any_block,
    st.integers(-2, 3),
)
def test_canonical_prefix_then_any_pair_is_merged_as_before(distinct, ks, block, k):
    prefix = tuple(zip(sorted(distinct, key=BlockId.sort_key), ks))
    counts = prefix + ((block, k),)
    if k < 0:
        message = f"negative count {k} of {block.render()}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Decomposition(counts=counts)
        return
    totals = Counter()
    for b, n in counts:
        totals[b] += n
    expected = tuple(
        (b, totals[b]) for b in sorted(totals, key=BlockId.sort_key) if totals[b]
    )
    dec = Decomposition(counts=counts)
    assert dec.counts == expected
    assert all(type(pair) is tuple for pair in dec.counts)


def test_decomposition_json():
    dec = Decomposition((SE1, BlockId(Family.F33)))
    assert dec.to_json() == [
        {"family": "SE", "twist": 1},
        {"family": "F33", "twist": 0},
    ]


# --- the table -------------------------------------------------------------------

def test_table_has_23_rows():
    assert len(table1_rows()) == 23


def test_named_example_rows():
    rows = {(row.rank, row.c1): row for row in table1_rows()}
    r31 = rows[(3, 1)]
    assert r31.d_set == frozenset({3, 4, 5})
    assert (str(r31.c2_printed), str(r31.c3_printed)) == ("3", "1")
    assert r31.decomposition == Decomposition((BlockId(Family.F31),))
    r41 = rows[(4, 1)]
    assert r41.d_set == frozenset({4, 5})
    assert (str(r41.c2_printed), str(r41.c3_printed)) == ("4", "2")
    assert r41.decomposition == Decomposition((BlockId(Family.F41),))
    r51 = rows[(5, 1)]
    assert r51.d_set == frozenset({5})


def test_table_row_keys_are_unique():
    keys = [(row.rank, row.c1) for row in table1_rows()]
    assert len(keys) == len(set(keys))


def test_misprinted_row_is_stored_verbatim():
    row = next(r for r in table1_rows() if (r.rank, r.c1) == (5, 4))
    assert str(row.c3_printed) == "4d+2"
    assert row.c3_printed(3) == 14


def test_verify_table_flags_exactly_the_misprint():
    applicable = {3: 20, 4: 22, 5: 23}
    for X in VARIETIES:
        discrepancies = verify_table1(X)
        assert len(discrepancies) == 1
        disc = discrepancies[0]
        assert (disc.rank, disc.c1) == (5, 4)
        assert disc.printed_c2 == 6 * X.d + 5
        assert disc.printed_c3 == 4 * X.d + 2
        assert disc.computed_c2 == disc.forced_c2 == 6 * X.d + 5
        assert disc.computed_c3 == disc.forced_c3 == 4 * X.d + 12
        rows = [r for r in table1_rows() if X.d in r.d_set]
        assert len(rows) == applicable[X.d]


def test_all_rows_whitney_equal_forced():
    # the decompositions always carry the forced classes; only the printed
    # data can disagree
    for X in VARIETIES:
        for row in table1_rows():
            if X.d not in row.d_set:
                continue
            total = row.decomposition.chern(X)
            assert total.rank == row.rank and total.c1 == row.c1
            assert total.c2 == forced_c2(X, row.rank, row.c1)
            assert total.c3 == forced_c3(X, row.rank, row.c1)


# --- dpoly and export ----------------------------------------------------------

def test_dpoly_rendering():
    assert str(DPoly(2, 4)) == "4d+2"
    assert str(DPoly(3)) == "3"
    assert str(DPoly(3, 1)) == "d+3"
    assert str(DPoly(15, 10)) == "10d+15"
    assert str(DPoly(0, 7)) == "7d"
    assert str(DPoly(-2, 1)) == "d-2"
    assert DPoly(2, 4)(5) == 22


def test_base_chern_cache_holds_one_entry_per_family_and_degree():
    twists = list(range(-(10**6), 10**6 + 1, 9973)) + [10**6]
    for X in VARIETIES:
        for family in Family:
            for t in twists:
                dec = Decomposition((BlockId(family, t), BlockId(family, -t)))
                assert dec.chern(X) == whitney_sum(
                    twist(BLOCKS[family].base_chern(X), X, t),
                    twist(BLOCKS[family].base_chern(X), X, -t),
                    X,
                )
    assert _base_chern.cache_info().currsize <= len(Family) * len(VARIETIES) == 30


def test_twist1_cache_holds_one_entry_per_family_and_degree():
    twists = list(range(-(10**6), 10**6 + 1, 9973)) + [10**6, 1, 0, -1]
    for X in VARIETIES:
        for family in Family:
            base = BLOCKS[family].base_chern(X)
            for t in twists:
                dec = Decomposition((BlockId(family, t), BlockId(family, 1)))
                assert dec.chern(X) == whitney_sum(
                    twist(base, X, t), twist(base, X, 1), X
                )
    assert _twist1_chern.cache_info().currsize <= len(Family) * len(VARIETIES) == 30
    for X in VARIETIES:
        for family in Family:
            base = BLOCKS[family].base_chern(X)
            assert _twist1_chern(family, X) == twist(base, X, 1)
            if block_available(family, X):
                assert block_chern(BlockId(family, 1), X) == twist(
                    block_chern(BlockId(family), X), X, 1
                )


def test_linear_in_d_rejects_three_points_off_a_line():
    assert _linear_in_d((7, 11, 15)) == DPoly(-5, 4)
    with pytest.raises(ValueError, match="internal error: .* not linear in d"):
        _linear_in_d((9, 16, 25))


def test_table_export_symbolic():
    rows = table_export_rows()
    assert len(rows) == 23
    assert all(set(r) == {
        "d_set", "rank", "c1", "c2_printed", "c3_printed",
        "c2_computed", "c3_computed", "decomposition", "status",
    } for r in rows)
    bad = [r for r in rows if r["status"] == "mismatch"]
    assert len(bad) == 1
    assert bad[0]["rank"] == 5 and bad[0]["c1"] == 4
    assert bad[0]["c3_printed"] == "4d+2"
    assert bad[0]["c3_computed"] == "4d+12"
    assert bad[0]["decomposition"] == "S_C(1) ⊕ F_{3,3}"


def test_table_export_at_fixed_degree():
    rows = table_export_rows(FanoThreefold(3))
    assert len(rows) == 20
    bad = [r for r in rows if r["status"] == "mismatch"]
    assert len(bad) == 1 and bad[0]["c3_computed"] == 24 and bad[0]["c3_printed"] == 14

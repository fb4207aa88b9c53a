"""CLI behavior: exit codes, output formats, determinism."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fano_acm import (
    BlockId,
    ChernData,
    Decomposition,
    FanoThreefold,
    Family,
    InternalError,
    admissible,
    chi_twist,
    format_rational,
    make_triple,
    oracle_enumerate,
    table1_rows,
    twist,
    validate_witness,
    witness,
)
from fano_acm import catalog, cli
from fano_acm.catalog import _linear_in_d
from fano_acm.cli import _build_parser, run
from fano_acm.rank2 import SplitLineBundles, TwistOf, classify_rank2


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- chi / twist -----------------------------------------------------------------

def test_chi_human_includes_chern_data(capsys):
    code, out, _ = invoke(capsys, ["chi", "--d", "3", "--rank", "2", "--c1", "0",
                                   "--c2", "1", "--c3", "0"])
    assert code == 0
    assert "(rank=2, c1=0, c2=1, c3=0)" in out
    assert "chi(F(0)) = 1" in out


def test_chi_json_integer_and_fractional(capsys):
    code, out, _ = invoke(capsys, ["chi", "--d", "5", "--rank", "3", "--c1", "2",
                                   "--c2", "8", "--c3", "2", "--format", "json"])
    assert code == 0
    assert json.loads(out)["chi"] == 10
    code, out, _ = invoke(capsys, ["chi", "--d", "3", "--rank", "3", "--c1", "0",
                                   "--c2", "0", "--c3", "1", "--format", "json"])
    assert code == 0
    assert json.loads(out)["chi"] == "7/2"


def test_chi_with_twist_flag(capsys):
    code, out, _ = invoke(capsys, ["chi", "--d", "4", "--rank", "2", "--c1", "1",
                                   "--c2", "2", "--c3", "0", "--twist", "-1",
                                   "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d,rank,c1,c2,c3,twist,chi"
    assert lines[1] == "4,2,1,2,0,-1,0"


def test_twist_command(capsys):
    code, out, _ = invoke(capsys, ["twist", "--d", "5", "--rank", "2", "--c1", "0",
                                   "--c2", "2", "--c3", "0", "--t", "1",
                                   "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == {"rank": 2, "c1": 2, "c2": 7, "c3": 0}


def test_invalid_chern_data_is_input_error(capsys):
    code, _, err = invoke(capsys, ["chi", "--d", "3", "--rank", "1", "--c1", "0",
                                   "--c2", "5", "--c3", "0"])
    assert code == 1
    assert "error" in err


# --- classify2 --------------------------------------------------------------------

def test_classify2_positive(capsys):
    code, out, _ = invoke(capsys, ["classify2", "--d", "3", "--c1", "0", "--c2", "1",
                                   "--format", "json"])
    assert code == 0
    assert json.loads(out)["verdict"] == {"kind": "TwistOfSL", "twist": 0}


def test_classify2_split(capsys):
    code, out, _ = invoke(capsys, ["classify2", "--d", "3", "--c1", "2", "--c2", "3",
                                   "--format", "json"])
    assert code == 0
    assert json.loads(out)["verdict"] == {"kind": "split", "a": 1, "b": 1}


def test_classify2_negative_answer_exits_2(capsys):
    code, out, err = invoke(capsys, ["classify2", "--d", "3", "--c1", "0", "--c2", "3",
                                     "--format", "json"])
    assert code == 2
    assert json.loads(out)["verdict"] == {"kind": "none"}
    assert "no rank-2 model" in err


# --- admissible / census -----------------------------------------------------------

def test_admissible_json(capsys):
    code, out, _ = invoke(capsys, ["admissible", "--d", "3", "--rank", "3",
                                   "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert [t["c1"] for t in payload["triples"]] == [1, 2, 3]
    assert payload["triples"][0] == {
        "d": 3, "rank": 3, "c1": 1, "c2": 3, "c3": 1,
        "curve_degree": 3, "curve_genus": 0,
    }


def test_admissible_rank_too_small_is_input_error(capsys):
    code, _, err = invoke(capsys, ["admissible", "--d", "3", "--rank", "2"])
    assert code == 1
    assert "rank must be >= 3" in err


def test_census_csv_header_and_status(capsys):
    code, out, _ = invoke(capsys, ["census", "--d", "3", "--max-rank", "4",
                                   "--relaxed", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d,rank,c1,c2,c3,curve_degree,curve_genus,strict,existence"
    assert "3,4,1,4,2,4,0,False,unknown" in lines
    assert "3,4,2,7,4,7,3,True,witnessed" in lines


def test_census_human(capsys):
    code, out, _ = invoke(capsys, ["census", "--d", "5", "--max-rank", "3"])
    assert code == 0
    assert "r=3 c1=1" in out and "[witnessed]" in out


def reference_census(d, max_rank, relaxed, fmt):
    """census stdout, rendered the long way: make_triple per admissible c1,
    admissible() for strictness, json.dumps(indent=2) and csv.writer."""
    X = FanoThreefold(d)
    rows = []
    for rank in range(3, max_rank + 1):
        for c1 in range(rank + 1):
            if admissible(X, rank, c1, relaxed=relaxed):
                strict = admissible(X, rank, c1)
                rows.append((make_triple(X, rank, c1), strict,
                             "witnessed" if strict else "unknown"))
    if fmt == "json":
        payload = {
            "d": d, "max_rank": max_rank, "relaxed": relaxed,
            "triples": [{**t.to_json(), "strict": s, "existence": e} for t, s, e in rows],
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["d", "rank", "c1", "c2", "c3", "curve_degree", "curve_genus",
                         "strict", "existence"])
        writer.writerows([[t.d, t.rank, t.c1, t.c2, t.c3, t.curve_degree, t.curve_genus,
                           s, e] for t, s, e in rows])
        return buf.getvalue()
    lines = [f"{X}: admissible triples for 3 <= rank <= {max_rank}"]
    lines += [f"  r={t.rank} c1={t.c1}: c2={t.c2}, c3={t.c3}, "
              f"degree {t.curve_degree}, genus {t.curve_genus} [{e}]" for t, _, e in rows]
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("max_rank", [2, 3, 4, 7, 8, 60])
@pytest.mark.parametrize("d", [3, 4, 5])
def test_census_matches_reference_renderer(capsys, d, max_rank):
    for relaxed in (False, True):
        for fmt in ("human", "json", "csv"):
            argv = ["census", "--d", str(d), "--max-rank", str(max_rank), "--format", fmt]
            code, out, err = invoke(capsys, argv + ["--relaxed"] * relaxed)
            assert (code, err) == (0, "")
            assert out == reference_census(d, max_rank, relaxed, fmt)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([3, 4, 5]),
    st.integers(min_value=-2, max_value=120),
    st.booleans(),
    st.sampled_from(["human", "json", "csv"]),
)
def test_census_matches_reference_renderer_anywhere(d, max_rank, relaxed, fmt):
    argv = ["census", "--d", str(d), "--max-rank", str(max_rank), "--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv + ["--relaxed"] * relaxed)
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue() == reference_census(d, max_rank, relaxed, fmt)


def reference_admissible(d, rank, relaxed, fmt):
    """admissible stdout, rendered the long way: make_triple per admissible
    c1, json.dumps(indent=2) and csv.writer."""
    X = FanoThreefold(d)
    triples = [make_triple(X, rank, c1) for c1 in range(rank + 1)
               if admissible(X, rank, c1, relaxed=relaxed)]
    if fmt == "json":
        payload = {"d": d, "rank": rank, "relaxed": relaxed,
                   "triples": [t.to_json() for t in triples]}
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["d", "rank", "c1", "c2", "c3", "curve_degree", "curve_genus"])
        writer.writerows(triples)
        return buf.getvalue()
    mode = "relaxed" if relaxed else "strict"
    lines = [f"{X}: rank {rank}, {mode} admissible c1 values: {len(triples)}"]
    lines += [f"  c1={t.c1}: c2={t.c2}, c3={t.c3}, "
              f"curve degree {t.curve_degree}, genus {t.curve_genus}" for t in triples]
    return "".join(line + "\n" for line in lines)


# On V_3 strict, ranks 6142, 6143, 6144 and 12287 have 4095, 4096, 4097 and
# 8192 triples: one row short of a chunk, a chunk, one over, and two.
@pytest.mark.parametrize("rank", [3, 8, 6142, 6143, 6144, 12287])
@pytest.mark.parametrize("d", [3, 4, 5])
def test_admissible_matches_reference_renderer(capsys, d, rank):
    for relaxed in (False, True):
        for fmt in ("human", "json", "csv"):
            argv = ["admissible", "--d", str(d), "--rank", str(rank), "--format", fmt]
            code, out, err = invoke(capsys, argv + ["--relaxed"] * relaxed)
            assert (code, err) == (0, "")
            assert out == reference_admissible(d, rank, relaxed, fmt)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([3, 4, 5]),
    st.integers(min_value=3, max_value=300),
    st.booleans(),
    st.sampled_from(["human", "json", "csv"]),
)
def test_admissible_matches_reference_renderer_anywhere(d, rank, relaxed, fmt):
    argv = ["admissible", "--d", str(d), "--rank", str(rank), "--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv + ["--relaxed"] * relaxed)
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue() == reference_admissible(d, rank, relaxed, fmt)


class _CountingSink:
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.chars = self.writes = 0

    def write(self, text):
        self.chars += len(text)
        self.writes += 1
        return len(text)

    def flush(self):
        pass


def test_census_streams_in_bounded_memory():
    peaks = {}
    for max_rank in (300, 1000):
        sink = _CountingSink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = run(["census", "--d", "5", "--max-rank", str(max_rank),
                            "--relaxed", "--format", "json"])
            peaks[max_rank] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
    assert sink.writes == -(-401_196 // 4096)  # one write per chunk of rows
    # 3.3 times the rank, 11 times the rows and bytes (88 MB of json at rank
    # 1000); the peak may grow by no more than one json chunk of 4096 rows
    # (about 1 MB) plus the per-c1 table
    assert sink.chars > 80 * 2**20
    assert peaks[1000] - peaks[300] < 2**20


@pytest.mark.parametrize("rank, writes", [(6143, 1), (6144, 2)])
def test_admissible_writes_one_chunk_of_rows_per_write(rank, writes):
    sink = _CountingSink()
    with contextlib.redirect_stdout(sink):
        code = run(["admissible", "--d", "3", "--rank", str(rank)])
    assert (code, sink.writes) == (0, writes)  # 4096 and 4097 triples


@pytest.mark.parametrize(
    "argv",
    [
        ["admissible", "--d", "3", "--rank", str(10**8)],
        ["admissible", "--d", "5", "--rank", str(10**50), "--relaxed", "--format", "csv"],
        ["census", "--d", "3", "--max-rank", str(10**5), "--format", "json"],
        ["census", "--d", "5", "--max-rank", str(10**18), "--relaxed"],
    ],
)
def test_enumeration_above_bound_exits_1_with_one_line_error(capsys, argv):
    code, out, err = invoke(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith(" admissible triples exceed the enumeration bound 2000000\n")


def test_enumeration_above_bound_prints_no_traceback():
    code, out, err = run_alone(["census", "--d", "3", "--max-rank", str(10**18)])
    assert (code, out) == (1, "")
    assert err == ("error: 333333333333333334333333333333333330 admissible triples "
                   "exceed the enumeration bound 2000000\n")


# --- witness ------------------------------------------------------------------------

def test_witness_json_valid(capsys):
    code, out, _ = invoke(capsys, ["witness", "--d", "3", "--rank", "8", "--c1", "3",
                                   "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["rendered"] == "S_C(1) ⊕ F_{3,1} ⊕ F_{3,1}"
    assert payload["validation"]["ok"] is True
    assert len(payload["validation"]["checks"]) == 5


def test_witness_not_admissible_exit_2(capsys):
    code, out, err = invoke(capsys, ["witness", "--d", "3", "--rank", "4", "--c1", "1"])
    assert code == 2
    assert out == ""
    assert err.strip() == "not admissible: r/d ≤ c1 fails (4/3 > 1)"


def test_witness_at_rank_2500_exits_0_with_all_checks_ok(capsys):
    code, out, err = invoke(capsys, ["witness", "--d", "3", "--rank", "2500", "--c1", "2500"])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "V_3: rank 2500, c1=2500"
    assert lines[1].startswith("witness: S_E(1) ⊕ ")
    assert lines[1].count("S_E(1)") == 1250
    assert len(lines[2:]) == 5
    assert all(line.startswith("  [ok] ") for line in lines[2:])


def reference_witness(d, rank, c1):
    """witness json stdout, rendered the long way: dec.to_json() in the
    payload and json.dumps(indent=2)."""
    X = FanoThreefold(d)
    dec = witness(X, rank, c1)
    report = validate_witness(X, dec, rank, c1)
    total = report.total
    payload = {
        "d": d, "rank": rank, "c1": c1, "decomposition": dec.to_json(),
        "rendered": dec.render(),
        "chern": {"rank": total.rank, "c1": total.c1, "c2": total.c2, "c3": total.c3},
        "validation": report.to_json(),
    }
    return json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("d", [3, 4, 5])
def test_witness_json_matches_reference_renderer(capsys, d):
    for rank in (3, 4, 5, 7, 8, 13, 20, 57, 118, 601, 2500, 9999, 10**4):
        lowest = -(-rank // d)
        for c1 in sorted({lowest, lowest + 1, (lowest + rank) // 2, rank - 1, rank}):
            argv = ["witness", "--d", str(d), "--rank", str(rank), "--c1", str(c1),
                    "--format", "json"]
            assert invoke(capsys, argv) == (0, reference_witness(d, rank, c1), ""), argv


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_witness_json_matches_reference_renderer_anywhere(data):
    d = data.draw(st.sampled_from([3, 4, 5]), label="d")
    rank = data.draw(st.integers(3, 5000), label="rank")
    c1 = data.draw(st.integers(-(-rank // d), rank), label="c1")
    argv = ["witness", "--d", str(d), "--rank", str(rank), "--c1", str(c1), "--format", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(argv) == 0
    assert out.getvalue() == reference_witness(d, rank, c1)


def test_witness_json_renders_failed_checks(capsys, monkeypatch):
    # O_V and F_{7,2}, which V_3 lacks: the availability and trivial
    # summand checks fail, and json writes false with their details
    X, dec = FanoThreefold(3), Decomposition((BlockId(Family.OV), BlockId(Family.F72)))
    monkeypatch.setattr(cli, "witness", lambda X, rank, c1: dec)
    report = validate_witness(X, dec, 8, 2)
    assert not report.verdicts[0] and not report.verdicts[4]
    total = report.total
    payload = {
        "d": 3, "rank": 8, "c1": 2, "decomposition": dec.to_json(), "rendered": dec.render(),
        "chern": {"rank": total.rank, "c1": total.c1, "c2": total.c2, "c3": total.c3},
        "validation": report.to_json(),
    }
    argv = ["witness", "--d", "3", "--rank", "8", "--c1", "2", "--format", "json"]
    assert invoke(capsys, argv) == (0, json.dumps(payload, indent=2) + "\n", "")


@pytest.mark.parametrize("rank", [10**18, 10**50])
def test_witness_above_rank_bound_exits_1_with_one_line_error(capsys, rank):
    code, out, err = invoke(capsys, ["witness", "--d", "3", "--rank", str(rank),
                                     "--c1", str(rank)])
    assert code == 1 and out == ""
    assert err == f"error: rank {rank} exceeds the witness bound 1000000\n"


# --- verify-table --------------------------------------------------------------------

def test_verify_table_human_all_degrees(capsys):
    code, out, _ = invoke(capsys, ["verify-table"])
    assert code == 0
    assert "V_3: 20 applicable rows, 19 match, 1 mismatch" in out
    assert "V_4: 22 applicable rows, 21 match, 1 mismatch" in out
    assert "V_5: 23 applicable rows, 22 match, 1 mismatch" in out


def test_verify_table_human_derives_each_total_once(capsys, monkeypatch):
    degrees = []
    chern = Decomposition.chern

    def counted(self, X):
        degrees.append(X.d)
        return chern(self, X)

    monkeypatch.setattr(Decomposition, "chern", counted)
    code, _, _ = invoke(capsys, ["verify-table"])
    assert code == 0
    applicable = Counter(d for row in table1_rows() for d in row.d_set)
    assert Counter(degrees) == applicable == {3: 20, 4: 22, 5: 23}


_VERIFY_TABLE_ARGVS = [
    ["verify-table", *d, "--format", fmt]
    for d in ([], ["--d", "3"], ["--d", "4"], ["--d", "5"])
    for fmt in ("human", "json", "csv")
]


@pytest.mark.parametrize("argv", _VERIFY_TABLE_ARGVS, ids=" ".join)
def test_verify_table_rebuilds_no_constant_column(capsys, monkeypatch, argv):
    # the forced classes and the rendered decompositions are fixed per
    # degree: after one call, a repeat derives only the Whitney totals
    expected = invoke(capsys, argv)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("forced_c2", "forced_c3"):
        monkeypatch.setattr(catalog, name, counted(name, getattr(catalog, name)))
    monkeypatch.setattr(Decomposition, "render", counted("render", Decomposition.render))
    assert invoke(capsys, argv) == expected
    assert expected[0] == 0 and calls == Counter()


@pytest.mark.parametrize("d", [None, 3, 4, 5])
def test_verify_table_json_matches_reference_renderer(capsys, d):
    X = None if d is None else FanoThreefold(d)
    expected = json.dumps({"rows": catalog.table_export_rows(X)}, indent=2) + "\n"
    argv = ["verify-table", "--format", "json"] + ([] if d is None else ["--d", str(d)])
    assert invoke(capsys, argv) == (0, expected, "")


def test_verify_table_reads_off_totals_that_differ_from_the_printed_row(
    capsys, monkeypatch
):
    # c3 of the F_{3,1} row shifted by 2d - 1: its totals at d = 3, 4, 5 no
    # longer equal the printed values, so its polynomial is read off them
    target = Decomposition((BlockId(Family.F31),))
    chern = Decomposition.chern

    def shifted(self, X):
        c = chern(self, X)
        return ChernData(c.rank, c.c1, c.c2, c.c3 + 2 * X.d - 1) if self == target else c

    monkeypatch.setattr(Decomposition, "chern", shifted)
    rows = []
    for row in table1_rows():
        totals = [row.decomposition.chern(FanoThreefold(d)) for d in (3, 4, 5)]
        c2 = _linear_in_d(tuple(t.c2 for t in totals))
        c3 = _linear_in_d(tuple(t.c3 for t in totals))
        ok = (c2, c3) == (row.c2_printed, row.c3_printed) and totals[0].c1 == row.c1
        rows.append({
            "d_set": ",".join(map(str, sorted(row.d_set))), "rank": row.rank,
            "c1": row.c1, "c2_printed": str(row.c2_printed),
            "c3_printed": str(row.c3_printed), "c2_computed": str(c2),
            "c3_computed": str(c3), "decomposition": row.decomposition.render(),
            "status": "ok" if ok else "mismatch",
        })
    assert (rows[0]["c3_computed"], rows[0]["status"]) == ("2d", "mismatch")
    assert [row["status"] for row in rows].count("mismatch") == 2  # and the misprint
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0].keys())
    writer.writerows(row.values() for row in rows)
    assert invoke(capsys, ["verify-table", "--format", "csv"]) == (0, buf.getvalue(), "")
    expected = json.dumps({"rows": rows}, indent=2) + "\n"
    assert invoke(capsys, ["verify-table", "--format", "json"]) == (0, expected, "")


def test_verify_table_csv_symbolic(capsys):
    code, out, _ = invoke(capsys, ["verify-table", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("d_set,rank,c1,c2_printed,c3_printed,"
                        "c2_computed,c3_computed,decomposition,status")
    assert len(lines) == 24
    mismatches = [ln for ln in lines if ln.endswith(",mismatch")]
    assert mismatches == [
        '"3,4,5",5,4,6d+5,4d+2,6d+5,4d+12,"S_C(1) ⊕ F_{3,3}",mismatch'
    ]


def test_verify_table_json_at_degree(capsys):
    code, out, _ = invoke(capsys, ["verify-table", "--d", "4", "--format", "json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 22
    bad = [r for r in rows if r["status"] == "mismatch"]
    assert bad[0]["c3_printed"] == 18 and bad[0]["c3_computed"] == 28


# --- oracle --------------------------------------------------------------------------

def test_oracle_json(capsys):
    code, out, _ = invoke(capsys, ["oracle", "--d", "5", "--rank", "7", "--c1", "2",
                                   "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    rendered = [dec["rendered"] for dec in payload["decompositions"]]
    assert "F_{7,2}" in rendered
    assert "F_{3,1} ⊕ F_{4,1}" in rendered


def reference_oracle(d, rank, c1, bound):
    """oracle json stdout, rendered the long way: dec.to_json() per
    decomposition and json.dumps(indent=2)."""
    decs = oracle_enumerate(FanoThreefold(d), rank, c1, bound=bound)
    payload = {
        "d": d, "rank": rank, "c1": c1,
        "decompositions": [
            {"blocks": dec.to_json(), "rendered": dec.render()} for dec in decs
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("d", [3, 4, 5])
def test_oracle_json_matches_reference_renderer(capsys, d):
    outputs = []
    for rank in range(15):
        for c1 in range(rank + 1):
            argv = ["oracle", "--d", str(d), "--rank", str(rank), "--c1", str(c1),
                    "--bound", "14", "--format", "json"]
            code, out, err = invoke(capsys, argv)
            assert (code, out, err) == (0, reference_oracle(d, rank, c1, 14), ""), argv
            outputs.append(out)
    assert '"blocks": []' in outputs[0]  # rank 0: the empty sum
    assert any('"decompositions": []' in out for out in outputs)


@pytest.mark.parametrize("fmt", ["human", "json", "csv"])
def test_oracle_negative_rank_is_input_error(capsys, fmt):
    code, out, err = invoke(capsys, ["oracle", "--d", "3", "--rank", "-5", "--c1", "2",
                                     "--format", fmt])
    assert (code, out, err) == (1, "", "error: rank must be >= 0, got -5\n")
    code, out, _ = invoke(capsys, ["oracle", "--d", "3", "--rank", "0", "--c1", "0"])
    assert code == 0 and out.startswith("V_3: rank 0, c1=0: 1 decomposition(s)")


def test_oracle_bound_exceeded_is_input_error(capsys):
    code, _, err = invoke(capsys, ["oracle", "--d", "3", "--rank", "20", "--c1", "7"])
    assert code == 1
    assert "exceeds the enumeration bound" in err


@pytest.mark.parametrize("fmt", ["human", "json", "csv"])
def test_oracle_above_its_ceiling_is_input_error_whatever_the_bound(capsys, fmt):
    code, out, err = invoke(capsys, ["oracle", "--d", "5", "--rank", "1000", "--c1", "500",
                                     "--bound", "1000", "--format", fmt])
    assert (code, out, err) == (1, "", "error: rank 1000 exceeds the oracle ceiling 60\n")
    code, out, _ = invoke(capsys, ["oracle", "--d", "5", "--rank", "60", "--c1", "60",
                                   "--bound", "60", "--format", fmt])
    assert code == 0 and out.count("S_E") >= 11  # 11 decompositions, all with S_E(1)


# --- input validation ------------------------------------------------------------------

def test_bad_degree_exits_1(capsys):
    code, _, err = invoke(capsys, ["chi", "--d", "7", "--rank", "2", "--c1", "0",
                                   "--c2", "1", "--c3", "0"])
    assert code == 1
    assert "invalid choice" in err


def test_malformed_flags_exit_1(capsys):
    assert invoke(capsys, ["chi", "--d", "3"])[0] == 1
    assert invoke(capsys, ["no-such-command"])[0] == 1
    assert invoke(capsys, [])[0] == 1


@pytest.mark.parametrize(
    "exc, code, err",
    [
        (InternalError("internal error: broken invariant"), 3,
         "internal error: broken invariant\n"),
        (ValueError("rank 1 forces c2 = c3 = 0"), 1, "error: rank 1 forces c2 = c3 = 0\n"),
    ],
    ids=["internal", "input"],
)
def test_internal_errors_exit_3_and_input_value_errors_exit_1(
    capsys, monkeypatch, exc, code, err
):
    def raising(*args):
        raise exc

    monkeypatch.setattr(cli, "twist", raising)
    argv = ["twist", "--d", "3", "--rank", "2", "--c1", "0", "--c2", "1", "--c3", "0",
            "--t", "1"]
    assert invoke(capsys, argv) == (code, "", err)


def test_internal_error_from_a_library_invariant_exits_3(capsys, monkeypatch):
    # totals that are not linear in d break verify-table's reading of the
    # symbolic columns, an invariant of the catalog, not of the input
    monkeypatch.setattr(Decomposition, "chern", lambda self, X: ChernData(3, 1, X.d**2, 0))
    code, out, err = invoke(capsys, ["verify-table", "--format", "csv"])
    assert (code, out) == (3, "")
    assert err == "internal error: (9, 16, 25) at d = 3, 4, 5 is not linear in d\n"


# --- integer size -----------------------------------------------------------------

def _with_digits(n: int) -> int:
    """857142857..., n digits long."""
    return (10**n - 1) * 6 // 7


@pytest.mark.parametrize("fmt", ["human", "json", "csv"])
@pytest.mark.parametrize("command", ["chi", "twist"])
def test_answers_above_the_int_str_digit_limit_print_exactly(capsys, command, fmt):
    # c1^3 and t^3 d have about 4320 digits, above CPython's default limit
    # of 4300 on int/str conversion
    X, big = FanoThreefold(3), 10**1440
    c = ChernData(3, big if command == "chi" else 1, 0, 0)
    argv = [command, "--d", "3", "--rank", "3", "--c1", str(c.c1), "--c2", "0",
            "--c3", "0", "--format", fmt]
    if command == "twist":
        argv += ["--t", str(big)]
    limit = sys.get_int_max_str_digits()
    code, out, err = invoke(capsys, argv)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        answer = (format_rational(chi_twist(c, X, 0)) if command == "chi"
                  else str(twist(c, X, big).c3))
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(answer) > 4300 and answer in out


# every int the parser accepts: up to 4300 digits, either sign
_ANY_INT = st.integers(-20, 20) | st.builds(
    lambda n, negative: -_with_digits(n) if negative else _with_digits(n),
    st.integers(1, 4300),
    st.booleans(),
)
_INT_FLAGS = {
    "chi": ("--rank", "--c1", "--c2", "--c3", "--twist"),
    "twist": ("--rank", "--c1", "--c2", "--c3", "--t"),
    "classify2": ("--c1", "--c2"),
    "admissible": ("--rank",),
    "witness": ("--rank", "--c1"),
    "census": ("--max-rank",),
    "verify-table": (),
    # --bound stays at its default: it is the caller's own cap on a search
    # whose cost grows as a high power of the rank
    "oracle": ("--rank", "--c1"),
}


@settings(max_examples=30, deadline=None)
@given(st.data())
@pytest.mark.parametrize("command", list(_INT_FLAGS))
def test_integers_up_to_the_parser_limit_get_an_answer_or_a_refusal(command, data):
    d = data.draw(st.sampled_from([3, 4, 5, _with_digits(4300)]), label="d")
    argv = [command, "--d", str(d), "--format",
            data.draw(st.sampled_from(["human", "json", "csv"]), label="format")]
    for flag in _INT_FLAGS[command]:
        argv += [flag, str(data.draw(_ANY_INT, label=flag))]
    limit = sys.get_int_max_str_digits()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    assert "int_max_str_digits" not in err.getvalue()
    assert sys.get_int_max_str_digits() == limit


def test_more_than_4300_digits_is_a_malformed_flag(capsys):
    code, out, err = invoke(capsys, ["classify2", "--d", "3", "--c1", "9" * 4301,
                                     "--c2", "0"])
    assert (code, out) == (1, "")
    assert err.startswith("error: argument --c1: invalid int value: '999")


def test_run_restores_the_int_str_digit_limit_when_it_raises(monkeypatch):
    def raising(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "twist", raising)
    limit = sys.get_int_max_str_digits()
    with pytest.raises(RuntimeError):
        run(["twist", "--d", "3", "--rank", "2", "--c1", "0", "--c2", "1", "--c3", "0",
             "--t", "1"])
    assert sys.get_int_max_str_digits() == limit


# --- json encoding ----------------------------------------------------------------------

_DECOMPOSITIONS = st.lists(
    st.tuples(st.sampled_from(list(Family)), st.integers(-5, 5), st.integers(1, 50)),
    max_size=6,
).map(lambda runs: Decomposition(counts=[(BlockId(f, t), k) for f, t, k in runs]))


@settings(max_examples=200, deadline=None)
@given(_DECOMPOSITIONS, st.integers(min_value=0, max_value=4))
def test_blocks_json_equals_indented_json_dumps(dec, depth):
    expected = json.dumps(dec.to_json(), indent=2).replace("\n", "\n" + "  " * depth)
    assert cli._blocks_json(dec, depth) == expected


_SCALARS = st.integers() | st.booleans() | st.none() | st.text(max_size=5)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True), min_size=1, max_size=6,
             unique=True),
    st.integers(min_value=0, max_value=4),
    st.booleans(),
    st.data(),
)
def test_json_template_filled_is_indented_json_dumps(keys, depth, fixed, data):
    values = [data.draw(_SCALARS) for _ in keys]
    texts = [json.dumps(v) for v in values]
    if fixed:  # the first value is fixed text in the template, its "%" doubled
        fixed_text = texts.pop(0).replace("%", "%%")
        template = cli._json_template(tuple(keys), depth, **{keys[0]: fixed_text})
    else:
        template = cli._json_template(tuple(keys), depth)
    expected = json.dumps(dict(zip(keys, values)), indent=2).replace("\n", "\n" + "  " * depth)
    assert template % tuple(texts) == expected


@settings(max_examples=100, deadline=None)
@given(st.text())
def test_json_quote_is_json_dumps_of_a_str(text):
    assert cli._json_quote()(text) == json.dumps(text)


# Each json answer below is a "%" template fill; its reference is
# json.dumps(indent=2) of the payload dict the handler would build.

def _chern_payload(c: ChernData) -> dict:
    return {"rank": c.rank, "c1": c.c1, "c2": c.c2, "c3": c.c3}


def _json_answer_is_dumps_of(argv: list[str], payload, code: int = 0) -> None:
    """run(argv) in json prints json.dumps(payload(), indent=2)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert run(argv + ["--format", "json"]) == code
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # the payload's ints may be longer than 4300 digits
    try:
        expected = json.dumps(payload(), indent=2) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)
    assert out.getvalue() == expected


_D = st.sampled_from([3, 4, 5])
# a rank of 3 or more admits any c1, c2, c3
_RANK_3_UP = st.integers(3, 20) | _ANY_INT.filter(lambda n: n >= 3)


@settings(max_examples=60, deadline=None)
@given(_D, _RANK_3_UP, _ANY_INT, _ANY_INT, _ANY_INT, _ANY_INT)
@example(3, 3, 0, 0, 1, 0)  # chi = 7/2
def test_chi_json_is_json_dumps_of_its_payload(d, rank, c1, c2, c3, tw):
    c = ChernData(rank, c1, c2, c3)
    value = chi_twist(c, FanoThreefold(d), tw)
    _json_answer_is_dumps_of(
        ["chi", "--d", str(d), "--rank", str(rank), "--c1", str(c1), "--c2", str(c2),
         "--c3", str(c3), "--twist", str(tw)],
        lambda: {"d": d, "chern": _chern_payload(c), "twist": tw,
                 "chi": value.numerator if value.denominator == 1 else format_rational(value)},
    )


@settings(max_examples=60, deadline=None)
@given(_D, _RANK_3_UP, _ANY_INT, _ANY_INT, _ANY_INT, _ANY_INT)
def test_twist_json_is_json_dumps_of_its_payload(d, rank, c1, c2, c3, t):
    c = ChernData(rank, c1, c2, c3)
    _json_answer_is_dumps_of(
        ["twist", "--d", str(d), "--rank", str(rank), "--c1", str(c1), "--c2", str(c2),
         "--c3", str(c3), "--t", str(t)],
        lambda: {"d": d, "chern": _chern_payload(c), "t": t,
                 "result": _chern_payload(twist(c, FanoThreefold(d), t))},
    )


_TWISTS = st.integers(-20, 20) | st.integers(-(10**1400), 10**1400)


@st.composite
def _rank2_queries(draw):
    """(d, kind, c): on V_d, the Chern data of a model of that verdict
    kind, or rank-2 data with any (c1, c2) for kind "none"."""
    d = draw(_D)
    kind = draw(st.sampled_from(["TwistOfSL", "TwistOfSC", "TwistOfSE", "split", "none"]))
    if kind == "split":
        a, b = sorted((draw(_TWISTS), draw(_TWISTS)), reverse=True)
        return d, kind, SplitLineBundles(a, b).chern(FanoThreefold(d))
    if kind == "none":
        return d, kind, ChernData(2, draw(_ANY_INT), draw(_ANY_INT), 0)
    return d, kind, TwistOf(Family[kind[7:]], draw(_TWISTS)).chern(FanoThreefold(d))


@settings(max_examples=100, deadline=None)
@given(_rank2_queries())
def test_classify2_json_is_json_dumps_of_its_payload(query):
    d, kind, c = query
    verdict = classify_rank2(FanoThreefold(d), c.c1, c.c2)
    assume(kind != "none" or verdict.kind == "none")
    assert verdict.kind == kind
    _json_answer_is_dumps_of(
        ["classify2", "--d", str(d), "--c1", str(c.c1), "--c2", str(c.c2)],
        lambda: {"d": d, "c1": c.c1, "c2": c.c2, "verdict": verdict.to_json()},
        code=2 if kind == "none" else 0,
    )


@settings(max_examples=30, deadline=None)
@given(_D, st.integers(3, 200), st.booleans())
def test_admissible_json_head_is_json_dumps_of_its_payload(d, rank, relaxed):
    args = SimpleNamespace(rank=rank, relaxed=relaxed)
    head = {"d": d, "rank": rank, "relaxed": relaxed, "triples": []}
    assert cli._cmd_admissible(FanoThreefold(d), args).json() == (
        json.dumps(head, indent=2) + "\n"
    )


@settings(max_examples=30, deadline=None)
@given(_D, st.integers(-20, 2) | _ANY_INT.filter(lambda n: n <= 2), st.booleans())
def test_empty_census_json_is_json_dumps_of_its_payload(d, max_rank, relaxed):
    argv = ["census", "--d", str(d), "--max-rank", str(max_rank)]
    _json_answer_is_dumps_of(
        argv + ["--relaxed"] * relaxed,
        lambda: {"d": d, "max_rank": max_rank, "relaxed": relaxed, "triples": []},
    )


@settings(max_examples=30, deadline=None)
@given(_D, st.integers(0, 12), st.integers(-3, 13) | _ANY_INT)
def test_oracle_json_is_json_dumps_of_its_payload(d, rank, c1):
    # most draws find nothing, so the answer is the head alone
    decs = oracle_enumerate(FanoThreefold(d), rank, c1)
    _json_answer_is_dumps_of(
        ["oracle", "--d", str(d), "--rank", str(rank), "--c1", str(c1)],
        lambda: {"d": d, "rank": rank, "c1": c1, "decompositions": [
            {"blocks": dec.to_json(), "rendered": dec.render()} for dec in decs
        ]},
    )


# --- csv encoding ----------------------------------------------------------------------

def _csv_writer_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


# Any text but "\r", which csv.writer quotes from Python 3.13 on and not
# before (no CLI field can hold one), with the characters that need quoting
# drawn often.
_CSV_FIELDS = st.text(st.sampled_from([",", '"', "\n", " ", "a"])
                      | st.characters(exclude_characters="\r"), max_size=8)


@settings(max_examples=300, deadline=None)
@given(st.lists(_CSV_FIELDS, min_size=1, max_size=6))
@example([""])
@example(["", ""])
@example(["", "x", ""])
@example(['say "hi"', "3,4,5", "two\nlines", '"', ""])
def test_csv_quote_joined_is_csv_writer_row(row):
    expected = _csv_writer_text([row])
    if row == [""]:
        # csv.writer writes a row whose only field is empty as "", which a
        # join of quoted fields does not; every CLI csv row has 6 or more
        assert expected == '""\n'
    else:
        assert ",".join(map(cli._csv_quote, row)) + "\n" == expected


# The csv makers each handler had before csv answers became "%" fills: the
# header and rows that csv.writer wrote.  Each csv answer is compared with
# their output.

def _old_csv_chi(X, args):
    c = ChernData(args.rank, args.c1, args.c2, args.c3)
    value = chi_twist(c, X, args.twist)
    return (
        ["d", "rank", "c1", "c2", "c3", "twist", "chi"],
        [[X.d, c.rank, c.c1, c.c2, c.c3, args.twist, format_rational(value)]],
    )


def _old_csv_twist(X, args):
    c = ChernData(args.rank, args.c1, args.c2, args.c3)
    out = twist(c, X, args.t)
    return (
        ["d", "rank", "c1", "c2", "c3", "t", "rank_out", "c1_out", "c2_out", "c3_out"],
        [[X.d, c.rank, c.c1, c.c2, c.c3, args.t, out.rank, out.c1, out.c2, out.c3]],
    )


def _old_csv_classify2(X, args):
    verdict = classify_rank2(X, args.c1, args.c2)
    row = [X.d, args.c1, args.c2, verdict.kind, "", "", ""]
    if isinstance(verdict, TwistOf):
        row[4] = verdict.twist
    elif isinstance(verdict, SplitLineBundles):
        row[5], row[6] = verdict.a, verdict.b
    return ["d", "c1", "c2", "kind", "twist", "a", "b"], [row]


def _old_csv_witness(X, args):
    dec = witness(X, args.rank, args.c1)
    report = validate_witness(X, dec, args.rank, args.c1)
    total = report.total
    return (
        ["d", "rank", "c1", "decomposition", "c2", "c3", "valid"],
        [[X.d, args.rank, args.c1, dec.render(), total.c2, total.c3, report.ok]],
    )


def _old_csv_verify_table(X, args):
    rows = catalog.table_export_rows(X)
    columns = catalog.TABLE_EXPORT_COLUMNS
    return columns, [[row[c] for c in columns] for row in rows]


def _old_csv_oracle(X, args):
    decs = oracle_enumerate(X, args.rank, args.c1, bound=args.bound)
    return (
        ["d", "rank", "c1", "decomposition", "c2", "c3"],
        [[X.d, args.rank, args.c1, dec.render(), c.c2, c.c3]
         for dec in decs for c in (dec.chern(X),)],
    )


_OLD_CSV = {
    "chi": _old_csv_chi, "twist": _old_csv_twist, "classify2": _old_csv_classify2,
    "witness": _old_csv_witness, "verify-table": _old_csv_verify_table,
    "oracle": _old_csv_oracle,
}


def _csv_answer_is_reference(argv: list[str], code: int = 0) -> None:
    """run(argv) in csv prints what csv.writer wrote of the old maker's
    header and rows."""
    argv = argv + ["--format", "csv"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert run(argv) == code
    args = cli._parse_plain(argv)
    X = None if args.d is None else FanoThreefold(args.d)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # the rows' ints may be longer than 4300 digits
    try:
        header, rows = _OLD_CSV[argv[0]](X, args)
        expected = _csv_writer_text([header, *rows])
    finally:
        sys.set_int_max_str_digits(limit)
    assert out.getvalue() == expected


@settings(max_examples=60, deadline=None)
@given(_D, _RANK_3_UP, _ANY_INT, _ANY_INT, _ANY_INT, _ANY_INT)
@example(3, 3, 0, 0, 1, 0)  # chi = 7/2
def test_chi_csv_matches_reference_renderer(d, rank, c1, c2, c3, tw):
    _csv_answer_is_reference(
        ["chi", "--d", str(d), "--rank", str(rank), "--c1", str(c1), "--c2", str(c2),
         "--c3", str(c3), "--twist", str(tw)],
    )


@settings(max_examples=60, deadline=None)
@given(_D, _RANK_3_UP, _ANY_INT, _ANY_INT, _ANY_INT, _ANY_INT)
def test_twist_csv_matches_reference_renderer(d, rank, c1, c2, c3, t):
    _csv_answer_is_reference(
        ["twist", "--d", str(d), "--rank", str(rank), "--c1", str(c1), "--c2", str(c2),
         "--c3", str(c3), "--t", str(t)],
    )


@settings(max_examples=100, deadline=None)
@given(_rank2_queries())
def test_classify2_csv_matches_reference_renderer(query):
    d, kind, c = query
    verdict = classify_rank2(FanoThreefold(d), c.c1, c.c2)
    assume(kind != "none" or verdict.kind == "none")
    _csv_answer_is_reference(
        ["classify2", "--d", str(d), "--c1", str(c.c1), "--c2", str(c.c2)],
        code=2 if kind == "none" else 0,
    )


@pytest.mark.parametrize("d", [3, 4, 5])
def test_classify2_csv_matches_reference_renderer_for_every_verdict_kind(d):
    X, kinds = FanoThreefold(d), set()
    for c1 in range(-6, 7):
        for c2 in range(-40, 41):
            kind = classify_rank2(X, c1, c2).kind
            kinds.add(kind)
            _csv_answer_is_reference(
                ["classify2", "--d", str(d), "--c1", str(c1), "--c2", str(c2)],
                code=2 if kind == "none" else 0,
            )
    assert kinds == {"TwistOfSL", "TwistOfSC", "TwistOfSE", "split", "none"}


@pytest.mark.parametrize("d", [3, 4, 5])
def test_witness_csv_matches_reference_renderer(d):
    for rank in (3, 4, 5, 7, 8, 13, 20, 57, 118, 601, 2500):
        lowest = -(-rank // d)
        for c1 in sorted({lowest, lowest + 1, (lowest + rank) // 2, rank - 1, rank}):
            _csv_answer_is_reference(
                ["witness", "--d", str(d), "--rank", str(rank), "--c1", str(c1)]
            )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_witness_csv_matches_reference_renderer_anywhere(data):
    d = data.draw(st.sampled_from([3, 4, 5]), label="d")
    rank = data.draw(st.integers(3, 5000), label="rank")
    c1 = data.draw(st.integers(-(-rank // d), rank), label="c1")
    _csv_answer_is_reference(["witness", "--d", str(d), "--rank", str(rank), "--c1", str(c1)])


@pytest.mark.parametrize("d", [3, 4, 5])
def test_oracle_csv_matches_reference_renderer(d):
    for rank in range(15):
        for c1 in range(rank + 1):
            _csv_answer_is_reference(
                ["oracle", "--d", str(d), "--rank", str(rank), "--c1", str(c1), "--bound", "14"]
            )


@pytest.mark.parametrize("argv", [["verify-table"]] + [
    ["verify-table", "--d", str(d)] for d in (3, 4, 5)
])
def test_verify_table_csv_matches_reference_renderer(argv):
    _csv_answer_is_reference(argv)


# --- determinism -------------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--d", "4", "--max-rank", "9", "--format", "json"],
        ["verify-table", "--format", "csv"],
        ["oracle", "--d", "5", "--rank", "8", "--c1", "3", "--format", "json"],
        ["witness", "--d", "5", "--rank", "12", "--c1", "4", "--format", "json"],
        ["admissible", "--d", "3", "--rank", "9", "--relaxed", "--format", "csv"],
    ],
)
def test_byte_identical_reruns(capsys, argv):
    first = invoke(capsys, argv)
    second = invoke(capsys, argv)
    assert first == second
    assert first[0] == 0


# Defaults after explicit flags, a usage error between good calls, and --help
# (SystemExit 0) before a good call: whatever ran before, a call must not see it.
MIXED_SEQUENCE = [
    ["census", "--d", "3", "--max-rank", "6", "--relaxed", "--format", "csv"],
    ["census", "--d", "3", "--max-rank", "6", "--format", "csv"],
    ["chi", "--d", "4", "--rank", "2", "--c1", "1", "--c2", "2", "--c3", "0",
     "--twist", "-1"],
    ["chi", "--d", "4", "--rank", "2", "--c1", "1", "--c2", "2", "--c3", "0"],
    ["oracle", "--d", "5", "--rank", "13", "--c1", "5", "--bound", "13",
     "--format", "csv"],
    ["oracle", "--d", "5", "--rank", "13", "--c1", "5", "--format", "csv"],
    ["classify2", "--d", "3", "--c1", "0", "--c2", "1"],
    ["chi", "--d", "3"],
    ["classify2", "--d", "5", "--c1", "2", "--c2", "7", "--format", "json"],
    ["--help"],
    ["witness", "--d", "3", "--rank", "8", "--c1", "3"],
    ["witness", "--help"],
    ["verify-table", "--format", "json"],
]


def run_alone(argv):
    """argv in a new process, as (exit code, stdout, stderr)."""
    result = subprocess.run(
        [sys.executable, "-m", "fano_acm", *argv],
        capture_output=True,
        encoding="utf-8",
        env={**os.environ, "COLUMNS": "80", "PYTHONIOENCODING": "utf-8"},
        timeout=60,
    )
    return result.returncode, result.stdout, result.stderr


def test_reused_parser_leaks_no_state_between_calls(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal width
    _build_parser.cache_clear()
    mixed = []
    for argv in MIXED_SEQUENCE:
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        mixed.append((code, captured.out, captured.err))
    assert _build_parser.cache_info().misses == 1
    assert mixed == [run_alone(argv) for argv in MIXED_SEQUENCE]
    assert [code for code, _, _ in mixed] == [0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0]
    assert mixed[0][1] != mixed[1][1]
    assert "chi(F(-1)) = 0" in mixed[2][1] and "chi(F(0)) = " in mixed[3][1]
    assert "exceeds the enumeration bound 12" in mixed[5][2]
    assert mixed[9][1].startswith("usage: fano-acm")


_INT = ("0", "3", "8", "-1", "-5_0", "5_0", " 3", "+3")
_COMMON = {"--d": ("3", "4", "5"), "--format": ("human", "json", "csv")}
_BAD = ("x", "", "7", "xml", "1.5", "--d")
_CHERN = {"--rank": _INT, "--c1": _INT, "--c2": _INT, "--c3": _INT}
# Each subcommand's flags with values to draw for them (None: takes none).
_OPTIONS = {
    "chi": {**_COMMON, **_CHERN, "--twist": _INT},
    "twist": {**_COMMON, **_CHERN, "--t": _INT},
    "classify2": {**_COMMON, "--c1": _INT, "--c2": _INT},
    "admissible": {**_COMMON, "--rank": _INT, "--relaxed": None},
    "witness": {**_COMMON, "--rank": _INT, "--c1": _INT},
    "census": {**_COMMON, "--max-rank": _INT, "--relaxed": None},
    "verify-table": _COMMON,
    "oracle": {**_COMMON, "--rank": _INT, "--c1": _INT, "--bound": _INT},
}
_JUNK = st.sampled_from(
    ("--", "-h", "--he", "--help", "-x", "--bogus", "-", "-d", "chi", "--d3", "-5",
     "--relaxed", "--rank", "--c", "--format=csv", "--rank=9", "3", "json")
) | st.text(alphabet="-=ab3 ", max_size=4)


@st.composite
def _argvs(draw):
    """A subcommand and its flags in any order, each maybe left out,
    abbreviated, given as --flag=value or repeated, with junk put in."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    tokens = []
    for flag in draw(st.permutations(list(_OPTIONS[command]))):
        for _ in range(draw(st.sampled_from((0, 1, 1, 1, 1, 2)))):
            name = flag[: draw(st.integers(3, len(flag) + 4))]  # --max, --r, --c
            values = _OPTIONS[command][flag]
            if values is None:
                tokens.append(name)
                continue
            value = draw(st.sampled_from(values if draw(st.integers(0, 19)) else _BAD))
            if draw(st.booleans()):
                tokens.append(f"{name}={value}")
            else:
                tokens += [name, value]
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(_JUNK))
    return command, tokens


def test_import_does_not_build_the_parser():
    result = subprocess.run(
        [sys.executable, "-c",
         "import fano_acm, fano_acm.cli as cli; print(cli._build_parser.cache_info())"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "currsize=0" in result.stdout


# --- the plain-argv parser ---------------------------------------------------------------


def _typed(namespace):
    return {key: (type(value), value) for key, value in vars(namespace).items()}


def _assert_plain_parse_agrees(command, rest):
    """The plain parser gives None or argparse's namespace; its outcome."""
    plain = cli._parse_plain([command, *rest])
    if plain is not None:
        parsed = _build_parser().parse_args([command, *rest])
        del parsed.command
        assert _typed(plain) == _typed(parsed)
    return plain


_PLAIN_VALUES = {
    "--d": st.sampled_from(("3", "4", "5", "03")),
    "--format": st.sampled_from(_COMMON["--format"]),
    **dict.fromkeys(
        ("--rank", "--c1", "--c2", "--c3", "--twist", "--t", "--max-rank", "--bound"),
        st.integers(-(10**30), 10**30).map(str)
        | st.sampled_from(("0", "-0", "007", "-010", "9" * 4300, "-" + "9" * 4300)),
    ),
}


@st.composite
def _plain_argvs(draw):
    """Mostly plain argvs: a subcommand and its flags in any order, each
    spelled out once, with a plain int or a valid choice; an optional flag
    may be left out.  One in five drops, repeats or spoils one flag."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    flags = draw(st.permutations(list(_OPTIONS[command])))
    spoil = draw(st.sampled_from((None,) * 12 + ("drop", "repeat", "bad")))
    target = draw(st.sampled_from(flags)) if flags else None
    tokens = []
    for flag in flags:
        if flag == target and spoil == "drop":
            continue
        if flag in ("--format", "--twist", "--bound", "--relaxed") and draw(st.booleans()):
            continue
        if command == "verify-table" and flag == "--d" and draw(st.booleans()):
            continue
        for _ in range(2 if flag == target and spoil == "repeat" else 1):
            tokens.append(flag)
            if _OPTIONS[command][flag] is not None:
                bad = flag == target and spoil == "bad"
                tokens.append(draw(st.sampled_from(_BAD) if bad else _PLAIN_VALUES[flag]))
    return command, tokens


@settings(max_examples=600, deadline=None)
@given(_plain_argvs() | _argvs())
def test_plain_parser_gives_none_or_the_argparse_namespace(argv):
    _assert_plain_parse_agrees(*argv)


def test_plain_argvs_mostly_take_the_plain_path():
    fast = []

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_plain_argvs())
    def draw_one(argv):
        fast.append(_assert_plain_parse_agrees(*argv) is not None)

    draw_one()
    assert len(fast) >= 100 and sum(fast) >= len(fast) / 2, (sum(fast), len(fast))


_CLASSIFY = ["classify2", "--d", "3", "--c1"]


@pytest.mark.parametrize(
    "argv, plain",
    [
        (_CLASSIFY + ["5_0", "--c2", "1"], False),
        (_CLASSIFY + [" 3", "--c2", "1"], False),
        (_CLASSIFY + ["+3", "--c2", "1"], False),
        (_CLASSIFY + ["-5_0", "--c2", "1"], False),
        (_CLASSIFY + ["\u0663", "--c2", "1"], False),  # ARABIC-INDIC DIGIT THREE
        (_CLASSIFY + ["9" * 4301, "--c2", "1"], False),
        (_CLASSIFY + ["-" + "9" * 4300, "--c2", "1"], True),
        (_CLASSIFY + ["-0", "--c2", "1"], True),
        (_CLASSIFY + ["007", "--c2", "1"], True),
        (_CLASSIFY + ["0", "--c2", "1", "--c1", "2"], False),
        (_CLASSIFY + ["0", "--c2", "1", "--format=csv"], False),
        (_CLASSIFY + ["0", "--c2", "1", "--format", "xml"], False),
        (_CLASSIFY + ["0", "--c2"], False),
        (_CLASSIFY + ["0", "--c2", "1", "-h"], False),
        (_CLASSIFY + ["0", "--", "--c2", "1"], False),
        (["classify2", "--d", "03", "--c1", "0", "--c2", "1"], True),
        (["classify2", "--d", "6", "--c1", "0", "--c2", "1"], False),
        (["admissible", "--d", "3", "--rank", "8", "--rel"], False),
        (["admissible", "--d", "3", "--rank", "8"], True),
        (["admissible", "--relaxed", "--d", "3", "--rank", "8"], True),
        (["verify-table"], True),
        (["verify-table", "--format", "json", "--d", "5"], True),
        (["chi", "--d", "3"], False),
        (["chi", "--d", "3", "--rank", "2", "--c1", "0", "--c2", "1", "--c3", "0"], True),
        (["oracle", "--d", "5", "--rank", "7", "--c1", "2"], True),
        (["census", "--d", "4", "--max-rank", "20", "--format", "csv"], True),
    ],
)
def test_plain_parser_explicit_cases(argv, plain):
    result = _assert_plain_parse_agrees(argv[0], argv[1:])
    assert (result is not None) == plain


def test_plain_parser_refuses_empty_and_unknown_argvs():
    for argv in ([], ["--help"], ["-h"], ["no-such-command"], ["--d", "3", "chi"]):
        assert cli._parse_plain(argv) is None


def test_plain_call_neither_imports_argparse_nor_builds_a_parser():
    # -S keeps site start-up, which may import argparse itself, out of it.
    src = str(pathlib.Path(cli.__file__).parent.parent)
    script = f"""
import contextlib, io, sys
sys.path.insert(0, {src!r})
from fano_acm import cli
plain = [
    ["chi", "--d", "3", "--rank", "2", "--c1", "0", "--c2", "1", "--c3", "0"],
    ["twist", "--d", "5", "--rank", "2", "--c1", "0", "--c2", "2", "--c3", "0", "--t", "1"],
    ["classify2", "--d", "3", "--c1", "0", "--c2", "1", "--format", "json"],
    ["admissible", "--d", "3", "--rank", "8", "--relaxed", "--format", "csv"],
    ["witness", "--d", "3", "--rank", "8", "--c1", "3"],
    ["census", "--d", "4", "--max-rank", "6"],
    ["verify-table", "--format", "csv"],
    ["oracle", "--d", "5", "--rank", "7", "--c1", "2"],
]
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    codes = [cli.run(argv) for argv in plain]
print(codes, "argparse" in sys.modules, cli._build_parser.cache_info().currsize)
err = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = cli.run(["chi", "--d", "3"])
print(code, repr(err.getvalue()), cli._build_parser.cache_info().misses)
"""
    result = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "[0, 0, 0, 0, 0, 0, 0, 0] False 0",
        "1 'error: the following arguments are required: --rank, --c1, --c2, --c3\\n' 1",
    ]


def test_json_and_csv_load_with_the_first_answer_in_their_format():
    src = str(pathlib.Path(cli.__file__).parent.parent)
    script = f"""
import contextlib, io, sys
sys.path.insert(0, {src!r})
from fano_acm import cli
loaded = lambda: [name for name in ("json", "csv") if name in sys.modules]
seen = [loaded()]
for fmt in ("human", "csv", "json"):
    for argv in (["chi", "--d", "3", "--rank", "3", "--c1", "0", "--c2", "0", "--c3", "1"],
                 ["twist", "--d", "4", "--rank", "2", "--c1", "1", "--c2", "2", "--c3", "0",
                  "--t", "-3"],
                 ["classify2", "--d", "5", "--c1", "2", "--c2", "7"],
                 ["verify-table"], ["verify-table", "--d", "4"],
                 ["oracle", "--d", "5", "--rank", "7", "--c1", "2"],
                 ["witness", "--d", "3", "--rank", "8", "--c1", "3"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(argv + ["--format", fmt]) == 0
    seen.append(loaded())
print(seen)
"""
    result = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[[], [], [], ['json']]\n"


def test_verify_table_csv_matches_golden_file(capsys):
    golden = (pathlib.Path(__file__).parent / "golden" / "table_symbolic.csv").read_text(
        encoding="utf-8"
    )
    code, out, _ = invoke(capsys, ["verify-table", "--format", "csv"])
    assert code == 0
    assert out == golden


# [argv, exit code, stdout, stderr] for every subcommand in every format on
# each d, the exit 1 and 2 paths, and each --help at COLUMNS=80.  It pins the
# CLI's bytes: a change that alters them says so, it does not regenerate it.
_GOLDEN_CLI = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "cli_outputs.json").read_text(
        encoding="utf-8"
    )
)


@pytest.mark.parametrize(
    "argv, code, out, err", _GOLDEN_CLI, ids=[" ".join(e[0]) or "-" for e in _GOLDEN_CLI]
)
def test_cli_output_matches_golden_file(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        got = run(argv)
    except SystemExit as exc:  # --help
        got = exc.code
    captured = capsys.readouterr()
    got_out = captured.out
    if argv[-1:] == ["--help"] and sys.version_info >= (3, 13):
        # argparse 3.13 breaks long usage lines at other places
        out, got_out = out.split(), got_out.split()
    assert (got, got_out, captured.err) == (code, out, err)


@pytest.mark.parametrize("symbolic_first", [True, False], ids=["symbolic", "per-degree"])
def test_verify_table_output_is_independent_of_call_order(capsys, symbolic_first):
    golden = {tuple(argv): (code, out, err) for argv, code, out, err in _GOLDEN_CLI}
    argvs = sorted(_VERIFY_TABLE_ARGVS, key=lambda argv: ("--d" in argv) == symbolic_first)
    catalog._table_columns.cache_clear()
    for argv in argvs:
        assert invoke(capsys, argv) == golden[tuple(argv)], argv


def test_verify_table_rows_are_fresh_dicts():
    for X in (None, FanoThreefold(4)):
        rows = catalog.table_export_rows(X)
        expected = [dict(row) for row in rows]
        rows[0]["status"] = "mismatch"
        rows[0]["decomposition"] = "O_V"
        rows[-1].clear()
        assert catalog.table_export_rows(X) == expected


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "fano_acm", "census", "--d", "3", "--max-rank", "6",
         "--format", "json"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["d"] == 3 and payload["max_rank"] == 6
    assert all(t["existence"] == "witnessed" for t in payload["triples"])


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--d", "5", "--max-rank", "1000", "--relaxed"],  # fails mid-stream
        ["admissible", "--d", "3", "--rank", "300000"],  # fails mid-stream
        # fails in its one write, of about 5 MB
        ["witness", "--d", "3", "--rank", "1000000", "--c1", "1000000"],
    ],
)
def test_closed_stdout_ends_quietly_with_exit_1(argv):
    # All three outputs are megabytes, far more than a pipe holds, so the
    # process is still writing when the reader goes away.  stdout is left
    # buffered, as by default; unbuffered (PYTHONUNBUFFERED), main() puts a
    # buffered layer under it, and the next test covers that case.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "fano_acm", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (1, b"")
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_closed_unbuffered_stdout_ends_quietly_with_exit_1():
    # Unbuffered, the text layer would drop the rest of a write that the
    # closed pipe cuts short and exit 0; main() writes through a buffered
    # layer that retries the short write and so sees the broken pipe.
    proc = subprocess.Popen(
        [sys.executable, "-m", "fano_acm", "admissible", "--d", "3", "--rank", "300000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONUNBUFFERED": "1"},
    )
    try:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (1, b"")
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()

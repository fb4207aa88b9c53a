"""Self-test of the benchmark: python3 -m pytest bench -q

A tiny batch of every workload runs clean, each checker rejects a
deliberately perturbed result, traced counts repeat, BENCHMARK.json names
exactly the metrics the benchmark prints, and run.py refuses to run without
the program's sources.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

fano = worker.import_program()
import fano_acm.cli  # noqa: E402, F401

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY = {"witness_ladder": 60, "cli_mix": None}


def tiny_batch(name, seed=7):
    wl = workloads.WORKLOADS[name]
    inputs = wl.make_inputs(random.Random(seed))
    if name == "witness_ladder":
        inputs = sorted(inputs, key=lambda x: x[1])  # the cheap end of the ladder
    return wl, wl.setup(fano), inputs[:TINY[name]], wl.checker()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_batch_runs_clean(name):
    wl, ctx, inputs, checker = tiny_batch(name)
    problems = []
    times = worker.one_pass(wl, ctx, inputs, checker, problems)
    assert None not in times and problems == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_per_seed(name):
    wl = workloads.WORKLOADS[name]
    assert wl.make_inputs(random.Random(3)) == wl.make_inputs(random.Random(3))
    assert wl.make_inputs(random.Random(3)) != wl.make_inputs(random.Random(4))


def test_checker_formulas_match_readme_examples():
    assert checks.six_chi((2, 1, 2, 0), 5) == 6 * 5  # chi(S_C(1)) = d on V_5
    blocks = [("SC", 1), ("F31", 0), ("F31", 0)]  # witness --d 3 --rank 8 --c1 3
    assert checks.sum_chern(blocks, 3) == (8, 3, 17, 21)
    assert checks.check_witness(3, 8, 3, blocks) == []
    assert checks.block_base("F72", 5) == (7, 2, 12, 10)


def test_rank2_checker_rejects_perturbed_verdicts():
    table = checks.Rank2Table(workloads.R2_C1, *workloads.R2_C2)
    # S_C(2) on V_3 has (c1, c2) = (3, 8); O(2) + O(1) on V_3 has (3, 6)
    assert checks.check_rank2_verdict(table, 3, 3, 8, ("TwistOfSC", 2)) == []
    assert checks.check_rank2_verdict(table, 3, 3, 8, ("TwistOfSC", 3))
    assert checks.check_rank2_verdict(table, 3, 3, 8, ("TwistOfSE", 2))
    assert checks.check_rank2_verdict(table, 3, 3, 8, ("none",))
    assert checks.check_rank2_verdict(table, 3, 3, 6, ("split", 2, 1)) == []
    assert checks.check_rank2_verdict(table, 3, 3, 6, ("split", 1, 2))
    assert checks.check_rank2_verdict(table, 3, 3, 9, ("none",)) == []
    assert checks.check_rank2_verdict(table, 3, 3, 9, ("TwistOfSC", 2))
    assert checks.check_chi(3, (2, 1, 1, 0), 0, Fraction(9, 2)) == []
    assert checks.check_chi(3, (2, 1, 1, 0), 0, Fraction(9, 2) + 1)


def test_witness_checker_rejects_perturbed_witnesses():
    good = [("SC", 1), ("SC", 1), ("F31", 0)]  # d = 5, r = 7, c1 = 3
    assert checks.check_witness(5, 7, 3, good) == []
    assert checks.check_witness(5, 8, 3, good + [("OV", 0)])  # extra O_V
    assert checks.check_witness(5, 7, 3, [("SL", 1), ("SL", 0), ("F31", 0)])  # c2 off
    assert checks.check_witness(3, 7, 3, [("SE", 1), ("F51", 0)])  # F_{5,1} not on V_3
    assert checks.check_witness(5, 7, 3, [("SE", 1), ("F51", 0)]) == []


def _cli(call):
    return workloads.WORKLOADS["cli_mix"].op(fano_acm.cli, call)


def _call(cmd, fmt, **params):
    calls = []
    workloads._add(calls, cmd, fmt, **params)
    return calls[0]


def test_cli_checker_rejects_perturbed_output():
    table = checks.Rank2Table(workloads.R2_C1, *workloads.R2_C2)
    census = _call("census", "json", d=4, max_rank=12, relaxed=False)
    code, out, err = _cli(census)
    assert checks.check_cli(census, table, code, out, err) == []
    data = json.loads(out)
    data["triples"][5]["c2"] += 1
    assert checks.check_cli(census, table, code, json.dumps(data), err)
    data = json.loads(out)
    del data["triples"][0]
    assert checks.check_cli(census, table, code, json.dumps(data), err)
    assert checks.check_cli(census, table, 2, out, err)

    wit = _call("witness", "json", d=3, rank=20, c1=9)
    code, out, err = _cli(wit)
    assert checks.check_cli(wit, table, code, out, err) == []
    data = json.loads(out)
    data["decomposition"].append({"family": "OV", "twist": 0})
    assert checks.check_cli(wit, table, code, json.dumps(data), err)

    miss = _call("classify2", "csv", d=3, c1=3, c2=9)
    code, out, err = _cli(miss)
    assert code == 2 and checks.check_cli(miss, table, code, out, err) == []
    assert checks.check_cli(miss, table, code, out.replace("none", "TwistOfSC"), err)

    for fmt in workloads.FORMATS:
        sym = _call("verify-table", fmt, d=None)
        code, out, err = _cli(sym)
        assert checks.check_cli(sym, table, code, out, err) == []
        wrong = out.replace("[MISMATCH]", "[ok]") if fmt == "human" else out.replace("4d+12", "4d+2")
        assert wrong != out and checks.check_cli(sym, table, code, wrong, err)


def test_traced_counts_repeat_and_cover_every_layer_metric():
    wl, ctx, inputs, checker = tiny_batch("cli_mix")
    runs = []
    for _ in range(2):
        tracer = spans.Tracer()
        tracer.install(fano)
        try:
            worker.one_pass(wl, ctx, inputs, checker, [])
        finally:
            tracer.uninstall()
        runs.append({k: v for k, v in tracer.layer_metrics().items()
                     if not k.endswith("self_us")})
    assert runs[0] == runs[1]
    assert not hasattr(fano.classify_rank2, "__wrapped__")  # originals restored
    assert fano.rank2.block_chern is fano.catalog.block_chern
    assert not hasattr(fano.catalog.Decomposition.chern, "__wrapped__")
    for name in ("cli.run.calls", "acm.enumerate_admissible.triples",
                 "catalog.table_export_rows.calls", "acm.oracle_enumerate.found"):
        assert runs[0][name] > 0


def test_benchmark_json_names_the_printed_metrics():
    assert [m["name"] for m in SPEC["per_layer"]] == [n for n, _ in spans.PER_LAYER]
    assert [m["unit"] for m in SPEC["per_layer"]] == [u for _, u in spans.PER_LAYER]
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} == {
        "ops_per_s", "latency_p50_us", "latency_tail_us", "peak_rss_kib", "setup_s"}


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli_mix", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""

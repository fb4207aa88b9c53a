"""Independent checkers for the benchmark's outputs.

Nothing here imports ``fano_acm``.  Every expected value is recomputed from
the formulas the project README states (Chern data in the H/L/P basis with
H.L = P, H^2 = dL, H^3 = dP, K = -2H), and the block data is rebuilt from the
Serre construction 0 -> O^{r-1} -> F(t) -> I_D(c1) -> 0 of each block, whose
third class is c3 = 2g - 2 + deg(2 - c1).  Chern data is a plain tuple
(rank, c1, c2, c3) of ints; blocks are (family name, twist) pairs using the
enum names of the library's ``Family`` (``"SC"``, ``"F31"``, ...).

Each ``check_*`` function returns a list of problems; an empty list means the
output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

ALL_D = (3, 4, 5)


# --- Chern calculus -------------------------------------------------------

def twist(c, d, t):
    """Chern data of F(t): expand c(F (x) O(t)) with H^2 = dL, H^3 = dP."""
    r, c1, c2, c3 = c
    return (
        r,
        c1 + r * t,
        c2 + (r - 1) * c1 * t * d + r * (r - 1) // 2 * t * t * d,
        c3 + (r - 2) * c2 * t + (r - 1) * (r - 2) // 2 * c1 * t * t * d
        + r * (r - 1) * (r - 2) // 6 * t**3 * d,
    )


def whitney(a, b, d):
    """c(A + B) = c(A) c(B), truncated at degree 3."""
    return (
        a[0] + b[0],
        a[1] + b[1],
        a[2] + b[2] + d * a[1] * b[1],
        a[3] + b[3] + a[1] * b[2] + a[2] * b[1],
    )


def dual(c):
    return (c[0], -c[1], c[2], -c[3])


def six_chi(c, d):
    """6 chi(F), the integer Riemann-Roch polynomial:
    6 chi = d c1^3 - 3 c1 c2 + 3(d c1^2 - 2 c2) + 2(d+3) c1 + 3 c3 + 6 r."""
    r, c1, c2, c3 = c
    return (
        d * c1**3 - 3 * c1 * c2 + 3 * (d * c1 * c1 - 2 * c2)
        + 2 * (d + 3) * c1 + 3 * c3 + 6 * r
    )


def forced(d, r, c1):
    """(c2, c3) from the README's forced-class formulas, evaluated exactly."""
    c2 = Fraction(d * c1 * c1, 2) + r - Fraction(d * c1, 2)
    c3 = (
        -2 * c1 + c1 * r - Fraction(d * c1 * c1, 2)
        + Fraction(d * c1**3, 6) + Fraction(d * c1, 3)
    )
    if c2.denominator != 1 or c3.denominator != 1:
        raise ValueError(f"forced classes not integral at d={d}, r={r}, c1={c1}")
    return int(c2), int(c3)


def serre_genus(c1, degree, c3):
    """Genus g of the curve from c3 = 2g - 2 + deg(2 - c1)."""
    twice = c3 + 2 - degree * (2 - c1)
    return twice // 2 if twice % 2 == 0 else None


def ceil_div(a, b):
    return -(-a // b)


def admissible(d, r, c1, relaxed=False):
    return (r - 1 if relaxed else r) <= d * c1 and c1 <= r


# --- Blocks ---------------------------------------------------------------

def _serre(r, c1, degree, genus):
    return (r, c1, degree, 2 * genus - 2 + degree * (2 - c1))


def _rank2_base(c1, degree, genus, shift, d):
    # a rank-2 block defined by its Serre twist (c1, curve), brought to twist 0
    return twist(_serre(2, c1, degree, genus), d, -shift)


def _f72(d):
    # dual of the kernel K of O^10 ->> F_{3,2}: solve c(K) c(F_{3,2}) = 1
    r, a, b, c = block_base("F32", d)
    k = (10 - r, -a, d * a * a - b, -c + 2 * a * b - d * a**3)
    if whitney(k, (r, a, b, c), d) != (10, 0, 0, 0):
        raise AssertionError("complement does not invert F_{3,2}")
    return dual(k)


_BASE = {
    "OV": lambda d: (1, 0, 0, 0),
    "SL": lambda d: _serre(2, 0, 1, 0),                     # a line
    "SC": lambda d: _rank2_base(1, 2, 0, 1, d),             # a conic, in S_C(1)
    "SE": lambda d: _rank2_base(2, d + 2, 1, 1, d),         # elliptic, deg d+2
    "F31": lambda d: _serre(3, 1, 3, 0),                    # rational cubic
    "F32": lambda d: twist(dual(_serre(3, 1, 3, 0)), d, 1),  # F_{3,1}*(1)
    "F33": lambda d: _serre(3, 3, 3 * d + 3, 2 * d + 4),
    "F41": lambda d: _serre(4, 1, 4, 0),                    # rational quartic
    "F51": lambda d: _serre(5, 1, 5, 0),                    # rational quintic
    "F72": _f72,
}

# Degrees on which each family exists, as listed in the rank <= 7 census.
AVAILABLE = {fam: frozenset(ALL_D) for fam in _BASE}
AVAILABLE.update(F41=frozenset({4, 5}), F51=frozenset({5}), F72=frozenset({5}))

DISPLAY = {
    "OV": "O_V", "SL": "S_L", "SC": "S_C", "SE": "S_E",
    "F31": "F_{3,1}", "F32": "F_{3,2}", "F33": "F_{3,3}",
    "F41": "F_{4,1}", "F51": "F_{5,1}", "F72": "F_{7,2}",
}
_FROM_DISPLAY = {v: k for k, v in DISPLAY.items()}
_BLOCK_RE = re.compile(r"^(O_V|S_[LCE]|F_\{\d,\d\})(?:\((-?\d+)\))?$")


def block_base(family, d):
    return _BASE[family](d)


def block_chern(block, d):
    family, t = block
    return twist(block_base(family, d), d, t)


def parse_blocks(rendered):
    """Blocks of a rendered sum such as ``S_C(1) ⊕ F_{3,1}``, or None."""
    blocks = []
    for part in rendered.split(" ⊕ "):
        m = _BLOCK_RE.match(part)
        if m is None or m.group(1) not in _FROM_DISPLAY:
            return None
        blocks.append((_FROM_DISPLAY[m.group(1)], int(m.group(2) or 0)))
    return blocks


def sum_chern(blocks, d):
    total = (0, 0, 0, 0)
    for b in blocks:
        total = whitney(total, block_chern(b, d), d)
    return total


# --- rank 2 ---------------------------------------------------------------

MODEL_FAMILIES = ("SL", "SC", "SE")


class Rank2Table:
    """Every rank-2 model whose (c1, c2) lies in the box, found by brute force.

    Twists: c1 = base c1 + 2t, so |t| <= (C1 + 1)/2 covers the c1 range.
    Split pairs O(a) + O(b): a + b = s and a b = p with |s| <= C1 and
    |p| <= C2 put a and b among the roots of x^2 - s x + p, so
    |a|, |b| <= |s|/2 + sqrt(s^2/4 + |p|) <= C1 + isqrt(C2) + 1.
    """

    def __init__(self, c1_max, c2_lo, c2_hi):
        self.c1_max, self.c2_lo, self.c2_hi = c1_max, c2_lo, c2_hi
        self.models = {}
        t_max = (c1_max + 1) // 2 + 1
        a_max = c1_max + int(max(abs(c2_lo), abs(c2_hi)) ** 0.5) + 2
        for d in ALL_D:
            for fam in MODEL_FAMILIES:
                base = block_base(fam, d)
                for t in range(-t_max, t_max + 1):
                    self._add(d, twist(base, d, t), ("TwistOf" + fam, t))
            for a in range(-a_max, a_max + 1):
                for b in range(-a_max, a + 1):
                    c = whitney((1, a, 0, 0), (1, b, 0, 0), d)
                    self._add(d, c, ("split", a, b))

    def _add(self, d, c, verdict):
        if self.in_box(c[1], c[2]):
            self.models.setdefault((d, c[1], c[2]), []).append(verdict)

    def in_box(self, c1, c2):
        return abs(c1) <= self.c1_max and self.c2_lo <= c2 <= self.c2_hi

    def expected(self, d, c1, c2):
        """The models with these invariants ([] when there is none)."""
        if not self.in_box(c1, c2):
            raise ValueError(f"query ({c1}, {c2}) outside the checked box")
        return self.models.get((d, c1, c2), [])


def verdict_chern(verdict, d):
    if verdict[0] == "split":
        return whitney((1, verdict[1], 0, 0), (1, verdict[2], 0, 0), d)
    return twist(block_base(verdict[0][len("TwistOf"):], d), d, verdict[1])


def check_rank2_verdict(table, d, c1, c2, verdict):
    """verdict: ("TwistOfSL", t), ("split", a, b) or ("none",)."""
    models = table.expected(d, c1, c2)
    if verdict == ("none",):
        return [f"verdict none, but {models} has (c1, c2) = ({c1}, {c2})"] if models else []
    problems = []
    if verdict[0] == "split" and verdict[1] < verdict[2]:
        problems.append(f"split pair {verdict} not ordered a >= b")
    if verdict[0] != "split" and verdict[0][len("TwistOf"):] not in MODEL_FAMILIES:
        return [f"unknown verdict {verdict}"]
    c = verdict_chern(verdict, d)
    if c != (2, c1, c2, 0):
        problems.append(f"verdict {verdict} has Chern data {c}, not {(2, c1, c2, 0)}")
    if verdict not in models:
        problems.append(f"verdict {verdict} is not among the models {models}")
    return problems


def check_chi(d, c, t, chi):
    """chi is the program's chi(F(t)) as a Fraction."""
    want = six_chi(twist(c, d, t), d)
    if 6 * chi != want:
        return [f"chi(F({t})) of {c} on V_{d}: got {chi}, want {Fraction(want, 6)}"]
    return []


# --- higher rank ----------------------------------------------------------

def check_witness(d, rank, c1, blocks):
    """A witness for (d, r, c1): sums match, forced classes, no O_V, all
    blocks available on V_d."""
    problems = []
    for fam, _ in blocks:
        if fam not in _BASE:
            return [f"unknown block family {fam}"]
        if fam == "OV":
            problems.append("trivial summand O_V")
        if d not in AVAILABLE[fam]:
            problems.append(f"{DISPLAY[fam]} is not available on V_{d}")
    total = sum_chern(blocks, d)
    if total[:2] != (rank, c1):
        problems.append(f"rank/c1 sums {total[:2]}, target {(rank, c1)}")
    if total[2:] != forced(d, rank, c1):
        problems.append(f"(c2, c3) = {total[2:]}, forced {forced(d, rank, c1)}")
    return problems


ORACLE_BLOCKS = [("SC", 1), ("SE", 1), ("F31", 0), ("F32", 0), ("F33", 0),
                 ("F41", 0), ("F51", 0), ("F72", 0)]


@lru_cache(maxsize=None)
def oracle_sums(d, rank, c1):
    """Every multiset of the eligible blocks with rank sum r and c1 sum c1
    (brute force over multisets of each possible size)."""
    eligible = [b for b in ORACLE_BLOCKS if d in AVAILABLE[b[0]]]
    data = {b: block_chern(b, d) for b in eligible}
    found = set()
    for n in range(1, rank // 2 + 1):
        for combo in combinations_with_replacement(eligible, n):
            if sum(data[b][0] for b in combo) == rank and sum(data[b][1] for b in combo) == c1:
                found.add(tuple(sorted(combo)))
    return found


def triple_rows(d, rank, relaxed):
    """Expected admissible rows at one rank: (c1, c2, c3, degree, genus)."""
    lower = rank - 1 if relaxed else rank
    rows = []
    for c1 in range(ceil_div(lower, d), rank + 1):
        c2, c3 = forced(d, rank, c1)
        rows.append((c1, c2, c3, c2, serre_genus(c1, c2, c3)))
    return rows


def symbolic(values):
    """Render a + b d, given its values at d = 0 and d = 1, like the table."""
    const, coeff = values[0], values[1] - values[0]
    if coeff == 0:
        return str(const)
    head = "d" if coeff == 1 else f"{coeff}d"
    if const == 0:
        return head
    return f"{head}{'+' if const > 0 else '-'}{abs(const)}"


# --- CLI ------------------------------------------------------------------

_CHERN_RE = re.compile(r"\(rank=(-?\d+), c1=(-?\d+), c2=(-?\d+), c3=(-?\d+)\)")


def _chern_from_text(text):
    m = _CHERN_RE.search(text)
    return tuple(int(g) for g in m.groups()) if m else None


def _csv_rows(out):
    return list(csv.reader(io.StringIO(out)))


def expected_exit(call, table):
    """The exit code the README contract gives the call: 0 success,
    1 invalid input, 2 a valid query with a negative answer."""
    cmd = call["cmd"]
    if cmd in ("admissible", "witness", "oracle") and call["rank"] < 3:
        return 1
    if cmd == "classify2":
        return 0 if table.expected(call["d"], call["c1"], call["c2"]) else 2
    if cmd == "witness":
        return 0 if admissible(call["d"], call["rank"], call["c1"]) else 2
    if cmd == "oracle" and call["rank"] > call["bound"]:
        return 1
    return 0


def check_cli(call, table, code, out, err):
    """Check one in-process CLI call: exit code, then the parsed output.
    ``call`` holds the subcommand ("cmd"), the format ("fmt") and its flags."""
    want = expected_exit(call, table)
    if code != want:
        return [f"exit {code}, expected {want} ({err.strip()[:120]})"]
    if code == 1:
        return [] if out == "" and err.startswith("error: ") else ["exit 1 output malformed"]
    if code == 2 and call["cmd"] == "witness":
        ok = out == "" and err.startswith("not admissible: ")
        return [] if ok else ["exit 2 output malformed"]
    if (code == 2) != bool(err.strip()):
        return [f"exit {code} with stderr {err[:120]!r}"]
    try:
        return _CLI_CHECKS[call["cmd"]](call, table, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparsable {call['fmt']} output: {exc!r}"]


def _check_chi_out(p, table, out):
    c, fmt = p["chern"], p["fmt"]
    if fmt == "json":
        data = json.loads(out)
        got = Fraction(data["chi"])
        if (data["d"], tuple(data["chern"][k] for k in ("rank", "c1", "c2", "c3"))) != (p["d"], c):
            return ["echoed input differs"]
    elif fmt == "csv":
        rows = _csv_rows(out)
        got = Fraction(rows[1][6])
    else:
        got = Fraction(out.splitlines()[1].split(" = ")[1])
    return check_chi(p["d"], c, p["t"], got)


def _check_twist_out(p, table, out):
    fmt = p["fmt"]
    if fmt == "json":
        r = json.loads(out)["result"]
        got = (r["rank"], r["c1"], r["c2"], r["c3"])
    elif fmt == "csv":
        got = tuple(int(x) for x in _csv_rows(out)[1][6:10])
    else:
        got = _chern_from_text(out.splitlines()[1])
    want = twist(p["chern"], p["d"], p["t"])
    return [] if got == want else [f"twist: got {got}, want {want}"]


def _verdict_from_json(v):
    if v["kind"] == "split":
        return ("split", v["a"], v["b"])
    if v["kind"] == "none":
        return ("none",)
    return (v["kind"], v["twist"])


_HUMAN_VERDICT = re.compile(r"^verdict: (?:(TwistOf\w+) t=(-?\d+),|split, O\((-?\d+)\) ⊕ O\((-?\d+)\)|(none) )")


def _check_classify2_out(p, table, out):
    fmt = p["fmt"]
    if fmt == "json":
        verdict = _verdict_from_json(json.loads(out)["verdict"])
    elif fmt == "csv":
        row = _csv_rows(out)[1]
        kind = row[3]
        verdict = (("split", int(row[5]), int(row[6])) if kind == "split"
                   else ("none",) if kind == "none" else (kind, int(row[4])))
    else:
        m = _HUMAN_VERDICT.match(out.splitlines()[1])
        if m is None:
            return ["human verdict line malformed"]
        kind, t, a, b, none = m.groups()
        verdict = (kind, int(t)) if kind else ("split", int(a), int(b)) if a else ("none",)
        if kind or a:
            c = _chern_from_text(out.splitlines()[1])
            if c != (2, p["c1"], p["c2"], 0):
                return [f"human verdict shows Chern data {c}"]
    return check_rank2_verdict(table, p["d"], p["c1"], p["c2"], verdict)


_HUMAN_NUMBER = re.compile(r"(?:=|degree |genus )(-?\d+)")


def _human_numbers(line):
    return tuple(int(x) for x in _HUMAN_NUMBER.findall(line))


def _check_rows(got, want, what):
    if len(got) != len(want):
        return [f"{what}: {len(got)} rows, expected {len(want)}"]
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    return [f"{what}: row {bad[0][0]} expected {bad[0][1]}"] if bad else []


def _check_admissible_out(p, table, out):
    d, rank, relaxed, fmt = p["d"], p["rank"], p["relaxed"], p["fmt"]
    want = triple_rows(d, rank, relaxed)
    if fmt == "json":
        got = [(t["c1"], t["c2"], t["c3"], t["curve_degree"], t["curve_genus"])
               for t in json.loads(out)["triples"]]
    elif fmt == "csv":
        got = [tuple(int(x) for x in row[2:7]) for row in _csv_rows(out)[1:]]
    else:
        lines = out.splitlines()
        if not lines[0].endswith(f"admissible c1 values: {len(want)}"):
            return ["human header count off"]
        got = [_human_numbers(line) for line in lines[1:]]
    if len(got) != rank - ceil_div(rank - 1 if relaxed else rank, d) + 1:
        return [f"{len(got)} admissible rows at rank {rank}"]
    return _check_rows(got, want, "admissible")


def _check_witness_out(p, table, out):
    d, rank, c1, fmt = p["d"], p["rank"], p["c1"], p["fmt"]
    if fmt == "json":
        data = json.loads(out)
        blocks = [(b["family"], b["twist"]) for b in data["decomposition"]]
        shown = tuple(data["chern"][k] for k in ("rank", "c1", "c2", "c3"))
        valid = data["validation"]["ok"] and all(c["passed"] for c in data["validation"]["checks"])
    elif fmt == "csv":
        row = _csv_rows(out)[1]
        blocks = parse_blocks(row[3])
        shown = (rank, c1, int(row[4]), int(row[5]))
        valid = row[6] == "True"
    else:
        lines = out.splitlines()
        rendered, _, chern = lines[1][len("witness: "):].rpartition(" = ")
        blocks, shown = parse_blocks(rendered), _chern_from_text(chern)
        valid = len(lines) == 7 and all(line.startswith("  [ok] ") for line in lines[2:])
    if blocks is None:
        return ["decomposition unparsable"]
    problems = check_witness(d, rank, c1, blocks)
    if shown != sum_chern(blocks, d):
        problems.append(f"shown Chern data {shown} is not the Whitney sum")
    if not valid:
        problems.append("validation not reported ok")
    return problems


def _check_census_out(p, table, out):
    d, relaxed, fmt = p["d"], p["relaxed"], p["fmt"]
    want = []
    for rank in range(3, p["max_rank"] + 1):
        for c1, c2, c3, deg, genus in triple_rows(d, rank, relaxed):
            strict = admissible(d, rank, c1)
            want.append((rank, c1, c2, c3, deg, genus, strict, "witnessed" if strict else "unknown"))
    if fmt == "json":
        got = [(t["rank"], t["c1"], t["c2"], t["c3"], t["curve_degree"], t["curve_genus"],
                t["strict"], t["existence"]) for t in json.loads(out)["triples"]]
    elif fmt == "csv":
        got = [tuple(int(x) for x in row[1:7]) + (row[7] == "True", row[8])
               for row in _csv_rows(out)[1:]]
    else:
        got = []
        for line in out.splitlines()[1:]:
            nums = _human_numbers(line)
            existence = line[line.rindex("[") + 1:-1]
            got.append(nums + (existence == "witnessed", existence))
    for rank in range(3, p["max_rank"] + 1):
        count = sum(1 for row in got if row[0] == rank)
        if count != rank - ceil_div(rank - 1 if relaxed else rank, d) + 1:
            return [f"{count} census rows at rank {rank}"]
    return _check_rows(got, want, "census")


def _table_rows(d):
    # every strictly admissible (r, c1) with r <= 7, the rows the census covers
    return [(r, c1) for r in range(3, 8) for c1 in range(ceil_div(r, d), r + 1)]


MISPRINT = (5, 4)  # the census row that prints c3 = 4d+2; the sum gives 4d+12


def _check_verify_rows(p, rows):
    """rows: dicts with the export columns (values as printed)."""
    d = p["d"]
    keys = [(int(r["rank"]), int(r["c1"])) for r in rows]
    problems = []
    if d is not None and keys != _table_rows(d):
        problems.append(f"rows {keys} are not the strict r <= 7 pairs of V_{d}")
    if d is None and len(rows) != 23:
        problems.append(f"{len(rows)} symbolic rows, expected 23")
    for row, key in zip(rows, keys):
        blocks = parse_blocks(row["decomposition"])
        if blocks is None:
            return [f"row {key}: decomposition unparsable"]
        if d is None:
            at = [sum_chern(blocks, x) for x in (0, 1, 2)]
            if any(2 * at[1][i] != at[0][i] + at[2][i] for i in (2, 3)):
                return [f"row {key}: Whitney sum not linear in d"]
            computed = (symbolic([at[0][2], at[1][2]]), symbolic([at[0][3], at[1][3]]))
            got = (row["c2_computed"], row["c3_computed"])
        else:
            computed = sum_chern(blocks, d)[2:]
            got = (int(row["c2_computed"]), int(row["c3_computed"]))
            if computed != forced(d, *key):
                problems.append(f"row {key}: sum differs from the forced classes")
        if got != computed:
            problems.append(f"row {key}: computed {got}, expected {computed}")
        mismatch = key == MISPRINT
        if row["status"] != ("mismatch" if mismatch else "ok"):
            problems.append(f"row {key}: status {row['status']}")
        printed = (str(row["c2_printed"]), str(row["c3_printed"]))
        if mismatch:
            want_c3 = ("4d+2", "4d+12") if d is None else (str(4 * d + 2), str(4 * d + 12))
            if (printed[1], str(got[1])) != want_c3:
                problems.append(f"misprint row shows c3 {printed[1]} vs {got[1]}")
        elif printed != tuple(str(x) for x in got):
            problems.append(f"row {key}: printed {printed} vs computed {got}")
    return problems


def _check_verify_out(p, table, out):
    fmt = p["fmt"]
    if fmt == "json":
        return _check_verify_rows(p, json.loads(out)["rows"])
    if fmt == "csv":
        rows = _csv_rows(out)
        return _check_verify_rows(p, [dict(zip(rows[0], row)) for row in rows[1:]])
    problems = []
    lines = out.splitlines()
    for d in ALL_D if p["d"] is None else (p["d"],):
        n = len(_table_rows(d))
        header = f"V_{d}: {n} applicable rows, {n - 1} match, 1 mismatch"
        if header not in lines:
            problems.append(f"missing header {header!r}")
    flagged = [line for line in lines if line.startswith("  [MISMATCH] ")]
    count = 3 if p["d"] is None else 1
    if len(flagged) != count or not all(
        line.startswith("  [MISMATCH] rank 5, c1=4: ") for line in flagged
    ):
        problems.append(f"mismatch lines {flagged}")
    return problems


def _check_oracle_out(p, table, out):
    d, rank, c1, fmt = p["d"], p["rank"], p["c1"], p["fmt"]
    want = oracle_sums(d, rank, c1)
    if fmt == "json":
        decs = json.loads(out)["decompositions"]
        got = [[(b["family"], b["twist"]) for b in dec["blocks"]] for dec in decs]
        if any(parse_blocks(dec["rendered"]) != blocks for dec, blocks in zip(decs, got)):
            return ["rendered decomposition differs from its blocks"]
    elif fmt == "csv":
        rows = _csv_rows(out)[1:]
        got = [parse_blocks(row[3]) for row in rows]
        if any(b is None or (int(row[4]), int(row[5])) != sum_chern(b, d)[2:]
               for row, b in zip(rows, got)):
            return ["csv (c2, c3) differs from the Whitney sum"]
    else:
        lines = out.splitlines()
        if not lines[0].endswith(f": {len(want)} decomposition(s)"):
            return ["human count line off"]
        got = [parse_blocks(line.strip().rpartition(" = ")[0]) for line in lines[1:]]
    if any(b is None for b in got):
        return ["decomposition unparsable"]
    problems = []
    for blocks in got:
        problems += check_witness(d, rank, c1, blocks)
    if {tuple(sorted(b)) for b in got} != want or len(got) != len(want):
        problems.append(f"{len(got)} decompositions, brute force finds {len(want)}")
    return problems


_CLI_CHECKS = {
    "chi": _check_chi_out,
    "twist": _check_twist_out,
    "classify2": _check_classify2_out,
    "admissible": _check_admissible_out,
    "witness": _check_witness_out,
    "census": _check_census_out,
    "verify-table": _check_verify_out,
    "oracle": _check_oracle_out,
}

"""Command-line front end.

All subcommands read their inputs from flags and write results to stdout
(diagnostics to stderr) in one of three formats: human (default), json or
csv.  Output is deterministic: identical invocations produce byte-identical
output, so json/csv are safe for golden files.

Exit codes: 0 success, 1 invalid input (bad flags, d outside {3,4,5},
rank < 3, or < 0 for oracle, enumeration or witness bound exceeded), 2 valid
query with a negative answer (no matching rank-2 model, or a non-admissible
witness request).

json output is json.dumps(payload, indent=2) byte for byte, but it is made
by the stdlib's C encoder, which json.dumps leaves for a pure-Python one as
soon as an indent is given.  A container holding no container is encoded
in one C call whose item separator carries the newline and the indent; a
list of such dicts (admissible triples, table rows) is encoded
whole in one call and its joins re-indented; any other container encodes
its scalars in one call and splices its nested containers in.  This is
exact because an encoded string never contains a raw newline.

The census fills one "%" row template per format and existence value with
the plain rows of the admissible-triple generator (the json template is
what json.dumps(indent=2) makes of a row's dict; csv and human need no
quoting).  It streams: rows are rendered in chunks of a few thousand and
each chunk is written with one call, so memory stays flat at any rank and
only the first and last writes carry the header and the closing lines.

run() may be called any number of times in one process.  The argument
parsers are built once, on the first call, and reused: argparse keeps no
per-parse state on a parser, so every call gives the same stdout, stderr and
exit code as the same argv in a fresh process.  An argv whose first token
names a subcommand is parsed once, by that subcommand's parser; the
top-level parser would only hand it the rest of the argv unchanged, so the
namespace, usage errors and help are the same.  Any other argv (empty, an
unknown command, --help) goes through the top-level parser.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction
from itertools import chain, islice
from typing import Sequence

from .acm import (
    BoundExceeded,
    InvalidRank,
    NotAdmissible,
    ORACLE_DEFAULT_BOUND,
    _admissible_rows,
    enumerate_admissible,
    oracle_enumerate,
    validate_witness,
    witness,
)
from .catalog import (
    TABLE_EXPORT_COLUMNS,
    UnavailableBlock,
    _checked_rows,
    table_export_rows,
)
from .chow import ChernData, FanoThreefold, chi_twist, format_rational, twist
from .rank2 import NoACMBundle, SplitLineBundles, TwistOf, classify_rank2

__all__ = ["run", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract here is 1
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _chern_str(c: ChernData) -> str:
    return f"(rank={c.rank}, c1={c.c1}, c2={c.c2}, c3={c.c3})"


def _chern_json(c: ChernData) -> dict:
    return {"rank": c.rank, "c1": c.c1, "c2": c.c2, "c3": c.c3}


def _rational_json(q: Fraction) -> int | str:
    return q.numerator if q.denominator == 1 else format_rational(q)


_INDENT = "  "
_CONTAINERS = (dict, list, tuple)
# No indent, so both encode in C; the separator does the indenting.
_FLAT = json.JSONEncoder(separators=(",\n" + _INDENT, ": "))
_ROWS = json.JSONEncoder(separators=(",\n" + 2 * _INDENT, ": "))


def _holds_container(values) -> bool:
    return any(issubclass(t, _CONTAINERS) for t in set(map(type, values)))


def _json_text(obj: object) -> str:
    """json.dumps(obj, indent=2), through the C encoder."""
    if not isinstance(obj, _CONTAINERS) or not obj:
        return _FLAT.encode(obj)
    is_dict = isinstance(obj, dict)
    if not _holds_container(obj.values() if is_dict else obj):
        text = _FLAT.encode(obj)
        return f"{text[0]}\n{_INDENT}{text[1:-1]}\n{text[-1]}"
    if (
        not is_dict
        and all(issubclass(t, dict) for t in set(map(type, obj)))
        and all(obj)
        and not _holds_container(chain.from_iterable(map(dict.values, obj)))
    ):
        # Non-empty flat dicts, '[{..},\n    {..}]': only a dict join has a
        # '}' before the separator, since a flat dict's values are scalars.
        sep = ",\n" + 2 * _INDENT
        text = _ROWS.encode(obj)[2:-2].replace(
            "}" + sep + "{", f"\n{_INDENT}}},\n{_INDENT}{{\n{2 * _INDENT}"
        )
        return f"[\n{_INDENT}{{\n{2 * _INDENT}{text}\n{_INDENT}}}\n]"
    # Nested containers go in as null, so one C call encodes the rest; as
    # no encoded string holds a raw newline, the separator splits the items.
    if is_dict:
        values = list(obj.values())
        text = _FLAT.encode(
            {k: None if isinstance(v, _CONTAINERS) else v for k, v in obj.items()}
        )
    else:
        values = obj
        text = _FLAT.encode([None if isinstance(v, _CONTAINERS) else v for v in obj])
    sep = ",\n" + _INDENT
    items = text[1:-1].split(sep)
    for i, value in enumerate(values):
        if isinstance(value, _CONTAINERS):  # items[i] ends in 'null'
            items[i] = items[i][:-4] + _json_text(value).replace("\n", "\n" + _INDENT)
    return f"{text[0]}\n{_INDENT}{sep.join(items)}\n{text[-1]}"


def _emit_json(payload: dict) -> None:
    sys.stdout.write(_json_text(payload) + "\n")


def _emit_csv(header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _triple_row(t) -> list[object]:
    return [t.d, t.rank, t.c1, t.c2, t.c3, t.curve_degree, t.curve_genus]


_TRIPLE_HEADER = ["d", "rank", "c1", "c2", "c3", "curve_degree", "curve_genus"]


def _cmd_chi(args: argparse.Namespace) -> int:
    X = FanoThreefold(args.d)
    c = ChernData(args.rank, args.c1, args.c2, args.c3)
    value = chi_twist(c, X, args.twist)
    if args.format == "json":
        _emit_json(
            {
                "d": X.d,
                "chern": _chern_json(c),
                "twist": args.twist,
                "chi": _rational_json(value),
            }
        )
    elif args.format == "csv":
        _emit_csv(
            ["d", "rank", "c1", "c2", "c3", "twist", "chi"],
            [[X.d, c.rank, c.c1, c.c2, c.c3, args.twist, format_rational(value)]],
        )
    else:
        print(f"{X}: F = {_chern_str(c)}")
        print(f"chi(F({args.twist})) = {format_rational(value)}")
    return 0


def _cmd_twist(args: argparse.Namespace) -> int:
    X = FanoThreefold(args.d)
    c = ChernData(args.rank, args.c1, args.c2, args.c3)
    out = twist(c, X, args.t)
    if args.format == "json":
        _emit_json(
            {"d": X.d, "chern": _chern_json(c), "t": args.t, "result": _chern_json(out)}
        )
    elif args.format == "csv":
        _emit_csv(
            ["d", "rank", "c1", "c2", "c3", "t", "rank_out", "c1_out", "c2_out", "c3_out"],
            [[X.d, c.rank, c.c1, c.c2, c.c3, args.t, out.rank, out.c1, out.c2, out.c3]],
        )
    else:
        print(f"{X}: F = {_chern_str(c)}")
        print(f"F({args.t}) = {_chern_str(out)}")
    return 0


def _cmd_classify2(args: argparse.Namespace) -> int:
    X = FanoThreefold(args.d)
    verdict = classify_rank2(X, args.c1, args.c2)
    if args.format == "json":
        _emit_json(
            {"d": X.d, "c1": args.c1, "c2": args.c2, "verdict": verdict.to_json()}
        )
    elif args.format == "csv":
        row: list[object] = [X.d, args.c1, args.c2, verdict.kind, "", "", ""]
        if isinstance(verdict, TwistOf):
            row[4] = verdict.twist
        elif isinstance(verdict, SplitLineBundles):
            row[5], row[6] = verdict.a, verdict.b
        _emit_csv(["d", "c1", "c2", "kind", "twist", "a", "b"], [row])
    else:
        print(f"{X}: rank 2, c1={args.c1}, c2={args.c2}")
        if isinstance(verdict, TwistOf):
            c = verdict.chern(X)
            print(f"verdict: {verdict.kind} t={verdict.twist}, {verdict.render()} = {_chern_str(c)}")
        elif isinstance(verdict, SplitLineBundles):
            c = verdict.chern(X)
            print(f"verdict: split, {verdict.render()} = {_chern_str(c)}")
        else:
            print("verdict: none (no such bundle without intermediate cohomology)")
    if isinstance(verdict, NoACMBundle):
        print(
            f"no rank-2 model on {X} has c1={args.c1}, c2={args.c2}",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_admissible(args: argparse.Namespace) -> int:
    X = FanoThreefold(args.d)
    triples = enumerate_admissible(X, args.rank, relaxed=args.relaxed)
    if args.format == "json":
        _emit_json(
            {
                "d": X.d,
                "rank": args.rank,
                "relaxed": args.relaxed,
                "triples": [t.to_json() for t in triples],
            }
        )
    elif args.format == "csv":
        _emit_csv(_TRIPLE_HEADER, [_triple_row(t) for t in triples])
    else:
        mode = "relaxed" if args.relaxed else "strict"
        print(f"{X}: rank {args.rank}, {mode} admissible c1 values: {len(triples)}")
        for t in triples:
            print(
                f"  c1={t.c1}: c2={t.c2}, c3={t.c3}, "
                f"curve degree {t.curve_degree}, genus {t.curve_genus}"
            )
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    X = FanoThreefold(args.d)
    dec = witness(X, args.rank, args.c1)  # NotAdmissible -> exit 2 in run()
    report = validate_witness(X, dec, args.rank, args.c1)
    total = report.total
    if args.format == "json":
        _emit_json(
            {
                "d": X.d,
                "rank": args.rank,
                "c1": args.c1,
                "decomposition": dec.to_json(),
                "rendered": dec.render(),
                "chern": _chern_json(total),
                "validation": report.to_json(),
            }
        )
    elif args.format == "csv":
        _emit_csv(
            ["d", "rank", "c1", "decomposition", "c2", "c3", "valid"],
            [[X.d, args.rank, args.c1, dec.render(), total.c2, total.c3, report.ok]],
        )
    else:
        print(f"{X}: rank {args.rank}, c1={args.c1}")
        print(f"witness: {dec.render()} = {_chern_str(total)}")
        for check in report.checks:
            print(f"  [{'ok' if check.passed else 'FAIL'}] {check.name}: {check.detail}")
    return 0


_CENSUS_HEADER = _TRIPLE_HEADER + ["strict", "existence"]
_EXISTENCE = (("False", "unknown"), ("True", "witnessed"))

# Census row templates per format, (not strict, strict), each filled by
# "%" with one (d, rank, c1, c2, c3, curve_degree, curve_genus) row of the
# admissible-triple generator; "%.0s" drops d.  The json one is what
# json.dumps(indent=2) makes of the row's dict inside the "triples" list.
_CENSUS_ROW = {
    "json": tuple(
        "    {\n"
        + "".join(f'      "{key}": %s,\n' for key in _TRIPLE_HEADER)
        + f'      "strict": {strict.lower()},\n      "existence": "{existence}"\n    }}'
        for strict, existence in _EXISTENCE
    ),
    "csv": tuple(f"{'%s,' * 7}{strict},{existence}\n" for strict, existence in _EXISTENCE),
    "human": tuple(
        f"%.0s  r=%s c1=%s: c2=%s, c3=%s, degree %s, genus %s [{existence}]\n"
        for _, existence in _EXISTENCE
    ),
}
_CENSUS_CHUNK_ROWS = 4096


def _cmd_census(args: argparse.Namespace) -> int:
    """Streams the rows in chunks of _CENSUS_CHUNK_ROWS, one write each.
    Every refusal of the row generator comes before its first row, so
    before anything is written."""
    X = FanoThreefold(args.d)
    d = X.d
    rows = _admissible_rows(X, range(3, args.max_rank + 1), args.relaxed)
    templates = _CENSUS_ROW[args.format]
    if args.format == "json":
        # the payload without triples ends '"triples": []\n}\n'
        empty = _json_text(
            {"d": d, "max_rank": args.max_rank, "relaxed": args.relaxed, "triples": []}
        ) + "\n"
        head, sep, end = empty[:-4] + "\n", ",\n", "\n  ]\n}\n"
    else:
        if args.format == "csv":
            head = ",".join(_CENSUS_HEADER) + "\n"
        else:
            head = f"{X}: admissible triples for 3 <= rank <= {args.max_rank}\n"
        empty, sep, end = head, "", ""

    def chunk() -> str | None:
        rendered = [
            templates[d * row[2] >= row[1]] % row  # strict: admissible(), as c1 <= r
            for row in islice(rows, _CENSUS_CHUNK_ROWS)
        ]
        return sep.join(rendered) if rendered else None

    write = sys.stdout.write
    text = chunk()
    if text is None:
        write(empty)
        return 0
    text = head + text
    while (more := chunk()) is not None:
        write(text)
        text = sep + more
    write(text + end)
    return 0


def _cmd_verify_table(args: argparse.Namespace) -> int:
    X = FanoThreefold(args.d) if args.d is not None else None
    if args.format == "json":
        _emit_json({"rows": table_export_rows(X)})
    elif args.format == "csv":
        rows = table_export_rows(X)
        _emit_csv(
            TABLE_EXPORT_COLUMNS,
            [[row[col] for col in TABLE_EXPORT_COLUMNS] for row in rows],
        )
    else:
        for d in (3, 4, 5) if X is None else (X.d,):
            rows = _checked_rows(FanoThreefold(d))
            flagged = sum(disc is not None for _, _, disc in rows)
            print(
                f"V_{d}: {len(rows)} applicable rows, "
                f"{len(rows) - flagged} match, {flagged} mismatch"
            )
            for row, total, disc in rows:
                if disc is None:
                    print(
                        f"  [ok] rank {row.rank}, c1={row.c1}: "
                        f"(c2,c3)=({total.c2},{total.c3}), "
                        f"{row.decomposition.render()}"
                    )
                else:
                    print(
                        f"  [MISMATCH] rank {disc.rank}, c1={disc.c1}: printed "
                        f"(c2,c3)=({disc.printed_c2},{disc.printed_c3}), computed "
                        f"({disc.computed_c2},{disc.computed_c3}), forced "
                        f"({disc.forced_c2},{disc.forced_c3}), "
                        f"{row.decomposition.render()}"
                    )
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    X = FanoThreefold(args.d)
    decs = oracle_enumerate(X, args.rank, args.c1, bound=args.bound)
    if args.format == "json":
        _emit_json(
            {
                "d": X.d,
                "rank": args.rank,
                "c1": args.c1,
                "decompositions": [
                    {"blocks": dec.to_json(), "rendered": dec.render()} for dec in decs
                ],
            }
        )
    elif args.format == "csv":
        _emit_csv(
            ["d", "rank", "c1", "decomposition", "c2", "c3"],
            [
                [X.d, args.rank, args.c1, dec.render(), c.c2, c.c3]
                for dec in decs
                for c in (dec.chern(X),)
            ],
        )
    else:
        print(f"{X}: rank {args.rank}, c1={args.c1}: {len(decs)} decomposition(s)")
        for dec in decs:
            print(f"  {dec.render()} = {_chern_str(dec.chern(X))}")
    return 0


def _add_common(p: argparse.ArgumentParser, *, d_required: bool = True) -> None:
    p.add_argument(
        "--d",
        type=int,
        choices=(3, 4, 5),
        required=d_required,
        default=None,
        help="degree of the ambient Fano threefold V_d",
    )
    p.add_argument(
        "--format",
        choices=("human", "json", "csv"),
        default="human",
        help="output format (default: human)",
    )


def _add_chern_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--c1", type=int, required=True)
    p.add_argument("--c2", type=int, required=True)
    p.add_argument("--c3", type=int, required=True)


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser by name."""
    parser = _Parser(
        prog="fano-acm",
        description="Exact Chern class / Riemann-Roch calculus and ACM-bundle "
        "invariant classification on V_3, V_4, V_5.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("chi", help="Euler characteristic chi(F(t))")
    _add_common(p)
    _add_chern_flags(p)
    p.add_argument("--twist", type=int, default=0)
    p.set_defaults(func=_cmd_chi)

    p = sub.add_parser("twist", help="Chern data of F(t)")
    _add_common(p)
    _add_chern_flags(p)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=_cmd_twist)

    p = sub.add_parser("classify2", help="rank-2 model with invariants (c1, c2)")
    _add_common(p)
    p.add_argument("--c1", type=int, required=True)
    p.add_argument("--c2", type=int, required=True)
    p.set_defaults(func=_cmd_classify2)

    p = sub.add_parser("admissible", help="admissible triples at one rank")
    _add_common(p)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--relaxed", action="store_true")
    p.set_defaults(func=_cmd_admissible)

    p = sub.add_parser("witness", help="direct-sum witness for (rank, c1)")
    _add_common(p)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--c1", type=int, required=True)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("census", help="admissible triples for 3 <= rank <= N")
    _add_common(p)
    p.add_argument("--max-rank", type=int, required=True)
    p.add_argument("--relaxed", action="store_true")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("verify-table", help="recompute the census table rows")
    _add_common(p, d_required=False)
    p.set_defaults(func=_cmd_verify_table)

    p = sub.add_parser("oracle", help="brute-force decompositions for (rank, c1)")
    _add_common(p)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--c1", type=int, required=True)
    p.add_argument("--bound", type=int, default=ORACLE_DEFAULT_BOUND)
    p.set_defaults(func=_cmd_oracle)

    return parser, sub.choices


def run(argv: Sequence[str] | None = None) -> int:
    parser, commands = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        if argv and argv[0] in commands:
            args = commands[argv[0]].parse_args(argv[1:])
        else:
            args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except NotAdmissible as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (InvalidRank, BoundExceeded, UnavailableBlock, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())

"""Command-line front end.

Every subcommand reads its inputs from flags and writes its result to
stdout (diagnostics to stderr) as human text (default), json or csv.  Output
is deterministic: identical invocations produce byte-identical output, so
json and csv are safe for golden files.

Exit codes: 0 success; 1 invalid input (bad flags, an int flag of more than
4300 digits among them, d outside {3,4,5}, rank < 3, or < 0 for oracle, an
enumeration or witness bound exceeded); 2 a valid query with a negative
answer (no matching rank-2 model, or a non-admissible witness request); 3 an
internal error, an invariant of the library's own arithmetic that failed
(chow.InternalError), reported on stderr as "internal error: ...".  An
answer prints in full, however many digits it has.  An empty enumeration
is a complete answer, not a negative one: `census --max-rank 2` prints an
empty table and an `oracle` that finds no decomposition prints an empty
list, both with exit 0.  Under main(), a stdout that its reader closes
early (`| head`) ends the process quietly with exit 1.

There is one output path.  A handler returns a _Result: one zero-argument
maker per format (the json payload, the csv header and rows, the human
lines) and an optional stderr note, which means exit 2.  Only the emitter,
_emit, reads --format; it calls that format's maker and writes the rendered
text in one call.  The census is the exception: it streams, filling one "%"
row template per format and existence value with the plain rows of the
admissible-triple generator (the json template is what json.dumps(indent=2)
makes of a row's dict; csv and human need no quoting), and writes chunks of
a few thousand rows, one call each, so memory stays flat at any rank.

json output is json.dumps(payload, indent=2) byte for byte, but it is made
by the stdlib's C encoder, which json.dumps leaves for a pure-Python one as
soon as an indent is given.  A container holding no container is encoded
in one C call whose item separator carries the newline and the indent; a
list of such dicts (admissible triples, table rows) is encoded whole in one
call and its joins re-indented; any other container encodes its scalars in
one call and splices its nested containers in.  This is exact because an
encoded string never contains a raw newline.  The json and csv modules are
imported by the first answer in their format, so importing this module,
or a human answer, loads neither.

run() may be called any number of times in one process, and every call acts
as in a fresh process.  A plain argv is parsed straight from the _COMMANDS
table, without argparse: a subcommand, then each of its flags at most once
and spelled out in full, a switch alone and any other flag followed by its
value (an int as ASCII digits with an optional "-", within the int/str digit
limit; a value with choices one of them), every required flag present.
argparse reads such an argv one way only, and the table gives the same
namespace; both paths fill a types.SimpleNamespace.  Every other argv (an
abbreviation, --flag=value, a repeated flag, a bad value, --help, a missing
flag) goes through argparse, which alone writes help and usage errors.  Its
parsers are built from the same table once, on first need, and reused;
argparse keeps no per-parse state on a parser.  An argv that starts with a
subcommand goes to that subcommand's parser alone, with the same namespace,
errors and help as the top-level parser.
"""

from __future__ import annotations

import functools
import io
import os
import sys
from collections import namedtuple
from collections.abc import Sequence
from itertools import chain, islice
from types import SimpleNamespace

from .acm import (
    NotAdmissible, ORACLE_DEFAULT_BOUND, _admissible_rows, enumerate_admissible,
    oracle_enumerate, validate_witness, witness,
)
from .catalog import TABLE_EXPORT_COLUMNS, _checked_rows, table_export_rows
from .chow import ChernData, FanoThreefold, InternalError, chi_twist, format_rational, twist
from .rank2 import NoACMBundle, SplitLineBundles, TwistOf, classify_rank2

__all__ = ["run", "main"]


class _UsageError(Exception):
    pass


def _chern_str(c: ChernData) -> str:
    return f"(rank={c.rank}, c1={c.c1}, c2={c.c2}, c3={c.c3})"


def _chern_json(c: ChernData) -> dict:
    return {"rank": c.rank, "c1": c.c1, "c2": c.c2, "c3": c.c3}


_INDENT = "  "
_CONTAINERS = (dict, list, tuple)


@functools.cache
def _encoder(depth: int):
    # made on first use, so that only a json answer imports json; no indent,
    # so it encodes in C, and the separator does the indenting
    import json
    return json.JSONEncoder(separators=(",\n" + depth * _INDENT, ": "))


def _holds_container(values) -> bool:
    return any(issubclass(t, _CONTAINERS) for t in set(map(type, values)))


def _json_text(obj: object) -> str:
    """json.dumps(obj, indent=2), through the C encoder."""
    flat = _encoder(1)
    if not isinstance(obj, _CONTAINERS) or not obj:
        return flat.encode(obj)
    is_dict = isinstance(obj, dict)
    if not _holds_container(obj.values() if is_dict else obj):
        text = flat.encode(obj)
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
        text = _encoder(2).encode(obj)[2:-2].replace(
            "}" + sep + "{", f"\n{_INDENT}}},\n{_INDENT}{{\n{2 * _INDENT}"
        )
        return f"[\n{_INDENT}{{\n{2 * _INDENT}{text}\n{_INDENT}}}\n]"
    # Nested containers go in as null, so one C call encodes the rest; as
    # no encoded string holds a raw newline, the separator splits the items.
    if is_dict:
        values = list(obj.values())
        text = flat.encode(
            {k: None if isinstance(v, _CONTAINERS) else v for k, v in obj.items()}
        )
    else:
        values = obj
        text = flat.encode([None if isinstance(v, _CONTAINERS) else v for v in obj])
    sep = ",\n" + _INDENT
    items = text[1:-1].split(sep)
    for i, value in enumerate(values):
        if isinstance(value, _CONTAINERS):  # items[i] ends in 'null'
            items[i] = items[i][:-4] + _json_text(value).replace("\n", "\n" + _INDENT)
    return f"{text[0]}\n{_INDENT}{sep.join(items)}\n{text[-1]}"


class _Result(namedtuple("_Result", "json csv human note", defaults=(None,))):
    """A handler's answer, with one maker per output format: json() gives
    the payload, csv() the header and rows, human() at least one line.  A
    maker does only its own format's work, so a call pays for one rendering.
    A note is a negative answer, for stderr, and means exit 2."""

    __slots__ = ()


def _emit(result: _Result | None, args: SimpleNamespace) -> int:
    """Write result in the format asked, with one write, and return the
    exit code.  None: the handler has streamed its own output."""
    if result is None:
        return 0
    if args.format == "json":
        text = _json_text(result.json()) + "\n"
    elif args.format == "csv":
        import csv
        header, rows = result.csv()
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = "\n".join(result.human()) + "\n"
    sys.stdout.write(text)
    if result.note is None:
        return 0
    print(result.note, file=sys.stderr)
    return 2


_TRIPLE_HEADER = ["d", "rank", "c1", "c2", "c3", "curve_degree", "curve_genus"]


def _cmd_chi(X: FanoThreefold, args: SimpleNamespace) -> _Result:
    c = ChernData(args.rank, args.c1, args.c2, args.c3)
    value = chi_twist(c, X, args.twist)
    return _Result(
        lambda: {
            "d": X.d, "chern": _chern_json(c), "twist": args.twist,
            "chi": value.numerator if value.denominator == 1 else format_rational(value),
        },
        lambda: (
            ["d", "rank", "c1", "c2", "c3", "twist", "chi"],
            [[X.d, c.rank, c.c1, c.c2, c.c3, args.twist, format_rational(value)]],
        ),
        lambda: [f"{X}: F = {_chern_str(c)}",
                 f"chi(F({args.twist})) = {format_rational(value)}"],
    )


def _cmd_twist(X: FanoThreefold, args: SimpleNamespace) -> _Result:
    c = ChernData(args.rank, args.c1, args.c2, args.c3)
    out = twist(c, X, args.t)
    return _Result(
        lambda: {"d": X.d, "chern": _chern_json(c), "t": args.t, "result": _chern_json(out)},
        lambda: (
            ["d", "rank", "c1", "c2", "c3", "t", "rank_out", "c1_out", "c2_out", "c3_out"],
            [[X.d, c.rank, c.c1, c.c2, c.c3, args.t, out.rank, out.c1, out.c2, out.c3]],
        ),
        lambda: [f"{X}: F = {_chern_str(c)}", f"F({args.t}) = {_chern_str(out)}"],
    )


def _cmd_classify2(X: FanoThreefold, args: SimpleNamespace) -> _Result:
    verdict = classify_rank2(X, args.c1, args.c2)

    def csv_rows():
        row: list[object] = [X.d, args.c1, args.c2, verdict.kind, "", "", ""]
        if isinstance(verdict, TwistOf):
            row[4] = verdict.twist
        elif isinstance(verdict, SplitLineBundles):
            row[5], row[6] = verdict.a, verdict.b
        return ["d", "c1", "c2", "kind", "twist", "a", "b"], [row]

    def human():
        if isinstance(verdict, TwistOf):
            c = verdict.chern(X)
            line = f"{verdict.kind} t={verdict.twist}, {verdict.render()} = {_chern_str(c)}"
        elif isinstance(verdict, SplitLineBundles):
            line = f"split, {verdict.render()} = {_chern_str(verdict.chern(X))}"
        else:
            line = "none (no such bundle without intermediate cohomology)"
        return [f"{X}: rank 2, c1={args.c1}, c2={args.c2}", f"verdict: {line}"]

    note = (f"no rank-2 model on {X} has c1={args.c1}, c2={args.c2}"
            if isinstance(verdict, NoACMBundle) else None)
    return _Result(lambda: {"d": X.d, "c1": args.c1, "c2": args.c2,
                            "verdict": verdict.to_json()}, csv_rows, human, note)


def _cmd_admissible(X: FanoThreefold, args: SimpleNamespace) -> _Result:
    triples = enumerate_admissible(X, args.rank, relaxed=args.relaxed)
    mode = "relaxed" if args.relaxed else "strict"
    return _Result(
        lambda: {
            "d": X.d, "rank": args.rank, "relaxed": args.relaxed,
            "triples": [t.to_json() for t in triples],
        },
        lambda: (_TRIPLE_HEADER, triples),  # a triple is its csv row
        lambda: [f"{X}: rank {args.rank}, {mode} admissible c1 values: {len(triples)}"] + [
            f"  c1={t.c1}: c2={t.c2}, c3={t.c3}, "
            f"curve degree {t.curve_degree}, genus {t.curve_genus}"
            for t in triples
        ],
    )


def _cmd_witness(X: FanoThreefold, args: SimpleNamespace) -> _Result:
    dec = witness(X, args.rank, args.c1)  # NotAdmissible -> exit 2 in run()
    report = validate_witness(X, dec, args.rank, args.c1)
    total = report.total
    return _Result(
        lambda: {
            "d": X.d, "rank": args.rank, "c1": args.c1, "decomposition": dec.to_json(),
            "rendered": dec.render(), "chern": _chern_json(total),
            "validation": report.to_json(),
        },
        lambda: (
            ["d", "rank", "c1", "decomposition", "c2", "c3", "valid"],
            [[X.d, args.rank, args.c1, dec.render(), total.c2, total.c3, report.ok]],
        ),
        lambda: [f"{X}: rank {args.rank}, c1={args.c1}",
                 f"witness: {dec.render()} = {_chern_str(total)}"] + [
            f"  [{'ok' if check.passed else 'FAIL'}] {check.name}: {check.detail}"
            for check in report.checks
        ],
    )


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


def _cmd_census(X: FanoThreefold, args: SimpleNamespace) -> None:
    """Streams the rows in chunks of _CENSUS_CHUNK_ROWS, one write each.
    Every refusal of the row generator comes before its first row, so
    before anything is written."""
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
        return
    text = head + text
    while (more := chunk()) is not None:
        write(text)
        text = sep + more
    write(text + end)


def _cmd_verify_table(X: FanoThreefold | None, args: SimpleNamespace) -> _Result:
    def csv_rows():
        rows = table_export_rows(X)
        return TABLE_EXPORT_COLUMNS, [[row[c] for c in TABLE_EXPORT_COLUMNS] for row in rows]

    def human():
        lines = []
        for V in map(FanoThreefold, (3, 4, 5)) if X is None else (X,):
            rows = _checked_rows(V)
            flagged = sum(disc is not None for _, _, disc in rows)
            lines.append(
                f"{V}: {len(rows)} applicable rows, "
                f"{len(rows) - flagged} match, {flagged} mismatch"
            )
            for row, total, disc in rows:
                lines.append(
                    f"  [ok] rank {row.rank}, c1={row.c1}: "
                    f"(c2,c3)=({total.c2},{total.c3}), {row.decomposition.render()}"
                    if disc is None else
                    f"  [MISMATCH] rank {disc.rank}, c1={disc.c1}: printed "
                    f"(c2,c3)=({disc.printed_c2},{disc.printed_c3}), computed "
                    f"({disc.computed_c2},{disc.computed_c3}), forced "
                    f"({disc.forced_c2},{disc.forced_c3}), {row.decomposition.render()}"
                )
        return lines

    return _Result(lambda: {"rows": table_export_rows(X)}, csv_rows, human)


def _cmd_oracle(X: FanoThreefold, args: SimpleNamespace) -> _Result:
    decs = oracle_enumerate(X, args.rank, args.c1, bound=args.bound)
    return _Result(
        lambda: {
            "d": X.d, "rank": args.rank, "c1": args.c1,
            "decompositions": [
                {"blocks": dec.to_json(), "rendered": dec.render()} for dec in decs
            ],
        },
        lambda: (
            ["d", "rank", "c1", "decomposition", "c2", "c3"],
            [[X.d, args.rank, args.c1, dec.render(), c.c2, c.c3]
             for dec in decs for c in (dec.chern(X),)],
        ),
        lambda: [f"{X}: rank {args.rank}, c1={args.c1}: {len(decs)} decomposition(s)"]
        + [f"  {dec.render()} = {_chern_str(dec.chern(X))}" for dec in decs],
    )


_INT = {"type": int, "required": True}
_RANK, _C1, _C2, _C3 = (("--rank", _INT), ("--c1", _INT), ("--c2", _INT), ("--c3", _INT))
_RELAXED = ("--relaxed", {"action": "store_true"})
_D = ("--d", {"type": int, "choices": (3, 4, 5), "required": True, "default": None,
              "help": "degree of the ambient Fano threefold V_d"})
_FORMAT = ("--format", {"choices": ("human", "json", "csv"), "default": "human",
                        "help": "output format (default: human)"})

# name: (handler, help, flags after --d and --format), in the order of --help
_COMMANDS = {
    "chi": (_cmd_chi, "Euler characteristic chi(F(t))",
            (_RANK, _C1, _C2, _C3, ("--twist", {"type": int, "default": 0}))),
    "twist": (_cmd_twist, "Chern data of F(t)", (_RANK, _C1, _C2, _C3, ("--t", _INT))),
    "classify2": (_cmd_classify2, "rank-2 model with invariants (c1, c2)", (_C1, _C2)),
    "admissible": (_cmd_admissible, "admissible triples at one rank", (_RANK, _RELAXED)),
    "witness": (_cmd_witness, "direct-sum witness for (rank, c1)", (_RANK, _C1)),
    "census": (_cmd_census, "admissible triples for 3 <= rank <= N",
               (("--max-rank", _INT), _RELAXED)),
    "verify-table": (_cmd_verify_table, "recompute the census table rows", ()),
    "oracle": (_cmd_oracle, "brute-force decompositions for (rank, c1)",
               (_RANK, _C1, ("--bound", {"type": int, "default": ORACLE_DEFAULT_BOUND}))),
}


def _flags(name: str) -> tuple:
    """Every (flag, add_argument options) of a subcommand, shared ones first."""
    # verify-table without --d covers every d
    d = ("--d", {**_D[1], "required": False}) if name == "verify-table" else _D
    return (d, _FORMAT, *_COMMANDS[name][2])


@functools.cache
def _plain_table(name: str) -> tuple[dict, dict, frozenset]:
    """For a subcommand: flag -> (dest, switch, int, choices), the namespace
    argparse starts from (func and every default), and the required flags."""
    flags, defaults, required = {}, {"func": _COMMANDS[name][0]}, set()
    for flag, options in _flags(name):
        dest = flag[2:].replace("-", "_")
        switch = options.get("action") == "store_true"
        flags[flag] = (dest, switch, options.get("type") is int, options.get("choices"))
        defaults[dest] = options.get("default", False if switch else None)
        if options.get("required"):
            required.add(flag)
    return flags, defaults, frozenset(required)


def _plain_int(text: str) -> int | None:
    """int(text) for ASCII -?[0-9]+ within the int/str digit limit, else None."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:  # more digits than the limit
        return None


def _parse_plain(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse gives a plain argv (see the module docstring),
    or None for any other argv."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    flags, defaults, required = _plain_table(argv[0])
    values = dict(defaults)
    seen = set()
    tokens = iter(argv[1:])
    for flag in tokens:
        if flag not in flags or flag in seen:
            return None
        seen.add(flag)
        dest, switch, is_int, choices = flags[flag]
        if switch:
            values[dest] = True
            continue
        value = next(tokens, None)
        if value is not None and is_int:
            value = _plain_int(value)
        if value is None or (choices is not None and value not in choices):
            return None
        values[dest] = value
    return SimpleNamespace(**values) if required <= seen else None


@functools.cache
def _build_parser():
    """The top-level argparse parser and each subcommand's parser by name.
    Built on first need: a plain argv needs neither argparse nor a parser."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # argparse exits with status 2 on bad flags; the contract here is 1
        def error(self, message: str) -> None:  # type: ignore[override]
            raise _UsageError(message)

    parser = _Parser(
        prog="fano-acm",
        description="Exact Chern class / Riemann-Roch calculus and ACM-bundle "
        "invariant classification on V_3, V_4, V_5.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (handler, help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, options in _flags(name):
            p.add_argument(flag, **options)
        p.set_defaults(func=handler)
    return parser, sub.choices


def run(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv)
    if args is None:
        parser, commands = _build_parser()
        try:
            if argv and argv[0] in commands:
                args = commands[argv[0]].parse_args(argv[1:], SimpleNamespace())
            else:
                args = parser.parse_args(argv, SimpleNamespace())
        except _UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    X = None if args.d is None else FanoThreefold(args.d)
    # The parser refuses ints of over 4300 digits, CPython's process-wide
    # int/str limit; answers can be longer, so lift it for this call only.
    # Before 3.10.7 there is no limit, and getattr gives 0, meaning none.
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _emit(args.func(X, args), args)
    except NotAdmissible as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except InternalError as exc:  # a ValueError, but not the input's fault
        print(str(exc), file=sys.stderr)
        return 3
    except ValueError as exc:  # bad input, including the refusals of acm and catalog
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def main() -> None:
    raw = getattr(sys.stdout, "buffer", None)
    if isinstance(raw, io.RawIOBase):
        # Unbuffered stdout (python -u, PYTHONUNBUFFERED): the text layer
        # drops the rest of a short raw write, which is what a pipe closed
        # mid-write returns.  A BufferedWriter retries it, so the closed
        # pipe raises BrokenPipeError below instead of cutting the output
        # short with exit 0.  Every CLI write holds a newline, so line
        # buffering still passes each write on at once.
        out = sys.stdout
        sys.stdout = io.TextIOWrapper(
            io.BufferedWriter(raw), encoding=out.encoding, errors=out.errors,
            line_buffering=True,
        )
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`| head`): exit quietly with 1, as an
        # uncaught error does; devnull keeps the flush at exit from raising.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)

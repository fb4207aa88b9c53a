"""Command-line front end.

Every subcommand reads its inputs from flags and writes its result to
stdout (diagnostics to stderr) as human text (default), json or csv.  Output
is deterministic: identical invocations produce byte-identical output, so
json and csv are safe for golden files.  json output is json.dumps(payload,
indent=2) byte for byte, and csv output is what csv.writer writes with
lineterminator="\\n".

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

run() may be called any number of times in one process, and every call acts
as in a fresh process.  The README describes the output path, the json
templates and the argv parsing.
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
    AdmissibleTriple, NotAdmissible, ORACLE_DEFAULT_BOUND, _CHECK_NAMES, _admissible_rows,
    enumerate_admissible, oracle_enumerate, validate_witness, witness,
)
from .catalog import (
    TABLE_EXPORT_COLUMNS, _VARIETIES, Decomposition, _checked_rows, table_export_rows,
)
from .chow import ChernData, FanoThreefold, InternalError, chi_twist, format_rational, twist
from .rank2 import NoACMBundle, SplitLineBundles, TwistOf, classify_rank2

__all__ = ["run", "main"]


class _UsageError(Exception):
    pass


def _chern_str(c: ChernData) -> str:
    return f"(rank={c.rank}, c1={c.c1}, c2={c.c2}, c3={c.c3})"


_INDENT = "  "
_JSON_BOOL = ("false", "true")


@functools.cache
def _json_template(keys: tuple[str, ...], depth: int, **texts: str) -> str:
    """The "%" template of json.dumps(indent=2) of a dict with these ASCII
    identifier keys, nested depth levels deep.  Each value is "%s", for the
    value's json text, or its entry in texts: a nested template, or a fixed
    json text with any "%" doubled."""
    inner = "\n" + (depth + 1) * _INDENT
    items = [f'{inner}"{key}": {texts.get(key, "%s")}' for key in keys]
    return "{" + ",".join(items) + "\n" + depth * _INDENT + "}"


@functools.cache
def _json_quote():
    """json's quoting of a str, the C function json.dumps uses; imported on
    first use, so that only a json answer imports json."""
    from json.encoder import encode_basestring_ascii
    return encode_basestring_ascii


def _csv_quote(field: str) -> str:
    """The field as csv.writer writes it (QUOTE_MINIMAL, lineterminator
    "\\n") in a row of more than one field: between double quotes, with any
    inner one doubled, when it holds a comma, a double quote or a newline."""
    if "," in field or '"' in field or "\n" in field:
        return '"' + field.replace('"', '""') + '"'
    return field


def _blocks_json(dec: Decomposition, depth: int) -> str:
    """json.dumps(dec.to_json(), indent=2) as it reads nested depth levels
    deep.  Each distinct block's text is one "%" fill, multiplied by the
    block's count, so a run of copies costs one copy per byte."""
    if not dec.counts:
        return "[]"
    # ',' then the block's dict; a family name is an ASCII identifier
    block = ",\n" + (depth + 1) * _INDENT + _json_template(
        ("family", "twist"), depth + 1, family='"%s"'
    )
    (first, k), *rest = dec.counts
    text = block % (first.family.name, first.twist)
    return "".join([
        "[", text[1:], text * (k - 1),
        *[(block % (b.family.name, b.twist)) * k for b, k in rest],
        "\n", depth * _INDENT, "]",
    ])


class _Result(namedtuple("_Result", "json csv human note rows", defaults=(None, None))):
    """A handler's answer, with one maker per output format: json() and
    csv() give the output text, human() at least one line.
    A note is a negative answer, for stderr, and means exit 2.  rows(format),
    if given, yields rendered rows from "%" templates, none for a format
    whose maker renders them, and _emit writes them after the text, or
    into the json text's last value, an empty list."""

    __slots__ = ()


_CHUNK_ROWS = 4096


def _emit(result: _Result, args: SimpleNamespace) -> int:
    """Write result in the format asked, in one write or one per chunk of
    rows, and return the exit code.  A row iterator refuses before its first
    row, so before anything is written."""
    fmt = args.format
    if fmt == "human":
        text = "\n".join(result.human()) + "\n"
    else:  # the json or csv text
        text = getattr(result, fmt)()
    write = sys.stdout.write
    if result.rows is not None:
        rendered = result.rows(fmt)
        if fmt == "json":  # the text ends '[]\n}\n'; the rows go in the brackets
            head, sep, tail = text[:-4] + "\n    ", ",\n    ", "\n  ]\n}\n"
        else:
            head, sep, tail = text, "", ""
        # a rendered row is never empty, so an empty chunk means no rows left
        if chunk := sep.join(islice(rendered, _CHUNK_ROWS)):
            text = head + chunk
            while chunk := sep.join(islice(rendered, _CHUNK_ROWS)):
                write(text)
                text = sep + chunk
            text += tail
    write(text)
    if result.note is None:
        return 0
    print(result.note, file=sys.stderr)
    return 2


# json answers, one template each (per verdict class for classify2); a
# row's json template reads two levels deep, and _emit indents its first line
def _json_answer(keys: tuple[str, ...], **texts: str) -> str:
    return _json_template(keys, 0, **texts) + "\n"


_CHERN_JSON = _json_template(("rank", "c1", "c2", "c3"), 1)
_CHI_JSON = _json_answer(("d", "chern", "twist", "chi"), chern=_CHERN_JSON)
_TWIST_JSON = _json_answer(("d", "chern", "t", "result"), chern=_CHERN_JSON, result=_CHERN_JSON)
# each verdict class with the keys of its to_json()
_VERDICT_KEYS = ((TwistOf, ("kind", "twist")), (SplitLineBundles, ("kind", "a", "b")),
                 (NoACMBundle, ("kind",)))
_CLASSIFY2_JSON = {
    verdict: _json_answer(
        ("d", "c1", "c2", "verdict"), verdict=_json_template(keys, 1, kind='"%s"')
    )
    for verdict, keys in _VERDICT_KEYS
}
# the five checks' names are fixed; each check fills its passed and detail
_CHECKS_JSON = "[" + ",".join(
    "\n" + 3 * _INDENT
    + _json_template(("name", "passed", "detail"), 3, name=f'"{name}"')
    for name in _CHECK_NAMES
) + "\n" + 2 * _INDENT + "]"
_WITNESS_JSON = _json_answer(
    ("d", "rank", "c1", "decomposition", "rendered", "chern", "validation"),
    chern=_CHERN_JSON, validation=_json_template(("ok", "checks"), 1, checks=_CHECKS_JSON),
)
_ADMISSIBLE_JSON = _json_answer(("d", "rank", "relaxed", "triples"), triples="[]")
_CENSUS_JSON = _json_answer(("d", "max_rank", "relaxed", "triples"), triples="[]")
_TABLE_JSON = _json_answer(("rows",), rows="[]")
_ORACLE_JSON = _json_answer(("d", "rank", "c1", "decompositions"), decompositions="[]")


def _csv_header(columns: tuple[str, ...]) -> str:
    return ",".join(columns) + "\n"


def _csv_row(columns: tuple[str, ...], **texts: str) -> str:
    """The "%" template of a csv row of these columns.  Each value is "%s",
    for the value's csv text, or its entry in texts, a fixed text with any
    "%" doubled."""
    return ",".join([texts.get(column, "%s") for column in columns]) + "\n"


# csv answers: a header and one row template each (per verdict class for
# classify2).  Only a rendered decomposition or a d_set can hold a comma,
# so only they go through _csv_quote; ints, bools, "p/q" and the verdict
# kinds are written as they are.
def _csv_answer(columns: tuple[str, ...], **texts: str) -> str:
    return _csv_header(columns) + _csv_row(columns, **texts)


_CHI_CSV = _csv_answer(("d", "rank", "c1", "c2", "c3", "twist", "chi"))
_TWIST_CSV = _csv_answer(
    ("d", "rank", "c1", "c2", "c3", "t", "rank_out", "c1_out", "c2_out", "c3_out")
)
_CLASSIFY2_CSV = {
    verdict: _csv_answer(
        ("d", "c1", "c2", "kind", "twist", "a", "b"),
        **dict.fromkeys({"twist", "a", "b"}.difference(keys), ""),
    )
    for verdict, keys in _VERDICT_KEYS
}
_WITNESS_CSV = _csv_answer(("d", "rank", "c1", "decomposition", "c2", "c3", "valid"))
_ORACLE_CSV_COLUMNS = ("d", "rank", "c1", "decomposition", "c2", "c3")
_ORACLE_CSV_ROW = _csv_row(_ORACLE_CSV_COLUMNS)
_TABLE_CSV_ROW = _csv_row(TABLE_EXPORT_COLUMNS)

_TRIPLE_HEADER = AdmissibleTriple._fields
_EXISTENCE = (("False", "unknown"), ("True", "witnessed"))

# Row templates per format for a row of AdmissibleTriple's fields; "%.0s"
# drops a value, and csv and human need no quoting.
# A census row adds its strict and existence values: (not strict, strict).
_TRIPLE_ROW = {
    "json": _json_template(_TRIPLE_HEADER, 2),
    "csv": _csv_row(_TRIPLE_HEADER),
    "human": "%.0s%.0s  c1=%s: c2=%s, c3=%s, curve degree %s, genus %s\n",
}
_CENSUS_HEADER = _TRIPLE_HEADER + ("strict", "existence")
_CENSUS_ROW = {
    "json": tuple(
        _json_template(_CENSUS_HEADER, 2, strict=strict.lower(), existence=f'"{existence}"')
        for strict, existence in _EXISTENCE
    ),
    "csv": tuple(
        _csv_row(_CENSUS_HEADER, strict=strict, existence=existence)
        for strict, existence in _EXISTENCE
    ),
    "human": tuple(
        f"%.0s  r=%s c1=%s: c2=%s, c3=%s, degree %s, genus %s [{existence}]\n"
        for _, existence in _EXISTENCE
    ),
}

# verify-table json rows, numeric (--d given) and symbolic: only the
# decomposition needs json's quoting; the other strings hold only digits,
# commas, letters, "+" and "-"
_TABLE_QUOTED = ("d_set", "status")
_TABLE_ROW_JSON = tuple(
    _json_template(TABLE_EXPORT_COLUMNS, 2, **dict.fromkeys(quoted, '"%s"'))
    for quoted in (_TABLE_QUOTED, _TABLE_QUOTED + TABLE_EXPORT_COLUMNS[3:7])
)
_ORACLE_ROW_JSON = _json_template(("blocks", "rendered"), 2)


def _json_only(json_rows):
    """rows for a _Result whose csv and human makers render every row."""
    return lambda fmt: json_rows() if fmt == "json" else ()


def _cmd_chi(X: FanoThreefold, args: SimpleNamespace) -> _Result:
    c = ChernData(args.rank, args.c1, args.c2, args.c3)
    value = chi_twist(c, X, args.twist)
    # a non-integral chi is the string "p/q", which json quotes as it is
    return _Result(
        lambda: _CHI_JSON % (
            X.d, *c.tuple(), args.twist,
            value.numerator if value.denominator == 1 else f'"{format_rational(value)}"',
        ),
        lambda: _CHI_CSV % (X.d, *c.tuple(), args.twist, format_rational(value)),
        lambda: [f"{X}: F = {_chern_str(c)}",
                 f"chi(F({args.twist})) = {format_rational(value)}"],
    )


def _cmd_twist(X: FanoThreefold, args: SimpleNamespace) -> _Result:
    c = ChernData(args.rank, args.c1, args.c2, args.c3)
    out = twist(c, X, args.t)
    return _Result(
        lambda: _TWIST_JSON % (X.d, *c.tuple(), args.t, *out.tuple()),
        lambda: _TWIST_CSV % (X.d, *c.tuple(), args.t, *out.tuple()),
        lambda: [f"{X}: F = {_chern_str(c)}", f"F({args.t}) = {_chern_str(out)}"],
    )


def _cmd_classify2(X: FanoThreefold, args: SimpleNamespace) -> _Result:
    verdict = classify_rank2(X, args.c1, args.c2)

    def values():
        return (X.d, args.c1, args.c2, *verdict.to_json().values())

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
    # a verdict's kind is an ASCII identifier, which json quotes as it is
    return _Result(
        lambda: _CLASSIFY2_JSON[type(verdict)] % values(),
        lambda: _CLASSIFY2_CSV[type(verdict)] % values(),
        human, note,
    )


def _cmd_admissible(X: FanoThreefold, args: SimpleNamespace) -> _Result:
    triples = enumerate_admissible(X, args.rank, relaxed=args.relaxed)
    mode = "relaxed" if args.relaxed else "strict"
    return _Result(
        lambda: _ADMISSIBLE_JSON % (X.d, args.rank, _JSON_BOOL[args.relaxed]),
        lambda: _csv_header(_TRIPLE_HEADER),
        lambda: [f"{X}: rank {args.rank}, {mode} admissible c1 values: {len(triples)}"],
        rows=lambda fmt: map(_TRIPLE_ROW[fmt].__mod__, triples),
    )


def _cmd_witness(X: FanoThreefold, args: SimpleNamespace) -> _Result:
    dec = witness(X, args.rank, args.c1)  # NotAdmissible -> exit 2 in run()
    report = validate_witness(X, dec, args.rank, args.c1)
    total = report.total

    def checks():
        # each check's name, verdict and detail, without building Check records
        return zip(_CHECK_NAMES, report.verdicts, report._details())

    def json():
        quote = _json_quote()
        return _WITNESS_JSON % (
            X.d, args.rank, args.c1, _blocks_json(dec, 1), quote(dec.render()),
            *total.tuple(), _JSON_BOOL[report.ok],
            *chain.from_iterable(
                (_JSON_BOOL[passed], quote(detail)) for _, passed, detail in checks()
            ),
        )

    return _Result(
        json,
        lambda: _WITNESS_CSV % (
            X.d, args.rank, args.c1, _csv_quote(dec.render()), total.c2, total.c3, report.ok
        ),
        lambda: [f"{X}: rank {args.rank}, c1={args.c1}",
                 f"witness: {dec.render()} = {_chern_str(total)}"] + [
            f"  [{'ok' if passed else 'FAIL'}] {name}: {detail}"
            for name, passed, detail in checks()
        ],
    )


def _cmd_census(X: FanoThreefold, args: SimpleNamespace) -> _Result:
    d = X.d
    rows = _admissible_rows(X, range(3, args.max_rank + 1), args.relaxed)

    def rendered(fmt: str):
        templates = _CENSUS_ROW[fmt]
        # strict: _lowest_c1(d, r, False) <= c1, cross-multiplied
        return (templates[d * row[2] >= row[1]] % row for row in rows)

    return _Result(
        lambda: _CENSUS_JSON % (d, args.max_rank, _JSON_BOOL[args.relaxed]),
        lambda: _csv_header(_CENSUS_HEADER),
        lambda: [f"{X}: admissible triples for 3 <= rank <= {args.max_rank}"],
        rows=rendered,
    )


def _cmd_verify_table(X: FanoThreefold | None, args: SimpleNamespace) -> _Result:
    def csv():
        lines = [_csv_header(TABLE_EXPORT_COLUMNS)]
        for row in table_export_rows(X):
            d_set, *middle, decomposition, status = row.values()
            lines.append(_TABLE_CSV_ROW % (
                _csv_quote(d_set), *middle, _csv_quote(decomposition), status
            ))
        return "".join(lines)

    def human():
        lines = []
        for V in _VARIETIES if X is None else (X,):
            rows = _checked_rows(V)
            flagged = sum(disc is not None for _, _, disc in rows)
            lines.append(
                f"{V}: {len(rows)} applicable rows, "
                f"{len(rows) - flagged} match, {flagged} mismatch"
            )
            for export, total, disc in rows:
                lines.append(
                    f"  [ok] rank {export['rank']}, c1={export['c1']}: "
                    f"(c2,c3)=({total.c2},{total.c3}), {export['decomposition']}"
                    if disc is None else
                    f"  [MISMATCH] rank {disc.rank}, c1={disc.c1}: printed "
                    f"(c2,c3)=({disc.printed_c2},{disc.printed_c3}), computed "
                    f"({disc.computed_c2},{disc.computed_c3}), forced "
                    f"({disc.forced_c2},{disc.forced_c3}), {export['decomposition']}"
                )
        return lines

    def json_rows():
        template, quote = _TABLE_ROW_JSON[X is None], _json_quote()
        for row in table_export_rows(X):
            *head, decomposition, status = row.values()
            yield template % (*head, quote(decomposition), status)

    return _Result(lambda: _TABLE_JSON, csv, human, rows=_json_only(json_rows))


def _cmd_oracle(X: FanoThreefold, args: SimpleNamespace) -> _Result:
    decs = oracle_enumerate(X, args.rank, args.c1, bound=args.bound)

    def json_rows():
        quote = _json_quote()
        return (_ORACLE_ROW_JSON % (_blocks_json(dec, 3), quote(dec.render())) for dec in decs)

    def csv():
        return _csv_header(_ORACLE_CSV_COLUMNS) + "".join([
            _ORACLE_CSV_ROW % (X.d, args.rank, args.c1, _csv_quote(dec.render()), c.c2, c.c3)
            for dec in decs for c in (dec.chern(X),)
        ])

    return _Result(
        lambda: _ORACLE_JSON % (X.d, args.rank, args.c1),
        csv,
        lambda: [f"{X}: rank {args.rank}, c1={args.c1}: {len(decs)} decomposition(s)"]
        + [f"  {dec.render()} = {_chern_str(dec.chern(X))}" for dec in decs],
        rows=_json_only(json_rows),
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
    """The namespace argparse gives a plain argv, or None for any other.  A
    plain argv, which argparse reads one way only, is a subcommand, then
    each of its flags at most once and spelled out in full, a switch alone
    and any other flag followed by its value (an int as ASCII digits with an
    optional "-", within the int/str digit limit; a value with choices one
    of them), with every required flag present."""
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
    """The argparse parser of every argv that is not plain.  Built on first
    need: a plain argv needs neither argparse nor a parser."""
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
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv, SimpleNamespace())
        except _UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    # the parser has checked d
    X = None if args.d is None else _VARIETIES[args.d - 3]
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

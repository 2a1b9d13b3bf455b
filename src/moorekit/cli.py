"""Batch command-line front end.

Usage: moorekit [GLOBAL OPTIONS] COMMAND [ARGUMENTS]; global options come
before the command, the command's options anywhere after it, and
`moorekit --help` lists every command with its arguments and options.

Reads one JSON document (--input FILE, '-' for stdin) or the built-in
corpus (default, per characteristic from --char), dispatches checks and
constructors, and streams line-delimited JSON records followed by one
summary record.  A named command on the built-in corpus builds only the
entries of that name, or of the entry owning a carrier name such as
ideal-pair.E0, and runs on the objects the builders made, under the names
the `corpus` document gives them; `corpus` builds them all and prints
that document.  Exit codes: 0 all pass
(hypothesis-gated reports count as pass), 1 at least one check failed,
2 audit discrepancies only, 64 usage, 65 parse or name-resolution error,
141 (128 + SIGPIPE, as a shell reports it) when the reader of stdout goes
away, as in `moorekit corpus | head -c 10`: the rest is dropped silently.
"""

from __future__ import annotations

import json
import os
import re
import sys
from dataclasses import replace
from types import SimpleNamespace
from typing import NamedTuple

from .coeff import PreconditionError, PrimeField, Supply, validate_algebra
from .crossed import verify_2cm, verify_3cm, verify_cm
from .document import (Document, DocumentBuilder, DocumentError, corpus_builder, corpus_document,
                       load_document)
from .functors import DEF1, PROP3, hypercrossed, roundtrip_check, table_identities_check
from .lie import verify_lie_3cm
from .moore import (lemma7_check, moore, p_set, s_set, table1_audit,
                    theorem5_check)
from .report import (DISCREPANT, FAIL, HYPOTHESIS_FAILED, PASS, CheckRecord,
                     worst_exit_code)
from .simplicial import validate_simplicial

USAGE_EXIT = 64
PARSE_EXIT = 65
BROKEN_PIPE_EXIT = 141

# axiom names whose failure on a paper construction is an audit finding,
# not an artifact failure (everything structural stays a hard failure)
_INVARIANT_PREFIXES = ("complex-", "d3-multiplicative", "d2-multiplicative",
                       "d1-multiplicative", "action-", "table3[", "table4[")


def nonnegative(text: str) -> int:
    n = int(text)
    if n < 0:
        raise ValueError(f"{n} is negative")
    return n


SSET_MAX = 16  # `sset n` builds its 2^n indices before it prints one


def sset_level(text: str) -> int:
    """The n of `sset n`, from 0 to SSET_MAX."""
    n = nonnegative(text)
    if n > SSET_MAX:
        raise ValueError(f"{n} is above {SSET_MAX}")
    return n


def positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise ValueError(f"{n} is below 1")
    return n


def primes(text: str) -> tuple[int, ...]:
    """The comma-separated primes of --char: every item a prime, none twice."""
    try:
        ps = tuple(PrimeField(int(c)).p for c in text.split(","))
    except ValueError as exc:
        raise ValueError(f"{text}: {exc}") from None
    if len(set(ps)) < len(ps):
        raise ValueError(f"{text}: a prime is repeated")
    return ps


class Command(NamedTuple):
    """One command's arguments.  A positional is (attribute, spec), an option
    "--name" maps to (spec, default); a spec is a converter, a tuple of
    choices read with the type of its first item, or None for a flag."""
    positionals: tuple = ()
    options: dict = {}
    kinds: tuple = ()  # the object kinds a named command takes, the first looked up first


GLOBAL_OPTIONS = {
    "--input": (str, None),  # JSON document, '-' for stdin (default: built-in corpus)
    "--seed": (int, 0),  # --seed, --budget, --exhaustive-bound: the element supply of table1
    "--budget": (positive, 256),
    "--exhaustive-bound": (int, 4096),
    "--char": (primes, (2,)),  # comma-separated characteristics for the built-in corpus
    "--human": (None, False),  # render text instead of JSON
}
_NAME = ("name", str)
_CONVENTION = {"--convention": ((PROP3, DEF1), PROP3)}
_SIMPLICIAL = ("simplicial",)
COMMANDS = {
    "validate": Command((_NAME,), kinds=("algebra", "lie-algebra", "simplicial")),
    "moore": Command((_NAME,), kinds=_SIMPLICIAL),
    "table1": Command((_NAME,), kinds=_SIMPLICIAL),
    "lemma7": Command((_NAME,), kinds=_SIMPLICIAL),
    "theorem5": Command((_NAME,), {"--level": ((2, 3, 4), None)}, _SIMPLICIAL),
    "to-xmod": Command((_NAME,), kinds=_SIMPLICIAL),
    "to-2xmod": Command((_NAME,), _CONVENTION, _SIMPLICIAL),
    "to-3xmod": Command((_NAME,), _CONVENTION, _SIMPLICIAL),
    "tables": Command((("table", (2, 3, 4)), _NAME), _CONVENTION, _SIMPLICIAL),
    "verify-xmod": Command((_NAME,), kinds=("crossed",)),
    "verify-2xmod": Command((_NAME,), kinds=("two-crossed",)),
    "verify-3xmod": Command((_NAME,), kinds=("three-crossed",)),
    "lie-verify": Command((_NAME,), kinds=("lie-three-crossed", "lie-algebra")),
    "sset": Command((("n", sset_level),)),
    "pset": Command((("n", (2, 3, 4)),)),
    "pairings": Command(),
    "roundtrip": Command(options={"--level": (("1", "2", "both"), "both")}),
    "corpus": Command(),
}
_NUMBER = re.compile(r"-\d+|-\d*\.\d+")  # a value, not an option, as `sset -1` needs


class UsageError(Exception):
    """A command line outside GLOBAL_OPTIONS and COMMANDS; main exits 64."""

    def __init__(self, name: str, reason: str):
        super().__init__(f"argument {name}: {reason}")


class HelpRequested(Exception):
    """-h or --help; main prints the usage and exits 0."""


def parse_args(argv=None) -> SimpleNamespace:
    """The attributes of a command line (sys.argv[1:] by default): every
    global option and the command's options at their defaults unless given
    (the last repeat wins), `command`, and the command's positionals.
    Options take `--opt value`, `--opt=value` and unique prefixes."""
    args = SimpleNamespace(**{_dest(o): d for o, (_, d) in GLOBAL_OPTIONS.items()})
    options, positionals = GLOBAL_OPTIONS, None
    tokens = iter(sys.argv[1:] if argv is None else argv)
    for token in tokens:
        if not _is_option(token):
            if positionals is None:
                if token not in COMMANDS:
                    raise UsageError("command", f"invalid choice: {token!r}")
                args.command = token
                options, positionals = COMMANDS[token].options, list(COMMANDS[token].positionals)
                vars(args).update({_dest(o): d for o, (_, d) in options.items()})
            elif not positionals:
                raise UsageError(repr(token), "unexpected")
            else:
                name, spec = positionals.pop(0)
                setattr(args, name, _convert(name, spec, token))
            continue
        opt, eq, value = token.partition("=")
        opt = _resolve(opt, options)
        spec = options[opt][0]
        if spec is None:
            if eq:
                raise UsageError(opt, "takes no value")
            value = True
        else:
            if not eq:
                value = next(tokens, None)
                if value is None or _is_option(value):
                    raise UsageError(opt, "expected one value")
            value = _convert(opt, spec, value)
        setattr(args, _dest(opt), value)
    if positionals is None or positionals:
        raise UsageError(positionals[0][0] if positionals else "command", "missing")
    return args


def make_parser() -> SimpleNamespace:
    """An object whose parse_args(argv) is this module's parse_args; the
    benchmark's tests (bench/tests/test_checker.py) build their argv with it."""
    return SimpleNamespace(parse_args=parse_args)


def _dest(option: str) -> str:
    return option[2:].replace("-", "_")


def _is_option(token: str) -> bool:
    return token.startswith("-") and token != "-" and not _NUMBER.fullmatch(token)


def _resolve(opt: str, options: dict) -> str:
    """The option of options, or --help, that opt names exactly or by a unique prefix."""
    names = [*options, "--help"]
    hits = [n for n in names if n.startswith(opt)] if opt.startswith("--") and len(opt) > 2 else []
    if opt in hits:
        hits = [opt]
    if opt == "-h" or hits == ["--help"]:
        raise HelpRequested
    if len(hits) != 1:
        raise UsageError(opt, f"ambiguous option, could match {', '.join(hits)}" if hits
                         else "unknown option")
    return hits[0]


def _convert(name: str, spec, text: str):
    try:
        if not isinstance(spec, tuple):
            return spec(text)
        value = type(spec[0])(text)
    except ValueError as exc:
        raise UsageError(name, str(exc)) from None
    if value not in spec:
        raise UsageError(name, f"invalid choice: {value!r} (choose from "
                               f"{', '.join(map(repr, spec))})")
    return value


def usage() -> str:
    """The global options and every command's arguments and options, from the tables."""
    def option(opt, spec):
        return f"[{opt}]" if spec is None else f"[{opt} {_metavar(_dest(opt), spec)}]"

    lines = [" ".join(["usage: moorekit", *(option(o, s) for o, (s, _) in GLOBAL_OPTIONS.items()),
                       "COMMAND ..."]), "commands:"]
    for command, (positionals, options, _) in COMMANDS.items():
        lines.append(" ".join(["  " + command, *(_metavar(n, s) for n, s in positionals),
                               *(option(o, s) for o, (s, _) in options.items())]))
    return "\n".join(lines)


def _metavar(name: str, spec) -> str:
    return "{" + ",".join(map(str, spec)) + "}" if isinstance(spec, tuple) else name.upper()


def _documents(args) -> list[tuple[str, Document]]:
    """(label, document) pairs: the input file once, or the corpus per char,
    holding only the entries named args.name or owning it as a carrier, as
    the objects its builders made (DocumentBuilder.document)."""
    if args.input:
        return [("", load_document(_read_input(args.input)))]
    names = {args.name, args.name.split(".", 1)[0]}
    return [(f"@p={p}" if len(args.char) > 1 else "", corpus_builder(p, names).document())
            for p in args.char]


def _read_input(path: str) -> str:
    """The UTF-8 text of the file at path, or of stdin for '-'."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        # undecodable stdin bytes arrive as lone surrogates, which UTF-8 rejects
        text.encode("utf-8")
    except (OSError, UnicodeError) as exc:
        raise DocumentError(str(exc), "input") from None
    return text


def _tag(records, label):
    if not label:
        return list(records)
    return [CheckRecord(r.check + label, r.status, r.witnesses, r.detail)
            for r in records]


def _axiom_records(report, title, audit=False):
    """The report's records under `title`; with `audit`, a failing axiom
    outside _INVARIANT_PREFIXES is a discrepancy."""
    records = replace(report, title=title).records()
    if not audit:
        return records
    return [replace(r, status=DISCREPANT)
            if r.status == FAIL and not e.name.startswith(_INVARIANT_PREFIXES) else r
            for r, e in zip(records, report.entries)]


def _listing_record(kind, n, items) -> CheckRecord:
    return CheckRecord(f"{kind}[{n}]", PASS, detail={"elements": items})


def run_command(args, out) -> int:
    records: list[CheckRecord] = []
    extra_lines: list[str] = []

    if args.command == "sset":
        records.append(_listing_record("sset", args.n, [str(a) for a in s_set(args.n)]))
    elif args.command == "pset":
        records.append(_listing_record("pset", args.n, [str(q) for q in p_set(args.n)]))
    elif args.command == "pairings":
        for n in (2, 3, 4):
            items = [{"alpha": str(q.alpha), "beta": str(q.beta),
                      "x_in": f"NE{n - q.alpha.size}", "y_in": f"NE{n - q.beta.size}"}
                     for q in p_set(n)]
            records.append(_listing_record("pairings", n, items))
    elif args.command == "corpus":
        for p in args.char:
            extra_lines.append(corpus_document(p))
    elif args.command == "roundtrip":
        levels = (1, 2) if args.level == "both" else (int(args.level),)
        for p in args.char:
            recs = [r for lv in levels for r in roundtrip_check(lv, p)]
            records.extend(_tag(recs, f"@p={p}" if len(args.char) > 1 else ""))
    else:
        for label, doc in _documents(args):
            records.extend(_tag(_run_named(args, doc, extra_lines), label))

    for line in extra_lines:
        out.write(line + "\n")
    for r in records:
        out.write(_render(r, args.human) + "\n")
    code = worst_exit_code(records)
    summary = CheckRecord("summary", {0: PASS, 1: FAIL, 2: DISCREPANT}[code],
                          detail={"records": len(records), "exit": code})
    if args.command != "corpus":
        out.write(_render(summary, args.human) + "\n")
    out.flush()  # a closed pipe shows here, not when the interpreter exits
    return code


# what a name of another kind is not, for the commands taking several kinds
_NOT_KIND = {"validate": "validatable directly", "lie-verify": "Lie data"}


def _run_named(args, doc: Document, extra_lines: list) -> list[CheckRecord]:
    """The records of a command on one named object.  When the object
    fails the hypothesis of a construction (PreconditionError), the
    command answers with one hypothesis-failed record and emits no
    document."""
    command, name = args.command, args.name
    kinds = COMMANDS[command].kinds
    kind, obj = doc.lookup(name, prefer=kinds[0])
    if kind not in kinds:
        is_a = f"{name!r} is {'an' if kind[0] in 'aeiou' else 'a'} {kind}"
        if command in _NOT_KIND:
            raise DocumentError(f"{is_a}, not {_NOT_KIND[command]}", command)
        raise DocumentError(f"{is_a}, expected {kinds[0]}", "cli")
    emitted: list[str] = []
    try:
        records = _named_records(args, kind, obj, emitted)
    except PreconditionError as exc:
        return [CheckRecord(f"{command}[{name}]", HYPOTHESIS_FAILED,
                            detail={"reason": str(exc)})]
    extra_lines.extend(emitted)
    return records


def _named_records(args, kind, obj, extra_lines: list) -> list[CheckRecord]:
    """The records of a command on an object of a kind it takes."""
    command, name = args.command, args.name
    records: list[CheckRecord] = []

    if command == "validate" or kind == "lie-algebra":
        # read per call, so a validator wrapped in this module's namespace is the one run
        validate = {"algebra": validate_algebra, "lie-algebra": validate_algebra,
                    "simplicial": validate_simplicial}[kind]
        bad = validate(obj)
        records.append(CheckRecord(f"{command}[{name}]", PASS if not bad else FAIL,
                                   witnesses=tuple(str(v) for v in bad[:5])))
    elif command == "moore":
        try:
            mc = moore(obj)
            records.append(CheckRecord(f"moore[{name}]", PASS,
                                       detail={"dims": [A.dim for A in mc.algebras],
                                               "length": mc.length()}))
        except PreconditionError as exc:
            records.append(CheckRecord(f"moore[{name}]", FAIL, detail={"error": str(exc)}))
    elif command == "table1":
        records.extend(table1_audit(obj, Supply(args.seed, args.budget, args.exhaustive_bound)))
    elif command == "lemma7":
        records.extend(lemma7_check(obj))
    elif command == "theorem5":
        levels = (args.level,) if args.level else (2, 3, 4)
        for n in levels:
            records.append(theorem5_check(obj, n))
    elif command == "to-xmod":
        cm, prov = hypercrossed(obj, 1)
        R, C = cm.levels
        _emit(extra_lines, cm, f"{name}-xmod", "crossed_modules")
        records.append(CheckRecord(f"to-xmod[{name}]", PASS, detail={
            "C_dim": C.dim, "R_dim": R.dim, **prov}))
    elif command == "to-2xmod":
        t = hypercrossed(obj, 2, args.convention)[0]
        _emit(extra_lines, t, f"{name}-2xmod", "two_crossed_modules")
        records.append(CheckRecord(f"to-2xmod[{name}]", PASS,
                                   detail={"dims": [A.dim for A in reversed(t.levels)]}))
    elif command == "to-3xmod":
        m, prov = hypercrossed(obj, 3, args.convention)
        _emit(extra_lines, m, f"{name}-3xmod", "three_crossed_modules")
        records.append(CheckRecord(f"to-3xmod[{name}]", PASS, detail={
            "source": obj.name, "convention": args.convention, **prov}))
        records.extend(_axiom_records(verify_3cm(m), f"to-3xmod[{name}]", audit=True))
    elif command.startswith("verify-"):
        # read per call, so a verifier wrapped in this module's namespace is the one run
        verify = {"verify-xmod": verify_cm, "verify-2xmod": verify_2cm,
                  "verify-3xmod": verify_3cm}[command]
        records.extend(_axiom_records(verify(obj), f"{command}[{name}]"))
    elif command == "tables":
        records.extend(table_identities_check(obj, args.table, args.convention))
    else:  # lie-verify on a Lie 3-crossed module
        records.extend(_axiom_records(verify_lie_3cm(obj), f"lie-verify[{name}]"))
    return records


def _emit(extra_lines: list, m, name: str, section: str) -> None:
    """Append the one-structure document holding m under `name` in `section`."""
    b = DocumentBuilder()
    b.crossed(m, name, section)
    extra_lines.append(b.dumps())


def _render(r: CheckRecord, human: bool) -> str:
    if not human:
        return r.json_line()
    parts = [f"{r.status:<18} {r.check}"]
    if r.detail:
        parts.append(" " + json.dumps(r.detail, sort_keys=True, default=str))
    if r.witnesses:
        parts.append(" witness=" + json.dumps(list(r.witnesses)[:1], default=str))
    return "".join(parts)


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
    except HelpRequested:
        print(usage() + "\n\n" + __doc__, end="")
        return 0
    except UsageError as exc:
        print(f"moorekit: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    try:
        return run_command(args, sys.stdout)
    except DocumentError as exc:
        print(json.dumps({"check": "document", "status": "error",
                          "detail": str(exc)}), file=sys.stderr)
        return PARSE_EXIT
    except BrokenPipeError:  # what is still buffered would go to the closed pipe at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE_EXIT


if __name__ == "__main__":
    sys.exit(main())

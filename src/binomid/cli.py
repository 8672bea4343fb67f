"""Command-line surface: sequence-spec parsing, file ingestion, output
formatting, and the subcommands that bind the library together.

Exit codes: 0 when the command succeeds (and every requested check holds),
1 when a classification or verification fails (the witness is printed),
2 on usage, parse, or input errors (a spec nested deeper than 100
combinator levels is a parse error), 3 when an internal cross-check fails,
which only an arithmetic bug can cause, and 141 when the reader closes
stdout before the output ends (nothing goes to stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path
from typing import TYPE_CHECKING

from .core import _rows, _slice_bases, _triangle_terms, col_seq, row_seq
from .errors import (InternalCheckError, NonIntegralEntryError,
                     UndefinedTermError, ZeroTermError)
from .sequences import (Sequence, compose_power, const_seq, divisor_product_of,
                        double_terms, factorial_seq, fibonacci, from_list,
                        g_ab, h_m, identity_seq, interleave_ones, lucas,
                        pascal_column, pascal_row, power_seq, prepend_one,
                        product, scalar, triangular_seq)

if TYPE_CHECKING:  # the subcommands that use these import them when they run
    from . import classify as cls
    from . import verify as ver

__all__ = ["SeqSpec", "SpecParseError", "ingest_bfile", "main", "parse_seqspec"]


class SpecParseError(ValueError):
    """Syntax error in a sequence expression, with a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


_MAX_NESTING = 100  # combinator levels in one spec; an atom counts 0

# name -> (argument kinds, builder). A kind with a "spec" argument is a
# combinator written name(args), a kind without arguments is a bare atom,
# and every other kind is an atom written name:args. "ints" is a greedy
# list of integers. A builder takes the arguments in order, with every spec
# already built, and looks traced functions up only when it is called.
# bfile has no builder: it needs the offset, so SeqSpec.build handles it.
_KINDS = {
    "I": ((), identity_seq),
    "fact": ((), factorial_seq),
    "T": ((), triangular_seq),
    "fib": ((), fibonacci),
    "const": (("int",), const_seq),
    "cpow": (("int",), power_seq),
    "gq": (("int",), lambda q: g_ab(q, 1)),
    "gab": (("int", "int"), g_ab),
    "lucas": (("int", "int"), lucas),
    "pcol": (("uint",), pascal_column),
    "prow": (("uint",), pascal_row),
    "hm": (("uint",), h_m),
    "list": (("ints",), lambda *values: from_list(list(values))),
    "file": (("path",), lambda path: _ingest_plain_file(path)),
    "bfile": (("path",), None),
    "product": (("spec", "spec"), product),
    "scalar": (("int", "spec"), scalar),
    "pow": (("uint", "spec"), compose_power),
    "P": (("spec",), divisor_product_of),
    "col": (("uint", "spec"), lambda j, f: col_seq(f, j)),
    "row": (("uint", "spec"), lambda m, f: row_seq(f, m)),
    "prepend1": (("spec",), prepend_one),
    "interleave1": (("spec",), interleave_ones),
    "double": (("spec",), double_terms),
}


@dataclass(frozen=True)
class SeqSpec:
    """Parsed sequence expression; printing it again gives a canonical form."""

    kind: str
    args: tuple = ()

    def canonical(self) -> str:
        # a kind missing from the table prints as an atom
        arg_kinds = _KINDS[self.kind][0] if self.kind in _KINDS else ("int",)
        if not arg_kinds:
            return self.kind
        if "spec" in arg_kinds:
            parts = [a.canonical() if isinstance(a, SeqSpec) else str(a)
                     for a in self.args]
            return f"{self.kind}({','.join(parts)})"
        return f"{self.kind}:{','.join(str(a) for a in self.args)}"

    def build(self, bfile_offset: int = 0) -> Sequence:
        if self.kind == "bfile":
            return ingest_bfile(self.args[0], skip=bfile_offset)
        if self.kind not in _KINDS:
            raise SpecParseError(f"unknown spec kind {self.kind!r}", 0)
        builder = _KINDS[self.kind][1]
        return builder(*(a.build(bfile_offset) if isinstance(a, SeqSpec) else a
                         for a in self.args))


# a "list:" literal: `\d` and `\s` accept what str.isdecimal and
# str.isspace accept, which `_int` and `_skip_ws` read one character at a time
_INTS = re.compile(r"\s*[+-]?\d+(?:\s*,\s*[+-]?\d+)*\s*")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, offset: int | None = None):
        raise SpecParseError(message, self.pos if offset is None else offset)

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expect(self, ch: str) -> None:
        self._skip_ws()
        if self._peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def _ident(self) -> tuple[str, int]:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] == "_"):
            self.pos += 1
        if start == self.pos:
            self.error("expected a sequence expression")
        return self.text[start:self.pos], start

    def _int(self, signed: bool = True) -> int:
        self._skip_ws()
        start = self.pos
        if signed and self._peek() in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == digits:
            self.error("expected an integer" if signed
                       else "expected a nonnegative integer", start)
        return int(self.text[start:self.pos])

    def _path(self) -> str:
        self._skip_ws()
        start = self.pos
        while (self.pos < len(self.text)
               and self.text[self.pos] not in ",()"
               and not self.text[self.pos].isspace()):
            self.pos += 1
        if start == self.pos:
            self.error("expected a file path")
        return self.text[start:self.pos]

    def _ints(self) -> list[int]:
        # the greedy list: a comma continues it only when an integer comes next
        match = _INTS.match(self.text, self.pos)
        if match is None:
            self._int()  # raises with the offset of the missing integer
        self.pos = match.end()
        # int() strips less than str.isspace accepts (not U+001C to U+001F)
        return [int(item.strip()) for item in match.group().split(",")]

    def _args(self, arg_kinds, level: int) -> tuple:
        args = []
        for i, kind in enumerate(arg_kinds):
            if i:
                self._expect(",")
            if kind == "spec":
                args.append(self.spec(level))
            elif kind == "path":
                args.append(self._path())
            elif kind == "ints":
                args += self._ints()
            else:
                args.append(self._int(kind != "uint"))
        return tuple(args)

    def spec(self, level: int = 0) -> SeqSpec:
        """One expression, `level` combinators deep."""
        name, start = self._ident()
        self._skip_ws()
        nxt = self._peek()
        arg_kinds = _KINDS[name][0] if name in _KINDS else None
        if arg_kinds and "spec" in arg_kinds and nxt == "(":
            if level >= _MAX_NESTING:
                self.error(f"spec nested deeper than {_MAX_NESTING} levels", start)
            self.pos += 1
            args = self._args(arg_kinds, level + 1)
            self._expect(")")
            return SeqSpec(name, args)
        if arg_kinds and "spec" not in arg_kinds and nxt == ":":
            self.pos += 1
            return SeqSpec(name, self._args(arg_kinds, level))
        if arg_kinds == ():
            return SeqSpec(name)
        self.error(f"unknown name {name!r}", start)


def parse_seqspec(text: str) -> SeqSpec:
    """Parse a sequence expression; syntax errors carry a byte offset."""
    if not text or not text.strip():
        raise SpecParseError("empty sequence expression", 0)
    parser = _Parser(text)
    node = parser.spec()
    parser._skip_ws()
    if parser.pos != len(text):
        parser.error("unexpected trailing input")
    return node


def ingest_bfile(path: str, skip: int = 0) -> Sequence:
    """Read an "index value" table into a finite sequence.

    Lines starting with '#' and blank lines are ignored; indices must step
    by exactly 1. The first data line (after skipping `skip` leading lines)
    is re-based to index 1. Gaps, non-integer tokens, and zero values are
    rejected with their line number.
    """
    if skip < 0:
        raise ValueError(f"bfile offset must be nonnegative, got {skip}")
    values = []
    prev_index = None
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        if lineno <= skip:
            continue
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise ValueError(f"{path}: expected 'index value' at line {lineno}")
        try:
            index, value = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ValueError(f"{path}: non-integer token at line {lineno}") from None
        if prev_index is not None and index != prev_index + 1:
            raise ValueError(f"{path}: index gap at line {lineno}: "
                             f"expected {prev_index + 1}, found {index}")
        if value == 0:
            raise ValueError(f"{path}: zero value at line {lineno}")
        prev_index = index
        values.append(value)
    if not values:
        raise ValueError(f"{path}: no data lines")
    return from_list(values, name=f"bfile:{path}")


def _ingest_plain_file(path: str) -> Sequence:
    try:
        tokens = Path(path).read_text().split()
    except OSError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not tokens:
        raise ValueError(f"{path}: no terms")
    try:
        values = [int(t) for t in tokens]
    except ValueError:
        raise ValueError(f"{path}: non-integer token") from None
    return from_list(values, name=f"file:{path}")


# ---------------------------------------------------------------------------
# formatting
#
# Triangles and pyramids print straight from the kernel's rows
# (`core._rows`): an integral entry is a plain int and any other a
# Fraction, and str() of either is the entry's exact text. CSV and JSON
# print a row at a time; text reads a triangle twice, for column widths.
# The JSON is written, not encoded: its bytes are those json.dumps(doc,
# indent=2) gives for the document of {"num", "den"} entry pairs.

def _json_entries(values, pad: str) -> str:
    """The entries of `values` as the comma-separated items of a JSON list
    at indent `pad`: one %-template of a {"num", "den"} pair for an int and
    one for a Fraction."""
    head = f'{pad}{{\n{pad}  "num": "%s",\n{pad}  "den": '
    whole, frac = f'{head}"1"\n{pad}}}', f'{head}"%s"\n{pad}}}'
    return ",\n".join(whole % v if type(v) is int else frac % (v.numerator, v.denominator)
                       for v in values)


def _json_triangle(rows, depth: int, source: str, pad: str = "", comma: str = ""):
    """Yield the {"source", "depth", "rows"} document at indent `pad` in
    pieces, a row at a time; printing each piece gives the document and a
    newline, with `comma` after its closing brace."""
    yield (f'{pad}{{\n{pad}  "source": {json.dumps(source)},\n'
           f'{pad}  "depth": {depth},\n{pad}  "rows": [')
    close = ""
    for row in rows:
        yield f"{close}{pad}    [\n{_json_entries(row, pad + '      ')}"
        close = f"{pad}    ],\n"
    yield f"{pad}    ]\n{pad}  ]\n{pad}}}{comma}"


def format_triangle_text(rows) -> None:
    body = [[str(n), *map(str, row)] for n, row in enumerate(rows)]
    table = [["n\\k", *map(str, range(len(body)))], *body]
    widths = [max(map(len, column)) for column in zip_longest(*table, fillvalue="")]
    print("\n".join("  ".join(map(str.ljust, row, widths)).rstrip() for row in table))


def format_triangle_csv(rows) -> None:
    for row in rows:
        print(",".join(map(str, row)))


def triangle_to_json(rows, depth: int, source: str) -> None:
    for piece in _json_triangle(rows, depth, source):
        print(piece)


def format_pyramid_text(slices) -> None:
    for m, rows in enumerate(slices):
        print(f"\nslice {m}" if m else "slice 0")
        format_triangle_text(rows)


def format_pyramid_csv(slices) -> None:
    for m, rows in enumerate(slices):
        for n, row in enumerate(rows):
            print(f"{m},{n},{','.join(map(str, row))}")


def pyramid_to_json(slices, source: str) -> None:
    depth = len(slices) - 1
    print(f'{{\n  "source": {json.dumps(source)},\n  "depth": {depth},\n  "slices": [')
    for m, rows in enumerate(slices):
        for piece in _json_triangle(rows, m, f"row({m},{source})", "    ",
                                    "," if m < depth else ""):
            print(piece)
    print("  ]\n}")


_INDEX_KEYS = {"m", "n", "k", "a", "b", "level", "slice"}


def _witness_text(witness: dict) -> str:
    w = dict(witness)
    parts = []
    if "level" in w:
        parts.append(f"level {w.pop('level')}")
    if "slice" in w:
        parts.append(f"slice {w.pop('slice')}")
    if "n" in w and "k" in w and "value" in w:
        parts.append(f"[{w.pop('n')} {w.pop('k')}] = {w.pop('value')}")
    parts.extend(f"{key}={v}" for key, v in w.items())
    return ", ".join(parts)


def _witness_json(witness: dict) -> dict:
    out = {}
    for key, v in witness.items():
        if isinstance(v, Fraction):
            out[key] = {"num": str(v.numerator), "den": str(v.denominator)}
        elif isinstance(v, int) and key in _INDEX_KEYS:
            out[key] = v
        elif isinstance(v, int):
            out[key] = str(v)
        else:
            out[key] = v
    return out


def report_to_json(rep: cls.ClassificationReport) -> dict:
    doc = {"property": rep.property,
           "bound": rep.scanned_bound(),
           "verdict": rep.verdict,
           "witness": None if rep.witness is None else _witness_json(rep.witness)}
    if rep.note is not None:
        doc["note"] = rep.note
    return doc


def per_prime_to_json(decomp: cls.PerPrimeDecomposition) -> dict:
    return {"prime_bound": decomp.prime_bound,
            "bound": decomp.effective_bound,
            "primes": [{"prime": p, **report_to_json(rep)} for p, rep in decomp.reports],
            "undecided": [{"n": idx, "cofactor": str(cofactor)}
                          for idx, cofactor in decomp.undecided],
            "combined_verdict": decomp.combined_verdict,
            "agrees_with_direct": None if decomp.undecided else True}


def profile_to_json(profile: cls.DivisorProductProfile) -> dict:
    witness = profile.precondition_witness
    return {"bound": profile.bound,
            "precondition_ok": profile.precondition_ok,
            "precondition_witness": None if witness is None else _witness_json(witness),
            "criteria": [{"name": crit.property,
                          "verdict": crit.verdict,
                          "witness": None if crit.witness is None
                          else _witness_json(crit.witness),
                          "direct_verdict": crit.verdict,
                          "agrees": True}
                         for crit in profile.criteria]}


def _report_line(rep: cls.ClassificationReport) -> str:
    status = "PASS" if rep.holds() else "FAIL"
    line = f"{status} {rep.property} (bound {rep.scanned_bound()})"
    if rep.witness is not None:
        line += f": {_witness_text(rep.witness)}"
    if rep.note:
        line += f" [{rep.note}]"
    return line


def _monomial_text(vec: ver.ExponentVector) -> str:
    items = vec.items()
    if not items:
        return "1"
    return "*".join(f"x{r}" if e == 1 else f"x{r}^{e}" for r, e in items)


# ---------------------------------------------------------------------------
# subcommands

def _build_sequence(args) -> tuple[SeqSpec, Sequence]:
    spec = parse_seqspec(args.spec)
    return spec, spec.build(getattr(args, "bfile_offset", 0))


def _cmd_triangle_or_pyramid(args) -> int:
    # every term is fetched, and every pyramid base row built, before the
    # first line is printed, so an input error leaves stdout empty
    spec, seq = _build_sequence(args)
    if args.command == "triangle":
        terms = _triangle_terms(seq, args.rows)
        shape = _rows(terms)
        text, csv = format_triangle_text, format_triangle_csv
        to_json = functools.partial(triangle_to_json, depth=len(terms))
    else:
        shape = [_rows(base.prefix(m))
                 for m, base in enumerate(_slice_bases(seq, args.depth))]
        text, csv, to_json = format_pyramid_text, format_pyramid_csv, pyramid_to_json
    if args.format == "text":
        text(shape)
    elif args.format == "csv":
        csv(shape)
    else:
        to_json(shape, source=spec.canonical())
    return 0


def _cmd_classify(args) -> int:
    from . import classify as cls
    spec, seq = _build_sequence(args)
    selected = None
    if args.only is not None:
        selected = [name.strip() for name in args.only.split(",") if name.strip()]
        known = set(cls.PROPERTIES) | {"binomid_every_level"}
        choices = ", ".join(sorted(known))
        if not selected:
            raise ValueError(f"--only names no property; choose from {choices}")
        for name in selected:
            if name not in known:
                raise ValueError(f"unknown property {name!r}; choose from {choices}")
        if "binomid_every_level" in selected and args.levels is None:
            raise ValueError("binomid_every_level requires --levels")
    record = {}  # every report of this run, read again by --per-prime and --profile
    reports = cls.battery(seq, args.bound, [name for name in cls.PROPERTIES
                                            if selected is None or name in selected],
                          record)
    if args.levels is not None and (selected is None
                                    or "binomid_every_level" in selected):
        reports.append(cls.is_binomid_every_level(seq, args.levels, args.bound))
    # everything that can raise runs before the first print, so a run that
    # exits 2 or 3 leaves stdout empty
    decomp = profile = None
    if args.per_prime is not None:
        decomp = cls.per_prime_decomposition(seq, args.bound, args.per_prime, record)
    if args.profile:
        profile = cls.divisor_product_profile(seq, args.bound, record)
    if args.format == "json":
        doc = [report_to_json(r) for r in reports]
        extras = {}
        if decomp is not None:
            extras["per_prime"] = per_prime_to_json(decomp)
        if profile is not None:
            extras["profile"] = profile_to_json(profile)
        print(json.dumps({"reports": doc, **extras} if extras else doc, indent=2))
    else:
        for rep in reports:
            print(_report_line(rep))
        if decomp is not None:
            for p, rep in decomp.reports:
                print(f"per-prime {p}: {rep.verdict}")
            for idx, cofactor in decomp.undecided:
                print(f"per-prime undecided: term {idx} has cofactor {cofactor} "
                      f"beyond prime bound {args.per_prime}")
        if profile is not None:
            if not profile.precondition_ok:
                print(f"profile unavailable: {_witness_text(profile.precondition_witness)}")
            for crit in profile.criteria:
                print(f"profile {crit.property}: {crit.verdict} "
                      "(agrees with direct classifier)")
    return 0 if all(rep.holds() for rep in reports) else 1


def _cmd_invert(args) -> int:
    from . import classify as cls
    spec, seq = _build_sequence(args)
    inverted = cls.mobius_invert(seq, args.terms)
    if args.format == "json":
        print(f'{{\n  "source": {json.dumps(spec.canonical())},\n  "terms": [\n'
              f'{_json_entries(inverted, "    ")}\n  ]\n}}')
    else:
        print(" ".join(map(str, inverted)))
    return 0


def _print_check(result: ver.CheckResult) -> int:
    line = f"{'PASS' if result.ok else 'FAIL'} {result.check}"
    if not result.ok:
        line += f" ({result.status})"
    if result.witness:
        line += ": " + ", ".join(f"{k}={v}" for k, v in result.witness.items())
    print(line)
    return 0 if result.ok else 1


# (check, help, takes a spec, integer options with their defaults, runner);
# a default of ... marks a required option. A runner gets the verify
# module, the parsed arguments and the built sequence (None without a
# spec) and returns a CheckResult, or an ExponentVector to print as a
# monomial.
_VERIFY = (
    ("symmetry", "3-fold rotation of a palindromic triangle", True, {},
     lambda v, a, f: v.check_symmetry(f)),
    ("slice-identity", "columns appear as pyramid slices", True,
     {"n_max": 6, "m_max": 4, "k_max": 6},
     lambda v, a, f: v.check_slice_identity(f, a.n_max, a.m_max, a.k_max)),
    ("determinant", "binomial determinant identity", False,
     {"n": ..., "m": ..., "k": ...},
     lambda v, a, f: v.check_determinant_identity(a.n, a.m, a.k)),
    ("recurrence", "two-term recurrence step identity", True,
     {"n": ..., "k": ..., "u": None, "v": None},
     lambda v, a, f: v.check_recurrence_step(f, a.n, a.k, a.u, a.v)),
    ("hm", "factorial and binomial identity for comb(mx, m)", False,
     {"m": ..., "n": ..., "k": ...},
     lambda v, a, f: v.check_hm_identity(a.m, a.n, a.k)),
    ("delta-pattern", "zeros-then-ones pattern of delta", False,
     {"m": ..., "r": ..., "length": ...},
     lambda v, a, f: v.check_delta_pattern(a.m, a.r, a.length)),
    ("window-minimality", "initial window is minimal", False,
     {"m": ..., "r": ..., "n_max": 18, "a_max": 18},
     lambda v, a, f: v.check_window_minimality(a.m, a.r, a.n_max, a.a_max)),
    ("pyramid-entry", "generic column-entry exponents", False,
     {"m": ..., "n": ..., "k": ...},
     lambda v, a, f: v.generic_pyramid_entry(a.m, a.n, a.k)),
    ("factorial-exponents", "generic factorial exponents", False,
     {"n": ...},
     lambda v, a, f: v.generic_factorial_exponents(a.n)),
)


def _cmd_verify(args) -> int:
    from . import verify as ver
    seq = _build_sequence(args)[1] if "spec" in vars(args) else None
    result = args.run(ver, args, seq)
    if isinstance(result, ver.CheckResult):
        return _print_check(result)
    print(_monomial_text(result))
    return 0


def _add_spec_argument(parser) -> None:
    parser.add_argument("spec", help="sequence expression, e.g. gq:2 or col(2,T)")
    parser.add_argument("--bfile-offset", type=int, default=0, metavar="K",
                        help="skip K leading lines of every bfile atom")


@functools.cache
def _build_arg_parser() -> argparse.ArgumentParser:
    # built once per process; parse_args leaves the parser unchanged
    parser = argparse.ArgumentParser(
        prog="binomid",
        description="Exact generalized binomial triangles, pyramids, "
                    "sequence classification, and identity checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, help_text, size, metavar in (
            ("triangle", "print the triangle of a sequence", "--rows", "N"),
            ("pyramid", "print the stacked row triangles", "--depth", "D")):
        p = sub.add_parser(command, help=help_text)
        _add_spec_argument(p)
        p.add_argument(size, type=int, required=True, metavar=metavar)
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")
        p.set_defaults(handler=_cmd_triangle_or_pyramid)

    p = sub.add_parser("classify", help="run the property battery")
    _add_spec_argument(p)
    p.add_argument("--bound", type=int, required=True, metavar="B")
    p.add_argument("--levels", type=int, default=None, metavar="D",
                   help="also check binomid at every level to depth D")
    p.add_argument("--only", default=None, metavar="PROPS",
                   help="comma-separated property names to run")
    p.add_argument("--per-prime", type=int, default=None, metavar="P",
                   help="also report the per-prime decomposition")
    p.add_argument("--profile", action="store_true",
                   help="also profile the inverted sequence")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("invert", help="multiplicative Mobius inversion")
    _add_spec_argument(p)
    p.add_argument("--terms", type=int, required=True, metavar="N")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_invert)

    p = sub.add_parser("verify", help="run one identity checker")
    vsub = p.add_subparsers(dest="check", required=True)
    for check, help_text, takes_spec, options, run in _VERIFY:
        v = vsub.add_parser(check, help=help_text)
        if takes_spec:
            _add_spec_argument(v)
        for name, default in options.items():
            flag = "--" + name.replace("_", "-")
            if default is ...:
                v.add_argument(flag, type=int, required=True)
            else:
                v.add_argument(flag, type=int, default=default)
        v.set_defaults(handler=_cmd_verify, run=run)

    return parser


def main(argv=None) -> int:
    parser = _build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # exact values have no digit limit: lift Python's cap on int-to-str
    # conversion while the command runs, and give a caller its own back
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except SpecParseError as exc:
        print(f"error: {exc} (byte offset {exc.offset})", file=sys.stderr)
        return 2
    except NonIntegralEntryError as exc:
        print(f"error: non-integral entry [{exc.n} {exc.k}] = {exc.value}",
              file=sys.stderr)
        return 1
    except (UndefinedTermError, ZeroTermError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 3
    finally:
        sys.set_int_max_str_digits(limit)


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point fd 1 at /dev/null so the exit flush
        # cannot fail again, and exit as a writer that SIGPIPE stopped
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)


if __name__ == "__main__":
    console_main()

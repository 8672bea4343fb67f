"""Span tracing of binomid's layers from outside the package.

`Tracer.install` replaces the public functions of each layer, in every
binomid module that imported them, with wrappers that record a span
(name, start, end, parent, job) and a few plain counters. `uninstall`
puts the originals back. Nothing under src/ is edited.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import types
from time import perf_counter

# (module, attribute, span name); a span name is the layer metric's prefix
FUNCTIONS = [
    ("binomid.cli", "main", "cli.main"),
    ("binomid.cli", "parse_seqspec", "cli.parse"),
    ("binomid.cli", "ingest_bfile", "cli.ingest"),
    ("binomid.cli", "_ingest_plain_file", "cli.ingest"),
    ("binomid.cli", "format_triangle_text", "cli.format"),
    ("binomid.cli", "format_triangle_csv", "cli.format"),
    ("binomid.cli", "triangle_to_json", "cli.format"),
    ("binomid.cli", "format_pyramid_text", "cli.format"),
    ("binomid.cli", "format_pyramid_csv", "cli.format"),
    ("binomid.cli", "pyramid_to_json", "cli.format"),
    ("binomid.cli", "report_to_json", "cli.format"),
    ("binomid.cli", "_report_line", "cli.format"),
    ("binomid.cli", "_witness_text", "cli.format"),
    ("binomid.cli", "_monomial_text", "cli.format"),
    ("binomid.core", "triangle", "core.triangle"),
    ("binomid.core", "pyramid", "core.pyramid"),
    ("binomid.core", "row_seq", "core.row_seq"),
    ("binomid.core", "col_seq", "core.col_seq"),
    ("binomid.core", "fbinom", "core.fbinom"),
    ("binomid.numtheory", "divisors", "numtheory.divisors"),
    ("binomid.numtheory", "mobius", "numtheory.mobius"),
    ("binomid.numtheory", "prime_power_base", "numtheory.prime_power_base"),
    ("binomid.classify", "is_binomid", "classify.binomid"),
    ("binomid.classify", "is_binomid_at_level", "classify.binomid_at_level"),
    ("binomid.classify", "is_binomid_every_level", "classify.binomid_every_level"),
    ("binomid.classify", "per_prime_decomposition", "classify.per_prime"),
    ("binomid.classify", "mobius_invert", "classify.mobius_invert"),
    ("binomid.classify", "is_divisible", "classify.divisible"),
    ("binomid.classify", "is_divisor_product", "classify.divisor_product"),
    ("binomid.classify", "divisor_product_profile", "classify.profile"),
    ("binomid.classify", "is_gcd_sequence", "classify.gcd_sequence"),
    ("binomid.classify", "is_dual_gcd", "classify.dual_gcd"),
    ("binomid.classify", "is_divisor_chain", "classify.divisor_chain"),
    ("binomid.classify", "is_multiplicative", "classify.multiplicative"),
    ("binomid.classify", "is_homomorphic", "classify.homomorphic"),
    ("binomid.verify", "check_slice_identity", "verify.slice_identity"),
    ("binomid.verify", "check_symmetry", "verify.symmetry"),
]

COUNTERS = ("core.triangle.entries", "core.entry_bits.max", "sequences.terms",
            "sequences.term_bits.max", "cli.format.bytes", "cli.ingest.bytes",
            "classify.reports", "classify.fails", "verify.checks")


class Tracer:
    """Spans and counters of one traced pass; `job` tags the spans that follow."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.job = 0
        self._stack = [-1]
        self._undo = []

    # -- spans --------------------------------------------------------------

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1], self.job])
        self._stack.append(idx)
        return idx

    def leave(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def parent_name(self) -> str:
        parent = self._stack[-1]
        return self.spans[parent][0] if parent >= 0 else ""

    def add(self, key: str, value: int) -> None:
        self.counts[key] += value

    def peak(self, key: str, value: int) -> None:
        if value > self.counts[key]:
            self.counts[key] = value

    def wrap(self, name: str, fn, after=None):
        tracer = self

        def traced(*args, **kwargs):
            outer = tracer.parent_name()
            idx = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(idx)
            if after is not None:
                after(args, result, outer)
            return result

        return traced

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        from binomid import cli, sequences  # loads every module that gets patched
        modules = _binomid_modules()
        for module_name, attr, span in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            traced = self.wrap(span, original, self._after_hook(span))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, traced)
        self._set(cli.SeqSpec, "build", self.wrap("cli.build", cli.SeqSpec.build))
        self._set(cli, "json", types.SimpleNamespace(
            dumps=self.wrap("cli.format", cli.json.dumps)))
        self._set(cli, "print", self._traced_print)
        self._set(sequences.Sequence, "__init__",
                  self._traced_init(sequences.Sequence.__init__))

    def uninstall(self) -> None:
        for target, key, had, old in reversed(self._undo):
            if had:
                setattr(target, key, old)
            else:
                delattr(target, key)
        self._undo.clear()

    def _set(self, target, key, value) -> None:
        had = key in vars(target)
        self._undo.append((target, key, had, vars(target).get(key)))
        setattr(target, key, value)

    def _traced_print(self, *args, **kwargs):
        idx = self.enter("cli.format")
        try:
            print(*args, **kwargs)
        finally:
            self.leave(idx)
        self.add("cli.format.bytes", len(" ".join(map(str, args))) + 1)

    def _traced_init(self, init):
        tracer = self

        def after(args, value, outer):
            tracer.add("sequences.terms", 1)
            tracer.peak("sequences.term_bits.max", abs(value).bit_length())

        def traced_init(seq, name, rule, length=None):
            init(seq, name, tracer.wrap("sequences.materialize", rule, after), length)

        return traced_init

    def _after_hook(self, span: str):
        if span == "core.triangle":
            return self._after_triangle
        if span == "cli.ingest":
            return self._after_ingest
        if span.startswith("classify."):
            return self._after_report
        if span.startswith("verify."):
            return self._after_verify
        return None

    def _after_triangle(self, args, tri, outer) -> None:
        # scanning every entry is tracing work: keep it out of the caller's self time
        idx = self.enter("tracer")
        self.add("core.triangle.entries", sum(len(row) for row in tri.rows))
        self.peak("core.entry_bits.max", max(
            max(q.numerator.bit_length(), q.denominator.bit_length())
            for row in tri.rows for q in row))
        self.leave(idx)

    def _after_ingest(self, args, seq, outer) -> None:
        self.add("cli.ingest.bytes", os.path.getsize(args[0]))

    def _after_report(self, args, rep, outer) -> None:
        # count the reports the CLI asked for, not the ones classifiers nest
        if outer.startswith("classify.") or not hasattr(rep, "verdict"):
            return
        self.add("classify.reports", 1)
        self.add("classify.fails", rep.verdict == "fails")

    def _after_verify(self, args, result, outer) -> None:
        if not outer.startswith("verify."):
            self.add("verify.checks", 1)

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Each span name's self time: its spans minus the child spans they cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - inner
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for span in self.spans:
            out[span[0]] = out.get(span[0], 0) + 1
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans, "counts": self.counts}, fh)


def _binomid_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "binomid" or n.startswith("binomid."))]

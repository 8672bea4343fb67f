import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomid import (InternalCheckError, ZeroTermError, fibonacci, from_list,
                     mobius_invert, pyramid, triangle)
from binomid import classify as cls
from binomid import cli
from binomid.cli import (SeqSpec, SpecParseError, _build_arg_parser,
                         ingest_bfile, main, parse_seqspec)
from binomid.core import _rows


class CharListParser(cli._Parser):
    """The spec parser reading `list:` literals one character at a time,
    with a lookahead after each comma, as before the regular expression."""

    def _int_follows(self) -> bool:
        save = self.pos
        self.pos += 1
        self._skip_ws()
        ch = self._peek()
        ok = ch.isdecimal() or (ch in "+-" and self.pos + 1 < len(self.text)
                                and self.text[self.pos + 1].isdecimal())
        self.pos = save
        return ok

    def _ints(self) -> list[int]:
        values = [self._int()]
        self._skip_ws()
        while self._peek() == "," and self._int_follows():
            self.pos += 1
            values.append(self._int())
            self._skip_ws()
        return values


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    @pytest.mark.parametrize("text", [
        "I", "fact", "T", "fib", "const:-3", "cpow:2", "pcol:3", "prow:4",
        "gq:2", "gab:2,1", "lucas:1,-1", "hm:2", "list:1,2,3",
        "product(I,T)", "scalar(-2,I)", "pow(2,fib)", "P(list:1,3,7)",
        "col(2,T)", "row(4,I)", "prepend1(fib)", "interleave1(T)",
        "double(fact)", "P(product(I,scalar(3,T)))",
    ])
    def test_canonical_round_trip_is_idempotent(self, text):
        canonical = parse_seqspec(text).canonical()
        assert parse_seqspec(canonical).canonical() == canonical

    def test_whitespace_is_normalized(self):
        assert parse_seqspec(" col( 2 , T ) ").canonical() == "col(2,T)"
        assert parse_seqspec("lucas: 1 , -1").canonical() == "lucas:1,-1"

    def test_fibonacci_alias(self):
        assert parse_seqspec("lucas:1,-1").build().prefix(7) == [1, 1, 2, 3, 5, 8, 13]
        assert parse_seqspec("fib").build().prefix(7) == [1, 1, 2, 3, 5, 8, 13]

    def test_column_atom(self):
        assert parse_seqspec("col(2,T)").build().prefix(5) == [1, 6, 20, 50, 105]

    def test_divisor_product_of_list(self):
        seq = parse_seqspec("P(list:1,1,2,3,5,4,13,7,17,11,89,6)").build()
        assert seq.prefix(12) == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]

    def test_gq_matches_gab(self):
        assert (parse_seqspec("gq:2").build().prefix(8)
                == parse_seqspec("gab:2,1").build().prefix(8))

    def test_list_inside_combinator_is_parsed_greedily(self):
        spec = parse_seqspec("product(list:1,2,I)")
        assert spec == SeqSpec("product", (SeqSpec("list", (1, 2)), SeqSpec("I")))
        assert spec.build().prefix(2) == [1, 4]

    @pytest.mark.parametrize("text,offset", [
        ("nope", 0),
        ("col(2", 5),
        ("col(2,T", 7),
        ("I extra", 2),
        ("list:", 5),
        ("scalar(x,I)", 7),
        ("", 0),
        ("   ", 0),
    ])
    def test_syntax_errors_carry_byte_offsets(self, text, offset):
        with pytest.raises(SpecParseError) as exc:
            parse_seqspec(text)
        assert exc.value.offset == offset

    # str.isdigit accepts superscripts, which int() rejects; a digit is what
    # str.isdecimal accepts, so other scripts' decimal digits still parse
    @pytest.mark.parametrize("text, message", [
        ("list:²", "expected an integer (byte offset 5)"),
        ("gq:³", "expected an integer (byte offset 3)"),
        ("row(¹,I)", "expected a nonnegative integer (byte offset 4)"),
        ("list:1,2²", "unexpected trailing input (byte offset 8)"),
        ("list:1,²", "unexpected trailing input (byte offset 6)"),
        ("list:1,-²", "unexpected trailing input (byte offset 6)"),
        ("lucas:1,-²", "expected an integer (byte offset 8)"),
    ])
    def test_non_decimal_digits_exit_2_with_an_offset(self, capsys, text, message):
        code, out, err = run(capsys, "triangle", text, "--rows", "1")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_decimal_digits_of_other_scripts_parse(self):
        assert parse_seqspec("list:٣,4").build().prefix(2) == [3, 4]

    def test_list_classes_accept_what_the_char_reader_accepts(self):
        # `list:` literals are read by a regular expression; its \d and \s
        # must accept exactly the characters str.isdecimal and str.isspace
        # accept, as the one-character readers `_int` and `_skip_ws` do,
        # and str.strip must remove every such space before int() reads
        digit, space = re.compile(r"\d"), re.compile(r"\s")
        for code in range(sys.maxunicode + 1):
            ch = chr(code)
            assert bool(digit.match(ch)) == ch.isdecimal(), hex(code)
            assert bool(space.match(ch)) == ch.isspace(), hex(code)
            assert not ch.isspace() or (ch + "1" + ch).strip() == "1", hex(code)

    @settings(max_examples=600, deadline=None)
    @given(st.tuples(
        st.sampled_from(["", "list:", "list:", "product(list:", "P(list:", "gab:"]),
        st.lists(st.sampled_from(["1", "23", "٣", "²", "-", "+", ",", ",", " ", "\t",
                                  "\x1c", "\u3000", "(", ")", "I", "x"]), max_size=12),
        st.sampled_from(["", ")", ",I)", " "])).map(
            lambda parts: parts[0] + "".join(parts[1]) + parts[2]))
    def test_list_reader_matches_the_char_reader(self, text):
        # the one-character reader the regular expression replaced is the
        # oracle: the same values, or the same message at the same offset
        def outcome():
            try:
                return ("ok", parse_seqspec(text))
            except SpecParseError as exc:
                return ("error", str(exc), exc.offset)

        got = outcome()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_Parser", CharListParser)
            assert got == outcome()

    def test_semantic_errors_surface_at_build(self):
        with pytest.raises(ZeroTermError) as exc:
            parse_seqspec("list:1,0,3").build()
        assert exc.value.index == 2
        with pytest.raises(ValueError):
            parse_seqspec("const:0").build()


class TestBfile:
    def test_mersenne_prefix(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("1 1\n2 3\n3 7\n4 15\n")
        assert ingest_bfile(str(path)).prefix(4) == [1, 3, 7, 15]

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("# header\n\n5 1\n6 3\n")
        seq = ingest_bfile(str(path))
        assert seq.prefix(2) == [1, 3]
        assert seq.length == 2

    def test_rebased_to_index_one(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("10 4\n11 9\n")
        assert ingest_bfile(str(path)).term(1) == 4

    def test_gap_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("1 1\n3 7\n")
        with pytest.raises(ValueError, match="line 2"):
            ingest_bfile(str(path))

    def test_non_integer_token_rejected(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("1 1\n2 x\n")
        with pytest.raises(ValueError, match="line 2"):
            ingest_bfile(str(path))

    def test_zero_value_rejected(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("1 1\n2 0\n")
        with pytest.raises(ValueError, match="line 2"):
            ingest_bfile(str(path))

    def test_offset_skips_leading_lines(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("garbage line\n1 1\n2 3\n")
        with pytest.raises(ValueError):
            ingest_bfile(str(path))
        assert ingest_bfile(str(path), skip=1).prefix(2) == [1, 3]

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError, match="no data"):
            ingest_bfile(str(path))

    def test_negative_offset_rejected_before_reading(self, tmp_path):
        missing = tmp_path / "missing.txt"
        with pytest.raises(ValueError) as exc:
            ingest_bfile(str(missing), skip=-1)
        assert str(exc.value) == "bfile offset must be nonnegative, got -1"

    def test_negative_offset_exits_2(self, capsys, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("1 1\n2 3\n3 7\n")
        code, out, err = run(capsys, "triangle", f"bfile:{path}", "--rows", "2",
                             "--bfile-offset", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: bfile offset must be nonnegative, got -1\n"


class TestTriangleCommand:
    def test_text_layout_is_left_aligned(self, capsys):
        code, out, _ = run(capsys, "triangle", "T", "--rows", "3")
        assert code == 0
        assert out == ("n\\k  0  1  2  3\n"
                       "0    1\n"
                       "1    1  1\n"
                       "2    1  3  1\n"
                       "3    1  6  6  1\n")

    def test_csv_of_mersenne(self, capsys):
        code, out, _ = run(capsys, "triangle", "gq:2", "--rows", "6",
                           "--format", "csv")
        assert code == 0
        assert out.splitlines()[6] == "1,63,651,1395,651,63,1"

    def test_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "triangle", "fib", "--rows", "5",
                           "--format", "json")
        assert code == 0
        loaded = json.loads(out)
        assert loaded["source"] == "fib"
        assert loaded["depth"] == 5
        assert loaded["rows"][5][2] == {"num": "15", "den": "1"}
        assert json.dumps(loaded, indent=2) + "\n" == out

    def test_rational_entries_render_as_fractions(self, capsys):
        code, out, _ = run(capsys, "triangle", "col(2,T)", "--rows", "4",
                           "--format", "csv")
        assert code == 0
        assert "500/3" in out

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "triangle", "bogus", "--rows", "3")
        assert code == 2
        assert "byte offset" in err

    def test_bfile_atom(self, capsys, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("1 1\n2 3\n3 7\n4 15\n")
        code, out, _ = run(capsys, "triangle", f"bfile:{path}", "--rows", "3",
                           "--format", "csv")
        assert code == 0
        assert out.splitlines()[3] == "1,7,7,1"

    def test_file_atom(self, capsys, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("1 3 7 15\n")
        code, out, _ = run(capsys, "triangle", f"file:{path}", "--rows", "3",
                           "--format", "csv")
        assert code == 0
        assert out.splitlines()[3] == "1,7,7,1"

    def test_determinism(self, capsys):
        first = run(capsys, "triangle", "pcol:3", "--rows", "7", "--format", "text")
        second = run(capsys, "triangle", "pcol:3", "--rows", "7", "--format", "text")
        assert first == second


class TestPyramidCommand:
    def test_text_slices(self, capsys):
        code, out, _ = run(capsys, "pyramid", "I", "--depth", "2")
        assert code == 0
        assert "slice 0" in out and "slice 2" in out

    def test_csv_rows_carry_slice_and_row_indices(self, capsys):
        code, out, _ = run(capsys, "pyramid", "I", "--depth", "3",
                           "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "0,0,1"
        assert out.splitlines()[-1] == "3,3,1,3,3,1"

    def test_json_nests_slices(self, capsys):
        code, out, _ = run(capsys, "pyramid", "fib", "--depth", "4",
                           "--format", "json")
        assert code == 0
        loaded = json.loads(out)
        assert loaded["depth"] == 4
        assert len(loaded["slices"]) == 5
        assert loaded["slices"][3]["source"] == "row(3,fib)"

    def test_non_integral_row_exits_1(self, capsys):
        code, _, err = run(capsys, "pyramid", "col(2,T)", "--depth", "4")
        assert code == 1
        assert "500/3" in err


class TestStreamedOutput:
    """Rows print one at a time, but only after every term (and every
    pyramid base row) is built, so an input error leaves stdout empty."""

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_zero_term_prints_nothing(self, capsys, fmt):
        # lucas:2,2 runs 1, 2, 2, 0
        assert run(capsys, "triangle", "lucas:2,2", "--rows", "6", "--format", fmt) == (
            2, "", "error: term at index 4 is zero\n")

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_non_integral_base_row_prints_nothing(self, capsys, fmt):
        assert run(capsys, "pyramid", "col(2,T)", "--depth", "4", "--format", fmt) == (
            1, "", "error: non-integral entry [4 2] = 500/3\n")

    def test_csv_prints_a_line_per_row(self, monkeypatch):
        lines = []
        monkeypatch.setattr(cli, "print", lines.append, raising=False)
        assert main(["triangle", "I", "--rows", "30", "--format", "csv"]) == 0
        assert len(lines) == 31 and lines[30] == ",".join(str(comb(30, k)) for k in range(31))


class TestClosedStdout:
    """A reader that closes stdout early ends the CLI with exit 141 and
    nothing on stderr. Each output is far past a 64 KB pipe buffer, so the
    write that fails does not depend on timing."""

    @pytest.mark.parametrize("argv", [
        ["triangle", "I", "--rows", "3000", "--format", "csv"],
        ["invert", "gq:2", "--terms", "3000", "--format", "json"],
    ], ids=["triangle-csv", "invert-json"])
    def test_exits_141_quietly(self, tmp_path, argv):
        src = str(Path(cli.__file__).resolve().parent.parent)
        err = tmp_path / "stderr"
        with open(err, "wb") as err_file:
            proc = subprocess.Popen(
                [sys.executable, "-m", "binomid.cli", *argv],
                env={**os.environ, "PYTHONPATH": src},
                stdout=subprocess.PIPE, stderr=err_file)
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            code = proc.wait(timeout=60)
        assert (code, err.read_bytes()) == (141, b"")


class TestClassifyCommand:
    def test_triangular_level_two_witness(self, capsys):
        code, out, _ = run(capsys, "classify", "T", "--bound", "20",
                           "--levels", "2")
        assert code == 1
        assert "level 2, [4 2] = 500/3" in out

    def test_only_binomid_passes_for_mersenne(self, capsys):
        code, out, _ = run(capsys, "classify", "gq:2", "--bound", "15",
                           "--only", "binomid")
        assert code == 0
        assert out.startswith("PASS binomid")

    def test_unknown_property_rejected(self, capsys):
        code, _, err = run(capsys, "classify", "I", "--bound", "10",
                           "--only", "sparkly")
        assert code == 2
        assert "sparkly" in err

    @pytest.mark.parametrize("only", [",", " , ", ""])
    def test_only_naming_no_property_exits_2(self, capsys, only):
        code, out, err = run(capsys, "classify", "I", "--bound", "5", "--only", only)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        listed = err.strip().split("choose from ")[1].split(", ")
        assert sorted(listed) == sorted(cls.PROPERTIES + ("binomid_every_level",))

    def test_every_level_selection_needs_depth(self, capsys):
        code, _, err = run(capsys, "classify", "I", "--bound", "10",
                           "--only", "binomid_every_level")
        assert code == 2
        assert "--levels" in err

    def test_non_unit_first_term_with_levels_exits_2(self, capsys):
        code, _, err = run(capsys, "classify", "const:2", "--bound", "8",
                           "--levels", "3")
        assert code == 2
        assert "first term" in err

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "classify", "T", "--bound", "8",
                           "--format", "json")
        assert code == 1
        reports = json.loads(out)
        assert all(set(r) == {"property", "bound", "verdict", "witness"}
                   for r in reports)
        by_name = {r["property"]: r for r in reports}
        assert by_name["binomid"]["verdict"] == "holds_to_bound"
        assert by_name["binomid"]["witness"] is None
        assert by_name["divisor_product"]["witness"]["value"] == {
            "num": "10", "den": "3"}

    def test_per_prime_flag(self, capsys):
        code, out, _ = run(capsys, "classify", "cpow:6", "--bound", "10",
                           "--only", "binomid", "--per-prime", "7")
        assert code == 0
        assert "per-prime 2: holds_to_bound" in out
        assert "per-prime 3: holds_to_bound" in out

    @pytest.mark.parametrize("spec", ["fact", "list:1,2,6,1000003,5"])
    def test_per_prime_bound_past_every_prime_of_the_terms(self, capsys, spec):
        # no term has a prime between 1000 and 10^6 (1000003 is past both),
        # so the reports are those at 1000; only the primes that divide a
        # term get an exponent list, not each of the 78498 up to 10^6
        argv = ["classify", spec, "--bound", "30", "--only", "binomid", "--per-prime"]
        code, out, err = run(capsys, *argv, "1000")
        tracemalloc.start()
        try:
            large = run(capsys, *argv, "1000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "per-prime 29: holds_to_bound" in out or "undecided" in out
        assert large == (code, out.replace("prime bound 1000\n", "prime bound 1000000\n"), err)
        assert peak < 10_000_000

    def test_profile_flag(self, capsys):
        code, out, _ = run(capsys, "classify", "fib", "--bound", "20",
                           "--profile")
        assert code == 1  # fibonacci is not a divisor chain
        assert "profile gcd_sequence: holds_to_bound (agrees with direct classifier)" in out

    def test_determinism(self, capsys):
        first = run(capsys, "classify", "fib", "--bound", "12")
        second = run(capsys, "classify", "fib", "--bound", "12")
        assert first == second


class TestInvertCommand:
    def test_fibonacci_text(self, capsys):
        code, out, _ = run(capsys, "invert", "fib", "--terms", "12")
        assert code == 0
        assert out.strip() == "1 1 2 3 5 4 13 7 17 11 89 6"

    def test_non_integral_values_render_as_fractions(self, capsys):
        code, out, _ = run(capsys, "invert", "list:1,2,2,2,2,2", "--terms", "6")
        assert code == 0
        assert out.split()[-1] == "1/2"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "invert", "gq:2", "--terms", "4",
                           "--format", "json")
        assert code == 0
        loaded = json.loads(out)
        assert loaded["terms"][3] == {"num": "5", "den": "1"}


class TestVerifyCommand:
    def test_determinant(self, capsys):
        code, out, _ = run(capsys, "verify", "determinant",
                           "--n", "3", "--m", "1", "--k", "2")
        assert code == 0
        assert out.startswith("PASS determinant_identity")

    def test_hm(self, capsys):
        code, out, _ = run(capsys, "verify", "hm",
                           "--m", "3", "--n", "4", "--k", "2")
        assert code == 0

    def test_delta_pattern(self, capsys):
        code, out, _ = run(capsys, "verify", "delta-pattern",
                           "--m", "2", "--r", "6", "--length", "12")
        assert code == 0

    def test_window_minimality(self, capsys):
        code, out, _ = run(capsys, "verify", "window-minimality",
                           "--m", "2", "--r", "6")
        assert code == 0

    def test_recurrence_prints_certificate(self, capsys):
        code, out, _ = run(capsys, "verify", "recurrence", "fib",
                           "--n", "5", "--k", "2")
        assert code == 0
        assert "u=" in out and "v=" in out

    def test_recurrence_no_certificate_exits_1(self, capsys):
        code, out, _ = run(capsys, "verify", "recurrence", "list:2,4,5",
                           "--n", "2", "--k", "1")
        assert code == 1
        assert "no_certificate" in out

    def test_symmetry(self, capsys):
        code, out, _ = run(capsys, "verify", "symmetry", "prow:7")
        assert code == 0
        code, _, err = run(capsys, "verify", "symmetry", "list:1,2,3")
        assert code == 2

    def test_slice_identity(self, capsys):
        code, out, _ = run(capsys, "verify", "slice-identity", "I",
                           "--n-max", "5", "--m-max", "3", "--k-max", "5")
        assert code == 0

    @pytest.mark.parametrize("flag, value", [("--n-max", "0"), ("--m-max", "-1"),
                                             ("--k-max", "-3")])
    def test_slice_identity_empty_range_exits_2(self, capsys, flag, value):
        code, out, err = run(capsys, "verify", "slice-identity", "I", flag, value)
        assert code == 2
        assert out == ""
        assert err == "error: need n_max >= 1, m_max >= 0 and k_max >= 0\n"

    def test_pyramid_entry_monomial(self, capsys):
        code, out, _ = run(capsys, "verify", "pyramid-entry",
                           "--m", "2", "--n", "4", "--k", "2")
        assert code == 0
        assert out.strip() == "x4^2*x5"

    def test_factorial_exponents_monomial(self, capsys):
        code, out, _ = run(capsys, "verify", "factorial-exponents", "--n", "6")
        assert code == 0
        assert out.strip() == "x1^6*x2^3*x3^2*x4*x5*x6"

    def test_usage_error_exits_2(self, capsys):
        assert main(["verify", "determinant", "--n", "3"]) == 2


class TestNestingLimit:
    @pytest.mark.parametrize("opener", ["double(", "col(1,", "prepend1(",
                                        "scalar(2,", "pow(1,"])
    def test_hundred_levels_parse(self, opener):
        spec = parse_seqspec(opener * 100 + "I" + ")" * 100)
        for _ in range(100):
            spec = spec.args[-1]
        assert spec == SeqSpec("I")

    @pytest.mark.parametrize("opener", ["double(", "col(1,", "prepend1(",
                                        "scalar(2,", "pow(1,"])
    def test_hundred_levels_classify(self, capsys, opener):
        code, out, _ = run(capsys, "classify", opener * 100 + "I" + ")" * 100,
                           "--bound", "6", "--only", "binomid")
        assert (code, out) == (0, "PASS binomid (bound 6)\n")

    def test_hundred_and_one_levels_raise_at_the_innermost_combinator(self):
        with pytest.raises(SpecParseError) as exc:
            parse_seqspec("product(I," * 100 + "double(I)" + ")" * 100)
        assert str(exc.value) == "spec nested deeper than 100 levels"
        assert exc.value.offset == 100 * len("product(I,")

    def test_deep_spec_exits_2_with_one_line(self, capsys):
        code, out, err = run(capsys, "triangle", "prepend1(" * 3000 + "I" + ")" * 3000,
                             "--rows", "2")
        assert code == 2
        assert out == ""
        assert err == ("error: spec nested deeper than 100 levels "
                       f"(byte offset {100 * len('prepend1(')})\n")


class TestInternalCheckError:
    def test_exits_3_with_message(self, capsys, monkeypatch):
        import binomid.classify

        def broken(f, bound):
            raise InternalCheckError("window criterion and triangle integrality disagree")

        monkeypatch.setattr(binomid.classify, "is_binomid", broken)
        # the full battery settles binomid for I from the gcd scan, so the
        # broken check runs only when binomid is selected alone
        code, out, err = run(capsys, "classify", "I", "--bound", "5", "--only", "binomid")
        assert code == 3
        assert out == ""
        assert err == ("error: internal check failed: window criterion and "
                       "triangle integrality disagree\n")

    def test_full_battery_exits_3_when_its_first_scan_fails(self, capsys, monkeypatch):
        import binomid.classify

        def broken(f, bound):
            raise InternalCheckError("gcd scan disagrees with itself")

        monkeypatch.setattr(binomid.classify, "is_gcd_sequence", broken)
        code, out, err = run(capsys, "classify", "I", "--bound", "5")
        assert code == 3
        assert out == ""
        assert err == "error: internal check failed: gcd scan disagrees with itself\n"


class TestErrorsPrintNoReports:
    """A classify run that exits 2 prints nothing to stdout: the per-prime
    decomposition and the profile run before the first report line."""

    @pytest.mark.parametrize("argv, message", [
        (["classify", "I", "--bound", "5", "--per-prime", "1"],
         "prime bound must be at least 2"),
        (["classify", "product(list:2,3,5,7,lucas:1,1)", "--bound", "4",
          "--only", "divisor_chain", "--per-prime", "5"],
         "term at index 3 is zero"),
    ])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_stdout_stays_empty(self, capsys, argv, message, fmt):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


class TestParserReuse:
    ARGVS = (
        ["classify", "I"],
        ["classify", "I", "--bound", "5", "--only", "binomid"],
        ["classify", "I", "--bound", "5"],
        ["verify", "slice-identity", "I", "--n-max", "3"],
        ["verify", "slice-identity", "I"],
    )

    def test_parser_is_built_once(self):
        assert _build_arg_parser() is _build_arg_parser()

    def test_consecutive_calls_leak_no_state(self, capsys):
        fresh = []
        for argv in self.ARGVS:
            _build_arg_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        _build_arg_parser.cache_clear()
        reused = [run(capsys, *argv) for argv in self.ARGVS]
        assert reused == fresh
        usage, only, battery = reused[:3]
        assert usage[0] == 2 and usage[2].startswith("usage: ")
        assert only == (0, "PASS binomid (bound 5)\n", "")
        assert len(battery[1].splitlines()) == len(cls.PROPERTIES)
        args = _build_arg_parser().parse_args(["verify", "slice-identity", "I"])
        assert (args.n_max, args.m_max, args.k_max) == (6, 4, 6)


class TestClassifyJsonExtras:
    """`--per-prime` and `--profile` under `--format json`."""

    BASE = ("classify", "cpow:6", "--bound", "4", "--only", "binomid")

    def test_without_extras_the_document_is_the_report_list(self, capsys):
        code, out, _ = run(capsys, *self.BASE, "--format", "json")
        assert code == 0
        assert json.loads(out) == [{"property": "binomid", "bound": 4,
                                    "verdict": "holds_to_bound", "witness": None}]

    def test_notes_are_kept(self, capsys):
        # the notes text output prints in brackets: a vacuous column
        # refutation, a reduced bound and a reduced depth
        code, out, _ = run(capsys, "classify", "list:1,2,3,4,5,7", "--bound", "5",
                           "--levels", "2", "--only", "binomid_every_level",
                           "--format", "json")
        assert code == 1
        assert json.loads(out)[0]["note"] == "column entry is not an integer"
        code, out, _ = run(capsys, "classify", "list:1,2,3", "--bound", "10",
                           "--levels", "5", "--only", "binomid,binomid_every_level",
                           "--format", "json")
        assert code == 0
        assert [rep["note"] for rep in json.loads(out)] == [
            "finite sequence: bound reduced to 3", "finite sequence: depth reduced to 3"]

    def test_per_prime_alone(self, capsys):
        code, out, _ = run(capsys, *self.BASE, "--per-prime", "7", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["reports", "per_prime"]
        assert [r["property"] for r in doc["reports"]] == ["binomid"]
        assert doc["per_prime"] == {
            "prime_bound": 7, "bound": 4,
            "primes": [{"prime": p, "property": "binomid_additive", "bound": 4,
                        "verdict": "holds_to_bound", "witness": None,
                        "note": f"additive criterion, base {p}"} for p in (2, 3)],
            "undecided": [], "combined_verdict": "holds_to_bound",
            "agrees_with_direct": True}

    def test_profile_alone(self, capsys):
        code, out, _ = run(capsys, "classify", "fib", "--bound", "20", "--profile",
                           "--format", "json")
        assert code == 1  # fibonacci is not a divisor chain
        doc = json.loads(out)
        assert list(doc) == ["reports", "profile"]
        assert len(doc["reports"]) == len(cls.PROPERTIES)
        profile = doc["profile"]
        assert profile["bound"] == 20
        assert profile["precondition_ok"] is True
        assert profile["precondition_witness"] is None
        by_name = {c["name"]: c for c in profile["criteria"]}
        assert list(by_name) == ["multiplicative", "homomorphic", "gcd_sequence"]
        assert by_name["gcd_sequence"] == {
            "name": "gcd_sequence", "verdict": "holds_to_bound", "witness": None,
            "direct_verdict": "holds_to_bound", "agrees": True}
        assert by_name["multiplicative"]["verdict"] == "fails"
        assert by_name["multiplicative"]["witness"] == {"n": 6, "g": "4"}

    def test_both_flags_together(self, capsys):
        code, out, _ = run(capsys, *self.BASE, "--per-prime", "7", "--profile",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["reports", "per_prime", "profile"]
        assert [p["prime"] for p in doc["per_prime"]["primes"]] == [2, 3]
        assert doc["profile"] == {
            "bound": 4, "precondition_ok": False,
            "precondition_witness": {"reason": "first term is not 1", "value": "6"},
            "criteria": []}

    def test_undecided_terms_and_failing_primes(self, capsys):
        code, out, _ = run(capsys, "classify", "list:1,2,3,4,5,12,7", "--bound", "7",
                           "--only", "binomid", "--per-prime", "3", "--format", "json")
        text_code, text, _ = run(capsys, "classify", "list:1,2,3,4,5,12,7", "--bound",
                                 "7", "--only", "binomid", "--per-prime", "3")
        assert code == text_code
        per_prime = json.loads(out)["per_prime"]
        assert per_prime["undecided"] == [{"n": 5, "cofactor": "5"},
                                          {"n": 7, "cofactor": "7"}]
        assert per_prime["agrees_with_direct"] is None
        for entry in per_prime["primes"]:
            assert f"per-prime {entry['prime']}: {entry['verdict']}" in text
        assert "per-prime undecided: term 5 has cofactor 5 beyond prime bound 3" in text

    def test_not_a_divisor_product_precondition(self, capsys):
        code, out, _ = run(capsys, "classify", "list:1,2,2,2,2,2", "--bound", "6",
                           "--only", "divisor_product", "--profile", "--format", "json")
        assert code == 1
        assert json.loads(out)["profile"]["precondition_witness"] == {
            "reason": "not a divisor-product", "n": 6,
            "value": {"num": "1", "den": "2"}}

    def test_extras_are_deterministic(self, capsys):
        argv = (*self.BASE, "--per-prime", "7", "--profile", "--format", "json")
        assert run(capsys, *argv) == run(capsys, *argv)


# ---------------------------------------------------------------------------
# The JSON documents as they were built before the direct emitter: a dict of
# {"num", "den"} pairs per entry, encoded by json.dumps(indent=2). They are
# the oracle for the emitter's bytes.

def frac_pair(q):
    return {"num": str(q.numerator), "den": str(q.denominator)}


def triangle_doc(tri, source):
    return {"source": source, "depth": tri.depth,
            "rows": [[frac_pair(v) for v in row] for row in tri.rows]}


def pyramid_doc(slices, source):
    return {"source": source, "depth": len(slices) - 1,
            "slices": [triangle_doc(sl, f"row({m},{source})")
                       for m, sl in enumerate(slices)]}


def invert_doc(inverted, source):
    return {"source": source, "terms": [frac_pair(q) for q in inverted]}


def dumped(doc):
    return json.dumps(doc, indent=2) + "\n"


def printed(fn, *args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        fn(*args)
    return out.getvalue()


def main_output(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


nonzero = st.integers(-30, 30).filter(bool)
signed_terms = st.one_of(st.lists(nonzero, min_size=1, max_size=9),
                         st.lists(st.sampled_from([1, -1, 2, -2, 3]), min_size=1, max_size=9))
sources = st.one_of(
    st.text(max_size=12),
    st.sampled_from(['file:/tmp/q"uote.txt', "file:C:\\data\\terms.txt",
                     "bfile:/données/π_ü.b", "list:1,-2,3", "tab\there", "\u2028"]))


class TestJsonEmitter:
    """The emitter's bytes equal json.dumps(oracle, indent=2) and a newline."""

    @settings(max_examples=150, deadline=None)
    @given(signed_terms, st.integers(0, 9), sources)
    def test_triangle(self, values, depth, source):
        depth = min(depth, len(values))
        tri = triangle(from_list(values), depth)
        got = printed(cli.triangle_to_json, _rows(values[:depth]), depth, source)
        assert got == dumped(triangle_doc(tri, source))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(nonzero, min_size=1, max_size=7), min_size=1, max_size=6)
           .map(lambda bases: [[1]] + bases), sources)
    def test_pyramid(self, bases, source):
        # slice m is the triangle of depth m over a base row of m+1 terms,
        # as core.pyramid builds it from row m
        bases = [(base * (m + 1))[:m + 1] for m, base in enumerate(bases)]
        slices = [triangle(from_list(base), m) for m, base in enumerate(bases)]
        got = printed(cli.pyramid_to_json,
                      [_rows(base[:m]) for m, base in enumerate(bases)], source)
        assert got == dumped(pyramid_doc(slices, source))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.one_of(
        st.integers(-10 ** 30, 10 ** 30),
        st.fractions(max_denominator=10 ** 6).filter(lambda q: q.denominator != 1)),
        min_size=1, max_size=5), min_size=1, max_size=5), st.integers(0, 10 ** 6), sources)
    def test_any_rows(self, rows, depth, source):
        # an int prints over den 1 and a Fraction as its own pair
        doc = {"source": source, "depth": depth,
               "rows": [[frac_pair(Fraction(v)) for v in row] for row in rows]}
        assert printed(cli.triangle_to_json, rows, depth, source) == dumped(doc)

    @settings(max_examples=60, deadline=None)
    @given(signed_terms, st.integers(1, 9))
    def test_invert(self, values, count):
        count = min(count, len(values))
        spec = "list:" + ",".join(map(str, values))
        inverted = mobius_invert(from_list(values), count)
        assert main_output("invert", spec, "--terms", str(count), "--format", "json") == (
            0, dumped(invert_doc(inverted, parse_seqspec(spec).canonical())), "")

    @pytest.mark.parametrize("name", ['q"uote', "back\\slash", "données_π"])
    def test_sources_with_escapes_end_to_end(self, tmp_path, name):
        path = tmp_path / name
        path.write_text("1 2 -3 4 5\n")
        f = from_list([1, 2, -3, 4, 5])
        spec = f"file:{path}"
        code, out, _ = main_output("triangle", spec, "--rows", "4", "--format", "json")
        assert (code, out) == (0, dumped(triangle_doc(triangle(f, 4), spec)))
        code, out, _ = main_output("invert", spec, "--terms", "5", "--format", "json")
        assert (code, out) == (0, dumped(invert_doc(mobius_invert(f, 5), spec)))
        path.write_text("1 3 3 1\n")
        pyr = pyramid(from_list([1, 3, 3, 1]), 3)
        code, out, _ = main_output("pyramid", spec, "--depth", "3", "--format", "json")
        assert (code, out) == (0, dumped(pyramid_doc(pyr.slices, spec)))

    def test_depth_zero(self):
        assert main_output("triangle", "I", "--rows", "0", "--format", "json") == (
            0, dumped({"source": "I", "depth": 0, "rows": [[{"num": "1", "den": "1"}]]}), "")


@contextlib.contextmanager
def int_max_str_digits(limit):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


class TestNoDigitLimit:
    """Exact output has no digit limit, whatever the interpreter's int-to-str
    cap (4300 digits by default); main gives the caller's cap back."""

    def test_fibonacci_300_json_is_exact(self, tmp_path):
        path = tmp_path / "fib300.json"
        with int_max_str_digits(4300), open(path, "w") as out:
            with contextlib.redirect_stdout(out):
                code = main(["triangle", "fib", "--rows", "300", "--format", "json"])
            assert sys.get_int_max_str_digits() == 4300
        assert code == 0
        with int_max_str_digits(0):
            with open(path) as fh:
                last = json.load(fh)["rows"][300]
            fact = [1]
            for v in fibonacci().prefix(300):
                fact.append(fact[-1] * v)
            assert last == [frac_pair(Fraction(fact[300], fact[k] * fact[300 - k]))
                            for k in range(301)]
            assert max(len(pair["num"]) for pair in last) > 4300

    def test_long_inversion_exits_0(self):
        with int_max_str_digits(4300):
            code, out, err = main_output("invert", "gq:2", "--terms", "15000")
        assert (code, err) == (0, "")
        # g(14983) = 2**14983 - 1 has 4511 digits
        assert max(map(len, out.split())) > 4300

    @pytest.mark.parametrize("kind", ["file", "bfile"])
    def test_big_file_value_round_trips(self, tmp_path, kind):
        big = "9" * 5000
        path = tmp_path / "big.txt"
        path.write_text(f"1 {big}\n" if kind == "file" else f"1 1\n2 {big}\n")
        with int_max_str_digits(4300):
            code, out, err = main_output("invert", f"{kind}:{path}", "--terms", "2")
        assert (code, out, err) == (0, f"1 {big}\n", "")

    def test_caller_limit_is_restored(self):
        with int_max_str_digits(5000):
            assert main_output("triangle", "I", "--rows", "2")[0] == 0
            assert sys.get_int_max_str_digits() == 5000
            assert main_output("triangle", "bogus", "--rows", "2")[0] == 2
            assert sys.get_int_max_str_digits() == 5000
            assert main_output("triangle")[0] == 2
            assert sys.get_int_max_str_digits() == 5000

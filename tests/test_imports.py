"""The package loads a submodule only when it is used, and the CLI imports
only what a command runs, while `binomid`'s public names stay as they were.

The laziness checks run each import or command in a fresh interpreter and
read which binomid modules it loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import binomid

SRC = str(Path(binomid.__file__).resolve().parent.parent)

# each submodule and the public names the package takes from it
EXPORTS = {
    "classify": [
        "FAILS", "HOLDS", "ClassificationReport", "DivisorProductProfile",
        "PerPrimeDecomposition", "ProfileCriterion", "additive_binomid_check",
        "battery", "divisor_product_profile", "is_binomid",
        "is_binomid_at_level", "is_binomid_every_level", "is_divisible",
        "is_divisor_chain", "is_divisor_product", "is_dual_gcd",
        "is_gcd_sequence", "is_homomorphic", "is_multiplicative",
        "mobius_invert", "per_prime_decomposition"],
    "core": [
        "ExactRational", "Pyramid", "Triangle", "col_seq", "fbinom",
        "fbinom_values", "ffactorial", "pyramid", "row_seq", "triangle"],
    "errors": [
        "InternalCheckError", "NonIntegralEntryError", "SequenceError",
        "UndefinedTermError", "ZeroTermError"],
    "numtheory": [
        "CyclotomicPoly", "cyclotomic", "cyclotomic_eval", "divisors",
        "euler_phi", "is_prime", "mobius", "prime_power_base", "primes_up_to",
        "valuation"],
    "sequences": [
        "Sequence", "compose_power", "const_seq", "divisor_product_of",
        "double_terms", "factorial_seq", "fibonacci", "from_list", "g_ab",
        "h_m", "identity_seq", "interleave_ones", "lucas", "pascal_column",
        "pascal_row", "power_seq", "prepend_one", "product", "scalar",
        "triangular_seq"],
    "verify": [
        "CheckResult", "ExponentVector", "check_delta_pattern",
        "check_determinant_identity", "check_hm_identity",
        "check_recurrence_step", "check_slice_identity", "check_symmetry",
        "check_window_minimality", "delta", "generic_factorial_exponents",
        "generic_pyramid_entry"],
}

STAR_NAMES = sorted([*EXPORTS, *(name for names in EXPORTS.values() for name in names)])

BASE = {"binomid.cli", "binomid.core", "binomid.errors", "binomid.numtheory",
        "binomid.sequences"}

_REPORT = ("import json, sys; print(json.dumps(sorted("
           "m for m in sys.modules if m.startswith('binomid.'))))")

_RUN_CLI = ("import contextlib, io, json, sys\n"
            "from binomid.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    code = main(sys.argv[1:])\n"
            "print(json.dumps([code, sorted(m for m in sys.modules "
            "if m.startswith('binomid.'))]))\n")


def _fresh(source, *argv):
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", source, *argv], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    return json.loads(out.stdout)


def _command(*argv):
    code, modules = _fresh(_RUN_CLI, *argv)
    return code, set(modules)


# -- laziness ----------------------------------------------------------------

def test_import_binomid_loads_no_submodule():
    assert _fresh("import binomid; " + _REPORT) == []


@pytest.mark.parametrize("argv, code", [
    (["triangle", "I", "--rows", "1"], 0),
    (["pyramid", "I", "--depth", "2"], 0),
    (["triangle", "nope", "--rows", "2"], 2),
], ids=["triangle", "pyramid", "bad-spec"])
def test_triangle_pyramid_and_spec_errors_skip_classify_and_verify(argv, code):
    assert _command(*argv) == (code, BASE)


@pytest.mark.parametrize("argv, code", [
    (["classify", "I", "--bound", "6"], 1),
    (["invert", "I", "--terms", "6"], 0),
], ids=["classify", "invert"])
def test_classify_and_invert_load_classify_only(argv, code):
    assert _command(*argv) == (code, BASE | {"binomid.classify"})


# symmetry rejects the infinite I (exit 2) only after verify is loaded
@pytest.mark.parametrize("argv, code", [
    (["verify", "symmetry", "I"], 2),
    (["verify", "hm", "--m", "2", "--n", "3", "--k", "1"], 0),
], ids=["symmetry", "hm"])
def test_verify_loads_verify(argv, code):
    assert _command(*argv) == (code, BASE | {"binomid.verify"})


# -- the package API ---------------------------------------------------------

def test_star_import_gives_the_public_names():
    namespace = {}
    exec("from binomid import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == STAR_NAMES
    assert sorted(binomid.__all__) == STAR_NAMES


@pytest.mark.parametrize("module", list(EXPORTS))
def test_each_name_is_read_from_its_module(module, monkeypatch):
    home = getattr(binomid, module)
    assert home is sys.modules[f"binomid.{module}"]
    sentinel = object()
    for name in EXPORTS[module]:
        original = getattr(home, name)
        assert getattr(binomid, name) is original, name
        # a replaced attribute, and putting it back, show through at once
        monkeypatch.setattr(home, name, sentinel)
        assert getattr(binomid, name) is sentinel, name
        monkeypatch.undo()
        assert getattr(binomid, name) is original, name


def test_dir_lists_every_public_name():
    assert set(STAR_NAMES) <= set(dir(binomid))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError) as info:
        binomid.nope
    assert str(info.value) == "module 'binomid' has no attribute 'nope'"


def test_from_import_of_a_submodule_gives_the_submodule():
    from binomid import classify
    assert classify is sys.modules["binomid.classify"]


def test_version_is_a_plain_attribute():
    assert vars(binomid)["__version__"] == "0.1.0"

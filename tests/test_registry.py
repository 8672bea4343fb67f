"""The property battery, the spec grammar and the `verify` checks each live
in one table; these tests tie the tables to the classifiers, the checkers,
the CLI and the README."""

import ast
import inspect
import re
from fractions import Fraction
from pathlib import Path

import pytest

from binomid import classify, identity_seq, verify
from binomid.cli import _KINDS, _TOKENS, _VERIFY, main

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", classify.PROPERTIES)
def test_each_property_has_its_classifier(name):
    assert getattr(classify, "is_" + name)(identity_seq(), 5).property == name


def test_only_rejection_lists_the_battery(capsys):
    assert main(["classify", "I", "--bound", "5", "--only", "sparkly"]) == 2
    listed = capsys.readouterr().err.strip().split("choose from ")[1].split(", ")
    assert sorted(listed) == sorted(classify.PROPERTIES + ("binomid_every_level",))


@pytest.mark.parametrize("row", _VERIFY, ids=[row[0] for row in _VERIFY])
def test_each_verify_row_names_its_checker(row):
    # `verify` calls the named checker with the built sequence first, as f,
    # when the row takes a spec, and then every option by name
    _, _, takes_spec, options, checker = row
    params = inspect.signature(getattr(verify, checker)).parameters
    assert list(params) == ["f"] * takes_spec + list(options)
    for name, default in options.items():
        if default is ...:  # a required option
            assert params[name].default is inspect.Parameter.empty


def test_every_argument_kind_has_one_token():
    # a kind with no token, or a token no kind reads, is a grammar out of step
    # with its table; the dict keeps each kind to one pattern
    kinds = {kind for arg_kinds, _ in _KINDS.values() for kind in arg_kinds}
    assert kinds - {"spec"} == set(_TOKENS) - {"name"}


def test_readme_grammar_names_every_kind():
    text = README.read_text()
    block = text.split("### Sequence expressions", 1)[1].split("```")[1]
    names = set(re.findall(r"[A-Za-z_]\w*", block))
    assert set(_KINDS) <= names


def test_readme_quick_tour_values():
    # run the block statement by statement; a trailing `# value` comment is
    # the value of the expression, or of the name assigned, and a value
    # ending in `...` is the start of a sequence. Reprs are compared, since
    # == would let Fraction(63) pass for 63
    block = README.read_text().split("## Library quick tour", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace = {}
    checked = 0
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
            value = namespace[node.targets[0].id] if isinstance(node, ast.Assign) else None
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        if not comment:
            continue
        expected = eval(comment, {"Fraction": Fraction})
        if isinstance(expected, tuple) and expected[-1] is Ellipsis:
            value, expected = tuple(value.prefix(len(expected) - 1)), expected[:-1]
        assert repr(value) == repr(expected), lines[node.end_lineno - 1]
        checked += 1
    assert checked == 5

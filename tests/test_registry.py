"""The property battery and the spec grammar each live in one table; these
tests tie the tables to the classifiers, the CLI and the README."""

import re
from pathlib import Path

import pytest

from binomid import classify, identity_seq
from binomid.cli import _KINDS, main

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", classify.PROPERTIES)
def test_each_property_has_its_classifier(name):
    assert getattr(classify, "is_" + name)(identity_seq(), 5).property == name


def test_only_rejection_lists_the_battery(capsys):
    assert main(["classify", "I", "--bound", "5", "--only", "sparkly"]) == 2
    listed = capsys.readouterr().err.strip().split("choose from ")[1].split(", ")
    assert sorted(listed) == sorted(classify.PROPERTIES + ("binomid_every_level",))


def test_readme_grammar_names_every_kind():
    text = README.read_text()
    block = text.split("### Sequence expressions", 1)[1].split("```")[1]
    names = set(re.findall(r"[A-Za-z_]\w*", block))
    assert set(_KINDS) <= names

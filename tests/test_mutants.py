"""The mutant catalog (`tests/mutants.py`) still fits the code it mutates."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_text_occurs_once_and_its_killers_exist(mutant):
    text = (ROOT / mutant.path).read_text()
    assert text.count(mutant.text) == 1
    assert mutant.replacement != mutant.text
    for killer in mutant.killers:
        path, name = killer.split("::")
        assert f"\ndef {name}(" in (ROOT / "tests" / path).read_text(), killer


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)

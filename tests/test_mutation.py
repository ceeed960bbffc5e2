"""The mutation table stays applicable (the runner is tests/mutation.py)."""

import re

import pytest

from mutation import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_old_text_occurs_once(mutant):
    """Each mutant's old text occurs exactly once in its file, and the
    tests that must kill it are defined, so a refactor that moves the code
    or renames a test shows up here."""
    assert mutant.new != mutant.old
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    for node in mutant.tests:
        path, _, name = node.partition("::")
        function = re.sub(r"\[.*\]$", "", name)
        assert f"\ndef {function}(" in (ROOT / path).read_text(), node

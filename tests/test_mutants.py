"""The checked-in mutant list (``tools/mutants.py``) still applies to the engine.

Each mutant's text must occur exactly once in its file, and each test named
to kill it must be defined where its node id says; the list's run itself is a
CI job of its own, as it takes a pytest run per mutant.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from mutants import MUTANTS  # noqa: E402


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_applies_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.text) == 1
    assert mutant.replacement != mutant.text and mutant.tests and mutant.why
    for node in mutant.tests:
        path, *names = node.split("[")[0].split("::")
        source = (ROOT / path).read_text()
        assert all(f"def {n}(" in source or f"class {n}" in source for n in names), node

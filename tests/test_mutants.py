"""The committed mutants of mutants.py apply at head: each fragment occurs
exactly once in its file, and each named test file exists.  Running them is
``python tests/mutants.py``, outside tier-1."""

import pytest

from mutants import MUTANTS, ROOT, fragment_count, node_file


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("m", MUTANTS, ids=lambda m: m.name)
def test_a_mutant_applies_at_head(m):
    assert m.path.startswith("src/") and fragment_count(m) == 1
    assert m.fragment != m.replacement and m.tests and m.timeout > 0
    for node in m.tests:
        assert (ROOT / node_file(node)).is_file(), node

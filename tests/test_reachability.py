"""Every definition in src/lietor is reached by the program or named here.

A module-level function or class, or a method not named __*__, counts as
reached when its name is used outside its own body: as a name, an attribute
or an imported name anywhere else in src/lietor (the package exports of
__init__.py do not count), or in the acceptance tests.  The check is by
name, so it errs towards "reached": a method shares its name with every
other attribute of that name.

A definition that only tests use belongs in FIXTURES with the reason it
stays in src/.  The list cannot go stale: an entry that is reached, or no
longer defined, fails the test as well.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lietor"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

FIXTURES = {
    "matlie.DirectSumSl":
        "the multi-block input behind MatrixLieAlgebra.blocks",
    "refl.untwisted_datum":
        "the full-lattice extension datum that the refl, eala and CLI tests build from",
    "refl.AffineReflectionSystem.contains":
        "the ReS2 oracle of tests/test_refl.py, one membership test per image",
    "uce.UceAlgebra.project":
        "the covering map onto sl_n(A), the oracle of hc1_component",
    "graded.GradedAssocAlgebra.gen":
        "the generator t_i that the coordinate-algebra tests multiply",
    "lattices.LatticeSubset.subgroup_rank":
        "the rank of the subgroup, the finite-index test of the centre lattice",
}


def _used_names(tree):
    """Each name use of the tree, as a name, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _definitions(module, tree):
    """(qualified name, name, node) of each function and class of the
    module, and of each method not named __*__."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if (isinstance(m, ast.FunctionDef)
                        and not (m.name.startswith("__") and m.name.endswith("__"))):
                    yield f"{module}.{node.name}.{m.name}", m.name, m


def _unreached():
    uses = Counter(_used_names(ast.parse(ACCEPTANCE.read_text())))
    defs = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name != "__init__.py":
            uses.update(_used_names(tree))
        defs.extend(_definitions(path.stem, tree))
    unreached = set()
    for qualified, name, node in defs:
        own = Counter(_used_names(node))
        if uses[name] - own[name] <= 0:
            unreached.add(qualified)
    return unreached, {qualified for qualified, _, _ in defs}


def test_every_definition_is_reached_or_a_fixture():
    unreached, _ = _unreached()
    assert sorted(unreached - set(FIXTURES)) == []


def test_fixtures_are_defined_and_unreached():
    unreached, defined = _unreached()
    assert sorted(set(FIXTURES) - defined) == []
    assert sorted(set(FIXTURES) - unreached) == []

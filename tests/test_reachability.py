"""Every definition in src/lietor is reached by the program or named here.

A module-level function, or a method not named __*__, counts as reached
when its name is used outside its own body: as a name, an attribute or an
imported name anywhere else in src/lietor (the package exports of
__init__.py do not count).  A class counts as reached only when code there
outside its body calls it, subclasses it or reads an attribute of it; an
import, an annotation or the second argument of isinstance or issubclass
builds no instance, so it does not count.  The check is by name, so it errs
towards "reached": a method shares its name with every other attribute of
that name.  No test counts, the acceptance tests included: a definition
that only tests read lives in a tests reference module.

A definition that only tests use belongs in FIXTURES with the reason it
stays in src/.  The list cannot go stale: an entry that is reached, or no
longer defined, fails the test as well.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lietor"

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
    "rootsys.PreReflectionSystem.from_root_system":
        "the view of a root system that the roots-ars benchmark workload validates",
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


def _class_uses(tree):
    """Each name that the tree calls, subclasses or reads an attribute of."""
    def named(node):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield from named(node.func)
        elif isinstance(node, ast.ClassDef):
            for base in node.bases:
                yield from named(base)
        elif isinstance(node, ast.Attribute):
            yield from named(node.value)


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
    trees = []
    defs = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name != "__init__.py":
            trees.append(tree)
        defs.extend(_definitions(path.stem, tree))
    names = Counter(name for tree in trees for name in _used_names(tree))
    classes = Counter(name for tree in trees for name in _class_uses(tree))
    unreached = set()
    for qualified, name, node in defs:
        uses, count = ((classes, _class_uses) if isinstance(node, ast.ClassDef)
                       else (names, _used_names))
        if uses[name] - Counter(count(node))[name] <= 0:
            unreached.add(qualified)
    return unreached, {qualified for qualified, _, _ in defs}


def test_every_definition_is_reached_or_a_fixture():
    unreached, _ = _unreached()
    assert sorted(unreached - set(FIXTURES)) == []


def test_fixtures_are_defined_and_unreached():
    unreached, defined = _unreached()
    assert sorted(set(FIXTURES) - defined) == []
    assert sorted(set(FIXTURES) - unreached) == []

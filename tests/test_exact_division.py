"""No float can enter src/lietor through / or **.

A rational scalar is a Python int in every field whenever it is integral,
and Python makes ``int / int`` and ``int ** -k`` floats.  So every ``/``
and every ``**`` in src/lietor must be one whose operands cannot both be
ints (or whose exponent cannot be negative), and ALLOWED names each one
with the reason.  Division by a field value goes through
``field.inverse`` instead.  The list cannot go stale: an entry that names
no such operation fails the test as well.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lietor"

# "<module>.<enclosing definitions>: <expression>" -> why it stays exact.
ALLOWED = {
    "graded._power: x ** e":
        "the branch has e >= 0; a negative e goes through field.inverse",
    "graded._power: field.inverse(x) ** (-e)":
        "the branch has e < 0, so the exponent -e is positive",
    "rootsys.IntegerRoots.__init__: self.base ** i":
        "i runs over range(dim), so the power of the int base is an int",
    "rootsys.normalized_form: Fraction(2) / min(norms, key=abs)":
        "the dividend is a Fraction",
    "scalars.Cyclo.__pow__: self.inverse() ** (-k)":
        "the base is a Cyclo and -k > 0 on this branch",
}


def _divisions_and_powers():
    """Each / and ** of src/lietor, as "<module>.<scope>: <expression>"."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, scope + [child.name])
                continue
            if (isinstance(child, (ast.BinOp, ast.AugAssign))
                    and isinstance(child.op, (ast.Div, ast.Pow))):
                found.append(f"{'.'.join(scope)}: {ast.unparse(child)}")
            walk(child, scope)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), [path.stem])
    return found


def test_every_division_and_power_is_exact_or_allowed():
    assert sorted(set(_divisions_and_powers()) - set(ALLOWED)) == []


def test_allowed_entries_are_in_the_source():
    assert sorted(set(ALLOWED) - set(_divisions_and_powers())) == []

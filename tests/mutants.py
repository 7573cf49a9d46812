"""Committed mutants: one-fragment edits to src/ that some test must catch.

Each entry of MUTANTS names a file under the repository root, one exact
source fragment of it, the replacement, the pytest node ids (files, or
file::test) that must kill the mutant, and a timeout in seconds.

Usage::

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named mutants

The runner copies pyproject.toml, src/ and tests/ to a temporary directory,
so that pytest's ``pythonpath = ["src"]`` resolves to the copy.  It applies
one mutant at a time, runs only its named tests there, and prints killed
(the tests fail), survived (they pass), timed out, or the pytest exit code
of any other outcome.  It exits 1 when a mutant is not killed, and 2 when a
fragment does not occur exactly once or the named tests do not pass on the
unmutated copy.  tests/test_mutants.py checks the fragments and names at head, without
running any mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    fragment: str
    replacement: str
    tests: tuple
    timeout: int


MUTANTS = (
    Mutant(
        "sum-owner-check-never-raises", "src/lietor/graded.py",
        "        if other.owner is not self.owner:\n            raise ValueError(self._mismatch)\n",
        "        pass\n",
        ("tests/test_arith.py::test_a_sum_refuses_a_foreign_owner",), 60),
    Mutant(
        "add-terms-stores-a-zero-sum", "src/lietor/graded.py",
        "        s = v if w is None else w + v\n        if s:\n            out[k] = s\n"
        "        elif w is not None:\n            del out[k]\n",
        "        out[k] = v if w is None else w + v\n",
        ("tests/test_arith.py::test_a_sum_refuses_a_foreign_owner",), 60),
    Mutant(
        "wedge-keeps-the-sign-on-swapped-keys", "src/lietor/uce.py",
        "                key, c = (d2, d1), -(c1 * c2)\n",
        "                key, c = (d2, d1), c1 * c2\n",
        ("tests/test_uce.py::test_wedge_antisymmetry",), 60),
    Mutant(
        "mul-skips-tau", "src/lietor/graded.py",
        "                if t is not one:\n                    c = c * t\n",
        "",
        ("tests/test_graded.py::test_quantum_torus_commutation",), 60),
    Mutant(
        "component-returns-every-term", "src/lietor/graded.py",
        "        return AlgElement._zero_free(self.owner, {} if c is None else {deg: c})\n",
        "        return AlgElement._zero_free(self.owner, dict(self.terms))\n",
        ("tests/test_eala.py::test_sigma_d_values_match_the_lifted_reference",), 120),
    Mutant(
        "lattice-contains-everything", "src/lietor/lattices.py",
        "        return lattice_reduce(v, self.basis) in set(self.cosets)\n",
        "        return True\n",
        ("tests/test_matlie.py",), 180),
    Mutant(
        "scalar-drops-the-sign-of-a-root-of-unity", "src/lietor/serialize.py",
        "        return -out if sign == \"-\" else out\n",
        "        return out\n",
        ("tests/test_cli.py::test_the_same_q_written_with_another_generator_runs_the_same",),
        120),
    Mutant(
        "imaginary-norm-without-cross-terms", "src/lietor/eala.py",
        "                    for j, dj in enumerate(deg) if di and dj), self.field.zero)",
        "                    for j, dj in enumerate(deg) if di and dj and i == j), self.field.zero)",
        ("tests/test_eala.py::test_imaginary_norm_is_the_root_norm_at_every_zero_root",), 120),
    Mutant(
        "inv-a-skips-phi-of-one", "src/lietor/eala.py",
        "    if ok and not data.form.gf.pair(L.A.one(), L.A.one()):\n",
        "    if False:\n",
        ("tests/test_eala.py::test_inv_a_reads_the_form_as_the_box_scan_does",), 120),
    Mutant(
        "classify-table-swaps-b-and-c", "src/lietor/rootsys.py",
        "            (\"B\", 2 * n * n, 2 * n),\n            (\"C\", 2 * n * n, 2 * n * (n - 1)),\n",
        "            (\"C\", 2 * n * n, 2 * n),\n            (\"B\", 2 * n * n, 2 * n * (n - 1)),\n",
        ("tests/test_rootsys.py",), 180),
    Mutant(
        "classify-skips-unreached-roots", "src/lietor/rootsys.py",
        "    missed = next((p for p in range(n) if not reached[p] and any(orig[p])), None)\n",
        "    missed = None\n",
        ("tests/test_rootsys.py",), 180),
    Mutant(
        "unit-pairs-read-e1-alone", "src/lietor/eala.py",
        "    for i in range(L.z_rank):\n        lam = tuple(int(k == i) for k in range(L.z_rank))\n",
        "    for i in range(min(L.z_rank, 1)):\n        lam = tuple(int(k == i) for k in range(L.z_rank))\n",
        ("tests/test_eala.py::test_sigma_rows_match_the_full_enumeration",), 180),
    Mutant(
        "uce-bracket-wedges-b-with-a", "src/lietor/uce.py",
        "                wedge(a, b, wterms)\n",
        "                wedge(b, a, wterms)\n",
        ("tests/test_arith.py::test_brackets_leave_their_operands_alone",), 120),
    Mutant(
        "wedge-skips-the-owner-check", "src/lietor/uce.py",
        "    a._check(b)\n",
        "",
        ("tests/test_arith.py::test_wedge_refuses_a_foreign_owner",), 60),
    Mutant(
        "class-list-without-the-rad-item", "src/lietor/eala.py",
        "            degs = [(0,) * n, *map(tuple, rows[:1]), *(d for d in _unit_sums(n) if d not in rad)]\n",
        "            degs = [(0,) * n, *(d for d in _unit_sums(n) if d not in rad)]\n",
        ("tests/test_eala.py::test_a_failure_on_rad_alone_is_read_at_its_first_hnf_row",), 120),
    Mutant(
        "class-list-one-class-per-root", "src/lietor/eala.py",
        "            roots.setdefault(next(((lo, hi) for lo, hi in self.L.blocks\n"
        "                                   if pair and lo <= min(pair) and max(pair) < hi), ro), ro)\n",
        "            roots.setdefault(ro, ro)\n",
        ("tests/test_eala.py::test_root_classes_are_the_blocks",), 120),
    Mutant(
        "class-list-reads-e-i-alone-off-rad", "src/lietor/eala.py",
        "*(d for d in _unit_sums(n) if d not in rad)]",
        "*(d for d in _unit_sums(n) if d not in rad and sum(d) == 1)]",
        ("tests/test_eala.py::test_a_non_additive_theta_fails_the_exact_ia3",), 120),
    Mutant(
        "leaf-dispatch-builds-the-whole-tree", "src/lietor/cli.py",
        "    node = commands().get(argv[0]) if argv else None\n",
        "    return None\n",
        ("tests/test_cli.py::test_main_builds_only_the_parsers_of_its_leaf",), 60),
    Mutant(
        "extension-datum-keeps-s-prime-as-given", "src/lietor/refl.py",
        "        self.S_prime = frozenset(tuple(r) for r in S_prime)\n"
        "        self.z_rank = z_rank\n",
        "        self.S_prime = S_prime\n        self.z_rank = z_rank\n",
        ("tests/test_refl.py::test_an_extension_datum_holds_its_s_prime_roots_as_tuples",), 60),
)


def node_file(node: str) -> str:
    """The file part of a pytest node id."""
    return node.split("::", 1)[0]


def fragment_count(m: Mutant) -> int:
    return (ROOT / m.path).read_text().count(m.fragment)


def pytest_outcome(root: Path, tests, timeout) -> str:
    """passed, failed, timed out, or the exit code of any other pytest
    outcome (a collection error, no test collected), for the tests in the
    copy at root."""
    # The copy's src comes first through pyproject.toml; a PYTHONPATH into
    # the checkout would shadow it.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        code = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return "timed out"
    return {0: "passed", 1: "failed"}.get(code, f"pytest exit {code}")


def run(m: Mutant, root: Path) -> str:
    """Apply m in the copy at root, run its tests there, restore the file,
    and return killed, survived, timed out or the pytest error."""
    target = root / m.path
    original = target.read_text()
    target.write_text(original.replace(m.fragment, m.replacement, 1))
    try:
        outcome = pytest_outcome(root, m.tests, m.timeout)
    finally:
        target.write_text(original)
    return {"passed": "survived", "failed": "killed"}.get(outcome, outcome)


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    bad = [m.name for m in chosen if fragment_count(m) != 1]
    if bad:
        print(f"fragment not found exactly once: {', '.join(bad)}", file=sys.stderr)
        return 2
    failed = 0
    with tempfile.TemporaryDirectory(prefix="lietor-mutants-") as tmp:
        root = Path(tmp)
        shutil.copy2(ROOT / "pyproject.toml", root)
        for sub in ("src", "tests"):
            shutil.copytree(ROOT / sub, root / sub,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        # A kill counts only if the same tests pass on the unmutated copy.
        nodes = list(dict.fromkeys(node for m in chosen for node in m.tests))
        head = pytest_outcome(root, nodes, sum(m.timeout for m in chosen))
        if head != "passed":
            print(f"the named tests do not pass at head: {head}", file=sys.stderr)
            return 2
        for m in chosen:
            start = time.perf_counter()
            outcome = run(m, root)
            failed += outcome != "killed"
            print(f"{m.name}: {outcome} ({time.perf_counter() - start:.1f} s)", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The benchmark's workloads: what each one runs and the verdicts it must give.

A workload has three parts.  ``setup`` imports lietor and builds the inputs;
``run`` is the timed part, from the first verifier call to the last verdict,
report writing included; ``check`` compares the verdicts ``run`` returned
with the expected ones.  ``setup`` and ``run`` execute in a fresh
interpreter (see child.py), because lietor's module-level caches start cold
for every command-line user.  This module imports no lietor code at import
time, so ``setup`` times the import.

Every input is fixed.  The benchmark seed reaches ``--seed`` of the one
sampled check that takes it (the uce Jacobi sample).  EA1 on eala-qtorus
samples its 200 triples with a hard-coded ``random.Random(7)`` and ignores
``--seed``; the benchmark records that and does not work around it.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"

# sha256 of the committed input files, checked before any run.
INPUT_SHA256 = {
    "q3.json": "aa47d5f6536fd9502341a000fa7505c1d11d4cd744c7431b3611256bbb4923ec",
    "lau2.json": "3e8c3bcf3ce3061f651299574ae67f2f12d55b310160a5a8b010d7cb5c2915ba",
}

# Acceptance criterion 2: 24 root systems, with a stated 30 s budget.
CRITERION2_SYSTEMS = (
    [("A", n) for n in range(1, 6)]
    + [("B", n) for n in range(2, 6)]
    + [("C", n) for n in range(3, 6)]
    + [("D", n) for n in range(4, 6)]
    + [("BC", n) for n in range(1, 6)]
    + [(fam, None) for fam in ("G2", "F4", "E6", "E7", "E8")]
)
CRITERION2_BUDGET_S = 30.0
SYSTEM_VERDICTS = ("axioms", "integral", "coherent", "nondegenerate", "strings")


def input_problems():
    """Names of committed inputs whose sha256 differs from INPUT_SHA256."""
    bad = []
    for name, want in sorted(INPUT_SHA256.items()):
        path = INPUTS / name
        got = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
        if got != want:
            bad.append(f"{name}: sha256 {got} != {want}")
    return bad


def _cli(argv):
    """Run ``lietor.cli.main`` on argv with an ``--out`` report; return the outcome."""
    from lietor.cli import main

    code = main(argv)
    out = Path(argv[argv.index("--out") + 1])
    checks = json.loads(out.read_text())["checks"] if out.is_file() else []
    return {"exit": code, "checks": checks}


def _first_int(text, pattern=r"-?\d+"):
    m = re.search(pattern, text or "")
    return int(m.group(1) if m.groups() else m.group(0)) if m else None


def _cli_verdicts(outcome, not_fail, details=()):
    """(name, ok) pairs for a CLI report: exit code, statuses, detail values.

    Statuses are compared, never report bytes: a verdict is good when it is
    present and its status is not "fail".  ``details`` are (check name,
    predicate on the detail text) pairs.
    """
    by_name = {c["name"]: c for c in outcome.get("checks", [])}
    out = [("exit", outcome.get("exit") == 0)]
    for name in not_fail:
        c = by_name.get(name)
        out.append((name, c is not None and c["status"] != "fail"))
    for name, pred in details:
        c = by_name.get(name)
        out.append((f"{name}:detail", c is not None and c["status"] != "fail"
                    and pred(c.get("detail"))))
    return out


# eala-qtorus -------------------------------------------------------------

def eala_setup(seed):
    import lietor  # noqa: F401
    from lietor.matlie import MatrixLieAlgebra
    from lietor.serialize import coord_algebra_from_json

    A = coord_algebra_from_json(json.loads((INPUTS / "q3.json").read_text()))
    return {"L": MatrixLieAlgebra(3, A)}


def eala_run(state, seed, work):
    return _cli(["eala", "--coord", str(INPUTS / "q3.json"), "--n", "3",
                 "--window", "3", "--out", str(work / "report.json")])


EALA_NOT_FAIL = ("IA1", "IA2", "IA3", "EA1", "EA2", "EA3", "EA4", "EA5", "EA6", "tame")


def eala_verdicts(outcome):
    return _cli_verdicts(outcome, EALA_NOT_FAIL,
                         [("nullity", lambda d: _first_int(d) == 2)])


# uce-toroidal ------------------------------------------------------------

def uce_setup(seed):
    import lietor  # noqa: F401
    from lietor.matlie import MatrixLieAlgebra
    from lietor.serialize import coord_algebra_from_json

    A = coord_algebra_from_json(json.loads((INPUTS / "lau2.json").read_text()))
    return {"L": MatrixLieAlgebra(3, A)}


def uce_run(state, seed, work):
    return _cli(["uce", "--n", "3", "--coord", str(INPUTS / "lau2.json"),
                 "--window", "3", "--jacobi", "200", "--seed", str(seed),
                 "--out", str(work / "report.json")])


UCE_NOT_FAIL = ("st1", "st2", "st3", "jacobi-sample", "projection-kernel-degree-0")


def _stable_dim_2(detail):
    return _first_int(detail, r"dim (\d+)") == 2 and "stable=False" not in (detail or "")


def uce_verdicts(outcome):
    return _cli_verdicts(outcome, UCE_NOT_FAIL,
                         [("projection-kernel-degree-0", _stable_dim_2)])


# roots-ars ---------------------------------------------------------------

def roots_setup(seed):
    import lietor  # noqa: F401
    from lietor.rootsys import build_classical, build_exceptional

    systems = []
    for fam, rank in CRITERION2_SYSTEMS:
        rs = build_exceptional(fam) if rank is None else build_classical(fam, rank)
        systems.append((fam + str(rank or ""), rs))
    return {"systems": systems}


def roots_run(state, seed, work):
    from lietor.refl import PreReflectionSystem, predicates, validate_axioms
    from lietor.rootsys import root_strings_exhaustive

    t0 = time.perf_counter()
    systems = {}
    for name, rs in state["systems"]:
        prs = PreReflectionSystem.from_root_system(rs)
        axioms = validate_axioms(prs).ok
        flags = predicates(prs)
        strings = root_strings_exhaustive(rs)[0]
        systems[name] = {"axioms": axioms, "integral": flags["integral"],
                         "coherent": flags["coherent"],
                         "nondegenerate": flags["nondegenerate"], "strings": strings}
    criterion2_s = time.perf_counter() - t0
    out = _cli(["ars", "build", "--type", "B", "--rank", "3", "--tier", "2",
                "--window", "4", "--out", str(work / "report.json")])
    out.update(systems=systems, criterion2_s=criterion2_s)
    return out


ARS_NOT_FAIL = ("ReS0", "ReS1", "ReS2", "ReS3", "ReS4")


def _at_most_5(detail):
    v = _first_int(detail)
    return v is not None and v <= 5


def roots_verdicts(outcome):
    got = outcome.get("systems", {})
    out = []
    for fam, rank in CRITERION2_SYSTEMS:
        name = fam + str(rank or "")
        sysv = got.get(name, {})
        out.extend((f"{name}:{v}", sysv.get(v) is True) for v in SYSTEM_VERDICTS)
    return out + _cli_verdicts(outcome, ARS_NOT_FAIL,
                               [("structure:max_string_len", _at_most_5)])


class Workload:
    def __init__(self, name, why, setup, run, verdicts, active):
        self.name = name
        self.why = why
        self.setup = setup
        self.run = run
        self.verdicts = verdicts
        # Hooks that must record calls in a traced run of this workload.
        self.active = active
        self.n_verdicts = len(verdicts({}))

    def check(self, outcome):
        """(verdicts checked, names of wrong or missing verdicts)."""
        pairs = self.verdicts(outcome or {})
        return len(pairs), [name for name, ok in pairs if not ok]


_CLI = ("cli.main",)
WORKLOADS = {w.name: w for w in (
    Workload(
        "eala-qtorus",
        "E = C + L + D over the Q(zeta_3) quantum torus at window 3: "
        "Cyclo scalars, q-cocycle, sl_3(A), many small solves and the eala verifiers",
        eala_setup, eala_run, eala_verdicts,
        _CLI + ("scalars.cyclo_mul", "scalars.cyclo_add", "scalars.cyclo_inverse",
                "linalg.rref", "graded.mul", "graded.tau", "matlie.matmul",
                "matlie.homog_basis", "matlie.verify_root_graded", "matlie.form_pair",
                "eala.bracket", "eala.form", "eala.t_alpha", "eala.build_E",
                "eala.verify_iara", "eala.verify_eala", "eala.core_and_tameness")),
    Workload(
        "uce-toroidal",
        "uce of sl_3 over Q[Z^2] at window 3: one big rref in WedgeWindow(2), "
        "bypasses Cyclo and eala",
        uce_setup, uce_run, uce_verdicts,
        _CLI + ("linalg.rref", "uce.wedge_window", "uce.bracket",
                "uce.hc1_component", "uce.steinberg_check")),
    Workload(
        "roots-ars",
        "criterion 2's 24 root systems plus the B3 tier-2 ARS: rootsys, refl and "
        "lattices only, no coordinate algebra",
        roots_setup, roots_run, roots_verdicts,
        _CLI + ("lattices.contains", "lattices.window_elements", "lattices.is_subset_of",
                "rootsys.root_strings_exhaustive", "rootsys.pairing",
                "refl.validate_axioms", "refl.predicates", "refl.validate_ars_axioms",
                "refl.ars_structure")),
)}

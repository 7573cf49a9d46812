import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lietor import cli
from lietor.cli import main, render_affine_table
from lietor.serialize import (
    coord_algebra_from_json,
    datum_from_json,
    datum_to_json,
    root_system_from_json,
    root_system_to_json,
    scalar_from_str,
)

GOLDEN_TABLE = """\
S              t(S)  label     Kac label
-------------------------------------------
reduced        1     S^(1)     S^(1)
B_l (l >= 2)   2     B_l^(2)   D_{l+1}^(2)
C_l (l >= 3)   2     C_l^(2)   A_{2l-1}^(2)
F_4            2     F_4^(2)   E_6^(2)
G_2            3     G_2^(3)   D_4^(3)
BC_1           -     BC_1^(2)  A_2^(2)
BC_l (l >= 2)  1     BC_l^(2)  A_{2l}^(2)
"""


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(args):
    # pytest's pythonpath setting does not reach a child process, so the
    # checkout's src goes first on the child's PYTHONPATH.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "lietor.cli"] + args,
        capture_output=True, text=True, env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_table_affine_golden():
    assert render_affine_table() == GOLDEN_TABLE
    code, out, err = run_cli(["table", "affine"])
    assert code == 0
    assert out == GOLDEN_TABLE


def test_table_byte_stable():
    code1, out1, _ = run_cli(["table", "affine"])
    code2, out2, _ = run_cli(["table", "affine"])
    assert out1 == out2


def test_roots_build_and_classify(tmp_path):
    out = tmp_path / "b3.json"
    code = main(["roots", "build", "--family", "B", "--rank", "3",
                 "--out-roots", str(out)])
    assert code == 0
    code = main(["roots", "classify", "--in", str(out)])
    assert code == 0


def test_ars_build_check_pipeline(tmp_path):
    # build -> datum file -> check -> report file
    datum = tmp_path / "datum.json"
    report = tmp_path / "report.json"
    assert main(["ars", "build", "--type", "BC", "--rank", "1", "--tier", "1",
                 "--window", "2", "--out-ars", str(datum)]) == 0
    assert main(["ars", "check", "--in", str(datum), "--window", "2",
                 "--out", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["ok"] is True
    assert data["inputs"][0]["input"] == str(datum)
    assert any(c["name"] == "ED1" for c in data["checks"])


def test_ars_build_exit_zero(tmp_path):
    rep = tmp_path / "rep.json"
    code = main(["ars", "build", "--type", "B", "--rank", "3", "--tier", "2",
                 "--window", "2", "--out", str(rep)])
    assert code == 0
    data = json.loads(rep.read_text())
    assert data["ok"] is True
    names = [c["name"] for c in data["checks"]]
    assert "labels" in names and "ReS4" in names


def test_report_is_deterministic(tmp_path):
    rep = tmp_path / "r.json"
    main(["ars", "build", "--type", "B", "--rank", "2", "--tier", "2",
          "--window", "2", "--out", str(rep)])
    first = rep.read_text()
    main(["ars", "build", "--type", "B", "--rank", "2", "--tier", "2",
          "--window", "2", "--out", str(rep)])
    assert rep.read_text() == first


def test_qtorus_centre(tmp_path):
    q = tmp_path / "q.json"
    q.write_text(json.dumps({
        "kind": "qtorus", "n": 2,
        "q": [["1", "z3"], ["-z3^0", "1"]], "field": "Q(zeta_3)",
    }))
    # q21 = -1 is not inverse to z3: schema error should exit 2
    code = main(["qtorus", "centre", "--q", str(q)])
    assert code == 2

    q.write_text(json.dumps({
        "kind": "qtorus", "n": 2,
        "q": [["1", "z3"], ["z3^-1", "1"]], "field": "Q(zeta_3)",
    }))
    code = main(["qtorus", "centre", "--q", str(q), "--window", "4"])
    assert code == 0


def test_malformed_json_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["roots", "classify", "--in", str(bad)])
    assert code == 2


def test_check_failure_exit_1(tmp_path):
    # a datum whose long-root subset misses 0 fails ED2: exit code 1
    from lietor.lattices import LatticeSubset
    from lietor.refl import ExtensionDatum
    from lietor.rootsys import build_classical, indivisible_part, length_partition, normalized

    rs = normalized(build_classical("B", 2))
    sh, lg, div, k = length_partition(rs)
    odd = LatticeSubset(1, gens=[[2]], cosets=((1,),))
    full = LatticeSubset.full(1)
    fam = {a: (odd if a in lg else full) for a in rs.roots}
    ed = ExtensionDatum(rs, frozenset(indivisible_part(rs)), 1, fam)
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum_to_json(ed)))
    code = main(["ars", "check", "--in", str(path), "--window", "2"])
    assert code == 1


def test_ars_check_fails_outside_any_small_window(capsys):
    # Lambda_(+-alpha) = {0, 10, 13} + 23Z over A1: ED1 and the
    # reflection-subspace property fail at 0 - 2*10 = -20 = 3 mod 23, a point
    # no window of radius 3 holds; each check prints its witness point.
    path = Path(__file__).parent / "data" / "ed_outside_window.json"
    assert main(["ars", "check", "--in", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    for name in ("ED1", "reflection-subspace"):
        line = next(x for x in lines if x.startswith(f"{name}: "))
        assert line.startswith(f"{name}: fail") and "(3,) escapes" in line
    assert not any("window" in x for x in lines)


def test_unknown_subcommand_exit_2():
    code, out, err = run_cli(["definitely-not-a-command"])
    assert code == 2


def test_sl_and_hc1_commands():
    assert main(["sl", "--n", "3", "--coord", "laurent", "--window", "1",
                 "--jacobi", "20"]) == 0
    assert main(["hc1", "--coord", "laurent", "--degree", "0"]) == 0
    assert main(["affine", "--g", "sl3", "--window", "2"]) == 0
    assert main(["alg", "--coord", "laurent", "--window", "2"]) == 0


def test_negative_window_exit_2():
    assert main(["alg", "--coord", "laurent", "--window", "-1"]) == 2


def test_negative_window_cap_exit_2(monkeypatch):
    monkeypatch.setenv("LIETOR_MAX_WINDOW", "-1")
    assert main(["sl", "--n", "3", "--coord", "laurent"]) == 2


def test_hc1_max_window_is_a_usage_error(capsys):
    # HC_1 is decided exactly: hc1 takes no window, so the flag is unknown
    assert main(["hc1", "--coord", "laurent", "--max-window", "8"]) == 2
    assert "unrecognized arguments: --max-window" in capsys.readouterr().err
    assert main(["hc1", "--coord", "laurent"]) == 0
    assert capsys.readouterr().out.startswith("hc1: pass  (dim 1)")


def test_uce_rank_two_small_window_stabilises(tmp_path):
    coord = tmp_path / "lau2.json"
    coord.write_text('{"kind": "group", "n": 2}')
    for window in ("1", "2"):
        rep = tmp_path / f"uce{window}.json"
        assert main(["uce", "--n", "3", "--coord", str(coord), "--window", window,
                     "--jacobi", "20", "--out", str(rep)]) == 0
        checks = {c["name"]: c for c in json.loads(rep.read_text())["checks"]}
        hc = checks["projection-kernel-degree-0"]
        assert hc["status"] == "pass" and "window" not in hc
        assert hc["detail"] == "dim 2"


def test_internal_error_exit_3(monkeypatch, capsys):
    def broken(args, run):
        raise RuntimeError("broken handler")

    monkeypatch.setitem(cli._HANDLERS, "table", broken)
    assert main(["table", "affine"]) == 3
    assert "internal error: RuntimeError: broken handler" in capsys.readouterr().err


def test_zero_denominator_in_a_coordinate_algebra_exit_2(tmp_path, capsys):
    coord = tmp_path / "bad.json"
    coord.write_text(json.dumps({"kind": "qtorus", "n": 2, "q": [["1", "1/0"], ["1", "1"]]}))
    assert main(["hc1", "--coord", str(coord), "--degree", "0,0"]) == 2
    err = capsys.readouterr().err
    assert "error: zero denominator in '1/0'" in err and "internal error" not in err


def test_zero_denominator_in_a_datum_exit_2(tmp_path, capsys):
    data = json.loads((Path(__file__).parent / "data" / "ed_outside_window.json").read_text())
    data["S"]["space"]["form"][0][0] = "1/0"
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(data))
    assert main(["ars", "check", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error: zero denominator in '1/0'" in err and "internal error" not in err


def test_eala_laurent_report(tmp_path):
    rep = tmp_path / "eala.json"
    assert main(["eala", "--coord", "laurent", "--window", "1", "--out", str(rep)]) == 0
    checks = {c["name"]: c for c in json.loads(rep.read_text())["checks"]}
    assert checks["tame"]["status"] == checks["EA5"]["status"] == "windowed-pass"
    assert "structural" in checks["IA3"]["note"]
    assert checks["IA3"]["window"] == 1


def test_scalar_tokens():
    from fractions import Fraction

    from lietor.scalars import cyclotomic_field

    assert scalar_from_str("3/2") == Fraction(3, 2)
    z3 = cyclotomic_field(3).zeta()
    assert scalar_from_str("z3") == z3
    assert scalar_from_str("z3^-1") == z3.inverse()
    assert scalar_from_str("-z3") == -z3
    assert scalar_from_str("z3^2") == z3.inverse()


def test_root_system_json_round_trip():
    from lietor.rootsys import build_classical, classify

    rs = build_classical("BC", 2)
    data = root_system_to_json(rs)
    back = root_system_from_json(json.loads(json.dumps(data)))
    assert back.roots == rs.roots
    assert classify(back).components == [("BC", 2)]


def test_datum_json_round_trip():
    from lietor.refl import build_affine_rs
    from lietor.rootsys import build_classical

    ars, _, _ = build_affine_rs(build_classical("B", 2), 2)
    data = datum_to_json(ars.datum)
    back = datum_from_json(json.loads(json.dumps(data)))
    for root in ars.S.roots:
        assert back.lam(root) == ars.datum.lam(root)


def test_qtorus_json_round_trip():
    from lietor.scalars import cyclotomic_field

    z3 = cyclotomic_field(3).zeta()
    text = (Path(__file__).parent / "data" / "q3.json").read_text()
    back = coord_algebra_from_json(json.loads(text))
    assert back.kind == "qtorus" and back.q[0][1] == z3 and back.q[1][0] == z3.inverse()


def test_eala_report_golden(tmp_path, monkeypatch):
    # lietor eala over the zeta_3 torus at window 3; the expected report
    # (tests/data/eala_q3_w3.json) is the --out report without its command.
    data = Path(__file__).parent / "data"
    monkeypatch.chdir(data.parent.parent)
    out = tmp_path / "report.json"
    assert main(["eala", "--coord", "tests/data/q3.json", "--n", "3", "--window", "3",
                 "--out", str(out)]) == 0
    assert _without_command(out) == (data / "eala_q3_w3.json").read_text()


def _without_command(report):
    return "".join(line for line in report.read_text().splitlines(keepends=True)
                   if not line.startswith('  "command": '))


# The --out reports of the root layer, without their command, as committed
# under tests/data.
ROOT_LAYER_GOLDEN = [
    ("ars_b3_t2_w4.json", ["ars", "build", "--type", "B", "--rank", "3", "--tier", "2",
                           "--window", "4"]),
    ("refl_bc2.json", ["refl", "--family", "BC", "--rank", "2"]),
    ("refl_g2_normalized.json", ["refl", "--family", "G2", "--normalized"]),
]


@pytest.mark.parametrize("name,argv", ROOT_LAYER_GOLDEN, ids=[g[0] for g in ROOT_LAYER_GOLDEN])
def test_root_layer_report_golden(tmp_path, name, argv):
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert _without_command(out) == (Path(__file__).parent / "data" / name).read_text()


@pytest.mark.parametrize("g", ["sl2", "sl3"])
def test_affine_report_golden(tmp_path, capsys, g):
    # lietor affine at window 3: stdout and the --out report without its
    # command, as committed under tests/data
    data = Path(__file__).parent / "data"
    out = tmp_path / "report.json"
    assert main(["affine", "--g", g, "--window", "3", "--emit", "roots",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == (data / f"affine_{g}_w3.txt").read_text()
    assert _without_command(out) == (data / f"affine_{g}_w3.json").read_text()


def test_affine_rejects_sl1_and_gl3():
    assert main(["affine", "--g", "sl1"]) == 2
    assert main(["affine", "--g", "gl3"]) == 2


def _datum_file(tmp_path, S):
    from lietor.refl import untwisted_datum

    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum_to_json(untwisted_datum(S, 1))))
    return str(path)


def test_ars_check_rejects_a_non_reflection_system(tmp_path, capsys):
    # A2 under the form diag(1, 2, 3): s_alpha(beta) leaves the roots
    from fractions import Fraction
    from lietor.rootsys import build_classical, with_form

    diag = [[Fraction(i + 1) if i == j else Fraction(0) for j in range(3)] for i in range(3)]
    path = _datum_file(tmp_path, with_form(build_classical("A", 2), diag))
    assert main(["ars", "check", "--in", path]) == 2
    err = capsys.readouterr().err
    assert "error: S is not a reflection system: ReS2 fails" in err
    assert "s_(-1, 0, 1)((-1, 1, 0)) leaves the real part" in err
    assert "Fraction(" not in err


def test_ars_check_rejects_a_non_integral_system(tmp_path, capsys):
    # B2 with long roots 3(+-e1 +-e2): <e1, (3, 3)_check> = 1/3
    from fractions import Fraction
    from lietor.rootsys import RootSpace, RootSystem

    one, zero = Fraction(1), Fraction(0)
    roots = {(zero, zero), (one, zero), (-one, zero), (zero, one), (zero, -one)}
    roots |= {(3 * s * one, 3 * t * one) for s in (1, -1) for t in (1, -1)}
    S = RootSystem(RootSpace(2, ((one, zero), (zero, one))), roots)
    assert main(["ars", "check", "--in", _datum_file(tmp_path, S)]) == 2
    err = capsys.readouterr().err
    assert "error: S is not integral: <" in err and "= 1/3" in err


# Small runs of the subcommands that print windowed checks.
WINDOWED_RUNS = [
    ["sl", "--n", "3", "--coord", "laurent", "--window", "1", "--jacobi", "5"],
    ["uce", "--n", "3", "--coord", "laurent", "--window", "1", "--jacobi", "5"],
    ["affine", "--g", "sl2", "--window", "1"],
    ["ars", "build", "--type", "B", "--rank", "2", "--tier", "2", "--window", "2"],
    ["eala", "--coord", "laurent", "--window", "1"],
]


@pytest.mark.parametrize("argv", WINDOWED_RUNS, ids=[a[0] for a in WINDOWED_RUNS])
def test_check_lines_carry_the_window_of_the_report(tmp_path, capsys, argv):
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    lines = iter(capsys.readouterr().out.splitlines())
    checks = json.loads(out.read_text())["checks"]
    assert any("window" in c for c in checks)
    for c in checks:
        line = next(x for x in lines if x.startswith(f"{c['name']}: {c['status']}"))
        if "window" in c:
            assert f"(window {c['window']})" in line
        else:
            assert "(window" not in line


def _checks(tmp_path, argv):
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    return {c["name"]: c for c in json.loads(out.read_text())["checks"]}


def test_ars_build_exact_structure_has_no_window(tmp_path, capsys):
    # ReS0-ReS4 and ars_structure are decided from S and the cosets, all but
    # the string lengths
    checks = _checks(tmp_path, ["ars", "build", "--type", "B", "--rank", "2", "--tier", "2",
                                "--window", "2"])
    exact = [f"ReS{i}" for i in range(5)]
    exact += [f"structure:{k}" for k in ("nullity", "symmetric", "unbroken", "tame")]
    exact += [name for name in checks if name.startswith("class:")]
    assert len(exact) == 13
    for name in exact:
        assert checks[name]["status"] == "pass" and "window" not in checks[name]
    windowed = [name for name, c in checks.items() if "window" in c]
    assert windowed == ["structure:max_string_len"]
    assert checks["structure:max_string_len"]["status"] == "windowed-pass"
    assert checks["structure:max_string_len"]["window"] == 2
    # the labels print once, as their check
    labels = [x for x in capsys.readouterr().out.splitlines() if x.startswith("labels")]
    assert labels == ["labels: pass  (B_2^(2) D_3^(2))"]


def test_alg_associativity_failure_has_a_witness(tmp_path, monkeypatch):
    # a factor 2 on t^1 t^mu for mu != 0 is no 2-cocycle:
    # (t t) t^-1 = 4 t, t (t t^-1) = 2 t
    from fractions import Fraction

    from lietor.graded import GradedAssocAlgebra

    monkeypatch.setattr(GradedAssocAlgebra, "tau",
                        lambda self, lam, mu: Fraction(2 if lam == (1,) and any(mu) else 1))
    out = tmp_path / "report.json"
    assert main(["alg", "--coord", "laurent", "--window", "1", "--out", str(out)]) == 1
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assoc = checks["associativity"]
    assert assoc["status"] == "fail" and assoc["witness"].startswith("associativity fails at")
    assert "detail" not in assoc


def test_sl_rg1_and_rg2_have_no_window(tmp_path):
    # RG1 holds by construction, RG2 is a unit lookup at degree 0
    checks = _checks(tmp_path, ["sl", "--n", "3", "--coord", "laurent", "--window", "1",
                                "--jacobi", "5"])
    for name in ("RG1", "RG2"):
        assert checks[name]["status"] == "pass" and "window" not in checks[name]
    for name in ("RG3", "flag:predivision", "flag:division", "flag:torus"):
        assert checks[name]["status"] == "windowed-pass" and checks[name]["window"] == 1


def test_eala_seed_reaches_ea1(monkeypatch):
    from lietor import eala, report

    draws = []

    def spy(pool, count, seed):
        draws.append((count, seed))
        return report.sampled_triples(pool, count, seed)

    monkeypatch.setattr(eala, "sampled_triples", spy)
    assert main(["eala", "--coord", "laurent", "--window", "1", "--seed", "5"]) == 0
    assert draws == [(200, 5)]

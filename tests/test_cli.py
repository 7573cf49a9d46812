import json
import subprocess
import sys

from lietor import cli
from lietor.cli import main, render_affine_table
from lietor.serialize import (
    coord_algebra_from_json,
    datum_from_json,
    datum_to_json,
    qtorus_to_json,
    root_system_from_json,
    root_system_to_json,
    scalar_from_str,
    scalar_to_str,
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


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "lietor.cli"] + args,
        capture_output=True, text=True,
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


def test_hc1_below_two_windows_exit_2(capsys):
    for max_window in ("0", "1", "2"):
        assert main(["hc1", "--coord", "laurent", "--max-window", max_window]) == 2
        assert "two windows" in capsys.readouterr().err


def test_uce_rank_two_small_window_stabilises(tmp_path):
    coord = tmp_path / "lau2.json"
    coord.write_text('{"kind": "group", "n": 2}')
    for window in ("1", "2"):
        rep = tmp_path / f"uce{window}.json"
        assert main(["uce", "--n", "3", "--coord", str(coord), "--window", window,
                     "--jacobi", "20", "--out", str(rep)]) == 0
        checks = {c["name"]: c for c in json.loads(rep.read_text())["checks"]}
        hc = checks["projection-kernel-degree-0"]
        assert hc["status"] == "windowed-pass" and hc["window"] == 3
        assert hc["detail"] == "dim 2 (stable=True)"


def test_internal_error_exit_3(monkeypatch, capsys):
    def broken(args, run):
        raise RuntimeError("broken handler")

    monkeypatch.setitem(cli._HANDLERS, "table", broken)
    assert main(["table", "affine"]) == 3
    assert "internal error: RuntimeError: broken handler" in capsys.readouterr().err


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
    assert scalar_from_str(scalar_to_str(z3.inverse())) == z3.inverse()


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


def test_element_json_round_trip():
    from fractions import Fraction

    from lietor.graded import GradedAssocAlgebra
    from lietor.matlie import MatrixLieAlgebra
    from lietor.serialize import mat_element_from_json, mat_element_to_json

    L = MatrixLieAlgebra(3, GradedAssocAlgebra.laurent())
    x = L.E(0, 1, L.A.monomial((2,), Fraction(3, 7))) + L.cartan(0, 2)
    data = json.loads(json.dumps(mat_element_to_json(x)))
    assert mat_element_from_json(L, data) == x


def test_qtorus_json_round_trip():
    from lietor.graded import GradedAssocAlgebra
    from lietor.scalars import cyclotomic_field

    F3 = cyclotomic_field(3)
    z3 = F3.zeta()
    A = GradedAssocAlgebra.quantum_torus([[F3.one, z3], [z3.inverse(), F3.one]], F3)
    back = coord_algebra_from_json(json.loads(json.dumps(qtorus_to_json(A))))
    assert back.kind == "qtorus" and back.q[0][1] == z3

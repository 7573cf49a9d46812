import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import regen_goldens as goldens
from lietor import cli
from lietor.cli import main, make_parser
from lietor.rootsys import with_form
from lietor.serialize import (
    coord_algebra_from_json,
    datum_from_json,
    datum_to_json,
    root_system_from_json,
    root_system_to_json,
    scalar_from_str,
)
from qtorus_reference import associativity_witness, unit_holds

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


def test_importing_lietor_loads_neither_dataclasses_nor_inspect():
    # the two cost most of the package's import time, and each CLI run pays it
    code = ("import sys; before = set(sys.modules); import lietor, lietor.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


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


@pytest.mark.parametrize("fam, rk", [("B", 3), ("C", 3), ("G2", None), ("BC", 2)])
def test_refl_normalized_reads_a_negated_form_as_the_form(tmp_path, fam, rk):
    rs = cli.build_system(fam, rk)
    negated = with_form(rs, [[-x for x in row] for row in rs.space.form])
    checks = []
    for name, system in (("form", rs), ("negated", negated)):
        path, report = tmp_path / f"{name}.json", tmp_path / f"{name}_report.json"
        path.write_text(json.dumps(root_system_to_json(system)))
        assert main(["refl", "--in", str(path), "--normalized", "--out", str(report)]) == 0
        checks.append(json.loads(report.read_text())["checks"])
    assert checks[0] == checks[1]
    assert [c["status"] for c in checks[0]].count("pass") == len(checks[0])
    # the norms of the normalized form: 2 on the short roots
    norms = {"B": "2, 4", "C": "2, 4", "G2": "2, 6", "BC": "2, 4, 8"}[fam]
    assert {"detail": norms, "name": "form:norms", "status": "pass"} in checks[0]


def test_ars_build_check_pipeline(tmp_path):
    # build -> datum file -> check -> report file
    datum = tmp_path / "datum.json"
    report = tmp_path / "report.json"
    assert main(["ars", "build", "--type", "BC", "--rank", "1", "--tier", "1",
                 "--window", "2", "--out-ars", str(datum)]) == 0
    assert main(["ars", "check", "--in", str(datum), "--out", str(report)]) == 0
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
    code = main(["qtorus", "centre", "--q", str(q)])
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
    code = main(["ars", "check", "--in", str(path)])
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
    assert main(["sl", "--n", "3", "--coord", "laurent"]) == 0
    assert main(["hc1", "--coord", "laurent", "--degree", "0"]) == 0
    assert main(["affine", "--g", "sl3"]) == 0
    assert main(["alg", "--coord", "laurent"]) == 0


@pytest.mark.parametrize("argv", [
    ["ars", "build"],
    ["uce", "--coord", "laurent"],
    ["eala", "--coord", "laurent"],
], ids=lambda argv: argv[0])
def test_negative_window_exit_2(argv, capsys):
    least = 1 if argv[0] == "eala" else 0
    assert main(argv + ["--window", "-1"]) == 2
    assert f"argument --window: must be at least {least}, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("coord", [str(goldens.DATA / "q3.json"), "laurent"],
                         ids=["q3", "laurent"])
def test_eala_window_0_is_a_usage_error(coord, capsys):
    # C_min is read on the window, and sigma_D vanishes in degree 0, so at
    # window 0 C would be empty
    assert main(["eala", "--coord", coord, "--window", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument --window: must be at least 1, got 0" in err
    assert "functional outside C" not in err


def test_hc1_max_window_is_a_usage_error(capsys):
    # HC_1 is decided exactly: hc1 takes no window, so the flag is unknown
    assert main(["hc1", "--coord", "laurent", "--max-window", "8"]) == 2
    assert "unrecognized arguments: --max-window" in capsys.readouterr().err
    assert main(["hc1", "--coord", "laurent"]) == 0
    assert capsys.readouterr().out.startswith("hc1: pass  (dim 1)")


def test_options_nothing_reads_are_usage_errors(capsys):
    # eala builds D from the degree derivations alone, and sl has one action
    assert main(["eala", "--coord", "laurent", "--window", "1", "--D", "degree"]) == 2
    assert "unrecognized arguments: --D" in capsys.readouterr().err
    assert main(["sl", "verify", "--n", "3", "--coord", "laurent"]) == 2
    assert "unrecognized arguments: verify" in capsys.readouterr().err
    # Jacobi on sl_n(A) and EA1's invariance hold by construction: neither
    # command samples
    for cmd in (["sl"], ["eala", "--coord", "laurent"]):
        for opt in (["--seed", "1"], ["--jacobi", "5"]):
            assert main(cmd + opt) == 2
            assert f"unrecognized arguments: {' '.join(opt)}" in capsys.readouterr().err


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

    monkeypatch.setattr(cli, "cmd_table", broken)
    assert main(["table", "affine"]) == 3
    assert "internal error: RuntimeError: broken handler" in capsys.readouterr().err


def test_an_internal_key_error_exits_3(monkeypatch, capsys):
    # a missing JSON key is a ValueError that names it, so a KeyError is a
    # fault of the program, not of the input
    def broken(args, run):
        raise KeyError("IA3")

    monkeypatch.setattr(cli, "cmd_table", broken)
    assert main(["table", "affine"]) == 3
    assert "internal error: KeyError: 'IA3'" in capsys.readouterr().err


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
    # Rad = Z: the class list and sigma_D at the degree 1 decide every line
    rep = tmp_path / "eala.json"
    assert main(["eala", "--coord", "laurent", "--window", "1", "--out", str(rep)]) == 0
    checks = {c["name"]: c for c in json.loads(rep.read_text())["checks"]}
    assert checks["tame"]["status"] == checks["EA5"]["status"] == "pass"
    assert "structural" in checks["IA3"]["note"]
    assert not any("window" in c for c in checks.values())


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
    assert back.support is None and back.q[0][1] == z3 and back.q[1][0] == z3.inverse()


def test_q_token_of_another_field_is_refused_when_read(capsys):
    # z3 is no element of Q: the file is refused when it is read, not when
    # the centre lattice first meets the entry.
    path = Path(__file__).parent / "data" / "q_wrong_field.json"
    with pytest.raises(ValueError, match=re.escape("z3 in Q(zeta_3) is not rational, so not in Q")):
        coord_algebra_from_json(json.loads(path.read_text()))
    assert main(["qtorus", "centre", "--q", str(path)]) == 2
    assert "error: z3 in Q(zeta_3) is not rational, so not in Q" in capsys.readouterr().err


def test_unknown_support_of_a_group_algebra_is_refused(capsys):
    # in_support and hc1_component must read the same support: an unknown
    # one would be all of Z^n to the first and polynomial to the second
    path = goldens.DATA / "group_support_positive.json"
    with pytest.raises(ValueError, match="unknown support 'positive'"):
        coord_algebra_from_json(json.loads(path.read_text()))
    assert main(["hc1", "--coord", str(path), "--degree", "0"]) == 2
    assert "error: unknown support 'positive'" in capsys.readouterr().err


def test_qtorus_leaves_refuse_a_bounded_support(tmp_path, capsys):
    # K[N^2] is no torus: t_1 has no inverse there
    path = tmp_path / "nonneg.json"
    path.write_text('{"kind": "group", "n": 2, "support": "nonneg"}')
    assert main(["qtorus", "centre", "--q", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error: expected a quantum torus description" in err


# Malformed JSON inputs, each refused where it is read: exit 2, its cause on
# stderr, and no report.  Unchecked, a ragged q or a top-level array raises an
# internal error, and the others are read as another input: a q of 1 row for
# n = 3, or the string "1", as [["1"]], n = -1 as rank 0, and a short root,
# form row or form as one padded with zeros, which IntegerRoots.key cannot
# tell apart.
MALFORMED = {
    "q ragged": (["qtorus", "centre", "--q"], "malformed_q_ragged.json",
                 "the quantum matrix must be 2 x 2, got rows of lengths [2, 1]"),
    "q of 1 row for n = 3": (["qtorus", "centre", "--q"], "malformed_q_rank_mismatch.json",
                             "q must have n = 3 rows, got 1"),
    "q a string": (["qtorus", "centre", "--q"], "malformed_q_string.json",
                   "q must be a list of rows, got '1'"),
    "n negative": (["qtorus", "centre", "--q"], "malformed_group_negative_rank.json",
                   "the lattice rank n must be at least 0, got -1"),
    "qtorus centre of an array": (["qtorus", "centre", "--q"], "malformed_array.json",
                                  "a coordinate algebra must be a JSON object, got list"),
    "sl of an array": (["sl", "--coord"], "malformed_array.json",
                       "a coordinate algebra must be a JSON object, got list"),
    "classify a short root": (["roots", "classify", "--in"], "malformed_root_short.json",
                              "root ['-1'] must have 2 coordinates"),
    "refl a short root": (["refl", "--in"], "malformed_root_short.json",
                          "root ['-1'] must have 2 coordinates"),
    "refl a short form row": (["refl", "--in"], "malformed_form_short_row.json",
                              "form row ['0'] must have 2 coordinates"),
    "refl a form of 1 row": (["refl", "--in"], "malformed_form_one_row.json",
                             "the form must have 2 rows"),
    "ars a short S-prime root": (["ars", "check", "--in"], "malformed_datum_s_prime_short.json",
                            "S' root ['-1'] must have 2 coordinates"),
    "ars a short family key": (["ars", "check", "--in"], "malformed_datum_family_key_short.json",
                               "family key ['1'] must have 2 coordinates"),
    "classify an array": (["roots", "classify", "--in"], "malformed_array.json",
                          "a root system must be a JSON object, got list"),
    "refl an array": (["refl", "--in"], "malformed_array.json",
                      "a root system must be a JSON object, got list"),
    "ars check an array": (["ars", "check", "--in"], "malformed_array.json",
                           "an extension datum must be a JSON object, got list"),
    "q a number token": (["qtorus", "centre", "--q"], "malformed_q_number_token.json",
                         'a scalar is a string such as "1/2" or "-z3^2", got 1'),
    "sl of a q number token": (["sl", "--coord"], "malformed_q_number_token.json",
                               'a scalar is a string such as "1/2" or "-z3^2", got 1'),
    "qtorus n a list": (["qtorus", "centre", "--q"], "malformed_qtorus_rank_list.json",
                        "the lattice rank n must be an integer, got [2]"),
    "group n a list": (["sl", "--coord"], "malformed_group_rank_list.json",
                       "the lattice rank n must be an integer, got [2]"),
    "field a number": (["qtorus", "centre", "--q"], "malformed_field_number.json",
                       "unknown field 7"),
    # a missing key names the object that lacks it
    "qtorus without q": (["qtorus", "centre", "--q"], "malformed_qtorus_no_q.json",
                         "a coordinate algebra has no key 'q'"),
    "qtorus without n": (["sl", "--coord"], "malformed_qtorus_no_n.json",
                         "a coordinate algebra has no key 'n'"),
    "q token without field": (["qtorus", "centre", "--q"], "malformed_q_token_no_field.json",
                              "a scalar has no key 'field'"),
    "space without form": (["roots", "classify", "--in"], "malformed_space_no_form.json",
                           "the space of a root system has no key 'form'"),
    "datum without Z_rank": (["ars", "check", "--in"], "malformed_datum_no_z_rank.json",
                             "an extension datum has no key 'Z_rank'"),
    "family entry without n": (["ars", "check", "--in"], "malformed_datum_family_no_n.json",
                               "a lattice subset has no key 'n'"),
    # a mistyped key is refused, not read as a default: without "kind" the
    # torus of Rad = 2Z^2 was read as the group algebra, and a family entry
    # without "lattice" as the zero lattice
    "kind mistyped": (["qtorus", "centre", "--q"], "malformed_kind_mistyped.json",
                      "a coordinate algebra has no key 'kind'"),
    "a root system as a coordinate algebra": (["qtorus", "centre", "--q"], "roots_b3.json",
                                              "a coordinate algebra has no key 'kind'"),
    "family entry lattice mistyped": (["ars", "check", "--in"],
                                      "malformed_datum_family_latice.json",
                                      "a lattice subset has an unknown key 'latice'"),
    # a nested value of the wrong JSON type exits 2, not 3
    "family entry a list": (["ars", "check", "--in"], "malformed_datum_family_list.json",
                            "a lattice subset must be a JSON object, got list"),
    "dim a list": (["roots", "classify", "--in"], "malformed_space_dim_list.json",
                   "the dimension dim must be an integer, got [2]"),
    # a nested rank is read through the check of every other rank: a list
    # raised a TypeError, and int() truncated a float
    "Z_rank a list": (["ars", "check", "--in"], "malformed_datum_z_rank_list.json",
                      "the lattice rank Z_rank must be an integer, got [1]"),
    "Z_rank a float": (["ars", "check", "--in"], "malformed_datum_z_rank_float.json",
                       "the lattice rank Z_rank must be an integer, got 1.5"),
    "family entry n a list": (["ars", "check", "--in"], "malformed_datum_family_n_list.json",
                              "the lattice rank n of a lattice subset must be an integer, "
                              "got [1]"),
    "Z_rank a word": (["ars", "check", "--in"], "malformed_datum_z_rank_word.json",
                      "the lattice rank Z_rank must be an integer, got 'one'"),
    # every lattice and coset entry is read through the same integer reader:
    # int() truncated 0.5 and 1.5, and a row that is no list raised a
    # TypeError; both keys are required, as datum_to_json writes both
    "cosets entry a float": (["ars", "check", "--in"], "malformed_datum_cosets_float.json",
                             "an entry of 'cosets' of a lattice subset must be an integer, "
                             "got 0.5"),
    "lattice entry a float": (["ars", "check", "--in"], "malformed_datum_lattice_float.json",
                              "an entry of 'lattice' of a lattice subset must be an integer, "
                              "got 1.5"),
    "lattice entry a string": (["ars", "check", "--in"], "malformed_datum_lattice_string.json",
                               "an entry of 'lattice' of a lattice subset must be an integer, "
                               "got '1.5'"),
    "lattice row an int": (["ars", "check", "--in"], "malformed_datum_lattice_row_int.json",
                           "'lattice' of a lattice subset must be a list of rows of length 1, "
                           "got [2]"),
    "family entry without lattice": (["ars", "check", "--in"],
                                     "malformed_datum_family_no_lattice.json",
                                     "a lattice subset has no key 'lattice'"),
    "family entry without cosets": (["ars", "check", "--in"],
                                    "malformed_datum_family_no_cosets.json",
                                    "a lattice subset has no key 'cosets'"),
    # a root system reads only its own keys, and each coordinate as an int or
    # a string: a list raised a TypeError, the float 0.1 was read as
    # 3602879701896397/36028797018963968, and a mistyped key was ignored
    "root coordinate a list": (["roots", "classify", "--in"],
                               "malformed_root_coordinate_list.json",
                               "a coordinate of 'roots' of a root system must be an integer "
                               "or a string \"p\" or \"p/q\", got ['1']"),
    "root coordinate a float": (["roots", "classify", "--in"], "malformed_root_float.json",
                                "a coordinate of 'roots' of a root system must be an integer "
                                "or a string \"p\" or \"p/q\", got 0.1"),
    "space key fomr": (["roots", "classify", "--in"], "malformed_space_key_fomr.json",
                       "the space of a root system has an unknown key 'fomr'"),
    "root system key rots": (["roots", "classify", "--in"], "malformed_root_system_key_rots.json",
                             "a root system has an unknown key 'rots'"),
    # a scalar token reads its numerators and denominators through json_int:
    # int() read 2.5 as 2, a coeffs or field of the wrong type raised a
    # TypeError or an AttributeError, and a word N named no key
    "q token coefficient a float": (["qtorus", "centre", "--q"],
                                    "malformed_q_token_coeff_float.json",
                                    "a numerator of a scalar must be an integer, got 2.5"),
    "q token coeffs an int": (["qtorus", "centre", "--q"], "malformed_q_token_coeffs_int.json",
                              "the coeffs of a scalar must be a list of [num, den] pairs, got 5"),
    "q token field an int": (["qtorus", "centre", "--q"], "malformed_q_token_field_int.json",
                             "the field of a scalar must be a string, got 3"),
    "q token zeta of a word": (["qtorus", "centre", "--q"], "malformed_q_token_zeta_word.json",
                               "the N of a scalar field Q(zeta_N) must be an integer, got 'x'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_a_malformed_json_input_exits_2_and_names_its_cause(capsys, case):
    leaf, name, error = MALFORMED[case]
    assert main(leaf + [str(goldens.DATA / name)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"error: {error}" in err


# A group algebra is the quantum torus whose q_ij are all 1: each pair is one
# algebra in two descriptions, and each run prints the same on both
GROUP_AND_Q_1 = {
    "n1": ({"kind": "group", "n": 1}, {"kind": "qtorus", "n": 1, "q": [["1"]]}),
    "n2": ({"kind": "group", "n": 2}, {"kind": "qtorus", "n": 2, "q": [["1", "1"], ["1", "1"]]}),
}
GROUP_AND_Q_1_RUNS = [["eala", "--n", "3", "--window", "2"], ["sl", "--n", "3"],
                      ["uce", "--n", "3", "--window", "1"], ["hc1", "--degree", "0"],
                      ["qtorus", "centre"]]


@pytest.mark.parametrize("argv", GROUP_AND_Q_1_RUNS, ids=lambda a: a[0])
@pytest.mark.parametrize("pair", sorted(GROUP_AND_Q_1))
def test_a_group_algebra_runs_as_the_torus_with_q_1(tmp_path, capsys, pair, argv):
    got = []
    for name, data in zip(("group", "torus"), GROUP_AND_Q_1[pair]):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        code = main(argv + ["--q" if argv[0] == "qtorus" else "--coord", str(path)])
        got.append((code, capsys.readouterr().out))
    assert got[0] == got[1] and got[0][0] == 0 and got[0][1]


# q6_as_z3.json is q6_in_zeta3.json with q written through z3 = zeta_3 as
# -z3^2 and -z3 instead of z6 and z6^-1: one algebra, so each run prints the
# same on both; a scalar_from_str that drops the sign of -zN^k reads q as a
# cube root of unity, and the centre lattice 6Z^2 as 3Z^2
Q6_RUNS = [["eala", "--n", "3", "--window", "2"], ["sl", "--n", "3"],
           ["uce", "--n", "3", "--window", "1", "--jacobi", "20"], ["hc1", "--degree", "6,0"],
           ["qtorus", "centre"], ["qtorus", "scder", "--degree", "0,6"]]


@pytest.mark.parametrize("argv", Q6_RUNS, ids=lambda a: "-".join(a[:2]))
def test_the_same_q_written_with_another_generator_runs_the_same(capsys, argv):
    got = []
    for name in ("q6_in_zeta3.json", "q6_as_z3.json"):
        code = main(argv + ["--q" if argv[0] == "qtorus" else "--coord", str(goldens.DATA / name)])
        got.append((code, capsys.readouterr().out))
    assert got[0] == got[1] and got[0][0] == 0 and got[0][1]


def test_z6_over_zeta3_is_minus_z3_squared():
    # Q(zeta_6) = Q(zeta_3), with zeta_6 = -zeta_3^2
    A = coord_algebra_from_json(json.loads((goldens.DATA / "q6_in_zeta3.json").read_text()))
    B = coord_algebra_from_json({"kind": "qtorus", "n": 2, "field": "Q(zeta_3)",
                                 "q": [["1", "-z3^2"], ["-z3", "1"]]})
    assert A.field == B.field and A.q == B.q
    assert A.centre_lattice().basis == [[6, 0], [0, 6]]


@pytest.mark.parametrize("entry", goldens.entries(), ids=lambda e: e["report"])
def test_golden_run(entry):
    # each run of tests/data/goldens.json: its exit code, its --out report
    # without the command, and its stdout and written files where named
    code, texts = goldens.run(entry)
    assert code == entry["exit"]
    for name, text in texts.items():
        assert text == (goldens.DATA / name).read_text(), name


def _leaves(parser, path=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path
    for a in subs:
        for name, sp in a.choices.items():
            yield from _leaves(sp, path + (name,))


def test_every_leaf_of_the_cli_has_a_golden_run():
    leaves = list(_leaves(make_parser()))
    assert len(leaves) == 14 and ("qtorus", "scder") in leaves
    runs = [tuple(e["argv"]) for e in goldens.entries()]
    assert [leaf for leaf in leaves if not any(r[:len(leaf)] == leaf for r in runs)] == []


ROOTS_B3 = str(goldens.DATA / "roots_b3.json")
ED = str(goldens.DATA / "ed_outside_window.json")
Q3 = str(goldens.DATA / "q3.json")
# The options that a leaf does not read, each on that leaf
UNREAD = [
    ["roots", "build", "--in", ROOTS_B3],
    ["roots", "classify", "--in", ROOTS_B3, "--family", "B"],
    ["roots", "classify", "--in", ROOTS_B3, "--rank", "3"],
    ["roots", "classify", "--in", ROOTS_B3, "--out-roots", "roots.json"],
    ["ars", "build", "--in", ED],
    ["ars", "check", "--in", ED, "--type", "B"],
    ["ars", "check", "--in", ED, "--rank", "2"],
    ["ars", "check", "--in", ED, "--tier", "2"],
    ["ars", "check", "--in", ED, "--window", "2"],
    ["ars", "check", "--in", ED, "--out-ars", "datum.json"],
    ["qtorus", "centre", "--q", Q3, "--degree", "1,0"],
    ["qtorus", "centre", "--q", Q3, "--window", "4"],
    ["qtorus", "scder", "--q", Q3, "--window", "2"],
    ["alg", "--coord", "laurent", "--window", "1"],
    ["sl", "--coord", "laurent", "--window", "1"],
    ["affine", "--g", "sl3", "--window", "3"],
]


@pytest.mark.parametrize("argv", UNREAD, ids=lambda a: " ".join(a[:2] + a[-2:-1]))
def test_an_option_a_leaf_does_not_read_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: {argv[-2]}" in err
    assert not list(tmp_path.iterdir())


def _subparser(parser, path):
    for name in path:
        parser = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices[name]
    return parser


@pytest.mark.parametrize("leaf", list(_leaves(make_parser())), ids=" ".join)
def test_a_leaf_parser_is_the_leaf_of_the_whole_tree(leaf):
    assert cli.leaf_path(list(leaf) + ["--out", "r.json"]) == leaf
    full, alone = _subparser(make_parser(), leaf), _subparser(make_parser(leaf), leaf)
    assert alone.format_help() == full.format_help()
    assert alone.format_usage() == full.format_usage()


def _parsed(parser, argv, capsys):
    """The namespace argv parses to, or the exit code and output of argparse."""
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code, capsys.readouterr()


# goldens with the options their runs append, the unread options, and usage
# errors and help on a leaf
PARSED = ([e["argv"] + ["--out", "r.json"] + [x for opt in e.get("files", {}) for x in (opt, "f")]
           for e in goldens.entries()] + UNREAD
          + [["roots", "classify"], ["eala", "--coord", "laurent", "--window", "0"],
             ["eala", "--coord", "laurent", "--C", "max"], ["eala", "-h"],
             ["roots", "build", "--help"], ["uce", "--jacobi", "0"]])


def _argv_id(argv) -> str:
    return " ".join(os.path.relpath(x, SRC.parent) if os.path.isabs(x) else x for x in argv)


@pytest.mark.parametrize("argv", PARSED, ids=_argv_id)
def test_the_leaf_parser_parses_as_the_whole_tree(capsys, argv):
    leaf = cli.leaf_path(argv)
    assert leaf is not None
    assert _parsed(make_parser(leaf), argv, capsys) == _parsed(make_parser(), argv, capsys)


def _parsers_built(monkeypatch, argv) -> int:
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kw):
        built.append(kw.get("prog"))
        init(self, *args, **kw)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    main(argv)
    return len(built)


def test_main_builds_only_the_parsers_of_its_leaf(tmp_path, monkeypatch, capsys):
    # the eala-qtorus run of the benchmark, on the same q3.json; the whole
    # tree has 18 parsers
    argv = ["eala", "--coord", Q3, "--n", "3", "--window", "3", "--out", str(tmp_path / "r.json")]
    assert _parsers_built(monkeypatch, argv) <= 3
    assert json.loads((tmp_path / "r.json").read_text())["ok"]
    assert _parsers_built(monkeypatch, ["roots", "build", "--family", "B"]) <= 3


@pytest.mark.parametrize("argv", [[], ["-h"], ["roots", "-h"], ["nosuch"], ["roots", "nosuch"]],
                         ids=lambda a: " ".join(a) or "no args")
def test_help_and_unknown_commands_build_the_whole_tree(monkeypatch, capsys, argv):
    assert cli.leaf_path(argv) is None
    assert _parsers_built(monkeypatch, argv) == 18
    out, err = capsys.readouterr()
    if argv[1:] == ["-h"]:
        assert "{build,classify}" in out
    elif argv == ["-h"]:
        assert "{table,roots,refl,ars,qtorus,alg,sl,uce,affine,hc1,eala}" in out
    else:
        assert "invalid choice" in err or "required" in err


@pytest.mark.parametrize("leaf", [["roots", "classify"], ["ars", "check"]], ids=" ".join)
def test_classify_and_check_without_an_input_are_usage_errors(capsys, leaf):
    assert main(leaf) == 2
    err = capsys.readouterr().err
    assert "the following arguments are required: --in" in err and "internal error" not in err


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


# Small runs of the subcommands that print windowed checks, with their exit
# codes: on the zero support no degree but 0 is a unit, so the eala
# root-space checks keep the window, and IA1 fails.
WINDOWED_RUNS = [
    (["ars", "build", "--type", "B", "--rank", "2", "--tier", "2", "--window", "2"], 0),
    (["eala", "--coord", str(goldens.DATA / "group_support_zero.json"), "--window", "1"], 1),
]


@pytest.mark.parametrize("argv,code", WINDOWED_RUNS, ids=[a[0] for a, _ in WINDOWED_RUNS])
def test_check_lines_carry_the_window_of_the_report(tmp_path, capsys, argv, code):
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == code
    lines = iter(capsys.readouterr().out.splitlines())
    checks = json.loads(out.read_text())["checks"]
    assert any("window" in c for c in checks)
    for c in checks:
        line = next(x for x in lines if x.startswith(f"{c['name']}: {c['status']}"))
        if "window" in c:
            assert f"(window {c['window']})" in line
        else:
            assert "(window" not in line


def test_affine_prints_no_window(tmp_path, capsys):
    # Rad = Z: root-spaces is decided on the degree classes 0 and k != 0,
    # and --emit prints one line for each
    out = tmp_path / "report.json"
    assert main(["affine", "--g", "sl2", "--emit", "roots", "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert [c["status"] for c in checks] == ["pass"] * 3
    assert not any("window" in c for c in checks)
    assert capsys.readouterr().out.splitlines()[-2:] == ["delta-degree 0: dim 3",
                                                         "delta-degree k != 0: dim 1"]


def _eala_checks(tmp_path, coord, window):
    out = tmp_path / "eala.json"
    assert main(["eala", "--coord", coord, "--n", "3", "--window", window,
                 "--out", str(out)]) == 0
    return out.read_text()


def test_eala_q3_reports_do_not_depend_on_the_window(tmp_path):
    reports = {goldens.without_command(_eala_checks(tmp_path, Q3, w)) for w in "123"}
    assert len(reports) == 1 and "window" not in reports.pop()


# A change of lattice basis g in GL_2(Z): the torus q' with exponents
# g^T a g, where q_ij = zeta_N^a_ij, is the torus q with its grading read
# through g, so each line that carries no window keeps its status and detail.
BASIS_CHANGES = [[[0, 1], [1, 0]], [[2, 1], [1, 1]], [[1, -2], [0, -1]], [[-1, 0], [3, 1]]]


@pytest.mark.parametrize("name", ["q3", "q4"])
def test_eala_lines_keep_their_verdicts_under_a_change_of_lattice_basis(tmp_path, name):
    N = int(name[1:])
    base = json.loads((goldens.DATA / f"{name}.json").read_text())
    a = [[0, 1], [-1, 0]]

    def checks(coord):
        report = json.loads(_eala_checks(tmp_path, coord, "1"))["checks"]
        return [c for c in report if "window" not in c]

    want = checks(str(goldens.DATA / f"{name}.json"))
    assert len(want) == 22
    for k, g in enumerate(BASIS_CHANGES):
        b = [[sum(g[r][i] * a[r][c] * g[c][j] for r in range(2) for c in range(2))
              for j in range(2)] for i in range(2)]
        path = tmp_path / f"g{k}.json"
        path.write_text(json.dumps({**base, "q": [[f"z{N}^{e % N}" if e % N else "1"
                                                   for e in row] for row in b]}))
        assert checks(str(path)) == want, g


def test_uce_prints_no_window(tmp_path, capsys):
    # st1-st3 are by construction and the Jacobi sample names its pool
    # window in its detail: no line or report entry of uce has a window.
    out = tmp_path / "report.json"
    argv = ["uce", "--n", "3", "--coord", "laurent", "--window", "1", "--jacobi", "5"]
    assert main(argv + ["--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert [c["name"] for c in checks][:3] == ["st1", "st2", "st3"]
    assert not any("window" in c for c in checks)
    assert "(window" not in capsys.readouterr().out
    assert checks[3]["detail"] == "5 triples, seed 0, pool window 1"


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


LOADABLE = ["laurent", "poly", {"kind": "group", "n": 2},
            {"kind": "group", "n": 2, "support": "zero"}] + [
    json.loads((goldens.DATA / f"{name}.json").read_text())
    for name in ("q2", "q3", "q4", "q6_in_zeta3")]


@pytest.mark.parametrize("data", LOADABLE, ids=["laurent", "poly", "Q[Z^2]", "Q[0]", "q2", "q3",
                                                "q4", "q6_in_zeta3"])
def test_every_loadable_algebra_is_associative_and_unital(data):
    # what `lietor alg` prints by construction, scanned on the window-1 box
    A = coord_algebra_from_json(data)
    assert associativity_witness(A, 1) is None and unit_holds(A, 1)


def test_alg_associativity_failure_has_a_witness(monkeypatch):
    # a factor 2 on t^1 t^mu for mu != 0 is no 2-cocycle: the first triple
    # of the box has (t^-1 t) t^-1 = t^-1 and t^-1 (t t^-1) = 2 t^-1
    from fractions import Fraction

    from lietor.graded import GradedAssocAlgebra

    monkeypatch.setattr(GradedAssocAlgebra, "tau",
                        lambda self, lam, mu: Fraction(2 if lam == (1,) and any(mu) else 1))
    A = coord_algebra_from_json("laurent")
    assert associativity_witness(A, 1) == ((-1,), (1,), (-1,))
    assert unit_holds(A, 1)


@pytest.mark.parametrize("argv, error", [
    (["sl", "--jacobi", "0"], "unrecognized arguments: --jacobi 0"),
    (["sl", "--jacobi", "-5"], "unrecognized arguments: --jacobi -5"),
    (["uce", "--jacobi", "0"], "argument --jacobi: must be at least 1, got 0"),
    (["uce", "--jacobi", "-5"], "argument --jacobi: must be at least 1, got -5"),
    (["eala", "--coord", "laurent", "--jacobi", "-5"], "unrecognized arguments: --jacobi -5"),
], ids=["sl-0", "sl-neg", "uce-0", "uce-neg", "eala-neg"])
def test_jacobi_count_without_a_triple_is_a_usage_error(capsys, argv, error):
    # a sample of no triples would print jacobi-sample: pass; only uce
    # samples, sl and eala take no --jacobi
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and error in err


def test_sl_prints_no_window(tmp_path, capsys):
    # RG1-RG3 and the Jacobi identity hold by construction and the flags are
    # structural: no line or report entry of sl has a window.
    for coord, flag in (("laurent", "True"), ("poly", "False")):
        out = tmp_path / f"{coord}.json"
        assert main(["sl", "--n", "3", "--coord", coord, "--out", str(out)]) == 0
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        assert not any("window" in c for c in checks.values())
        assert "(window" not in capsys.readouterr().out
        assert all(c["status"] == "pass" for c in checks.values())
        for name in ("RG2", "RG3", "jacobi"):
            assert checks[name]["note"].startswith("by construction: ")
        for name in ("flag:predivision", "flag:division", "flag:torus"):
            assert checks[name]["detail"] == flag
            assert checks[name]["note"].startswith("structural: ")
    witness = "no invertible element in L_(eps_2 - eps_0)^(1)"
    assert checks["flag:predivision"]["witness"] == checks["flag:division"]["witness"] == witness


def test_eala_invalid_data_exits_2_before_any_check(monkeypatch, capsys):
    # tau(d, d) != 0 fails INV-f
    from lietor import eala

    default = eala.default_iara_data

    def with_tau(L, **kw):
        data = default(L, **kw)
        data.tau = {(0, 0): [L.field.one] * len(data.C)}
        return data

    monkeypatch.setattr(eala, "default_iara_data", with_tau)
    assert main(["eala", "--coord", "laurent", "--window", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: invalid construction data: INV-f (")


@pytest.mark.parametrize("extra", [["--family", "A"], ["--rank", "2"], ["--family", "E8", "--rank", "5"]],
                         ids=["family-default", "rank-default", "family-and-rank"])
def test_refl_in_refuses_family_and_rank(tmp_path, capsys, extra):
    # --in names the system; an explicit --family A, the default, is refused too
    out = tmp_path / "r.json"
    assert main(["refl", "--in", ROOTS_B3] + extra + ["--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and not out.exists()
    assert "error: --in names the root system: --family and --rank cannot be given with it" in err


def _child(args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "lietor.cli"] + args, env=env,
                          stderr=subprocess.PIPE, text=True, **kwargs)


def test_out_into_a_missing_directory_exits_2(tmp_path):
    proc = _child(["refl", "--family", "A", "--rank", "2",
                   "--out", str(tmp_path / "missing" / "r.json")], stdout=subprocess.PIPE)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: [Errno 2] No such file or directory")
    assert "Traceback" not in proc.stderr


def test_a_reader_that_has_gone_exits_2_after_writing_out(tmp_path):
    # stdout is a pipe whose read end is closed before the run starts
    out = tmp_path / "sl.json"
    r, w = os.pipe()
    os.close(r)
    try:
        proc = _child(["sl", "--n", "3", "--coord", "laurent", "--out", str(out)], stdout=w)
    finally:
        os.close(w)
    assert proc.returncode == 2
    assert proc.stderr == "error: [Errno 32] Broken pipe\n"
    assert json.loads(out.read_text())["ok"] is True


def test_a_closed_stdout_still_gets_out_written(tmp_path):
    out = tmp_path / "refl.json"
    proc = _child(["refl", "--family", "A", "--rank", "2", "--out", str(out)],
                  preexec_fn=lambda: os.close(1))
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(out.read_text())["ok"] is True

import random

from lietor.report import AxiomReport, CheckResult, sampled_check, sampled_triples


def test_sampled_triples_draw_like_a_seeded_loop():
    # the draws of the hand-written loops the sampler replaced, so every
    # sampled verdict and detail stays the same for a given seed
    pool = list(range(17))
    rng = random.Random(5)
    want = [tuple(rng.choice(pool) for _ in range(3)) for _ in range(50)]
    assert list(sampled_triples(pool, 50, 5)) == want


def test_sampled_check_stops_at_the_first_failure():
    seen = []

    def holds(x, y, z):
        seen.append((x, y, z))
        return len(seen) < 4

    c = sampled_check("s", list(range(9)), 100, 1, holds)
    assert not c.ok and len(seen) == 4
    assert c.to_json() == {"name": "s", "status": "fail", "detail": "100 triples, seed 1",
                           "witness": "fails on triple 4 of 100 (seed 1)"}
    assert c.line() == "s: fail  (100 triples, seed 1)  witness: fails on triple 4 of 100 (seed 1)"
    assert sampled_check("s", [0], 0, 1, holds).ok and len(seen) == 4


def test_sampled_check_names_the_failing_draw():
    # holds fails on one known triple, the 17th draw of seed 0; a passing
    # check carries no witness
    pool = list(range(50))
    bad = list(sampled_triples(pool, 200, 0))[16]
    assert bad not in list(sampled_triples(pool, 200, 0))[:16]
    c = sampled_check("jacobi-sample", pool, 200, 0, lambda *t: t != bad)
    assert c.witness == "fails on triple 17 of 200 (seed 0)"
    assert c.line() == ("jacobi-sample: fail  (200 triples, seed 0)  "
                        "witness: fails on triple 17 of 200 (seed 0)")
    ok = sampled_check("jacobi-sample", pool, 200, 0, lambda *t: True)
    assert ok.to_json() == {"name": "jacobi-sample", "status": "pass",
                            "detail": "200 triples, seed 0"}


def test_line_and_json_carry_the_window_and_detail():
    c = CheckResult("RG3", True, window=2, detail="x")
    assert c.line() == "RG3: windowed-pass (window 2)  (x)"
    assert c.to_json() == {"name": "RG3", "status": "windowed-pass", "window": 2, "detail": "x"}
    bad = CheckResult("ED1", False, witness="w", note="n")
    assert bad.line() == "ED1: fail  witness: w  [n]"
    assert bad.to_json() == {"name": "ED1", "status": "fail", "witness": "w", "note": "n"}


def test_report_reads_its_checks():
    rep = AxiomReport()
    rep.add("a", 1, detail="v")
    rep.append(CheckResult("b", False, window=3))
    assert not rep.ok and rep.failures() == [rep["b"]]
    assert rep.lines() == ["a: pass  (v)", "b: fail (window 3)"]
    assert rep.to_json()["checks"] == [c.to_json() for c in rep.checks]

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is exact equality (the arithmetic is exact); runtime
budgets are asserted where the criterion states one.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

from lietor.cli import render_affine_table
from lietor.graded import GradedAssocAlgebra
from lietor.matlie import MatrixLieAlgebra, bracket, invariant_form
from lietor.refl import (
    PreReflectionSystem,
    ars_structure,
    build_affine_rs,
    predicates,
    validate_axioms,
    validate_extension_datum,
)
from lietor.rootsys import (
    build_classical,
    build_exceptional,
    normalized,
    root_strings_exhaustive,
)
from lietor.scalars import cyclotomic_field
from lietor.uce import build_uce_sl, hc1_component
from lietor.eala import (
    build_E,
    core_and_tameness,
    default_iara_data,
    nullity_of,
    verify_eala,
    verify_iara,
)
from eala_reference import root_reflection_data, t_labels
from matlie_reference import decompose, is_invertible, windowed_basis
from qtorus_reference import centre_scan_oracle, commutator_decomposition
from uce_reference import steinberg_scan

GOLDEN_TABLE = (Path(__file__).parent / "data" / "table_affine.txt").read_text()

SEEDS = (0, 1, 2, 3, 4)


def report(n, ok, detail=""):
    print(f"ACCEPTANCE {n}: {'pass' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_1_affine_table():
    t0 = time.time()
    got = render_affine_table()
    elapsed = time.time() - t0
    report(1, got == GOLDEN_TABLE and elapsed < 1.0,
           f"byte-exact 7-row table in {elapsed:.3f}s")


def test_criterion_2_root_system_axiom_suite():
    t0 = time.time()
    systems = []
    for n in range(1, 6):
        systems.append((f"A{n}", build_classical("A", n)))
    for n in range(2, 6):
        systems.append((f"B{n}", build_classical("B", n)))
    for n in range(3, 6):
        systems.append((f"C{n}", build_classical("C", n)))
    for n in range(4, 6):
        systems.append((f"D{n}", build_classical("D", n)))
    for n in range(1, 6):
        systems.append((f"BC{n}", build_classical("BC", n)))
    for fam in ("G2", "F4", "E6", "E7", "E8"):
        systems.append((fam, build_exceptional(fam)))
    for name, rs in systems:
        prs = PreReflectionSystem.from_root_system(rs)
        rep = validate_axioms(prs)
        assert rep.ok, (name, rep.failures()[0].name)
        flags = predicates(prs)
        assert flags["integral"] and flags["coherent"] and flags["nondegenerate"], name
        ok, max_len, witness = root_strings_exhaustive(rs)
        assert ok, (name, witness)
    elapsed = time.time() - t0
    report(2, elapsed < 30.0,
           f"{len(systems)} systems, exhaustive strings, {elapsed:.1f}s < 30s")


def test_criterion_3_normalized_value_sets():
    cases = [
        ("A", 4, {2}),
        ("B", 3, {2, 4}),
        ("G2", None, {2, 6}),
        ("BC", 1, {2, 8}),
        ("BC", 2, {2, 4, 8}),
    ]
    for fam, rank, expect in cases:
        rs = build_exceptional(fam) if rank is None else build_classical(fam, rank)
        nrs = normalized(rs)
        values = {nrs.space.pair(a, a) for a in nrs.nonzero_roots()}
        assert values == {Fraction(v) for v in expect}, (fam, rank, values)
    admissible = [{2}, {2, 4}, {2, 6}, {2, 8}, {2, 4, 8}]
    assert all(
        {int(v) for v in vals} in admissible
        for vals in ({2}, {2, 4}, {2, 6}, {2, 8}, {2, 4, 8})
    )
    report(3, True, "value sets {2},{2,4},{2,6},{2,8},{2,4,8} exact")


def test_criterion_4_qtorus_centre():
    t0 = time.time()
    F3 = cyclotomic_field(3)
    z3 = F3.zeta()
    A = GradedAssocAlgebra.quantum_torus(
        [[F3.one, z3], [z3.inverse(), F3.one]], F3)
    gamma = A.centre_lattice()
    assert gamma.basis == [[3, 0], [0, 3]]
    oracle = centre_scan_oracle(A, 6)
    assert set(gamma.window_elements(6)) == set(oracle)
    dec = commutator_decomposition(A, 4)
    for entry in dec:
        assert entry["central"] == (entry["degree"] in gamma)
        if not entry["central"]:
            mu, nu, c = entry["witness"]
            assert c and tuple(a + b for a, b in zip(mu, nu)) == entry["degree"]
    elapsed = time.time() - t0
    report(4, elapsed < 5.0, f"Gamma = 3Zx3Z vs box scan, window-4 split, {elapsed:.1f}s")


def test_criterion_5_hc1_laurent():
    t0 = time.time()
    A = GradedAssocAlgebra.laurent()
    got = hc1_component(A, (0,))
    assert got == 1, got
    for m in (1, 2, 3, 4):
        assert hc1_component(A, (m,)) == 0, m
        assert hc1_component(A, (-m,)) == 0, -m
    elapsed = time.time() - t0
    report(5, elapsed < 10.0, f"dim HC1 deg 0 = 1, nonzero degrees 0, {elapsed:.1f}s")


def test_criterion_6_uce():
    t0 = time.time()
    A = GradedAssocAlgebra.laurent()
    U = build_uce_sl(3, A)
    assert hc1_component(A, (0,)) == 1
    rep = steinberg_scan(U, window=2)
    assert rep.ok, rep.failures()[0].name
    pool = U.homogeneous_pool(2)
    rng = random.Random(2024)
    for _ in range(1000):
        u1, u2, u3 = (rng.choice(pool) for _ in range(3))
        assert U.jacobi_holds(u1, u2, u3, window=8)
    elapsed = time.time() - t0
    report(6, elapsed < 60.0,
           f"kernel dim 1, 1000 Jacobi triples, st1-st3, {elapsed:.1f}s")


def test_criterion_7_affine_equivalence():
    L = MatrixLieAlgebra(3, GradedAssocAlgebra.laurent())
    data = default_iara_data(L)
    assert len(data.D) == 1 and len(data.C) == 1  # D = Q d^(0), C = D*
    E = build_E(data)
    window = 3
    ars, mp, kac = build_affine_rs(build_classical("A", 2), 1)
    real_E, imag_E = root_reflection_data(E, window)
    real_R, imag_R = set(), set()
    for a in ars.windowed_roots(window):
        xi, lam = ars.split(a)
        vec = tuple(xi) + tuple(Fraction(x) for x in lam)
        (real_R if any(xi) else imag_R).add(vec)
    assert real_E == real_R and imag_E == imag_R
    zero_root = (Fraction(0),) * 3
    labels = t_labels(E)
    dims = (labels.count("h"), labels.count("C"), labels.count("D"))
    assert len(E.root_space_basis(zero_root, (0,))) == 4 and dims == (2, 1, 1)
    from lietor.uce import build_affine

    E_aff = build_affine(3)
    assert len(E_aff.root_space_basis(zero_root, (0,))) == len(E.root_space_basis(zero_root, (0,)))
    for m in range(-window, window + 1):
        if m:
            got = len(E.root_space_basis(zero_root, (m,)))
            assert got == 2 and got == len(E_aff.root_space_basis(zero_root, (m,)))
    report(7, True,
           "root data = R(A_2,1); blocks match the affine construction: "
           "E_0 = H (h:2, c:1, d:1), dim E_(m delta) = 2")


def test_criterion_8_eala_qtorus():
    t0 = time.time()
    F3 = cyclotomic_field(3)
    z3 = F3.zeta()
    A = GradedAssocAlgebra.quantum_torus(
        [[F3.one, z3], [z3.inverse(), F3.one]], F3)
    L = MatrixLieAlgebra(3, A)
    data = default_iara_data(L)
    E = build_E(data)
    ia = verify_iara(E, window=3)
    assert ia.ok, ia.failures()[0].witness
    ea = verify_eala(E, window=3, iara=ia)
    assert ea.ok, ea.failures()[0].witness
    assert nullity_of(E, 3) == 2
    assert core_and_tameness(E)["tame"] is True
    elapsed = time.time() - t0
    report(8, elapsed < 120.0,
           f"IA1-IA3 + EA1-EA6 at window 3, nullity 2, tame, {elapsed:.1f}s")


def test_criterion_9_property_suites():
    t0 = time.time()
    F3 = cyclotomic_field(3)
    z3 = F3.zeta()
    Aq = GradedAssocAlgebra.quantum_torus(
        [[F3.one, z3], [z3.inverse(), F3.one]], F3)
    algebras = [
        MatrixLieAlgebra(3, GradedAssocAlgebra.laurent()),
        MatrixLieAlgebra(3, Aq),
    ]
    for L in algebras:
        basis = windowed_basis(L, 1)
        form = invariant_form(L, L.field.one)
        for seed in SEEDS:
            rng = random.Random(seed)
            for _ in range(200):
                x, y, z = (rng.choice(basis) for _ in range(3))
                jac = (bracket(bracket(x, y), z) + bracket(bracket(y, z), x)
                       + bracket(bracket(z, x), y))
                assert not jac
                assert form.pair(bracket(x, y), z) == form.pair(x, bracket(y, z))
            for _ in range(100):
                x, y = rng.choice(basis), rng.choice(basis)
                (rx, dx), = decompose(x).keys()
                (ry, dy), = decompose(y).keys()
                for (r, d) in decompose(bracket(x, y)):
                    assert r == tuple(a + b for a, b in zip(rx, ry))
                    assert d == tuple(a + b for a, b in zip(dx, dy))
        # sl2 triples with the [e, f] = -h convention and the eigenvalue law
        for seed in SEEDS:
            rng = random.Random(seed)
            off = [b for b in basis if len(b.terms) == 1
                   and any(i != j for (i, j) in b.terms)]
            for _ in range(20):
                e = rng.choice(off)
                triple = is_invertible(L, e)
                assert triple is not None
                assert bracket(triple.e, triple.f) == -triple.h
                ((i, j), _), = e.terms.items()
                root = L.root_of(i, j)
                for q in L.S.sorted_roots():
                    c = L.S.pairing(q, root)
                    for b in L.homog_basis(q, (0,) * L.z_rank):
                        assert bracket(triple.h, b) == b.scale(L.field.from_int(int(c)))
    # extension-datum derived identities and the root-string bound
    for fam, rank, tier in (("A", 2, 1), ("B", 2, 2), ("BC", 1, 1),
                            ("BC", 2, 1), ("G2", None, 3)):
        S = build_exceptional(fam) if rank is None else build_classical(fam, rank)
        ars, _, _ = build_affine_rs(S, tier)
        rep = validate_extension_datum(ars.datum)
        assert rep.ok, (fam, rep.failures()[0].name)
        st = ars_structure(ars, window=3)
        assert st["max_string_len"] <= 5
    elapsed = time.time() - t0
    report(9, True, f"property suites over seeds {SEEDS}, zero failures, {elapsed:.1f}s")

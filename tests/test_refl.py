import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as hs

from lietor.lattices import LatticeSubset
from lietor.linalg import rank as mat_rank
from lietor.refl import (
    AffineReflectionSystem,
    ExtensionDatum,
    PreReflectionSystem,
    ars_structure,
    build_affine_rs,
    check_form,
    predicates,
    untwisted_datum,
    validate_ars_axioms,
    validate_axioms,
    validate_extension_datum,
)
from lietor.rootsys import (
    RootSpace,
    RootSystem,
    build_classical,
    build_exceptional,
    connected_components,
    indivisible_part,
    length_partition,
    normalized,
    root_strings_exhaustive,
    vec_add,
    with_form,
)
from lietor.report import AxiomReport
from lietor.scalars import QQ
from lietor.serialize import datum_from_json
from roots_reference import direct_sum, root_string

DATA = Path(__file__).parent / "data"


def F(*args):
    return Fraction(*args)


def prs_of(rs):
    return PreReflectionSystem.from_root_system(rs)


def test_root_systems_pass_axioms():
    for fam, rk in [("A", 2), ("B", 3), ("C", 3), ("BC", 2)]:
        rep = validate_axioms(prs_of(build_classical(fam, rk)))
        assert rep.ok, rep.failures()[0].name


def test_res2_failure_with_witness():
    # {0, +-e1, e2}: e2 has no negative, reflections move it out.
    roots = {(F(0), F(0)), (F(1), F(0)), (F(-1), F(0)), (F(0), F(1))}
    coroots = {
        (F(0), F(0)): (F(0), F(0)),
        (F(1), F(0)): (F(2), F(0)),
        (F(-1), F(0)): (F(-2), F(0)),
        (F(0), F(1)): (F(0), F(2)),
    }
    rep = validate_axioms(PreReflectionSystem(2, roots, coroots))
    assert not rep["ReS2"].ok
    assert rep["ReS2"].witness


def test_res2_failure_on_imaginary_root():
    # d = (1, 1) imaginary: s_e1(d) = (-1, 1) is not a root, while the real
    # roots +-e1 are closed under their reflections.
    d = (F(1), F(1))
    roots = {(F(0), F(0)), (F(1), F(0)), (F(-1), F(0)), d}
    coroots = {r: ((F(2) * r[0], F(0)) if r != d else (F(0), F(0))) for r in roots}
    prs = PreReflectionSystem(2, roots, coroots)
    rep = validate_axioms(prs)
    assert not rep["ReS2"].ok
    assert rep["ReS2"].witness.endswith("leaves the imaginary part")
    assert _reference(prs)[0]["ReS2"] is False


def test_res3_failure_on_rescaled_coroot():
    # 2 e1 declared real with a coroot that is not alpha_check / 2.
    roots = {(F(0), F(0)), (F(1), F(0)), (F(-1), F(0)), (F(2), F(0)), (F(-2), F(0))}
    coroots = {
        (F(0), F(0)): (F(0), F(0)),
        (F(1), F(0)): (F(2), F(0)),
        (F(-1), F(0)): (F(-2), F(0)),
        (F(2), F(0)): (F(1), F(1)),
        (F(-2), F(0)): (F(-1), F(-1)),
    }
    rep = validate_axioms(PreReflectionSystem(2, roots, coroots))
    assert not rep["ReS3"].ok


def test_predicates():
    flags = predicates(prs_of(build_classical("BC", 2)))
    assert flags["reduced"] is False
    assert flags["integral"] and flags["coherent"] and flags["nondegenerate"]
    flags = predicates(prs_of(build_classical("A", 3)))
    assert flags["reduced"] and flags["symmetric"] and flags["tame"]


def test_tame_fails_on_isolated_imaginary_root():
    # delta = (0,1) imaginary but not a sum of two real roots.
    roots = {(F(0), F(0)), (F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(0), F(-1))}
    coroots = {r: ((F(2) * r[0], F(0)) if r[0] else (F(0), F(0))) for r in roots}
    flags = predicates(PreReflectionSystem(2, roots, coroots))
    assert flags["tame"] is False


def test_check_form_flags():
    rs = normalized(build_classical("B", 2))
    flags = check_form(prs_of(rs), rs.space.form)
    assert flags == {"invariant": True, "strictly_invariant": True, "affine": True}


def test_form_with_nonisotropic_imaginary_root():
    # delta imaginary with b(delta, delta) != 0: invariant but not strict.
    roots = {(F(0), F(0)), (F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(0), F(-1))}
    coroots = {r: ((F(2) * r[0], F(0)) if r[0] else (F(0), F(0))) for r in roots}
    prs = PreReflectionSystem(2, roots, coroots)
    form = ((F(1), F(0)), (F(0), F(1)))
    flags = check_form(prs, form)
    assert flags["invariant"] is True
    assert flags["strictly_invariant"] is False
    assert flags["affine"] is False


def test_untwisted_datum_valid():
    for rank, z_rank in ((1, 1), (2, 2)):
        ed = untwisted_datum(build_classical("A", rank), z_rank)
        rep = validate_extension_datum(ed)
        assert rep.ok, rep.failures()[0]
        assert all(c.window is None for c in rep.checks)


def test_affine_b2_datum_valid():
    ars, _, _ = build_affine_rs(build_classical("B", 2), 2)
    rep = validate_extension_datum(ars.datum)
    assert rep.ok
    lg = sorted(a for a in length_partition(ars.S)[1])[0]
    assert ars.datum.lam(lg) == LatticeSubset.scaled_full(1, 2)


def test_ed2_failure():
    rs = normalized(build_classical("B", 2))
    sh, lg, div, k = length_partition(rs)
    odd = LatticeSubset(1, gens=[[2]], cosets=((1,),))
    full = LatticeSubset.full(1)
    fam = {a: (odd if a in lg else full) for a in rs.roots}
    ed = ExtensionDatum(rs, frozenset(indivisible_part(rs)), 1, fam)
    rep = validate_extension_datum(ed)
    assert not rep["ED2"].ok


def test_build_extension_passes_axioms():
    for fam, rk, tier in [("A", 2, 1), ("B", 2, 2), ("BC", 1, 1), ("BC", 2, 1)]:
        S = build_classical(fam, rk)
        ars, _, _ = build_affine_rs(S, tier)
        rep = validate_ars_axioms(ars)
        assert rep.ok, (fam, rep.failures()[0].name, rep.failures()[0].witness)


def test_trivial_extension_is_s():
    a2 = build_classical("A", 2)
    fam = {a: LatticeSubset.finite(0, [()]) for a in a2.roots}
    ed = ExtensionDatum(a2, frozenset(indivisible_part(a2)), 0, fam)
    ars = AffineReflectionSystem(a2, ed.S_prime, ed)
    assert set(ars.windowed_roots(2)) == a2.roots
    assert ars_structure(ars, window=2)["nullity"] == 0


def test_affine_labels_whole_table():
    expect = {
        ("A", 2, 1): ("A_2^(1)", "A_2^(1)"),
        ("B", 3, 2): ("B_3^(2)", "D_4^(2)"),
        ("C", 3, 2): ("C_3^(2)", "A_5^(2)"),
        ("F4", 4, 2): ("F_4^(2)", "E_6^(2)"),
        ("G2", 2, 3): ("G_2^(3)", "D_4^(3)"),
        ("BC", 1, 1): ("BC_1^(2)", "A_2^(2)"),
        ("BC", 2, 1): ("BC_2^(2)", "A_4^(2)"),
        ("D", 4, 1): ("D_4^(1)", "D_4^(1)"),
    }
    for (fam, rk, tier), labels in expect.items():
        S = build_exceptional(fam) if fam in ("G2", "F4") else build_classical(fam, rk)
        ars, mp, kac = build_affine_rs(S, tier)
        assert (mp, kac) == labels


def test_invalid_tier_rejected():
    with pytest.raises(ValueError):
        build_affine_rs(build_classical("A", 2), 2)
    with pytest.raises(ValueError):
        build_affine_rs(build_classical("BC", 2), 2)
    with pytest.raises(ValueError):
        build_affine_rs(build_classical("B", 3), 3)


def test_ars_structure_flags():
    ars, _, _ = build_affine_rs(build_classical("A", 2), 1)
    st = ars_structure(ars, window=3)
    assert st["nullity"] == 1
    assert st["class_flags"]["EARS"] is True
    assert st["tame"] and st["unbroken"] and st["symmetric"]
    assert st["max_string_len"] <= 5

    arsbc, _, _ = build_affine_rs(build_classical("BC", 1), 1)
    stbc = ars_structure(arsbc, window=3)
    assert stbc["reduced"] is True  # the odd coset of the divisible part
    assert stbc["max_string_len"] == 5
    assert stbc["class_flags"]["EARS"] is True


def test_untamed_lambda0_detected():
    # Lambda_0 = Z but Lambda_xi = 2Z everywhere: Lambda_diff = 2Z, not tame.
    a1 = build_classical("A", 1)
    two = LatticeSubset.scaled_full(1, 2)
    full = LatticeSubset.full(1)
    fam = {a: (full if not any(a) else two) for a in a1.roots}
    ed = ExtensionDatum(a1, frozenset(indivisible_part(a1)), 1, fam)
    ars = AffineReflectionSystem(a1, ed.S_prime, ed)
    st = ars_structure(ars, window=2)
    assert st["tame"] is False
    assert st["unbroken"] is True


def test_broken_strings_and_asymmetry_detected():
    # Lambda_0 = {0}: strings through the imaginary part break; an
    # asymmetric Lambda_0 = {0, 1} kills the symmetry flag.
    a1 = build_classical("A", 1)
    full = LatticeSubset.full(1)
    fam = {a: (LatticeSubset.zero(1) if not any(a) else full) for a in a1.roots}
    ed = ExtensionDatum(a1, frozenset(indivisible_part(a1)), 1, fam)
    ars = AffineReflectionSystem(a1, ed.S_prime, ed)
    st = ars_structure(ars, window=2)
    assert st["unbroken"] is False
    assert st["tame"] is True
    assert st["class_flags"]["EARS"] is False

    fam = {a: (LatticeSubset.finite(1, [(0,), (1,)]) if not any(a) else full)
           for a in a1.roots}
    ed = ExtensionDatum(a1, frozenset(indivisible_part(a1)), 1, fam)
    ars = AffineReflectionSystem(a1, ed.S_prime, ed)
    st = ars_structure(ars, window=2)
    assert st["symmetric"] is False


def test_ars_reduced_beyond_any_small_window():
    # BC_1 with Lambda_div = 7 + 23Z: 2 * 15 = 30 lies in Lambda_div, so the
    # short root 15 and the divisible root 30 are collinear and R is not
    # reduced, although no such pair lies in a window of radius 4.
    rs = normalized(build_classical("BC", 1))
    div = length_partition(rs)[2]
    full = LatticeSubset.full(1)
    odd7 = LatticeSubset(1, gens=[[23]], cosets=((7,),))
    fam = {}
    for a in rs.roots:
        if a in div and any(a):
            fam[a] = odd7 if a[0] > 0 else odd7.neg()
        else:
            fam[a] = full
    ed = ExtensionDatum(rs, frozenset(indivisible_part(rs)), 1, fam)
    ars = AffineReflectionSystem(rs, ed.S_prime, ed)
    st = ars_structure(ars, window=4)
    assert st["reduced"] is False
    assert st["class_flags"]["EARS"] is False


@pytest.mark.parametrize("fam,rank,tier", [
    ("A", 1, 1), ("A", 2, 1), ("B", 2, 2), ("B", 3, 2), ("C", 3, 2), ("BC", 1, 1),
    ("BC", 2, 1), ("G2", None, 1), ("G2", None, 3), ("F4", None, 2), ("E6", None, 1),
])
def test_affine_datum_passes_every_check_exactly(fam, rank, tier):
    S = build_exceptional(fam) if rank is None else build_classical(fam, rank)
    ars, _, _ = build_affine_rs(S, tier)
    rep = validate_extension_datum(ars.datum)
    assert [c.status for c in rep.checks] == ["pass"] * len(rep.checks)
    assert all(c.window is None for c in rep.checks)


def test_ed1_failure_outside_any_small_window():
    # Lambda_(+-alpha) = {0, 10, 13} + 23Z over A1: 0 - 2*10 = -20 = 3 mod 23
    # is not in Lambda_(-alpha); in a window of radius 9 only 0 is in Lambda.
    a1 = build_classical("A", 1)
    lam = LatticeSubset(1, gens=[[23]], cosets=((0,), (10,), (13,)))
    fam = {a: (lam if any(a) else LatticeSubset.full(1)) for a in a1.roots}
    rep = validate_extension_datum(ExtensionDatum(a1, frozenset(indivisible_part(a1)), 1, fam))
    assert not rep["ED1"].ok and "(3,) escapes" in rep["ED1"].witness
    assert not rep["reflection-subspace"].ok and not rep["S'-shift"].ok
    assert _brute_sum_escape(lam, lam, -2, lam, 9) is None


# Windowed references for the coset arithmetic of extension data: pairs of
# window points, as the checks were once run.  They are exact when every set
# is a union of cosets of a lattice containing m Z^n and the window holds m
# consecutive integers in each coordinate.

def _brute_sum_escape(A, B, f, T, window):
    """The first window pair (a, b) of A x B with a + f b outside T, or None."""
    for a in A.window_elements(window):
        for b in B.window_elements(window):
            if tuple(x + f * y for x, y in zip(a, b)) not in T:
                return a, b
    return None


def _brute_meets(A, B, c, window):
    """Whether c b lies in A for some window point b of B."""
    return any(tuple(c * x for x in b) in A for b in B.window_elements(window))


ORACLE_WINDOW = 3


@hs.composite
def _coset_unions(draw):
    """(m, [A, B, T]): unions of cosets of lattices containing m Z^n, n = 1, 2.
    A set is sparse (a few residues mod m) or dense (all but a few)."""
    n = draw(hs.integers(1, 2))
    m = draw(hs.integers(1, 6))
    residue = hs.tuples(*[hs.integers(0, m - 1)] * n)
    sets = []
    for _ in range(3):
        extra = draw(hs.lists(residue, max_size=1))
        gens = [[m if i == j else 0 for j in range(n)] for i in range(n)] + [list(g) for g in extra]
        picked = draw(hs.lists(residue, max_size=4))
        if draw(hs.booleans()):
            picked = [r for r in itertools.product(range(m), repeat=n) if r not in picked]
        sets.append(LatticeSubset(n, gens, tuple(picked)))
    return m, sets


@seed(20111)
@settings(max_examples=500, deadline=None, database=None)
@given(_coset_unions(), hs.integers(-3, 3))
def test_coset_arithmetic_agrees_with_window_oracle(data, f):
    m, (A, B, T) = data
    assert 2 * ORACLE_WINDOW + 1 >= m  # the window reaches every residue mod m
    left = A.add(B.scale(f))
    point = left.point_outside(T)
    assert (point is None) == (_brute_sum_escape(A, B, f, T, ORACLE_WINDOW) is None)
    assert left.is_subset_of(T) == (point is None)
    if point is not None:
        assert point in left and point not in T
    meets = (0,) * A.n in A.add(B.scale(f).neg())
    assert meets == _brute_meets(A, B, f, ORACLE_WINDOW)


# Reference ReS0-ReS4 and predicates in plain Fraction arithmetic, written from
# the definitions: reflections are compared as linear maps on the standard
# basis, never through the coroot identities validate_axioms uses.

def _pair(x, cor):
    return sum((a * b for a, b in zip(x, cor) if a and b), F(0))


def _multiple(a, b):
    """c with b = c a, or None."""
    k = next((i for i, x in enumerate(a) if x), None)
    if k is None:
        return None
    c = Fraction(b[k]) / a[k]
    return c if tuple(c * x for x in a) == tuple(b) else None


def _reference(prs):
    R, cor = prs.roots, prs.coroots
    real = {a for a in R if any(cor[a])}
    imag = R - real
    basis = [tuple(F(int(i == j)) for j in range(prs.dim)) for i in range(prs.dim)]

    def s(a, x):
        c = _pair(x, cor[a])
        return tuple(xi - c * ai if ai else xi for xi, ai in zip(x, a)) if c else x

    # s_a as the images of the standard basis
    maps = {a: [s(a, e) for e in basis] for a in R}
    pairs = [(a, b) for a in real for b in real]
    table = [[_pair(r, cor[a]) for a in real] for r in R]
    status = {
        "ReS0": (F(0),) * prs.dim in R and all(_pair(a, cor[a]) == 2 for a in real),
        "ReS1": all(any(a) and s(a, a) == tuple(-x for x in a) for a in real),
        "ReS2": all(s(a, b) in (real if b in real else imag) for a in R for b in R),
        "ReS3": all(maps[a] == maps[b] for a, b in pairs if _multiple(a, b) is not None),
        "ReS4": all(maps[s(a, b)] == [s(a, s(b, x)) for x in maps[a]]
                    for a in R for b in R if s(a, b) in R),
    }
    flags = {
        "reduced": all(_multiple(a, b) in (None, 1, -1) for a, b in pairs),
        "integral": all(x.denominator == 1 for row in table for x in row),
        "nondegenerate": mat_rank(table, QQ) == mat_rank([list(r) for r in R], QQ),
        "symmetric": all(tuple(-x for x in a) in R for a in R),
        "coherent": all((_pair(a, cor[b]) == 0) == (_pair(b, cor[a]) == 0) for a, b in pairs),
        "tame": all(any(tuple(x + y for x, y in zip(a, b)) == d for a in real for b in real)
                    for d in imag),
    }
    return status, flags


SMALL_SYSTEMS = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3),
                 ("BC", 1), ("BC", 2), ("G2", None)]


def _small(fam, rk):
    return build_exceptional(fam) if rk is None else build_classical(fam, rk)


def _variants(rs):
    """The system, its normalized and 3x forms, roots scaled by 1/3, and a
    diag(1, 2, 3, ...) form, whose pairings are not integral."""
    n = rs.dim
    thirds = RootSystem(rs.space, {tuple(x / 3 for x in a) for a in rs.roots})
    diag = [[F(i + 1) if i == j else F(0) for j in range(n)] for i in range(n)]
    return {
        "plain": rs,
        "normalized": normalized(rs),
        "3x-form": with_form(rs, [[3 * x for x in row] for row in rs.space.form]),
        "thirds": thirds,
        "diag": with_form(rs, diag),
    }


def _perturbed(prs, rng):
    """Drop a root, rescale a coroot, zero a coroot, add one coroot to
    another; one seeded pick each."""
    roots = sorted(prs.roots)
    real = [a for a in roots if any(prs.coroots[a])]
    drop = rng.choice(roots)
    yield "drop", PreReflectionSystem(prs.dim, set(roots) - {drop}, prs.coroots)
    a = rng.choice(real)
    c = rng.choice([F(2), F(3), F(1, 2), F(-1)])
    yield "rescale", PreReflectionSystem(
        prs.dim, roots, {**prs.coroots, a: tuple(c * x for x in prs.coroots[a])})
    a = rng.choice(real)
    yield "zero", PreReflectionSystem(
        prs.dim, roots, {**prs.coroots, a: (F(0),) * prs.dim})
    a, b = rng.sample(real, 2)
    yield "shear", PreReflectionSystem(
        prs.dim, roots, {**prs.coroots, a: vec_add(prs.coroots[a], prs.coroots[b])})


@pytest.mark.parametrize("fam,rk", SMALL_SYSTEMS)
def test_axioms_and_predicates_match_reference(fam, rk):
    rng = random.Random(f"{fam}{rk}")
    cases = []
    for name, rs in _variants(_small(fam, rk)).items():
        prs = prs_of(rs)
        cases.append((name, prs))
        cases.extend((f"{name}/{kind}", p) for kind, p in _perturbed(prs, rng))
    # a window of the untwisted affine system: imaginary roots, degenerate
    cases.append(("affine", build_affine_rs(_small(fam, rk), 1)[0].to_prs(1)))
    # the zero system: span(R) = 0, so nothing in it can be killed
    zero = (F(0),) * prs.dim
    cases.append(("zero", PreReflectionSystem(prs.dim, {zero}, {zero: zero})))
    for name, prs in cases:
        status, flags = _reference(prs)
        rep = validate_axioms(prs)
        assert {k: rep[k].ok for k in status} == status, name
        assert predicates(prs) == flags, name


def _strings_by_single_pair(rs):
    longest = 0
    for alpha in rs.nonzero_roots():
        for beta in rs.roots:
            try:
                interval, _, _ = root_string(rs, beta, alpha)
            except ArithmeticError:
                return False, None
            longest = max(longest, len(interval))
    return True, longest


@pytest.mark.parametrize("fam,rk", SMALL_SYSTEMS)
def test_root_strings_exhaustive_matches_root_string(fam, rk):
    for name, rs in _variants(_small(fam, rk)).items():
        ok, longest, witness = root_strings_exhaustive(rs)
        assert (ok, longest if ok else None) == _strings_by_single_pair(rs), name
        assert (witness is None) == ok, name


def test_reduced_flag_is_exact():
    # a and b agree in their ratio to 17 digits but are not collinear; a
    # floating-point ratio test calls them collinear with c = 2.
    n = 3 * 10**17
    a, b = (F(1), F(n)), (F(2), F(2 * n + 1))
    two = (F(2), F(0))
    roots = {(F(0), F(0)), a, b, tuple(-x for x in a), tuple(-x for x in b)}
    coroots = {r: tuple(x if r[0] > 0 else -x for x in two) if any(r) else (F(0), F(0))
               for r in roots}
    prs = PreReflectionSystem(2, roots, coroots)
    assert predicates(prs)["reduced"] is True
    assert _reference(prs)[1]["reduced"] is True


def test_ars_membership_is_exact():
    ars = build_affine_rs(build_classical("A", 1), 1)[0]
    assert ars.contains((F(-1), F(1), F(1)))
    assert ars.contains((F(-1), F(1), 1))
    assert not ars.contains((F(-1), F(1), F(1, 2)))
    assert not ars.contains((F(-1), F(1), F(-3, 2)))


# The Fraction-tuple ReS0-ReS4 body that validate_ars_axioms had before it ran
# on IntegerRoots, kept as a reference: it reflects windowed roots by the
# extension formula and asks ars.contains for every image.

def _ars_reflect(ars, alpha, x):
    xi, _ = ars.split(alpha)
    c = _pair(x, ars.coroot(xi))
    return tuple(xi_ - c * ai for xi_, ai in zip(x, alpha))


def _ars_reference(ars, window):
    rep = AxiomReport()
    zero = (F(0),) * ars.dim
    roots = ars.windowed_roots(window)

    ok0, witness0 = ars.contains(zero), None
    if not ok0:
        witness0 = "0 missing from R"
    else:
        for a in roots:
            xi, _ = ars.split(a)
            if any(xi):
                val = ars.S.pairing(xi, xi)
                if val != 2:
                    ok0, witness0 = False, f"<a,a_check> = {val} at {a}"
                    break
    rep.add("ReS0", ok0, witness0, window=window)

    ok1, witness1 = True, None
    for a in roots:
        xi, _ = ars.split(a)
        if any(xi):
            if _ars_reflect(ars, a, a) != tuple(-x for x in a):
                ok1, witness1 = False, f"s_alpha(alpha) != -alpha at {a}"
                break
    rep.add("ReS1", ok1, witness1, window=window)

    ok2, witness2 = True, None
    for a in roots:
        xi_a, _ = ars.split(a)
        if not any(xi_a):
            continue
        for b in roots:
            img = _ars_reflect(ars, a, b)
            if not ars.contains(img):
                ok2, witness2 = False, f"s_{a}({b}) = {img} leaves R"
                break
            xi_b, _ = ars.split(b)
            xi_i, _ = ars.split(img)
            if bool(any(xi_b)) != bool(any(xi_i)):
                ok2, witness2 = False, f"s_{a}({b}) crosses the real/imaginary partition"
                break
        if not ok2:
            break
    rep.add("ReS2", ok2, witness2, window=window)

    s_rep = validate_axioms(PreReflectionSystem.from_root_system(ars.S))
    rep.add("ReS3", s_rep["ReS3"].ok, s_rep["ReS3"].witness,
            note="reduces to ReS3 of the quotient root system")

    ok4, witness4 = True, None
    for a in roots:
        xi_a, _ = ars.split(a)
        if not any(xi_a):
            continue
        cor_a = ars.coroot(xi_a)
        for b in roots:
            xi_b, _ = ars.split(b)
            img = _ars_reflect(ars, a, b)
            xi_img, _ = ars.split(img)
            if tuple(xi_img) not in ars.S.roots:
                continue
            cor_b = ars.coroot(xi_b) if any(xi_b) else (F(0),) * ars.dim
            cor_img = ars.coroot(xi_img) if any(xi_img) else (F(0),) * ars.dim
            pba = _pair(a, cor_b)
            expect = tuple(cb - pba * ca for cb, ca in zip(cor_b, cor_a))
            if cor_img != expect:
                ok4, witness4 = False, f"ReS4 fails at a={a}, b={b}"
                break
        if not ok4:
            break
    rep.add("ReS4", ok4, witness4, window=window)
    return rep


def _with_lambda(ars, xi, lam):
    ed = ExtensionDatum(ars.S, ars.S_prime, ars.z_rank, {**ars.datum.family, xi: lam})
    return AffineReflectionSystem(ars.S, ars.S_prime, ed)


def _with_coroot(ars, xi, cor):
    S = RootSystem(ars.S.space, ars.S.roots, coroots={**ars.S.coroots, xi: cor})
    ed = ExtensionDatum(S, ars.S_prime, ars.z_rank, ars.datum.family)
    return AffineReflectionSystem(S, ars.S_prime, ed)


def _ars_perturbed(ars, rng):
    """Seeded perturbations of Lambda (odd coset, Lambda_0 = 0, a shifted and
    a finite Lambda_xi) and of the coroots of S (rescale, zero, shear)."""
    n = ars.z_rank
    e1 = (1,) + (0,) * (n - 1)
    real = sorted(a for a in ars.S.roots if any(a))
    # 1 + 2Z in the first coordinate, Z in the others
    gens = [[2 * x for x in e1]] + [[int(i == j) for j in range(n)] for i in range(1, n)]
    odd = LatticeSubset(n, gens=gens, cosets=(e1,))
    yield "odd", _with_lambda(ars, rng.choice(real), odd)
    yield "lambda0=0", _with_lambda(ars, (F(0),) * ars.y_dim, LatticeSubset.zero(n))
    xi = rng.choice(real)
    yield "shift", _with_lambda(ars, xi, ars.datum.lam(xi).shift(e1))
    yield "finite", _with_lambda(ars, rng.choice(real), LatticeSubset.finite(n, [(0,) * n, e1]))
    xi = rng.choice(real)
    c = rng.choice([F(2), F(3), F(1, 2), F(-1)])
    yield "rescale", _with_coroot(ars, xi, tuple(c * x for x in ars.S.coroots[xi]))
    yield "zero", _with_coroot(ars, rng.choice(real), (F(0),) * ars.y_dim)
    a, b = rng.sample(real, 2)
    yield "shear", _with_coroot(ars, a, vec_add(ars.S.coroots[a], ars.S.coroots[b]))


def _zero_coroot_on_real(ars):
    return any(any(a) and not any(ars.S.coroots[a]) for a in ars.S.roots)


# (family, rank, tier, windows of the unperturbed system, windows of the
# perturbations); the larger systems stay at small windows, and F4 is only
# checked unperturbed, to keep this quick.
ARS_CASES = [
    ("A", 1, 1, (1, 2, 3), (1, 2)),
    ("A", 2, 1, (1, 2, 3), (1,)),
    ("B", 2, 1, (1, 2, 3), (1,)),
    ("B", 2, 2, (1, 2, 3), (1,)),
    ("B", 3, 2, (1, 2), (1,)),
    ("C", 3, 2, (1,), (1,)),
    ("BC", 1, 1, (1, 2, 3), (1, 2, 3)),
    ("BC", 2, 1, (1, 2), (1,)),
    ("G2", None, 1, (1,), (1,)),
    ("G2", None, 3, (1, 2), (1,)),
    ("F4", None, 2, (1,), ()),
    ("A2/Z2", None, 1, (1,), (1,)),
]


def _assert_exact_matches_reference(kind, ars, window, reach=None):
    """validate_ars_axioms against the windowed reference: the same ok for
    every check, except where the exact verdict fails on a failure outside
    the window, which the reference then sees on the window reach."""
    got, want = validate_ars_axioms(ars), _ars_reference(ars, window)
    assert [c.name for c in got.checks] == [c.name for c in want.checks]
    for c in got.checks:
        assert c.window is None and (c.witness is not None) == (not c.ok), (kind, c.name)
    if _zero_coroot_on_real(ars):
        # A nonzero xi with zero coroot: its reflection is the identity, so
        # its roots are imaginary, as in validate_axioms and the finite
        # reference; the reference calls them real by their S-part.  ReS0
        # and ReS1 follow the finite reference; s_(-xi) sends xi to the real
        # root -xi, failing ReS2.
        finite = _reference(ars.to_prs(window))[0]
        assert [got[k].ok for k in ("ReS0", "ReS1")] == [finite["ReS0"], finite["ReS1"]]
        assert not got["ReS2"].ok and want["ReS2"].ok
        assert [got[k].ok for k in ("ReS3", "ReS4")] == [want[k].ok for k in ("ReS3", "ReS4")]
        return got
    for c in got.checks:
        if c.ok != want[c.name].ok:
            assert not c.ok and reach is not None, (kind, window, c.name)
            assert not _ars_reference(ars, reach)[c.name].ok, (kind, reach, c.name)
    return got


@pytest.mark.parametrize("fam,rk,tier,windows,pert_windows", ARS_CASES,
                         ids=[f"{c[0]}{c[1] or ''}-t{c[2]}" for c in ARS_CASES])
def test_ars_axioms_match_fraction_reference(fam, rk, tier, windows, pert_windows):
    if fam == "A2/Z2":
        a2 = build_classical("A", 2)
        ed = untwisted_datum(a2, 2)
        ars = AffineReflectionSystem(a2, ed.S_prime, ed)
    else:
        ars = build_affine_rs(_small(fam, rk), tier)[0]
    cases = [("valid", ars, w) for w in windows]
    rng = random.Random(f"{fam}{rk}{tier}")
    cases += [(kind, p, w) for kind, p in _ars_perturbed(ars, rng) for w in pert_windows]
    failed = set()
    for kind, v, w in cases:
        got = _assert_exact_matches_reference(kind, v, w)
        failed |= {c.name for c in got.failures()}
    if pert_windows:
        assert {"ReS0", "ReS1", "ReS2", "ReS4"} <= failed


def test_exact_ars_res2_fails_outside_every_small_window():
    # Lambda_(+-alpha) = {0, 10, 13} + 23Z over A1: s_(alpha + 10)(alpha)
    # = -alpha - 20 and -20 = 3 mod 23 is not in Lambda_(-alpha).  Up to
    # window 9 only 0 of Lambda_alpha is in the window, so the reference
    # passes; window 10 holds 10 and sees the failure.
    ed = datum_from_json(json.loads((DATA / "ed_outside_window.json").read_text()))
    ars = AffineReflectionSystem(ed.S, ed.S_prime, ed)
    for w in (1, 2, 3, 4):
        assert _ars_reference(ars, w).ok
        got = _assert_exact_matches_reference("ed_outside_window", ars, w, reach=10)
    assert [c.name for c in got.failures()] == ["ReS2"]
    assert "(3,) escapes" in got["ReS2"].witness


def test_exact_ars_res0_needs_zero_in_lambda0():
    # Lambda_0 = 1 + 2Z: every axiom of S holds, but 0 is not a root of R
    ars = build_affine_rs(build_classical("A", 1), 1)[0]
    odd = LatticeSubset(1, gens=[[2]], cosets=((1,),))
    got = validate_ars_axioms(_with_lambda(ars, (F(0), F(0)), odd))
    assert not got["ReS0"].ok and got["ReS0"].witness == "0 not in Lambda_0"


def test_exact_ars_res2_fractional_image():
    # B2 with long roots 3(+-e1 +-e2), a reflection system with
    # <e1, (3, 3)_check> = 1/3.  Over Lambda = Z, s_(3,3)+l sends e1 to a
    # point with Z-part -l/3, which leaves R; with Lambda_long = 3Z every
    # image is integral and R is closed.
    one, zero = F(1), F(0)
    roots = {(zero, zero), (one, zero), (-one, zero), (zero, one), (zero, -one)}
    long = {(3 * s * one, 3 * t * one) for s in (1, -1) for t in (1, -1)}
    S = RootSystem(RootSpace(2, ((one, zero), (zero, one))), roots | long)
    ed = untwisted_datum(S, 1)
    ars = AffineReflectionSystem(S, ed.S_prime, ed)
    got = _assert_exact_matches_reference("thirds", ars, 1)
    assert [c.name for c in got.failures()] == ["ReS2"]
    assert "/3" in got["ReS2"].witness and "escapes" in got["ReS2"].witness
    for a in sorted(long):
        ars = _with_lambda(ars, a, LatticeSubset.scaled_full(1, 3))
    assert _assert_exact_matches_reference("thirds, 3Z", ars, 2).ok


def _components_by_union_find(roots, coroots):
    """Number of classes of the real roots under <b, a_check> != 0."""
    real = [a for a in sorted(roots) if any(coroots[a])]
    label = {a: a for a in real}

    def find(a):
        while label[a] != a:
            a = label[a]
        return a

    for i, a in enumerate(real):
        for b in real[i + 1:]:
            if find(a) != find(b) and _pair(b, coroots[a]):
                label[find(a)] = find(b)
    return len({find(a) for a in real})


@pytest.mark.parametrize("fam,rk", SMALL_SYSTEMS)
def test_connected_components_matches_union_find(fam, rk):
    rs = _small(fam, rk)
    cases = [(name, prs_of(v)) for name, v in _variants(rs).items()]
    cases.append(("a1+rs", prs_of(direct_sum(build_classical("A", 1), rs))))
    cases.append(("affine", build_affine_rs(rs, 1)[0].to_prs(1)))
    for name, prs in cases:
        want = _components_by_union_find(prs.roots, prs.coroots)
        assert len(connected_components(prs)) == want, name
    assert len(connected_components(rs)) == _components_by_union_find(rs.roots, rs.coroots)


def _count_models(monkeypatch):
    """A list that grows by one at each IntegerRoots construction."""
    import lietor.rootsys as rootsys

    built = []
    init = rootsys.IntegerRoots.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(rootsys.IntegerRoots, "__init__", counting)
    return built


def test_one_model_per_root_system_in_the_criterion_2_loop(monkeypatch):
    from test_root_traversals import CRITERION2

    systems = [build_exceptional(fam) if rk is None else build_classical(fam, rk)
               for fam, rk in CRITERION2]
    built = _count_models(monkeypatch)
    for rs in systems:
        prs = PreReflectionSystem.from_root_system(rs)
        assert validate_axioms(prs).ok
        predicates(prs)
        assert root_strings_exhaustive(rs)[0]
        assert prs.model is rs.model and prs.coroots is rs.coroots
    assert len(systems) == len(built) == 24


def test_ars_build_builds_three_models(monkeypatch, capsys):
    # S, the normalized S and the windowed pre-reflection system
    from lietor.cli import main

    built = _count_models(monkeypatch)
    assert main(["ars", "build", "--type", "B", "--rank", "3", "--tier", "2",
                 "--window", "4"]) == 0
    assert len(built) == 3


def test_coroots_are_read_only():
    # a read-only copy: neither a write nor a later change to the input
    # reaches a built model
    rs = build_classical("A", 2)
    a, zero = min(rs.nonzero_roots()), (F(0),) * rs.dim
    source = dict(rs.coroots)
    prs = PreReflectionSystem(rs.dim, rs.roots, source)
    source[a] = zero
    for owner in (rs, prs, PreReflectionSystem.from_root_system(rs)):
        with pytest.raises(TypeError):
            owner.coroots[a] = zero
        assert owner.coroots[a] == rs.coroots[a] != zero

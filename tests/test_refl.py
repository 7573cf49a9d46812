import random
from fractions import Fraction

import pytest

from lietor.lattices import LatticeSubset
from lietor.linalg import rank as mat_rank
from lietor.refl import (
    ExtensionDatum,
    PreReflectionSystem,
    ars_structure,
    build_affine_rs,
    build_extension,
    check_form,
    extract_datum,
    predicates,
    quotient_by_affine_form,
    untwisted_datum,
    validate_ars_axioms,
    validate_axioms,
    validate_extension_datum,
)
from lietor.rootsys import (
    RootSystem,
    build_classical,
    build_exceptional,
    classify,
    indivisible_part,
    length_partition,
    normalized,
    root_string,
    root_strings_exhaustive,
    vec_add,
    with_form,
)
from lietor.scalars import QQ


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
    ed = untwisted_datum(build_classical("A", 1), 1)
    rep = validate_extension_datum(ed, window=3)
    assert rep.ok, rep.failures()[0]


def test_affine_b2_datum_valid():
    ars, _, _ = build_affine_rs(build_classical("B", 2), 2)
    rep = validate_extension_datum(ars.datum, window=3)
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
    rep = validate_extension_datum(ed, window=2)
    assert not rep["ED2"].ok


def test_build_extension_passes_axioms():
    for fam, rk, tier in [("A", 2, 1), ("B", 2, 2), ("BC", 1, 1), ("BC", 2, 1)]:
        S = build_classical(fam, rk)
        ars, _, _ = build_affine_rs(S, tier)
        rep = validate_ars_axioms(ars, window=2)
        assert rep.ok, (fam, rep.failures()[0].name, rep.failures()[0].witness)


def test_trivial_extension_is_s():
    a2 = build_classical("A", 2)
    fam = {a: LatticeSubset.finite(0, [()]) for a in a2.roots}
    ed = ExtensionDatum(a2, frozenset(indivisible_part(a2)), 0, fam)
    ars = build_extension(a2, ed.S_prime, ed, window=2)
    assert set(ars.windowed_roots(2)) == a2.roots
    assert ars_structure(ars, window=2)["nullity"] == 0


def test_extract_datum_round_trip():
    ars, _, _ = build_affine_rs(build_classical("B", 2), 2)
    ed = extract_datum(ars)
    for a in ars.S.roots:
        assert ed.lam(a) == ars.datum.lam(a)


def test_extract_datum_shifted_section():
    ars, _, _ = build_affine_rs(build_classical("B", 2), 2)
    phi = {(F(1), F(0)): (1,), (F(0), F(1)): (1,)}
    ed = extract_datum(ars, phi)
    # Lambda'_xi = Lambda_xi - phi(xi); Z and 2Z are shift-invariant here.
    assert ed.lam((F(1), F(0))) == ars.datum.lam((F(1), F(0)))
    assert ed.lam((F(1), F(1))) == ars.datum.lam((F(1), F(1)))
    rep = validate_extension_datum(ed, window=2)
    assert rep.ok


def test_extract_rejects_non_section():
    ars, _, _ = build_affine_rs(build_classical("B", 2), 2)
    phi = {(F(1), F(0)): (1,), (F(0), F(1)): (0,)}  # phi(long (1,1)) = 1 odd
    with pytest.raises(ValueError):
        extract_datum(ars, phi)


def _ambient_affine_form(ars):
    dim = ars.dim
    form = [[F(0)] * dim for _ in range(dim)]
    for i in range(ars.y_dim):
        for j in range(ars.y_dim):
            form[i][j] = ars.S.space.form[i][j]
    return form


def test_quotient_by_affine_form():
    ars, _, _ = build_affine_rs(build_classical("A", 2), 1)
    S, project, fibers = quotient_by_affine_form(ars.to_prs(3), _ambient_affine_form(ars))
    assert str(classify(S)) == "A2"
    arsg, _, _ = build_affine_rs(build_exceptional("G2"), 3)
    S, project, fibers = quotient_by_affine_form(arsg.to_prs(2), _ambient_affine_form(arsg))
    assert str(classify(S)) == "G2"


def test_quotient_of_nondegenerate_form_is_identity():
    rs = normalized(build_classical("B", 2))
    S, project, fibers = quotient_by_affine_form(prs_of(rs), rs.space.form)
    assert len(S.roots) == len(rs.roots)
    assert str(classify(S)) == "B2"


def test_quotient_rejects_non_affine_form():
    rs = normalized(build_classical("B", 2))
    bad = [[F(0)] * 2 for _ in range(2)]
    with pytest.raises(ValueError):
        quotient_by_affine_form(prs_of(rs), bad)


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
    ars = build_extension(a1, ed.S_prime, ed, window=2)
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
    ars = build_extension(a1, ed.S_prime, ed, window=2)
    st = ars_structure(ars, window=2)
    assert st["unbroken"] is False
    assert st["tame"] is True
    assert st["class_flags"]["EARS"] is False

    fam = {a: (LatticeSubset.finite(1, [(0,), (1,)]) if not any(a) else full)
           for a in a1.roots}
    ed = ExtensionDatum(a1, frozenset(indivisible_part(a1)), 1, fam)
    ars = build_extension(a1, ed.S_prime, ed, window=2)
    st = ars_structure(ars, window=2)
    assert st["symmetric"] is False


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
    real = prs.real_roots()
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

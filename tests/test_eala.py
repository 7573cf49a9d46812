import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from lietor.graded import CentroidalDerivation, GradedAssocAlgebra
from lietor.matlie import DirectSumSl, MatrixLieAlgebra, lift_derivation
from lietor.eala import (
    IaraData,
    build_E,
    classify_variant,
    core_and_tameness,
    default_iara_data,
    degree_derivation_basis,
    nullity_of,
    root_reflection_data,
    sigma_d_values,
    validate_inv_data,
    verify_eala,
    verify_iara,
)
from lietor.report import sampled_check, sampled_triples
from lietor.scalars import cyclotomic_field
from lietor.serialize import coord_algebra_from_json
from lietor.uce import build_affine


def F(*args):
    return Fraction(*args)


@pytest.fixture(scope="module")
def affine_E():
    L = MatrixLieAlgebra(3, GradedAssocAlgebra.laurent())
    data = default_iara_data(L, window=3)
    return build_E(data, window=2)


@pytest.fixture(scope="module")
def qtorus_E():
    F3 = cyclotomic_field(3)
    z3 = F3.zeta()
    q = [[F3.one, z3], [z3.inverse(), F3.one]]
    L = MatrixLieAlgebra(3, GradedAssocAlgebra.quantum_torus(q, F3))
    data = default_iara_data(L, window=2)
    return build_E(data, window=2)


def test_sigma_d_grading(affine_E):
    E = affine_E
    L = E.L
    # degrees summing to a nonzero value: functional on D^0 vanishes
    l1 = L.E(0, 1, L.A.monomial((1,)))
    l2 = L.E(1, 0, L.A.monomial((1,)))
    assert sigma_d_values(E.data, l1, l2) == [F(0)]
    # degree-derivation pairing: sigma(l1, l2)(d) = m (l1 | l2)
    m = 2
    l1 = L.E(0, 1, L.A.monomial((m,)))
    l2 = L.E(1, 0, L.A.monomial((-m,)))
    form = E.data.form
    assert sigma_d_values(E.data, l1, l2) == [F(m) * form.pair(l1, l2)]
    # d in T_D acting as zero: sigma vanishes on degree-0 pairs
    assert sigma_d_values(E.data, L.E(0, 1), L.E(1, 0)) == [F(0)]


def test_sigma_d_is_a_central_cocycle(qtorus_E):
    # alternating plus the 2-cocycle identity on sampled homogeneous triples
    E = qtorus_E
    L = E.L
    from lietor.matlie import bracket as mb

    basis = L.windowed_basis(1)
    rng = random.Random(9)
    for _ in range(60):
        l = rng.choice(basis)
        assert sigma_d_values(E.data, l, l) == [L.field.zero] * len(E.data.D)
    for _ in range(80):
        l1, l2, l3 = (rng.choice(basis) for _ in range(3))
        total = [
            a + b + c
            for a, b, c in zip(
                sigma_d_values(E.data, mb(l1, l2), l3),
                sigma_d_values(E.data, mb(l2, l3), l1),
                sigma_d_values(E.data, mb(l3, l1), l2),
            )
        ]
        assert total == [L.field.zero] * len(E.data.D)


def test_block_brackets(affine_E):
    E = affine_E
    c = E.c_basis_elem(0)
    d = E.d_basis_elem(0)
    assert E.bracket(c, c).is_zero()
    # [d, c] lies in C (contragredient action; zero for abelian D)
    dc = E.bracket(d, c)
    assert not dc.l and not any(dc.d)
    l = E.from_l(E.L.E(0, 1, E.L.A.monomial((2,))))
    dl = E.bracket(d, l)
    assert dl.l == E.L.E(0, 1, E.L.A.monomial((2,))).scale(F(2))


def test_form_blocks(affine_E):
    E = affine_E
    c = E.c_basis_elem(0)
    d = E.d_basis_elem(0)
    assert E.form(c, d) == E.data.C[0].values[0]
    assert E.form(c, c) == 0
    assert E.form(d, d) == 0


def test_affine_block_dimensions(affine_E):
    E = affine_E
    assert E.t_labels() == ["C", "h", "h", "D"]
    zero_root = (F(0),) * 3
    assert len(E.root_space_basis(zero_root, (0,))) == 4
    for m in (1, 2):
        assert len(E.root_space_basis(zero_root, (m,))) == 2


def test_affine_iara_eala(affine_E):
    ia = verify_iara(affine_E, window=2)
    assert ia.ok, ia.failures()[0].witness
    ea = verify_eala(affine_E, window=2, iara=ia)
    assert ea.ok, ea.failures()[0].witness
    assert nullity_of(affine_E, 2) == 1
    assert core_and_tameness(affine_E, 2)["tame"] is True


def test_affine_root_data_matches_ars(affine_E):
    from lietor.refl import build_affine_rs
    from lietor.rootsys import build_classical

    ars, mp, kac = build_affine_rs(build_classical("A", 2), 1)
    real_E, imag_E = root_reflection_data(affine_E, 2)
    real_R, imag_R = set(), set()
    for a in ars.windowed_roots(2):
        xi, lam = ars.split(a)
        vec = tuple(xi) + tuple(F(x) for x in lam)
        (real_R if any(xi) else imag_R).add(vec)
    assert real_E == real_R and imag_E == imag_R


def test_jacobi_and_invariance(affine_E):
    E = affine_E
    pool = E.windowed_basis(1)
    assert sampled_check("jacobi-sample", pool, 150, 0, E.jacobi_holds).ok
    for a, b, c in sampled_triples(pool, 100, 1):
        assert E.form(E.bracket(a, b), c) == E.form(a, E.bracket(b, c))


def test_gradedness_of_form(affine_E):
    E = affine_E
    zero_root = (F(0),) * 3
    x = E.root_space_basis(zero_root, (1,))[0]
    y = E.root_space_basis(zero_root, (2,))[0]
    assert E.form(x, y) == 0


def test_qtorus_eala(qtorus_E):
    E = qtorus_E
    ia = verify_iara(E, window=2)
    assert ia.ok
    ea = verify_eala(E, window=2, iara=ia)
    assert ea.ok
    assert nullity_of(E, 2) == 2
    assert core_and_tameness(E, 2)["tame"] is True
    cv = classify_variant(E, window=2, iara=ia, eala=ea)
    assert cv["EALA"] and cv["LEALA"] and cv["IARA"]


def test_invalid_tau_rejected(affine_E):
    L = affine_E.L
    data = default_iara_data(L, window=2)
    bad = dict(data.tau)
    bad[(0, 0)] = [F(1)]  # tau(d, d) != 0 is not alternating
    data = IaraData(L=data.L, form=data.form, D=data.D, T_D=data.T_D,
                    C=data.C, T_C=data.T_C, tau=bad)
    rep = validate_inv_data(data, window=1)
    assert not rep["INV-f"].ok


def test_tau_on_td_rejected():
    # Any nonzero tau on T_D x D violates INV(f) when T_D = D.
    L = MatrixLieAlgebra(3, GradedAssocAlgebra.group_algebra(2))
    data = default_iara_data(L, window=1)
    assert len(data.D) == 2
    tau = {(0, 1): [F(1) if not any(c.degree) else F(0) for c in data.C][:len(data.C)]}
    data = IaraData(L=data.L, form=data.form, D=data.D, T_D=data.T_D,
                    C=data.C, T_C=data.T_C, tau=tau)
    rep = validate_inv_data(data, window=1)
    assert not rep["INV-f"].ok


def test_degenerate_t_detected():
    # psi(1) = 0 makes the form on h degenerate: IA1 must fail with a witness.
    L = MatrixLieAlgebra(3, GradedAssocAlgebra.laurent())
    data = default_iara_data(L, phi=F(0), window=2)
    E = build_E(data, window=1, validate=False)
    rep = verify_iara(E, window=1)
    assert not rep["IA1"].ok
    assert "radical" in rep["IA1"].witness


def test_inv_c_requires_injectivity():
    # dropping one degree derivation on a rank-2 lattice breaks INV(c)
    L = MatrixLieAlgebra(3, GradedAssocAlgebra.group_algebra(2))
    D = degree_derivation_basis(L)[:1]
    data = default_iara_data(L, window=1, D=D)
    rep = validate_inv_data(data, window=1)
    assert not rep["INV-c"].ok


def test_direct_sum_is_iara_not_leala():
    L = DirectSumSl(3, 3, GradedAssocAlgebra.laurent())
    data = default_iara_data(L, window=2)
    E = build_E(data, window=1)
    ia = verify_iara(E, window=1)
    assert ia.ok
    ea = verify_eala(E, window=1, iara=ia)
    assert not ea["EA4"].ok
    cv = classify_variant(E, window=1, iara=ia, eala=ea)
    assert cv["IARA"] is True
    assert cv["LEALA"] is False
    assert cv["EALA"] is False


def test_qtorus_root_data_matches_untwisted_extension(qtorus_E):
    # the root datum of E over the zeta_3 torus is the untwisted extension
    # of A_2 by Z^2: every Lambda_xi is the full lattice
    from lietor.refl import untwisted_datum, AffineReflectionSystem

    E = qtorus_E
    ed = untwisted_datum(E.L.S, 2)
    ars = AffineReflectionSystem(E.L.S, ed.S_prime, ed)
    window = 2
    real_E, imag_E = root_reflection_data(E, window)
    real_R, imag_R = set(), set()
    for a in ars.windowed_roots(window):
        xi, lam = ars.split(a)
        vec = tuple(xi) + tuple(F(x) for x in lam)
        (real_R if any(xi) else imag_R).add(vec)
    assert real_E == real_R and imag_E == imag_R


def test_centreless_core_embeds_l(affine_E):
    # brackets of L-block elements reproduce L up to the central C-part
    E = affine_E
    L = E.L
    x = L.E(0, 1, L.A.monomial((1,)))
    y = L.E(1, 2, L.A.monomial((-1,)))
    from lietor.matlie import bracket as mat_bracket

    br = E.bracket(E.from_l(x), E.from_l(y))
    assert br.l == mat_bracket(x, y)
    assert not any(br.d)


def test_split_simple_nullity_zero():
    # no lattice directions at all: E = sl_3(Q), an EALA of nullity 0
    A0 = GradedAssocAlgebra.group_algebra(0)
    L = MatrixLieAlgebra(3, A0)
    data = default_iara_data(L, window=1)
    assert not data.D and not data.C
    E = build_E(data, window=1)
    ia = verify_iara(E, window=1)
    assert ia.ok
    ea = verify_eala(E, window=1, iara=ia)
    assert ea.ok
    assert nullity_of(E, 1) == 0
    assert core_and_tameness(E, 1)["tame"] is True


def test_reductive_not_tame():
    # coordinates concentrated in degree 0 with a phantom lattice direction:
    # D and C commute with everything, E = Z(E) + [E,E] with Z(E) != 0.
    Az = GradedAssocAlgebra.group_algebra(1, support="zero")
    L = MatrixLieAlgebra(3, Az)
    data = default_iara_data(L, window=2, C="dual")
    E = build_E(data, window=1)
    ia = verify_iara(E, window=1)
    assert ia.ok
    ct = core_and_tameness(E, 1)
    assert ct["tame"] is False
    assert nullity_of(E, 1) == 0
    d = E.d_basis_elem(0)
    for b in E.windowed_basis(1):
        assert E.bracket(d, b).is_zero()  # D is central junk here


def test_ad_nilpotence_bound(affine_E):
    # explicit (ad e)^6 = 0 witness for an anisotropic root
    E = affine_E
    e = E.from_l(E.L.E(0, 1, E.L.A.monomial((1,))))
    for b in E.windowed_basis(1):
        y = b
        for _ in range(6):
            y = E.bracket(e, y)
            if y.is_zero():
                break
        assert y.is_zero()


def test_t_alpha_represents_each_root(affine_E):
    # (t_alpha | s) = alpha(s) for every s in T, the defining property
    E = affine_E
    tbasis = E.t_basis()
    for ro, deg in E.windowed_roots(2):
        t = E.t_alpha(ro, deg)
        assert [E.form(t, s) for s in tbasis] == [E.root_value(ro, deg, s) for s in tbasis]


# IA3 reference: (ad x)^6 y = 0 for every real root vector x and every y in
# the windowed span, by taking the brackets.  verify_iara derives IA3 from
# the T-weights and the string bound of S instead.

def _brute_ia3(E, window):
    span = E.windowed_basis(window)
    for ro, deg in E.windowed_roots(window):
        if not E.root_norm(ro, deg):
            continue
        for e in E.root_space_basis(ro, deg):
            for b in span:
                y = b
                for _ in range(6):
                    y = E.bracket(e, y)
                    if y.is_zero():
                        break
                else:
                    return False
    return True


def _z3_torus():
    F3 = cyclotomic_field(3)
    z3 = F3.zeta()
    return GradedAssocAlgebra.quantum_torus([[F3.one, z3], [z3.inverse(), F3.one]], F3)


IA3_INPUTS = {
    "laurent-1": (lambda: MatrixLieAlgebra(3, GradedAssocAlgebra.laurent()), "min", 1),
    "laurent-2": (lambda: MatrixLieAlgebra(3, GradedAssocAlgebra.laurent()), "min", 2),
    "z3-torus-1": (lambda: MatrixLieAlgebra(3, _z3_torus()), "min", 1),
    "direct-sum-1": (lambda: DirectSumSl(3, 3, GradedAssocAlgebra.laurent()), "min", 1),
    "split-1": (lambda: MatrixLieAlgebra(3, GradedAssocAlgebra.group_algebra(0)), "min", 1),
    "reductive-1": (lambda: MatrixLieAlgebra(
        3, GradedAssocAlgebra.group_algebra(1, support="zero")), "dual", 1),
}


@pytest.mark.parametrize("name", sorted(IA3_INPUTS))
def test_structural_ia3_matches_brute_force(name):
    make_L, C, window = IA3_INPUTS[name]
    E = build_E(default_iara_data(make_L(), window=window, C=C), window=window)
    ia3 = verify_iara(E, window)["IA3"]
    assert ia3.ok == _brute_ia3(E, window)
    assert ia3.ok and ia3.note.startswith("structural")


def test_structural_ia3_fails_on_anisotropic_imaginary_root():
    # Shift the value of the root (0, 1) on all of T: it becomes anisotropic
    # with S-part 0, so no string bound applies and brute force sees
    # (ad h t)^6 != 0 as well.
    L = MatrixLieAlgebra(3, GradedAssocAlgebra.laurent())
    E = build_E(default_iara_data(L, window=1), window=1, validate=False)
    root_value = E.root_value
    target = ((F(0),) * 3, (1,))

    def shifted(root, deg, t):
        return root_value(root, deg, t) + (1 if (tuple(root), tuple(deg)) == target else 0)

    E.root_value = shifted
    ia3 = verify_iara(E, 1)["IA3"]
    assert not ia3.ok
    assert f"({target[0]}, {target[1]})" in ia3.witness
    assert not _brute_ia3(E, 1)


def test_sigma_d_pairs_of_every_d_degree():
    # A derivation of degree (1, 0) makes C_min reach degree (-1, 0); the
    # core must count those sigma_D values too, and T_D keeps only degree 0.
    A = GradedAssocAlgebra.group_algebra(2)
    L = MatrixLieAlgebra(3, A)
    D = degree_derivation_basis(L) + [CentroidalDerivation(A, [0, 1], (1, 0))]
    data = default_iara_data(L, window=1, D=D)
    assert data.T_D == [0, 1]
    assert len(data.C) == 3
    E = build_E(data, window=1)
    assert verify_iara(E, 1).ok
    ct = core_and_tameness(E, 1)
    assert ct["sigma_rank"] == 3
    assert ct["tame"] is True
    # without the degree-(-1, 0) functional, sigma_D leaves C there
    C = [c for c in data.C if c.degree != (-1, 0)]
    short = IaraData(L=L, form=data.form, D=data.D, T_D=data.T_D, C=C,
                     T_C=[k for k, c in enumerate(C) if not any(c.degree)])
    rep = validate_inv_data(short, window=1)
    assert not rep["INV-d"].ok
    assert rep["INV-d"].witness == "sigma_D outside C in degree (-1, 0)"


def test_windowed_facts_enumerated_once_per_run(monkeypatch):
    # C_min, INV-d and EA5 read the same sigma_D values, and IA1, EA1, EA6
    # and the nullity the same windowed roots; one enumeration serves each.
    import lietor.eala as eala

    sigma_calls, root_calls = [], []
    sigma_rows = eala._sigma_rows
    windowed_roots = eala.BuiltE._windowed_roots
    monkeypatch.setattr(eala, "_sigma_rows",
                        lambda *a: sigma_calls.append(a) or sigma_rows(*a))
    monkeypatch.setattr(eala.BuiltE, "_windowed_roots",
                        lambda *a: root_calls.append(a) or windowed_roots(*a))
    L = MatrixLieAlgebra(3, GradedAssocAlgebra.laurent())
    E = build_E(default_iara_data(L, window=2), window=2)
    ia = verify_iara(E, 2)
    assert verify_eala(E, 2, iara=ia).ok
    assert nullity_of(E, 2) == 1
    assert core_and_tameness(E, 2)["tame"]
    assert (len(sigma_calls), len(root_calls)) == (1, 1)
    # another window is another enumeration
    core_and_tameness(E, 1)
    E.windowed_roots(1)
    assert (len(sigma_calls), len(root_calls)) == (2, 2)


# sigma_D reference: lift each d_k entrywise and pair, one lift and one
# form pair per d_k.  sigma_d_values pairs each degree part of l1 once for
# all degree-0 d_k.

def _sigma_lifted(data, l1, l2):
    return [data.form.pair(lift_derivation(data.L, dk.apply)(l1), l2) for dk in data.D]


def _mixed_pairs(L, window, count, seed):
    """(l1, l2) with l1 a sum of basis elements of different degrees, or the
    bracket of such a sum with a basis element, and l2 such a sum."""
    from lietor.matlie import bracket as mb

    basis = L.windowed_basis(window)
    rng = random.Random(seed)
    for _ in range(count):
        l1 = sum(rng.sample(basis, 3), L.zero())
        l2 = sum(rng.sample(basis, 3), L.zero())
        yield l1, l2
        yield mb(l1, rng.choice(basis)), l2


def test_sigma_d_values_match_the_lifted_reference(qtorus_E):
    E = qtorus_E
    mixed = nonzero = 0
    for l1, l2 in _mixed_pairs(E.L, 1, 40, 3):
        got = sigma_d_values(E.data, l1, l2)
        assert got == _sigma_lifted(E.data, l1, l2)
        mixed += len({d for v in l1.entries.values() for d in v.degrees()}) > 1
        nonzero += any(got)
    assert mixed > 40 and nonzero


def test_sigma_d_values_match_the_lifted_reference_off_degree_0():
    # D holds a derivation of degree (1, 0), which keeps its lift
    A = GradedAssocAlgebra.group_algebra(2)
    L = MatrixLieAlgebra(3, A)
    D = degree_derivation_basis(L) + [CentroidalDerivation(A, [0, 1], (1, 0))]
    data = default_iara_data(L, window=1, D=D)
    basis = L.windowed_basis(1)
    nonzero = 0
    for l1 in basis:
        for l2 in basis:
            got = sigma_d_values(data, l1, l2)
            assert got == _sigma_lifted(data, l1, l2)
            nonzero += bool(got[2])
    assert nonzero
    for l1, l2 in _mixed_pairs(L, 1, 40, 4):
        assert sigma_d_values(data, l1, l2) == _sigma_lifted(data, l1, l2)


# T-action reference: [t, b] == (root + deg)(t) b by the full bracket, for
# every t in the T basis and b in the root space's basis.

def _q3_E(window):
    F3 = cyclotomic_field(3)
    z3 = F3.zeta()
    q = [[F3.one, z3], [z3.inverse(), F3.one]]
    L = MatrixLieAlgebra(3, GradedAssocAlgebra.quantum_torus(q, F3))
    return build_E(default_iara_data(L, window=window), window=window)


T_ACTION_INPUTS = {
    "q3-3": (lambda: _q3_E(3), 3),
    "affine-sl2-3": (lambda: build_affine(2, 3), 3),
    "affine-sl3-3": (lambda: build_affine(3, 3), 3),
}


@pytest.mark.parametrize("name", sorted(T_ACTION_INPUTS))
def test_t_action_matches_the_bracket(name):
    make_E, window = T_ACTION_INPUTS[name]
    E = make_E()
    tbasis = E.t_basis()
    in_l = set()
    for ro, deg in E.windowed_roots(window):
        basis = E.root_space_basis(ro, deg)
        assert all(E.bracket(t, b) == b.scale(E.root_value(ro, deg, t))
                   for b in basis for t in tbasis)
        assert E.acts_by_root(ro, deg)
        for b in basis:
            if any(b.c) or any(b.d):
                continue
            in_l.add(bool(any(ro)))
            for t in tbasis:
                br = E.bracket(t, b)
                assert br.l == E._t_action_on_l(t, b.l)
                assert not any(br.c) and not any(br.d)
    # real root spaces and the L part of the zero root space
    assert in_l == {True, False}


def test_t_action_reads_the_lifts_on_real_root_spaces():
    # with d_0 lifted as the identity, d_0 acts on L_(xi, lam) by 1, not by
    # lam_0: acts_by_root fails off lam_0 = 1, as the full bracket does
    E = _q3_E(1)
    root = E.L.root_of(0, 1)
    assert E.acts_by_root(root, (1, 0))
    E._lifts[0] = lambda l: l
    tbasis = E.t_basis()
    for deg, ok in (((1, 0), True), ((1, -1), True), ((0, 0), False), ((-1, 1), False)):
        assert E.acts_by_root(root, deg) is ok
        b = E.root_space_basis(root, deg)[0]
        assert all(E.bracket(t, b) == b.scale(E.root_value(root, deg, t))
                   for t in tbasis) is ok


SIGMA_COORDS = {
    "q3": lambda: coord_algebra_from_json(
        json.loads((Path(__file__).parent / "data" / "q3.json").read_text())),
    "laurent": GradedAssocAlgebra.laurent,
}


@pytest.mark.parametrize("coord", sorted(SIGMA_COORDS))
@pytest.mark.parametrize("C", ["min", "dual"])
def test_sigma_d_vanishes_on_the_t_basis(coord, C):
    # acts_by_root reads no C part of [t, b] for b in L: the L part h of t
    # has degree 0, so (d_k h | b) = (theta_k(0) t^gamma h | b) = 0.
    L = MatrixLieAlgebra(3, SIGMA_COORDS[coord]())
    E = build_E(default_iara_data(L, window=1, C=C), window=1)
    zero = [L.field.zero] * len(E.data.D)
    for t in E.t_basis():
        for b in L.windowed_basis(1):
            assert sigma_d_values(E.data, t.l, b) == zero

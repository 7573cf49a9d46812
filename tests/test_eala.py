import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings

from lietor.graded import CentroidalDerivation, GradedAssocAlgebra
from lietor.lattices import box
from lietor.linalg import lattice_reduce, rank
from lietor.matlie import DirectSumSl, MatrixLieAlgebra, lift_derivation
from lietor.eala import (
    BuiltE,
    CFunc,
    IaraData,
    build_E,
    c_min_basis,
    classify_variant,
    core_and_tameness,
    default_iara_data,
    degree_derivation_basis,
    nullity_of,
    sigma_d_values,
    sigma_rows,
    validate_inv_data,
    verify_eala,
    verify_iara,
)
from lietor.report import sampled_triples
from lietor.scalars import QQ, cyclotomic_field
from lietor.serialize import coord_algebra_from_json
from lietor.uce import build_affine
from eala_reference import (
    inv_e_reference,
    per_item_failures,
    root_norm,
    root_reflection_data,
    sigma_rows_reference,
    t_labels,
    windowed_roots,
)
from generated_tori import tori
from matlie_reference import windowed_basis as sl_windowed_basis
from qtorus_reference import nondegenerate_on_window, residues


def F(*args):
    return Fraction(*args)


def jacobi_holds(bracket, x, y, z) -> bool:
    """The Jacobi identity at (x, y, z) for bracket, on sl_n(A) or on E."""
    total = bracket(bracket(x, y), z) + bracket(bracket(y, z), x) + bracket(bracket(z, x), y)
    return total == x - x  # the zero of x's algebra


@pytest.fixture(scope="module")
def affine_E():
    L = MatrixLieAlgebra(3, GradedAssocAlgebra.laurent())
    data = default_iara_data(L)
    return build_E(data)


@pytest.fixture(scope="module")
def qtorus_E():
    F3 = cyclotomic_field(3)
    z3 = F3.zeta()
    q = [[F3.one, z3], [z3.inverse(), F3.one]]
    L = MatrixLieAlgebra(3, GradedAssocAlgebra.quantum_torus(q, F3))
    data = default_iara_data(L)
    return build_E(data)


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

    basis = sl_windowed_basis(L, 1)
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
    assert t_labels(E) == ["C", "h", "h", "D"]
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
    assert core_and_tameness(affine_E)["tame"] is True


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
    pool = windowed_basis(E, 1)
    assert all(jacobi_holds(E.bracket, *t) for t in sampled_triples(pool, 150, 0))
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
    assert core_and_tameness(E)["tame"] is True
    cv = classify_variant(iara=ia, eala=ea)
    assert cv["EALA"] and cv["LEALA"] and cv["IARA"]


def test_invalid_tau_rejected(affine_E):
    L = affine_E.L
    data = default_iara_data(L)
    bad = dict(data.tau)
    bad[(0, 0)] = [F(1)]  # tau(d, d) != 0 is not alternating
    data = IaraData(L=data.L, form=data.form, D=data.D, T_D=data.T_D,
                    C=data.C, T_C=data.T_C, tau=bad)
    rep = validate_inv_data(BuiltE(data))
    assert not rep["INV-f"].ok


def test_tau_on_td_rejected():
    # Any nonzero tau on T_D x D violates INV(f) when T_D = D.
    L = MatrixLieAlgebra(3, GradedAssocAlgebra.group_algebra(2))
    data = default_iara_data(L)
    assert len(data.D) == 2
    tau = {(0, 1): [F(1) if not any(c.degree) else F(0) for c in data.C][:len(data.C)]}
    data = IaraData(L=data.L, form=data.form, D=data.D, T_D=data.T_D,
                    C=data.C, T_C=data.T_C, tau=tau)
    rep = validate_inv_data(BuiltE(data))
    assert not rep["INV-f"].ok


def test_degenerate_t_detected():
    # psi(1) = 0 makes the form on h degenerate: IA1 must fail with a witness.
    L = MatrixLieAlgebra(3, GradedAssocAlgebra.laurent())
    data = default_iara_data(L, phi=F(0))
    E = build_E(data, validate=False)
    rep = verify_iara(E, window=1)
    assert not rep["IA1"].ok
    assert "radical" in rep["IA1"].witness


def test_ia1_radical_witness_prints_rationals_as_p_over_q():
    # the witness text does not depend on the type of a rational scalar
    L = MatrixLieAlgebra(3, GradedAssocAlgebra.laurent())
    data = default_iara_data(L, phi=F(0))
    E = build_E(data, validate=False)
    assert verify_iara(E, window=1)["IA1"].witness == (
        "radical vector of T in coordinates [1, 0, 0] over the T basis")


@pytest.mark.parametrize("coord", ["Q[Z^2]", "zeta3-torus"])
def test_inv_b_witness_prints_rationals_as_p_over_q(coord):
    # A derivation with theta(deg) = 3 is not skew.  Its theta vector prints
    # the same over Q and over Q(zeta_3), where 1/2 is a Fraction in both.
    F3 = cyclotomic_field(3)
    z = F3.zeta()
    A = (GradedAssocAlgebra.group_algebra(2) if coord == "Q[Z^2]" else
         GradedAssocAlgebra.quantum_torus([[F3.one, z], [z.inverse(), F3.one]], F3))
    L = MatrixLieAlgebra(3, A)
    D = degree_derivation_basis(L) + [CentroidalDerivation(A, [1, F(1, 2)], (3, 0))]
    rep = validate_inv_data(BuiltE(default_iara_data(L, D=D)))
    assert rep["INV-b"].witness == "theta(deg) != 0 for d(theta=[1, 1/2], deg=(3, 0)) (not skew)"


def test_inv_f_refuses_a_tau_that_is_not_cyclic():
    # tau is alternating and vanishes on T_D, but the cyclic identity asks
    # for tau(d_2, d_3)(d_2) = tau(d_3, d_2)(d_2), and these are 1 and -1
    A = GradedAssocAlgebra.group_algebra(2)
    L = MatrixLieAlgebra(3, A)
    D = degree_derivation_basis(L) + [CentroidalDerivation(A, [0, 1], g)
                                      for g in ((1, 0), (-1, 0))]
    data = default_iara_data(L, D=D, C="dual")
    data.tau = {(2, 3): [F(int(k == 2)) for k in range(4)]}
    rep = validate_inv_data(BuiltE(data))
    assert [c.name for c in rep.failures()] == ["INV-f"]
    assert rep["INV-f"].witness == "tau cyclic identity fails at (2,2,3)"


def test_inv_c_requires_injectivity():
    # dropping one degree derivation on a rank-2 lattice breaks INV(c)
    L = MatrixLieAlgebra(3, GradedAssocAlgebra.group_algebra(2))
    D = degree_derivation_basis(L)[:1]
    data = default_iara_data(L, D=D)
    rep = validate_inv_data(BuiltE(data))
    assert not rep["INV-c"].ok


def test_direct_sum_is_iara_not_leala():
    L = DirectSumSl(3, 3, GradedAssocAlgebra.laurent())
    data = default_iara_data(L)
    E = build_E(data)
    ia = verify_iara(E, window=1)
    assert ia.ok
    ea = verify_eala(E, window=1, iara=ia)
    assert not ea["EA4"].ok
    cv = classify_variant(iara=ia, eala=ea)
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
    data = default_iara_data(L)
    assert not data.D and not data.C
    E = build_E(data)
    ia = verify_iara(E, window=1)
    assert ia.ok
    ea = verify_eala(E, window=1, iara=ia)
    assert ea.ok
    assert nullity_of(E, 1) == 0
    assert core_and_tameness(E)["tame"] is True


def test_reductive_not_tame():
    # coordinates concentrated in degree 0 with a phantom lattice direction:
    # D and C commute with everything, E = Z(E) + [E,E] with Z(E) != 0.
    Az = GradedAssocAlgebra.group_algebra(1, support="zero")
    L = MatrixLieAlgebra(3, Az)
    data = default_iara_data(L, C="dual")
    E = build_E(data)
    ia = verify_iara(E, window=1)
    assert ia.ok
    ct = core_and_tameness(E)
    assert ct["tame"] is False
    assert nullity_of(E, 1) == 0
    d = E.d_basis_elem(0)
    for b in windowed_basis(E, 1):
        assert E.bracket(d, b).is_zero()  # D is central junk here


def test_ad_nilpotence_bound(affine_E):
    # explicit (ad e)^6 = 0 witness for an anisotropic root
    E = affine_E
    e = E.from_l(E.L.E(0, 1, E.L.A.monomial((1,))))
    for b in windowed_basis(E, 1):
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
    for ro, deg in windowed_roots(E, 2):
        t = E.t_alpha(ro, deg)
        assert [E.form(t, s) for s in tbasis] == [E.root_value(ro, deg, s) for s in tbasis]


def test_t_alpha_takes_a_list_root_and_degree(affine_E):
    E = affine_E
    ro, deg = next((ro, deg) for ro, deg in windowed_roots(E, 2) if any(ro) and any(deg))
    t = E.t_alpha(list(ro), list(deg))
    assert E.t_alpha(ro, deg) is t
    assert [E.form(t, s) for s in E.t_basis()] == [E.root_value(ro, deg, s) for s in E.t_basis()]


# IA3 reference: (ad x)^6 y = 0 for every real root vector x and every y in
# the windowed span, by taking the brackets.  verify_iara derives IA3 from
# the T-weights and the string bound of S instead.

def _brute_ia3(E, window):
    span = windowed_basis(E, window)
    for ro, deg in windowed_roots(E, window):
        if not root_norm(E, ro, deg):
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
    E = build_E(default_iara_data(make_L(), C=C))
    ia3 = verify_iara(E, window)["IA3"]
    assert ia3.ok == _brute_ia3(E, window)
    assert ia3.ok and ia3.note.startswith("structural")


def _shift_imaginary_values(E, coeffs):
    """E with the value of each zero root (0, d) shifted by sum_i c_i d_i on
    every vector of T: linear in d, as a root value is."""
    root_value = E.root_value

    def shifted(root, deg, t):
        if any(root):
            return root_value(root, deg, t)
        return root_value(root, deg, t) + sum(c * d for c, d in zip(coeffs, deg))

    E.root_value = shifted
    return E


def _anisotropic_E():
    L = MatrixLieAlgebra(3, GradedAssocAlgebra.laurent())
    return _shift_imaginary_values(
        build_E(default_iara_data(L), validate=False), [1])


def test_structural_ia3_fails_on_anisotropic_imaginary_root():
    # Shift the value of the roots (0, d) on all of T by d: they become
    # anisotropic with S-part 0, so no string bound applies and brute force
    # sees (ad h t)^6 != 0 as well.  IA3 reads the norm at e_1 first.
    E = _anisotropic_E()
    ia3 = verify_iara(E, 1)["IA3"]
    assert not ia3.ok
    assert ia3.witness == "real root ((0, 0, 0), (1,)) has S-part 0"
    assert not _brute_ia3(E, 1)


IMAGINARY_NORM_INPUTS = {
    "q3-3": (lambda: _periodic_E("q3", 3), 3),
    "q3-3-shifted": (lambda: _shift_imaginary_values(_periodic_E("q3", 3), [1, 2]), 3),
    "laurent-dual-2": (lambda: build_E(default_iara_data(
        MatrixLieAlgebra(3, GradedAssocAlgebra.laurent()), C="dual")), 2),
    "anisotropic-1": (_anisotropic_E, 1),
}


@pytest.mark.parametrize("name", sorted(IMAGINARY_NORM_INPUTS))
def test_imaginary_norm_is_the_root_norm_at_every_zero_root(name):
    # IA3 reads (t_(0,d) | t_(0,d)) as d^T G d; the reference solves for
    # t_(0,d) at each degree
    make_E, window = IMAGINARY_NORM_INPUTS[name]
    E = make_E()
    zero = (0,) * E.L.n
    degs = [deg for ro, deg in windowed_roots(E, window) if not any(ro)]
    norms = [E.imaginary_norm(deg) for deg in degs]
    assert norms == [root_norm(E, zero, deg) for deg in degs]
    assert len(degs) == (2 * window + 1) ** E.L.z_rank
    assert any(norms) is (name in ("q3-3-shifted", "anisotropic-1"))


@pytest.mark.parametrize("norm,want", [
    (lambda d: d[0] * d[1], (1, 1)),  # zero at e_1 and e_2, not at e_1 + e_2
    (lambda d: d[1] * (d[1] - d[0]), (0, 1)),
    (lambda d: 0, None),
], ids=["hyperbolic", "diagonal", "zero"])
def test_anisotropic_degree_reads_the_norm_at_e_i_and_e_i_plus_e_j(norm, want):
    # a quadratic form vanishes on Z^2 iff it vanishes at e_1, e_2 and
    # e_1 + e_2; the reference scans the window-2 box
    E = _periodic_E("q3", 1)
    E.imaginary_norm = norm
    assert E.anisotropic_degree() == want
    assert any(norm(d) for d in box(2, 2)) is (want is not None)


@pytest.mark.parametrize("phi", [1, 0])
@pytest.mark.parametrize("coord", ["laurent", "poly", "Q[Z^2]", "Q[0]", "q3"])
def test_inv_a_reads_the_form_as_the_box_scan_does(coord, phi):
    # INV-a decides the form from phi(1) and predivision; the reference
    # takes the Gram rank of A^d against A^-d over the box
    A = {"poly": GradedAssocAlgebra.polynomial(), "Q[Z^2]": GradedAssocAlgebra.group_algebra(2),
         "Q[0]": GradedAssocAlgebra.group_algebra(1, support="zero")}.get(coord) or _coord(coord)
    L = MatrixLieAlgebra(3, A)
    data = default_iara_data(L, phi=L.field.from_int(phi), C="dual")
    inv_a = validate_inv_data(build_E(data, validate=False))["INV-a"]
    assert inv_a.ok is nondegenerate_on_window(data.form.gf, 2) is (phi == 1 and coord != "poly")
    assert inv_a.status in ("pass", "fail") and inv_a.note.startswith("structural: ")
    if coord == "poly":
        assert inv_a.witness == "no invertible element in L_(eps_2 - eps_0)^(1)"
    elif not phi:
        assert inv_a.witness == "graded form on the coordinates is degenerate"


@pytest.mark.parametrize("support", ["nonneg", "zero"])
def test_a_bounded_support_is_not_periodic_modulo_rad(support):
    # Rad of the group algebra is all of Z^2, but on a bounded support no
    # t^rho with rho != 0 is a unit, so each degree stays its own class
    A = GradedAssocAlgebra.group_algebra(2, support=support)
    E = build_E(default_iara_data(MatrixLieAlgebra(3, A), C="dual"), validate=False)
    assert A.centre_lattice().basis == [[1, 0], [0, 1]]
    assert E._centre_rows is None


def test_sigma_d_pairs_of_every_d_degree():
    # A derivation of degree (1, 0) makes C_min reach degree (-1, 0); the
    # core must count those sigma_D values too, and T_D keeps only degree 0.
    A = GradedAssocAlgebra.group_algebra(2)
    L = MatrixLieAlgebra(3, A)
    D = degree_derivation_basis(L) + [CentroidalDerivation(A, [0, 1], (1, 0))]
    data = default_iara_data(L, D=D)
    assert data.T_D == [0, 1]
    assert len(data.C) == 3
    E = build_E(data)
    assert verify_iara(E, 1).ok
    ct = core_and_tameness(E)
    assert ct["sigma_rank"] == 3
    assert ct["tame"] is True
    # without the degree-(-1, 0) functional, sigma_D leaves C there
    C = [c for c in data.C if c.degree != (-1, 0)]
    short = IaraData(L=L, form=data.form, D=data.D, T_D=data.T_D, C=C,
                     T_C=[k for k, c in enumerate(C) if not any(c.degree)])
    rep = validate_inv_data(BuiltE(short))
    assert not rep["INV-d"].ok
    assert rep["INV-d"].witness == "sigma_D outside C in degree (-1, 0)"


def test_windowed_facts_enumerated_once_per_run(monkeypatch):
    # C_min, INV-d and EA5 read the same sigma_D rows, and IA2, IA3, EA1,
    # EA6 and the nullity the same class list; one computation serves each.
    import lietor.eala as eala

    # the hooks count the runs of the memoised bodies, not the lookups
    sigma_calls, class_calls = [], []
    sigma_rows = eala._sigma_rows.__wrapped__
    class_list = eala.BuiltE.class_list.__wrapped__
    monkeypatch.setattr(eala._sigma_rows, "__wrapped__",
                        lambda *a: sigma_calls.append(a) or sigma_rows(*a))
    monkeypatch.setattr(eala.BuiltE.class_list, "__wrapped__",
                        lambda *a: class_calls.append(a) or class_list(*a))
    L = MatrixLieAlgebra(3, GradedAssocAlgebra.laurent())
    E = build_E(default_iara_data(L))
    ia = verify_iara(E, 2)
    assert verify_eala(E, 2, iara=ia).ok
    assert nullity_of(E, 2) == 1
    assert core_and_tameness(E)["tame"]
    assert (len(sigma_calls), len(class_calls)) == (1, 1)
    # another window is another class list; sigma_D takes no window
    E.class_list(1)
    assert (len(sigma_calls), len(class_calls)) == (1, 2)


# sigma_D reference: lift each d_k entrywise and pair, one lift and one
# form pair per d_k.  sigma_d_values pairs each degree part of l1 once for
# all degree-0 d_k.

def _sigma_lifted(data, l1, l2):
    return [data.form.pair(lift_derivation(data.L, dk.apply)(l1), l2) for dk in data.D]


def _mixed_pairs(L, window, count, seed):
    """(l1, l2) with l1 a sum of basis elements of different degrees, or the
    bracket of such a sum with a basis element, and l2 such a sum."""
    from lietor.matlie import bracket as mb

    basis = sl_windowed_basis(L, window)
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
        mixed += len({d for v in l1.terms.values() for d in v.terms}) > 1
        nonzero += any(got)
    assert mixed > 40 and nonzero


def test_sigma_d_values_match_the_lifted_reference_off_degree_0():
    # D holds a derivation of degree (1, 0), which keeps its lift
    A = GradedAssocAlgebra.group_algebra(2)
    L = MatrixLieAlgebra(3, A)
    D = degree_derivation_basis(L) + [CentroidalDerivation(A, [0, 1], (1, 0))]
    data = default_iara_data(L, D=D)
    basis = sl_windowed_basis(L, 1)
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
    return build_E(default_iara_data(L))


T_ACTION_INPUTS = {
    "q3-3": (lambda: _q3_E(3), 3),
    "affine-sl2-3": (lambda: build_affine(2), 3),
    "affine-sl3-3": (lambda: build_affine(3), 3),
}


@pytest.mark.parametrize("name", sorted(T_ACTION_INPUTS))
def test_t_action_matches_the_bracket(name):
    make_E, window = T_ACTION_INPUTS[name]
    E = make_E()
    tbasis = E.t_basis()
    in_l = set()
    for ro, deg in windowed_roots(E, window):
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
    E = build_E(default_iara_data(L, C=C))
    zero = [L.field.zero] * len(E.data.D)
    for t in E.t_basis():
        for b in sl_windowed_basis(L, 1):
            assert sigma_d_values(E.data, t.l, b) == zero


# Root-space checks decided on one item per Weyl orbit of roots and class of
# degrees, 0, the centre lattice Rad less 0 and the rest of Z^n
# (BuiltE.class_list), against the per-item reference of eala_reference,
# which calls each check on every (root, degree) of a window.

DATA = Path(__file__).parent / "data"


def _coord(name):
    if name == "laurent":
        return GradedAssocAlgebra.laurent()
    return coord_algebra_from_json(json.loads((DATA / f"{name}.json").read_text()))


def _custom_d_E():
    # a derivation of degree (1, 0): C_min reaches degree (-1, 0)
    A = GradedAssocAlgebra.group_algebra(2)
    L = MatrixLieAlgebra(3, A)
    D = degree_derivation_basis(L) + [CentroidalDerivation(A, [0, 1], (1, 0))]
    return build_E(default_iara_data(L, D=D))


def _periodic_E(coord, window):
    L = MatrixLieAlgebra(3, _coord(coord))
    return build_E(default_iara_data(L))


PERIODIC_INPUTS = {
    **{f"{coord}-{w}": (lambda coord=coord, w=w: _periodic_E(coord, w), w)
       for coord in ("q2", "q3", "q4", "q6_in_zeta3", "laurent") for w in (1, 2, 3)},
    "direct-sum-2": (lambda: build_E(default_iara_data(
        DirectSumSl(3, 3, GradedAssocAlgebra.laurent()))), 2),
    "affine-sl2-3": (lambda: build_affine(2), 3),
    "custom-d-1": (_custom_d_E, 1),
}


def _root_space_verdicts(E, window):
    """(status, witness) of IA2, IA3 and EA1, and the first item of the
    class list on which T does not act by its root (lietor affine's
    root-spaces)."""
    ia = verify_iara(E, window)
    ea = verify_eala(E, window, iara=ia)
    out = {name: (rep[name].status, rep[name].witness)
           for rep, name in ((ia, "IA2"), (ia, "IA3"), (ea, "EA1"))}
    out["root-spaces"] = next((it for it in E.class_list(window)[0]
                               if not E.acts_by_root(*it)), None)
    return out


def _class_key(E, ro, deg):
    """The class of (ro, deg) that class_list represents: the block of the
    root, and whether the degree is nonzero and whether it lies in Rad (each
    degree its own class where the list is windowed)."""
    pair = E.L._root_indices(ro)
    block = next(((lo, hi) for lo, hi in E.L.blocks
                  if pair and lo <= min(pair) and max(pair) < hi), tuple(ro))
    if E._centre_rows is None:
        return block, tuple(deg)
    return block, (any(deg), tuple(deg) in E.L.A.centre_lattice())


# (windowed roots, items): each block is one class of roots, so q3 has
# 2 x 5 items (degree 0, (3, 0) in Rad = 3Z^2, and e_1, e_1 + e_2 and e_2
# off it), q2 has 2 x 4 (Rad = 0), and direct-sum-2 has 3 x 2 (the zero
# root and two blocks, degree 0 and e_1 in Rad = Z); on custom-d-1 every
# degree of the window is its own class
CLASS_COUNTS = {"q3-3": (343, 10), "q2-3": (343, 8), "direct-sum-2": (65, 6),
                "affine-sl2-3": (21, 4), "custom-d-1": (63, 18)}


@pytest.mark.parametrize("name", sorted(PERIODIC_INPUTS))
def test_class_verdicts_match_the_per_degree_reference(name):
    make_E, window = PERIODIC_INPUTS[name]
    E = make_E()
    calls = []
    acts_by_root = E.acts_by_root
    E.acts_by_root = lambda ro, deg: calls.append(deg) or acts_by_root(ro, deg)
    shared = _root_space_verdicts(E, window)
    shared_calls, calls[:] = len(calls), []
    items, listed = E.class_list(window)
    exact = name != "custom-d-1"
    assert listed == (None if exact else window)
    status = "pass" if exact else "windowed-pass"
    assert all(v == (status, None) for v in list(shared.values())[:3])
    assert shared["root-spaces"] is None
    assert per_item_failures(E, window) == {"IA2": None, "T-action": None, "anisotropic": None,
                                            "EA1": None, "nullity": nullity_of(E, window)}
    # IA3 and root-spaces each call acts_by_root once per item, and the
    # window meets no class that the items miss; a windowed list holds one
    # item per class
    roots = windowed_roots(E, window)
    classes = {_class_key(E, ro, deg) for ro, deg in roots}
    listed_classes = {_class_key(E, ro, deg) for ro, deg in items}
    assert (shared_calls, len(calls)) == (2 * len(items), len(roots))
    assert classes <= listed_classes
    if not exact:
        assert classes == listed_classes and len(listed_classes) == len(items)
    if name in CLASS_COUNTS:
        assert (len(roots), len(items)) == CLASS_COUNTS[name]
    if name == "custom-d-1":
        # a D element of nonzero degree: only the roots of a degree share
        assert E._centre_rows is None


@pytest.mark.parametrize("coord,count,pivot", [("laurent", 4, 1), ("q3", 20, 3), ("q4", 34, 4),
                                               ("q6_in_zeta3", 74, 6)])
def test_the_class_list_is_every_class_that_a_large_window_meets(coord, count, pivot):
    # Rad = pivot Z^n.  The count classes of 2 roots (the zero root and the
    # block) times 0, Rad less 0 and each nonzero residue modulo Rad fall
    # into the 2 x 3 classes of the list: at a point of each, every check
    # reads as at the list's item of its class.  A window of twice the
    # pivot meets every class.
    E = _periodic_E(coord, 1)
    items, listed = E.class_list(1)
    assert listed is None and len(items) == (4 if pivot == 1 else 10)
    assert E.class_list(3) == E.class_list(1)
    met = {_class_key(E, ro, deg) for ro, deg in windowed_roots(E, 2 * pivot)}
    assert met == {_class_key(E, ro, deg) for ro, deg in items}
    rad = E.L.A.centre_lattice()
    points = [tuple(rad.basis[0])] + [r for r in residues(rad) if any(r)]
    assert 2 * (len(points) + 1) == count
    first = _first_items(E)
    for ro in {ro for ro, _ in items}:
        for deg in points:
            assert _checks_at(E, ro, deg) == _checks_at(E, *first[_class_key(E, ro, deg)])


def _checks_at(E, ro, deg):
    """The dimension of E_(ro, deg) and the root-space checks there."""
    return (len(E.root_space_basis(ro, deg)), E.has_sl2_pair(ro, deg), E.acts_by_root(ro, deg),
            E.pairs_nondegenerately(ro, deg))


def _first_items(E):
    """The first item of the exact class list in each class, by class."""
    first = {}
    for item in E.class_list()[0]:
        first.setdefault(_class_key(E, *item), item)
    return first


# Each input of PERIODIC_INPUTS at windows 1 to 4
PER_ITEM_WINDOWS = {
    **{f"{coord}-{w}": (lambda coord=coord: _periodic_E(coord, 1), w)
       for coord in ("laurent", "q2", "q3", "q4", "q6_in_zeta3") for w in (1, 2, 3, 4)},
    **{f"{name[:-2]}-{w}": (PERIODIC_INPUTS[name][0], w)
       for name in ("direct-sum-2", "affine-sl2-3", "custom-d-1") for w in (1, 2, 3, 4)},
}


@pytest.mark.parametrize("name", sorted(PER_ITEM_WINDOWS))
def test_the_per_item_reference_agrees_with_every_exact_verdict(name):
    # The exact lines are the ones the per-item reference reads at every
    # window: IA2, IA3 (T-action and anisotropy), EA1, EA3 and the nullity.
    # custom-d, whose D breaks the premises, is windowed, and reads the
    # reference's window.
    make_E, window = PER_ITEM_WINDOWS[name]
    E = make_E()
    listed = None if E._centre_rows is not None else window
    ia = verify_iara(E, window)
    ea = verify_eala(E, window, iara=ia)
    ref = per_item_failures(E, window)
    for check, keys in (("IA2", ["IA2"]), ("IA3", ["T-action", "anisotropic"]),
                        ("EA1", ["EA1"])):
        rep = ia if check in ia else ea
        assert rep[check].window == listed
        assert rep[check].ok is all(ref[k] is None for k in keys)
    assert ea["EA3"].window == listed and ea["EA3"].ok is ia["IA3"].ok
    assert nullity_of(E, window) == ref["nullity"] == E.L.z_rank


def test_root_classes_are_the_blocks():
    L = DirectSumSl(3, 3, GradedAssocAlgebra.laurent())
    E = build_E(default_iara_data(L))
    items, listed = E.class_list(1)
    zero = (0,) * 6
    first = sorted(ro for ro in L.S.roots if any(ro))
    block_0 = next(ro for ro in first if L._root_indices(ro)[0] < 3)
    block_1 = next(ro for ro in first if L._root_indices(ro)[0] >= 3)
    assert listed is None
    assert [ro for ro, deg in items if deg == (0,)] == [zero, block_0, block_1]
    # e_0 - e_3 joins the blocks and is no root of L
    assert L.root_of(0, 3) not in {ro for ro, _ in items}


def test_eala_qtorus_decides_each_check_once_per_class(monkeypatch, tmp_path):
    """The benchmark's eala-qtorus command: 2 root classes times the 5
    degrees of the class list, 0, (3, 0) in Rad and e_1, e_1 + e_2 and e_2
    off it, less (0, 0) for IA2.  Keyed on the residues modulo Rad, the
    counts were 19, 20 and 20, and keyed on the root itself as well, 69, 70
    and 70."""
    from lietor.cli import main

    calls = {}
    for check in ("has_sl2_pair", "acts_by_root", "pairs_nondegenerately"):
        plain = getattr(BuiltE, check)
        monkeypatch.setattr(BuiltE, check, lambda self, ro, deg, check=check, plain=plain:
                            calls.update({check: calls.get(check, 0) + 1})
                            or plain(self, ro, deg))
    q3 = Path(__file__).parent.parent / "perfbench" / "inputs" / "q3.json"
    argv = ["eala", "--coord", str(q3), "--n", "3", "--window", "3",
            "--out", str(tmp_path / "report.json")]
    assert main(argv) == 0
    assert calls == {"has_sl2_pair": 9, "acts_by_root": 10, "pairs_nondegenerately": 10}


def test_q3_window_3_reads_five_degrees():
    # 0, the class of Rad less 0 read at (3, 0), and e_1, e_1 + e_2 and e_2,
    # which lie off Rad = 3Z^2
    E = _periodic_E("q3", 3)
    assert E._centre_rows == [[3, 0], [0, 3]]
    degs = list(dict.fromkeys(deg for ro, deg in E.class_list(3)[0]))
    assert degs == [(0, 0), (3, 0), (1, 0), (1, 1), (0, 1)]
    # with q_01 = q_02 = -1 and q_12 = 1, e_2 + e_3 lies in Rad and is not
    # listed; Rad less 0 is read at its first HNF row
    one = F(1)
    A = GradedAssocAlgebra.quantum_torus([[one, -one, -one], [-one, one, one], [-one, one, one]],
                                         QQ)
    E = build_E(default_iara_data(MatrixLieAlgebra(3, A)))
    assert E._centre_rows == [[2, 0, 0], [0, 1, 1], [0, 0, 2]]
    degs = list(dict.fromkeys(deg for ro, deg in E.class_list()[0]))
    assert degs == [(0, 0, 0), (2, 0, 0), (1, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 0), (0, 0, 1)]


def _group_E(D=None, extra_c=()):
    """E over Q[Z^2] at window 1, unvalidated, with D and C as given."""
    A = GradedAssocAlgebra.group_algebra(2)
    L = MatrixLieAlgebra(3, A)
    data = default_iara_data(L, D=D and D(L))
    C = [c for c in data.C if not any(c.degree)] + list(extra_c)
    return build_E(IaraData(L=L, form=data.form, D=data.D, T_D=data.T_D, C=C,
                            T_C=[k for k, c in enumerate(C) if not any(c.degree)]),
                   validate=False)


UNSHARED_INPUTS = {
    # E_(0, (1, 0)) holds the derivation of degree (1, 0), which nothing in
    # E_(0, (-1, 0)) pairs with
    "d-degree": (lambda: _group_E(D=lambda L: degree_derivation_basis(L) + [
        CentroidalDerivation(L.A, [0, 1], (1, 0))]), "pairs_nondegenerately", (1, 0)),
    # likewise a functional of degree (1, 0)
    "c-degree": (lambda: _group_E(extra_c=[CFunc((F(1), F(0)), (1, 0))]),
                 "pairs_nondegenerately", (1, 0)),
    # theta_0 alone vanishes on (0, -1): sigma_D(e, f) = 0 there, and
    # [e, f] = 0 in L_0 over a commutative A
    "theta-rank": (lambda: _group_E(D=lambda L: degree_derivation_basis(L)[:1]),
                   "has_sl2_pair", (0, -1)),
}


@pytest.mark.parametrize("name", sorted(UNSHARED_INPUTS))
def test_without_a_premise_every_degree_is_its_own_class(name):
    # Rad = Z^2, so with the premises all nonzero degrees would be one class
    # and the zero root space would pass at its representative (1, 0)
    make_E, check, deg = UNSHARED_INPUTS[name]
    E = make_E()
    assert E._centre_rows is None
    items, listed = E.class_list(1)
    assert listed == 1
    holds = getattr(E, check)
    assert next(it for it in items if (any(it[0]) or any(it[1])) and not holds(*it)) \
        == ((0, 0, 0), deg)
    with pytest.raises(ValueError, match="a window is needed"):
        E.class_list()


def _in_class(E, target):
    """Is a degree nonzero and congruent to target modulo the centre
    lattice?"""
    rad = E.L.A.centre_lattice().basis
    return lambda deg: any(deg) and lattice_reduce(deg, rad) == target


def _off_rad(E):
    """Does a degree lie off the centre lattice?"""
    rad = E.L.A.centre_lattice()
    return lambda deg: tuple(deg) not in rad


def _in_rad(E):
    """Is a degree nonzero and in the centre lattice?"""
    rad = E.L.A.centre_lattice()
    return lambda deg: any(deg) and tuple(deg) in rad


def _zero_basis_at(E, roots, where):
    """E's root_space_basis, with the basis of E_(root, d) made of zero
    vectors for every root of roots and d with where(d): IA2 and EA1 fail
    there."""
    basis = E.root_space_basis

    def patched(ro, deg):
        out = basis(ro, deg)
        if tuple(ro) in roots and where(deg):
            return [b.scale(0) for b in out]
        return out
    return patched


def _shifted_value_at(E, roots, where):
    """E's root_value, shifted by 1 on the root spaces of the roots of roots
    in the degrees d with where(d): T no longer acts there by the root
    (IA3)."""
    value = E.root_value

    def patched(ro, deg, t):
        shift = 1 if tuple(ro) in roots and where(deg) else 0
        return value(ro, deg, t) + shift
    return patched


FAILING_MUTANTS = [
    ("IA2", ("root_space_basis", _zero_basis_at)),
    ("EA1", ("root_space_basis", _zero_basis_at)),
    ("IA3", ("root_value", _shifted_value_at)),
]


_REFERENCE_KEY = {"IA2": "IA2", "EA1": "EA1", "IA3": "T-action"}


@pytest.mark.parametrize("check,patch", FAILING_MUTANTS, ids=["IA2", "EA1", "IA3"])
def test_class_verdicts_match_the_reference_on_a_failing_input(check, patch):
    # The failure is on every degree off Rad = 3Z^2, one class, and
    # W-invariant: it is on every nonzero root of the block.  The class list
    # reads it at e_1; the per-item reference finds it first at (-3, -2) in
    # window order, and its first root is the first nonzero root in root
    # order.
    E = _periodic_E("q3", 3)
    attr, make = patch
    roots = [tuple(ro) for ro in E.L.S.sorted_roots() if any(ro)]
    setattr(E, attr, make(E, set(roots), _off_rad(E)))
    status, witness = _root_space_verdicts(E, 3)[check]
    assert roots[0] == (-1, 0, 1)
    assert status == "fail" and "((-1, 0, 1), (1, 0))" in witness
    assert per_item_failures(E, 3)[_REFERENCE_KEY[check]] == ((-1, 0, 1), (-3, -2))


@pytest.mark.parametrize("check,patch", FAILING_MUTANTS, ids=["IA2", "EA1", "IA3"])
def test_a_failure_on_rad_alone_is_read_at_its_first_hnf_row(check, patch):
    # Rad less 0 is a class of its own, read at (3, 0); the per-item
    # reference finds the failure first at (-3, -3)
    E = _periodic_E("q3", 3)
    attr, make = patch
    roots = [tuple(ro) for ro in E.L.S.sorted_roots() if any(ro)]
    setattr(E, attr, make(E, set(roots), _in_rad(E)))
    status, witness = _root_space_verdicts(E, 3)[check]
    assert status == "fail" and "((-1, 0, 1), (3, 0))" in witness
    assert per_item_failures(E, 3)[_REFERENCE_KEY[check]] == ((-1, 0, 1), (-3, -3))


@pytest.mark.parametrize("check,patch", FAILING_MUTANTS, ids=["IA2", "EA1", "IA3"])
def test_per_item_reference_kills_a_single_root_mutant(check, patch):
    # A failure on one root of the block only is not W-invariant, so it
    # breaks the premise of the root classes; the per-item reference, which
    # the argument of class_list is checked against, still finds it.
    E = _periodic_E("q3", 3)
    attr, make = patch
    root = E.L.root_of(0, 1)
    setattr(E, attr, make(E, {root}, _in_class(E, (1, 2))))
    assert per_item_failures(E, 3)[_REFERENCE_KEY[check]] == ((1, -1, 0), (-2, -1))


class _NonAdditive(CentroidalDerivation):
    """d_theta whose action on t^lam is theta(lam) + lam_0 lam_1, which is
    not additive in lam: not a derivation, while root_value still reads the
    linear theta."""

    def apply(self, x):
        out = super().apply(x)
        extra = {d: c * self.A.field.from_int(d[0] * d[1]) for d, c in x.terms.items()
                 if d[0] * d[1]}
        return out + type(x)(self.A, extra) if extra else out


def test_a_non_additive_theta_fails_the_exact_ia3():
    # The action differs from the root's value at every degree with
    # lam_0 lam_1 != 0, so at e_1 + e_2 of the class list
    L = MatrixLieAlgebra(3, _coord("q3"))
    D = [_NonAdditive(L.A, dk.v) for dk in degree_derivation_basis(L)]
    E = build_E(default_iara_data(L, D=D), validate=False)
    ia3 = verify_iara(E, 1)["IA3"]
    assert ia3.window is None and not ia3.ok
    assert ia3.witness == "T does not act on E_((0, 0, 0), (1, 1)) by its root"
    assert per_item_failures(E, 1)["T-action"] == ((0, 0, 0), (-1, -1))


# sigma_D rows against the full enumeration: sigma_rows and INV-e read the
# unit degrees e_i alone (see eala._sigma_rows).  The references walk every
# pair of the window and every windowed root.

def _bounded_E(support, n, D=None):
    """E over the rank-n group algebra on a bounded support, unvalidated:
    predivision, and so INV-a, fails on nonneg."""
    L = MatrixLieAlgebra(3, GradedAssocAlgebra.group_algebra(n, support=support))
    return BuiltE(default_iara_data(L, D=D and D(L)))


def _with_degree_1_0(L):
    """The degree derivations and a derivation of degree (1, 0)."""
    return degree_derivation_basis(L) + [CentroidalDerivation(L.A, [0, 1], (1, 0))]


SIGMA_INPUTS = {
    **PERIODIC_INPUTS,
    **{f"{support}-rank{n}-3": (lambda support=support, n=n: _bounded_E(support, n), 3)
       for support in ("nonneg", "zero") for n in (1, 2)},
    "nonneg-custom-d-3": (lambda: _bounded_E("nonneg", 2, _with_degree_1_0), 3),
}


def _sigma_verdicts(E):
    """(ok, witness, window) of INV-d, (ok, window) of INV-e, and (tame,
    witness, sigma_rank) of the core, which EA5 prints."""
    inv = validate_inv_data(E)
    core = core_and_tameness(E)
    return {"INV-d": (inv["INV-d"].ok, inv["INV-d"].witness, inv["INV-d"].window),
            "INV-e": (inv["INV-e"].ok, inv["INV-e"].window),
            "EA5": (core["tame"], core["witness"], core["sigma_rank"])}


@pytest.mark.parametrize("C", ["min", "dual"])
@pytest.mark.parametrize("name", sorted(SIGMA_INPUTS))
def test_sigma_rows_match_the_full_enumeration(name, C, monkeypatch):
    import lietor.eala as eala

    make_E, window = SIGMA_INPUTS[name]
    E = make_E()
    if C == "dual":
        E = BuiltE(default_iara_data(E.L, D=E.data.D, C="dual"))
    data = E.data
    full = sigma_rows_reference(data.form, E.L, data.D, window)
    rows = sigma_rows(E.L, data.form, data.D)
    # in each degree the rows are independent and span what the walk finds
    assert list(rows) == list(full)
    for s, got in rows.items():
        assert len(got) == rank(got, E.field) == rank(full[s], E.field) \
            == rank(got + full[s], E.field)
    assert c_min_basis(E.L, data.form, data.D) == [
        CFunc(tuple(v), s) for s, rs in rows.items() for v in rs]
    got = _sigma_verdicts(E)
    with monkeypatch.context() as m:
        m.setattr(eala, "_sigma_rows", lambda form, L, D: full)
        want = _sigma_verdicts(E)
    # the witnesses of INV-e name other degrees; no line carries a window
    want["INV-e"] = (inv_e_reference(data, window) is None, None)
    assert got == want and got["INV-d"][2] is None
    if E.L.A.support is not None:
        assert not full and (C == "dual") is bool(data.C)


def test_sigma_rows_take_one_pair_per_unit_degree(monkeypatch):
    # The values of degree s lie in the coordinates of the D elements of
    # degree -s: the two degree derivations for s = (0, 0), the derivation
    # of degree (1, 0) for s = (-1, 0).  Each degree reads the pairs at e_1
    # and e_2, and INV-e reads the pairs of degree 0 once more.
    import lietor.eala as eala

    values = []
    sigma = eala.sigma_d_values
    monkeypatch.setattr(eala, "sigma_d_values", lambda *a: values.append(a) or sigma(*a))
    E = _custom_d_E()
    assert len(values) == 2 + 2 + 2
    assert {s: len(rows) for s, rows in sigma_rows(E.L, E.data.form, E.data.D).items()} \
        == {(0, 0): 2, (-1, 0): 1}


def test_inv_e_fails_when_t_c_misses_a_sigma_d_value():
    # C = C_min is 2-dimensional, spanned by the values at e_1 and e_2, so
    # T_C = [0] misses the value at e_2 and an empty T_C the one at e_1;
    # the window walk finds a witness as well
    L = MatrixLieAlgebra(3, GradedAssocAlgebra.group_algebra(2))
    data = default_iara_data(L)
    assert len(data.D) == len(data.C) == 2
    for t_c, witness in (([0], "outside T_C at ((-1, 0, 1), (0, 1))"),
                         ([], "nonzero with empty T_C at ((-1, 0, 1), (1, 0))")):
        data.T_C = t_c
        inv_e = validate_inv_data(BuiltE(data))["INV-e"]
        assert inv_e.status == "fail"
        assert inv_e.witness == f"sigma_D(e,f) {witness}"
        assert inv_e_reference(data, 1) is not None


def test_eala_qtorus_reads_sigma_d_at_the_unit_degrees(monkeypatch, tmp_path):
    """The benchmark's eala-qtorus command: C_min and INV-e each read
    sigma_D at the pairs of e_1 and e_2, and the brackets of E read it
    where they form a C part."""
    import lietor.eala as eala
    from lietor.cli import main

    values = []
    sigma = eala.sigma_d_values
    monkeypatch.setattr(eala, "sigma_d_values", lambda *a: values.append(a) or sigma(*a))
    q3 = Path(__file__).parent.parent / "perfbench" / "inputs" / "q3.json"
    argv = ["eala", "--coord", str(q3), "--n", "3", "--window", "3",
            "--out", str(tmp_path / "report.json")]
    assert main(argv) == 0
    # 2 + 2 values off the unit degrees and 19 in E.bracket
    assert 0 < len(values) <= 2 + 2 + 19


# EA1's invariance, exhaustively: (x | [y, z]) = ([x, y] | z) on every triple
# of windowed_basis(1) whose total (root, degree) is zero.  The form is
# graded, so on every other triple both sides are 0.  verify_eala decides
# invariance by construction; this is the oracle of that argument.

def _weighted_basis(E, window):
    """The basis of C, of L on the window and of D, each element with its
    (root, degree)."""
    zero_root = (Fraction(0),) * E.L.n
    out = [(E.c_basis_elem(k), zero_root, c.degree) for k, c in enumerate(E.data.C)]
    for deg in box(E.L.z_rank, window):
        for ro in E.L.S.sorted_roots():
            out.extend((E.from_l(b), tuple(ro), deg) for b in E.L.homog_basis(ro, deg))
    out.extend((E.d_basis_elem(k), zero_root, dk.gamma) for k, dk in enumerate(E.data.D))
    return out


def windowed_basis(E, window):
    """The basis of C, of L on the window and of D."""
    return [x for x, _, _ in _weighted_basis(E, window)]


def _invariance_failures(E, window):
    """(triples of total weight zero, those with a nonzero side, failures)."""
    basis = _weighted_basis(E, window)
    by_weight = {}
    for k, (_, ro, deg) in enumerate(basis):
        by_weight.setdefault((ro, tuple(deg)), []).append(k)
    brackets = {}

    def br(i, j):
        if (i, j) not in brackets:
            brackets[(i, j)] = E.bracket(basis[i][0], basis[j][0])
        return brackets[(i, j)]

    triples = nonzero = failures = 0
    for i, (x, rx, dx) in enumerate(basis):
        for j, (_, ry, dy) in enumerate(basis):
            weight = (tuple(-a - b for a, b in zip(rx, ry)), tuple(-a - b for a, b in zip(dx, dy)))
            for k in by_weight.get(weight, ()):
                lhs, rhs = E.form(x, br(j, k)), E.form(br(i, j), basis[k][0])
                triples += 1
                nonzero += bool(lhs or rhs)
                failures += lhs != rhs
    return triples, nonzero, failures


@pytest.mark.parametrize("coord", ["q3", "laurent"])
def test_ea1_invariance_on_every_triple_of_total_degree_zero(coord):
    E = _periodic_E(coord, 1)
    triples, nonzero, failures = _invariance_failures(E, 1)
    assert failures == 0
    assert nonzero > triples // 3


def test_ea1_invariance_oracle_kills_a_sigma_d_with_the_wrong_sign(monkeypatch):
    # every premise INV-a - INV-f still holds on this mutant
    import lietor.eala as eala

    E = _periodic_E("q3", 1)
    sigma = eala.sigma_d_values
    monkeypatch.setattr(eala, "sigma_d_values", lambda *a: [-v for v in sigma(*a)])
    assert _invariance_failures(E, 1)[2] > 0


def test_an_eala_run_builds_one_E(monkeypatch, tmp_path):
    """validate_inv_data reads the premises through the E that the verifiers
    use, so each table of E is filled once per run."""
    from lietor.cli import main

    built = []
    init = BuiltE.__init__
    monkeypatch.setattr(BuiltE, "__init__", lambda self, data: built.append(self)
                        or init(self, data))
    argv = ["eala", "--coord", "laurent", "--n", "3", "--window", "1",
            "--out", str(tmp_path / "report.json")]
    assert main(argv) == 0
    assert len(built) == 1


# The class list against the per-item reference on generated tori, whose
# centre lattice Rad ranges from 0 to Z^n (tests/generated_tori.py): the
# verdicts of IA2, IA3, EA1 and the nullity agree, and each check reads at
# every item of the window as at the list's item of its class.

@seed(23)
@settings(max_examples=50, deadline=None, database=None)
@given(tori())
def test_the_class_list_agrees_with_the_per_item_reference_on_generated_tori(A):
    E = build_E(default_iara_data(MatrixLieAlgebra(3, A)))
    window = 2 if A.n < 3 else 1
    ia = verify_iara(E, window)
    ea = verify_eala(E, window, iara=ia)
    ref = per_item_failures(E, window)
    for check, keys in (("IA2", ["IA2"]), ("IA3", ["T-action", "anisotropic"]),
                        ("EA1", ["EA1"])):
        rep = ia if check in ia else ea
        assert rep[check].window is None
        assert rep[check].ok is all(ref[k] is None for k in keys)
    assert nullity_of(E, window) == ref["nullity"] == A.n
    first = _first_items(E)
    for ro, deg in windowed_roots(E, window):
        assert _checks_at(E, ro, deg) == _checks_at(E, *first[_class_key(E, ro, deg)])

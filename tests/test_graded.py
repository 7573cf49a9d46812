import itertools
from fractions import Fraction

import pytest

from lietor.graded import (
    AlgElement,
    CentroidalDerivation,
    FiniteDimAlgebra,
    GradedAssocAlgebra,
    cder_bracket,
    centre_of_qtorus,
    centre_scan_oracle,
    commutator_decomposition,
    graded_form,
    skew_centroidal_space,
    validate_quantum_matrix,
)
from lietor.lattices import LatticeSubset
from lietor.scalars import QQ, cyclotomic_field
from test_uce import _swap_crossed


def F(*args):
    return Fraction(*args)


@pytest.fixture(scope="module")
def zeta3_torus():
    F3 = cyclotomic_field(3)
    z3 = F3.zeta()
    q = [[F3.one, z3], [z3.inverse(), F3.one]]
    return GradedAssocAlgebra.quantum_torus(q, F3)


def test_group_algebra_multiplication():
    L = GradedAssocAlgebra.laurent()
    assert (L.monomial((2,)) * L.monomial((3,))).degrees() == [(5,)]
    assert L.one() * L.monomial((4,)) == L.monomial((4,))
    t = L.gen(0)
    assert t * L.try_invert(t) == L.one()


def test_quantum_torus_commutation(zeta3_torus):
    A = zeta3_torus
    z3 = A.q[0][1]
    t1, t2 = A.gen(0), A.gen(1)
    assert t1 * t2 == z3 * (t2 * t1)


def test_quantum_matrix_validation():
    F4 = cyclotomic_field(4)
    with pytest.raises(ValueError):
        validate_quantum_matrix([[F4.one, F4.zeta()], [F4.zeta(), F4.one]], F4)


def test_associativity_on_window(zeta3_torus):
    A = zeta3_torus
    degs = list(itertools.product(range(-1, 2), repeat=2))
    for d1 in degs:
        for d2 in degs:
            for d3 in degs:
                x, y, z = A.monomial(d1), A.monomial(d2), A.monomial(d3)
                assert (x * y) * z == x * (y * z)


def test_centre_zeta3(zeta3_torus):
    gamma = centre_of_qtorus(zeta3_torus)
    assert gamma.basis == [[3, 0], [0, 3]]


def test_centre_matches_scan_oracle(zeta3_torus):
    gamma = centre_of_qtorus(zeta3_torus)
    oracle = centre_scan_oracle(zeta3_torus, 6)
    assert all(v in gamma for v in oracle)
    assert set(gamma.window_elements(6)) == set(oracle)


def test_centre_non_torsion_parameter():
    A = GradedAssocAlgebra.quantum_torus([[F(1), F(2)], [F(1, 2), F(1)]], QQ)
    gamma = centre_of_qtorus(A)
    assert gamma.basis == []
    assert centre_scan_oracle(A, 4) == [(0, 0)]


def test_centre_sign_only_parameter():
    A = GradedAssocAlgebra.quantum_torus([[F(1), F(-1)], [F(-1), F(1)]], QQ)
    gamma = centre_of_qtorus(A)
    oracle = centre_scan_oracle(A, 4)
    assert set(gamma.window_elements(4)) == set(oracle)


def test_centre_rank_three_mixed_orders():
    F6 = cyclotomic_field(6)
    z6 = F6.zeta()
    m1 = F6(-1)
    one = F6.one
    q = [
        [one, z6, m1],
        [z6.inverse(), one, one],
        [m1, one, one],
    ]
    A = GradedAssocAlgebra.quantum_torus(q, F6)
    gamma = centre_of_qtorus(A)
    oracle = centre_scan_oracle(A, 4)
    assert set(gamma.window_elements(4)) == set(oracle)
    assert all(v in gamma for v in oracle)


def test_commutative_case_full_centre():
    A = GradedAssocAlgebra.quantum_torus([[F(1), F(1)], [F(1), F(1)]], QQ)
    assert centre_of_qtorus(A) == LatticeSubset.full(2)


def test_tau_antisymmetry_consequence(zeta3_torus):
    # t^lam t^mu = (prod q_ij^(lam_i mu_j - lam_j mu_i)) t^mu t^lam
    A = zeta3_torus
    degs = list(itertools.product(range(-2, 3), repeat=2))
    for lam in degs:
        for mu in degs:
            factor = A.field.one
            for i in range(2):
                for j in range(2):
                    if i > j:
                        e = lam[i] * mu[j] - lam[j] * mu[i]
                        if e:
                            factor = factor * (A.q[i][j] ** e)
            assert A.monomial(lam) * A.monomial(mu) == factor * (
                A.monomial(mu) * A.monomial(lam)
            )


def test_commutator_decomposition(zeta3_torus):
    rep = commutator_decomposition(zeta3_torus, 2)
    gamma = centre_of_qtorus(zeta3_torus)
    for entry in rep:
        assert entry["central"] == (entry["degree"] in gamma)
        if not entry["central"]:
            mu, nu, c = entry["witness"]
            assert c
            assert tuple(a + b for a, b in zip(mu, nu)) == entry["degree"]


def test_graded_form_nondegenerate(zeta3_torus):
    A = zeta3_torus
    gf = graded_form(A, A.field.one, window=2)
    t1 = A.gen(0)
    assert gf.pair(t1, A.try_invert(t1)) == A.field.one
    assert gf.nondegenerate_on_window(2)
    # invariance (ab|c) = (a|bc) on a window of monomials
    degs = list(itertools.product(range(-1, 2), repeat=2))
    for d1 in degs[:4]:
        for d2 in degs[:4]:
            for d3 in degs:
                a, b, c = A.monomial(d1), A.monomial(d2), A.monomial(d3)
                assert gf.pair(a * b, c) == gf.pair(a, b * c)


def test_zero_functional_gives_zero_form():
    L = GradedAssocAlgebra.laurent()
    gf = graded_form(L, F(0), window=2)
    assert gf.pair(L.monomial((1,)), L.monomial((-1,))) == 0
    assert not gf.nondegenerate_on_window(1)


def test_group_algebra_z0_form():
    L = GradedAssocAlgebra.laurent()
    gf = graded_form(L, F(1), window=3)
    assert gf.pair(L.monomial((2,)), L.monomial((-2,))) == 1
    assert gf.pair(L.monomial((2,)), L.monomial((1,))) == 0


def test_witt_relations():
    L = GradedAssocAlgebra.laurent()
    d = {}
    for i in (-1, 0, 2, 3):
        d[i] = CentroidalDerivation(L, [F(1)], (i,))
    br = cder_bracket(d[2], d[3])
    assert br.gamma == (5,) and br.v == [F(1)]  # (3 - 2) d^(5)
    br = cder_bracket(d[0], d[0])
    assert br.v == [F(0)]
    br = cder_bracket(d[-1], d[2])
    assert br.gamma == (1,) and br.v == [F(3)]


def test_centroidal_derivation_is_derivation(zeta3_torus):
    A = zeta3_torus
    d = CentroidalDerivation(A, [A.field.one, A.field.zero], (0, 0))
    degs = list(itertools.product(range(-1, 2), repeat=2))
    for d1 in degs:
        for d2 in degs:
            x, y = A.monomial(d1), A.monomial(d2)
            assert d.apply(x * y) == d.apply(x) * y + x * d.apply(y)


def test_central_degree_enforced(zeta3_torus):
    with pytest.raises(ValueError):
        CentroidalDerivation(zeta3_torus, [zeta3_torus.field.one] * 2, (1, 0))


def test_skew_centroidal_spaces(zeta3_torus):
    L = GradedAssocAlgebra.laurent()
    assert len(skew_centroidal_space(L, (0,))) == 1
    assert len(skew_centroidal_space(L, (2,))) == 0
    A = zeta3_torus
    assert len(skew_centroidal_space(A, (0, 0))) == 2
    assert len(skew_centroidal_space(A, (1, 0))) == 0
    assert len(skew_centroidal_space(A, (3, 0))) == 1
    d = skew_centroidal_space(A, (3, 0))[0]
    assert d.theta((3, 0)) == A.field.zero


def test_fgc_flag(zeta3_torus):
    gamma = centre_of_qtorus(zeta3_torus)
    assert gamma.subgroup_rank() == 2  # finite index: fgc
    A = GradedAssocAlgebra.quantum_torus([[F(1), F(2)], [F(1, 2), F(1)]], QQ)
    assert centre_of_qtorus(A).subgroup_rank() < 2


def test_crossed_product_identities(zeta3_torus):
    # the torus is the crossed product with B = K and sigma = 1: each tau is
    # invertible and tau(nu, lam) tau(nu + lam, mu) = tau(lam, mu) tau(nu, lam + mu)
    A = zeta3_torus
    degs = list(itertools.product(range(-1, 2), repeat=2))
    add = lambda x, y: tuple(a + b for a, b in zip(x, y))
    for nu in degs:
        for lam in degs:
            assert A.tau(nu, lam)
            for mu in degs:
                assert (A.tau(nu, lam) * A.tau(add(nu, lam), mu)
                        == A.tau(lam, mu) * A.tau(nu, add(lam, mu)))


def test_crossed_multiplication_matches_torus(zeta3_torus):
    A = zeta3_torus
    F3 = A.field
    B = FiniteDimAlgebra.field_algebra(F3)
    X = GradedAssocAlgebra("crossed", 2, F3, B=B,
                           tau=lambda l, m: [A.tau(l, m)], sigma=lambda l: [[F3.one]])
    degs = list(itertools.product(range(-1, 2), repeat=2))
    for d1 in degs:
        for d2 in degs:
            want = A.monomial(d1) * A.monomial(d2)
            got = X.monomial(d1) * X.monomial(d2)
            ((dw, _), cw), = want.terms.items()
            ((dg, _), cg), = got.terms.items()
            assert dw == dg and cw == cg


def test_polynomial_support():
    P = GradedAssocAlgebra.polynomial()
    assert P.try_invert(P.gen(0)) is None
    assert P.try_invert(P.one()) == P.one()
    with pytest.raises(ValueError):
        P.monomial((-1,))


def test_crossed_try_invert_with_nontrivial_sigma():
    # In (Q x Q) * Z with t swapping the factors, x = (1, 2)t has the inverse
    # (1/2, 1)t^-1, which is not a multiple of the B-inverse of (1, 2).
    A = _swap_crossed()
    x = AlgElement(A, {((1,), 0): F(1), ((1,), 1): F(2)})
    y = A.try_invert(x)
    assert y == AlgElement(A, {((-1,), 0): F(1, 2), ((-1,), 1): F(1)})
    assert x * y == A.one() == y * x
    assert A.try_invert(AlgElement(A, {((1,), 0): F(1)})) is None

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as hs

from lietor.graded import GradedAssocAlgebra, degree_derivations, skew_centroidal_space
from lietor.lattices import LatticeSubset, box
from lietor.linalg import inverse, rank
from lietor.matlie import (
    DirectSumSl,
    MatLieElement,
    MatrixLieAlgebra,
    bracket,
    invariant_form,
    invertible_triple,
    lift_derivation,
    verify_root_graded,
)
from lietor.rootsys import indivisible_part
from lietor.scalars import QQ, cyclotomic_field
from lietor.uce import hc1_component
from matlie_reference import (
    decompose,
    eigenvalue_law_holds,
    is_invertible,
    relations_hold,
    windowed_basis,
)
from qtorus_reference import nondegenerate_on_window
from test_eala import jacobi_holds
from test_uce import _zeta3_torus


def F(*args):
    return Fraction(*args)


@pytest.fixture(scope="module")
def laurent_sl3():
    return MatrixLieAlgebra(3, GradedAssocAlgebra.laurent())


@pytest.fixture(scope="module")
def qtorus_sl3():
    F3 = cyclotomic_field(3)
    z3 = F3.zeta()
    q = [[F3.one, z3], [z3.inverse(), F3.one]]
    return MatrixLieAlgebra(3, GradedAssocAlgebra.quantum_torus(q, F3))


def test_bracket_examples(laurent_sl3):
    L = laurent_sl3
    t = L.A.gen(0)
    assert bracket(L.E(0, 1, t), L.E(1, 2, t)) == L.E(0, 2, t * t)
    assert bracket(L.cartan(0, 1), L.E(0, 1, t)) == L.E(0, 1, t).scale(F(2))
    assert not bracket(L.E(0, 1), L.E(2, 1))  # no shared index pattern: [E12, E32]


def test_bracket_calls_matmul_twice(laurent_sl3, monkeypatch):
    """bracket forms xy and yx with one MatLieElement.matmul call each.

    The benchmark's eala-qtorus trace counts matmul calls (every one of them
    comes from a bracket), so a bracket that built its products another way
    would leave that hook with no calls."""
    L = laurent_sl3
    calls = []
    plain = MatLieElement.matmul

    def matmul(self, other, *args, **kwargs):
        calls.append((self, other))
        return plain(self, other, *args, **kwargs)

    monkeypatch.setattr(MatLieElement, "matmul", matmul)
    x, y = L.E(0, 1, L.A.gen(0)), L.E(1, 0) + L.E(1, 2)
    got = bracket(x, y)
    assert len(calls) == 2 and calls[0][0] is x and calls[1][0] is y
    assert got == plain(x, y) - plain(y, x)


def test_bracket_and_matmul_refuse_two_algebras(laurent_sl3, monkeypatch):
    # bracket checks the algebra once, for both of its products; a direct
    # matmul keeps its own check
    L, M = laurent_sl3, MatrixLieAlgebra(3, GradedAssocAlgebra.laurent())
    x, y, h = L.E(0, 1), L.E(1, 0), L.cartan(0, 1)
    checks = []
    check = MatLieElement._check
    monkeypatch.setattr(MatLieElement, "_check",
                        lambda self, other: checks.append(self) or check(self, other))
    assert bracket(x, y) == h
    assert checks == [x]
    with pytest.raises(ValueError, match="different matrix algebras"):
        bracket(L.E(0, 1), M.E(1, 0))
    with pytest.raises(ValueError, match="different matrix algebras"):
        L.E(0, 1).matmul(M.E(1, 0))


def test_disjoint_indices_commute():
    L = MatrixLieAlgebra(4, GradedAssocAlgebra.laurent())
    assert not bracket(L.E(0, 1), L.E(2, 3))


def test_rank_convention():
    with pytest.raises(ValueError):
        MatrixLieAlgebra(2, GradedAssocAlgebra.laurent())


def test_product_formula(laurent_sl3, qtorus_sl3):
    # ab E_ij = [[[a E_ij, E_jl], E_li], b E_ij] for distinct i, j, l
    def recovers_product(L, a, b):
        inner = bracket(bracket(L.E(0, 1, a), L.E(1, 2)), L.E(2, 0))
        return bracket(inner, L.E(0, 1, b)) == L.E(0, 1, a * b)

    L = laurent_sl3
    assert recovers_product(L, L.A.gen(0), L.A.monomial((2,)))
    assert recovers_product(L, L.A.one(), L.A.one())
    Q = qtorus_sl3
    assert recovers_product(Q, Q.A.gen(0), Q.A.gen(1))


def test_invertible_elements(laurent_sl3):
    L = laurent_sl3
    t = L.A.gen(0)
    triple = is_invertible(L, L.E(0, 1))
    assert triple is not None
    assert triple.f == L.E(1, 0).scale(F(-1))
    assert triple.h == L.cartan(0, 1)
    assert relations_hold(triple)
    assert is_invertible(L, L.E(0, 1, t)) is not None
    assert is_invertible(L, L.E(0, 1, L.A.one() + t)) is None
    assert eigenvalue_law_holds(L, triple, L.root_of(0, 1), window=1)


def test_invertible_in_qtorus(qtorus_sl3):
    Q = qtorus_sl3
    x = Q.E(0, 1, Q.A.monomial((1, 1)))
    triple = is_invertible(Q, x)
    assert triple is not None and relations_hold(triple)
    assert eigenvalue_law_holds(Q, triple, Q.root_of(0, 1), window=1)


def test_sl2_triples_bourbaki_sign(laurent_sl3):
    L = laurent_sl3
    triple = is_invertible(L, L.E(1, 2, L.A.monomial((3,))))
    e, h, f = triple.e, triple.h, triple.f
    assert bracket(e, f) == -h
    assert bracket(h, e) == e.scale(F(2))
    assert bracket(h, f) == f.scale(F(-2))


def test_invariant_form(laurent_sl3):
    L = laurent_sl3
    form = invariant_form(L, F(1))
    t = L.A.gen(0)
    tinv = L.A.monomial((-1,))
    assert form.pair(L.E(0, 1, t), L.E(1, 0, tinv)) == 1
    assert form.pair(L.E(0, 1, t), L.E(0, 1, t)) == 0
    basis = windowed_basis(L, 1)
    rng = random.Random(3)
    for _ in range(150):
        x, y, z = (rng.choice(basis) for _ in range(3))
        assert form.pair(bracket(x, y), z) == form.pair(x, bracket(y, z))


def test_torus_form_nondegenerate(qtorus_sl3):
    Q = qtorus_sl3
    form = invariant_form(Q, Q.field.one)
    basis = Q.homog_basis(Q.root_of(0, 1), (1, 0))
    dual = Q.homog_basis(Q.root_of(1, 0), (-1, 0))
    assert form.pair(basis[0], dual[0])
    assert nondegenerate_on_window(form.gf, 1)
    zero_form = invariant_form(Q, Q.field.zero)
    assert not nondegenerate_on_window(zero_form.gf, 1)


def test_jacobi_randomized(laurent_sl3, qtorus_sl3):
    for L, seed in ((laurent_sl3, 0), (qtorus_sl3, 1)):
        basis = windowed_basis(L, 1)
        rng = random.Random(seed)
        for _ in range(300):
            assert jacobi_holds(bracket, *(rng.choice(basis) for _ in range(3)))


def test_bigrading_compatibility(qtorus_sl3):
    Q = qtorus_sl3
    rng = random.Random(5)
    basis = windowed_basis(Q, 1)
    for _ in range(100):
        x, y = rng.choice(basis), rng.choice(basis)
        (rx, dx), = decompose(x).keys()
        (ry, dy), = decompose(y).keys()
        br = bracket(x, y)
        for (r, d) in decompose(br):
            assert r == tuple(a + b for a, b in zip(rx, ry))
            assert d == tuple(a + b for a, b in zip(dx, dy))


def test_verify_root_graded(laurent_sl3, qtorus_sl3):
    rep = verify_root_graded(laurent_sl3)
    assert rep["RG1"] and rep["RG2"] and rep["RG3"]
    assert rep["predivision"] and rep["division"] and rep["torus"]
    rep = verify_root_graded(qtorus_sl3)
    assert rep["RG1"] and rep["RG2"] and rep["RG3"] and rep["torus"]


def test_polynomial_coefficients_not_predivision():
    L = MatrixLieAlgebra(3, GradedAssocAlgebra.polynomial())
    rep = verify_root_graded(L)
    assert rep["RG2"] is True
    assert rep["predivision"] is False
    assert rep["division"] is False


def test_chevalley_centroid_matches_coordinates():
    # multiplication by a coordinate is centroidal: chi_z[x, y] = [chi_z x, y]
    C = GradedAssocAlgebra.laurent()
    L = MatrixLieAlgebra(3, C)
    z = C.monomial((2,))
    chi = lift_derivation(L, lambda a: z * a)  # entrywise central multiplication
    basis = windowed_basis(L, 1)
    for x in basis[:20]:
        for y in basis[:20]:
            assert chi(bracket(x, y)) == bracket(chi(x), y)


def test_lift_derivation(laurent_sl3):
    L = laurent_sl3
    d1 = degree_derivations(L.A)[0]
    lifted = lift_derivation(L, d1.apply)
    basis = windowed_basis(L, 1)
    for x in basis:
        for y in basis:
            assert lifted(bracket(x, y)) == bracket(lifted(x), y) + bracket(x, lifted(y))
    t = L.A.gen(0)
    assert lifted(L.E(0, 1, t)) == L.E(0, 1, t)  # degree-1 eigenvector
    assert lifted(L.E(0, 1)) == L.zero()
    zero = lift_derivation(L, lambda a: L.A.zero())
    assert zero(L.E(0, 1, t)) == L.zero()


def test_lift_ad_matches_inner(qtorus_sl3):
    Q = qtorus_sl3
    a = Q.A.gen(0)
    ad_a = lift_derivation(Q, lambda x: a * x - x * a)
    aEn = type(Q.zero())(Q, {(i, i): a for i in range(3)})
    for b in windowed_basis(Q, 1)[:24]:
        assert ad_a(b) == bracket(aEn, b)


def test_direct_sum_block_structure():
    L = DirectSumSl(3, 3, GradedAssocAlgebra.laurent())
    from lietor.rootsys import classify, connected_components

    assert len(connected_components(L.S)) == 2
    assert str(classify(L.S)) == "A2 x A2"
    assert len(L.cartan_basis()) == 4
    rep = verify_root_graded(L)
    assert rep["RG1"] and rep["RG2"] and rep["RG3"]
    cross = L.root_of(0, 3)
    assert L.homog_basis(cross, (0,)) == []


# Test-only oracle for verify_root_graded: RG3 as the rank of the brackets of
# opposite root spaces, RG2, predivision and division by is_invertible with
# the eigenvalue law on the window, over every {-1, 0, 1} combination of the
# basis of each root space.

def _root_graded_oracle(L, window):
    zero_deg = (0,) * L.z_rank
    degs = box(L.z_rank, window)
    nz = [a for a in L.S.sorted_roots() if any(a)]

    def elements(root, deg):
        basis = L.homog_basis(root, deg)
        for coeffs in itertools.product((-1, 0, 1), repeat=len(basis)):
            x = L.zero()
            for c, b in zip(coeffs, basis):
                if c:
                    x = x + b.scale(L.field.from_int(c))
            if x:
                yield x

    def invertible(x):
        return is_invertible(L, x, action_window=window) is not None

    rg2 = all(any(invertible(x) for x in elements(a, zero_deg))
              for a in sorted(indivisible_part(L.S)) if any(a))
    prediv = division = True
    for a in nz:
        for deg in degs:
            xs = list(elements(a, deg))
            if xs and not any(invertible(x) for x in xs):
                prediv = False
            if not all(invertible(x) for x in xs):
                division = False

    rg3 = True
    for deg in degs:
        need = len(L.homog_basis((F(0),) * L.n, deg))
        spans = []
        for a in nz:
            for mu in degs:
                rest = tuple(d - m for d, m in zip(deg, mu))
                if L.z_rank and max(abs(x) for x in rest) > window:
                    continue
                for xa in L.homog_basis(a, mu):
                    for xb in L.homog_basis(tuple(-t for t in a), rest):
                        br = bracket(xa, xb)
                        if br:
                            spans.append([br.terms[(i, i)].coefficient(deg)
                                          if (i, i) in br.terms else L.field.zero
                                          for i in range(L.n)])
        if (rank(spans, L.field) if spans else 0) < need:
            rg3 = False
    return {"RG2": rg2, "RG3": rg3, "predivision": prediv, "division": division}


ROOT_GRADED_INPUTS = {
    "laurent-1": (lambda: MatrixLieAlgebra(3, GradedAssocAlgebra.laurent()), 1),
    "laurent-2": (lambda: MatrixLieAlgebra(3, GradedAssocAlgebra.laurent()), 2),
    "polynomial-1": (lambda: MatrixLieAlgebra(3, GradedAssocAlgebra.polynomial()), 1),
    "polynomial-2": (lambda: MatrixLieAlgebra(3, GradedAssocAlgebra.polynomial()), 2),
    "Q[Z^2]-1": (lambda: MatrixLieAlgebra(3, GradedAssocAlgebra.group_algebra(2)), 1),
    "zeta3-torus-1": (lambda: MatrixLieAlgebra(3, _zeta3_torus()), 1),
    "direct-sum-1": (lambda: DirectSumSl(3, 3, GradedAssocAlgebra.laurent()), 1),
}


@pytest.mark.parametrize("name", sorted(ROOT_GRADED_INPUTS))
def test_root_graded_flags_match_oracle(name):
    make_L, window = ROOT_GRADED_INPUTS[name]
    L = make_L()
    rep = verify_root_graded(L)
    want = _root_graded_oracle(L, window)
    # RG2 and RG3 hold by construction, and the oracle agrees on its window
    assert rep["RG2"] is want["RG2"] is True
    assert rep["RG3"] is want["RG3"] is True
    assert rep["predivision"] == want["predivision"] == rep["division"] == want["division"]
    assert (rep["predivision_witness"] is None) == rep["predivision"]
    assert rep["division_witness"] == rep["predivision_witness"]


def test_witnesses_name_root_and_degree():
    # predivision fails on the nonneg support at e_n, which a box scan at
    # window 0 would not meet
    rep = verify_root_graded(MatrixLieAlgebra(3, GradedAssocAlgebra.polynomial()))
    assert rep["predivision_witness"] == "no invertible element in L_(eps_2 - eps_0)^(1)"
    assert rep["predivision"] is rep["division"] is rep["torus"] is False
    A = GradedAssocAlgebra.group_algebra(2, support="nonneg")
    rep = verify_root_graded(MatrixLieAlgebra(3, A))
    assert rep["predivision_witness"] == "no invertible element in L_(eps_2 - eps_0)^(0, 1)"


@pytest.mark.parametrize("make_A", [
    GradedAssocAlgebra.laurent, GradedAssocAlgebra.polynomial,
    lambda: GradedAssocAlgebra.group_algebra(2), _zeta3_torus,
], ids=["laurent", "polynomial", "Q[Z^2]", "zeta3-torus"])
def test_unit_of_degree_matches_brute_force(make_A):
    # A^d has a unit iff some {-1, 0, 1} combination of its basis is one.
    A = make_A()
    for deg in box(A.n, 1):
        basis = A.basis_of_degree(deg)
        units = []
        for coeffs in itertools.product((-1, 0, 1), repeat=len(basis)):
            x = sum((b * F(c) for c, b in zip(coeffs, basis) if c), A.zero())
            y = A.try_invert(x) if x else None
            if y is not None:
                assert x * y == A.one() == y * x
                units.append(x)
        u = A.unit_of_degree(deg)
        assert (u is not None) == bool(units), deg
        if u is not None:
            assert A.try_invert(u) is not None


def test_invertible_triple_matches_is_invertible():
    for L in (MatrixLieAlgebra(3, GradedAssocAlgebra.laurent()),
              MatrixLieAlgebra(3, _zeta3_torus()), DirectSumSl(3, 3, GradedAssocAlgebra.laurent())):
        for a in L.S.sorted_roots():
            if not any(a):
                continue
            for deg in box(L.z_rank, 1):
                triple = invertible_triple(L, a, deg)
                (b,) = L.homog_basis(a, deg)
                want = is_invertible(L, b, action_window=1)
                assert (triple.e, triple.h, triple.f) == (want.e, want.h, want.f)
    L = DirectSumSl(3, 3, GradedAssocAlgebra.laurent())
    assert invertible_triple(L, L.root_of(0, 3), (0,)) is None
    P = MatrixLieAlgebra(3, GradedAssocAlgebra.polynomial())
    assert invertible_triple(P, P.root_of(0, 1), (1,)) is None


# Invariance under a change of lattice basis.  For g in GL_n(Z), the torus
# with q'(lam, mu) = q(g lam, g mu) is the torus of q with its grading read
# through g: t'^lam = t^(g lam).  So Rad(q') = g^-1 Rad(q), and sl_3 over
# either has the same exact verdicts.

@hs.composite
def _torus_and_basis_change(draw):
    """(A, B, g): A a torus of rank 2 or 3 over Q(zeta_N) with
    q_ij = zeta_N^a_ij, B the torus of the exponents g^T a g, and g a
    product of elementary integer matrices."""
    N = draw(hs.sampled_from([3, 4, 5, 6, 12]))
    n = draw(hs.integers(2, 3))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = draw(hs.integers(0, N - 1))
            a[j][i] = -a[i][j]
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(hs.integers(1, 4))):
        i, j = draw(hs.permutations(range(n)))[:2]
        k = draw(hs.sampled_from([-2, -1, 1, 2]))
        g = [[g[r][c] + (k * g[j][c] if r == i else 0) for c in range(n)] for r in range(n)]
    b = [[sum(g[k][i] * a[k][l] * g[l][j] for k in range(n) for l in range(n))
          for j in range(n)] for i in range(n)]
    field = cyclotomic_field(N)

    def torus(exps):
        z = field.zeta()
        return GradedAssocAlgebra.quantum_torus(
            [[z ** (e % N) for e in row] for row in exps], field)
    return torus(a), torus(b), g


def _apply(g, v):
    return tuple(sum(gij * x for gij, x in zip(row, v)) for row in g)


@seed(7)
@settings(max_examples=40, deadline=None, database=None)
@given(_torus_and_basis_change())
def test_a_change_of_lattice_basis_keeps_the_centre_and_the_root_graded_verdicts(case):
    A, B, g = case
    rad_a, rad_b = A.centre_lattice(), B.centre_lattice()
    # Rad(q') = g^-1 Rad(q): g maps a basis of Rad(q') onto one of Rad(q)
    assert LatticeSubset(A.n, [_apply(g, v) for v in rad_b.basis]) == rad_a
    for v in box(A.n, 2):
        # t^v is central when it commutes with every generator
        t = B.monomial(v)
        central = all(B.gen(i) * t == t * B.gen(i) for i in range(B.n))
        assert (v in rad_b) is (_apply(g, v) in rad_a) is central, v
    assert (dict(verify_root_graded(MatrixLieAlgebra(3, A)))
            == dict(verify_root_graded(MatrixLieAlgebra(3, B))))
    # t'^(g^-1 d) = t^d: HC_1 and the skew centroidal derivations of degree
    # g^-1 d over B match those of degree d over A
    g_inv = [[int(x) for x in row] for row in inverse(g, QQ)]
    for d in box(A.n, 2):
        e = _apply(g_inv, d)
        assert hc1_component(B, e) == hc1_component(A, d), d
        assert len(skew_centroidal_space(B, e)) == len(skew_centroidal_space(A, d)), d

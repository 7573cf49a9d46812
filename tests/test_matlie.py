import itertools
import random
from fractions import Fraction

import pytest

from lietor.graded import FiniteDimAlgebra, GradedAssocAlgebra, degree_derivations
from lietor.lattices import box
from lietor.linalg import rank
from lietor.matlie import (
    DirectSumSl,
    IsotopedLie,
    MatrixLieAlgebra,
    bracket,
    eigenvalue_law_holds,
    invariant_form,
    invertible_triple,
    is_invertible,
    lift_derivation,
    verify_root_graded,
)
from lietor.rootsys import indivisible_part
from lietor.scalars import QQ, cyclotomic_field
from test_uce import _swap_crossed, _zeta3_torus


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
    assert triple.relations_hold()
    assert is_invertible(L, L.E(0, 1, t)) is not None
    assert is_invertible(L, L.E(0, 1, L.A.one() + t)) is None
    assert eigenvalue_law_holds(L, triple, L.root_of(0, 1), window=1)


def test_invertible_in_qtorus(qtorus_sl3):
    Q = qtorus_sl3
    x = Q.E(0, 1, Q.A.monomial((1, 1)))
    triple = is_invertible(Q, x)
    assert triple is not None and triple.relations_hold()
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
    basis = L.windowed_basis(1)
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
    assert form.nondegenerate_on_window(1)
    zero_form = invariant_form(Q, Q.field.zero)
    assert not zero_form.nondegenerate_on_window(1)


def test_jacobi_randomized(laurent_sl3, qtorus_sl3):
    for L, seed in ((laurent_sl3, 0), (qtorus_sl3, 1)):
        basis = L.windowed_basis(1)
        rng = random.Random(seed)
        for _ in range(300):
            x, y, z = (rng.choice(basis) for _ in range(3))
            total = (bracket(bracket(x, y), z) + bracket(bracket(y, z), x)
                     + bracket(bracket(z, x), y))
            assert not total


def test_bigrading_compatibility(qtorus_sl3):
    Q = qtorus_sl3
    rng = random.Random(5)
    basis = Q.windowed_basis(1)
    for _ in range(100):
        x, y = rng.choice(basis), rng.choice(basis)
        (rx, dx), = x.decompose().keys()
        (ry, dy), = y.decompose().keys()
        br = bracket(x, y)
        for (r, d) in br.decompose():
            assert r == tuple(a + b for a, b in zip(rx, ry))
            assert d == tuple(a + b for a, b in zip(dx, dy))


def test_verify_root_graded(laurent_sl3, qtorus_sl3):
    rep = verify_root_graded(laurent_sl3, window=1)
    assert rep["RG1"] and rep["RG2"] and rep["RG3"]
    assert rep["predivision"] and rep["division"] and rep["torus"]
    rep = verify_root_graded(qtorus_sl3, window=1)
    assert rep["RG1"] and rep["RG2"] and rep["RG3"] and rep["torus"]


def test_polynomial_coefficients_not_predivision():
    L = MatrixLieAlgebra(3, GradedAssocAlgebra.polynomial())
    rep = verify_root_graded(L, window=1)
    assert rep["RG2"] is True
    assert rep["predivision"] is False
    assert rep["division"] is False


def test_isotope(laurent_sl3):
    L = laurent_sl3
    iso = IsotopedLie(L, [(1,), (0,)])
    rep = verify_root_graded(iso, window=1)
    assert rep["RG2"] and rep["RG3"]
    # the (alpha, 0) slot of the isotope is the old (alpha, iota(alpha)) slot
    a = L.root_of(0, 1)
    assert iso.homog_basis(a, (0,))[0] == L.homog_basis(a, (1,))[0]


def test_isotope_without_units_flagged():
    L = MatrixLieAlgebra(3, GradedAssocAlgebra.polynomial())
    iso = IsotopedLie(L, [(1,), (0,)])
    # L_alpha^{iota(alpha)} misses an invertible element
    assert not verify_root_graded(iso, window=1)["RG2"]


def test_identity_isotope(laurent_sl3):
    iso = IsotopedLie(laurent_sl3, [(0,), (0,)])
    a = laurent_sl3.root_of(0, 1)
    assert iso.homog_basis(a, (2,)) == laurent_sl3.homog_basis(a, (2,))


def test_chevalley_centroid_matches_coordinates():
    # multiplication by a coordinate is centroidal: chi_z[x, y] = [chi_z x, y]
    C = GradedAssocAlgebra.laurent()
    L = MatrixLieAlgebra(3, C)
    z = C.monomial((2,))
    chi = lift_derivation(L, lambda a: z * a)  # entrywise central multiplication
    basis = L.windowed_basis(1)
    for x in basis[:20]:
        for y in basis[:20]:
            assert chi(bracket(x, y)) == bracket(chi(x), y)


def test_lift_derivation(laurent_sl3):
    L = laurent_sl3
    d1 = degree_derivations(L.A)[0]
    lifted = lift_derivation(L, d1.apply)
    basis = L.windowed_basis(1)
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
    for b in Q.windowed_basis(1)[:24]:
        assert ad_a(b) == bracket(aEn, b)


def test_direct_sum_block_structure():
    L = DirectSumSl(3, 3, GradedAssocAlgebra.laurent())
    from lietor.rootsys import classify, connected_components

    assert len(connected_components(L.S)) == 2
    assert str(classify(L.S)) == "A2 x A2"
    assert len(L.cartan_basis()) == 4
    rep = verify_root_graded(L, window=1)
    assert rep["RG1"] and rep["RG2"] and rep["RG3"]
    cross = L.root_of(0, 3)
    assert L.homog_basis(cross, (0,)) == []


# Test-only oracle for verify_root_graded: RG3 as the rank of the brackets of
# opposite root spaces, RG2, predivision and division by is_invertible with
# the eigenvalue law on the window, over every {-1, 0, 1} combination of the
# basis of each root space.

def _root_graded_oracle(L, window):
    iso = isinstance(L, IsotopedLie)
    base = L.L if iso else L
    zero_deg = (0,) * base.z_rank
    degs = box(base.z_rank, window)
    nz = [a for a in base.S.sorted_roots() if any(a)]

    def elements(root, deg):
        basis = L.homog_basis(root, deg)
        for coeffs in itertools.product((-1, 0, 1), repeat=len(basis)):
            x = base.zero()
            for c, b in zip(coeffs, basis):
                if c:
                    x = x + b.scale(base.field.from_int(c))
            if x:
                yield x

    def invertible(x):
        return is_invertible(base, x, action_window=window) is not None

    rg2 = all(any(invertible(x) for x in elements(a, zero_deg))
              for a in sorted(indivisible_part(base.S)) if any(a))
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
        need = len(L.homog_basis((F(0),) * base.n, deg))
        spans = []
        for a in nz:
            for mu in degs:
                rest = tuple(d - m for d, m in zip(deg, mu))
                if base.z_rank and max(abs(x) for x in rest) > window:
                    continue
                for xa in L.homog_basis(a, mu):
                    for xb in L.homog_basis(tuple(-t for t in a), rest):
                        br = bracket(xa, xb)
                        if br:
                            spans.append([br.entries[(i, i)].coefficient(deg, k)
                                          if (i, i) in br.entries else base.field.zero
                                          for i in range(base.n) for k in range(base.A.bdim)])
        if (rank(spans, base.field) if spans else 0) < need:
            rg3 = False
    return {"RG2": rg2, "RG3": rg3, "predivision": prediv, "division": division}


def _qi_crossed():
    """Q(i) as a 2-dimensional Q-algebra, graded by Z with trivial sigma and
    tau: every basis vector of B is a unit, so division stays undecided."""
    one, zero = F(1), F(0)
    B = FiniteDimAlgebra(QQ, 2, [[[one, zero], [zero, one]], [[zero, one], [-one, zero]]],
                         [one, zero])
    ident = [[one, zero], [zero, one]]
    return GradedAssocAlgebra("crossed", 1, QQ, B=B, tau=lambda lam, mu: [one, zero],
                              sigma=lambda lam: ident)


ROOT_GRADED_INPUTS = {
    "laurent-1": (lambda: MatrixLieAlgebra(3, GradedAssocAlgebra.laurent()), 1),
    "laurent-2": (lambda: MatrixLieAlgebra(3, GradedAssocAlgebra.laurent()), 2),
    "polynomial-1": (lambda: MatrixLieAlgebra(3, GradedAssocAlgebra.polynomial()), 1),
    "polynomial-2": (lambda: MatrixLieAlgebra(3, GradedAssocAlgebra.polynomial()), 2),
    "Q[Z^2]-1": (lambda: MatrixLieAlgebra(3, GradedAssocAlgebra.group_algebra(2)), 1),
    "zeta3-torus-1": (lambda: MatrixLieAlgebra(3, _zeta3_torus()), 1),
    "direct-sum-1": (lambda: DirectSumSl(3, 3, GradedAssocAlgebra.laurent()), 1),
    "isotope-laurent-1": (lambda: IsotopedLie(
        MatrixLieAlgebra(3, GradedAssocAlgebra.laurent()), [(1,), (0,)]), 1),
    "isotope-polynomial-1": (lambda: IsotopedLie(
        MatrixLieAlgebra(3, GradedAssocAlgebra.polynomial()), [(1,), (0,)]), 1),
    # iota(alpha_1) = 3 leaves no pair of windowed degrees for alpha_1 in
    # the polynomial isotope: RG3 fails at window 1
    "isotope-polynomial-shift3-1": (lambda: IsotopedLie(
        MatrixLieAlgebra(3, GradedAssocAlgebra.polynomial()), [(3,), (0,)]), 1),
    # at window 0 the commutators [x t, y t^-1] that span [A,A]^0 are out of
    # reach: RG3 fails
    "swap-crossed-0": (lambda: MatrixLieAlgebra(3, _swap_crossed()), 0),
    "swap-crossed-1": (lambda: MatrixLieAlgebra(3, _swap_crossed()), 1),
    "swap-crossed-2": (lambda: MatrixLieAlgebra(3, _swap_crossed()), 2),
    "Q(i)-crossed-1": (lambda: MatrixLieAlgebra(3, _qi_crossed()), 1),
}


@pytest.mark.parametrize("name", sorted(ROOT_GRADED_INPUTS))
def test_root_graded_flags_match_oracle(name):
    make_L, window = ROOT_GRADED_INPUTS[name]
    L = make_L()
    rep = verify_root_graded(L, window)
    want = _root_graded_oracle(L, window)
    for k in ("RG2", "RG3", "predivision"):
        assert rep[k] == want[k], k
        assert (rep[f"{k}_witness"] is None) == rep[k], k
    # division is undecided (None) only for bdim > 1 with predivision
    if rep["division"] is None:
        assert (L.L if isinstance(L, IsotopedLie) else L).A.bdim > 1 and rep["predivision"]
    else:
        assert rep["division"] == want["division"]
    assert (rep["division_witness"] is None) == (rep["division"] is not False)


def test_division_undecided_only_beyond_dimension_one():
    assert verify_root_graded(MatrixLieAlgebra(3, _qi_crossed()), 1)["division"] is None
    assert verify_root_graded(MatrixLieAlgebra(3, GradedAssocAlgebra.laurent()), 1)["division"]


def test_swap_crossed_product_is_predivision_not_division():
    # (Q x Q) * Z: 1 = b0 + b1 is a unit of A^0 although neither basis vector
    # is, and b0 t^0 E_20 is a nonzero element that is not invertible.
    L = MatrixLieAlgebra(3, _swap_crossed())
    rep = verify_root_graded(L, 1)
    assert rep["RG2"] is True and rep["RG2_witness"] is None
    assert rep["predivision"] is True and rep["predivision_witness"] is None
    assert rep["division"] is False
    assert rep["division_witness"] == (
        "[(1)t^(0,)*b0]E(2,0) in L_(eps_2 - eps_0)^(0) is nonzero and not invertible")
    assert rep["torus"] is False


def test_witnesses_name_root_and_degree():
    rep = verify_root_graded(MatrixLieAlgebra(3, GradedAssocAlgebra.polynomial()), 1)
    assert rep["predivision_witness"] == "no invertible element in L_(eps_2 - eps_0)^(1)"
    iso = IsotopedLie(MatrixLieAlgebra(3, GradedAssocAlgebra.polynomial()), [(1,), (0,)])
    assert verify_root_graded(iso, 1)["RG2_witness"] == (
        "no invertible element in (L^iota)_(eps_2 - eps_0)^(0)")


@pytest.mark.parametrize("make_A", [
    GradedAssocAlgebra.laurent, GradedAssocAlgebra.polynomial,
    lambda: GradedAssocAlgebra.group_algebra(2), _zeta3_torus, _swap_crossed, _qi_crossed,
], ids=["laurent", "polynomial", "Q[Z^2]", "zeta3-torus", "swap-crossed", "Q(i)-crossed"])
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

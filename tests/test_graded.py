import itertools
import json
import re
from fractions import Fraction
from operator import sub
from pathlib import Path

import pytest

from lietor.graded import (
    CentroidalDerivation,
    GradedAssocAlgebra,
    cder_bracket,
    graded_form,
    memo,
    skew_centroidal_space,
    validate_quantum_matrix,
)
from lietor.lattices import LatticeSubset, box
from lietor.scalars import QQ, cyclotomic_field
from lietor.serialize import coord_algebra_from_json
from qtorus_reference import (
    centre_scan_oracle,
    commutator_decomposition,
    nondegenerate_on_window,
)


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
    # q must be square, and n x n for the rank n
    with pytest.raises(ValueError, match=re.escape("must be 2 x 2, got rows of lengths [2, 1]")):
        validate_quantum_matrix([[F(1), F(-1)], [F(-1)]], QQ)
    with pytest.raises(ValueError, match="must have n = 3 rows, got 1"):
        GradedAssocAlgebra(3, QQ, [[F(1)]])


def test_associativity_on_window(zeta3_torus):
    A = zeta3_torus
    degs = list(itertools.product(range(-1, 2), repeat=2))
    for d1 in degs:
        for d2 in degs:
            for d3 in degs:
                x, y, z = A.monomial(d1), A.monomial(d2), A.monomial(d3)
                assert (x * y) * z == x * (y * z)


def test_centre_zeta3(zeta3_torus):
    gamma = zeta3_torus.centre_lattice()
    assert gamma.basis == [[3, 0], [0, 3]]


def test_centre_matches_scan_oracle(zeta3_torus):
    gamma = zeta3_torus.centre_lattice()
    oracle = centre_scan_oracle(zeta3_torus, 6)
    assert all(v in gamma for v in oracle)
    assert set(gamma.window_elements(6)) == set(oracle)


def test_centre_non_torsion_parameter():
    A = GradedAssocAlgebra.quantum_torus([[F(1), F(2)], [F(1, 2), F(1)]], QQ)
    gamma = A.centre_lattice()
    assert gamma.basis == []
    assert centre_scan_oracle(A, 4) == [(0, 0)]


def test_centre_sign_only_parameter():
    A = GradedAssocAlgebra.quantum_torus([[F(1), F(-1)], [F(-1), F(1)]], QQ)
    gamma = A.centre_lattice()
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
    gamma = A.centre_lattice()
    oracle = centre_scan_oracle(A, 4)
    assert set(gamma.window_elements(4)) == set(oracle)
    assert all(v in gamma for v in oracle)


def test_commutative_case_full_centre():
    A = GradedAssocAlgebra.quantum_torus([[F(1), F(1)], [F(1), F(1)]], QQ)
    assert A.centre_lattice() == LatticeSubset.full(2)


# The memo contract: one run of the body per owner and arguments, one shared
# value, and a list argument taken as its tuple.

def test_memo_runs_the_body_once_per_owner_and_arguments():
    class Owner:
        def __init__(self):
            self.runs = []

        @memo
        def table(self, deg, window):
            self.runs.append((deg, window))
            return [deg, window]

    a, b = Owner(), Owner()
    first = a.table((1, 2), 3)
    assert a.table((1, 2), 3) is first and a.table([1, 2], 3) is first
    assert a.runs == [((1, 2), 3)]
    assert a.table((1, 2), 4) == [(1, 2), 4] and len(a.runs) == 2
    assert b.table((1, 2), 3) is not first and b.runs == [((1, 2), 3)]


def test_centre_lattice_is_kept_per_torus(zeta3_torus):
    gamma = zeta3_torus.centre_lattice()
    assert zeta3_torus.centre_lattice() is gamma
    # another q, another lattice: the table belongs to its torus
    F6 = cyclotomic_field(6)
    z6 = F6.zeta()
    other = GradedAssocAlgebra.quantum_torus([[F6.one, z6], [z6.inverse(), F6.one]], F6)
    assert other.centre_lattice().basis == [[6, 0], [0, 6]]
    assert zeta3_torus.centre_lattice() is gamma and gamma.basis == [[3, 0], [0, 3]]


def test_memoised_tables_take_a_list_degree(zeta3_torus):
    A = zeta3_torus
    assert A.unit_of_degree([1, 2]) is A.unit_of_degree((1, 2))
    assert A.unit_of_degree([1, 2]) == A.monomial((1, 2))
    assert A.commutator_component([1, 0]) == [A.monomial((1, 0))]
    assert A.commutator_component([3, 0]) == []
    P = GradedAssocAlgebra.polynomial()
    assert P.unit_of_degree([1]) is None and P.unit_of_degree([0]) == P.one()


def test_tau_is_an_invertible_2_cocycle(zeta3_torus):
    # each tau is invertible and
    # tau(nu, lam) tau(nu + lam, mu) = tau(lam, mu) tau(nu, lam + mu)
    A = zeta3_torus
    degs = list(itertools.product(range(-1, 2), repeat=2))
    add = lambda x, y: tuple(a + b for a, b in zip(x, y))
    for nu in degs:
        for lam in degs:
            assert A.tau(nu, lam)
            for mu in degs:
                assert (A.tau(nu, lam) * A.tau(add(nu, lam), mu)
                        == A.tau(lam, mu) * A.tau(nu, add(lam, mu)))


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
    gamma = zeta3_torus.centre_lattice()
    for entry in rep:
        assert entry["central"] == (entry["degree"] in gamma)
        if not entry["central"]:
            mu, nu, c = entry["witness"]
            assert c
            assert tuple(a + b for a, b in zip(mu, nu)) == entry["degree"]


@pytest.mark.parametrize("name", ["q2", "q3", "q4", "q6_in_zeta3"])
def test_the_structural_split_of_qtorus_centre(name):
    # The decomposition of `lietor qtorus centre`: [t^(e_i), t^(lam - e_i)]
    # is nonzero for some i exactly when lam is off Rad(q), which is the
    # split that the box scan of commutator_decomposition gives.
    data = json.loads((Path(__file__).parent / "data" / f"{name}.json").read_text())
    A = coord_algebra_from_json(data)
    gamma = A.centre_lattice()
    split = {e["degree"]: not e["central"] for e in commutator_decomposition(A, 3)}
    units = [tuple(int(i == j) for j in range(A.n)) for i in range(A.n)]
    for lam in box(A.n, 3):
        t = [(A.monomial(e), A.monomial(tuple(map(sub, lam, e)))) for e in units]
        off = any(x * y - y * x for x, y in t)
        assert off == (lam not in gamma) == split[lam], lam


def test_graded_form_nondegenerate(zeta3_torus):
    A = zeta3_torus
    gf = graded_form(A, A.field.one)
    t1 = A.gen(0)
    assert gf.pair(t1, A.try_invert(t1)) == A.field.one
    assert nondegenerate_on_window(gf, 2)
    # invariance (ab|c) = (a|bc) on a window of monomials
    degs = list(itertools.product(range(-1, 2), repeat=2))
    for d1 in degs[:4]:
        for d2 in degs[:4]:
            for d3 in degs:
                a, b, c = A.monomial(d1), A.monomial(d2), A.monomial(d3)
                assert gf.pair(a * b, c) == gf.pair(a, b * c)


def test_zero_functional_gives_zero_form():
    L = GradedAssocAlgebra.laurent()
    gf = graded_form(L, F(0))
    assert gf.pair(L.monomial((1,)), L.monomial((-1,))) == 0
    assert not nondegenerate_on_window(gf, 1)


def test_group_algebra_z0_form():
    L = GradedAssocAlgebra.laurent()
    gf = graded_form(L, F(1))
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


def test_a_degree_off_a_bounded_support_is_refused():
    # t^(-1) is not in K[t], so d = t^(-1) d_1 would leave A on apply;
    # skew_centroidal_space gives no such d either
    poly = GradedAssocAlgebra.polynomial()
    with pytest.raises(ValueError, match=r"degree \(-1,\) is off the support"):
        CentroidalDerivation(poly, [F(1)], (-1,))
    assert skew_centroidal_space(poly, (-1,)) == []
    d = CentroidalDerivation(poly, [F(1)], (1,))
    assert d.apply(poly.monomial((2,))) == poly.monomial((3,), F(2))


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
    gamma = zeta3_torus.centre_lattice()
    assert gamma.subgroup_rank() == 2  # finite index: fgc
    A = GradedAssocAlgebra.quantum_torus([[F(1), F(2)], [F(1, 2), F(1)]], QQ)
    assert A.centre_lattice().subgroup_rank() < 2


def test_polynomial_support():
    P = GradedAssocAlgebra.polynomial()
    assert P.try_invert(P.gen(0)) is None
    assert P.try_invert(P.one()) == P.one()
    with pytest.raises(ValueError):
        P.monomial((-1,))


def _torus(field, upper):
    """The quantum torus with q_ij = upper[i][j - i - 1] for i < j."""
    n = len(upper) + 1
    q = [[field.one] * n for _ in range(n)]
    for i, row in enumerate(upper):
        for j, v in enumerate(row, start=i + 1):
            q[i][j], q[j][i] = v, field.inverse(v)
    return GradedAssocAlgebra.quantum_torus(q, field)


def _tori():
    """Q(zeta_N) for N = 1 .. 12 with q_01 = zeta_N, q_01 = -zeta_N (of order
    2N for odd N) and a rank-3 q of mixed orders; q = -1 over Q; and q = 1,
    the group algebra, over Q in ranks 1 to 3 and over Q(zeta_3) in rank 2."""
    out = {}
    for N in range(1, 13):
        field = cyclotomic_field(N)
        z = field.zeta()
        out[f"Q(zeta_{N}) z"] = (field, [[z]])
        out[f"Q(zeta_{N}) -z"] = (field, [[-z]])
        out[f"Q(zeta_{N}) rank 3"] = (field, [[z, field(-1)], [z ** 2]])
    out["Q -1"] = (QQ, [[F(-1)]])
    out["Q rank 3"] = (QQ, [[F(-1), F(1)], [F(-1)]])
    for n in (1, 2, 3):
        out[f"Q ones rank {n}"] = (QQ, [[F(1)] * (n - 1 - i) for i in range(n - 1)])
    F3 = cyclotomic_field(3)
    out["Q(zeta_3) ones"] = (F3, [[F3.one]])
    return out


TORI = _tori()
ONES = [name for name in TORI if "ones" in name]

# The HNF basis of each centre lattice; its index is the number of central
# points counted in (Z/2N)^n.
CENTRE_BASES = {
    "Q(zeta_1) z": [[1, 0], [0, 1]],
    "Q(zeta_1) -z": [[2, 0], [0, 2]],
    "Q(zeta_1) rank 3": [[2, 0, 0], [0, 1, 0], [0, 0, 2]],
    "Q(zeta_2) z": [[2, 0], [0, 2]],
    "Q(zeta_2) -z": [[1, 0], [0, 1]],
    "Q(zeta_2) rank 3": [[2, 0, 0], [0, 1, 1], [0, 0, 2]],
    "Q(zeta_3) z": [[3, 0], [0, 3]],
    "Q(zeta_3) -z": [[6, 0], [0, 6]],
    "Q(zeta_3) rank 3": [[2, 0, 4], [0, 3, 0], [0, 0, 6]],
    "Q(zeta_4) z": [[4, 0], [0, 4]],
    "Q(zeta_4) -z": [[4, 0], [0, 4]],
    "Q(zeta_4) rank 3": [[2, 2, 1], [0, 4, 0], [0, 0, 2]],
    "Q(zeta_5) z": [[5, 0], [0, 5]],
    "Q(zeta_5) -z": [[10, 0], [0, 10]],
    "Q(zeta_5) rank 3": [[2, 0, 6], [0, 5, 0], [0, 0, 10]],
    "Q(zeta_6) z": [[6, 0], [0, 6]],
    "Q(zeta_6) -z": [[3, 0], [0, 3]],
    "Q(zeta_6) rank 3": [[2, 0, 4], [0, 3, 3], [0, 0, 6]],
    "Q(zeta_7) z": [[7, 0], [0, 7]],
    "Q(zeta_7) -z": [[14, 0], [0, 14]],
    "Q(zeta_7) rank 3": [[2, 0, 8], [0, 7, 0], [0, 0, 14]],
    "Q(zeta_8) z": [[8, 0], [0, 8]],
    "Q(zeta_8) -z": [[8, 0], [0, 8]],
    "Q(zeta_8) rank 3": [[2, 4, 1], [0, 8, 0], [0, 0, 4]],
    "Q(zeta_9) z": [[9, 0], [0, 9]],
    "Q(zeta_9) -z": [[18, 0], [0, 18]],
    "Q(zeta_9) rank 3": [[2, 0, 10], [0, 9, 0], [0, 0, 18]],
    "Q(zeta_10) z": [[10, 0], [0, 10]],
    "Q(zeta_10) -z": [[5, 0], [0, 5]],
    "Q(zeta_10) rank 3": [[2, 0, 6], [0, 5, 5], [0, 0, 10]],
    "Q(zeta_11) z": [[11, 0], [0, 11]],
    "Q(zeta_11) -z": [[22, 0], [0, 22]],
    "Q(zeta_11) rank 3": [[2, 0, 12], [0, 11, 0], [0, 0, 22]],
    "Q(zeta_12) z": [[12, 0], [0, 12]],
    "Q(zeta_12) -z": [[12, 0], [0, 12]],
    "Q(zeta_12) rank 3": [[2, 6, 1], [0, 12, 0], [0, 0, 6]],
    "Q -1": [[2, 0], [0, 2]],
    "Q rank 3": [[1, 0, 1], [0, 2, 0], [0, 0, 2]],
    "Q ones rank 1": [[1]],
    "Q ones rank 2": [[1, 0], [0, 1]],
    "Q ones rank 3": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "Q(zeta_3) ones": [[1, 0], [0, 1]],
}


def _assert_tau_is_the_direct_product(A, window=2):
    """tau(lam, mu) = prod_(i > j) q_ij^(lam_i mu_j) over the box."""
    n = A.n
    power = {(i, j, e): (A.q[i][j] if e >= 0 else A.field.inverse(A.q[i][j])) ** abs(e)
             for i in range(n) for j in range(i)
             for e in range(-window * window, window * window + 1)}
    for lam in box(n, window):
        for mu in box(n, window):
            want = A.field.one
            for i in range(n):
                for j in range(i):
                    want = want * power[i, j, lam[i] * mu[j]]
            assert A.tau(lam, mu) == want, (lam, mu)


@pytest.mark.parametrize("name", list(TORI))
def test_root_of_unity_tori_read_tau_from_a_table(name):
    A = _torus(*TORI[name])
    assert A._tau_mode == "table"
    _assert_tau_is_the_direct_product(A)
    gamma = A.centre_lattice()
    assert gamma.basis == CENTRE_BASES[name]
    assert set(gamma.window_elements(4)) == set(centre_scan_oracle(A, 4))
    if name in ONES:
        # no q_ij differs from 1, so tau sums no term and is the field's one
        # itself, which mul skips multiplying by
        assert all(A.tau(lam, mu) is A.field.one for lam in box(A.n, 2) for mu in box(A.n, 2))


def test_a_group_algebra_is_the_torus_with_q_1():
    for n in (0, 1, 2):
        A = GradedAssocAlgebra.group_algebra(n, support="nonneg")
        assert A.support == "nonneg"
        assert A.q == [[QQ.one] * n for _ in range(n)]
        assert A.centre_lattice().basis == [[int(i == j) for j in range(n)] for i in range(n)]


def test_non_root_of_unity_torus_stays_direct():
    A = _torus(QQ, [[F(2)]])
    assert A._tau_mode == "direct"
    _assert_tau_is_the_direct_product(A)
    assert A.centre_lattice().basis == []


def test_centre_lattice_names_a_q_it_cannot_decide():
    # q_01 = 2 zeta_3 is neither rational nor a root of unity: its centre
    # is {0}, but the lattice is decided for rational and root-of-unity q_ij.
    F3 = cyclotomic_field(3)
    q = 2 * F3.zeta()
    A = GradedAssocAlgebra.quantum_torus([[F3.one, q], [F3.inverse(q), F3.one]], F3)
    assert A._tau_mode == "direct"
    with pytest.raises(ValueError, match=r"^q_01 = 2\*z3 is neither rational nor a root of "
                                         r"unity in Q\(zeta_3\); .* rational and "
                                         r"root-of-unity q_ij$"):
        A.centre_lattice()

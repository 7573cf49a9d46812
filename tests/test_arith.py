"""The zero-free element arithmetic of A, sl_n(A) and its uce against the
reference bodies of arith_reference.py.

Both sides get the same random elements over the Laurent polynomials,
Q[Z^2] and the zeta_3 quantum torus (Cyclo scalars), together with inputs
whose sums cancel: x - x, (a + b)(b - a), whose cross terms cancel over a
commutative A, and a matrix product whose (0,0) entry is ab - ab.  Every result must equal the reference and store no
zero coefficient, since == and bool read the stored terms literally.  Over
the polynomials and a degree-0 support, products must also leave the
support exactly where the reference does.
"""

from __future__ import annotations

import functools
import json
import operator
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as hs

import arith_reference as ref
from lietor.graded import AlgElement, GradedAssocAlgebra, Sum
from lietor.lattices import box
from lietor.matlie import MatLieElement, MatrixLieAlgebra, bracket
from lietor.serialize import coord_algebra_from_json
from lietor.uce import UceAlgebra, UceElement, wedge

DATA = Path(__file__).parent / "data"

ALGEBRAS = {
    "laurent": GradedAssocAlgebra.laurent,
    "Q[Z^2]": lambda: GradedAssocAlgebra.group_algebra(2),
    "zeta3-torus": lambda: coord_algebra_from_json(json.loads((DATA / "q3.json").read_text())),
}


@functools.lru_cache(maxsize=None)
def _uce(name) -> UceAlgebra:
    return UceAlgebra(3, ALGEBRAS[name]())


def _scalars(field):
    small = hs.fractions(min_value=-2, max_value=2, max_denominator=3)
    degree = getattr(field, "degree", None)
    if degree is None:
        return small
    return hs.lists(small, min_size=degree, max_size=degree).map(field)


def _elements(A, max_terms=3):
    degs = [tuple(d) for d in box(A.n, 2 if A.n == 1 else 1) if A.in_support(d)]
    return hs.dictionaries(hs.sampled_from(degs), _scalars(A.field), max_size=max_terms).map(
        lambda terms: AlgElement(A, terms))


def _matrices(U, max_entries=3):
    idx = hs.tuples(hs.integers(0, U.n - 1), hs.integers(0, U.n - 1))
    return hs.dictionaries(idx, _elements(U.A, 2), max_size=max_entries).map(
        lambda entries: MatLieElement(U.sl, entries))


def _alg_zero_free(x):
    return all(x.terms.values())


def _mat_zero_free(x):
    return all(v and _alg_zero_free(v) for v in x.terms.values())


def _same_alg(got, want):
    assert got.terms == want.terms and _alg_zero_free(got)
    assert bool(got) == bool(want) and got == want


def _same_mat(got, want):
    assert got.terms.keys() == want.terms.keys() and _mat_zero_free(got)
    for k, v in want.terms.items():
        _same_alg(got.terms[k], v)
    assert got == want


def _same_wedge(got, want):
    assert got.terms == want.terms and all(got.terms.values())
    assert bool(got) == bool(want) and got == want


def _lie_pair():
    A = GradedAssocAlgebra.laurent()
    return tuple(MatrixLieAlgebra(3, A).E(0, 1) for _ in range(2))


# Per Sum kind, equal terms over two owners: two Laurent algebras, two sl_3
# over one algebra, and t wedge 1 over two algebras
SUM_PAIRS = {
    "AlgElement": lambda: tuple(GradedAssocAlgebra.laurent().gen(0) for _ in range(2)),
    "MatLieElement": _lie_pair,
    "WedgeElement": lambda: tuple(wedge(A.gen(0), A.one()) for A in (
        GradedAssocAlgebra.laurent(), GradedAssocAlgebra.laurent())),
}


@pytest.mark.parametrize("kind", sorted(SUM_PAIRS))
def test_a_sum_refuses_a_foreign_owner(kind):
    x, y = SUM_PAIRS[kind]()
    assert type(x).__name__ == kind and isinstance(x, Sum)
    assert x.owner is not y.owner and x.terms == y.terms and x
    for op in (operator.add, operator.sub):
        with pytest.raises(ValueError, match="different"):
            op(x, y)
    for z in (x - x, x + -x):
        assert not z and z.terms == {} and z.owner is x.owner


def test_wedge_refuses_a_foreign_owner():
    # a wedge b of two algebras is refused in either order, also into a
    # terms dict, which it leaves as it was
    A, B = GradedAssocAlgebra.laurent(), GradedAssocAlgebra.laurent()
    for a, b in ((A.gen(0), B.one()), (B.one(), A.gen(0))):
        into = {}
        for args in ((a, b), (a, b, into)):
            with pytest.raises(ValueError, match="different"):
                wedge(*args)
        assert into == {}
    assert wedge(A.gen(0), A.one()).owner is A


@pytest.mark.parametrize("name", ALGEBRAS)
@settings(max_examples=40, deadline=None, database=None)
@given(data=hs.data())
def test_algebra_arithmetic_matches_the_reference(name, data):
    A = _uce(name).A
    a, b = data.draw(_elements(A)), data.draw(_elements(A))
    c = data.draw(_scalars(A.field))
    _same_alg(a + b, ref.alg_add(a, b))
    _same_alg(a - b, ref.alg_sub(a, b))
    _same_alg(-a, ref.alg_neg(a))
    _same_alg(a * b, ref.mul(a, b))
    _same_alg(a * c, ref.alg_scale(a, c))
    _same_alg(c * a, ref.alg_scale(a, c))
    _same_alg(a - a, ref.alg_sub(a, a))
    assert not a - a and (a - a).terms == {}
    s, d = a + b, b - a
    _same_alg(s * d, ref.mul(ref.alg_add(a, b), ref.alg_sub(b, a)))
    _same_alg(a * b - a * b, A.zero())
    _same_wedge(wedge(a, b), ref.wedge(a, b))
    _same_wedge(wedge(a, a), ref.wedge(a, a))


@pytest.mark.parametrize("name", ALGEBRAS)
@settings(max_examples=30, deadline=None, database=None)
@given(data=hs.data())
def test_matrix_arithmetic_matches_the_reference(name, data):
    U = _uce(name)
    x, y = data.draw(_matrices(U)), data.draw(_matrices(U))
    _same_mat(x + y, ref.mat_add(x, y))
    _same_mat(x - y, ref.mat_sub(x, y))
    _same_mat(-x, ref.mat_neg(x))
    _same_mat(x - x, U.sl.zero())
    _same_mat(x.matmul(y), ref.matmul(x, y))
    _same_mat(bracket(x, y), ref.bracket(x, y))
    _same_alg(x.trace(), ref.trace(x))
    # (aE_01 + aE_02)(bE_10 - bE_20) has (0,0) entry ab - ab = 0.
    a, b = data.draw(_elements(U.A)), data.draw(_elements(U.A))
    p = U.sl.E(0, 1, a) + U.sl.E(0, 2, a)
    q = U.sl.E(1, 0, b) - U.sl.E(2, 0, b)
    got = p.matmul(q)
    _same_mat(got, ref.matmul(p, q))
    assert (0, 0) not in got.terms
    _same_mat(bracket(p, q), ref.bracket(p, q))


@pytest.mark.parametrize("name", ALGEBRAS)
@settings(max_examples=25, deadline=None, database=None)
@given(data=hs.data())
def test_uce_bracket_matches_the_reference(name, data):
    U = _uce(name)
    A = U.A
    a, b = data.draw(_elements(A)), data.draw(_elements(A))
    i, j = data.draw(hs.permutations(range(U.n)))[:2]
    # X_ij(a) against X_ji(b): the wedge part and the trace correction.
    pairs = [(U.x(i, j, a), U.x(j, i, b))]
    w1 = ref.wedge(data.draw(_elements(A, 2)), data.draw(_elements(A, 2)))
    w2 = ref.wedge(data.draw(_elements(A, 2)), data.draw(_elements(A, 2)))
    m1, m2 = data.draw(_matrices(U, 2)), data.draw(_matrices(U, 2))
    pairs.append((UceElement(U, w1, m1), UceElement(U, w2, m2)))
    for u, v in pairs:
        got, want = U.bracket(u, v), ref.uce_bracket(U, u, v)
        _same_wedge(got.w, want.w)
        _same_mat(got.m, want.m)


def _mat_snapshot(x):
    return {k: dict(v.terms) for k, v in x.terms.items()}


def _uce_snapshot(u):
    return dict(u.w.terms), _mat_snapshot(u.m)


@pytest.mark.parametrize("name", ALGEBRAS)
@settings(max_examples=25, deadline=None, database=None)
@given(data=hs.data())
def test_brackets_leave_their_operands_alone(name, data):
    """Both brackets add their products into dicts of their own: the results
    equal the reference and are zero-free, and no operand, the shared zero
    wedge part or a memoised diagonal basis is changed in place."""
    U = _uce(name)
    A = U.A
    x, y = data.draw(_matrices(U)), data.draw(_matrices(U))
    before = _mat_snapshot(x), _mat_snapshot(y)
    _same_mat(bracket(x, y), ref.bracket(x, y))
    _same_mat(bracket(x, x), U.sl.zero())
    assert (_mat_snapshot(x), _mat_snapshot(y)) == before

    a, b = data.draw(_elements(A)), data.draw(_elements(A))
    w1 = ref.wedge(data.draw(_elements(A, 2)), data.draw(_elements(A, 2)))
    u, v = U.x(0, 1, a), U.x(1, 0, b)
    pairs = [(u, v), (v, u), (u, UceElement(U, w1, y)), (UceElement(U, w1, x), u)]
    for u1, u2 in pairs:
        before = _uce_snapshot(u1), _uce_snapshot(u2)
        got = U.bracket(u1, u2)
        want = ref.uce_bracket(U, u1, u2)
        _same_wedge(got.w, want.w)
        _same_mat(got.m, want.m)
        assert (_uce_snapshot(u1), _uce_snapshot(u2)) == before
    assert U.zero().w.terms == {}

    diag = U.sl._diag_basis((0,) * A.n)
    before = [_mat_snapshot(d) for d in diag]
    for d in diag:
        _same_mat(bracket(d, x), ref.bracket(d, x))
        _same_mat(bracket(x, d), ref.bracket(x, d))
    assert [_mat_snapshot(d) for d in U.sl._diag_basis((0,) * A.n)] == before


BOUNDED = {
    "polynomial": GradedAssocAlgebra.polynomial,
    "Q[Z^2] in degree 0": lambda: GradedAssocAlgebra.group_algebra(2, support="zero"),
}


@pytest.mark.parametrize("name", BOUNDED)
@settings(max_examples=30, deadline=None, database=None)
@given(data=hs.data())
def test_bounded_support_products_match_the_reference(name, data):
    """mul tests the degree of a product only on a bounded support (Z^n is
    closed under +): products on the support equal the reference, and a
    factor with a term off the support makes both raise."""
    A = BOUNDED[name]()
    a, b = data.draw(_elements(A)), data.draw(_elements(A))
    _same_alg(a * b, ref.mul(a, b))
    off = data.draw(hs.sampled_from([d for d in box(A.n, 2) if not A.in_support(d)]))
    x = a + AlgElement(A, {off: data.draw(_scalars(A.field).filter(bool))})
    for p, q in ((x, A.one()), (A.one(), x)):
        with pytest.raises(ArithmeticError, match="leaves the support"):
            p * q
        with pytest.raises(ArithmeticError, match="leaves the support"):
            ref.mul(p, q)


def test_unit_tau_is_still_asked_for_every_term(monkeypatch):
    """mul skips multiplying by a tau of one, never the call to tau."""
    A = GradedAssocAlgebra.group_algebra(2)
    calls = []
    plain = GradedAssocAlgebra.tau

    def tau(self, lam, mu):
        calls.append((lam, mu))
        return plain(self, lam, mu)

    monkeypatch.setattr(GradedAssocAlgebra, "tau", tau)
    x = A.monomial((1, 0)) + A.monomial((0, 1))
    y = A.monomial((0, 1)) - A.monomial((1, 0))
    got = x * y
    assert len(calls) == 4
    # t^(1,1) - t^(2,0) + t^(0,2) - t^(1,1): the cross terms cancel.
    assert got.terms == {(0, 2): Fraction(1), (2, 0): Fraction(-1)}

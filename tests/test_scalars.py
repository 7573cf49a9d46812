import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, seed, settings, strategies as hs

from cyclo_reference import RefCycloField, power_basis
from lietor.scalars import (
    QQ,
    Cyclo,
    cyclotomic_field,
    cyclotomic_polynomial,
    embed,
    scalar_from_json,
)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_rational_arithmetic_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_zeta4_squares_to_minus_one():
    F4 = cyclotomic_field(4)
    i = F4.zeta()
    assert i * i == -1


def test_zeta3_square_is_minus_one_minus_zeta():
    F3 = cyclotomic_field(3)
    z = F3.zeta()
    assert z * z == F3([-1, -1])


def _random_scalar(field, rng):
    if field is QQ:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(field.degree)]
    return field(coeffs)


@pytest.mark.parametrize("field", [QQ, cyclotomic_field(3), cyclotomic_field(4),
                                   cyclotomic_field(5), cyclotomic_field(12)])
def test_field_axioms_randomized(field):
    rng = random.Random(12345)
    one = field.one
    for _ in range(1000):
        a = _random_scalar(field, rng)
        b = _random_scalar(field, rng)
        c = _random_scalar(field, rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * field.inverse(a) == one


def test_division_by_zero_is_an_error():
    F3 = cyclotomic_field(3)
    for field in (F3, QQ):
        with pytest.raises(ZeroDivisionError):
            field.inverse(field.zero)
    with pytest.raises(ZeroDivisionError):
        F3.zeta() / F3.zero


def test_mixed_cyclotomic_orders_rejected():
    a = cyclotomic_field(3).zeta()
    b = cyclotomic_field(4).zeta()
    with pytest.raises(TypeError):
        a + b
    with pytest.raises(TypeError):
        a * b


def test_explicit_embedding():
    z3 = cyclotomic_field(3).zeta()
    F12 = cyclotomic_field(12)
    e = embed(z3, F12)
    assert e ** 3 == 1 and e != F12.one
    assert embed(Fraction(7, 2), F12) == F12(Fraction(7, 2))
    with pytest.raises(ValueError):
        embed(cyclotomic_field(5).zeta(), cyclotomic_field(12))


def test_scalar_json_round_trip():
    texts = {
        '{"field": "Q", "coeffs": [["-7", "3"]]}': Fraction(-7, 3),
        '{"field": "Q(zeta_5)", "coeffs": [["1", "1"], ["2", "1"], ["1", "3"], ["0", "1"]]}':
            cyclotomic_field(5)([1, 2, Fraction(1, 3), 0]),
    }
    for text, v in texts.items():
        assert scalar_from_json(json.loads(text)) == v


def test_power_basis_length_is_euler_phi():
    for n, phi in [(1, 1), (2, 1), (3, 2), (4, 2), (8, 4), (9, 6), (12, 4)]:
        assert cyclotomic_field(n).degree == phi


def test_zeta9_relations():
    F9 = cyclotomic_field(9)
    z = F9.zeta()
    assert z ** 9 == 1
    assert z ** 6 + z ** 3 + 1 == F9.zero  # Phi_9 at zeta
    assert embed(cyclotomic_field(3).zeta(), F9) == z ** 3


def test_zero_denominator_in_scalar_json_is_a_value_error():
    with pytest.raises(ValueError, match="zero denominator"):
        scalar_from_json({"field": "Q(zeta_3)", "coeffs": [["1", "0"], ["0", "1"]]})
    with pytest.raises(ValueError, match="zero denominator"):
        scalar_from_json({"field": "Q", "coeffs": [["1", "0"]]})


def test_unsupported_operands_are_not_implemented():
    z = cyclotomic_field(3).zeta()
    for other in ("a", 1.5, None):
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for /:"):
            other / z
        with pytest.raises(TypeError):
            z * other
        with pytest.raises(TypeError):
            other - z


# Differential tests: the integer-numerator Cyclo against the Fraction-tuple
# reference it replaced (tests/cyclo_reference.py), and against sympy.

ORDERS = (1, 2, 3, 4, 5, 8, 9, 12, 15)

_fractions = hs.one_of(
    hs.integers(-3, 3).map(Fraction),
    hs.builds(Fraction, hs.integers(-9, 9), hs.integers(1, 12)),
    hs.builds(Fraction, hs.integers(-10**6, 10**6), hs.integers(1, 10**6)),
)
_rationals = hs.one_of(hs.integers(-10**6, 10**6), _fractions)


def _elements(count):
    """An order N and ``count`` coefficient lists of Q(zeta_N); sparse lists
    (many zeros, rational elements) come up often."""
    def lists(n):
        d = cyclotomic_field(n).degree
        vec = hs.lists(hs.one_of(hs.just(Fraction(0)), _fractions), min_size=d, max_size=d)
        rational = hs.builds(lambda c: [c] + [Fraction(0)] * (d - 1), _fractions)
        return hs.tuples(*[hs.one_of(vec, rational)] * count).map(lambda v: (n, v))
    return hs.sampled_from(ORDERS).flatmap(lists)


def _assert_canonical(x):
    """A rational is an int or Fraction; a Cyclo is irrational, reduced and
    in lowest terms."""
    if not isinstance(x, Cyclo):
        assert type(x) in (int, Fraction)
        return
    assert type(x.num) is tuple and len(x.num) == x.field.degree
    assert all(type(c) is int for c in x.num)
    assert type(x.den) is int and x.den > 0
    assert gcd(x.den, *x.num) == 1
    assert any(x.num[1:])


def _agree(x, ref):
    _assert_canonical(x)
    assert power_basis(x, ref.field.degree) == ref.coeffs
    assert hash(x) == hash(ref)


def _quotient(x, y, field):
    """x / y: the operator when a Cyclo takes part, field.inverse for two
    rationals (int / int is a float)."""
    if isinstance(x, Cyclo) or isinstance(y, Cyclo):
        return x / y
    return x * field.inverse(y)


def _power(x, k, field):
    """x ** k: the operator for a Cyclo, field.inverse for a rational and
    k < 0 (int ** -k is a float)."""
    if isinstance(x, Cyclo) or k >= 0:
        return x ** k
    return field.inverse(x) ** -k


@seed(13)
@settings(max_examples=400, deadline=None, database=None)
@given(_elements(2), _rationals)
def test_cyclo_agrees_with_the_fraction_reference(data, r):
    n, (ca, cb) = data
    F, R = cyclotomic_field(n), RefCycloField(n)
    a, b, ra, rb = F(ca), F(cb), R(ca), R(cb)
    _agree(a, ra)
    _agree(b, rb)
    for got, ref in [(a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb), (-a, -ra),
                     (a + r, ra + r), (r + a, r + ra), (a - r, ra - r), (r - a, r - ra),
                     (a * r, ra * r), (r * a, r * ra), (F(r), R(r)), (F.from_int(7), R(7))]:
        _agree(got, ref)
    assert (a == b) == (ra.coeffs == rb.coeffs)
    assert (a == r) == (ra == r) and (a != r) == (ra != r)
    if a:
        _agree(F.inverse(a), ra.inverse())
        _agree(_quotient(b, a, F), rb / ra)
        if r:
            _agree(_quotient(r, a, F), r / ra)
            _agree(_quotient(a, r, F), ra / r)
        _agree(_power(a, -2, F), ra ** -2)


@seed(14)
@settings(max_examples=200, deadline=None, database=None)
@given(_elements(1))
def test_rational_elements_hash_like_fractions(data):
    n, (ca,) = data
    F = cyclotomic_field(n)
    x = F([ca[0]] + [0] * (F.degree - 1))
    _assert_canonical(x)
    assert x == ca[0] and ca[0] == x
    assert hash(x) == hash(ca[0])
    assert power_basis(x, F.degree) == (ca[0],) + (0,) * (F.degree - 1)
    assert {x: 1}.get(ca[0]) == 1
    if ca[0].denominator == 1:
        assert type(x) is int and hash(x) == hash(ca[0].numerator)


@seed(15)
@settings(max_examples=150, deadline=None, database=None)
@given(_elements(2))
def test_products_and_inverses_agree_with_sympy(data):
    sympy = pytest.importorskip("sympy")
    n, (ca, cb) = data
    x = sympy.symbols("x")
    phi = sympy.Poly(sympy.cyclotomic_poly(n, x), x, domain=sympy.QQ)

    def poly(coeffs):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
                          x, domain=sympy.QQ)

    def coeffs(p):
        out = [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]
        return tuple(out + [Fraction(0)] * (phi.degree() - len(out)))

    F = cyclotomic_field(n)
    a, b = F(ca), F(cb)
    assert power_basis(a * b, F.degree) == coeffs((poly(ca) * poly(cb)).rem(phi))
    if a:
        assert power_basis(F.inverse(a), F.degree) == coeffs(poly(ca).invert(phi))


@seed(16)
@settings(max_examples=300, deadline=None, database=None)
@given(_elements(2), _rationals, hs.integers(-7, 7))
def test_rational_results_are_ints_or_fractions(data, r, k):
    # Every result of a Q(zeta_N) operation that is rational is an int or a
    # Fraction; a Cyclo is never rational, so never zero; and equal values
    # hash equal across int, Fraction and Cyclo.
    n, (ca, cb) = data
    F = cyclotomic_field(n)
    a, b = F(ca), F(cb)
    results = [a, b, a + b, a - b, a * b, -a, a + r, r - a, a * r, F(r), F.zeta(k),
               _power(F.zeta(), k, F), embed(a, cyclotomic_field(2 * n)), F.from_int(k)]
    if a:
        results += [F.inverse(a), _quotient(b, a, F), _quotient(r, a, F)]
    for x in results:
        _assert_canonical(x)
        if isinstance(x, Cyclo):
            assert x and x != 0 and x != power_basis(x, F.degree)[0]
        else:
            assert x == Fraction(x) and hash(x) == hash(Fraction(x))
            if Fraction(x).denominator == 1:
                assert x == int(x) and hash(x) == hash(int(x))
    for x in results:
        for y in results:
            assert (x == y) == (y == x)
            if x == y:
                assert hash(x) == hash(y)


def test_embed_of_an_irrational_into_q_names_it():
    z = cyclotomic_field(3).zeta()
    with pytest.raises(ValueError, match=r"z3 in Q\(zeta_3\) is not rational"):
        embed(z, QQ)
    assert embed(cyclotomic_field(3)(Fraction(-5, 2)), QQ) == Fraction(-5, 2)
    assert embed(z ** 3, QQ) == 1


def test_zeta_n_embeds_into_q_zeta_m_for_n_dividing_2m_with_m_odd():
    # Q(zeta_2M) = Q(zeta_M) for odd M: the image of zeta_N has order N
    for m in range(1, 16, 2):
        F = cyclotomic_field(m)
        for n in (k for k in range(1, 2 * m + 1) if 2 * m % k == 0):
            w = embed(cyclotomic_field(n).zeta(), F)
            powers = [w]
            while len(powers) < n:
                powers.append(powers[-1] * w)
            assert powers[-1] == 1 and 1 not in powers[:-1], (n, m)
    with pytest.raises(ValueError, match=r"no canonical embedding Q\(zeta_4\) -> Q\(zeta_3\)"):
        embed(cyclotomic_field(4).zeta(), cyclotomic_field(3))

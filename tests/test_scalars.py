import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, seed, settings, strategies as hs

from cyclo_reference import RefCycloField
from lietor.scalars import (
    QQ,
    Cyclo,
    cyclotomic_field,
    cyclotomic_polynomial,
    embed,
    root_of_unity_order,
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
    one = field.one if field is not QQ else Fraction(1)
    for _ in range(1000):
        a = _random_scalar(field, rng)
        b = _random_scalar(field, rng)
        c = _random_scalar(field, rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a:
            inv = a.inverse() if isinstance(a, Cyclo) else 1 / a
            assert a * inv == one


def test_division_by_zero_is_an_error():
    F3 = cyclotomic_field(3)
    with pytest.raises(ZeroDivisionError):
        F3.zero.inverse()


def test_root_of_unity_orders():
    assert root_of_unity_order(Fraction(-1)) == 2
    assert root_of_unity_order(Fraction(1)) == 1
    assert root_of_unity_order(Fraction(2)) is None
    assert root_of_unity_order(cyclotomic_field(6).zeta()) == 6
    assert root_of_unity_order(cyclotomic_field(12).zeta(4)) == 3
    z8 = cyclotomic_field(8).zeta()
    assert root_of_unity_order(z8 * z8) == 4


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
    assert type(x.num) is tuple and len(x.num) == x.field.degree
    assert all(type(c) is int for c in x.num)
    assert type(x.den) is int and x.den > 0
    assert gcd(x.den, *x.num) == 1


def _agree(x, ref):
    _assert_canonical(x)
    assert x.coeffs == ref.coeffs
    assert hash(x) == hash(ref)


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
        _agree(a.inverse(), ra.inverse())
        _agree(b / a, rb / ra)
        if r:
            _agree(r / a, r / ra)
            _agree(a / r, ra / r)
        _agree(a ** -2, ra ** -2)


@seed(14)
@settings(max_examples=200, deadline=None, database=None)
@given(_elements(1))
def test_rational_elements_hash_like_fractions(data):
    n, (ca,) = data
    F = cyclotomic_field(n)
    x = F([ca[0]] + [0] * (F.degree - 1))
    _assert_canonical(x)
    assert x == ca[0] and ca[0] == x
    assert hash(x) == hash(ca[0]) and x.rational_part() == ca[0]
    assert {x: 1}.get(ca[0]) == 1
    if ca[0].denominator == 1:
        assert x.coeffs is x.num and hash(x) == hash(ca[0].numerator)


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
    assert (a * b).coeffs == coeffs((poly(ca) * poly(cb)).rem(phi))
    if a:
        assert a.inverse().coeffs == coeffs(poly(ca).invert(phi))

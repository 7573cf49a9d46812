"""Exact field arithmetic over Q and the cyclotomic fields Q(zeta_N).

A rational value is a Python ``int``, or a ``fractions.Fraction`` when it is
not integral, in every field: ``QQ.one`` and ``cyclotomic_field(3).one`` are
both the int 1.  Python's own arithmetic takes rational sums and products.
A ``Cyclo`` holds an irrational element of Q(zeta_N) only, in the power
basis of Q[x]/Phi_N(x) as integer numerators over one common denominator,
eagerly reduced and in lowest terms, so equality is literal comparison.
Every operation that can land on a rational returns the rational, and
``==`` and ``hash`` agree across int, Fraction and Cyclo, so no code needs
to ask which type a rational has.

Division goes through ``field.inverse``: ``int / int`` and ``int ** -k``
are floats in Python, and no float may enter the verifier.  Elements of
different cyclotomic orders never mix implicitly; use :func:`embed` to move
along Q -> Q(zeta_N) -> Q(zeta_M) for N | M.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


def _poly_trim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def _poly_divmod(num: list, den: list):
    """Quotient and remainder for integer coefficient lists (den monic-ish)."""
    num = list(num)
    quot = [0] * max(1, len(num) - len(den) + 1)
    while len(num) >= len(den) and any(num):
        if not num[-1]:
            num.pop()
            continue
        shift = len(num) - len(den)
        q, r = divmod(num[-1], den[-1])
        if r:
            raise ArithmeticError("non-exact integer polynomial division")
        quot[shift] = q
        for i, d in enumerate(den):
            num[shift + i] -= q * d
        num.pop()
    return quot, _poly_trim(num)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Integer coefficients of Phi_n, constant term first."""
    if n < 1:
        raise ValueError("order must be positive")
    # x^n - 1 divided by the product of Phi_d for proper divisors d.
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, list(cyclotomic_polynomial(d)))
            if rem:
                raise AssertionError("cyclotomic division left a remainder")
    return tuple(poly)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


def _rational(x: Fraction):
    """x as an int when it is integral, else the Fraction itself."""
    return x.numerator if x.denominator == 1 else x


class RationalField:
    """The field Q; an element is an int, or a Fraction when not integral."""

    name = "Q"

    zero = 0
    one = 1

    def __call__(self, num, den=1):
        return _rational(Fraction(num, den))

    def from_int(self, k: int) -> int:
        return k

    def inverse(self, x):
        """1/x, exact; an int when x is 1/k for an integer k."""
        p, q = x.numerator, x.denominator
        if p == 1 or p == -1:
            return p * q
        if not p:
            raise ZeroDivisionError("inverse of zero in " + self.name)
        return Fraction(q, p)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("lietor.QQ")


QQ = RationalField()


def frac_to_str(x) -> str:
    """A field value as text: a rational as "3" or "-1/2", a Cyclo in its
    own form ("1/2 + z3"); a tuple of them as "(-1, 0, 1/2)" and a list as
    "[-1, 0, 1/2]".  The text does not depend on the type of a rational."""
    if isinstance(x, tuple):
        return "(" + ", ".join(map(frac_to_str, x)) + ")"
    if isinstance(x, list):
        return "[" + ", ".join(map(frac_to_str, x)) + "]"
    if isinstance(x, Cyclo):
        return repr(x)
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class CycloField:
    """The cyclotomic field Q(zeta_N) in the power basis of Q[x]/Phi_N."""

    zero = 0
    one = 1

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("order must be positive")
        self.order = order
        self.degree = d = euler_phi(order)
        self.name = f"Q(zeta_{order})"
        # Row k holds zeta^(d+k) in the power basis; _reduce grows the table.
        # Phi_N is monic, so the rows are integral.
        self._red = [tuple(-c for c in cyclotomic_polynomial(order)[:d])]
        self._pad = (0,) * (d - 1)

    def __call__(self, coeffs):
        """The element with these power-basis coefficients; a rational is
        returned as itself."""
        if isinstance(coeffs, (int, Fraction)):
            return _rational(Fraction(coeffs))
        coeffs = [c if isinstance(c, int) else Fraction(c) for c in coeffs]
        if len(coeffs) != self.degree:
            raise ValueError(f"need {self.degree} coefficients for {self.name}")
        # Over the lcm of the reduced denominators the numerators are coprime
        # to it, so the result is in lowest terms.
        den = lcm(*(c.denominator for c in coeffs))
        return _canonical(self, tuple(c.numerator * (den // c.denominator) for c in coeffs), den)

    def from_int(self, k: int) -> int:
        return k

    def inverse(self, x):
        """1/x, exact, for a rational or a Cyclo x."""
        if isinstance(x, Cyclo):
            return x.inverse()
        if not x:
            raise ZeroDivisionError("inverse of zero in " + self.name)
        return QQ.inverse(x)

    def zeta(self, power: int = 1):
        """zeta_N^power as a field element (a rational for zeta^k = +-1)."""
        power %= self.order
        return _canonical(self, self._reduce([0] * power + [1]), 1)

    def _reduce(self, conv: list) -> tuple:
        """Integer coefficients of conv(zeta) in the power basis."""
        d, n = self.degree, len(conv)
        if n <= d:
            return tuple(conv) + (0,) * (d - n)
        red = self._red
        while len(red) < n - d:
            cur = red[-1]
            red.append(tuple(cur[-1] * t + c for t, c in zip(red[0], (0,) + cur[:-1])))
        out = conv[:d]
        for k in range(d, n):
            c = conv[k]
            if c:
                for i, r in enumerate(red[k - d]):
                    out[i] += c * r
        return tuple(out)

    def _mul(self, a: tuple, b: tuple) -> tuple:
        """Product of two integer power-basis vectors, reduced."""
        conv = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return self._reduce(conv)

    def _conjugate(self, a: tuple, k: int) -> tuple:
        """The Galois conjugate zeta -> zeta^k of an integer power-basis vector."""
        n = self.order
        conv = [0] * n
        for i, ai in enumerate(a):
            conv[i * k % n] += ai
        return self._reduce(conv)

    def __repr__(self):
        return f"CycloField({self.order})"

    def __eq__(self, other):
        return isinstance(other, CycloField) and other.order == self.order

    def __hash__(self):
        return hash(("lietor.CycloField", self.order))


@lru_cache(maxsize=None)
def cyclotomic_field(order: int) -> CycloField:
    return CycloField(order)


def _canonical(field: CycloField, num: tuple, den: int):
    """num / den (den > 0) in lowest terms: the rational num[0] / den when
    every later coefficient is 0, else a Cyclo."""
    if not any(num[1:]):
        p = num[0]
        if den == 1:
            return p
        return Fraction(p, den) if p % den else p // den
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            return Cyclo(field, tuple(c // g for c in num), den // g)
    return Cyclo(field, num, den)


def _check_orders(a: CycloField, b: CycloField):
    if a.order != b.order:
        raise TypeError(
            "mixed cyclotomic orders %d and %d; embed explicitly" % (a.order, b.order)
        )


class Cyclo:
    """Irrational element of Q(zeta_N): integer numerators ``num`` in the
    power basis over one denominator ``den`` > 0, with some coefficient after
    the first nonzero.  It is eagerly reduced modulo Phi_N and kept in lowest
    terms, gcd(den, *num) == 1, so equality is literal comparison.  A Cyclo
    is never rational, so never zero and never equal to an int or Fraction;
    a result that is rational comes back as one.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CycloField, num: tuple, den: int = 1):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self) -> tuple:
        """The power-basis coefficients as exact rationals: ``num`` itself when
        den == 1 (an int has numerator and denominator), else Fractions."""
        den = self.den
        if den == 1:
            return self.num
        return tuple(Fraction(c, den) for c in self.num)

    def _sum(self, other, sign: int):
        """self + sign * other."""
        field, a, da = self.field, self.num, self.den
        if isinstance(other, Cyclo):
            if other.field is not field:
                _check_orders(field, other.field)
            b, db = other.num, other.den
            if da != db:
                a, b, da = tuple(x * db for x in a), tuple(y * da for y in b), da * db
            if sign > 0:
                return _canonical(field, tuple(x + y for x, y in zip(a, b)), da)
            return _canonical(field, tuple(x - y for x, y in zip(a, b)), da)
        if isinstance(other, (int, Fraction)):
            p, q = sign * other.numerator, other.denominator
            if q == 1:
                # Adding a multiple of den to one numerator keeps the gcd 1.
                return Cyclo(field, (a[0] + p * da,) + a[1:], da)
            return _canonical(field, (a[0] * q + p * da,) + tuple(x * q for x in a[1:]), da * q)
        return NotImplemented

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.field, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        field = self.field
        if isinstance(other, Cyclo):
            if other.field is not field:
                _check_orders(field, other.field)
            return _canonical(field, field._mul(self.num, other.num), self.den * other.den)
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return _canonical(field, tuple(c * p for c in self.num), self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        # For the integral part a = num: a^-1 = (product of the other Galois
        # conjugates of a) / N(a), with N(a) a nonzero integer.
        field, a = self.field, self.num
        n = field.order
        cof = (1,) + field._pad
        for k in range(2, n):
            if gcd(k, n) == 1:
                cof = field._mul(cof, field._conjugate(a, k))
        norm = field._mul(cof, a)[0]
        if norm < 0:
            norm, cof = -norm, tuple(-c for c in cof)
        return _canonical(field, tuple(c * self.den for c in cof), norm)

    def __truediv__(self, other):
        if isinstance(other, (Cyclo, int, Fraction)):
            return self * self.field.inverse(other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return other * self.inverse()
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = 1
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, Cyclo):
            return (self.num == other.num and self.den == other.den
                    and self.field.order == other.field.order)
        return NotImplemented

    def __hash__(self):
        return hash(("lietor.Cyclo", self.field.order, self.coeffs))

    def __repr__(self):
        z = f"z{self.field.order}"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*{z}" if c != 1 else z)
            else:
                parts.append(f"{c}*{z}^{i}" if c != 1 else f"{z}^{i}")
        return " + ".join(parts)


def embed(x, target):
    """Explicitly embed x into ``target`` (Q -> Q(zeta_N), or Q(zeta_N) ->
    Q(zeta_M) for N | M, or for N | 2M with M odd).  A rational is the same
    value in every field; a Cyclo has no image in Q."""
    if isinstance(x, Cyclo):
        if isinstance(target, RationalField):
            raise ValueError(f"{x!r} in {x.field.name} is not rational, so not in Q")
        n, m = x.field.order, target.order
        if m % n == 0:
            z = target.zeta(m // n)
        elif m % 2 and 2 * m % n == 0:
            # Q(zeta_2M) = Q(zeta_M) for odd M, with zeta_2M = -zeta_M^((M+1)/2);
            # zeta_N is zeta_2M to the power e = 2M/N.
            e = 2 * m // n
            z = target.zeta((m + 1) // 2 * e)
            z = -z if e % 2 else z
        else:
            raise ValueError(f"no canonical embedding Q(zeta_{n}) -> Q(zeta_{m})")
        out, zpow = 0, 1
        for c in x.coeffs:
            if c:
                out = out + c * zpow
            zpow = zpow * z
        return out
    if isinstance(x, (int, Fraction)):
        return target(x)
    raise TypeError(f"cannot embed {type(x).__name__}")


def json_key(data: dict, key: str, what: str):
    """data[key], or a ValueError naming what and the missing key."""
    try:
        return data[key]
    except KeyError:
        raise ValueError(f"{what} has no key {key!r}") from None


def json_int(value, what: str) -> int:
    """An integer or its string, else a ValueError naming what: a bool, a
    float or any other string is refused, not truncated."""
    try:
        if type(value) is int or isinstance(value, str):
            return int(value)
    except ValueError:
        pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def json_rank(value, what: str = "the lattice rank n") -> int:
    """A rank or a dimension, the lattice rank n of a coordinate algebra by
    default: an integer or its string, refused below 0."""
    n = json_int(value, what)
    if n < 0:
        raise ValueError(f"{what} must be at least 0, got {n}")
    return n


def json_object(data, what: str, keys=None) -> dict:
    """data when it is a JSON object with no key outside keys (any key when
    keys is None), else a ValueError naming what and the first such key."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    unknown = next((k for k in data if keys is not None and k not in keys), None)
    if unknown is not None:
        raise ValueError(f"{what} has an unknown key {unknown!r}")
    return data


def scalar_from_json(data: dict):
    """A scalar from {"field": ..., "coeffs": [[num, den], ...]}: the field
    a string, "Q" or "Q(zeta_N)" with N an integer, and each numerator and
    denominator an integer or its string, read by json_int."""
    field = json_key(data, "field", "a scalar")
    if not isinstance(field, str):
        raise ValueError(f"the field of a scalar must be a string, got {field!r}")
    coeffs = json_key(data, "coeffs", "a scalar")
    if not (isinstance(coeffs, list)
            and all(isinstance(c, list) and len(c) == 2 for c in coeffs)):
        raise ValueError(f"the coeffs of a scalar must be a list of [num, den] pairs, "
                         f"got {coeffs!r}")
    pairs = [(json_int(n, "a numerator of a scalar"), json_int(d, "a denominator of a scalar"))
             for n, d in coeffs]
    if any(d == 0 for _, d in pairs):
        raise ValueError("zero denominator in a scalar coefficient")
    coeffs = [Fraction(n, d) for n, d in pairs]
    if field == "Q":
        if len(coeffs) != 1:
            raise ValueError("rational scalar needs exactly one coefficient pair")
        return QQ(coeffs[0])
    if field.startswith("Q(zeta_") and field.endswith(")"):
        order = json_int(field[len("Q(zeta_"):-1], "the N of a scalar field Q(zeta_N)")
        return cyclotomic_field(order)(coeffs)
    raise ValueError(f"unknown field tag {field!r}")

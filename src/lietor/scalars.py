"""Exact field arithmetic over Q and the cyclotomic fields Q(zeta_N).

Rational numbers are stdlib ``fractions.Fraction`` (already canonical:
reduced, positive denominator).  Cyclotomic numbers live in the power basis
of Q[x]/Phi_N(x) and are eagerly reduced, so equality is literal coefficient
comparison.  Elements of different cyclotomic orders never mix implicitly;
use :func:`embed` to move along Q -> Q(zeta_N) -> Q(zeta_M) for N | M.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


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


class RationalField:
    """The field Q; elements are ``fractions.Fraction``."""

    name = "Q"

    zero = Fraction(0)
    one = Fraction(1)

    def __call__(self, num, den=1):
        return Fraction(num, den)

    def from_int(self, k: int) -> Fraction:
        return Fraction(k)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("lietor.QQ")


QQ = RationalField()


def frac_to_str(x) -> str:
    """A rational as "3" or "-1/2"; a tuple of them as "(-1, 0, 1/2)"."""
    if isinstance(x, tuple):
        return "(" + ", ".join(map(frac_to_str, x)) + ")"
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class CycloField:
    """The cyclotomic field Q(zeta_N) in the power basis of Q[x]/Phi_N."""

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("order must be positive")
        self.order = order
        self.degree = euler_phi(order)
        self.name = f"Q(zeta_{order})"
        phi = [Fraction(c) for c in cyclotomic_polynomial(order)]
        d = self.degree
        # Row k holds zeta^(d+k) in the power basis; grown lazily by _red_row.
        self._red = [tuple(-phi[i] / phi[d] for i in range(d))]
        self.zero = Cyclo(self, (Fraction(0),) * d)
        self.one = Cyclo(self, ((Fraction(1),) + (Fraction(0),) * (d - 1)))

    def __call__(self, coeffs) -> "Cyclo":
        if isinstance(coeffs, (int, Fraction)):
            coeffs = [Fraction(coeffs)] + [Fraction(0)] * (self.degree - 1)
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != self.degree:
            raise ValueError(f"need {self.degree} coefficients for {self.name}")
        return Cyclo(self, tuple(coeffs))

    def from_int(self, k: int) -> "Cyclo":
        return self(k)

    def zeta(self, power: int = 1) -> "Cyclo":
        """zeta_N^power as a field element."""
        power %= self.order
        conv = [Fraction(0)] * power + [Fraction(1)]
        return Cyclo(self, self._reduce(conv))

    def _red_row(self, k: int) -> tuple:
        """zeta^(degree + k) in the power basis, extending the table as needed."""
        d = self.degree
        top = self._red[0]
        while len(self._red) <= k:
            cur = self._red[-1]
            nxt = [Fraction(0)] + list(cur[:-1])
            lead = cur[-1]
            if lead:
                nxt = [nxt[i] + lead * top[i] for i in range(d)]
            self._red.append(tuple(nxt))
        return self._red[k]

    def _reduce(self, conv: list) -> tuple:
        d = self.degree
        out = list(conv[:d]) + [Fraction(0)] * max(0, d - len(conv))
        for k in range(d, len(conv)):
            c = conv[k]
            if c:
                red = self._red_row(k - d)
                out = [out[i] + c * red[i] for i in range(d)]
        return tuple(out)

    def __repr__(self):
        return f"CycloField({self.order})"

    def __eq__(self, other):
        return isinstance(other, CycloField) and other.order == self.order

    def __hash__(self):
        return hash(("lietor.CycloField", self.order))


@lru_cache(maxsize=None)
def cyclotomic_field(order: int) -> CycloField:
    return CycloField(order)


class Cyclo:
    """Element of Q(zeta_N), eagerly reduced modulo Phi_N."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CycloField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def _lift(self, other):
        if isinstance(other, Cyclo):
            if other.field.order != self.field.order:
                raise TypeError(
                    "mixed cyclotomic orders %d and %d; embed explicitly"
                    % (self.field.order, other.field.order)
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field(other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Cyclo(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Cyclo(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        conv = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return Cyclo(self.field, self.field._reduce(conv))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        if not self:
            raise ZeroDivisionError("inverse of zero in " + self.field.name)
        # Extended Euclid in Q[x] against Phi_N.
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.field.order)]
        r0, r1 = phi, list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            r1 = _frac_trim(r1)
            if len(r1) == 1:
                inv = [s / r1[0] for s in s1]
                conv = inv + [Fraction(0)] * max(0, self.field.degree - len(inv))
                return Cyclo(self.field, self.field._reduce(conv))
            q, r = _frac_divmod(r0, r1)
            s = _frac_sub(s0, _frac_mul(q, s1))
            r0, s0, r1, s1 = r1, s1, r, s

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        return o * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Cyclo):
            return self.field.order == other.field.order and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs[0] == other and not any(self.coeffs[1:])
        return NotImplemented

    def __hash__(self):
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash(("lietor.Cyclo", self.field.order, self.coeffs))

    def rational_part(self) -> Fraction:
        if any(self.coeffs[1:]):
            raise ValueError("element is not rational")
        return self.coeffs[0]

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
        return " + ".join(parts) if parts else "0"


def _frac_trim(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return c or [Fraction(0)]


def _frac_divmod(num, den):
    num = _frac_trim(num)
    den = _frac_trim(den)
    q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    while len(num) >= len(den) and any(num):
        shift = len(num) - len(den)
        c = num[-1] / den[-1]
        q[shift] = c
        for i, d in enumerate(den):
            num[shift + i] -= c * d
        num = _frac_trim(num)
        if len(num) < len(den) or not any(num):
            break
    return q, num


def _frac_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _frac_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def embed(x, target):
    """Explicitly embed x into ``target`` (Q -> Q(zeta_N), or N | M)."""
    if isinstance(target, RationalField):
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        if isinstance(x, Cyclo):
            return x.rational_part()
        raise TypeError("cannot embed into Q")
    if isinstance(x, (int, Fraction)):
        return target(x)
    if isinstance(x, Cyclo):
        n, m = x.field.order, target.order
        if m % n != 0:
            raise ValueError(f"no canonical embedding Q(zeta_{n}) -> Q(zeta_{m})")
        step = m // n
        out = target.zero
        zpow = target.one
        z = target.zeta(step)
        for c in x.coeffs:
            if c:
                out = out + target(c) * zpow
            zpow = zpow * z
        return out
    raise TypeError(f"cannot embed {type(x).__name__}")


def root_of_unity_order(x):
    """Least m with x^m = 1, or None if x is not a root of unity."""
    if isinstance(x, (int, Fraction)):
        x = Fraction(x)
        if x == 1:
            return 1
        if x == -1:
            return 2
        return None
    if isinstance(x, Cyclo):
        if not x:
            raise ValueError("zero is not a root of unity")
        bound = x.field.order
        if bound % 2:
            bound *= 2
        acc = x
        for m in range(1, bound + 1):
            if acc == 1:
                return m
            acc = acc * x
        return None
    raise TypeError(f"unsupported scalar {type(x).__name__}")


def scalar_to_json(x) -> dict:
    """Serialize per the scalar schema, integers as decimal strings."""
    if isinstance(x, (int, Fraction)):
        x = Fraction(x)
        return {"field": "Q", "coeffs": [[str(x.numerator), str(x.denominator)]]}
    if isinstance(x, Cyclo):
        return {
            "field": f"Q(zeta_{x.field.order})",
            "coeffs": [[str(c.numerator), str(c.denominator)] for c in x.coeffs],
        }
    raise TypeError(f"not a scalar: {type(x).__name__}")


def scalar_from_json(data: dict):
    field = data["field"]
    coeffs = [Fraction(int(n), int(d)) for n, d in data["coeffs"]]
    if field == "Q":
        if len(coeffs) != 1:
            raise ValueError("rational scalar needs exactly one coefficient pair")
        return coeffs[0]
    if field.startswith("Q(zeta_") and field.endswith(")"):
        order = int(field[len("Q(zeta_"):-1])
        return cyclotomic_field(order)(coeffs)
    raise ValueError(f"unknown field tag {field!r}")

"""Test-only reference for ``lietor.scalars.Cyclo``: the Fraction-tuple
implementation that the integer-numerator one replaced.

Every coefficient of a ``RefCyclo`` is a ``fractions.Fraction`` in the power
basis of Q[x]/Phi_N, eagerly reduced with Fraction rows.  The differential
tests in ``test_scalars.py`` compare the two on the same inputs.
"""

from __future__ import annotations

from fractions import Fraction

from lietor.scalars import Cyclo, cyclotomic_polynomial, euler_phi


def power_basis(x, degree: int) -> tuple:
    """The power-basis coefficients of any value of a field of this degree:
    a Cyclo's own, or (x, 0, ..., 0) for a rational (an int or Fraction)."""
    if isinstance(x, Cyclo):
        return x.coeffs
    return (x,) + (0,) * (degree - 1)


class RefCycloField:
    """Q(zeta_N) with one ``Fraction`` per power-basis coefficient."""

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
        self.zero = RefCyclo(self, (Fraction(0),) * d)
        self.one = RefCyclo(self, ((Fraction(1),) + (Fraction(0),) * (d - 1)))

    def __call__(self, coeffs) -> "RefCyclo":
        if isinstance(coeffs, (int, Fraction)):
            coeffs = [Fraction(coeffs)] + [Fraction(0)] * (self.degree - 1)
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != self.degree:
            raise ValueError(f"need {self.degree} coefficients for {self.name}")
        return RefCyclo(self, tuple(coeffs))

    def from_int(self, k: int) -> "RefCyclo":
        return self(k)

    def zeta(self, power: int = 1) -> "RefCyclo":
        """zeta_N^power as a field element."""
        power %= self.order
        conv = [Fraction(0)] * power + [Fraction(1)]
        return RefCyclo(self, self._reduce(conv))

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
        return f"RefCycloField({self.order})"

    def __eq__(self, other):
        return isinstance(other, RefCycloField) and other.order == self.order

    def __hash__(self):
        return hash(("lietor.CycloField", self.order))


class RefCyclo:
    """Element of Q(zeta_N), eagerly reduced modulo Phi_N."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: RefCycloField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def _lift(self, other):
        if isinstance(other, RefCyclo):
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
        return RefCyclo(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return RefCyclo(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return RefCyclo(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

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
        return RefCyclo(self.field, self.field._reduce(conv))

    __rmul__ = __mul__

    def inverse(self) -> "RefCyclo":
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
                return RefCyclo(self.field, self.field._reduce(conv))
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
        if isinstance(other, RefCyclo):
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

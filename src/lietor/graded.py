"""Z^n-graded quantum tori (a group algebra is the quantum torus with q = 1),
with their centre lattices, graded invariant forms and centroidal
derivations.

Elements are Sums (the zero-free finite sums that sl_n(A) and A wedge A
share) keyed by the lattice degree, with exact scalar coefficients: each
graded piece A^lam is K t^lam, so the degree alone names a basis vector.
Arithmetic is unbounded, and the structural checks read q.
"""

from __future__ import annotations

import functools
import math
from operator import add

from .lattices import LatticeSubset, lattice_from_congruences
from .linalg import kernel
from .scalars import Cyclo, CycloField, QQ, frac_to_str


def memo(fn):
    """fn(owner, *args), computed once per owner and arguments: the table lives
    in the owner's __dict__, keyed by the hashable arguments after the owner (a
    list is taken, and passed on, as its tuple).  Every caller shares the value,
    which no caller mutates.  A miss runs __wrapped__, where a test can hook it.

    A hit is looked up with the argument tuple itself, two dict lookups; a
    miss, or a list argument (which makes that tuple unhashable), builds the
    key."""
    slot = f"_memo:{fn.__qualname__}"

    @functools.wraps(fn)
    def cached(owner, *args):
        try:
            return owner.__dict__[slot][args]
        except (KeyError, TypeError):
            pass
        key = tuple(tuple(a) if type(a) is list else a for a in args)
        table = owner.__dict__.setdefault(slot, {})
        if key not in table:
            table[key] = cached.__wrapped__(owner, *key)
        return table[key]

    return cached


def add_terms(x: dict, y: dict) -> dict:
    """x + y for dicts of nonzero values (coefficients or matrix entries):
    a new dict, again with no zero value."""
    out = dict(x)
    for k, v in y.items():
        w = out.get(k)
        s = v if w is None else w + v
        if s:
            out[k] = s
        elif w is not None:
            del out[k]
    return out


def sub_terms(x: dict, y: dict) -> dict:
    """x - y for dicts of nonzero values, in one pass: a new dict, again with
    no zero value."""
    out = dict(x)
    for k, v in y.items():
        w = out.get(k)
        if w is None:
            out[k] = -v
        else:
            s = w - v
            if s:
                out[k] = s
            else:
                del out[k]
    return out


class Sum:
    """A finite sum over one owner: terms maps a key to a nonzero value.

    No stored value is zero, so == and bool read the terms literally.  The
    public constructor drops zero values; the arithmetic builds zero-free
    dicts and wraps them with _zero_free.  Sums of different owners do not
    mix: + and - refuse them with _mismatch.
    """

    __slots__ = ("owner", "terms")
    _mismatch = "elements belong to different algebras"

    def __init__(self, owner, terms=None):
        self.owner = owner
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def _zero_free(cls, owner, terms):
        """The sum with exactly these terms, none of them zero."""
        x = cls.__new__(cls)
        x.owner = owner
        x.terms = terms
        return x

    def _check(self, other):
        if other.owner is not self.owner:
            raise ValueError(self._mismatch)

    def __add__(self, other):
        self._check(other)
        return self._zero_free(self.owner, add_terms(self.terms, other.terms))

    def __sub__(self, other):
        self._check(other)
        return self._zero_free(self.owner, sub_terms(self.terms, other.terms))

    def __neg__(self):
        return self._zero_free(self.owner, {k: -v for k, v in self.terms.items()})

    def scale(self, c):
        if not c:
            return self._zero_free(self.owner, {})
        return self._zero_free(self.owner, {k: v * c for k, v in self.terms.items()})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.owner is other.owner and self.terms == other.terms


class AlgElement(Sum):
    """Element of a coordinate algebra A: a sum of terms c t^deg, keyed by
    the degree alone, as A^deg = K t^deg."""

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, AlgElement):
            self._check(other)
            return self.owner.mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __hash__(self):
        return hash((id(self.owner), frozenset(self.terms.items())))

    def degrees(self):
        return sorted(self.terms)

    def component(self, deg):
        deg = tuple(deg)
        c = self.terms.get(deg)
        return AlgElement._zero_free(self.owner, {} if c is None else {deg: c})

    def coefficient(self, deg):
        return self.terms.get(tuple(deg), self.owner.field.zero)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})t^" + str(tuple(int(x) for x in deg))
                          for deg, c in sorted(self.terms.items()))


class GradedAssocAlgebra:
    """The Z^n-graded quantum torus of the quantum matrix q, an n x n matrix
    with q_ii = 1 and q_ij q_ji = 1: t^lam t^mu = tau(lam, mu) t^(lam+mu)
    with tau(lam, mu) = prod_(i > j) q_ij^(lam_i mu_j).  A group algebra is
    q = 1.  The optional support restriction "nonneg" gives polynomial
    (rather than Laurent) variants, and "zero" the degree-0 part alone; None
    is all of Z^n.
    """

    def __init__(self, n, field, q, support=None):
        if support not in (None, "nonneg", "zero"):
            raise ValueError(f"unknown support {support!r}: expected 'nonneg' or 'zero', "
                             "or none for all of Z^n")
        if len(q) != n:
            raise ValueError(f"the quantum matrix must have n = {n} rows, got {len(q)}")
        validate_quantum_matrix(q, field)
        self.n = n
        self.field = field
        self.support = support
        self.q = q
        self._setup_tau()

    # Construction helpers

    @classmethod
    def group_algebra(cls, n, field=QQ, support=None):
        """K[Z^n] on the support: the quantum torus whose q_ij are all 1."""
        return cls(n, field, [[field.one] * n for _ in range(n)], support)

    @classmethod
    def laurent(cls, field=QQ):
        return cls.group_algebra(1, field)

    @classmethod
    def polynomial(cls, field=QQ):
        return cls.group_algebra(1, field, support="nonneg")

    @classmethod
    def quantum_torus(cls, q, field):
        return cls(len(q), field, q)

    def _setup_tau(self):
        """Read q once as q_ij = z^a_ij c_ij, with z the field's root-of-unity
        generator: -1 over Q, and zeta_N (N even) or -zeta_N (N odd) over
        Q(zeta_N), of order m = lcm(2, N).  a_ij is unique mod m and c_ij is
        a positive rational; a q_ij of no such form keeps a_ij = 0 and
        c_ij = q_ij, which tau multiplies in and centre_lattice refuses.
        tau reads z^e, e = sum a_ij lam_i mu_j, from the m powers of z, and
        only the (i, j) with i > j and a_ij != 0, or c_ij != 1: for q = 1
        there is none, and tau is field.one itself."""
        field = self.field
        if isinstance(field, CycloField):
            z = field.zeta() if field.order % 2 == 0 else -field.zeta()
            m = math.lcm(2, field.order)
        else:
            z, m = -field.one, 2
        powers = [field.one]
        for _ in range(m - 1):
            powers.append(powers[-1] * z)
        log = {p: a for a, p in enumerate(powers)}
        split = [[_split(x, powers, log) for x in row] for row in self.q]
        self._tau_m = m
        self._tau_powers = powers
        self._tau_split = split
        self._tau_terms = [(i, j, a) for i, row in enumerate(split)
                           for j, (a, _) in enumerate(row[:i]) if a]
        self._tau_scales = [(i, j, c) for i, row in enumerate(split)
                            for j, (_, c) in enumerate(row[:i]) if c != 1]

    def in_support(self, deg) -> bool:
        if self.support == "nonneg":
            return all(x >= 0 for x in deg)
        if self.support == "zero":
            return not any(deg)
        return True

    def zero(self):
        return AlgElement._zero_free(self, {})

    def one(self):
        return AlgElement._zero_free(self, {(0,) * self.n: self.field.one})

    def monomial(self, deg, coeff=None):
        deg = tuple(int(x) for x in deg)
        if not self.in_support(deg):
            raise ValueError(f"degree {deg} outside the support")
        if coeff is None:
            coeff = self.field.one
        return AlgElement(self, {deg: coeff})

    def gen(self, i):
        """t_i."""
        return self.monomial(tuple(1 if j == i else 0 for j in range(self.n)))

    def tau(self, lam, mu):
        """2-cocycle factor for t^lam t^mu: z^e times the c_ij^(lam_i mu_j)."""
        e = 0
        for i, j, a in self._tau_terms:
            e += a * lam[i] * mu[j]
        out = self._tau_powers[e % self._tau_m]
        for i, j, c in self._tau_scales:
            k = lam[i] * mu[j]
            if k:
                out = out * _power(self.field, c, k)
        return out

    def mul(self, x: AlgElement, y: AlgElement) -> AlgElement:
        out = {}
        one = self.field.one
        # Z^n is closed under +, so only a bounded support is tested.
        bounded = self.support is not None
        for dl, cl in x.terms.items():
            for dm, cm in y.terms.items():
                deg = tuple(map(add, dl, dm))
                if bounded and not self.in_support(deg):
                    raise ArithmeticError(f"product leaves the support at degree {deg}")
                c = cl * cm
                t = self.tau(dl, dm)
                if t is not one:
                    c = c * t
                cur = out.get(deg)
                s = c if cur is None else cur + c
                if s:
                    out[deg] = s
                elif cur is not None:
                    del out[deg]
        return AlgElement._zero_free(self, out)

    def basis_of_degree(self, deg):
        """[t^deg] on the support, else []: A^deg = K t^deg."""
        deg = tuple(deg)
        return [self.monomial(deg)] if self.in_support(deg) else []

    def try_invert(self, x: AlgElement):
        """Inverse of a homogeneous x, or None; None also for x of several
        degrees.  The inverse of c t^lam is c^-1 tau(lam, -lam)^-1 t^-lam."""
        if len(x.terms) != 1:
            return None
        (lam, c), = x.terms.items()
        neg = tuple(-d for d in lam)
        if not self.in_support(neg):
            return None
        inv = self.field.inverse
        return self.monomial(neg, inv(c) * inv(self.tau(lam, neg)))

    @memo
    def unit_of_degree(self, deg):
        """A unit of A^deg, or None when A^deg holds no unit: A^deg = K t^deg,
        and t^deg is a unit exactly when deg and -deg are both in the
        support."""
        if not (self.in_support(deg) and self.in_support(tuple(-d for d in deg))):
            return None
        return self.monomial(deg)

    def commutator_component(self, deg):
        """Basis of [A,A]^deg: t^deg off the centre lattice Rad(q), else
        nothing.  On Rad(q) every t^mu t^nu of degree deg equals t^nu t^mu;
        off it some q(e_i, deg) != 1, and [t^(e_i), t^(deg - e_i)] is a
        nonzero multiple of t^deg."""
        deg = tuple(deg)
        if not self.in_support(deg) or deg in self.centre_lattice():
            return []
        return [self.monomial(deg)]

    @memo
    def centre_lattice(self) -> LatticeSubset:
        """Gamma = {gamma : prod_j q_ij^gamma_j = 1 for all i}.  With
        q_ij = z^a_ij c_ij the product is a root of unity times a positive
        rational, so it is 1 exactly when sum_j a_ij gamma_j = 0 mod m and,
        for each prime p of the c_ij, sum_j v_p(c_ij) gamma_j = 0."""
        n = self.n
        primes = {}
        for i, row in enumerate(self._tau_split):
            for j, (_, c) in enumerate(row):
                if isinstance(c, Cyclo):
                    raise ValueError(
                        f"q_{i}{j} = {c!r} is no root of unity times a rational in "
                        f"{self.field.name}; the centre lattice is decided for q_ij of "
                        f"that form")
                for p, e in _factor_rational(c).items():
                    primes.setdefault((i, p), [0] * n)[j] = e
        rows = [[a for a, _ in row] for row in self._tau_split] + list(primes.values())
        moduli = [self._tau_m] * n + [0] * len(primes)
        return LatticeSubset(n, lattice_from_congruences(rows, moduli, n))


def _split(x, powers, log):
    """(a, c) with x = z^a c for z = powers[1] and c a positive rational, or
    (0, x) when there is none: a root of unity is read off log, a rational
    off its sign, and anything else is tried against the m powers of z."""
    a = log.get(x)
    if a is not None:
        return a, 1
    m = len(powers)
    if not isinstance(x, Cyclo):
        return (0, x) if x > 0 else (m // 2, -x)
    for a in range(1, m):
        c = x * powers[m - a]
        if not isinstance(c, Cyclo) and c > 0:
            return a, c
    return 0, x


def _power(field, x, e: int):
    """x ** e, exact also for e < 0 (an int x ** -k would be a float)."""
    return x ** e if e >= 0 else field.inverse(x) ** -e


def _factor_rational(v) -> dict:
    """The prime exponents of a positive rational v."""
    out = {}
    for m, s in ((v.numerator, 1), (v.denominator, -1)):
        p = 2
        while p * p <= m:
            while m % p == 0:
                out[p] = out.get(p, 0) + s
                m //= p
            p += 1
        if m > 1:
            out[m] = out.get(m, 0) + s
    return out


def validate_quantum_matrix(q, field):
    """Refuse a q that is not a square matrix with q_ii = 1 and
    q_ij q_ji = 1."""
    n = len(q)
    if any(len(row) != n for row in q):
        raise ValueError(f"the quantum matrix must be {n} x {n}, got rows of lengths "
                         f"{[len(row) for row in q]}")
    for i in range(n):
        if q[i][i] != field.one:
            raise ValueError(f"q_{i}{i} must be 1")
        for j in range(n):
            if q[i][j] * q[j][i] != field.one:
                raise ValueError(f"q_{i}{j} q_{j}{i} must be 1")


class GradedForm:
    """(a | b) = phi (ab)^0 for a scalar phi.  It is invariant, as
    [A,A]^0 = 0: the degree 0 is in the centre lattice."""

    def __init__(self, A: GradedAssocAlgebra, phi):
        self.A = A
        self.phi = phi

    def pair(self, a: AlgElement, b: AlgElement):
        c = (a * b).coefficient((0,) * self.A.n)
        return c * self.phi if c and self.phi else self.A.field.zero


def graded_form(A: GradedAssocAlgebra, phi) -> GradedForm:
    return GradedForm(A, phi)


class CentroidalDerivation:
    """d_theta with theta(lam) = (v . lam) t^gamma, a hom into (Cent A)^gamma."""

    def __init__(self, A: GradedAssocAlgebra, v, gamma=None):
        self.A = A
        self.v = list(v)
        self.gamma = tuple(gamma) if gamma is not None else (0,) * A.n
        if any(self.gamma):
            if not A.in_support(self.gamma):
                raise ValueError(f"degree {self.gamma} is off the support of A")
            if self.gamma not in A.centre_lattice():
                raise ValueError(f"degree {self.gamma} is not central")

    def theta(self, lam):
        s = self.A.field.zero
        for a, b in zip(self.v, lam):
            if a and b:
                s = s + a * b
        return s

    def apply(self, x: AlgElement) -> AlgElement:
        if not any(self.gamma):
            # degree-0 derivations just rescale each term
            terms = {}
            for deg, c in x.terms.items():
                w = self.theta(deg)
                if w:
                    terms[deg] = c * w
            return AlgElement(self.A, terms)
        out = self.A.zero()
        for deg, c in x.terms.items():
            w = self.theta(deg)
            if w:
                out = out + self.A.mul(self.A.monomial(self.gamma, w),
                                       AlgElement(self.A, {deg: c}))
        return out

    def __repr__(self):
        return f"d(theta={frac_to_str(self.v)}, deg={self.gamma})"


def cder_bracket(d1: CentroidalDerivation, d2: CentroidalDerivation) -> CentroidalDerivation:
    """[d_theta, d_psi] = theta(mu) d_psi - psi(lam) d_theta in degree lam+mu."""
    A = d1.A
    c1 = d1.theta(d2.gamma) * A.tau(d1.gamma, d2.gamma)
    c2 = d2.theta(d1.gamma) * A.tau(d2.gamma, d1.gamma)
    v = [c1 * w - c2 * u for u, w in zip(d1.v, d2.v)]
    return CentroidalDerivation(A, v, tuple(a + b for a, b in zip(d1.gamma, d2.gamma)))


def degree_derivations(A: GradedAssocAlgebra):
    """The standard basis d_1 .. d_n of degree-0 degree derivations."""
    out = []
    for i in range(A.n):
        v = [A.field.zero] * A.n
        v[i] = A.field.one
        out.append(CentroidalDerivation(A, v))
    return out


def skew_centroidal_space(A: GradedAssocAlgebra, deg):
    """Basis of (SCDer A)^deg = {d_theta in (CDer A)^deg : theta(deg) = 0}."""
    deg = tuple(deg)
    if any(deg):
        if not (A.in_support(deg) and deg in A.centre_lattice()):
            return []
        sols = kernel([[A.field.from_int(x) for x in deg]], A.field, A.n)
        return [CentroidalDerivation(A, v, deg) for v in sols]
    return degree_derivations(A)

"""Z^n-graded unital associative algebras: quantum tori (a group algebra is
the quantum torus with q = 1) and crossed products, with their centre
lattices, graded invariant forms and centroidal derivations.

Elements are finite sums of (lattice degree, basis symbol) terms with exact
scalar coefficients, so arithmetic is unbounded while structural checks run
on explicit windows.
"""

from __future__ import annotations

import functools
import math
from operator import add

from .lattices import LatticeSubset, box, lattice_from_congruences
from .linalg import independent_rows, integer_kernel, kernel, mat_vec, solve
from .scalars import Cyclo, CycloField, QQ, frac_to_str


class FiniteDimAlgebra:
    """Unital associative algebra by structure constants over an exact field."""

    def __init__(self, field, dim, table, unit):
        self.field = field
        self.dim = dim
        self.table = table  # table[i][j] = coordinate vector of b_i b_j
        self.unit = list(unit)

    @classmethod
    def field_algebra(cls, field):
        return cls(field, 1, [[[field.one]]], [field.one])

    def mul_vec(self, x, y):
        out = [self.field.zero] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = xi * yj
                for k, t in enumerate(self.table[i][j]):
                    if t:
                        out[k] = out[k] + c * t
        return out


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


class AlgElement:
    """Finite sum of (degree, symbol) terms with scalar coefficients.

    No stored coefficient is zero, so == and bool read the terms literally.
    The public constructor drops zero coefficients; the arithmetic builds
    zero-free dicts and wraps them with _zero_free.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms=None):
        self.algebra = algebra
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def _zero_free(cls, algebra, terms):
        """The element with exactly these terms, none of them zero."""
        x = cls.__new__(cls)
        x.algebra = algebra
        x.terms = terms
        return x

    def __add__(self, other):
        self._check(other)
        return AlgElement._zero_free(self.algebra, add_terms(self.terms, other.terms))

    def __sub__(self, other):
        self._check(other)
        return AlgElement._zero_free(self.algebra, sub_terms(self.terms, other.terms))

    def __neg__(self):
        return AlgElement._zero_free(self.algebra, {k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, AlgElement):
            self._check(other)
            return self.algebra.mul(self, other)
        if not other:
            return AlgElement._zero_free(self.algebra, {})
        return AlgElement._zero_free(self.algebra, {k: v * other for k, v in self.terms.items()})

    def __rmul__(self, other):
        if not other:
            return AlgElement._zero_free(self.algebra, {})
        return AlgElement._zero_free(self.algebra, {k: other * v for k, v in self.terms.items()})

    def _check(self, other):
        if other.algebra is not self.algebra:
            raise ValueError("elements belong to different algebras")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, AlgElement):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.algebra), frozenset(self.terms.items())))

    def degrees(self):
        return sorted({k[0] for k in self.terms})

    def component(self, deg):
        deg = tuple(deg)
        return AlgElement(self.algebra, {k: v for k, v in self.terms.items() if k[0] == deg})

    def coefficient(self, deg, sym=0):
        return self.terms.get((tuple(deg), sym), self.algebra.field.zero)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (deg, sym), c in sorted(self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1])):
            t = "t^" + str(tuple(int(x) for x in deg))
            if self.algebra.bdim > 1:
                t += f"*b{sym}"
            bits.append(f"({c})" + t)
        return " + ".join(bits)


class GradedAssocAlgebra:
    """Z^n-graded unital associative algebra.

    kind is "qtorus", a quantum torus with quantum matrix q (a group algebra
    is q = 1), or "crossed".  The optional support restriction "nonneg"
    gives polynomial (rather than Laurent) variants, and "zero" the
    degree-0 part alone; None is all of Z^n.
    """

    def __init__(self, kind, n, field, q=None, B=None, tau=None, sigma=None, support=None):
        if support not in (None, "nonneg", "zero"):
            raise ValueError(f"unknown support {support!r}: expected 'nonneg' or 'zero', "
                             "or none for all of Z^n")
        self.kind = kind
        self.n = n
        self.field = field
        self.support = support
        self.q = q
        if kind == "qtorus":
            if q is None:
                raise ValueError("quantum torus needs a quantum matrix")
            validate_quantum_matrix(q, field)
            self.B = FiniteDimAlgebra.field_algebra(field)
            self._setup_tau()
        elif kind == "crossed":
            if B is None or tau is None or sigma is None:
                raise ValueError("crossed product needs (B, tau, sigma)")
            self.B = B
            self._tau_fn = tau
            self._sigma_fn = sigma
        else:
            raise ValueError(f"unknown algebra kind {kind!r}")
        self.bdim = self.B.dim

    # Construction helpers

    @classmethod
    def group_algebra(cls, n, field=QQ, support=None):
        """K[Z^n] on the support: the quantum torus whose q_ij are all 1."""
        return cls("qtorus", n, field, q=[[field.one] * n for _ in range(n)], support=support)

    @classmethod
    def laurent(cls, field=QQ):
        return cls.group_algebra(1, field)

    @classmethod
    def polynomial(cls, field=QQ):
        return cls.group_algebra(1, field, support="nonneg")

    @classmethod
    def quantum_torus(cls, q, field):
        return cls("qtorus", len(q), field, q=q)

    def _setup_tau(self):
        """Table mode when every q_ij is a root of unity.  Those of Q are +-1,
        and those of Q(zeta_N) are the powers of z = zeta_N (N even) or
        -zeta_N (N odd), of order m = lcm(2, N).  With q_ij = z^a_ij, tau is
        z^e for e = sum a_ij lam_i mu_j, read from the m powers of z and
        summed over the (i, j, a_ij) with i > j and a_ij != 0 alone: for
        q = 1 there is none, and tau is field.one itself.  Any other q keeps
        the direct product."""
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
        amat = [[log.get(x) for x in row] for row in self.q]
        self._tau_mode = "direct"
        if all(a is not None for row in amat for a in row):
            self._tau_mode = "table"
            self._tau_m = m
            self._tau_powers = powers
            self._tau_amat = amat
            self._tau_terms = [(i, j, a) for i, row in enumerate(amat)
                               for j, a in enumerate(row[:i]) if a]

    def in_support(self, deg) -> bool:
        if self.support == "nonneg":
            return all(x >= 0 for x in deg)
        if self.support == "zero":
            return not any(deg)
        return True

    def zero(self):
        return AlgElement._zero_free(self, {})

    def one(self):
        z = (0,) * self.n
        if self.bdim == 1:
            return AlgElement(self, {(z, 0): self.field.one})
        return AlgElement(self, {(z, i): c for i, c in enumerate(self.B.unit) if c})

    def monomial(self, deg, coeff=None, sym=0):
        deg = tuple(int(x) for x in deg)
        if not self.in_support(deg):
            raise ValueError(f"degree {deg} outside the support")
        if coeff is None:
            coeff = self.field.one
        return AlgElement(self, {(deg, sym): coeff})

    def gen(self, i):
        """t_i."""
        return self.monomial(tuple(1 if j == i else 0 for j in range(self.n)))

    def tau(self, lam, mu):
        """2-cocycle factor for t^lam t^mu."""
        if self._tau_mode == "table":
            e = 0
            for i, j, a in self._tau_terms:
                e += a * lam[i] * mu[j]
            return self._tau_powers[e % self._tau_m]
        out = self.field.one
        for i in range(self.n):
            for j in range(i):
                e = lam[i] * mu[j]
                if e:
                    out = out * _power(self.field, self.q[i][j], e)
        return out

    def mul(self, x: AlgElement, y: AlgElement) -> AlgElement:
        out = {}
        crossed = self.kind == "crossed"
        one = self.field.one
        # Z^n is closed under +, so only a bounded support is tested.
        bounded = self.support is not None
        for (dl, sl), cl in x.terms.items():
            for (dm, sm), cm in y.terms.items():
                deg = tuple(map(add, dl, dm))
                if bounded and not self.in_support(deg):
                    raise ArithmeticError(f"product leaves the support at degree {deg}")
                if not crossed:
                    c = cl * cm
                    t = self.tau(dl, dm)
                    if t is not one:
                        c = c * t
                    key = (deg, 0)
                    cur = out.get(key)
                    s = c if cur is None else cur + c
                    if s:
                        out[key] = s
                    elif cur is not None:
                        del out[key]
                else:
                    bvec = [self.field.zero] * self.bdim
                    bvec[sm] = self.field.one
                    moved = mat_vec(self._sigma_fn(dl), bvec, self.field)
                    left = [self.field.zero] * self.bdim
                    left[sl] = cl
                    prod = self.B.mul_vec(left, moved)
                    prod = self.B.mul_vec(prod, self._tau_fn(dl, dm))
                    for k, v in enumerate(prod):
                        if v:
                            key = (deg, k)
                            out[key] = out.get(key, self.field.zero) + cm * v
        return AlgElement(self, out) if crossed else AlgElement._zero_free(self, out)

    def basis_of_degree(self, deg):
        deg = tuple(deg)
        if not self.in_support(deg):
            return []
        return [self.monomial(deg, sym=k) for k in range(self.bdim)]

    def try_invert(self, x: AlgElement):
        """Inverse of a homogeneous x, or None; None also for x of several
        degrees.  The inverse of a unit of degree lam has degree -lam."""
        degs = x.degrees()
        if len(degs) != 1:
            return None
        lam = degs[0]
        neg = tuple(-d for d in lam)
        if not self.in_support(neg):
            return None
        if self.kind == "crossed":
            # x y = 1 is linear in y over the bdim coordinates of A^(-lam); a
            # right inverse that is also a left inverse is the inverse.
            zero = (0,) * self.n
            cols = [self.mul(x, self.monomial(neg, sym=k)) for k in range(self.bdim)]
            m = [[c.coefficient(zero, i) for c in cols] for i in range(self.bdim)]
            sol = solve(m, self.B.unit, self.field)
            if sol is None:
                return None
            y = AlgElement(self, {(neg, k): v for k, v in enumerate(sol) if v})
            return y if self.mul(y, x) == self.one() else None
        ((_, _), c), = x.terms.items()
        inv = self.field.inverse
        return self.monomial(neg, inv(c) * inv(self.tau(lam, neg)))

    @memo
    def unit_of_degree(self, deg):
        """A unit of A^deg, or None when A^deg holds no unit.

        A quantum torus (a group algebra is q = 1) has A^deg = F t^deg, and
        t^deg is a unit exactly when deg and -deg are both in the support.

        A crossed product B * Z^n multiplies by
        (b t^lam)(c t^mu) = b sigma_lam(c) tau(lam, mu) t^(lam+mu).  The
        candidate 1_B t^lam decides the degree.  If some u = b t^lam is a
        unit, its inverse is some c t^-lam, so b sigma_lam(c) tau(lam, -lam)
        = 1 and c sigma_-lam(b) tau(-lam, lam) = 1: both tau values have a
        left inverse in the finite-dimensional B, hence are units, and then
        1_B t^lam has the right inverse sigma_lam^-1(tau(lam, -lam)^-1) t^-lam
        and the left inverse tau(-lam, lam)^-1 t^-lam.  So A^lam has a unit
        iff 1_B t^lam is one.  Given a unit u of A^lam, x -> x u^-1 maps
        A^lam onto A^0 and x is a unit iff x u^-1 is: A^lam = A^0 u, and
        b u is a unit iff b is.
        """
        if not (self.in_support(deg) and self.in_support(tuple(-d for d in deg))):
            return None
        if self.kind != "crossed":
            return self.monomial(deg)
        t = AlgElement(self, {(deg, k): c for k, c in enumerate(self.B.unit)})
        return t if self.try_invert(t) is not None else None

    @memo
    def commutator_component(self, deg, window: int):
        """Basis of [A,A]^deg, computed on the window for crossed products."""
        if self.kind == "qtorus":
            if deg in self.centre_lattice():
                return []
            return [self.monomial(deg)] if self.in_support(deg) else []
        vecs = []
        for dl in box(self.n, window):
            dm = tuple(d - l for d, l in zip(deg, dl))
            if self.n and max(abs(x) for x in dm) > window:
                continue
            for a in self.basis_of_degree(dl):
                for b in self.basis_of_degree(dm):
                    c = a * b - b * a
                    if c:
                        vecs.append([c.coefficient(deg, k) for k in range(self.bdim)])
        basis_rows = independent_rows(vecs, self.field)
        out = []
        for row in basis_rows:
            out.append(AlgElement(self, {(deg, k): v for k, v in enumerate(row) if v}))
        return out

    @memo
    def centre_lattice(self) -> LatticeSubset:
        """Gamma = {gamma : prod_j q_ij^gamma_j = 1 for all i} for a torus."""
        if self.kind != "qtorus":
            raise ValueError("centre lattice is defined for quantum tori")
        if self._tau_mode == "table":
            return LatticeSubset(self.n, lattice_from_congruences(self._tau_amat, self._tau_m,
                                                                  self.n))
        # Non-torsion rational parameters: multiplicative order lattice via
        # prime factorization and the sign character.
        primes = set()
        facts = {}
        for i in range(self.n):
            for j in range(self.n):
                v = self.q[i][j]
                if isinstance(v, Cyclo):
                    raise ValueError(
                        f"q_{i}{j} = {v!r} is neither rational nor a root of unity in "
                        f"{self.field.name}; the centre lattice is decided for rational "
                        f"and root-of-unity q_ij")
                f = _factor_rational(v)
                facts[(i, j)] = f
                primes.update(f[1])
        primes = sorted(primes)
        exp_rows = []
        sign_rows = []
        for i in range(self.n):
            row = {p: [0] * self.n for p in primes}
            srow = [0] * self.n
            for j in range(self.n):
                sgn, f = facts[(i, j)]
                srow[j] = 1 if sgn < 0 else 0
                for p, e in f.items():
                    row[p][j] = e
            exp_rows.extend(row[p] for p in primes)
            sign_rows.append(srow)
        ker = integer_kernel(exp_rows, self.n) if exp_rows else [
            [1 if i == j else 0 for j in range(self.n)] for i in range(self.n)
        ]
        if not ker:
            return LatticeSubset(self.n, [])
        # Impose the sign congruences inside the kernel lattice.
        cond = [[sum(s[j] * k[j] for j in range(self.n)) for k in ker] for s in sign_rows]
        coeff_basis = lattice_from_congruences(cond, 2, len(ker))
        rows = []
        for cv in coeff_basis:
            rows.append([sum(cv[t] * ker[t][j] for t in range(len(ker))) for j in range(self.n)])
        return LatticeSubset(self.n, rows)


def _power(field, x, e: int):
    """x ** e, exact also for e < 0 (an int x ** -k would be a float)."""
    return x ** e if e >= 0 else field.inverse(x) ** -e


def _factor_rational(v):
    if v == 0:
        raise ValueError("quantum parameters must be nonzero")
    sign = -1 if v < 0 else 1
    out = {}
    for value, s in ((abs(v.numerator), 1), (v.denominator, -1)):
        m = value
        p = 2
        while p * p <= m:
            while m % p == 0:
                out[p] = out.get(p, 0) + s
                m //= p
            p += 1
        if m > 1:
            out[m] = out.get(m, 0) + s
    return sign, out


def validate_quantum_matrix(q, field):
    n = len(q)
    for i in range(n):
        if q[i][i] != field.one:
            raise ValueError(f"q_{i}{i} must be 1")
        for j in range(n):
            if q[i][j] * q[j][i] != field.one:
                raise ValueError(f"q_{i}{j} q_{j}{i} must be 1")


class GradedForm:
    """(a | b) = phi((ab)^0) for a functional phi on A^0 killing [A,A]^0."""

    def __init__(self, A: GradedAssocAlgebra, phi, window: int = 3):
        self.A = A
        if not isinstance(phi, (list, tuple)):
            phi = [phi] + [A.field.zero] * (A.bdim - 1)
        self.phi = list(phi)
        for c in self.A.commutator_component((0,) * A.n, window):
            if self._apply_phi(c):
                raise ValueError("phi does not vanish on [A,A]^0")

    def _apply_phi(self, x: AlgElement):
        z = (0,) * self.A.n
        out = self.A.field.zero
        for k in range(self.A.bdim):
            c = x.coefficient(z, k)
            if c and self.phi[k]:
                out = out + c * self.phi[k]
        return out

    def pair(self, a: AlgElement, b: AlgElement):
        return self._apply_phi(a * b)


def graded_form(A: GradedAssocAlgebra, phi, window: int = 3) -> GradedForm:
    return GradedForm(A, phi, window)


class CentroidalDerivation:
    """d_theta with theta(lam) = (v . lam) t^gamma, a hom into (Cent A)^gamma."""

    def __init__(self, A: GradedAssocAlgebra, v, gamma=None):
        self.A = A
        self.v = list(v)
        self.gamma = tuple(gamma) if gamma is not None else (0,) * A.n
        if any(self.gamma) and self.A.kind == "qtorus":
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
            for (deg, sym), c in x.terms.items():
                w = self.theta(deg)
                if w:
                    terms[(deg, sym)] = c * w
            return AlgElement(self.A, terms)
        out = self.A.zero()
        for (deg, sym), c in x.terms.items():
            w = self.theta(deg)
            if w:
                out = out + self.A.mul(
                    self.A.monomial(self.gamma, w), AlgElement(self.A, {(deg, sym): c})
                )
        return out

    def __repr__(self):
        return f"d(theta={frac_to_str(self.v)}, deg={self.gamma})"


def cder_bracket(d1: CentroidalDerivation, d2: CentroidalDerivation) -> CentroidalDerivation:
    """[d_theta, d_psi] = theta(mu) d_psi - psi(lam) d_theta in degree lam+mu."""
    A = d1.A
    if A.kind == "crossed":
        raise ValueError("cder_bracket needs a quantum torus, not a crossed product")
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
        if A.kind == "qtorus" and not (A.in_support(deg) and deg in A.centre_lattice()):
            return []
        sols = kernel([[A.field.from_int(x) for x in deg]], A.field, A.n)
        return [CentroidalDerivation(A, v, deg) for v in sols]
    return degree_derivations(A)

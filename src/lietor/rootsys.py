"""Root sets with coroots, and finite root systems with exact coordinates.

A PreReflectionSystem is a root set with a coroot map; a RootSystem is one
whose coroots come from its form, alpha_check = 2 (alpha | .) / (alpha | alpha),
computed in integers.  Each root set owns one IntegerRoots, built once and
read by every root-level check.  0 is always stored as a root.
Classical families use their standard coordinate lists; type A_n lives in
Q^(n+1) and spans the sum-zero hyperplane.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, neg, not_, or_, sub
from types import MappingProxyType

from .linalg import independent_rows, inverse, mat_mul, rref
from .scalars import QQ

FAMILIES = ("A", "B", "C", "D", "BC", "E6", "E7", "E8", "F4", "G2")


def _unit(n, i):
    return tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c, a):
    return tuple(Fraction(c) * x for x in a)


def vec_is_zero(a):
    return not any(a)


@dataclass(frozen=True)
class RootSpace:
    dim: int
    form: tuple  # rows of the symmetric bilinear form

    def pair(self, x, y) -> Fraction:
        total = Fraction(0)
        for i, xi in enumerate(x):
            if xi:
                row = self.form[i]
                for j, yj in enumerate(y):
                    if yj and row[j]:
                        total += xi * row[j] * yj
        return total


def _identity_form(n):
    return tuple(tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n))


@dataclass
class TypeLabel:
    components: list  # list of (family, rank) pairs

    @property
    def family(self):
        if len(self.components) != 1:
            raise ValueError("reducible system has no single family")
        return self.components[0][0]

    @property
    def rank(self):
        if len(self.components) != 1:
            raise ValueError("reducible system has no single rank")
        return self.components[0][1]

    def __str__(self):
        return " x ".join(
            f if f in ("E6", "E7", "E8", "F4", "G2") else f"{f}{r}"
            for f, r in self.components
        )


class PreReflectionSystem:
    """A finite root set with a coroot map, read-only once built.

    Real roots are exactly those with nonzero coroot; the reflection is
    always s_alpha(x) = x - <x, alpha_check> alpha.  The checks read the
    root set through `model`, its IntegerRoots, built on first use and then
    kept: the roots are a frozenset and the coroots a read-only copy.
    """

    def __init__(self, dim: int, roots, coroots):
        self.dim = dim
        self.roots = frozenset(tuple(r) for r in roots)
        self.coroots = MappingProxyType({tuple(k): tuple(v) for k, v in coroots.items()})
        missing = [r for r in self.roots if r not in self.coroots]
        if missing:
            raise ValueError(f"coroot missing for {missing[0]}")

    @classmethod
    def from_root_system(cls, rs: "RootSystem") -> "PreReflectionSystem":
        """The pre-reflection system of rs, sharing its coroots and model."""
        prs = cls.__new__(cls)
        prs.dim, prs.roots, prs.coroots, prs.model = rs.dim, rs.roots, rs.coroots, rs.model
        return prs

    @functools.cached_property
    def model(self) -> "IntegerRoots":
        return IntegerRoots(self.roots, self.coroots)


def integer_form(form):
    """The form rescaled to an integer matrix: the rows of s * form for the
    least s > 0 that clears every denominator."""
    form = [[Fraction(x) for x in row] for row in form]
    scale = math.lcm(*(x.denominator for row in form for x in row))
    return [[int(x * scale) for x in row] for row in form]


def _form_coroots(roots, form):
    """alpha_check = 2 F alpha / (alpha | alpha) for each root, in integers:
    with ia = dr alpha for the lcm dr of the root denominators and F the
    form rescaled to integers, it is 2 dr F ia / (ia . F ia)."""
    f_int = integer_form(form)
    dr = math.lcm(*(x.denominator for a in roots for x in a))
    out = {}
    for a in roots:
        ia = [x.numerator * (dr // x.denominator) for x in a]
        fa = [sum(map(mul, row, ia)) for row in f_int]
        norm = sum(map(mul, ia, fa))
        if not norm and any(a):
            raise ValueError(f"isotropic nonzero root {a} under the given form")
        out[a] = tuple(Fraction(2 * dr * x, norm or 1) for x in fa)  # fa = 0 at a = 0
    return out


class RootSystem(PreReflectionSystem):
    """A finite set of vectors containing 0, closed under its reflections,
    with the coroots of its form unless they are given."""

    def __init__(self, space: RootSpace, roots, coroots=None, label=None):
        self.space = space
        self.label = label
        roots = frozenset(tuple(r) for r in roots)
        if (Fraction(0),) * space.dim not in roots:
            raise ValueError("0 must be a root")
        if coroots is None:
            coroots = _form_coroots(roots, space.form)
        super().__init__(space.dim, roots, coroots)

    def nonzero_roots(self):
        return [a for a in self.roots if any(a)]

    def pairing(self, beta, alpha) -> Fraction:
        """<beta, alpha_check>."""
        return sum((b * c for b, c in zip(beta, self.coroots[alpha]) if b and c), Fraction(0))

    def sorted_roots(self):
        return sorted(self.roots)


# How far past each end of a string root_strings_exhaustive looks for a root.
_STRING_PROBE = 3


class IntegerRoots:
    """Roots and coroots rescaled to integer tuples, for the root-level checks.

    Roots are multiplied by the lcm of their coordinate denominators
    (root_scale) and coroots by the lcm of theirs (coroot_scale); den is
    the product of the two, so <b, a_check> is an integer dot product
    divided by den.  Built from a root set and a coroot map, both with
    Fraction coordinates, once per root set: see PreReflectionSystem.model.

    The checks read one row at a time: row(v) lists the integers b . v and
    corow(v) the integers v . b_check for the roots b of `order` (the real
    roots sorted, then the imaginary ones sorted), so row(cor[a]) is
    den <b, a_check> and corow(a) is den <a, b_check>.  A vector v of the
    box [-H, H]^dim is looked up by its key, key(v) = sum v_i B^i with
    B = 2H + 1.  The key is linear, and injective on the box: two vectors
    of the box differ by at most B - 1 = 2H in each coordinate, so equal
    keys force equal coordinates, the lowest first.  With M and Mc the
    largest root and coroot coordinates, K = max(M, Mc) and
    |den <b, a_check>| <= dim M Mc, H is the larger of
    (1 + _STRING_PROBE) M, which holds every b + k a that the string walk
    looks up (|k| <= _STRING_PROBE), and den K + dim M Mc K, which holds
    den s_a(b) = den b - den <b, a_check> a and den times the coroot
    b_check - <a, b_check> a_check that ReS4 compares.
    """

    def __init__(self, roots, coroots):
        roots = list(roots)
        cors = [coroots[a] for a in roots]
        self.root_scale = dr = math.lcm(*(x.denominator for a in roots for x in a))
        self.coroot_scale = dc = math.lcm(*(x.denominator for c in cors for x in c))
        self.den = den = dr * dc
        self.orig = {}  # scaled root -> root in the original coordinates
        self.cor = {}   # scaled root -> scaled coroot
        for a, c in zip(roots, cors):
            ia = tuple(x.numerator * (dr // x.denominator) for x in a)
            self.orig[ia] = a
            self.cor[ia] = tuple(x.numerator * (dc // x.denominator) for x in c)
        self.roots = set(self.orig)
        self.real = {a for a, c in self.cor.items() if any(c)}
        self.imag = self.roots - self.real
        self.order = sorted(self.real) + sorted(self.imag)
        self.n_real = len(self.real)
        self.index = {a: i for i, a in enumerate(self.order)}
        dim = len(self.order[0]) if self.order else 0
        m = max((abs(x) for a in self.order for x in a), default=0)
        mc = max((abs(x) for c in self.cor.values() for x in c), default=0)
        k = max(m, mc)
        h = max((1 + _STRING_PROBE) * m, den * k + dim * m * mc * k, 1)
        self.base = 2 * h + 1
        self._powers = [self.base ** i for i in range(dim)]
        self.keys = [self.key(a) for a in self.order]
        self.slot = {kb: i for i, kb in enumerate(self.keys)}  # key -> position
        self._den_keys = [den * kb for kb in self.keys]
        self._den_slot = {kb: i for i, kb in enumerate(self._den_keys)}
        self._cols = list(zip(*self.order))
        self._cocols = list(zip(*(self.cor[a] for a in self.order)))

    def key(self, v):
        """sum v_i B^i: linear, and injective on the box [-H, H]^dim."""
        return sum(map(mul, v, self._powers))

    def row(self, v):
        """[b . v for b in order], one pass per nonzero coordinate of v."""
        return self._combine(self._cols, v)

    def corow(self, v):
        """[v . b_check for b in order], one pass per nonzero coordinate of v."""
        return self._combine(self._cocols, v)

    def _combine(self, cols, v):
        out = None
        for c, col in zip(v, cols):
            if c:
                part = col if c == 1 else map(neg, col) if c == -1 else map(c.__mul__, col)
                out = list(part) if out is None else list(map(add, out, part))
        return out if out is not None else [0] * len(self.order)

    def root_gram(self):
        """R^T R for the matrix R whose rows are the roots: a dim x dim
        integer matrix with the rank and the kernel of R."""
        return [[sum(map(mul, ci, cj)) for cj in self._cols] for ci in self._cols]

    def coroot_gram(self):
        """C^T C for the matrix C whose rows are the coroots: a dim x dim
        integer matrix with the rank and the kernel of C."""
        return [[sum(map(mul, ci, cj)) for cj in self._cocols] for ci in self._cocols]

    def images(self, a, row):
        """[position of s_a(b) in order, or None for b in order], given
        row = row(cor[a]): den s_a(b) has the key den key(b) - row_b key(a),
        so a fractional image is no root on the same path."""
        ka = self.key(a)
        return list(map(self._den_slot.get, map(sub, self._den_keys, map(ka.__mul__, row))))

    def exact(self, dot):
        """dot / den: an int when exact, a Fraction otherwise."""
        q, r = divmod(dot, self.den)
        return Fraction(dot, self.den) if r else q

    def pairing(self, b, a):
        """<b, a_check>: an int when exact, a Fraction otherwise."""
        return self.exact(sum(map(mul, b, self.cor[a])))

    def reflect(self, a, b):
        """s_a(b) = b - <b, a_check> a, or None when that has a fractional
        coordinate: such an image is in no root set."""
        dot = sum(map(mul, b, self.cor[a]))
        c, r = divmod(dot, self.den)
        if not r:
            return tuple(x - c * y for x, y in zip(b, a)) if c else b
        den = self.den
        if any(dot * y % den for y in a):
            return None
        return tuple(x - dot * y // den for x, y in zip(b, a))

    def strings(self, a):
        """Each a-string once, as the positions in `order` of [b, b + a, ...]
        from its bottom b (b - a not a root) up; a broken string shows as
        several strings on one line."""
        ka, keys, slot = self.key(a), self.keys, self.slot
        below = map(slot.__contains__, map(ka.__rsub__, keys))  # is b - a a root?
        for i in itertools.compress(range(len(keys)), map(not_, below)):
            string = [i]
            nxt = keys[i] + ka
            while nxt in slot:
                string.append(slot[nxt])
                nxt += ka
            yield string

    def collinear_classes(self):
        """The nonzero real roots grouped by line, each group sorted, groups
        of one left out.  The line of a is a divided by the gcd of its
        coordinates, signed to make the first nonzero coordinate positive."""
        lines = {}
        for a in sorted(self.real):
            if any(a):
                g = math.gcd(*a) if next(x for x in a if x) > 0 else -math.gcd(*a)
                lines.setdefault(tuple(x // g for x in a), []).append(a)
        return [group for group in lines.values() if len(group) > 1]


def build_classical(family: str, n: int) -> RootSystem:
    """Standard coordinate realization of A, B, C, D or BC of rank n."""
    family = family.upper()
    if n < 1:
        raise ValueError("rank must be at least 1")
    if family == "A":
        dim = n + 1
        roots = {(Fraction(0),) * dim}
        for i in range(dim):
            for j in range(dim):
                if i != j:
                    roots.add(vec_sub(_unit(dim, i), _unit(dim, j)))
        return RootSystem(RootSpace(dim, _identity_form(dim)), roots)
    dim = n
    zero = (Fraction(0),) * dim
    short = {vec_scale(s, _unit(dim, i)) for i in range(dim) for s in (1, -1)}
    double = {vec_scale(s, _unit(dim, i)) for i in range(dim) for s in (2, -2)}
    dpart = {zero}
    for i in range(dim):
        for j in range(dim):
            if i < j:
                for si in (1, -1):
                    for sj in (1, -1):
                        dpart.add(vec_add(vec_scale(si, _unit(dim, i)), vec_scale(sj, _unit(dim, j))))
    if family == "B":
        roots = dpart | short
    elif family == "C":
        roots = dpart | double
    elif family == "D":
        if n < 2:
            raise ValueError("type D needs rank >= 2 (D_1 cannot span its space)")
        roots = dpart
    elif family == "BC":
        roots = dpart | short | double
    else:
        raise ValueError(f"unknown classical family {family!r}")
    return RootSystem(RootSpace(dim, _identity_form(dim)), roots)


def build_exceptional(family: str) -> RootSystem:
    family = family.upper()
    if family == "G2":
        dim = 3
        roots = {(Fraction(0),) * dim}
        for i in range(3):
            for j in range(3):
                if i != j:
                    roots.add(vec_sub(_unit(dim, i), _unit(dim, j)))
        for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
            long = vec_sub(vec_scale(2, _unit(dim, i)), vec_add(_unit(dim, j), _unit(dim, k)))
            roots.add(long)
            roots.add(vec_scale(-1, long))
        return RootSystem(RootSpace(dim, _identity_form(dim)), roots)
    if family == "F4":
        dim = 4
        roots = {(Fraction(0),) * dim}
        for i in range(4):
            for s in (1, -1):
                roots.add(vec_scale(s, _unit(dim, i)))
        for i in range(4):
            for j in range(i + 1, 4):
                for si in (1, -1):
                    for sj in (1, -1):
                        roots.add(vec_add(vec_scale(si, _unit(dim, i)), vec_scale(sj, _unit(dim, j))))
        half = Fraction(1, 2)
        for signs in itertools.product((1, -1), repeat=4):
            roots.add(tuple(half * s for s in signs))
        return RootSystem(RootSpace(dim, _identity_form(dim)), roots)
    if family in ("E6", "E7", "E8"):
        dim = 8
        half = Fraction(1, 2)
        roots = {(Fraction(0),) * dim}
        if family == "E8":
            for i in range(8):
                for j in range(i + 1, 8):
                    for si in (1, -1):
                        for sj in (1, -1):
                            roots.add(vec_add(vec_scale(si, _unit(dim, i)), vec_scale(sj, _unit(dim, j))))
            for signs in itertools.product((1, -1), repeat=8):
                if signs.count(-1) % 2 == 0:
                    roots.add(tuple(half * s for s in signs))
        elif family == "E7":
            for i in range(6):
                for j in range(i + 1, 6):
                    for si in (1, -1):
                        for sj in (1, -1):
                            roots.add(vec_add(vec_scale(si, _unit(dim, i)), vec_scale(sj, _unit(dim, j))))
            e78 = vec_sub(_unit(dim, 6), _unit(dim, 7))
            roots.add(e78)
            roots.add(vec_scale(-1, e78))
            for signs in itertools.product((1, -1), repeat=6):
                if signs.count(-1) % 2 == 1:
                    vec = [half * s for s in signs] + [-half, half]
                    roots.add(tuple(vec))
                    roots.add(tuple(-x for x in vec))
        else:  # E6
            for i in range(5):
                for j in range(i + 1, 5):
                    for si in (1, -1):
                        for sj in (1, -1):
                            roots.add(vec_add(vec_scale(si, _unit(dim, i)), vec_scale(sj, _unit(dim, j))))
            for signs in itertools.product((1, -1), repeat=5):
                if signs.count(-1) % 2 == 0:
                    vec = [half * s for s in signs] + [-half, -half, half]
                    roots.add(tuple(vec))
                    roots.add(tuple(-x for x in vec))
        return RootSystem(RootSpace(dim, _identity_form(dim)), roots)
    raise ValueError(f"unknown exceptional family {family!r}")


def root_strings_exhaustive(rs: RootSystem):
    """Check every alpha-string: unbroken and p - q = -<beta, alpha_check>.

    Each alpha-string is walked once on IntegerRoots keys, the pairings
    read off the row of alpha, then the verdicts are read in a fixed order
    of the roots beta.  Returns (ok, max_string_length, witness), the
    length being the largest read before a failure.
    """
    m = rs.model
    den, keys, slot = m.den, m.keys, m.slot
    reading = [m.index[ib] for ib in m.orig]
    max_len = 0
    for ia, alpha in m.orig.items():
        if not any(ia):
            continue
        ka = m.key(ia)
        row = m.row(m.cor[ia])  # den <b, alpha_check>
        d_aa = row[m.index[ia]]
        strings = list(m.strings(ia))
        # bottom - alpha and top + alpha are not roots: the walk stopped there
        bottoms = [keys[string[0]] for string in strings]
        tops = [keys[string[-1]] for string in strings]
        broken = [False] * len(strings)
        for k in range(2, _STRING_PROBE + 1):
            v = k * ka
            broken = list(map(or_, broken, map(slot.__contains__, map(v.__rsub__, bottoms))))
            broken = list(map(or_, broken, map(slot.__contains__, map(v.__add__, tops))))
        # p - q = n - 1 - 2q against -<b + q alpha, alpha_check>, linear in q:
        # they agree along a string iff they agree at its bottom and, when
        # n > 1, <alpha, alpha_check> = 2.  Only a failing alpha reads each root.
        if not any(brk or den * (len(string) - 1) != -row[string[0]]
                   or (len(string) > 1 and d_aa != 2 * den)
                   for string, brk in zip(strings, broken)):
            max_len = max(max_len, *map(len, strings))
            continue
        length, reason = {}, {}
        for string, brk in zip(strings, broken):
            n, d_ba = len(string), row[string[0]]
            for q, ib in enumerate(string):
                length[ib] = n
                if brk:
                    reason[ib] = "broken string"
                elif den * (n - 1 - 2 * q) != -(d_ba + q * d_aa):
                    reason[ib] = "p - q mismatch"
        for i in reading:
            if i in reason:
                return False, max_len, (m.orig[m.order[i]], alpha, reason[i])
            max_len = max(max_len, length[i])
    return True, max_len, None


def connected_components(rs: PreReflectionSystem):
    """Partition of the real roots into connection components: a and b are
    connected when <b, a_check> != 0, read off the row of a."""
    m = rs.model
    nr = m.n_real
    real = m.order[:nr]
    parent = list(range(nr))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, a in enumerate(real):
        row = m.row(m.cor[a])
        for j in itertools.compress(range(i + 1, nr), row[i + 1:nr]):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    groups = {}
    for i, a in enumerate(real):
        groups.setdefault(find(i), []).append(m.orig[a])
    return [sorted(g) for g in sorted(groups.values(), key=lambda g: min(g))]


def _span_basis_vectors(vectors):
    rows = [list(v) for v in vectors]
    red, pivots = rref(rows, QQ)
    return [tuple(red[i]) for i in range(len(pivots))]


def complete_basis(vectors, dim):
    """The standard vectors e_i outside the span of the independent vectors
    and of e_0, ..., e_(i-1)."""
    units = [_unit(dim, i) for i in range(dim)]
    return independent_rows(list(vectors) + units, QQ)[len(vectors):]


def normalized_form(rs: RootSystem):
    """The invariant form rescaled so each component has minimal norm 2."""
    comps = connected_components(rs)
    dim = rs.dim
    basis = []
    owners = []
    for k, comp in enumerate(comps):
        for v in _span_basis_vectors(comp):
            basis.append(v)
            owners.append(k)
    extra = complete_basis(basis, dim)
    basis += extra
    owners += [None] * len(extra)
    scales = []
    for comp in comps:
        norms = [rs.space.pair(a, a) for a in comp]
        if any(n == 0 for n in norms):
            raise ValueError("degenerate form on an irreducible component")
        mn = min(norms)
        scales.append(Fraction(2) / mn)
    gram = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            v = rs.space.pair(basis[i], basis[j])
            if owners[i] is None and owners[j] is None:
                gram[i][j] = v
            elif owners[i] == owners[j]:
                gram[i][j] = scales[owners[i]] * v
            elif owners[i] is None or owners[j] is None:
                # component-complement cross terms scale with the component,
                # otherwise the reflections in that component lose invariance
                k = owners[i] if owners[i] is not None else owners[j]
                gram[i][j] = scales[k] * v
            else:
                gram[i][j] = Fraction(0)
    # Solve M F M^T = G for the coordinate matrix F.
    minv = inverse([list(b) for b in basis], QQ)
    f = mat_mul(mat_mul(minv, gram, QQ), [list(col) for col in zip(*minv)], QQ)
    return tuple(tuple(row) for row in f)


def with_form(rs: RootSystem, form) -> RootSystem:
    """Same roots, different form (coroots recomputed)."""
    return RootSystem(RootSpace(rs.dim, tuple(tuple(r) for r in form)), rs.roots, label=rs.label)


def normalized(rs: RootSystem) -> RootSystem:
    return with_form(rs, normalized_form(rs))


def length_partition(rs: RootSystem):
    """(S_sh, S_lg, S_div, k) for an irreducible system carrying its normalized form.

    Divisible means alpha/2 is again a root; k is the tier constant used by
    affine root systems (2 for B/C/BC with rank >= 2 and F4, 3 for G2, None
    when there are no long roots).
    """
    comps = connected_components(rs)
    if len(comps) != 1:
        raise ValueError("length partition needs an irreducible system")
    pair = rs.space.pair
    norms = {a: pair(a, a) for a in rs.nonzero_roots()}
    if min(norms.values()) != 2:
        raise ValueError("form is not normalized (minimal nonzero norm must be 2)")
    sh = {a for a, n in norms.items() if n == 2}
    div = {a for a in rs.roots if vec_scale(Fraction(1, 2), a) in rs.roots}
    lg = {a for a in norms if a not in sh and a not in div}
    bad = [a for a in lg if norms[a] not in (4, 6)]
    if bad:
        raise ValueError(f"unexpected long-root norm at {bad[0]}: {norms[bad[0]]}")
    k = None
    if lg:
        k = 3 if any(norms[a] == 6 for a in lg) else 2
    return sh, lg, div, k


def indivisible_part(rs: RootSystem):
    """R_ind = {0} plus the roots alpha with alpha/2 not a root."""
    return {a for a in rs.roots if vec_is_zero(a) or vec_scale(Fraction(1, 2), a) not in rs.roots}


_PRIMES = (97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149)


def _generic_functional(vectors, dim):
    for p in _PRIMES:
        t = Fraction(1, p)
        weights = [t**i for i in range(dim)]
        if all(sum(w * x for w, x in zip(weights, v)) != 0 for v in vectors):
            return weights
    raise ArithmeticError("no generic functional found (extend prime list)")


def _simple_roots(component_ind, dim):
    """Simple roots of an (indivisible) component via a generic height functional."""
    weights = _generic_functional(component_ind, dim)

    def height(v):
        return sum(w * x for w, x in zip(weights, v))

    positive = sorted(a for a in component_ind if height(a) > 0)
    pos_set = set(positive)
    simple = []
    for a in positive:
        if not any(vec_sub(a, b) in pos_set for b in positive if b != a):
            simple.append(a)
    return simple


def _classify_component(rs: RootSystem, comp):
    comp_ind = sorted(a for a in comp if vec_scale(Fraction(1, 2), a) not in rs.roots)
    has_divisible = len(comp_ind) != len(comp)
    simple = _simple_roots(comp_ind, rs.dim)
    n = len(simple)
    cartan = [[rs.pairing(simple[j], simple[i]) for j in range(n)] for i in range(n)]
    fam = _diagram_family(cartan, [rs.space.pair(a, a) for a in simple])
    family, rank_ = fam
    if has_divisible:
        if family not in ("A", "B") or (family == "A" and rank_ != 1):
            raise ValueError("divisible roots outside a BC-shaped component")
        return ("BC", rank_)
    return fam


def _diagram_family(cartan, norms):
    n = len(cartan)
    if n == 1:
        return ("A", 1)
    weight = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                weight[i][j] = int(cartan[i][j] * cartan[j][i])
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if weight[i][j]]
    if len(edges) != n - 1:
        raise ValueError("simple-root graph is not a tree")
    deg = [0] * n
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    triple = [(i, j) for i, j in edges if weight[i][j] == 3]
    double = [(i, j) for i, j in edges if weight[i][j] == 2]
    if triple:
        if n == 2 and not double:
            return ("G2", 2)
        raise ValueError("triple edge in a diagram of rank != 2")
    if double:
        if len(double) > 1:
            raise ValueError("more than one double edge")
        if max(deg) > 2:
            raise ValueError("double edge in a branched diagram")
        order = _path_order(edges, deg, n)
        i, j = double[0]
        pi, pj = order.index(i), order.index(j)
        if {pi, pj} == {n // 2 - 1, n // 2} and n == 4:
            # Central double edge in a path of four nodes.
            return ("F4", 4)
        if not ({pi, pj} == {0, 1} or {pi, pj} == {n - 2, n - 1}):
            raise ValueError("double edge must sit at an end of the path (or be F4)")
        if {pi, pj} == {0, 1}:
            order = order[::-1]
            pi, pj = n - 1 - pi, n - 1 - pj
        end = order[-1]
        before = order[-2]
        if n == 2:
            return ("B", 2)
        return ("B", n) if norms[end] < norms[before] else ("C", n)
    # Simply laced tree.
    if max(deg) <= 2:
        return ("A", n)
    branch = [i for i in range(n) if deg[i] == 3]
    if len(branch) != 1 or max(deg) > 3:
        raise ValueError("unrecognized branching")
    arms = sorted(_arm_lengths(edges, branch[0], n))
    if arms[:2] == [1, 1]:
        return ("D", n)
    if arms == [1, 2, 2]:
        return ("E6", 6)
    if arms == [1, 2, 3]:
        return ("E7", 7)
    if arms == [1, 2, 4]:
        return ("E8", 8)
    raise ValueError(f"unrecognized diagram with arms {arms}")


def _path_order(edges, deg, n):
    adj = {i: [] for i in range(n)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    start = min(i for i in range(n) if deg[i] == 1)
    order = [start]
    prev = None
    cur = start
    while len(order) < n:
        nxt = [x for x in adj[cur] if x != prev]
        prev, cur = cur, nxt[0]
        order.append(cur)
    return order


def _arm_lengths(edges, center, n):
    adj = {i: [] for i in range(n)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    arms = []
    for start in adj[center]:
        length = 1
        prev, cur = center, start
        while True:
            nxt = [x for x in adj[cur] if x != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    return arms


def classify(rs: RootSystem) -> TypeLabel:
    """Canonical type label; components sorted by (family, rank)."""
    comps = connected_components(rs)
    if not comps:
        return TypeLabel(components=[])
    labels = [_classify_component(rs, comp) for comp in comps]
    labels.sort(key=lambda t: (t[0], t[1]))
    return TypeLabel(components=labels)

"""Root sets with coroots, and finite root systems with exact coordinates.

A PreReflectionSystem is a root set with a coroot map; a RootSystem is one
whose coroots come from its form, alpha_check = 2 (alpha | .) / (alpha | alpha),
computed in integers.  Each root set owns one IntegerRoots, built once and
read by every root-level check.  0 is always stored as a root.
Classical families use their standard coordinate lists; type A_n lives in
Q^(n+1) and spans the sum-zero hyperplane.

A coordinate is an int wherever it is integral, as a rational scalar is in
QQ: every built root, coroot and form entry is an int but for the
half-integers of F4 and E6-E8 and the thirds of G2's coroots, which are
Fractions.  hash(Fraction(k)) == hash(k), so a root read from JSON with
Fraction coordinates looks up the same entries.  integer_rows is the one
rescaling to integers.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import add, mul, neg, not_, or_, sub
from types import MappingProxyType

from .linalg import independent_rows, inverse, mat_mul, rref
from .scalars import QQ, frac_to_str

FAMILIES = ("A", "B", "C", "D", "BC", "E6", "E7", "E8", "F4", "G2")


def _unit(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


def vec_scale(c, a):
    return tuple(c * x for x in a)


def vec_is_zero(a):
    return not any(a)


class RootSpace:
    def __init__(self, dim: int, form: tuple):
        self.dim = dim
        self.form = form  # rows of the symmetric bilinear form

    def pair(self, x, y):
        total = 0
        for i, xi in enumerate(x):
            if xi:
                row = self.form[i]
                for j, yj in enumerate(y):
                    if yj and row[j]:
                        total += xi * row[j] * yj
        return total


def _identity_form(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


class TypeLabel:
    """The type of a root system, or why a root set is none (classify)."""

    def __init__(self, components: list, witness: str | None = None):
        self.components = components  # list of (family, rank) pairs; empty on a witness
        self.witness = witness

    def __eq__(self, other):
        if type(other) is not TypeLabel:
            return NotImplemented
        return (self.components, self.witness) == (other.components, other.witness)

    @property
    def ok(self):
        return self.witness is None

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
        self.roots = _root_set(roots)
        # A dict of tuples, as _form_coroots builds it, is copied with its
        # stored hashes; hashing the tuples again, each Fraction of them by a
        # modular inverse, is the cost here.
        if type(coroots) is dict and all(type(k) is tuple and type(v) is tuple
                                         for k, v in coroots.items()):
            coroots = dict(coroots)
        else:
            coroots = {tuple(k): tuple(v) for k, v in coroots.items()}
        self.coroots = MappingProxyType(coroots)
        # A frozenset minus a dict looks each root up by its stored hash.
        missing = self.roots.difference(coroots)
        if missing:
            first = next(r for r in self.roots if r in missing)
            raise ValueError(f"coroot missing for {frac_to_str(first)}")

    @classmethod
    def from_root_system(cls, rs: "RootSystem") -> "PreReflectionSystem":
        """The pre-reflection system of rs, sharing its coroots and model."""
        prs = cls.__new__(cls)
        prs.dim, prs.roots, prs.coroots, prs.model = rs.dim, rs.roots, rs.coroots, rs.model
        return prs

    @functools.cached_property
    def model(self) -> "IntegerRoots":
        return IntegerRoots(self.roots, self.coroots)


def _root_set(roots) -> frozenset:
    """The roots as a frozenset of tuples; a frozenset of tuples is kept as
    it is, with the hashes it stores."""
    if type(roots) is frozenset and all(type(r) is tuple for r in roots):
        return roots
    return frozenset(tuple(r) for r in roots)


def integer_rows(rows):
    """(s, the rows times s, as int tuples) for the least s > 0 that clears
    every denominator.  Rows of ints come back as they are, with s = 1."""
    rows = [r if type(r) is tuple else tuple(r) for r in rows]
    if all(type(x) is int for r in rows for x in r):
        return 1, rows
    s = math.lcm(*(x.denominator for r in rows for x in r))
    return s, [tuple(x.numerator * (s // x.denominator) for x in r) for r in rows]


def _quotient(num, den):
    """num / den for ints: an int when exact, a Fraction otherwise."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def _form_coroots(roots, form):
    """alpha_check = 2 F alpha / (alpha | alpha) for each root, in integers:
    with ia = dr alpha and F the form, both rescaled by integer_rows, it is
    2 dr F ia / (ia . F ia), an int wherever that is exact."""
    _, f_int = integer_rows(form)
    roots = list(roots)
    dr, iroots = integer_rows(roots)
    out = {}
    for a, ia in zip(roots, iroots):
        fa = [sum(map(mul, row, ia)) for row in f_int]
        norm = sum(map(mul, ia, fa))
        if not norm and any(a):
            raise ValueError(f"isotropic nonzero root {frac_to_str(a)} under the given form")
        out[a] = tuple(_quotient(2 * dr * x, norm or 1) for x in fa)  # fa = 0 at a = 0
    return out


class RootSystem(PreReflectionSystem):
    """A finite set of vectors containing 0, closed under its reflections,
    with the coroots of its form unless they are given."""

    def __init__(self, space: RootSpace, roots, coroots=None):
        self.space = space
        roots = _root_set(roots)
        if (0,) * space.dim not in roots:
            raise ValueError("0 must be a root")
        if coroots is None:
            coroots = _form_coroots(roots, space.form)
        super().__init__(space.dim, roots, coroots)

    def nonzero_roots(self):
        return [a for a in self.roots if any(a)]

    def pairing(self, beta, alpha):
        """<beta, alpha_check>."""
        return sum(b * c for b, c in zip(beta, self.coroots[alpha]) if b and c)

    def sorted_roots(self):
        return sorted(self.roots)


# How far past each end of a string root_strings_exhaustive looks for a root.
_STRING_PROBE = 3


def _keeps_parts(img, nr):
    """Does each image position lie in the part of its root: the real part
    (positions below nr) for the first nr roots, the imaginary part for the
    rest?  None, no root, lies in neither."""
    return (None not in img and max(img[:nr], default=-1) < nr
            and min(img[nr:], default=nr) >= nr)


def _close(gens, pending, reached, done):
    """Close the reached positions under the image lists gens: each pending
    position p meets the generators it has not met yet (done[p] counts
    those it has), and each image that is not yet reached is marked and
    made pending.  Returns (p, k) for the first image gens[k][p] that is
    None, no root, and None when every image is a root."""
    while pending:
        p = pending.pop()
        for k in range(done[p], len(gens)):
            q = gens[k][p]
            if q is None:
                return p, k
            if not reached[q]:
                reached[q] = True
                pending.append(q)
        done[p] = len(gens)
    return None


class IntegerRoots:
    """Roots and coroots rescaled to integer tuples, for the root-level checks.

    Roots are multiplied by the lcm of their coordinate denominators
    (root_scale) and coroots by the lcm of theirs (coroot_scale), both by
    integer_rows; den is the product of the two, so <b, a_check> is an
    integer dot product divided by den.  Built from a root set and a
    coroot map, with int or Fraction coordinates, once per root set: see
    PreReflectionSystem.model.  Roots and coroots of ints are their own
    rescaling, with scale 1.

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

    A pass of the pair checks (ReS2, ReS4, integral, coherent and the root
    strings) is reached on `cover`: a few generators pass ReS2 and ReS4 on
    their rows, their reflections carry a representative to every root,
    and the checks read only the rows of the representatives.  A failure
    is found by the full scan over every root, which names the first
    witness; it runs when there is no cover, or when a representative
    fails a string.
    """

    def __init__(self, roots, coroots):
        roots = list(roots)
        self.root_scale, iroots = integer_rows(roots)
        self.coroot_scale, icors = integer_rows([coroots[a] for a in roots])
        self.den = den = self.root_scale * self.coroot_scale
        self.orig = dict(zip(iroots, roots))  # scaled root -> root as given
        self.cor = dict(zip(iroots, icors))   # scaled root -> scaled coroot
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

    def coroot_keys(self):
        """[den key(b_check) for b in order], the keys ReS4 compares."""
        return [self.den * self.key(self.cor[b]) for b in self.order]

    def reflection_faults(self, i, den_cokeys):
        """ReS2 and ReS4 on the row of the real root a = order[i], given
        den_cokeys = coroot_keys().

        Returns (images(a), j, b): j is the first position whose image is
        no root or lies outside the part (real or imaginary) of its root,
        and b the least root of order at which ReS4 fails; each is None
        when there is none.  ReS4 asks that the coroot of s_a(b) be
        b_check - <a, b_check> a_check; both, times den, are compared by
        their keys.  A b whose image is no root is left to ReS2.
        """
        a, nr = self.order[i], self.n_real
        img = self.images(a, self.row(self.cor[a]))
        j = None
        if not _keeps_parts(img, nr):
            j = next(p for p, k in enumerate(img) if k is None or (k < nr) != (p < nr))
        ka_check = den_cokeys[i] // self.den
        expect = list(map(sub, den_cokeys, map(ka_check.__mul__, self.corow(a))))
        b = None
        if None in img or list(map(den_cokeys.__getitem__, img)) != expect:
            b = min((c for c, k, e in zip(self.order, img, expect)
                     if k is not None and den_cokeys[k] != e), default=None)
        return img, j, b

    @functools.cached_property
    def cover(self):
        """Positions in order of representatives of every root under the
        group G generated by the reflections of some real roots, the
        generators; None when a generator fails a premise below.

        The real roots are walked in order, and each one that no orbit has
        reached becomes a generator d once it passes ReS2 and ReS4 on its
        row (reflection_faults).  Its images permute order, and the
        reached set is closed under them, each (position, generator) image
        looked up once.  A nonzero imaginary root that no orbit reaches is
        a representative but no generator.

        Why a representative decides its orbit.  Let k = <d, d_check>.
        ReS2 at d puts every s_d^i(d) = (1 - k)^i d in the finite R, and
        k = 1 would make s_d(d) = 0 a real root with coroot 0 by ReS4.  So
        k = 2, or k = 0 and then s_d fixes every root and, by ReS4, every
        coroot.  By ReS4 the coroot of s_d(b) is s_d^T(b_check) =
        b_check - <d, b_check> d_check, and in both cases
        <s_d x, s_d^T y> = <x, y> for a root x and a coroot y.  So for
        b = w a with w in G, b_check = w^-T a_check, <c, b_check> =
        <w^-1 c, a_check>, and s_b = w s_a w^-1, which maps the real and
        the imaginary part each to itself.  Hence:
        - ReS2 and ReS4 at every real root follow from those at the
          generators;
        - the row of b is the row of a permuted by w^-1, and
          <b, c_check> = <a, (w^-1 c)_check>, so integral and coherent at b
          are integral and coherent at a;
        - the b-string through c is w applied to the a-string through
          w^-1 c, with the same length, breaks and p - q.
        See Humphreys, Introduction to Lie Algebras and Representation
        Theory, 10.3, and Loos and Neher, Forum Math. 23 (2011).
        """
        nr, n = self.n_real, len(self.order)
        den_cokeys = self.coroot_keys()
        gens, reps = [], []
        reached = [False] * n
        done = [0] * n
        for i in range(n):
            if reached[i] or (i >= nr and not any(self.order[i])):
                continue
            pending = [i]
            if i < nr:
                img, j, b = self.reflection_faults(i, den_cokeys)
                if j is not None or b is not None:
                    return None
                gens.append(img)
                # every reached position meets the new generator
                pending.extend(itertools.compress(range(n), reached))
            reps.append(i)
            reached[i] = True
            _close(gens, pending, reached, done)  # no image of a generator is None
        return tuple(reps)

    def exact(self, dot):
        """dot / den: an int when exact, a Fraction otherwise."""
        return _quotient(dot, self.den)

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

    @functools.cached_property
    def collinear_classes(self):
        """The nonzero real roots grouped by line, each group sorted, groups
        of one left out.  The line of a is a divided by the gcd of its
        coordinates, signed to make the first nonzero coordinate positive.
        Kept on the model, like cover: ReS3 and reduced both read it."""
        lines = {}
        for a in sorted(self.real):
            if any(a):
                g = math.gcd(*a) if next(x for x in a if x) > 0 else -math.gcd(*a)
                lines.setdefault(tuple(x // g for x in a), []).append(a)
        return tuple(tuple(group) for group in lines.values() if len(group) > 1)


def _vec(dim, entries):
    """The vector of Z^dim with the {coordinate: value} entries, 0 elsewhere."""
    return tuple(entries.get(k, 0) for k in range(dim))


def _differences(dim):
    """e_i - e_j for i != j."""
    return {_vec(dim, {i: 1, j: -1}) for i in range(dim) for j in range(dim) if i != j}


def _signed_pairs(dim):
    """+-e_i +- e_j for i < j."""
    return {_vec(dim, {i: s, j: t}) for i in range(dim) for j in range(i + 1, dim)
            for s in (1, -1) for t in (1, -1)}


def _axes(dim, c):
    """+-c e_i."""
    return {_vec(dim, {i: s * c}) for i in range(dim) for s in (1, -1)}


def _half_signs(dim, even=False):
    """(+-1/2, ..., +-1/2), only those with an even number of minus signs
    when even."""
    return {tuple(Fraction(s, 2) for s in signs)
            for signs in itertools.product((1, -1), repeat=dim)
            if not (even and signs.count(-1) % 2)}


def _system(dim, roots):
    """The roots, and 0, in Q^dim with the identity form."""
    return RootSystem(RootSpace(dim, _identity_form(dim)), roots | {(0,) * dim})


# The lengths c of the roots +-c e_i that join the +-e_i +- e_j of D_n.
_AXES = {"B": (1,), "C": (2,), "D": (), "BC": (1, 2)}


def build_classical(family: str, n: int) -> RootSystem:
    """Standard coordinate realization of A, B, C, D or BC of rank n."""
    family = family.upper()
    if n < 1:
        raise ValueError("rank must be at least 1")
    if family == "A":
        return _system(n + 1, _differences(n + 1))
    if family not in _AXES:
        raise ValueError(f"unknown classical family {family!r}")
    if family == "D" and n < 2:
        raise ValueError("type D needs rank >= 2 (D_1 cannot span its space)")
    return _system(n, _signed_pairs(n).union(*(_axes(n, c) for c in _AXES[family])))


# E7 and E6 are the roots a of E8 orthogonal to e_7 + e_8, and E6 also to
# e_6 + e_8 (Bourbaki, Lie Groups and Lie Algebras, Ch. VI, Plates V-VII):
# those with a[i] + a[7] = 0 for the listed 0-based coordinates i.
_E8_SECTIONS = {"E8": (), "E7": (6,), "E6": (5, 6)}


def build_exceptional(family: str) -> RootSystem:
    family = family.upper()
    if family == "G2":
        # the long roots are +-3 e_i projected to the sum-zero plane; sum(a)
        # is +-3, so QQ gives the int +-1
        long = {tuple(x - QQ(sum(a), 3) for x in a) for a in _axes(3, 3)}
        return _system(3, _differences(3) | long)
    if family == "F4":
        return _system(4, _axes(4, 1) | _signed_pairs(4) | _half_signs(4))
    if family in _E8_SECTIONS:
        cut = _E8_SECTIONS[family]
        e8 = _signed_pairs(8) | _half_signs(8, even=True)
        return _system(8, {a for a in e8 if all(a[i] + a[7] == 0 for i in cut)})
    raise ValueError(f"unknown exceptional family {family!r}")


def root_strings_exhaustive(rs: RootSystem):
    """Check every alpha-string: unbroken and p - q = -<beta, alpha_check>.

    Returns (ok, max_string_length, witness), the length being the largest
    read before a failure.  On a cover (IntegerRoots.cover) the strings of
    its representatives alpha decide every alpha: each string of w alpha
    is w applied to a string of alpha, and so is its verdict and length.
    If a representative fails, or there is no cover, every nonzero alpha is
    read in the sorted order of IntegerRoots.order, so the first witness is
    found, and it depends on the root set alone, not on how it was built.
    """
    m = rs.model
    if m.cover is not None:
        ok, max_len, _ = _strings(m, [m.order[i] for i in m.cover])
        if ok:
            return ok, max_len, None
    return _strings(m, [ia for ia in m.order if any(ia)])


def _strings(m: IntegerRoots, alphas):
    """The string check over the nonzero roots alphas of m.  Each
    alpha-string is walked once on IntegerRoots keys, the pairings read off
    the row of alpha, then the verdicts are read in the order of the roots
    beta in m.order."""
    den, keys, slot = m.den, m.keys, m.slot
    max_len = 0
    for ia in alphas:
        alpha = m.orig[ia]
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
        for i in range(len(keys)):
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
    """The invariant form rescaled so each component has minimal norm 2.

    Each component is scaled by 2 over its norm of least absolute value, so
    a component on which the form is negative definite comes out positive.
    The complement of the roots' span, which no root sees, keeps its form,
    negated when every component is, so that a negative definite form
    normalizes to what its negation does."""
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
        scales.append(Fraction(2) / min(norms, key=abs))
    flip = -1 if scales and all(sc < 0 for sc in scales) else 1
    gram = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            v = rs.space.pair(basis[i], basis[j])
            if owners[i] is None and owners[j] is None:
                gram[i][j] = flip * v
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
    return tuple(tuple(map(QQ, row)) for row in f)


def with_form(rs: RootSystem, form) -> RootSystem:
    """Same roots, different form (coroots recomputed)."""
    return RootSystem(RootSpace(rs.dim, tuple(tuple(r) for r in form)), rs.roots)


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
    div = _divisible(rs.roots)
    lg = {a for a in norms if a not in sh and a not in div}
    bad = [a for a in lg if norms[a] not in (4, 6)]
    if bad:
        raise ValueError(f"unexpected long-root norm at {frac_to_str(bad[0])}: "
                         f"{frac_to_str(norms[bad[0]])}")
    k = None
    if lg:
        k = 3 if any(norms[a] == 6 for a in lg) else 2
    return sh, lg, div, k


def _divisible(roots) -> frozenset:
    """The roots alpha whose half alpha/2 is again a root: the roots 2 beta
    for the roots beta, 0 included."""
    return roots & {tuple(2 * x for x in b) for b in roots}


def indivisible_part(rs: RootSystem):
    """R_ind = {0} plus the roots alpha with alpha/2 not a root."""
    div = _divisible(rs.roots)
    return {a for a in rs.roots if vec_is_zero(a) or a not in div}


# (family, roots, short roots) of the irreducible reduced types outside A-D,
# by rank.
_EXCEPTIONAL = {2: ("G2", 12, 6), 4: ("F4", 48, 24), 6: ("E6", 72, 72),
                7: ("E7", 126, 126), 8: ("E8", 240, 240)}


def _count_type(n, roots, short):
    """The family of an irreducible reduced root system of rank n with
    `roots` nonzero roots, `short` of them of the least norm (all of them
    when there is one length).  The first row that matches names it, so
    B1, C2 and D3 read as A1, B2 and A3; no other two rows of one rank are
    equal."""
    rows = [("A", n * (n + 1), n * (n + 1)),
            ("B", 2 * n * n, 2 * n),
            ("C", 2 * n * n, 2 * n * (n - 1)),
            ("D", 2 * n * (n - 1), 2 * n * (n - 1))]
    if n in _EXCEPTIONAL:
        rows.append(_EXCEPTIONAL[n])
    return next(f for f, r, s in rows if (r, s) == (roots, short))


def classify(rs: RootSystem) -> TypeLabel:
    """The type of rs, read off its root set as W(Delta u (2 Delta n R)), or
    a witness that rs is no root system (then the label has no components).

    Delta.  IntegerRoots.key is linear and nonzero on every nonzero root.
    Delta is the roots of positive key that are no sum of two such, read in
    increasing key: a is left out when a - d has positive key for a d of
    Delta read before it.  In a root system a positive root that is not
    simple is d + b for a simple d and a positive b (2d = d + d), and d has
    the smaller key; so on a root system Delta is the base of the chamber
    of the key (Bourbaki, Lie Groups and Lie Algebras, Ch. VI, 1.6-1.7).

    Simple roots d, e with <d, e_check> != 0 are joined.  For each
    component K of Delta the seeds K u (2K n R) are closed under the s_d,
    d in K, and the check asks:
    (a) <d, e_check> is an integer for d in Delta and every seed e;
    (b) each s_d maps each root reached in its component to a root;
    (c) every nonzero root is reached.
    By (a) W_K keeps Z K, which the s_d of the other components fix; so
    every s_d maps every reached root to a root, and by (c) permutes R.
    For b = w e, w in W and e a seed, w s_e w^-1 is a reflection that keeps
    R and maps b to -b, with coroot w^-T e_check, and
    <c, w^-T e_check> = <w^-1 c, e_check> is an integer, as R lies in
    Z Delta.  So R - {0} is a root system, reduced or not, with base Delta,
    and W_K(K u 2K n R) is its irreducible component of rank |K| (ibid.,
    1.1 and 1.5-1.7).  The witness is the first pairing of (a) that is not
    an integer, the first image of (b) that is no root, or the first root
    that (c) misses.

    The type.  Every root is W-conjugate to a simple root of its length.
    The form is symmetric, so each s_d is an isometry of it, and on an
    irreducible component it is a nonzero multiple of any W-invariant form
    (ibid., 1.2): the simple roots of K with the least |(d | d)| are its
    short ones.  So W_K of those is the short roots and W_K K the
    indivisible ones, and their counts name the type (_count_type).  A
    divisible root makes it BC_n: the indivisible roots of an irreducible
    system that is not reduced are B_n, or A_1 for n = 1 (ibid., 1.4).
    The components are sorted by (family, rank).
    """
    m = rs.model
    keys, n = m.keys, len(m.order)
    orig = [m.orig[a] for a in m.order]
    positive = sorted((k, i) for i, k in enumerate(keys) if k > 0)
    pos_keys = {k for k, _ in positive}
    simple = []
    for k, i in positive:
        if not any(k - keys[d] in pos_keys for d in simple):
            simple.append(i)
    double = {d: m.slot.get(2 * keys[d]) for d in simple}  # position of 2d, or None
    seeds = simple + [e for e in double.values() if e is not None]
    cartan = {(d, e): rs.pairing(orig[d], orig[e]) for d in simple for e in seeds}
    for (d, e), c in cartan.items():
        if c % 1:
            return TypeLabel([], f"<{frac_to_str(orig[d])}, {frac_to_str(orig[e])}_check> "
                                 f"= {frac_to_str(c)} is not an integer")
    comps = []
    for d in simple:
        joined = [comp for comp in comps if any(cartan[d, e] for e in comp)]
        comps = [comp for comp in comps if comp not in joined] + [[d, *sum(joined, [])]]
    gens = {d: m.images(m.order[d], m.row(m.cor[m.order[d]])) for d in simple}
    reached = [False] * n
    counts = []
    for comp in comps:
        norm = {d: abs(rs.space.pair(orig[d], orig[d])) for d in comp}
        least = min(norm.values())
        stages = ([d for d in comp if norm[d] == least], [d for d in comp if norm[d] != least],
                  [double[d] for d in comp if double[d] is not None])
        walk, done = [gens[d] for d in comp], [0] * n
        count = [sum(reached)]
        for stage in stages:
            for e in stage:
                reached[e] = True
            miss = _close(walk, list(stage), reached, done)
            if miss is not None:
                p, k = miss
                b, d = orig[p], orig[comp[k]]
                c = rs.pairing(b, d)
                image = tuple(x - c * y for x, y in zip(b, d))
                return TypeLabel([], f"s_{frac_to_str(d)}({frac_to_str(b)}) = "
                                     f"{frac_to_str(image)} is not a root")
            count.append(sum(reached))
        counts.append((len(comp), count))
    missed = next((p for p in range(n) if not reached[p] and any(orig[p])), None)
    if missed is not None:
        return TypeLabel([], f"{frac_to_str(orig[missed])} is not reached by the simple "
                             f"reflections of {frac_to_str([orig[d] for d in simple])}")
    labels = []
    for rank, (start, short, indivisible, total) in counts:
        family = _count_type(rank, indivisible - start, short - start)
        labels.append(("BC", rank) if total > indivisible else (family, rank))
    return TypeLabel(sorted(labels))

"""Universal central extensions of sl_n(A), first cyclic homology and the
untwisted affine algebra as an instance of E = C + L + D (eala).

<A,A> = (A wedge A)/B with B spanned by ab^c + bc^a + ca^b.  The kernel of
<a,b> -> [a,b] is HC_1(A), whose dimension in each lattice degree is read
off the coordinate algebra (hc1_component); the quotient itself is kept for
the Jacobi sample.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .eala import BuiltE, build_E, default_iara_data
from .graded import AlgElement, GradedAssocAlgebra
from .lattices import box
# kernel and mat_rank stay importable from here: the benchmark hooks them by
# these names.
from .linalg import kernel, rank as mat_rank, rref  # noqa: F401
from .matlie import MatLieElement, MatrixLieAlgebra, bracket as mat_bracket
from .report import AxiomReport


class WedgeElement:
    """Element of A wedge A in the monomial-pair basis (not yet modulo B)."""

    __slots__ = ("A", "terms")

    def __init__(self, A: GradedAssocAlgebra, terms=None):
        self.A = A
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def zero(cls, A):
        return cls(A, {})

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            w = out.get(k)
            s = v if w is None else w + v
            if s:
                out[k] = s
            elif w is not None:
                del out[k]
        return WedgeElement(self.A, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return WedgeElement(self.A, {k: -v for k, v in self.terms.items()})

    def scale(self, c):
        return WedgeElement(self.A, {k: v * c for k, v in self.terms.items()})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, WedgeElement):
            return NotImplemented
        return self.A is other.A and self.terms == other.terms

    def degrees(self):
        return sorted({tuple(a + b for a, b in zip(k[0][0], k[1][0])) for k in self.terms})

    def commutator_image(self) -> AlgElement:
        out = self.A.zero()
        for (k1, k2), c in self.terms.items():
            m1 = AlgElement(self.A, {k1: self.A.field.one})
            m2 = AlgElement(self.A, {k2: self.A.field.one})
            out = out + (m1 * m2 - m2 * m1) * c
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})<{k1}, {k2}>" for (k1, k2), c in sorted(self.terms.items()))


def wedge(a: AlgElement, b: AlgElement) -> WedgeElement:
    """a wedge b, expanded bilinearly over the monomial basis."""
    A = a.algebra
    out = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            if k1 == k2:
                continue
            if k1 < k2:
                key, c = (k1, k2), c1 * c2
            else:
                key, c = (k2, k1), -(c1 * c2)
            cur = out.get(key)
            s = c if cur is None else cur + c
            if s:
                out[key] = s
            elif cur is not None:
                del out[key]
    return WedgeElement(A, out)


class WedgeBlock(NamedTuple):
    """B in one total degree: the wedge keys of that degree, their index and
    the rref rows and pivot columns of its relations."""

    keys: list
    index: dict
    rows: list
    pivots: list


class WedgeWindow:
    """Windowed (A wedge A)/B, one degree at a time.

    A relation ab^c + bc^a + ca^b is homogeneous of degree
    deg a + deg b + deg c, so B splits by total degree: each degree has its
    own relation rref, built on first use and kept in the window.
    """

    def __init__(self, A: GradedAssocAlgebra, window: int):
        self.A = A
        self.window = window
        self.degs = [tuple(d) for d in box(A.n, window) if A.in_support(d)]
        self._degset = set(self.degs)
        self._blocks = {}

    def block(self, deg) -> WedgeBlock:
        """Keys k1 < k2 with d1 + d2 = deg on the window, and the rref of the
        relations (a, b, c) of that total degree whose pairwise degree sums
        stay on the window."""
        deg = tuple(deg)
        got = self._blocks.get(deg)
        if got is not None:
            return got
        A, degset = self.A, self._degset
        keys = []
        for d1 in self.degs:
            d2 = tuple(x - y for x, y in zip(deg, d1))
            if d2 not in degset:
                continue
            for s1 in range(A.bdim):
                for s2 in range(A.bdim):
                    k1, k2 = (d1, s1), (d2, s2)
                    if k1 < k2:
                        keys.append((k1, k2))
        keys.sort()
        index = {k: i for i, k in enumerate(keys)}
        # A cyclic shift of (a, b, c) gives the same relation, so only the
        # least shift is formed; over a commutative A any permutation does,
        # and a set of rows keeps one.
        rel_rows = {}
        for da in self.degs:
            for db in self.degs:
                dc = tuple(x - y - z for x, y, z in zip(deg, da, db))
                if (dc not in degset
                        or tuple(x + y for x, y in zip(da, db)) not in degset
                        or tuple(x + y for x, y in zip(db, dc)) not in degset
                        or tuple(x + y for x, y in zip(dc, da)) not in degset):
                    continue
                for ka, kb, kc in itertools.product(*(
                        [(d, s) for s in range(A.bdim)] for d in (da, db, dc))):
                    if (kb, kc, ka) < (ka, kb, kc) or (kc, ka, kb) < (ka, kb, kc):
                        continue
                    a, b, c = (AlgElement(A, {k: A.field.one}) for k in (ka, kb, kc))
                    rel = wedge(a * b, c) + wedge(b * c, a) + wedge(c * a, b)
                    if rel:
                        row = [A.field.zero] * len(keys)
                        for k, v in rel.terms.items():
                            row[index[k]] = v
                        rel_rows[tuple(row)] = None
        rel_rows = [list(row) for row in rel_rows]
        rows, pivots = rref(rel_rows, A.field) if rel_rows else ([], [])
        got = self._blocks[deg] = WedgeBlock(keys, index, rows[:len(pivots)], pivots)
        return got

    def _reduced_parts(self, w: WedgeElement):
        """(block, reduced coordinates) for each total degree of w."""
        parts = {}
        for k, c in w.terms.items():
            (d1, _), (d2, _) = k
            if d1 not in self._degset or d2 not in self._degset:
                raise ValueError(f"wedge term {k} outside window {self.window}")
            parts.setdefault(tuple(x + y for x, y in zip(d1, d2)), {})[k] = c
        for deg, terms in parts.items():
            blk = self.block(deg)
            v = [self.A.field.zero] * len(blk.keys)
            for k, c in terms.items():
                v[blk.index[k]] = c
            for row, p in zip(blk.rows, blk.pivots):
                c = v[p]
                if c:
                    for idx, r in enumerate(row):
                        if r:
                            v[idx] = v[idx] - c * r
            yield blk, v

    def is_zero_mod_b(self, w: WedgeElement) -> bool:
        return not any(any(v) for _, v in self._reduced_parts(w))


def hc1_component(A: GradedAssocAlgebra, deg) -> int:
    """dim HC_1(A) in one lattice degree sigma, read off the coordinate algebra.

    A quantum torus K_q (a group algebra is the case q = 1) has
    dim HC_1^sigma = n - [sigma != 0] for sigma in Rad(q), its centre
    lattice, and 0 off it (Kassel, JPAA 34, 1984; Berman, Gao and Krylyuk,
    J. Funct. Anal. 135, 1996).  A group algebra on the support N^n or {0}
    is smooth, so HC_1 = Omega^1/dA: in a degree sigma of the support,
    Omega^1 has the t^(sigma - e_i) dt_i with sigma_i != 0 and dA the one
    d t^sigma when sigma != 0.  Crossed products are not covered.
    """
    deg = tuple(deg)
    if A.kind == "crossed" or (A.support is not None and A.kind != "group"):
        raise ValueError(f"HC_1 is decided for quantum tori and group algebras; got a {A.kind!r} "
                         f"algebra with support {A.support!r}")
    if not A.in_support(deg):
        return 0
    nonzero = int(any(deg))
    if A.support is not None:
        return sum(1 for x in deg if x) - nonzero
    return A.n - nonzero if deg in A.centre_lattice() else 0


class UceElement:
    """wedge part in <A,A> plus matrix part in sl_n(k) tensor A."""

    __slots__ = ("U", "w", "m")

    def __init__(self, U, w: WedgeElement, m: MatLieElement):
        self.U = U
        self.w = w
        self.m = m

    def __add__(self, other):
        return UceElement(self.U, self.w + other.w, self.m + other.m)

    def __sub__(self, other):
        return UceElement(self.U, self.w - other.w, self.m - other.m)

    def __neg__(self):
        return UceElement(self.U, -self.w, -self.m)

    def scale(self, c):
        return UceElement(self.U, self.w.scale(c), self.m.scale(c))

    def __repr__(self):
        return f"<{self.w}> (+) {self.m}"


class UceAlgebra:
    """uce(sl_n(A)) = <A,A> + (sl_n(k) tensor A) with the lifted bracket."""

    def __init__(self, n: int, A: GradedAssocAlgebra):
        if n < 3:
            raise ValueError("the uce model needs n >= 3")
        self.n = n
        self.A = A
        self.field = A.field
        self.sl = MatrixLieAlgebra(n, A)
        self._ninv = self.field(Fraction(1, n))
        self._ww_cache = {}

    def wedge_window(self, window: int) -> "WedgeWindow":
        got = self._ww_cache.get(window)
        if got is None:
            got = self._ww_cache[window] = WedgeWindow(self.A, window)
        return got

    def zero(self):
        return UceElement(self, WedgeElement.zero(self.A), self.sl.zero())

    def from_matrix(self, m: MatLieElement) -> UceElement:
        if m.trace():
            raise ValueError("matrix part must have exact trace zero")
        return UceElement(self, WedgeElement.zero(self.A), m)

    def x(self, i, j, a) -> UceElement:
        """Steinberg generator X_ij(a), i != j."""
        if i == j:
            raise ValueError("off-diagonal only")
        if not isinstance(a, AlgElement):
            a = self.A.one() * a
        return self.from_matrix(self.sl.E(i, j, a))

    def bracket(self, u1: UceElement, u2: UceElement) -> UceElement:
        w1, m1 = u1.w, u1.m
        w2, m2 = u2.w, u2.m
        # sigma part of [m1, m2]:
        wout = WedgeElement.zero(self.A)
        for (i, j), a in m1.entries.items():
            b = m2.entries.get((j, i))
            if b is not None:
                wout = wout + wedge(a, b)
        if wout:
            wout = wout.scale(self._ninv)
        mout = mat_bracket(m1, m2)
        tr = mout.trace()
        if tr:
            corr = {(i, i): tr * self._ninv for i in range(self.n)}
            mout = mout - MatLieElement(self.sl, corr)
        # wedge-wedge and wedge-matrix parts act through commutator images.
        if w1:
            u_w1 = w1.commutator_image()
            mout = mout + MatLieElement(self.sl, {
                k: (u_w1 * v - v * u_w1) for k, v in m2.entries.items()
            })
        if w2:
            u_w2 = w2.commutator_image()
            mout = mout - MatLieElement(self.sl, {
                k: (u_w2 * v - v * u_w2) for k, v in m1.entries.items()
            })
        if w1 and w2:
            wout = wout + wedge(u_w1, u_w2)
        return UceElement(self, wout, mout)

    def project(self, u: UceElement) -> MatLieElement:
        """The covering map onto sl_n(A); its kernel is HC_1(A)."""
        img = u.w.commutator_image()
        out = u.m
        if img:
            out = out + MatLieElement(self.sl, {(i, i): img for i in range(self.n)})
        return out

    def jacobi_defect(self, u1, u2, u3) -> UceElement:
        return (
            self.bracket(self.bracket(u1, u2), u3)
            + self.bracket(self.bracket(u2, u3), u1)
            + self.bracket(self.bracket(u3, u1), u2)
        )

    def jacobi_holds(self, u1, u2, u3, window: int) -> bool:
        d = self.jacobi_defect(u1, u2, u3)
        if d.m:
            return False
        if not d.w:
            return True
        return self.wedge_window(window).is_zero_mod_b(d.w)

    def homogeneous_pool(self, window: int):
        """Homogeneous elements for sampling: matrix units and wedge basis."""
        pool = []
        for deg in box(self.A.n, window):
            if not self.A.in_support(deg):
                continue
            for a in self.A.basis_of_degree(deg):
                for i in range(self.n):
                    for j in range(self.n):
                        if i != j:
                            pool.append(self.x(i, j, a))
                for i in range(self.n - 1):
                    m = self.sl.E(i, i, a) - self.sl.E(i + 1, i + 1, a)
                    pool.append(self.from_matrix(m))
        return pool


def build_uce_sl(n: int, A: GradedAssocAlgebra) -> UceAlgebra:
    return UceAlgebra(n, A)


def steinberg_check(U: UceAlgebra, window: int = 2) -> AxiomReport:
    """st1-st3 on windowed homogeneous coefficients."""
    rep = AxiomReport()
    A = U.A
    degs = [d for d in box(A.n, window) if A.in_support(d)]
    mono = [AlgElement(A, {(tuple(d), s): A.field.one}) for d in degs for s in range(A.bdim)]

    idx = range(U.n)
    # X_ij(a) for every monomial a of the window, built once per index pair.
    xs = {(i, j): [U.x(i, j, a) for a in mono] for i in idx for j in idx if i != j}

    def st1_holds(p, q):
        got, want = U.x(0, 1, mono[p] + mono[q]), xs[0, 1][p] + xs[0, 1][q]
        return got.m == want.m and got.w == want.w

    pairs = itertools.combinations_with_replacement(range(len(mono)), 2)
    bad = next((pq for pq in pairs if not st1_holds(*pq)), None)
    rep.add("st1", bad is None, None if bad is None else
            "st1 fails at a = {!r}, b = {!r}".format(*(mono[p] for p in bad)), window=window)

    def st2_holds(i, j, l):
        for a, xa in zip(mono, xs[i, j]):
            for b, xb in zip(mono, xs[j, l]):
                got = U.bracket(xa, xb)
                if got.m != U.x(i, l, a * b).m or got.w:
                    return False
        return True

    def st3_holds(i, j, l, m):
        for xa in xs[i, j]:
            for xb in xs[l, m]:
                got = U.bracket(xa, xb)
                if got.m or got.w:
                    return False
        return True

    bad = next((t for t in itertools.permutations(idx, 3) if not st2_holds(*t)), None)
    rep.add("st2", bad is None, None if bad is None else "st2 fails at ({},{},{})".format(*bad),
            window=window)
    quads = [(i, j, l, m) for i in idx for j in idx for l in idx for m in idx
             if i != j and l != m and i != m and j != l]
    bad = next((q for q in quads if not st3_holds(*q)), None)
    rep.add("st3", bad is None, None if bad is None else "st3 fails at ({},{},{},{})".format(*bad),
            window=window)
    return rep


# The untwisted affine Lie algebra E = (sl_m tensor K[t,t^-1]) + Kc + Kd.


class _SmallMatrixLie(MatrixLieAlgebra):
    """sl_n(A) without the n >= 3 gate, for the affine algebra over sl_2."""

    min_n = 2


def build_affine(m: int, window: int = 2) -> BuiltE:
    """The untwisted affine algebra over sl_m as E = C + L + D with
    L = sl_m(K[t,t^-1]), D = K d (the degree derivation), C = D* (c pairs
    with d to 1) and tau = 0; the construction data are validated on the
    window."""
    if m < 2:
        raise ValueError("need m >= 2")
    A = GradedAssocAlgebra.laurent()
    L = MatrixLieAlgebra(m, A) if m >= 3 else _SmallMatrixLie(m, A)
    return build_E(default_iara_data(L, C="dual"), window)

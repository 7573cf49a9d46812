"""Universal central extensions of sl_n(A), first cyclic homology and the
untwisted affine algebra as an instance of E = C + L + D (eala).

<A,A> = (A wedge A)/B with B spanned by ab^c + bc^a + ca^b.  The kernel of
<a,b> -> [a,b] is HC_1(A), whose dimension in each lattice degree is read
off the coordinate algebra (hc1_component); the quotient itself is kept for
the Jacobi sample.  An element of A wedge A is a graded.Sum, like those of A
and sl_n(A): its term t^d1 wedge t^d2 is keyed by the degree pair (d1, d2),
d1 < d2.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub
from typing import NamedTuple

from .eala import BuiltE, build_E, default_iara_data
from .graded import AlgElement, GradedAssocAlgebra, Sum, memo
from .lattices import box
# kernel and mat_rank stay importable from here: the benchmark hooks them by
# these names.
from .linalg import kernel, rank as mat_rank, rref  # noqa: F401
from .matlie import MatLieElement, MatrixLieAlgebra, bracket as mat_bracket
from .report import AxiomReport


class WedgeElement(Sum):
    """Element of A wedge A in the monomial-pair basis (not yet modulo B):
    terms maps a degree pair (d1, d2), d1 < d2, to the nonzero coefficient
    of t^d1 wedge t^d2."""

    __slots__ = ()

    @classmethod
    def zero(cls, A):
        return cls._zero_free(A, {})

    def degrees(self):
        return sorted({tuple(map(add, d1, d2)) for d1, d2 in self.terms})

    def commutator_image(self) -> AlgElement:
        A = self.owner
        out = A.zero()
        for (d1, d2), c in self.terms.items():
            m1 = AlgElement(A, {d1: A.field.one})
            m2 = AlgElement(A, {d2: A.field.one})
            out = out + (m1 * m2 - m2 * m1) * c
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})<{d1}, {d2}>" for (d1, d2), c in sorted(self.terms.items()))


def wedge(a: AlgElement, b: AlgElement, into=None):
    """a wedge b, expanded bilinearly over the monomial basis; or, given a
    zero-free terms dict into, added into it in place (kept zero-free), and
    None returned.  a and b must be of one algebra (Sum's owner check)."""
    a._check(b)
    out = {} if into is None else into
    for d1, c1 in a.terms.items():
        for d2, c2 in b.terms.items():
            if d1 == d2:
                continue
            if d1 < d2:
                key, c = (d1, d2), c1 * c2
            else:
                key, c = (d2, d1), -(c1 * c2)
            cur = out.get(key)
            s = c if cur is None else cur + c
            if s:
                out[key] = s
            elif cur is not None:
                del out[key]
    return WedgeElement._zero_free(a.owner, out) if into is None else None


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
    own relation rref, built once per degree by block.
    """

    def __init__(self, A: GradedAssocAlgebra, window: int):
        self.A = A
        self.window = window
        self.degs = [tuple(d) for d in box(A.n, window) if A.in_support(d)]
        self._degset = set(self.degs)
        one = A.field.one
        # The monomial t^d of each degree d of the window.
        self._mono = {d: AlgElement._zero_free(A, {d: one}) for d in self.degs}

    @memo
    def _product(self, d1, d2) -> AlgElement:
        """t^d1 t^d2, formed once for all blocks."""
        return self._mono[d1] * self._mono[d2]

    @memo
    def block(self, deg) -> WedgeBlock:
        """Keys (d1, d2), d1 < d2, with d1 + d2 = deg on the window, and the rref of the
        relations (a, b, c) of that total degree whose pairwise degree sums
        stay on the window."""
        A, degset = self.A, self._degset
        # The degrees d of the window whose complement deg - d is on it too,
        # in lexicographic order.
        partners = [d for d in self.degs if tuple(map(sub, deg, d)) in degset]
        keys = []
        for d1 in partners:
            d2 = tuple(map(sub, deg, d1))
            if d1 < d2:
                keys.append((d1, d2))
        index = {k: i for i, k in enumerate(keys)}
        # A cyclic shift of (a, b, c) gives the same relation, so only the
        # least shift is formed; over a commutative A any permutation does,
        # and a set of rows keeps one.  With c = deg - a - b, the sums b + c
        # and c + a are deg - a and deg - b, and a + b = deg - c, so a, b and
        # c all range over partners.  The least shift starts with the least
        # degree, so da <= db and da <= dc, and (da, db, da) with db > da is
        # the shift (da, da, db).
        pset = set(partners)
        mono, product, zero = self._mono, self._product, A.field.zero
        rel_rows = {}
        for i, da in enumerate(partners):
            rest = tuple(map(sub, deg, da))
            for db in partners[i:]:
                dc = tuple(map(sub, rest, db))
                if dc < da or dc == da != db or dc not in pset:
                    continue
                rel = {}
                wedge(product(da, db), mono[dc], rel)
                wedge(product(db, dc), mono[da], rel)
                wedge(product(dc, da), mono[db], rel)
                if rel:
                    row = [zero] * len(keys)
                    for k, v in rel.items():
                        row[index[k]] = v
                    rel_rows[tuple(row)] = None
        rel_rows = [list(row) for row in rel_rows]
        rows, pivots = rref(rel_rows, A.field) if rel_rows else ([], [])
        return WedgeBlock(keys, index, rows[:len(pivots)], pivots)

    def _reduced_parts(self, w: WedgeElement):
        """(block, reduced coordinates) for each total degree of w."""
        parts = {}
        for k, c in w.terms.items():
            d1, d2 = k
            if d1 not in self._degset or d2 not in self._degset:
                raise ValueError(f"wedge term {k} outside window {self.window}")
            parts.setdefault(tuple(map(add, d1, d2)), {})[k] = c
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
    J. Funct. Anal. 135, 1996).  A group algebra (every q_ij = 1) on the
    support N^n or {0} is smooth, so HC_1 = Omega^1/dA: in a degree sigma of
    the support, Omega^1 has the t^(sigma - e_i) dt_i with sigma_i != 0 and
    dA the one d t^sigma when sigma != 0.  Quantum tori with some
    q_ij != 1 on a bounded support are not covered.
    """
    deg = tuple(deg)
    if A.support is not None and any(x != A.field.one for row in A.q for x in row):
        raise ValueError(f"HC_1 is decided for quantum tori on all of Z^n and group algebras; got "
                         f"a quantum torus with q != 1 on the support {A.support!r}")
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
        # The wedge part of every element without one; no caller mutates it.
        self._wzero = WedgeElement.zero(A)

    @memo
    def wedge_window(self, window: int) -> "WedgeWindow":
        """The quotient (A wedge A)/B on the window, one per window."""
        return WedgeWindow(self.A, window)

    def zero(self):
        return UceElement(self, self._wzero, self.sl.zero())

    def from_matrix(self, m: MatLieElement) -> UceElement:
        if m.trace():
            raise ValueError("matrix part must have exact trace zero")
        return UceElement(self, self._wzero, m)

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
        # Emptiness is read off the zero-free terms dicts, with no __bool__
        # call.
        # sigma part of [m1, m2], summed in one dict over the pairs where an
        # (i,j) entry of m1 meets the (j,i) entry of m2:
        wterms = {}
        e2 = m2.terms
        for (i, j), a in m1.terms.items():
            b = e2.get((j, i))
            if b is not None:
                wedge(a, b, wterms)
        wout = WedgeElement._zero_free(self.A, wterms).scale(self._ninv) if wterms else self._wzero
        mout = mat_bracket(m1, m2)
        # tr(mout) from its diagonal entries; None when it has none, as for
        # every st2 and st3 bracket.
        tr = None
        for (i, j), v in mout.terms.items():
            if i == j:
                tr = v if tr is None else tr + v
        if tr is not None and tr.terms:
            corr = tr * self._ninv
            mout = mout - MatLieElement._zero_free(self.sl, {(i, i): corr for i in range(self.n)})
        # wedge-wedge and wedge-matrix parts act through commutator images.
        if w1.terms:
            u_w1 = w1.commutator_image()
            mout = mout + MatLieElement(self.sl, {
                k: (u_w1 * v - v * u_w1) for k, v in e2.items()
            })
        if w2.terms:
            u_w2 = w2.commutator_image()
            mout = mout - MatLieElement(self.sl, {
                k: (u_w2 * v - v * u_w2) for k, v in m1.terms.items()
            })
            if w1.terms:
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


def steinberg_check(U: UceAlgebra) -> AxiomReport:
    """st1-st3, which hold by construction for every coordinate algebra A.

    X_ij(a) is E(i, j, a) with no wedge part, so st1, X_ij(a + b) =
    X_ij(a) + X_ij(b), is the linearity of E(i, j, .).  For i, j and l
    distinct, E_ij(a) E_jl(b) = E_il(ab) and E_jl(b) E_ij(a) = 0; for
    j != l and i != m, E_ij(a) and E_lm(b) multiply to 0 both ways.
    UceAlgebra.bracket sums its wedge part only where an (i, j) entry of one
    operand meets the (j, i) entry of the other, and no st2 or st3 pair has
    one; their matrix parts have no diagonal entry, so no trace correction
    arises.  So [X_ij(a), X_jl(b)] = X_il(ab) (st2) and
    [X_ij(a), X_lm(b)] = 0 (st3) as identities of the bracket, not of A:
    they hold for every U, which is not read.  The wedge part, the cyclic
    2-cocycle of Kassel and Loday (Ann. Inst. Fourier 32, 1982), never
    enters them.  The scan that
    brackets every coefficient pair of a window is the test oracle
    steinberg_scan of tests/uce_reference.py.
    """
    rep = AxiomReport()
    rep.add("st1", True, note="by construction: X_ij(a) is E_ij(a) with no wedge part, "
                              "and E(i, j, .) is linear")
    rep.add("st2", True, note="by construction: E_ij(a) E_jl(b) = E_il(ab) and "
                              "E_jl(b) E_ij(a) = 0, and no (i, j) entry meets a (j, i) "
                              "entry, so no wedge part or diagonal arises")
    rep.add("st3", True, note="by construction: E_ij(a) and E_lm(b) multiply to 0 both "
                              "ways for j != l and i != m, so no wedge part or diagonal "
                              "arises")
    return rep


# The untwisted affine Lie algebra E = (sl_m tensor K[t,t^-1]) + Kc + Kd.


class _SmallMatrixLie(MatrixLieAlgebra):
    """sl_n(A) without the n >= 3 gate, for the affine algebra over sl_2."""

    min_n = 2


def build_affine(m: int) -> BuiltE:
    """The untwisted affine algebra over sl_m as E = C + L + D with
    L = sl_m(K[t,t^-1]), D = K d (the degree derivation), C = D* (c pairs
    with d to 1) and tau = 0.  The construction data are validated exactly:
    sigma_D(L, L) is read off the degree 1 (see eala._sigma_rows)."""
    if m < 2:
        raise ValueError("need m >= 2")
    A = GradedAssocAlgebra.laurent()
    L = MatrixLieAlgebra(m, A) if m >= 3 else _SmallMatrixLie(m, A)
    return build_E(default_iara_data(L, C="dual"))

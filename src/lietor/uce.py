"""Universal central extensions of sl_n(A), first cyclic homology, the loop
cocycle and the three-step affine construction, plus multiloop algebras.

<A,A> = (A wedge A)/B with B spanned by ab^c + bc^a + ca^b.  The kernel of
<a,b> -> [a,b] is HC_1(A); windowed dimensions are only reported once they
agree on two consecutive windows.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .graded import (
    AlgElement,
    FiniteDimAlgebra,
    GradedAssocAlgebra,
    degree_derivations,
)
from .lattices import box
# mat_rank stays importable from here: the benchmark hooks it by this name.
from .linalg import identity, kernel, mat_mul, rank as mat_rank, rref, solve  # noqa: F401
from .matlie import MatLieElement, MatrixLieAlgebra, bracket as mat_bracket, lift_derivation
from .report import AxiomReport
from .scalars import QQ


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

    def degree_component(self, deg):
        deg = tuple(deg)
        return WedgeElement(self.A, {
            k: v for k, v in self.terms.items()
            if tuple(a + b for a, b in zip(k[0][0], k[1][0])) == deg
        })

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

    def reduce(self, w: WedgeElement) -> WedgeElement:
        return WedgeElement(self.A, {
            blk.keys[i]: c for blk, v in self._reduced_parts(w) for i, c in enumerate(v) if c
        })

    def is_zero_mod_b(self, w: WedgeElement) -> bool:
        return not any(any(v) for _, v in self._reduced_parts(w))


def wedge_reduce(w: WedgeElement, window: int) -> WedgeElement:
    return WedgeWindow(w.A, window).reduce(w)


def hc1_component(A: GradedAssocAlgebra, deg, max_window: int = 8):
    """(dimension, window, stable) for HC_1(A) in one lattice degree.

    The dimension is ker(<a,b> -> [a,b]) modulo B, computed per window from
    window 2 on and reported once two consecutive windows agree, so
    max_window must be at least 3.
    """
    if max_window < 3:
        raise ValueError(f"HC_1 compares two windows >= 2, so it needs max window >= 3 "
                         f"(got {max_window})")
    deg = tuple(deg)
    prev = None
    for w in range(2, max_window + 1):
        dim = _hc1_dim_window(A, deg, w)
        if prev is not None and dim == prev:
            return {"dim": dim, "window": w, "stable": True}
        prev = dim
    return {"dim": prev, "window": max_window, "stable": False}


def _hc1_dim_window(A: GradedAssocAlgebra, deg, window: int) -> int:
    """dim of ker(<a,b> -> [a,b]) modulo B in one degree: the commutator
    kernel on the block's keys less the rank of its relations."""
    blk = WedgeWindow(A, window).block(deg)
    if not blk.keys:
        return 0
    cols = []
    for k in blk.keys:
        img = WedgeElement(A, {k: A.field.one}).commutator_image()
        cols.append([img.coefficient(deg, s) for s in range(A.bdim)])
    m = [list(row) for row in zip(*cols)]
    return len(kernel(m, A.field, len(blk.keys))) - len(blk.pivots)


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

    def from_wedge(self, w: WedgeElement) -> UceElement:
        return UceElement(self, w, self.sl.zero())

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
        ninv = _field_fraction(self.field, Fraction(1, self.n))
        wout = wout.scale(ninv)
        # wedge-wedge and wedge-matrix parts act through commutator images.
        u_w1 = w1.commutator_image()
        u_w2 = w2.commutator_image()
        if w1 and w2:
            wout = wout + wedge(u_w1, u_w2)
        mout = mat_bracket(m1, m2)
        tr = mout.trace()
        if tr:
            corr = {(i, i): tr * ninv for i in range(self.n)}
            mout = mout - MatLieElement(self.sl, corr)
        if w1:
            mout = mout + MatLieElement(self.sl, {
                k: (u_w1 * v - v * u_w1) for k, v in m2.entries.items()
            })
        if w2:
            mout = mout - MatLieElement(self.sl, {
                k: (u_w2 * v - v * u_w2) for k, v in m1.entries.items()
            })
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


def _field_fraction(field, fr: Fraction):
    if field is QQ:
        return fr
    return field(fr)


def build_uce_sl(n: int, A: GradedAssocAlgebra) -> UceAlgebra:
    return UceAlgebra(n, A)


def steinberg_check(U: UceAlgebra, window: int = 2) -> AxiomReport:
    """st1-st3 on windowed homogeneous coefficients."""
    rep = AxiomReport()
    A = U.A
    degs = [d for d in box(A.n, window) if A.in_support(d)]
    mono = [AlgElement(A, {(tuple(d), s): A.field.one}) for d in degs for s in range(A.bdim)]

    a0, b0 = mono[0], mono[-1]
    lin = (U.x(0, 1, a0 + b0).m == (U.x(0, 1, a0) + U.x(0, 1, b0)).m)
    rep.add("st1", lin)

    idx = range(U.n)
    ok, witness = True, None
    for i, j, l in itertools.permutations(idx, 3):
        for a in mono:
            for b in mono:
                got = U.bracket(U.x(i, j, a), U.x(j, l, b))
                want = U.x(i, l, a * b)
                if got.m != want.m or got.w:
                    ok, witness = False, f"st2 fails at ({i},{j},{l})"
                    break
            if not ok:
                break
        if not ok:
            break
    rep.add("st2", ok, witness, window=window)

    ok, witness = True, None
    quads = [(i, j, l, m) for i in idx for j in idx for l in idx for m in idx
             if i != j and l != m and i != m and j != l]
    for i, j, l, m in quads:
        for a in mono[:2]:
            for b in mono[-2:]:
                got = U.bracket(U.x(i, j, a), U.x(l, m, b))
                if got.m or got.w:
                    ok, witness = False, f"st3 fails at ({i},{j},{l},{m})"
                    break
            if not ok:
                break
        if not ok:
            break
    rep.add("st3", ok, witness, window=window)
    return rep


# The untwisted affine Lie algebra E = (g tensor K[t,t^-1]) + Kc + Kd.


class AffineElement:
    __slots__ = ("E", "loop", "c", "d")

    def __init__(self, E, loop: MatLieElement, c, d):
        self.E = E
        self.loop = loop
        self.c = c
        self.d = d

    def __add__(self, other):
        return AffineElement(self.E, self.loop + other.loop, self.c + other.c, self.d + other.d)

    def __sub__(self, other):
        return AffineElement(self.E, self.loop - other.loop, self.c - other.c, self.d - other.d)

    def __neg__(self):
        return AffineElement(self.E, -self.loop, -self.c, -self.d)

    def scale(self, s):
        return AffineElement(self.E, self.loop.scale(s), self.c * s, self.d * s)

    def __eq__(self, other):
        if not isinstance(other, AffineElement):
            return NotImplemented
        return self.loop == other.loop and self.c == other.c and self.d == other.d

    def is_zero(self):
        return not self.loop and not self.c and not self.d

    def __repr__(self):
        return f"({self.loop}) + ({self.c})c + ({self.d})d"


class AffineLie:
    """Untwisted affine Lie algebra over g = sl_m(Q).

    kappa is the invariant form on g used by the central cocycle; the
    default is the trace form kappa(x, y) = tr(xy).
    """

    def __init__(self, m: int, kappa=None):
        if m < 2:
            raise ValueError("need m >= 2")
        self.m = m
        self.A = GradedAssocAlgebra.laurent()
        self.gl = MatrixLieAlgebra(m, self.A) if m >= 3 else _SmallMatrixLie(m, self.A)
        self._ddelta = degree_derivations(self.A)[0]
        self._lift = lift_derivation(self.gl, self._ddelta.apply)
        self._kappa = kappa

    def zero(self):
        return AffineElement(self, self.gl.zero(), Fraction(0), Fraction(0))

    def from_loop(self, x: MatLieElement):
        return AffineElement(self, x, Fraction(0), Fraction(0))

    def c(self):
        return AffineElement(self, self.gl.zero(), Fraction(1), Fraction(0))

    def d(self):
        return AffineElement(self, self.gl.zero(), Fraction(0), Fraction(1))

    def loop_cocycle(self, x: MatLieElement, y: MatLieElement) -> Fraction:
        """sigma(x tensor t^p, y tensor t^q) = delta_(p+q,0) p kappa(x, y).

        A custom kappa is called on entry dicts (i, j) -> coefficient of the
        graded pieces x_p and y_(-p).
        """
        if self._kappa is not None:
            out = Fraction(0)
            for p in {d[0] for v in x.entries.values() for d in v.degrees()}:
                xmat = {k: v.coefficient((p,)) for k, v in x.entries.items()}
                ymat = {k: v.coefficient((-p,)) for k, v in y.entries.items()}
                if any(xmat.values()) and any(ymat.values()):
                    out += Fraction(p) * self._kappa(xmat, ymat)
            return out
        prod = self._lift(x).matmul(y)
        return prod.trace().coefficient((0,))

    def kappa_loop(self, x: MatLieElement, y: MatLieElement) -> Fraction:
        return x.matmul(y).trace().coefficient((0,))

    def bracket(self, e1: AffineElement, e2: AffineElement) -> AffineElement:
        loop = mat_bracket(e1.loop, e2.loop)
        if e1.d:
            loop = loop + self._lift(e2.loop).scale(e1.d)
        if e2.d:
            loop = loop - self._lift(e1.loop).scale(e2.d)
        cpart = self.loop_cocycle(e1.loop, e2.loop)
        return AffineElement(self, loop, cpart, Fraction(0))

    def form(self, e1: AffineElement, e2: AffineElement) -> Fraction:
        return self.kappa_loop(e1.loop, e2.loop) + e1.c * e2.d + e2.c * e1.d

    def cartan_basis(self):
        h = [self.from_loop(self.gl.E(i, i) - self.gl.E(i + 1, i + 1)) for i in range(self.m - 1)]
        return h + [self.c(), self.d()]

    def root_space_dims(self, window: int):
        """dims of E_(m delta) and E_(alpha + m delta) from the graded pieces."""
        dims = {}
        for k in range(-window, window + 1):
            key = ("delta", k)
            if k == 0:
                dims[key] = len(self.cartan_basis())
            else:
                dims[key] = self.m - 1
            for i in range(self.m):
                for j in range(self.m):
                    if i != j:
                        dims[("root", i, j, k)] = 1
        return dims

    def verify_root_spaces(self, window: int) -> bool:
        """[h, x] eigenvalues match for loop basis elements on the window."""
        hbasis = self.cartan_basis()
        for k in range(-window, window + 1):
            mono = self.A.monomial((k,))
            for i in range(self.m):
                for j in range(self.m):
                    if i == j:
                        continue
                    x = self.from_loop(self.gl.E(i, j, mono))
                    for idx in range(self.m - 1):
                        ev = (1 if idx == i else 0) - (1 if idx + 1 == i else 0)
                        ev -= (1 if idx == j else 0) - (1 if idx + 1 == j else 0)
                        got = self.bracket(hbasis[idx], x)
                        if got != x.scale(Fraction(ev)):
                            return False
                    if self.bracket(self.d(), x) != x.scale(Fraction(k)):
                        return False
            for idx in range(self.m - 1):
                x = self.from_loop(self.gl.E(idx, idx, mono) - self.gl.E(idx + 1, idx + 1, mono))
                if self.bracket(self.d(), x) != x.scale(Fraction(k)):
                    return False
                if not self.bracket(self.c(), x).is_zero():
                    return False
        return True


class _SmallMatrixLie(MatrixLieAlgebra):
    """sl_2-sized matrix algebra for loop constructions (no n >= 3 gate)."""

    def __init__(self, n, A):
        self.n = n
        self.A = A
        self.field = A.field
        from .rootsys import build_classical

        self.S = build_classical("A", n - 1)
        self.z_rank = A.n
        self._diag_cache = {}


def build_affine(m: int) -> AffineLie:
    return AffineLie(m)


def sl_structure_algebra(m: int, field) -> tuple:
    """sl_m as a finite-dimensional algebra by structure constants.

    Returns (FiniteDimAlgebra with the commutator product, basis matrices).
    """
    basis = []
    for i in range(m):
        for j in range(m):
            if i != j:
                mat = [[field.zero] * m for _ in range(m)]
                mat[i][j] = field.one
                basis.append(mat)
    for i in range(m - 1):
        mat = [[field.zero] * m for _ in range(m)]
        mat[i][i] = field.one
        mat[i + 1][i + 1] = -field.one
        basis.append(mat)
    dim = len(basis)
    flat = [[v for row in b for v in row] for b in basis]
    coord_cols = [list(col) for col in zip(*flat)]

    def coords(mat):
        target = [v for row in mat for v in row]
        sol = solve(coord_cols, target, field)
        if sol is None:
            raise ValueError("matrix outside sl_m")
        return sol

    def mul(a, b):
        return [[sum((a[i][k] * b[k][j] for k in range(m)), field.zero) for j in range(m)]
                for i in range(m)]

    table = []
    for a in basis:
        row = []
        for b in basis:
            comm = [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(mul(a, b), mul(b, a))]
            row.append(coords(comm))
        table.append(row)
    alg = FiniteDimAlgebra(field, dim, table, [field.zero] * dim)
    return alg, basis, coords


class MultiloopAlgebra:
    """M_m(A, sigma) = sum of eigenspace components A^(pi(lam)) z^lam."""

    def __init__(self, base: FiniteDimAlgebra, sigmas, orders, field):
        self.base = base
        self.sigmas = [list(map(list, s)) for s in sigmas]
        self.orders = list(orders)
        self.r = len(sigmas)
        self.field = field
        eye = identity(base.dim, field)
        for idx, (s, m) in enumerate(zip(self.sigmas, self.orders)):
            acc = eye
            for _ in range(m):
                acc = mat_mul(s, acc, field)
            if acc != eye:
                raise ValueError(f"sigma_{idx} does not have order dividing {m}")
        for a in range(self.r):
            for b in range(a + 1, self.r):
                if mat_mul(self.sigmas[a], self.sigmas[b], field) != mat_mul(
                        self.sigmas[b], self.sigmas[a], field):
                    raise ValueError(f"sigma_{a} and sigma_{b} do not commute")
        self._zetas = []
        from .graded import field_root_of_unity

        for m in self.orders:
            z = field_root_of_unity(field, m)
            if z is None:
                raise ValueError(f"field has no primitive {m}-th root of unity")
            self._zetas.append(z)
        self._eig_cache = {}

    def eigenspace(self, lam):
        key = tuple(int(x) % m for x, m in zip(lam, self.orders))
        if key in self._eig_cache:
            return self._eig_cache[key]
        rows = []
        dim = self.base.dim
        for s, z, k in zip(self.sigmas, self._zetas, key):
            zk = self.field.one
            for _ in range(k):
                zk = zk * z
            for i in range(dim):
                rows.append([s[i][j] - (zk if i == j else self.field.zero) for j in range(dim)])
        basis = kernel(rows, self.field, dim)
        self._eig_cache[key] = basis
        return basis

    def dim_of_degree(self, lam) -> int:
        return len(self.eigenspace(lam))

    def eigenspace_dims_sum_ok(self) -> bool:
        """Eigenspace dimensions over one period sum to dim(A)."""
        total = sum(
            len(self.eigenspace(key))
            for key in itertools.product(*[range(m) for m in self.orders])
        )
        return total == self.base.dim


def build_multiloop(base: FiniteDimAlgebra, sigmas, orders, field) -> MultiloopAlgebra:
    return MultiloopAlgebra(base, sigmas, orders, field)

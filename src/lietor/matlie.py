"""sl_n over a graded associative coordinate algebra.

sl_n(A) = {x in gl_n(A) : tr(x) in [A,A]} carries the root grading by
A_(n-1) together with the lattice grading of A.  n >= 3 throughout; the
product formula that recovers A from the Lie algebra needs three distinct
indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graded import AlgElement, GradedAssocAlgebra, graded_form
from .lattices import box
from .linalg import kernel, rank as mat_rank
from .rootsys import RootSystem, build_classical, indivisible_part, vec_is_zero


class MatLieElement:
    """Finitely supported n x n matrix with AlgElement entries."""

    __slots__ = ("L", "entries")

    def __init__(self, L, entries=None):
        self.L = L
        self.entries = {k: v for k, v in (entries or {}).items() if v}

    def __add__(self, other):
        self._check(other)
        out = dict(self.entries)
        for k, v in other.entries.items():
            w = out.get(k)
            s = v if w is None else w + v
            if s:
                out[k] = s
            elif w is not None:
                del out[k]
        return MatLieElement(self.L, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return MatLieElement(self.L, {k: -v for k, v in self.entries.items()})

    def scale(self, c):
        return MatLieElement(self.L, {k: v * c for k, v in self.entries.items()})

    def _check(self, other):
        if other.L is not self.L:
            raise ValueError("elements of different matrix algebras")

    def __bool__(self):
        return bool(self.entries)

    def __eq__(self, other):
        if not isinstance(other, MatLieElement):
            return NotImplemented
        return self.L is other.L and self.entries == other.entries

    def trace(self) -> AlgElement:
        t = self.L.A.zero()
        for (i, j), v in self.entries.items():
            if i == j:
                t = t + v
        return t

    def matmul(self, other) -> MatLieElement:
        self._check(other)
        out = {}
        for (i, k), a in self.entries.items():
            for (k2, j), b in other.entries.items():
                if k != k2:
                    continue
                p = a * b
                if p:
                    key = (i, j)
                    cur = out.get(key)
                    out[key] = p if cur is None else cur + p
        return MatLieElement(self.L, {k: v for k, v in out.items() if v})

    def decompose(self):
        """Map (root, lattice degree) -> component element."""
        out = {}
        zero_root = (Fraction(0),) * self.L.n
        for (i, j), v in self.entries.items():
            root = self.L.root_of(i, j) if i != j else zero_root
            for deg in v.degrees():
                comp = v.component(deg)
                key = (root, deg)
                cur = out.get(key)
                add = MatLieElement(self.L, {(i, j): comp})
                out[key] = add if cur is None else cur + add
        return out

    def __repr__(self):
        if not self.entries:
            return "0"
        return " + ".join(
            f"[{v}]E({i},{j})" for (i, j), v in sorted(self.entries.items(), key=lambda kv: kv[0])
        )


@dataclass
class Sl2Triple:
    e: MatLieElement
    h: MatLieElement
    f: MatLieElement

    def relations_hold(self) -> bool:
        L = self.e.L
        return (
            bracket(self.e, self.f) == -self.h
            and bracket(self.h, self.e) == self.e.scale(L.A.field.from_int(2))
            and bracket(self.h, self.f) == self.f.scale(L.A.field.from_int(-2))
        )


class MatrixLieAlgebra:
    """sl_n(A) for a Z^m-graded unital associative algebra A.

    blocks are the diagonal index ranges [lo, hi) that carry an sl factor:
    one block for sl_n(A), several for DirectSumSl.
    """

    min_n = 3

    def __init__(self, n: int, A: GradedAssocAlgebra):
        if n < self.min_n:
            raise ValueError("sl_n(A) needs n >= 3 (product formula needs three indices)")
        self.n = n
        self.A = A
        self.field = A.field
        self.S = build_classical("A", n - 1)
        self.z_rank = A.n
        self.blocks = ((0, n),)
        self._diag_cache = {}

    def _same_block(self, i, j):
        return any(lo <= i < hi and lo <= j < hi for lo, hi in self.blocks)

    def root_of(self, i, j):
        v = [Fraction(0)] * self.n
        v[i] = Fraction(1)
        v[j] = Fraction(-1)
        return tuple(v)

    def zero(self):
        return MatLieElement(self, {})

    def E(self, i, j, a=None) -> MatLieElement:
        if a is None:
            a = self.A.one()
        if not isinstance(a, AlgElement):
            a = self.A.one() * a
        return MatLieElement(self, {(i, j): a})

    def cartan(self, i, j) -> MatLieElement:
        """E_ii - E_jj."""
        return self.E(i, i) - self.E(j, j)

    def cartan_basis(self):
        return [self.cartan(i, i + 1) for lo, hi in self.blocks for i in range(lo, hi - 1)]

    def in_cartan(self, x: MatLieElement) -> bool:
        """Is x in the span of the Cartan basis (scalar diagonals, trace 0 on
        each block)?"""
        zero_deg = (0,) * self.z_rank
        for (i, j), v in x.entries.items():
            if i != j or v.degrees() != [zero_deg]:
                return False
        return not any(sum((x.entries[(i, i)] for i in range(lo, hi) if (i, i) in x.entries),
                           self.A.zero())
                       for lo, hi in self.blocks)

    def homog_basis(self, root, deg):
        """Basis of the (root, lattice degree) homogeneous space."""
        root = tuple(root)
        deg = tuple(deg)
        if vec_is_zero(root):
            return self._diag_basis(deg)
        pair = self._root_indices(root)
        if pair is None or not self._same_block(*pair):
            return []
        i, j = pair
        return [self.E(i, j, b) for b in self.A.basis_of_degree(deg)]

    def _root_indices(self, root):
        i = j = None
        for k, v in enumerate(root):
            if v == 1:
                i = k
            elif v == -1:
                j = k
            elif v:
                return None
        if i is None or j is None:
            return None
        return i, j

    def _diag_basis(self, deg):
        deg = tuple(deg)
        got = self._diag_cache.get(deg)
        if got is not None:
            return got
        out = self._diag_basis_uncached(deg)
        self._diag_cache[deg] = out
        return out

    def _diag_basis_uncached(self, deg):
        """Per block, the diagonals over A^deg whose trace lies in [A,A]^deg."""
        if not self.A.basis_of_degree(deg):
            return []
        bdim = self.A.bdim
        comm = self.A.commutator_component(deg, window=3)
        comm_rows = [[c.coefficient(deg, k) for k in range(bdim)] for c in comm]
        # Functionals on A^deg vanishing on [A,A]^deg.
        functionals = kernel(comm_rows, self.field, bdim)
        out = []
        for lo, hi in self.blocks:
            # Unknowns: hi - lo slots of bdim coordinates; constraints: each
            # functional kills the diagonal sum.
            m = (hi - lo) * bdim
            rows = [[f[t % bdim] for t in range(m)] for f in functionals]
            sols = kernel(rows, self.field, m)
            for v in sols:
                entries = {}
                for i in range(lo, hi):
                    coeffs = v[(i - lo) * bdim:(i - lo + 1) * bdim]
                    if any(coeffs):
                        entries[(i, i)] = AlgElement(
                            self.A, {(deg, k): c for k, c in enumerate(coeffs) if c})
                out.append(MatLieElement(self, entries))
        return out

    def jacobi_holds(self, x: MatLieElement, y: MatLieElement, z: MatLieElement) -> bool:
        return not (bracket(bracket(x, y), z) + bracket(bracket(y, z), x)
                    + bracket(bracket(z, x), y))

    def windowed_basis(self, window: int):
        """Homogeneous basis across all roots and windowed lattice degrees."""
        out = []
        for deg in box(self.z_rank, window):
            if not self.A.in_support(deg):
                continue
            for lo, hi in self.blocks:
                for i in range(lo, hi):
                    for j in range(lo, hi):
                        if i != j:
                            for b in self.A.basis_of_degree(deg):
                                out.append(self.E(i, j, b))
            out.extend(self._diag_basis(deg))
        return out


def bracket(x: MatLieElement, y: MatLieElement) -> MatLieElement:
    return x.matmul(y) - y.matmul(x)


def is_invertible(L: MatrixLieAlgebra, x: MatLieElement, action_window: int = None):
    """Sl2 triple for an invertible homogeneous off-diagonal element, else None.

    With action_window set, the eigenvalue law [h, x_q] = <q, alpha_check> x_q
    is also verified on the windowed homogeneous elements.
    """
    if len(x.entries) != 1:
        return None
    ((i, j), a), = x.entries.items()
    if i == j:
        return None
    ainv = L.A.try_invert(a)
    if ainv is None:
        return None
    f = L.E(j, i, ainv).scale(L.field.from_int(-1))
    h = bracket(f, x)
    triple = Sl2Triple(e=x, h=h, f=f)
    if not triple.relations_hold():
        return None
    if action_window is not None:
        if not eigenvalue_law_holds(L, triple, L.root_of(i, j), action_window):
            return None
    return triple


def eigenvalue_law_holds(L: MatrixLieAlgebra, triple: Sl2Triple, root, window: int = 2) -> bool:
    """[h, x_q] = <q, alpha_check> x_q on windowed homogeneous elements."""
    S = L.S
    for q in S.sorted_roots():
        c = S.pairing(q, tuple(root))
        for deg in box(L.z_rank, window):
            for b in L.homog_basis(q, deg):
                if bracket(triple.h, b) != b.scale(L.field.from_int(int(c))):
                    return False
    return True


class SlInvariantForm:
    """(x | y) = phi-form applied entrywise: sum_ij (x_ij | y_ji)_A."""

    def __init__(self, L: MatrixLieAlgebra, phi, window: int = 3):
        self.L = L
        self.gf = graded_form(L.A, phi, window)

    def pair(self, x: MatLieElement, y: MatLieElement):
        out = self.L.field.zero
        for (i, j), a in x.entries.items():
            b = y.entries.get((j, i))
            if b is not None:
                out = out + self.gf.pair(a, b)
        return out

    def nondegenerate_on_window(self, window: int) -> bool:
        """Nondegenerate exactly when the coordinate-algebra form is."""
        return self.gf.nondegenerate_on_window(window)


def invariant_form(L: MatrixLieAlgebra, phi, window: int = 3) -> SlInvariantForm:
    return SlInvariantForm(L, phi, window)


class IsotopedLie:
    """Same bracket, lattice grading shifted by a homomorphism Q(S) -> Z^m."""

    def __init__(self, L: MatrixLieAlgebra, iota_simple):
        self.L = L
        self.iota_simple = [tuple(int(x) for x in v) for v in iota_simple]
        if len(self.iota_simple) != L.n - 1:
            raise ValueError("iota must be given on the n-1 simple roots")

    def iota(self, root):
        """Value on eps_i - eps_j, extended additively from the simple roots."""
        coeffs = _simple_coordinates(self.L.n, root)
        out = [0] * self.L.z_rank
        for c, v in zip(coeffs, self.iota_simple):
            for t in range(self.L.z_rank):
                out[t] += c * v[t]
        return tuple(out)

    def homog_basis(self, root, deg):
        root = tuple(root)
        shift = self.iota(root) if any(root) else (0,) * self.L.z_rank
        target = tuple(d + s for d, s in zip(deg, shift))
        if not self.L.A.in_support(target):
            return []
        return self.L.homog_basis(root, target)


def _simple_coordinates(n, root):
    """Coordinates of eps_i - eps_j in the simple roots eps_k - eps_(k+1)."""
    coeffs = [0] * (n - 1)
    acc = 0
    # root = eps_i - eps_j has partial sums telescoping between i and j.
    for k in range(n - 1):
        acc += int(root[k])
        coeffs[k] = acc
    return coeffs


class DirectSumSl(MatrixLieAlgebra):
    """sl_n1(A) + sl_n2(A) as block-diagonal matrices inside gl_(n1+n2)(A).

    The quotient root system is the (reducible) orthogonal union of the two
    A-type systems; used to exercise the verifiers on disconnected roots.
    """

    def __init__(self, n1: int, n2: int, A: GradedAssocAlgebra):
        super().__init__(n1 + n2, A)
        self.blocks = ((0, n1), (n1, n1 + n2))
        roots = {(Fraction(0),) * self.n}
        for lo, hi in self.blocks:
            for i in range(lo, hi):
                for j in range(lo, hi):
                    if i != j:
                        roots.add(self.root_of(i, j))
        self.S = RootSystem(self.S.space, roots)


def lift_derivation(L: MatrixLieAlgebra, d):
    """Entrywise lift of a derivation of A to sl_n(A)."""

    def lifted(x: MatLieElement) -> MatLieElement:
        return MatLieElement(L, {k: d(v) for k, v in x.entries.items()})

    return lifted


def verify_root_graded(L, window: int = 2) -> dict:
    """RG1-RG3 plus the predivision / division / Lie-torus flags.

    The flags are a fact about (L, window): they are computed once and kept
    on L, so the eala verifiers can ask for them again at no cost.
    """
    cache = vars(L).setdefault("_root_graded_cache", {})
    if window not in cache:
        cache[window] = _root_graded(L, window)
    return dict(cache[window])


def invertible_triple(L: MatrixLieAlgebra, root, deg):
    """The sl2-triple of uE_ij for the unit u of A^deg, root = eps_i - eps_j
    a root of L; None when A^deg has no unit (see _root_graded)."""
    pair = L._root_indices(tuple(root))
    u = L.A.unit_of_degree(deg)
    if pair is None or not L._same_block(*pair) or u is None:
        return None
    i, j = pair
    return Sl2Triple(e=L.E(i, j, u), h=L.cartan(i, j),
                     f=L.E(j, i, L.A.try_invert(u)).scale(L.field.from_int(-1)))


def _root_graded(L, window: int) -> dict:
    """RG1-RG3 and the flags on the window, decided over the coordinates A.

    For a = eps_i - eps_j, L_a^d = A^d E_ij, and xE_ij is invertible (it
    lies in an sl2-triple (e, h, f) whose h acts on each L_q by <q, a_check>,
    as is_invertible(..., action_window=w) tests) exactly when x is a unit
    of A.  If it is, f = -x^-1 E_ji gives h = E_ii - E_jj.  Conversely
    f = yE_ji for some y in A^-d, h = xyE_ii - yxE_jj, and h acting by 1 on
    E_ik and on E_kj (k a third index, n >= 3) gives xy = 1 = yx.  So RG2
    asks for a unit in A^0 and predivision for a unit in each windowed
    A^d != 0: one A.unit_of_degree lookup per degree.  Division also needs
    every nonzero element of A^d to be a unit.  As A^d = A^0 u for a unit
    u, it equals predivision when bdim = 1; when bdim > 1 a basis vector b
    of B that is not a unit refutes it (bu is nonzero and not a unit), and
    otherwise it is left undecided (None).

    RG3: for unital A, [xE_ij, yE_ji] = xyE_ii - yxE_jj.  With y = 1 these
    are x(E_ii - E_jj), which span the trace-zero diagonals over A^d of each
    block, (n_b - 1) dim A^d of them; modulo those a bracket is [x, y]E_ii.
    So the brackets of windowed degrees span, per block,
    (n_b - 1) dim A^d + dim [A,A]^d, with [A,A]^d spanned by the commutators
    of windowed degrees (A.commutator_component), and RG3 holds at d iff
    that sum is dim L_0^d.  An isotope pairs A^(mu + iota(a)) with
    A^(d - mu - iota(a)) on the window, so its RG3 is decided on brackets.
    """
    iso = isinstance(L, IsotopedLie)
    base = L.L if iso else L
    A = base.A
    degs = box(base.z_rank, window)
    nz = [a for a in base.S.sorted_roots() if any(a)]

    prediv_witness = None
    for a in nz:
        bad = next((deg for deg in degs if A.in_support(_shifted(L, a, deg))
                    and A.unit_of_degree(_shifted(L, a, deg)) is None), None)
        if bad is not None:
            prediv_witness = f"no invertible element in {_space_name(L, a, bad)}"
            break

    division, division_witness = prediv_witness is None, prediv_witness
    if division and A.bdim > 1:
        division, division_witness = _division_beyond_dim_one(L, nz[0], degs)

    if iso:
        rg3_witness = _rg3_witness_by_brackets(L, window)
    else:
        rg3_witness = None
        for deg in degs:
            need = len(base._diag_basis(deg))
            have = (sum(hi - lo - 1 for lo, hi in base.blocks) * A.dim_of_degree(deg)
                    + len(base.blocks) * len(A.commutator_component(deg, window)))
            if have < need:
                rg3_witness = f"L_0^{_deg_name(deg)} not spanned by opposite-root brackets"
                break

    rg2_witness = _rg2_witness(L)
    return {
        "RG1": True,  # support inside A_(n-1) by construction of the entry grading
        "RG2": rg2_witness is None,
        "RG2_witness": rg2_witness,
        "RG3": rg3_witness is None,
        "RG3_witness": rg3_witness,
        "predivision": prediv_witness is None,
        "predivision_witness": prediv_witness,
        "division": division,
        "division_witness": division_witness,
        "torus": A.bdim == 1 and prediv_witness is None,
        "window": window,
    }


def _division_beyond_dim_one(L, a, degs):
    """(False, witness) when a basis vector b of B is not a unit, else
    (None, None): with a unit u of A^d, bu is a nonzero element of A^d that
    is not a unit; the degree-0 space of root a is preferred."""
    base = L.L if isinstance(L, IsotopedLie) else L
    A = base.A
    zero = (0,) * base.z_rank
    b = next((b for b in A.basis_of_degree(zero) if A.try_invert(b) is None), None)
    deg = next((d for d in [zero] + degs if A.unit_of_degree(_shifted(L, a, d))), None)
    if b is None or deg is None:
        return None, None
    i, j = base._root_indices(a)
    x = base.E(i, j, b * A.unit_of_degree(_shifted(L, a, deg)))
    return False, f"{x!r} in {_space_name(L, a, deg)} is nonzero and not invertible"


def _rg2_witness(L):
    """None if each L_a^0 (a indivisible, nonzero) holds an invertible
    element, else a witness: one unit lookup at degree iota(a) of A."""
    base = L.L if isinstance(L, IsotopedLie) else L
    zero = (0,) * base.z_rank
    for a in sorted(indivisible_part(base.S)):
        if any(a) and base.A.unit_of_degree(_shifted(L, a, zero)) is None:
            return f"no invertible element in {_space_name(L, a, zero)}"
    return None


def _shifted(L, root, deg):
    """The degree of A behind L_root^deg: deg + iota(root) on an isotope."""
    if not isinstance(L, IsotopedLie):
        return tuple(deg)
    return tuple(d + s for d, s in zip(deg, L.iota(root)))


def _deg_name(deg):
    return "(" + ", ".join(str(int(d)) for d in deg) + ")"


def _space_name(L, root, deg):
    """L_(eps_i - eps_j)^(d), or (L^iota)_... on an isotope."""
    base = L.L if isinstance(L, IsotopedLie) else L
    i, j = base._root_indices(tuple(root))
    return f"{'(L^iota)' if base is not L else 'L'}_(eps_{i} - eps_{j})^{_deg_name(deg)}"


def _rg3_witness_by_brackets(L: IsotopedLie, window: int):
    """RG3 of an isotope: the rank of the opposite-root brackets of windowed
    degrees against dim L_0^d."""
    base = L.L
    nz = [a for a in base.S.sorted_roots() if any(a)]
    zero_root = (Fraction(0),) * base.n
    for deg in box(base.z_rank, window):
        need = len(L.homog_basis(zero_root, deg))
        if not need:
            continue
        spans = []
        for a in nz:
            for mu in box(base.z_rank, window):
                rest = tuple(d - m for d, m in zip(deg, mu))
                if base.z_rank and max(abs(x) for x in rest) > window:
                    continue
                for xa in L.homog_basis(a, mu):
                    for xb in L.homog_basis(tuple(-t for t in a), rest):
                        br = bracket(xa, xb)
                        if br:
                            spans.append(_diag_coord_vec(base, br, deg))
        if (mat_rank(spans, base.field) if spans else 0) < need:
            return f"L_0^{_deg_name(deg)} not spanned by opposite-root brackets"
    return None


def _diag_coord_vec(L: MatrixLieAlgebra, x: MatLieElement, deg):
    deg = tuple(deg)
    bdim = L.A.bdim
    out = []
    for i in range(L.n):
        e = x.entries.get((i, i))
        for k in range(bdim):
            out.append(e.coefficient(deg, k) if e is not None else L.field.zero)
    return out

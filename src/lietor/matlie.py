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
from .report import AxiomReport
from .rootsys import RootSystem, build_classical, vec_is_zero
from .scalars import QQ


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
    """sl_n(A) for a Z^m-graded unital associative algebra A."""

    def __init__(self, n: int, A: GradedAssocAlgebra):
        if n < 3:
            raise ValueError("sl_n(A) needs n >= 3 (product formula needs three indices)")
        self.n = n
        self.A = A
        self.field = A.field
        self.S = build_classical("A", n - 1)
        self.z_rank = A.n
        self._diag_cache = {}

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
        return [self.cartan(i, i + 1) for i in range(self.n - 1)]

    def in_cartan(self, x: MatLieElement) -> bool:
        """Is x in the span of the Cartan basis (scalar diagonals, trace 0)?"""
        zero_deg = (0,) * self.z_rank
        for (i, j), v in x.entries.items():
            if i != j:
                return False
            if v.degrees() != [zero_deg]:
                return False
        return not x.trace()

    def in_sl(self, x: MatLieElement, window: int = 3) -> bool:
        t = x.trace()
        for deg in t.degrees():
            comp = t.component(deg)
            comm = self.A.commutator_component(deg, window)
            rows = [[c.coefficient(deg, k) for k in range(self.A.bdim)] for c in comm]
            vec = [comp.coefficient(deg, k) for k in range(self.A.bdim)]
            if not rows:
                if any(vec):
                    return False
                continue
            if mat_rank(rows, self.field) != mat_rank(rows + [vec], self.field):
                return False
        return True

    def homog_basis(self, root, deg):
        """Basis of the (root, lattice degree) homogeneous space."""
        root = tuple(root)
        deg = tuple(deg)
        if vec_is_zero(root):
            return self._diag_basis(deg)
        pair = self._root_indices(root)
        if pair is None:
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
        abasis = self.A.basis_of_degree(deg)
        if not abasis:
            return []
        bdim = self.A.bdim
        comm = self.A.commutator_component(deg, window=3)
        comm_rows = [[c.coefficient(deg, k) for k in range(bdim)] for c in comm]
        # Functionals on A^deg vanishing on [A,A]^deg.
        functionals = kernel(comm_rows, self.field, bdim) if comm_rows else [
            [self.field.one if t == s else self.field.zero for t in range(bdim)]
            for s in range(bdim)
        ]
        # Unknowns: n blocks of bdim coordinates; constraints: each functional
        # kills the diagonal sum.
        rows = []
        for f in functionals:
            rows.append([f[t % bdim] for t in range(self.n * bdim)])
        sols = kernel(rows, self.field, self.n * bdim) if rows else []
        if not rows:
            sols = [[self.field.one if t == s else self.field.zero for t in range(self.n * bdim)]
                    for s in range(self.n * bdim)]
        out = []
        for v in sols:
            entries = {}
            for i in range(self.n):
                coeffs = v[i * bdim:(i + 1) * bdim]
                if any(coeffs):
                    entries[(i, i)] = AlgElement(self.A, {(deg, k): c for k, c in enumerate(coeffs) if c})
            out.append(MatLieElement(self, entries))
        return out

    def windowed_basis(self, window: int):
        """Homogeneous basis across all roots and windowed lattice degrees."""
        out = []
        for deg in box(self.z_rank, window):
            if not self.A.in_support(deg):
                continue
            for i in range(self.n):
                for j in range(self.n):
                    if i != j:
                        for b in self.A.basis_of_degree(deg):
                            out.append(self.E(i, j, b))
            out.extend(self._diag_basis(deg))
        return out

    def lambda_support(self, root, window: int):
        """Windowed Lambda_root = {deg : L_root^deg != 0}."""
        return [deg for deg in box(self.z_rank, window) if self.homog_basis(root, deg)]


def bracket(x: MatLieElement, y: MatLieElement) -> MatLieElement:
    return x.matmul(y) - y.matmul(x)


def product_formula_check(L: MatrixLieAlgebra, a: AlgElement, b: AlgElement, i, j, l) -> bool:
    """ab E_ij = [[[a E_ij, E_jl], E_li], b E_ij] for distinct i, j, l."""
    if len({i, j, l}) != 3:
        raise ValueError("indices must be distinct")
    lhs = L.E(i, j, a * b)
    inner = bracket(L.E(i, j, a), L.E(j, l))
    inner = bracket(inner, L.E(l, i))
    rhs = bracket(inner, L.E(i, j, b))
    return lhs == rhs


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


def centre(L: MatrixLieAlgebra, window: int = 3):
    """Basis of Z(sl_n(A)) = {z E_n : z in Z(A), nz in [A,A]} on the window.

    Only finite index sets are representable; over an infinite index set the
    centre is {0} identically, which is documentation, not a computation.
    """
    out = []
    n = L.n
    for deg in box(L.z_rank, window):
        if not L.A.in_support(deg):
            continue
        bdim = L.A.bdim
        abasis = L.A.basis_of_degree(deg)
        if not abasis:
            continue
        # z central in A: [z, b] = 0 for windowed basis b.
        rows = []
        for dl in box(L.z_rank, window):
            for b in L.A.basis_of_degree(dl):
                target_deg = tuple(a + c for a, c in zip(deg, dl))
                for k in range(bdim):
                    row = []
                    for s in range(bdim):
                        zs = L.A.monomial(deg, sym=s)
                        c = (zs * b - b * zs).coefficient(target_deg, k)
                        row.append(c)
                    rows.append(row)
        central = kernel(rows, L.field, bdim) if rows else []
        if not central:
            continue
        # n z in [A,A]^deg.
        comm = L.A.commutator_component(deg, window)
        comm_rows = [[c.coefficient(deg, k) for k in range(bdim)] for c in comm]
        functionals = kernel(comm_rows, L.field, bdim) if comm_rows else [
            [L.field.one if t == s else L.field.zero for t in range(bdim)] for s in range(bdim)
        ]
        cond = []
        for f in functionals:
            cond.append([sum((L.field.from_int(n) * z[s] * f[s] for s in range(bdim)),
                             L.field.zero) for z in central])
        coeffs = kernel(cond, L.field, len(central)) if cond else [
            [L.field.one if t == s else L.field.zero for t in range(len(central))]
            for s in range(len(central))
        ]
        for cv in coeffs:
            zvec = [sum((cv[t] * central[t][s] for t in range(len(central))), L.field.zero)
                    for s in range(bdim)]
            z = AlgElement(L.A, {(deg, s): c for s, c in enumerate(zvec) if c})
            if z:
                out.append(MatLieElement(L, {(i, i): z for i in range(n)}))
    return out


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


def standard_toral(L: MatrixLieAlgebra, psi, window: int = 2):
    """Cartan h = span{E_ii - E_jj}; returns (basis, report)."""
    h_basis = [L.cartan(i, i + 1) for i in range(L.n - 1)]
    form = SlInvariantForm(L, psi, window)
    gram = [[form.pair(a, b) for b in h_basis] for a in h_basis]
    nondeg = mat_rank(gram, L.field) == len(h_basis)
    psi_vec = psi if isinstance(psi, (list, tuple)) else [psi]
    report = {
        "h_dim": len(h_basis),
        "form_on_h_nondegenerate": nondeg,
        "psi_at_1": psi_vec[0],
        "roots_match": _roots_match(L, h_basis, window),
        "window": window,
    }
    return h_basis, report


def _roots_match(L: MatrixLieAlgebra, h_basis, window) -> bool:
    for q in L.S.sorted_roots():
        for deg in box(L.z_rank, window):
            for b in L.homog_basis(q, deg):
                for idx, h in enumerate(h_basis):
                    ev = q[idx] - q[idx + 1]
                    if bracket(h, b) != b.scale(L.field.from_int(int(ev))):
                        return False
    return True


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

    def root_graded_report(self, window: int = 2) -> AxiomReport:
        rep = AxiomReport()
        from .rootsys import indivisible_part

        ok, witness = True, None
        for a in sorted(indivisible_part(self.L.S)):
            if not any(a):
                continue
            found = False
            for b in self.homog_basis(a, (0,) * self.L.z_rank):
                if is_invertible(self.L, b) is not None:
                    found = True
                    break
            if not found:
                ok, witness = False, f"no invertible element in (L^iota)_{a}^0"
                break
        rep.add("RG2-isotope", ok, witness, window=window)
        return rep


def _simple_coordinates(n, root):
    """Coordinates of eps_i - eps_j in the simple roots eps_k - eps_(k+1)."""
    coeffs = [0] * (n - 1)
    acc = 0
    # root = eps_i - eps_j has partial sums telescoping between i and j.
    for k in range(n - 1):
        acc += int(root[k])
        coeffs[k] = acc
    return coeffs


def isotope(L: MatrixLieAlgebra, iota_simple) -> IsotopedLie:
    return IsotopedLie(L, iota_simple)


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

    def _same_block(self, i, j):
        return any(lo <= i < hi and lo <= j < hi for lo, hi in self.blocks)

    def homog_basis(self, root, deg):
        root = tuple(root)
        if vec_is_zero(root):
            return self._diag_basis(tuple(deg))
        pair = self._root_indices(root)
        if pair is None or not self._same_block(*pair):
            return []
        return super().homog_basis(root, deg)

    def _diag_basis_uncached(self, deg):
        # Per-block sl-diagonal solutions, shifted into position.
        got = []
        for lo, hi in self.blocks:
            inner = MatrixLieAlgebra.__new__(MatrixLieAlgebra)
            inner.n = hi - lo
            inner.A = self.A
            inner.field = self.field
            inner.z_rank = self.z_rank
            inner._diag_cache = {}
            for elem in MatrixLieAlgebra._diag_basis_uncached(inner, deg):
                shifted = {(i + lo, j + lo): v for (i, j), v in elem.entries.items()}
                got.append(MatLieElement(self, shifted))
        return got

    def cartan_basis(self):
        out = []
        for lo, hi in self.blocks:
            out.extend(self.cartan(i, i + 1) for i in range(lo, hi - 1))
        return out

    def in_cartan(self, x: MatLieElement) -> bool:
        zero_deg = (0,) * self.z_rank
        for (i, j), v in x.entries.items():
            if i != j or v.degrees() != [zero_deg]:
                return False
        for lo, hi in self.blocks:
            tr = self.A.zero()
            for i in range(lo, hi):
                e = x.entries.get((i, i))
                if e is not None:
                    tr = tr + e
            if tr:
                return False
        return True

    def windowed_basis(self, window: int):
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


def chevalley_tensor(m: int, C: GradedAssocAlgebra, window: int = 2) -> MatrixLieAlgebra:
    """g tensor C for g = sl_m(Q) and commutative C, as sl_m(C)."""
    if not C.is_commutative_window(window):
        raise ValueError("coordinate algebra must be commutative")
    return MatrixLieAlgebra(m, C)


def tensor_element(L: MatrixLieAlgebra, x_rows, c: AlgElement) -> MatLieElement:
    """x tensor c for a rational matrix x."""
    entries = {}
    for i, row in enumerate(x_rows):
        for j, v in enumerate(row):
            if v:
                entries[(i, j)] = c * _to_field(L.field, v)
    return MatLieElement(L, entries)


def _to_field(field, v):
    if isinstance(v, int):
        return field.from_int(v)
    if field is QQ:
        return Fraction(v)
    return field(v)


def lift_derivation(L: MatrixLieAlgebra, d):
    """Entrywise lift of a derivation of A to sl_n(A)."""

    def lifted(x: MatLieElement) -> MatLieElement:
        return MatLieElement(L, {k: d(v) for k, v in x.entries.items()})

    return lifted


def leibniz_holds(L: MatrixLieAlgebra, lifted, window: int = 1) -> bool:
    basis = L.windowed_basis(window)
    for x in basis:
        for y in basis:
            if lifted(bracket(x, y)) != bracket(lifted(x), y) + bracket(x, lifted(y)):
                return False
    return True


def verify_root_graded(L, window: int = 2) -> dict:
    """RG1-RG3 plus the predivision / division / Lie-torus flags.

    The flags are a fact about (L, window): they are computed once and kept
    on L, so the eala verifiers can ask for them again at no cost.
    """
    cache = vars(L).setdefault("_root_graded_cache", {})
    if window not in cache:
        cache[window] = _root_graded(L, window)
    return dict(cache[window])


def _root_graded(L, window: int) -> dict:
    base = L.L if isinstance(L, IsotopedLie) else L
    S = base.S
    field = base.field
    zero_deg = (0,) * base.z_rank

    def basis_fn(root, deg):
        return L.homog_basis(root, deg) if isinstance(L, IsotopedLie) else base.homog_basis(root, deg)

    rg1 = True  # support inside A_(n-1) by construction of the entry grading
    from .rootsys import indivisible_part

    rg2, rg2_witness = True, None
    for a in sorted(indivisible_part(S)):
        if not any(a):
            continue
        if not any(is_invertible(base, b) for b in basis_fn(a, zero_deg)):
            rg2, rg2_witness = False, f"no invertible element in L_{a}^0"
            break

    rg3, rg3_witness = True, None
    nz = [a for a in S.sorted_roots() if any(a)]
    for deg in box(base.z_rank, window):
        target = basis_fn((Fraction(0),) * base.n, deg)
        if not target:
            continue
        coords_basis = _diag_coords(base, target, deg)
        spans = []
        for a in nz:
            for mu in box(base.z_rank, window):
                rest = tuple(d - m for d, m in zip(deg, mu))
                if base.z_rank and max(abs(x) for x in rest) > window:
                    continue
                for xa in basis_fn(a, mu):
                    for xb in basis_fn(tuple(-t for t in a), rest):
                        br = bracket(xa, xb)
                        if br:
                            spans.append(_diag_coord_vec(base, br, deg))
        have = mat_rank(spans, field) if spans else 0
        need = len(coords_basis)
        if have < need:
            rg3, rg3_witness = False, f"L_0^{deg} not spanned by opposite-root brackets"
            break

    prediv, prediv_witness = True, None
    division = True
    torus = base.A.bdim == 1
    for a in nz:
        for deg in box(base.z_rank, window):
            basis = basis_fn(a, deg)
            if not basis:
                continue
            if not any(is_invertible(base, b) for b in basis):
                prediv, prediv_witness = False, f"no invertible element in L_{a}^{deg}"
                division = False
                break
            if base.A.bdim == 1:
                if is_invertible(base, basis[0]) is None:
                    division = False
        if not prediv:
            break

    return {
        "RG1": rg1,
        "RG2": rg2,
        "RG2_witness": rg2_witness,
        "RG3": rg3,
        "RG3_witness": rg3_witness,
        "predivision": prediv,
        "predivision_witness": prediv_witness,
        "division": division,
        "torus": torus and prediv,
        "window": window,
    }


def _diag_coords(L: MatrixLieAlgebra, basis, deg):
    return [_diag_coord_vec(L, b, deg) for b in basis]


def _diag_coord_vec(L: MatrixLieAlgebra, x: MatLieElement, deg):
    deg = tuple(deg)
    bdim = L.A.bdim
    out = []
    for i in range(L.n):
        e = x.entries.get((i, i))
        for k in range(bdim):
            out.append(e.coefficient(deg, k) if e is not None else L.field.zero)
    return out

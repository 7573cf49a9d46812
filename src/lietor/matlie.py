"""sl_n over a graded associative coordinate algebra.

sl_n(A) = {x in gl_n(A) : tr(x) in [A,A]} carries the root grading by
A_(n-1) together with the lattice grading of A.  n >= 3 throughout; the
product formula that recovers A from the Lie algebra needs three distinct
indices.
"""

from __future__ import annotations

from types import MappingProxyType

from .graded import AlgElement, GradedAssocAlgebra, Sum, graded_form, memo
from .rootsys import RootSystem, build_classical, vec_is_zero


class MatLieElement(Sum):
    """Finitely supported n x n matrix over sl_n(A): terms maps (i, j) to a
    nonzero AlgElement entry (itself zero-free)."""

    __slots__ = ()
    _mismatch = "elements of different matrix algebras"

    def trace(self) -> AlgElement:
        t = None
        for (i, j), v in self.terms.items():
            if i == j:
                t = v if t is None else t + v
        return self.owner.A.zero() if t is None else t

    def matmul(self, other, into=None, negate=False):
        """self * other as a new matrix, of two elements of one algebra; or,
        given a zero-free terms dict into, add (or with negate subtract)
        the product into it in place, keeping it zero-free, and return None.
        With into the caller has checked the algebra, as bracket does once
        for both of its products."""
        out = into
        if out is None:
            self._check(other)
            out = {}
        for (i, k), a in self.terms.items():
            for (k2, j), b in other.terms.items():
                if k != k2:
                    continue
                p = a * b
                if not p:  # a zero-divisor pair
                    continue
                key = (i, j)
                cur = out.get(key)
                if cur is None:
                    out[key] = -p if negate else p
                else:
                    s = cur - p if negate else cur + p
                    if s:
                        out[key] = s
                    else:
                        del out[key]
        return MatLieElement._zero_free(self.owner, out) if into is None else None

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"[{v}]E({i},{j})" for (i, j), v in sorted(self.terms.items()))


class Sl2Triple:
    def __init__(self, e: MatLieElement, h: MatLieElement, f: MatLieElement):
        self.e = e
        self.h = h
        self.f = f


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

    def _same_block(self, i, j):
        return any(lo <= i < hi and lo <= j < hi for lo, hi in self.blocks)

    def root_of(self, i, j):
        """e_i - e_j, an int tuple."""
        v = [0] * self.n
        v[i] = 1
        v[j] = -1
        return tuple(v)

    def zero(self):
        return MatLieElement._zero_free(self, {})

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
        for (i, j), v in x.terms.items():
            if i != j or v.degrees() != [zero_deg]:
                return False
        return not any(sum((x.terms[(i, i)] for i in range(lo, hi) if (i, i) in x.terms),
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

    @memo
    def _diag_basis(self, deg):
        """Per block [lo, hi), the diagonals over A^deg = K t^deg whose trace
        lies in [A,A]^deg: every t^deg E_ii when [A,A]^deg = A^deg, that is
        off the centre lattice, and the trace-zero t^deg (E_jj - E_lo,lo),
        lo < j < hi, when [A,A]^deg = 0."""
        if not self.A.in_support(deg):
            return []
        t = self.A.monomial(deg)
        if self.A.commutator_component(deg):
            return [MatLieElement(self, {(i, i): t}) for lo, hi in self.blocks
                    for i in range(lo, hi)]
        return [MatLieElement(self, {(lo, lo): -t, (j, j): t}) for lo, hi in self.blocks
                for j in range(lo + 1, hi)]


def bracket(x: MatLieElement, y: MatLieElement) -> MatLieElement:
    """xy - yx, both products added into one zero-free dict; that x and y
    are of one algebra is checked once, for both products."""
    x._check(y)
    out = {}
    x.matmul(y, out)
    y.matmul(x, out, negate=True)
    return MatLieElement._zero_free(x.owner, out)


class SlInvariantForm:
    """(x | y) = phi-form applied entrywise: sum_ij (x_ij | y_ji)_A."""

    def __init__(self, L: MatrixLieAlgebra, phi):
        self.L = L
        self.gf = graded_form(L.A, phi)

    def pair(self, x: MatLieElement, y: MatLieElement):
        out = self.L.field.zero
        for (i, j), a in x.terms.items():
            b = y.terms.get((j, i))
            if b is not None:
                out = out + self.gf.pair(a, b)
        return out


def invariant_form(L: MatrixLieAlgebra, phi) -> SlInvariantForm:
    return SlInvariantForm(L, phi)


class DirectSumSl(MatrixLieAlgebra):
    """sl_n1(A) + sl_n2(A) as block-diagonal matrices inside gl_(n1+n2)(A).

    The quotient root system is the (reducible) orthogonal union of the two
    A-type systems; used to exercise the verifiers on disconnected roots.
    """

    def __init__(self, n1: int, n2: int, A: GradedAssocAlgebra):
        super().__init__(n1 + n2, A)
        self.blocks = ((0, n1), (n1, n1 + n2))
        roots = {(0,) * self.n}
        for lo, hi in self.blocks:
            for i in range(lo, hi):
                for j in range(lo, hi):
                    if i != j:
                        roots.add(self.root_of(i, j))
        self.S = RootSystem(self.S.space, roots)


def lift_derivation(L: MatrixLieAlgebra, d):
    """Entrywise lift of a derivation of A to sl_n(A)."""

    def lifted(x: MatLieElement) -> MatLieElement:
        return MatLieElement(L, {k: d(v) for k, v in x.terms.items()})

    return lifted


def verify_root_graded(L) -> MappingProxyType:
    """RG1-RG3 plus the predivision / division / Lie-torus flags, a read-only
    mapping computed once per L, so the eala verifiers can ask for them again
    at no cost."""
    return _root_graded(L)


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


@memo
def _root_graded(L) -> MappingProxyType:
    """RG1-RG3 and the flags, decided over the coordinates A.

    RG3 holds by construction for every unital associative A.  L_0^d is the
    set of diagonals over A^d whose trace lies in [A,A]^d, per block.  The
    bracket gives [xE_ij, yE_ji] = xyE_ii - yxE_jj.  With y = 1 these are
    x(E_ii - E_jj), which span the trace-zero diagonals over A^d of each
    block.  Modulo those a bracket is [x, y]E_ii, and these span [A,A]^d
    E_ii.  So the brackets of opposite root spaces span L_0^d in each
    degree d.

    For a = eps_i - eps_j, L_a^d = A^d E_ij, and xE_ij is invertible (it
    lies in an sl2-triple (e, h, f) whose h acts on each L_q by <q, a_check>,
    as the reference is_invertible(..., action_window=w) of
    tests/matlie_reference.py tests) exactly when x is a unit of A.  If it
    is, f = -x^-1 E_ji gives h = E_ii - E_jj.  Conversely f = yE_ji for
    some y in A^-d, h = xyE_ii - yxE_jj, and h acting by 1 on
    E_ik and on E_kj (k a third index, n >= 3) gives xy = 1 = yx.  So RG2
    asks for a unit in A^0, which A, being unital, has in 1; and
    predivision asks for a unit in each A^d != 0.

    A quantum torus (a group algebra is q = 1) has A^d = K t^d, and t^d is
    a unit exactly when -d is in the support as well.  So predivision fails
    only on the nonneg support, and its witness is e_n, the first such degree
    in box order.  Every nonzero element of A^d is a multiple of t^d, so
    division is predivision, and as dim A^0 = 1 so is the torus flag.
    """
    # Every nonzero root space L_a^d is A^d E_ij, so one degree serves every
    # root; the witnesses name the first nonzero root.
    a = next(a for a in L.S.sorted_roots() if any(a))
    prediv_witness = None
    if L.A.support == "nonneg" and L.z_rank:
        bad = (0,) * (L.z_rank - 1) + (1,)
        prediv_witness = f"no invertible element in {_space_name(L, a, bad)}"
    prediv = prediv_witness is None
    return MappingProxyType({
        # by construction: the entry grading puts the support inside A_(n-1),
        # A is unital, so 1 is a unit of A^0, and RG3 is argued above
        "RG1": True,
        "RG2": True,
        "RG3": True,
        "predivision": prediv,
        "predivision_witness": prediv_witness,
        "division": prediv,
        "division_witness": prediv_witness,
        "torus": prediv,
    })


def _space_name(L, root, deg):
    """L_(eps_i - eps_j)^(d)."""
    i, j = L._root_indices(tuple(root))
    return f"L_(eps_{i} - eps_{j})^(" + ", ".join(str(int(d)) for d in deg) + ")"

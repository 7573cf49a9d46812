"""Test-only definitions on sl_n(A) that no verdict of ``lietor`` reads.

- ``windowed_basis``: the homogeneous basis across all roots and the
  lattice degrees of a window;
- ``decompose``: an element split into its (root, degree) components;
- ``is_invertible``, ``relations_hold`` and ``eigenvalue_law_holds``: the
  sl2 triple of an invertible homogeneous element built and checked
  directly, the reference for ``lietor.matlie.invertible_triple`` and the
  RG2 / predivision / division flags that rest on it.
"""

from __future__ import annotations

from lietor.lattices import box
from lietor.matlie import MatLieElement, MatrixLieAlgebra, Sl2Triple, bracket


def windowed_basis(L: MatrixLieAlgebra, window: int):
    """Homogeneous basis across all roots and windowed lattice degrees."""
    out = []
    for deg in box(L.z_rank, window):
        if not L.A.in_support(deg):
            continue
        for lo, hi in L.blocks:
            for i in range(lo, hi):
                for j in range(lo, hi):
                    if i != j:
                        for b in L.A.basis_of_degree(deg):
                            out.append(L.E(i, j, b))
        out.extend(L._diag_basis(deg))
    return out


def decompose(x: MatLieElement):
    """Map (root, lattice degree) -> component element."""
    out = {}
    zero_root = (0,) * x.owner.n
    for (i, j), v in x.terms.items():
        root = x.owner.root_of(i, j) if i != j else zero_root
        for deg in v.degrees():
            comp = v.component(deg)
            key = (root, deg)
            cur = out.get(key)
            add = MatLieElement(x.owner, {(i, j): comp})
            out[key] = add if cur is None else cur + add
    return out


def relations_hold(triple: Sl2Triple) -> bool:
    """[e, f] = -h, [h, e] = 2e and [h, f] = -2f."""
    L = triple.e.owner
    return (
        bracket(triple.e, triple.f) == -triple.h
        and bracket(triple.h, triple.e) == triple.e.scale(L.A.field.from_int(2))
        and bracket(triple.h, triple.f) == triple.f.scale(L.A.field.from_int(-2))
    )


def is_invertible(L: MatrixLieAlgebra, x: MatLieElement, action_window: int = None):
    """Sl2 triple for an invertible homogeneous off-diagonal element, else None.

    With action_window set, the eigenvalue law [h, x_q] = <q, alpha_check> x_q
    is also verified on the windowed homogeneous elements.
    """
    if len(x.terms) != 1:
        return None
    ((i, j), a), = x.terms.items()
    if i == j:
        return None
    ainv = L.A.try_invert(a)
    if ainv is None:
        return None
    f = L.E(j, i, ainv).scale(L.field.from_int(-1))
    h = bracket(f, x)
    triple = Sl2Triple(e=x, h=h, f=f)
    if not relations_hold(triple):
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

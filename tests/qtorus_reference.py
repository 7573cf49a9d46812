"""Test-only box scans of the coordinate algebras: the brute force that
``lietor qtorus centre``, ``qtorus decompose`` and ``lietor alg`` ran before
they printed their verdicts by a structural argument or by construction.

- ``centre_scan_oracle``: every gamma of the box with
  prod_j q_ij^gamma_j = 1 for all i, against
  ``GradedAssocAlgebra.centre_lattice``, which solves those conditions
  exactly;
- ``commutator_decomposition``: each degree of the box is central, or some
  mu of the box has [t^mu, t^(deg - mu)] != 0;
- ``associativity_witness`` and ``unit_holds``: the triple and pair loops
  over the monomials of the support in the box;
- ``nondegenerate_on_window``: the Gram rank of a graded form between A^d
  and A^-d at each degree d of the box, against INV-a, which reads the
  form off phi(1) (``lietor.eala.validate_inv_data``);
- ``residues``: one point per coset of Z^n modulo a full-rank sublattice
  such as Rad(q), against which ``BuiltE.class_list``'s three degree
  classes are checked.
"""

from __future__ import annotations

import itertools

from lietor.lattices import box
from lietor.linalg import rank


def _power(field, x, e: int):
    """x ** e for any int e, a negative power through the field's inverse."""
    return x ** e if e >= 0 else field.inverse(x) ** -e


def centre_scan_oracle(A, window: int) -> list:
    """All gamma in the box with prod_j q_ij^gamma_j = 1 for every i."""
    out = []
    for gamma in box(A.n, window):
        ok = True
        for i in range(A.n):
            acc = A.field.one
            for j in range(A.n):
                if gamma[j]:
                    acc = acc * _power(A.field, A.q[i][j], gamma[j])
            if acc != A.field.one:
                ok = False
                break
        if ok:
            out.append(gamma)
    return out


def commutator_decomposition(A, window: int):
    """Per-degree split of a quantum torus into centre and [A,A]: each
    degree of the box, whether it is central, and for a degree that is not
    a witness (mu, nu, c) with mu + nu = deg and c = tau(mu, nu) -
    tau(nu, mu) != 0, mu taken from the box."""
    gamma = A.centre_lattice()
    report = []
    for deg in box(A.n, window):
        if deg in gamma:
            report.append({"degree": deg, "central": True, "witness": None})
            continue
        witness = None
        for mu in box(A.n, window):
            nu = tuple(d - m for d, m in zip(deg, mu))
            c = A.tau(mu, nu) - A.tau(nu, mu)
            if c:
                witness = (mu, nu, c)
                break
        if witness is None:
            raise ArithmeticError(f"no commutator witness for degree {deg} in window {window}")
        report.append({"degree": deg, "central": False, "witness": witness})
    return report


def associativity_witness(A, window: int):
    """The first triple of support degrees of the box, in box order, with
    (t^d1 t^d2) t^d3 != t^d1 (t^d2 t^d3), or None."""
    degs = [d for d in box(A.n, window) if A.in_support(d)]
    for d1 in degs:
        for d2 in degs:
            for d3 in degs:
                x, y, z = A.monomial(d1), A.monomial(d2), A.monomial(d3)
                if (x * y) * z != x * (y * z):
                    return d1, d2, d3
    return None


def unit_holds(A, window: int) -> bool:
    """1 t^d = t^d = t^d 1 for every support degree d of the box."""
    one = A.one()
    return all(one * A.monomial(d) == A.monomial(d) == A.monomial(d) * one
               for d in box(A.n, window) if A.in_support(d))


def nondegenerate_on_window(gf, window: int) -> bool:
    """Does the GradedForm gf pair A^d nondegenerately with A^-d at each d
    of the box?"""
    A = gf.A
    for deg in box(A.n, window):
        basis = A.basis_of_degree(deg)
        dual = A.basis_of_degree(tuple(-d for d in deg))
        if not basis:
            continue
        if not dual:
            return False
        if rank([[gf.pair(a, b) for b in dual] for a in basis], A.field) < len(basis):
            return False
    return True


def residues(lattice):
    """The points with 0 <= v_c < d_c at each pivot d_c of the full-rank
    HNF basis of the LatticeSubset lattice: the |det| = d_1 ... d_n
    canonical coset representatives of lattice_reduce, in lexicographic
    order; None below full rank."""
    if len(lattice.basis) < lattice.n:
        return None
    return list(itertools.product(*(range(row[c]) for c, row in enumerate(lattice.basis))))

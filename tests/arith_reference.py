"""Test-only reference for the element arithmetic of sl_n(A) and its uce:
the bodies that the zero-free arithmetic of ``lietor.graded``,
``lietor.matlie`` and ``lietor.uce`` replaced.

Each function builds its result with the public constructor, which drops
zero coefficients, subtracts by adding the negation, and reaches the
arithmetic of matrix entries and coordinates through the functions here,
never through the operators under test.  The differential tests in
``test_arith.py`` compare them with the operators on the same inputs.
"""

from __future__ import annotations

from fractions import Fraction

from lietor.graded import AlgElement
from lietor.matlie import MatLieElement
from lietor.uce import UceElement, WedgeElement


def _add_terms(x: dict, y: dict) -> dict:
    out = dict(x)
    for k, v in y.items():
        w = out.get(k)
        s = v if w is None else w + v
        if s:
            out[k] = s
        elif w is not None:
            del out[k]
    return out


# A: the coordinate algebra


def alg_add(x: AlgElement, y: AlgElement) -> AlgElement:
    return AlgElement(x.owner, _add_terms(x.terms, y.terms))


def alg_neg(x: AlgElement) -> AlgElement:
    return AlgElement(x.owner, {k: -v for k, v in x.terms.items()})


def alg_sub(x: AlgElement, y: AlgElement) -> AlgElement:
    return alg_add(x, alg_neg(y))


def alg_scale(x: AlgElement, c) -> AlgElement:
    return AlgElement(x.owner, {k: v * c for k, v in x.terms.items()})


def mul(x: AlgElement, y: AlgElement) -> AlgElement:
    """x y: t^l t^m = tau(l, m) t^(l+m) term by term, each term added to
    field.zero."""
    A = x.owner
    out = {}
    for dl, cl in x.terms.items():
        for dm, cm in y.terms.items():
            deg = tuple(a + b for a, b in zip(dl, dm))
            if not A.in_support(deg):
                raise ArithmeticError(f"product leaves the support at degree {deg}")
            c = cl * cm * A.tau(dl, dm)
            out[deg] = out.get(deg, A.field.zero) + c
    return AlgElement(A, out)


# sl_n(A)


def mat_add(x: MatLieElement, y: MatLieElement) -> MatLieElement:
    out = dict(x.terms)
    for k, v in y.terms.items():
        w = out.get(k)
        s = v if w is None else alg_add(w, v)
        if s:
            out[k] = s
        elif w is not None:
            del out[k]
    return MatLieElement(x.owner, out)


def mat_neg(x: MatLieElement) -> MatLieElement:
    return MatLieElement(x.owner, {k: alg_neg(v) for k, v in x.terms.items()})


def mat_sub(x: MatLieElement, y: MatLieElement) -> MatLieElement:
    return mat_add(x, mat_neg(y))


def trace(x: MatLieElement) -> AlgElement:
    t = x.owner.A.zero()
    for (i, j), v in x.terms.items():
        if i == j:
            t = alg_add(t, v)
    return t


def matmul(x: MatLieElement, y: MatLieElement) -> MatLieElement:
    out = {}
    for (i, k), a in x.terms.items():
        for (k2, j), b in y.terms.items():
            if k != k2:
                continue
            p = mul(a, b)
            if p:
                key = (i, j)
                cur = out.get(key)
                out[key] = p if cur is None else alg_add(cur, p)
    return MatLieElement(x.owner, {k: v for k, v in out.items() if v})


def bracket(x: MatLieElement, y: MatLieElement) -> MatLieElement:
    return mat_sub(matmul(x, y), matmul(y, x))


# A wedge A and the uce


def wedge_add(x: WedgeElement, y: WedgeElement) -> WedgeElement:
    return WedgeElement(x.owner, _add_terms(x.terms, y.terms))


def wedge(a: AlgElement, b: AlgElement) -> WedgeElement:
    """a wedge b, expanded bilinearly over the monomial basis."""
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
    return WedgeElement(a.owner, out)


def commutator_image(w: WedgeElement) -> AlgElement:
    """The image of w under <a, b> -> ab - ba."""
    A = w.owner
    out = A.zero()
    for (k1, k2), c in w.terms.items():
        m1 = AlgElement(A, {k1: A.field.one})
        m2 = AlgElement(A, {k2: A.field.one})
        out = alg_add(out, alg_scale(alg_sub(mul(m1, m2), mul(m2, m1)), c))
    return out


def uce_bracket(U, u1: UceElement, u2: UceElement) -> UceElement:
    """UceAlgebra.bracket: the wedge part summed from the zero wedge over
    every (i,j)/(j,i) pair, the trace correction taken from the trace
    whether or not a diagonal entry is present, and the wedge parts acting
    through their commutator images."""
    A, n = U.A, U.n
    ninv = U.field(Fraction(1, n))
    w1, m1 = u1.w, u1.m
    w2, m2 = u2.w, u2.m
    wout = WedgeElement(A, {})
    for (i, j), a in m1.terms.items():
        b = m2.terms.get((j, i))
        if b is not None:
            wout = wedge_add(wout, wedge(a, b))
    if wout:
        wout = WedgeElement(A, {k: v * ninv for k, v in wout.terms.items()})
    mout = bracket(m1, m2)
    tr = trace(mout)
    if tr:
        mout = mat_sub(mout, MatLieElement(U.sl, {(i, i): alg_scale(tr, ninv) for i in range(n)}))
    if w1:
        u_w1 = commutator_image(w1)
        mout = mat_add(mout, MatLieElement(U.sl, {
            k: alg_sub(mul(u_w1, v), mul(v, u_w1)) for k, v in m2.terms.items()}))
    if w2:
        u_w2 = commutator_image(w2)
        mout = mat_sub(mout, MatLieElement(U.sl, {
            k: alg_sub(mul(u_w2, v), mul(v, u_w2)) for k, v in m1.terms.items()}))
    if w1 and w2:
        wout = wedge_add(wout, wedge(u_w1, u_w2))
    return UceElement(U, wout, mout)

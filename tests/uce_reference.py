"""Test-only Steinberg scan of the universal central extension: the brute
force that ``lietor uce`` ran before it printed st1-st3 by construction
(``lietor.uce.steinberg_check`` states the argument).

- ``steinberg_scan``: st1 adds every pair of monomials of the window, and
  st2 and st3 bracket every coefficient pair of every index triple and quad
  through ``UceAlgebra.bracket``, so a bracket that is wrong at any one pair
  fails them with a witness.
"""

from __future__ import annotations

import itertools

from lietor.graded import AlgElement
from lietor.lattices import box
from lietor.report import AxiomReport


def steinberg_scan(U, window: int = 2) -> AxiomReport:
    """st1-st3 on every monomial coefficient of the window.

    st1 adds every pair of monomials; st2 and st3 bracket every coefficient
    pair of every index triple and quad through UceAlgebra.bracket, so a
    wrong bracket at any one pair fails them: 6 w^2 + 18 w^2 brackets for
    n = 3 and w monomials, 15,000 at window 2 on Q[Z^2].  The w^2 products
    ab of the monomials are formed once, in order, and shared by the index
    triples: st2 compares [X_ij(a), X_jl(b)] with the matrix {(i, l): ab}
    and no wedge part.
    """
    rep = AxiomReport()
    A = U.A
    degs = [d for d in box(A.n, window) if A.in_support(d)]
    mono = [AlgElement(A, {d: A.field.one}) for d in degs]

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

    # The products ab of the window's monomials, formed once for every index
    # triple; a zero product (of zero divisors) is the zero matrix.
    prods = [[a * b for b in mono] for a in mono]

    def st2_holds(i, j, l):
        key = (i, l)
        for row, xa in zip(prods, xs[i, j]):
            for ab, xb in zip(row, xs[j, l]):
                got = U.bracket(xa, xb)
                if got.w.terms or got.m.terms != ({key: ab} if ab.terms else {}):
                    return False
        return True

    def st3_holds(i, j, l, m):
        for xa in xs[i, j]:
            for xb in xs[l, m]:
                got = U.bracket(xa, xb)
                if got.m.terms or got.w.terms:
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

"""A hypothesis strategy of quantum tori on all of Z^n, for the differential
tests of every torus verdict against its reference.

``tori()`` draws n in 1..3 and the entries q_ij, i < j, of one of three
kinds (q_ji = q_ij^-1 and q_ii = 1):

- roots of unity of order 2..12: q_ij = zeta_N^a_ij over Q(zeta_N);
- non-torsion rationals +-2^k 3^m, (k, m) != (0, 0), over Q;
- a mixture over Q of the roots of unity +-1 and those rationals.

So the centre lattice Rad(q) ranges from 0 (q = 2 at n = 2) through the
sublattices of finite index (zeta_N) and those of infinite index but not 0
(q_01 = 2 and q_02 = q_12 = 1 at n = 3) to all of Z^n (n = 1, or every
q_ij = 1).
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as hs

from lietor.graded import GradedAssocAlgebra
from lietor.scalars import QQ, cyclotomic_field


# +-2^k 3^m with k, m in -2..2, not both 0
_NON_TORSION = hs.tuples(hs.sampled_from([1, -1]), hs.integers(-2, 2), hs.integers(-2, 2)).filter(
    lambda skm: skm[1:] != (0, 0)).map(
    lambda skm: QQ(skm[0] * Fraction(2) ** skm[1] * Fraction(3) ** skm[2]))


@hs.composite
def tori(draw):
    """A quantum torus on all of Z^n; see the module docstring."""
    n = draw(hs.integers(1, 3))
    kind = draw(hs.sampled_from(["roots of unity", "rationals", "mixture"]))
    if kind == "roots of unity":
        N = draw(hs.integers(2, 12))
        field = cyclotomic_field(N)
        z = field.zeta()

        def entry():
            return z ** draw(hs.integers(0, N - 1))
    else:
        field = QQ

        def entry():
            if kind == "mixture" and draw(hs.booleans()):
                return draw(hs.sampled_from([QQ.one, -QQ.one]))
            return draw(_NON_TORSION)
    q = [[field.one] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q[i][j] = entry()
            q[j][i] = field.inverse(q[i][j])
    return GradedAssocAlgebra.quantum_torus(q, field)

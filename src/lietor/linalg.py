"""Dense exact linear algebra over Q or a cyclotomic field.

Matrices are lists of row lists whose entries all belong to one field
instance.  Gaussian elimination never leaves the field, so ranks, kernels
and solutions are exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalars import QQ


def mat_copy(m):
    return [list(row) for row in m]


def rref(m, field):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    rows = mat_copy(m)
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        if piv != field.one:
            # one inverse per pivot; zero entries stay as they are
            inv = field.one / piv
            rows[r] = [x * inv if x else x for x in rows[r]]
        prow = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(m, field) -> int:
    return len(rref(m, field)[1])


def independent_rows(vecs, field):
    """The vectors of vecs outside the span of those before them, in order:
    the pivot columns of one rref of the matrix whose columns are vecs."""
    if not vecs:
        return []
    _, pivots = rref([list(col) for col in zip(*vecs)], field)
    return [vecs[c] for c in pivots]


def kernel(m, field, ncols=None):
    """Basis of the right null space {v : m v = 0}."""
    if not m:
        if ncols is None:
            return []
        basis = []
        for j in range(ncols):
            v = [field.zero] * ncols
            v[j] = field.one
            basis.append(v)
        return basis
    ncols = len(m[0]) if ncols is None else ncols
    rows, pivots = rref(m, field)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [field.zero] * ncols
        v[f] = field.one
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(v)
    return basis


class LinearSolver:
    """Exact solutions of m x = b, read off one rref of [m | B].

    The right block of the rref is T B, where T is the row transformation
    with T m = R in reduced echelon form.  ``factor`` takes B = I and so
    keeps T: each solve is then T b on the pivot rows of R plus the check
    that T b vanishes on its zero rows, with no further elimination.
    """

    def __init__(self, red, pivots, ncols, field):
        self.red, self.pivots, self.ncols, self.field = red, pivots, ncols, field

    @classmethod
    def factor(cls, m, field):
        """Solver for m x = b for any b: one rref of [m | I]."""
        red, pivots = rref([list(row) + e for row, e in zip(m, identity(len(m), field))], field)
        return cls(red, pivots, len(m[0]) if m else 0, field)

    def rank(self):
        """The rank of m: the pivots of R, each in a column of m."""
        return sum(p < self.ncols for p in self.pivots)

    def solve(self, b):
        """x with m x = B b (B is I after ``factor``), or None if inconsistent."""
        f, n = self.field, self.ncols
        x = [f.zero] * n
        for row, p in zip(self.red, self.pivots):
            tb = f.zero
            for c, v in zip(row[n:], b):
                if c and v:
                    tb = tb + c * v
            if p < n:
                x[p] = tb
            elif tb:
                return None
        return x


def solve(m, b, field):
    """One solution of m x = b, or None if inconsistent: the solver on [m | b]."""
    red, pivots = rref([list(row) + [v] for row, v in zip(m, b)], field)
    return LinearSolver(red, pivots, len(m[0]) if m else 0, field).solve([field.one])


def mat_mul(a, b, field):
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    out = [[field.zero] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(m):
                    if bt[j]:
                        oi[j] = oi[j] + c * bt[j]
    return out


def mat_vec(m, v, field):
    return [sum((c * x for c, x in zip(row, v) if c and x), field.zero) for row in m]


def identity(n, field):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def inverse(m, field):
    """Inverse of a square matrix (T of its solver); ValueError if singular."""
    n = len(m)
    solver = LinearSolver.factor(m, field)
    if solver.pivots[:n] != list(range(n)):
        raise ValueError("matrix not invertible")
    return [row[n:] for row in solver.red[:n]]


# Integer lattice routines (exact, arbitrary precision ints).


def hnf(rows):
    """Row-style Hermite normal form of an integer matrix; zero rows dropped."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        # Euclidean elimination below the pivot.
        changed = True
        while changed:
            changed = False
            for i in range(r + 1, len(rows)):
                if rows[i][c]:
                    if abs(rows[i][c]) < abs(rows[r][c]):
                        rows[r], rows[i] = rows[i], rows[r]
                    q = rows[i][c] // rows[r][c]
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
                    if rows[i][c]:
                        changed = True
        if rows[r][c] < 0:
            rows[r] = [-a for a in rows[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return [row for row in rows[:r] if any(row)]


def lattice_rank(rows) -> int:
    return len(hnf(rows))


def lattice_reduce(v, hnf_rows):
    """Canonical representative of v modulo the lattice spanned by hnf_rows."""
    v = list(v)
    for row in hnf_rows:
        c = next(j for j, x in enumerate(row) if x)
        q = v[c] // row[c]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return tuple(v)


def integer_kernel(rows, ncols=None):
    """Basis of {v in Z^n : rows . v = 0} (integer vectors)."""
    if not rows:
        return [] if ncols is None else [
            [1 if i == j else 0 for j in range(ncols)] for i in range(ncols)
        ]
    ncols = len(rows[0]) if ncols is None else ncols
    basis = kernel([[Fraction(x) for x in row] for row in rows], QQ, ncols)
    out = []
    for v in basis:
        den = math.lcm(*(x.denominator for x in v))
        out.append([int(x * den) for x in v])
    return hnf(out)

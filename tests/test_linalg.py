import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as hs

from lietor.lattices import LatticeSubset, lattice_from_congruences
from lietor.linalg import (
    LinearSolver,
    hnf,
    independent_rows,
    integer_kernel,
    inverse,
    kernel,
    lattice_reduce,
    mat_mul,
    rank,
    rref,
    solve,
)
from lietor.scalars import QQ, Cyclo, cyclotomic_field
from qtorus_reference import residues


def F(*args):
    return Fraction(*args)


def test_kernel_rank_one():
    m = [[F(1), F(1)], [F(1), F(1)]]
    basis = kernel(m, QQ)
    assert len(basis) == 1
    v = basis[0]
    assert all(sum(r * x for r, x in zip(row, v)) == 0 for row in m)


def test_kernel_identity_empty():
    m = [[F(1) if i == j else F(0) for j in range(3)] for i in range(3)]
    assert kernel(m, QQ) == []


def test_kernel_zero_map():
    m = [[F(0)] * 3 for _ in range(2)]
    assert len(kernel(m, QQ)) == 3


def test_rank_nullity_randomized():
    rng = random.Random(7)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[F(rng.randint(-4, 4)) for _ in range(cols)] for _ in range(rows)]
        r = rank(m, QQ)
        k = kernel(m, QQ)
        assert r + len(k) == cols
        for v in k:
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)


def test_kernel_over_cyclotomic():
    F3 = cyclotomic_field(3)
    z = F3.zeta()
    m = [[F3.one, z], [z.inverse(), F3.one]]
    basis = kernel(m, F3)
    assert len(basis) == 1


def test_solve():
    m = [[F(2), F(0)], [F(0), F(3)]]
    assert solve(m, [F(4), F(9)], QQ) == [F(2), F(3)]
    assert solve([[F(1), F(1)], [F(1), F(1)]], [F(0), F(1)], QQ) is None


def _solve_one_shot(m, b, field, rref=rref):
    """Reference: one rref of [m | b], read off directly."""
    if not m:
        return None if any(b) else []
    ncols = len(m[0])
    rows, pivots = rref([list(row) + [bv] for row, bv in zip(m, b)], field)
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for r, p in enumerate(pivots):
        x[p] = rows[r][ncols]
    return x


def _random_systems(field, scalar, rng):
    """(m, b) pairs: square, wide and tall; full rank, singular (a row
    repeated or a zero column) and inconsistent right-hand sides."""
    for _ in range(40):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = [[scalar(rng) for _ in range(nc)] for _ in range(nr)]
        kind = rng.choice(["plain", "repeat", "zero-col"])
        if kind == "repeat" and nr > 1:
            m[-1] = list(m[0])
        elif kind == "zero-col":
            for row in m:
                row[rng.randrange(nc)] = field.zero
        x0 = [scalar(rng) for _ in range(nc)]
        consistent = [sum((c * x for c, x in zip(row, x0)), field.zero) for row in m]
        yield m, consistent
        yield m, [scalar(rng) for _ in range(nr)]  # inconsistent when rank < nr
    yield [[field.zero, field.zero]], [field.one]
    yield [[field.one, field.one], [field.one, field.one]], [field.zero, field.one]


@pytest.mark.parametrize("order", [1, 3])
def test_linear_solver_matches_one_shot_rref(order):
    field = QQ if order == 1 else cyclotomic_field(3)
    if order == 1:
        def scalar(rng):
            return F(rng.randint(-3, 3))
    else:
        def scalar(rng):
            return field([rng.randint(-2, 2), rng.randint(-2, 2)])
    rng = random.Random(order)
    inconsistent = 0
    for m, b in _random_systems(field, scalar, rng):
        want = _solve_one_shot(m, b, field)
        assert LinearSolver.factor(m, field).solve(b) == want
        assert solve(m, b, field) == want
        if want is None:
            inconsistent += 1
        else:
            assert [sum((c * x for c, x in zip(row, want)), field.zero) for row in m] == b
        if len(m) == len(m[0]):
            if rank(m, field) < len(m):
                with pytest.raises(ValueError):
                    inverse(m, field)
            else:
                ident = [[field.one if i == j else field.zero for j in range(len(m))]
                         for i in range(len(m))]
                assert mat_mul(inverse(m, field), m, field) == ident
    assert inconsistent >= 5


def _divide(x, y):
    """x / y; two rationals divide as Fractions, since int / int is a float."""
    if isinstance(x, Cyclo) or isinstance(y, Cyclo):
        return x / y
    return Fraction(x) / Fraction(y)


def _rref_dividing(m, field):
    """Reference rref: divides every entry of a pivot row by the pivot."""
    rows = [list(row) for row in m]
    if not rows:
        return rows, []
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c]
        if inv != field.one:
            rows[r] = [_divide(x, inv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _kernel_dividing(m, field):
    """Reference kernel basis, read off the reference rref."""
    ncols = len(m[0])
    rows, pivots = _rref_dividing(m, field)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [field.zero] * ncols
        v[f] = field.one
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(v)
    return basis


def _floats(x):
    """The floats anywhere in a nested list or tuple of scalars."""
    if isinstance(x, (list, tuple)):
        return [f for y in x for f in _floats(y)]
    return [x] if isinstance(x, float) else []


@hs.composite
def _matrices(draw):
    """(field, m, b): QQ or Q(zeta_3), m up to 5 x 6 with sparse entries and
    now and then a last row that repeats a multiple of the first, and b a
    right-hand side.  Rational entries are ints or Fractions in both fields
    (the Q(zeta_3) ones come out of the field as ints and Fractions too)."""
    field = draw(hs.sampled_from([QQ, cyclotomic_field(3)]))
    small = hs.integers(-3, 3)
    if field is QQ:
        entry = hs.one_of(small, hs.builds(F, small, hs.integers(1, 4)))
    else:
        entry = hs.builds(lambda a, b, d: field([F(a, d), F(b, d)]), small, small,
                          hs.integers(1, 3))
    entry = hs.one_of(hs.just(field.zero), entry)
    nr, nc = draw(hs.integers(1, 5)), draw(hs.integers(1, 6))
    m = [draw(hs.lists(entry, min_size=nc, max_size=nc)) for _ in range(nr)]
    if nr > 1 and draw(hs.booleans()):
        k = draw(entry)
        m[-1] = [k * x for x in m[0]]
    return field, m, draw(hs.lists(entry, min_size=nr, max_size=nr))


@seed(5)
@settings(max_examples=300, deadline=None, database=None)
@given(_matrices())
def test_rref_matches_the_dividing_reference(data):
    # rref inverts each pivot once and multiplies; the reference divides
    # entry by entry.  Exact arithmetic makes both the same matrix, and
    # neither rref, kernel, solve nor the solver holds a float when the
    # entries are ints.
    field, m, b = data
    got = rref(m, field)
    assert _floats(got) == [] and got == _rref_dividing(m, field)
    basis = kernel(m, field)
    assert _floats(basis) == [] and basis == _kernel_dividing(m, field)
    want = _solve_one_shot(m, b, field, rref=_rref_dividing)
    for x in (solve(m, b, field), LinearSolver.factor(m, field).solve(b)):
        assert _floats(x or []) == [] and x == want


def test_hnf_and_membership():
    basis = hnf([[2, 4], [6, 8]])
    assert not any(lattice_reduce([2, 0], basis))
    assert any(lattice_reduce([1, 0], basis))
    assert lattice_reduce((3, 5), basis) == lattice_reduce((1, 1), basis)


def test_integer_kernel():
    ker = integer_kernel([[1, 1, 1]])
    assert len(ker) == 2
    for v in ker:
        assert sum(v) == 0


def test_lattice_subset_cosets():
    odd = LatticeSubset(1, gens=[[2]], cosets=((1,),))
    assert (3,) in odd and (0,) not in odd
    assert odd.neg() == odd
    assert odd.window_elements(3) == [(-3,), (-1,), (1,), (3,)]
    # pointed reflection subspace: union of cosets mod 2Z[A] containing 2Z[A]
    pointed = LatticeSubset(1, gens=[[2]], cosets=((0,), (1,)))
    for a in pointed.window_elements(3):
        for b in pointed.window_elements(3):
            assert (2 * a[0] - b[0],) in pointed


def test_lattice_subset_algebra():
    full = LatticeSubset.full(2)
    three = LatticeSubset.scaled_full(2, 3)
    assert three.is_subset_of(full)
    assert not full.is_subset_of(three)
    assert three.add(three) == three
    assert three.scale(2) == LatticeSubset.scaled_full(2, 6)
    assert full.subgroup_rank() == 2
    assert LatticeSubset.finite(2, [(1, 2)]).subgroup_rank() == 1


@hs.composite
def _lattice_gens(draw):
    """(n, gens): n in 1..4 and n - 1 to n + 1 generators of small entries."""
    n = draw(hs.integers(1, 4))
    rows = draw(hs.integers(max(n - 1, 1), n + 1))
    row = hs.lists(hs.integers(-3, 3), min_size=n, max_size=n)
    return n, draw(hs.lists(row, min_size=rows, max_size=rows))


@seed(11)
@settings(max_examples=80, deadline=None, database=None)
@given(_lattice_gens())
def test_residues_are_one_point_per_coset(case):
    # |Z^n / L| is the product of the Smith invariants, computed by sympy
    # outside this repository's own HNF; below full rank there is no list
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    n, gens = case
    lat = LatticeSubset(n, gens)
    res = residues(lat)
    snf = smith_normal_form(Matrix(gens), domain=ZZ)
    invariants = [abs(snf[i, i]) for i in range(min(snf.shape))]
    if invariants.count(0) + n - len(invariants) > 0:
        assert res is None and len(lat.basis) < n
        return
    size = 1
    for d in invariants:
        size *= d
    assert len(res) == size == abs(Matrix(lat.basis).det())
    # each point is its own canonical form, so the points are distinct cosets
    assert all(lattice_reduce(r, lat.basis) == r for r in res)
    assert len(set(res)) == len(res)
    assert LatticeSubset.full(n).is_subset_of(LatticeSubset(n, gens, res))


# hnf, integer_kernel and lattice_from_congruences against sympy: Rad(q), the
# input of every torus verdict, is read off these.  Two lattices are compared
# as containment both ways, each membership decided by sympy's exact solve.

def _in_lattice(v, basis):
    """Is v an integer combination of the independent vectors of basis?"""
    from sympy import Matrix

    if not basis:
        return not any(v)
    try:
        x, _ = Matrix(basis).T.gauss_jordan_solve(Matrix(v))
    except ValueError:  # not even in the rational span
        return False
    return all(c.is_integer for c in x)


def _same_lattice(b1, b2):
    return (all(_in_lattice(v, b2) for v in b1)
            and all(_in_lattice(v, b1) for v in b2))


def _sympy_hnf_basis(gens, n):
    """The columns of sympy's hermite_normal_form of the generators as
    columns: a basis of the lattice they span."""
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form

    if not any(any(g) for g in gens):
        return []
    w = hermite_normal_form(Matrix(gens).T)
    return [[int(w[i, j]) for i in range(n)] for j in range(w.cols) if any(w[:, j])]


@seed(13)
@settings(max_examples=60, deadline=None, database=None)
@given(_lattice_gens())
def test_hnf_spans_the_lattice_of_sympys_hermite_normal_form(case):
    n, gens = case
    assert _same_lattice(hnf(gens), _sympy_hnf_basis(gens, n))


@seed(17)
@settings(max_examples=60, deadline=None, database=None)
@given(hs.integers(1, 4).flatmap(lambda n: hs.tuples(hs.just(n), hs.lists(
    hs.lists(hs.integers(-3, 3), min_size=n, max_size=n), min_size=1, max_size=3))))
def test_integer_kernel_is_the_saturated_lattice_of_sympys_nullspace(case):
    # K = integer_kernel(A) is all of ker A over Z when it lies in ker A, has
    # its rank, holds sympy's nullspace cleared of denominators, and Z^n / K
    # has no torsion (every Smith invariant of K is 1)
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    n, rows = case
    kern = integer_kernel(rows, n)
    null = Matrix(rows).nullspace()
    assert len(kern) == len(null)
    assert all(not any(Matrix(rows) * Matrix(v)) for v in kern)
    for v in null:
        scale = math.lcm(*(int(c.q) for c in v))
        assert _in_lattice([int(c * scale) for c in v], kern)
    if kern:
        snf = smith_normal_form(Matrix(kern), domain=ZZ)
        assert all(abs(snf[i, i]) == 1 for i in range(len(kern)))


@seed(19)
@settings(max_examples=60, deadline=None, database=None)
@given(hs.tuples(hs.integers(2, 6), hs.integers(1, 3)).flatmap(
    lambda mn: hs.tuples(hs.just(mn[0]), hs.just(mn[1]), hs.lists(
        hs.lists(hs.integers(-6, 6), min_size=mn[1], max_size=mn[1]), min_size=1, max_size=2))))
def test_congruence_lattice_is_spanned_by_its_residues_mod_m(case):
    # {v : A v = 0 mod m} contains m Z^n, so it is spanned by m Z^n and the
    # solutions in [0, m)^n, listed here by brute force
    m, n, a = case
    sols = [list(v) for v in itertools.product(range(m), repeat=n)
            if all(sum(x * y for x, y in zip(row, v)) % m == 0 for row in a)]
    gens = [[m * int(i == j) for j in range(n)] for i in range(n)] + sols
    assert _same_lattice(lattice_from_congruences(a, [m] * len(a), n), _sympy_hnf_basis(gens, n))


def test_congruence_lattice():
    got = lattice_from_congruences([[0, 1], [-1, 0]], [3, 3], 2)
    assert got == [[3, 0], [0, 3]]
    got = lattice_from_congruences([[1, 1]], [2], 2)
    sub = LatticeSubset(2, got)
    assert (1, 1) in sub and (2, 0) in sub and (1, 0) not in sub
    # index 36: a cleared rational kernel of [A | 6 I] spans a sublattice of
    # index 576, which misses the solution (2, 3, 10)
    got = lattice_from_congruences([[0, 4, 3], [2, 0, 2], [3, 4, 0]], [6, 6, 6], 3)
    assert got == [[2, 0, 4], [0, 3, 0], [0, 0, 6]]
    # a modulus 0 asks for an equation: v_0 + v_1 = 0 with v_0 even
    assert lattice_from_congruences([[1, 1], [1, 0]], [0, 2], 2) == [[2, -2]]
    assert lattice_from_congruences([], [], 2) == [[1, 0], [0, 1]]


def _independent_rows_by_rank(vecs, field):
    """The reference: keep a vector when it raises the rank of those kept."""
    out = []
    for v in vecs:
        if rank(out + [v], field) > len(out):
            out.append(v)
    return out


@pytest.mark.parametrize("order", [1, 3])
def test_independent_rows_matches_rank_per_row(order):
    field = QQ if order == 1 else cyclotomic_field(3)
    if order == 1:
        def scalar(rng):
            return F(rng.randint(-3, 3))
    else:
        def scalar(rng):
            return field([rng.randint(-2, 2), rng.randint(-2, 2)])
    rng = random.Random(order)
    for m, _ in _random_systems(field, scalar, rng):
        vecs = m + [list(m[0]), [field.zero] * len(m[0])]
        rng.shuffle(vecs)
        assert independent_rows(vecs, field) == _independent_rows_by_rank(vecs, field)
    assert independent_rows([], QQ) == []

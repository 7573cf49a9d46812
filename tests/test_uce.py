import functools
import random
from fractions import Fraction

import pytest

from lietor.graded import (
    AlgElement,
    FiniteDimAlgebra,
    GradedAssocAlgebra,
    validate_crossed_product,
)
from lietor.lattices import box
from lietor.linalg import kernel, rank, rref
from lietor.matlie import bracket as mat_bracket
from lietor.scalars import QQ, cyclotomic_field
from lietor.uce import (
    WedgeElement,
    WedgeWindow,
    _hc1_dim_window,
    build_affine,
    build_multiloop,
    build_uce_sl,
    hc1_component,
    sl_structure_algebra,
    steinberg_check,
    wedge,
    wedge_reduce,
)


def F(*args):
    return Fraction(*args)


@pytest.fixture(scope="module")
def laurent():
    return GradedAssocAlgebra.laurent()


def _zeta3_torus():
    F3 = cyclotomic_field(3)
    z3 = F3.zeta()
    return GradedAssocAlgebra.quantum_torus([[F3.one, z3], [z3.inverse(), F3.one]], F3)


def _swap_crossed():
    """(Q x Q) * Z with t acting by swapping the factors: B has dimension 2."""
    one, zero = F(1), F(0)
    B = FiniteDimAlgebra(QQ, 2, [[[one, zero], [zero, zero]], [[zero, zero], [zero, one]]],
                         [one, one])
    swap, ident = [[zero, one], [one, zero]], [[one, zero], [zero, one]]

    def sigma(lam):
        return swap if lam[0] % 2 else ident

    def tau(lam, mu):
        return [one, one]

    assert validate_crossed_product(B, tau, sigma, window=2, n=1, field=QQ).ok
    return GradedAssocAlgebra("crossed", 1, QQ, B=B, tau=tau, sigma=sigma)


# name -> (algebra, window of the quotient)
ALGEBRAS = {
    "laurent": (GradedAssocAlgebra.laurent, 3),
    "polynomial": (GradedAssocAlgebra.polynomial, 3),
    "Q[Z^2]": (lambda: GradedAssocAlgebra.group_algebra(2), 2),
    "zeta3-torus": (_zeta3_torus, 1),
    "swap-crossed": (_swap_crossed, 1),
}


@functools.lru_cache(maxsize=None)
def _algebra(name):
    return ALGEBRAS[name][0]()


class _DenseWedgeWindow:
    """(A wedge A)/B with one relation rref over every key of the window: the
    reference for the per-degree blocks of WedgeWindow."""

    def __init__(self, A, window):
        self.A = A
        self.window = window
        degs = [d for d in box(A.n, window) if A.in_support(d)]
        keys = []
        for d1 in degs:
            for s1 in range(A.bdim):
                for d2 in degs:
                    for s2 in range(A.bdim):
                        k1, k2 = (tuple(d1), s1), (tuple(d2), s2)
                        if k1 < k2:
                            keys.append((k1, k2))
        self.keys = sorted(keys)
        self.index = {k: i for i, k in enumerate(self.keys)}
        rel_rows = []
        degset = set(degs)
        mono = [AlgElement(A, {(tuple(d), s): A.field.one}) for d in degs for s in range(A.bdim)]
        for a in mono:
            da = a.degrees()[0]
            for b in mono:
                db = b.degrees()[0]
                dab = tuple(x + y for x, y in zip(da, db))
                if dab not in degset:
                    continue
                for c in mono:
                    dc = c.degrees()[0]
                    if (tuple(x + y for x, y in zip(db, dc)) not in degset
                            or tuple(x + y for x, y in zip(dc, da)) not in degset):
                        continue
                    rel = wedge(a * b, c) + wedge(b * c, a) + wedge(c * a, b)
                    if rel:
                        rel_rows.append(tuple(self.coords(rel)))
        # Repeated rows (a cyclic shift of (a, b, c) gives the same relation)
        # leave the row space, and so the rref, as it is.
        rel_rows = [list(row) for row in dict.fromkeys(rel_rows)]
        self.rel_rref, self.rel_pivots = rref(rel_rows, A.field) if rel_rows else ([], [])

    def coords(self, w):
        v = [self.A.field.zero] * len(self.keys)
        for k, c in w.terms.items():
            if k not in self.index:
                raise ValueError(f"wedge term {k} outside window {self.window}")
            v[self.index[k]] = c
        return v

    def reduce(self, w):
        v = self.coords(w)
        for row, p in zip(self.rel_rref, self.rel_pivots):
            c = v[p]
            if c:
                v = [x - c * r for x, r in zip(v, row)]
        return WedgeElement(self.A, {self.keys[i]: c for i, c in enumerate(v) if c})


@functools.lru_cache(maxsize=None)
def _dense(name):
    return _DenseWedgeWindow(_algebra(name), ALGEBRAS[name][1])


def _hc1_dim_reference(A, deg, window):
    """The relation-rank count of HC_1 in one degree: commutator kernel on the
    degree's keys minus the rank of every relation landing in that degree."""
    degs = [d for d in box(A.n, window) if A.in_support(d)]
    degset = set(degs)
    keys = []
    for d1 in degs:
        d2 = tuple(a - b for a, b in zip(deg, d1))
        if d2 not in degset:
            continue
        for s1 in range(A.bdim):
            for s2 in range(A.bdim):
                k1, k2 = (tuple(d1), s1), (tuple(d2), s2)
                if k1 < k2:
                    keys.append((k1, k2))
    keys = sorted(set(keys))
    if not keys:
        return 0
    idx = {k: i for i, k in enumerate(keys)}

    def coords(w):
        vec = [A.field.zero] * len(keys)
        for k, c in w.terms.items():
            vec[idx[k]] = c
        return vec

    cols = []
    for k in keys:
        img = WedgeElement(A, {k: A.field.one}).commutator_image()
        cols.append([img.coefficient(deg, s) for s in range(A.bdim)])
    m = [[cols[j][i] for j in range(len(keys))] for i in range(A.bdim)]
    ker = kernel(m, A.field, len(keys))
    rel_rows = []
    for da in degs:
        for db in degs:
            dc = tuple(x - y - z for x, y, z in zip(deg, da, db))
            if dc not in degset:
                continue
            if (tuple(x + y for x, y in zip(da, db)) not in degset
                    or tuple(x + y for x, y in zip(db, dc)) not in degset
                    or tuple(x + y for x, y in zip(dc, da)) not in degset):
                continue
            for sa in range(A.bdim):
                a = AlgElement(A, {(tuple(da), sa): A.field.one})
                for sb in range(A.bdim):
                    b = AlgElement(A, {(tuple(db), sb): A.field.one})
                    for sc in range(A.bdim):
                        c = AlgElement(A, {(tuple(dc), sc): A.field.one})
                        rel = wedge(a * b, c) + wedge(b * c, a) + wedge(c * a, b)
                        if rel:
                            rel_rows.append(coords(rel))
    return len(ker) - (rank(rel_rows, A.field) if rel_rows else 0)


def test_wedge_antisymmetry(laurent):
    t = laurent.gen(0)
    assert not wedge(t, t)
    w = wedge(t, laurent.monomial((-1,)))
    assert wedge(laurent.monomial((-1,)), t) == -w


def test_wedge_reduce_examples(laurent):
    t = laurent.gen(0)
    tinv = laurent.monomial((-1,))
    assert wedge_reduce(wedge(laurent.one(), t), 4) == type(wedge(t, t))(laurent)
    assert not wedge_reduce(wedge(laurent.one(), t), 4)
    assert wedge_reduce(wedge(t, tinv), 4)  # spans HC_1 in degree 0


def test_wedge_window_overflow(laurent):
    t5 = laurent.monomial((5,))
    with pytest.raises(ValueError):
        wedge_reduce(wedge(t5, laurent.monomial((-5,))), 2)


def test_hc1_laurent(laurent):
    got = hc1_component(laurent, (0,), max_window=8)
    assert got == {"dim": 1, "window": 3, "stable": True}
    for m in (1, 2, 3, 4):
        got = hc1_component(laurent, (m,), max_window=8)
        assert got["dim"] == 0 and got["stable"], (m, got)


def test_hc1_rationals():
    A = GradedAssocAlgebra.group_algebra(0)
    got = hc1_component(A, (), max_window=4)
    assert got["dim"] == 0 and got["stable"]


def test_hc1_quantum_torus_windowed():
    # windowed dimensions stabilize; outside the centre lattice they vanish,
    # and degree 0 carries the two classes <t_i^-1, t_i>
    A = _zeta3_torus()
    off = hc1_component(A, (1, 0), max_window=3)
    assert off["stable"] and off["dim"] == 0
    central = hc1_component(A, (0, 0), max_window=3)
    assert central == {"dim": 2, "window": 3, "stable": True}


def test_uce_bracket_constants(laurent):
    U = build_uce_sl(3, laurent)
    one = laurent.one()
    br = U.bracket(U.x(0, 1, one), U.x(1, 0, one))
    assert not br.w  # <1,1> = 0
    assert br.m == U.sl.cartan(0, 1)


def test_uce_wedge_part(laurent):
    U = build_uce_sl(3, laurent)
    t = laurent.gen(0)
    tinv = laurent.monomial((-1,))
    br = U.bracket(U.x(0, 1, t), U.x(1, 0, tinv))
    assert br.w  # (1/3) tr(E01 E10) <t, t^-1> survives
    img = U.project(br)
    assert img == mat_bracket(U.sl.E(0, 1, t), U.sl.E(1, 0, tinv))


def test_projection_is_homomorphism(laurent):
    U = build_uce_sl(3, laurent)
    pool = U.homogeneous_pool(2)
    rng = random.Random(11)
    for _ in range(120):
        u1, u2 = rng.choice(pool), rng.choice(pool)
        assert U.project(U.bracket(u1, u2)) == mat_bracket(U.project(u1), U.project(u2))


def test_projection_kernel_is_hc1(laurent):
    U = build_uce_sl(3, laurent)
    t = laurent.gen(0)
    tinv = laurent.monomial((-1,))
    w = wedge(t, tinv)
    u = U.from_wedge(w)
    assert not U.project(u)  # [t, t^-1] = 0: kernel element
    # and it is central: brackets with the pool vanish after projection
    pool = U.homogeneous_pool(1)
    for v in pool:
        br = U.bracket(u, v)
        assert not br.m
        assert not br.w


def test_uce_jacobi_seeded(laurent):
    U = build_uce_sl(3, laurent)
    pool = U.homogeneous_pool(2)
    rng = random.Random(0)
    for _ in range(120):
        u1, u2, u3 = (rng.choice(pool) for _ in range(3))
        assert U.jacobi_holds(u1, u2, u3, window=8)


def test_steinberg(laurent):
    U = build_uce_sl(3, laurent)
    rep = steinberg_check(U, window=1)
    assert rep.ok, rep.failures()[0].name
    U4 = build_uce_sl(4, laurent)
    rep = steinberg_check(U4, window=1)
    assert rep.ok


def test_steinberg_st2_value(laurent):
    U = build_uce_sl(3, laurent)
    t = laurent.gen(0)
    t2 = laurent.monomial((2,))
    got = U.bracket(U.x(0, 1, t), U.x(1, 2, t2))
    want = U.x(0, 2, laurent.monomial((3,)))
    assert got.m == want.m and not got.w


def test_loop_cocycle():
    E = build_affine(3)
    x = E.gl.E(0, 1, E.A.monomial((1,)))
    y = E.gl.E(1, 0, E.A.monomial((-1,)))
    assert E.loop_cocycle(x, y) == 1  # m = 1, tr(E01 E10) = 1
    assert E.loop_cocycle(E.gl.E(0, 1), E.gl.E(1, 0)) == 0  # m = 0
    assert E.loop_cocycle(x, E.gl.E(1, 0, E.A.monomial((2,)))) == 0  # m+n != 0
    # antisymmetry and the cocycle identity on sampled triples
    rng = random.Random(2)
    basis = [E.gl.E(i, j, E.A.monomial((k,)))
             for i in range(3) for j in range(3) if i != j for k in (-2, -1, 0, 1, 2)]
    for _ in range(60):
        a, b, c = (rng.choice(basis) for _ in range(3))
        assert E.loop_cocycle(a, b) == -E.loop_cocycle(b, a)
        total = (E.loop_cocycle(mat_bracket(a, b), c)
                 + E.loop_cocycle(mat_bracket(b, c), a)
                 + E.loop_cocycle(mat_bracket(c, a), b))
        assert total == 0


def test_custom_kappa_scales_cocycle():
    from lietor.uce import AffineLie

    def kappa2(xm, ym):
        out = F(0)
        for (i, j), v in xm.items():
            w = ym.get((j, i))
            if w:
                out += 2 * v * w
        return out

    E = AffineLie(3, kappa=kappa2)
    x = E.gl.E(0, 1, E.A.monomial((1,)))
    y = E.gl.E(1, 0, E.A.monomial((-1,)))
    assert E.loop_cocycle(x, y) == 2


def test_affine_brackets():
    E = build_affine(3)
    x5 = E.from_loop(E.gl.E(0, 1, E.A.monomial((5,))))
    assert E.bracket(E.d(), x5) == x5.scale(F(5))
    assert E.bracket(E.c(), x5).is_zero()
    assert E.bracket(E.d(), E.c()).is_zero()


def test_affine_root_spaces():
    E = build_affine(3)
    assert E.verify_root_spaces(3)
    dims = E.root_space_dims(3)
    assert dims[("delta", 0)] == 4
    assert all(dims[("delta", m)] == 2 for m in (-3, -1, 1, 2))
    E2 = build_affine(2)
    assert E2.verify_root_spaces(2)
    assert E2.root_space_dims(2)[("delta", 1)] == 1


def test_affine_matches_affine_rs():
    # the delta-degrees of the affine algebra match R(A_2, 1) fibers
    from lietor.refl import build_affine_rs
    from lietor.rootsys import build_classical

    E = build_affine(3)
    ars, mp, kac = build_affine_rs(build_classical("A", 2), 1)
    assert mp == "A_2^(1)"
    window = 3
    for root in ars.S.sorted_roots():
        fiber = ars.fiber_window(root, window)
        if any(root):
            assert fiber == [(k,) for k in range(-window, window + 1)]
        else:
            assert fiber == [(k,) for k in range(-window, window + 1)]
    # and every nonzero root space of E in the window is 1-dimensional
    dims = E.root_space_dims(window)
    for i in range(3):
        for j in range(3):
            if i != j:
                for k in range(-window, window + 1):
                    assert dims[("root", i, j, k)] == 1


def test_k_is_root_graded_covering():
    # K = loop + Qc: invertibility lifts and c is central, so the
    # (A_2, Z)-grading transfers between K and the loop algebra.
    E = build_affine(3)
    for m in (-2, 0, 1):
        e = E.from_loop(E.gl.E(0, 1, E.A.monomial((m,))))
        fvec = E.from_loop(E.gl.E(1, 0, E.A.monomial((-m,))).scale(F(-1)))
        h = E.bracket(fvec, e)
        assert E.bracket(h, e) == e.scale(F(2))
        assert E.bracket(h, fvec) == fvec.scale(F(-2))
        # eigenvalue law against another root space
        x = E.from_loop(E.gl.E(1, 2, E.A.monomial((1,))))
        assert E.bracket(h, x) == x.scale(F(-1))


def test_multiloop_twisted_sl3():
    F2 = cyclotomic_field(2)
    alg, basis, coords = sl_structure_algebra(3, F2)
    sig_cols = []
    for bmat in basis:
        img = [[-bmat[j][i] for j in range(3)] for i in range(3)]
        sig_cols.append(coords(img))
    sigma = [list(col) for col in zip(*sig_cols)]
    ML = build_multiloop(alg, [sigma], [2], F2)
    assert ML.dim_of_degree((0,)) == 3   # fixed points: so_3
    assert ML.dim_of_degree((1,)) == 5
    assert ML.eigenspace_dims_sum_ok()


def test_multiloop_untwisted():
    F2 = cyclotomic_field(2)
    alg, basis, coords = sl_structure_algebra(3, F2)
    ident = [[F2.one if i == j else F2.zero for j in range(alg.dim)] for i in range(alg.dim)]
    ML = build_multiloop(alg, [ident], [1], F2)
    assert ML.dim_of_degree((0,)) == alg.dim


def test_multiloop_rejects_wrong_order():
    F2 = cyclotomic_field(2)
    alg, basis, coords = sl_structure_algebra(3, F2)
    two = [[F2.from_int(2) if i == j else F2.zero for j in range(alg.dim)]
           for i in range(alg.dim)]
    with pytest.raises(ValueError):
        build_multiloop(alg, [two], [2], F2)


def test_multiloop_rejects_noncommuting():
    F4 = cyclotomic_field(4)
    alg, basis, coords = sl_structure_algebra(3, F4)

    def conj(mat):
        cols = []
        for bmat in basis:
            prod = [[sum((mat[i][k] * bmat[k][l] * mat[l][j]
                          for k in range(3) for l in range(3)), F4.zero)
                     for j in range(3)] for i in range(3)]
            cols.append(coords(prod))
        return [list(col) for col in zip(*cols)]

    one, zero = F4.one, F4.zero
    d = [[one, zero, zero], [zero, -one, zero], [zero, zero, one]]
    p = [[zero, one, zero], [one, zero, zero], [zero, zero, one]]  # swap(0,1)
    with pytest.raises(ValueError):
        build_multiloop(alg, [conj(d), conj(p)], [2, 2], F4)


def _random_wedges(name, count, seed):
    A = _algebra(name)
    keys = _dense(name).keys
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        terms = {rng.choice(keys): A.field.from_int(rng.randint(-3, 3))
                 for _ in range(rng.randint(1, 4))}
        out.append(WedgeElement(A, terms))
    return out


def _jacobi_wedges(name, count, seed):
    """Wedge parts of Jacobi defects on window-1 coefficients: cyclic triples
    x_01(a), x_12(b), x_20(c) and triples drawn from the homogeneous pool."""
    A = _algebra(name)
    U = build_uce_sl(3, A)
    mono = [m for d in box(A.n, 1) for m in A.basis_of_degree(d)]
    pool = U.homogeneous_pool(1)
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        a, b, c = (rng.choice(mono) for _ in range(3))
        out.append(U.jacobi_defect(U.x(0, 1, a), U.x(1, 2, b), U.x(2, 0, c)).w)
        out.append(U.jacobi_defect(*(rng.choice(pool) for _ in range(3))).w)
    return out


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_block_quotient_matches_dense(name):
    dense = _dense(name)
    blocks = WedgeWindow(_algebra(name), dense.window)
    randoms = _random_wedges(name, 40, seed=5)
    defects = _jacobi_wedges(name, 30, seed=6)
    compared = raised = 0
    for w in randoms + defects + [r + d for r, d in zip(randoms, defects)]:
        try:
            want = dense.reduce(w)
        except ValueError:
            with pytest.raises(ValueError):
                blocks.reduce(w)
            with pytest.raises(ValueError):
                blocks.is_zero_mod_b(w)
            raised += 1
            continue
        assert blocks.reduce(w) == want, w
        assert blocks.is_zero_mod_b(w) == (not want), w
        compared += 1
    assert compared >= 60 and any(defects), (compared, raised)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_block_quotient_rejects_terms_outside_window(name):
    A = _algebra(name)
    window = ALGEBRAS[name][1]
    far = A.monomial((window + 1,) + (0,) * (A.n - 1))
    w = wedge(far, A.one())
    assert w
    with pytest.raises(ValueError):
        _dense(name).reduce(w)
    with pytest.raises(ValueError):
        WedgeWindow(A, window).reduce(w)
    with pytest.raises(ValueError):
        WedgeWindow(A, window).is_zero_mod_b(w)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_blocks_partition_dense_keys(name):
    A = _algebra(name)
    dense = _dense(name)
    blocks = WedgeWindow(A, dense.window)
    got = [blocks.block(d) for d in box(A.n, 2 * dense.window)]
    keys = [k for blk in got for k in blk.keys]
    assert sorted(keys) == dense.keys and len(set(keys)) == len(keys)
    assert sum(len(blk.pivots) for blk in got) == len(dense.rel_pivots)
    if name == "Q[Z^2]":
        assert len(keys) == 300


@pytest.mark.parametrize("name, windows, degrees", [
    ("laurent", (2, 3, 4, 5), [(0,), (1,), (-1,)]),
    ("Q[Z^2]", (2, 3), [(0, 0), (1, 0)]),
    ("zeta3-torus", (2,), [(0, 0), (1, 0)]),
])
def test_hc1_block_count_matches_relation_rank(name, windows, degrees):
    A = _algebra(name)
    for w in windows:
        for deg in degrees:
            assert _hc1_dim_window(A, deg, w) == _hc1_dim_reference(A, deg, w), (w, deg)


def test_hc1_needs_two_windows(laurent):
    for max_window in (0, 1, 2):
        with pytest.raises(ValueError, match="two windows"):
            hc1_component(laurent, (0,), max_window=max_window)

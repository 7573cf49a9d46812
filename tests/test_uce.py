import functools
import random
from fractions import Fraction

import pytest

from lietor.graded import AlgElement, FiniteDimAlgebra, GradedAssocAlgebra
from lietor.lattices import box
from lietor.eala import build_E, default_iara_data
from lietor.linalg import kernel, rank, rref
from lietor.matlie import MatrixLieAlgebra, bracket as mat_bracket
from lietor.scalars import QQ, cyclotomic_field
from lietor.uce import (
    UceAlgebra,
    UceElement,
    WedgeElement,
    WedgeWindow,
    build_affine,
    build_uce_sl,
    hc1_component,
    steinberg_check,
    wedge,
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

    A = GradedAssocAlgebra("crossed", 1, QQ, B=B, tau=tau, sigma=sigma)
    # sigma is an automorphism and tau a sigma-cocycle: A is associative
    basis = [b for d in box(1, 2) for b in A.basis_of_degree(d)]
    assert all((x * y) * z == x * (y * z) for x in basis for y in basis for z in basis)
    return A


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


def _hc1_dim_blocks(A, deg, window):
    """The block count of HC_1 in one degree: the commutator kernel on the
    keys of WedgeWindow's block less the rank of its relations."""
    blk = WedgeWindow(A, window).block(deg)
    if not blk.keys:
        return 0
    cols = []
    for k in blk.keys:
        img = WedgeElement(A, {k: A.field.one}).commutator_image()
        cols.append([img.coefficient(deg, s) for s in range(A.bdim)])
    m = [list(row) for row in zip(*cols)]
    return len(kernel(m, A.field, len(blk.keys))) - len(blk.pivots)


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
    quotient = WedgeWindow(laurent, 4)
    assert quotient.is_zero_mod_b(wedge(laurent.one(), t))
    assert not quotient.is_zero_mod_b(wedge(t, tinv))  # spans HC_1 in degree 0


def test_wedge_window_overflow(laurent):
    t5 = laurent.monomial((5,))
    with pytest.raises(ValueError):
        WedgeWindow(laurent, 2).is_zero_mod_b(wedge(t5, laurent.monomial((-5,))))


def test_hc1_laurent(laurent):
    assert hc1_component(laurent, (0,)) == 1
    for m in (1, 2, 3, 4):
        assert hc1_component(laurent, (m,)) == 0, m


def test_hc1_rationals():
    A = GradedAssocAlgebra.group_algebra(0)
    assert hc1_component(A, ()) == 0


def test_hc1_quantum_torus_windowed():
    # outside the centre lattice HC_1 vanishes, and degree 0 carries the two
    # classes <t_i^-1, t_i>
    A = _zeta3_torus()
    assert hc1_component(A, (1, 0)) == 0
    assert hc1_component(A, (0, 0)) == 2


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
    u = UceElement(U, w, U.sl.zero())
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


def _cocycle(E, x, y):
    """The c-coordinate of [x, y] for loop elements x, y of the affine E."""
    return E.bracket(E.from_l(x), E.from_l(y)).c[0]


def test_loop_cocycle():
    E = build_affine(3)
    L, A = E.L, E.L.A
    x = L.E(0, 1, A.monomial((1,)))
    y = L.E(1, 0, A.monomial((-1,)))
    assert _cocycle(E, x, y) == 1  # p = 1, tr(E01 E10) = 1
    assert _cocycle(E, L.E(0, 1), L.E(1, 0)) == 0  # p = 0
    assert _cocycle(E, x, L.E(1, 0, A.monomial((2,)))) == 0  # p + q != 0
    # antisymmetry and the cocycle identity on sampled triples
    rng = random.Random(2)
    basis = [L.E(i, j, A.monomial((k,)))
             for i in range(3) for j in range(3) if i != j for k in (-2, -1, 0, 1, 2)]
    for _ in range(60):
        a, b, c = (rng.choice(basis) for _ in range(3))
        assert _cocycle(E, a, b) == -_cocycle(E, b, a)
        total = (_cocycle(E, mat_bracket(a, b), c)
                 + _cocycle(E, mat_bracket(b, c), a)
                 + _cocycle(E, mat_bracket(c, a), b))
        assert total == 0


def test_custom_kappa_scales_cocycle():
    # the invariant form 2 tr(xy)^0 (phi = 2) doubles the cocycle
    L = MatrixLieAlgebra(3, GradedAssocAlgebra.laurent())
    E = build_E(default_iara_data(L, phi=F(2), C="dual"), window=2)
    x = L.E(0, 1, L.A.monomial((1,)))
    y = L.E(1, 0, L.A.monomial((-1,)))
    assert _cocycle(E, x, y) == 2


def test_affine_brackets():
    E = build_affine(3)
    c, d = E.c_basis_elem(0), E.d_basis_elem(0)
    x5 = E.from_l(E.L.E(0, 1, E.L.A.monomial((5,))))
    assert E.bracket(d, x5) == x5.scale(F(5))
    assert E.bracket(c, x5).is_zero()
    assert E.bracket(d, c).is_zero()
    assert E.form(c, d) == 1


def test_affine_root_spaces():
    for m, window, dim0, dim_delta in ((3, 3, 4, 2), (2, 2, 3, 1)):
        E = build_affine(m, window)
        assert all(E.acts_by_root(ro, deg) for ro, deg in E.windowed_roots(window))
        zero = (F(0),) * m
        assert len(E.root_space_basis(zero, (0,))) == dim0
        assert all(len(E.root_space_basis(zero, (k,))) == dim_delta
                   for k in range(-window, window + 1) if k)
    # with d lifted as the identity, d acts on E_(k delta) by 1, not by k
    E._lifts[0] = lambda l: l
    assert E.acts_by_root((F(0),) * 2, (1,))
    assert not E.acts_by_root((F(0),) * 2, (2,))


def test_affine_matches_affine_rs():
    # the delta-degrees of the affine algebra match R(A_2, 1) fibers
    from lietor.refl import build_affine_rs
    from lietor.rootsys import build_classical

    window = 3
    E = build_affine(3, window)
    ars, mp, kac = build_affine_rs(build_classical("A", 2), 1)
    assert mp == "A_2^(1)"
    for root in ars.S.sorted_roots():
        assert ars.datum.lam(root).window_elements(window) == \
            [(k,) for k in range(-window, window + 1)]
    # and every nonzero root space of E in the window is 1-dimensional
    for root in ars.S.sorted_roots():
        if any(root):
            for k in range(-window, window + 1):
                assert len(E.root_space_basis(root, (k,))) == 1


def test_k_is_root_graded_covering():
    # K = loop + Qc: invertibility lifts and c is central, so the
    # (A_2, Z)-grading transfers between K and the loop algebra.
    E = build_affine(3)
    L, A = E.L, E.L.A
    for m in (-2, 0, 1):
        e = E.from_l(L.E(0, 1, A.monomial((m,))))
        fvec = E.from_l(L.E(1, 0, A.monomial((-m,))).scale(F(-1)))
        h = E.bracket(fvec, e)
        assert E.bracket(h, e) == e.scale(F(2))
        assert E.bracket(h, fvec) == fvec.scale(F(-2))
        # eigenvalue law against another root space
        x = E.from_l(L.E(1, 2, A.monomial((1,))))
        assert E.bracket(h, x) == x.scale(F(-1))


# The affine bracket and form as a formula, on x t^p + alpha c + beta d
# stored as ({(p, i, j): coefficient}, alpha, beta):
#   [x t^p + alpha c + beta d, y t^q + gamma c + delta d]
#     = [x, y] t^(p+q) + beta q y t^q - delta p x t^p + delta_(p+q,0) p tr(xy) c
#   (x t^p + alpha c + beta d | y t^q + gamma c + delta d)
#     = tr(xy)^0 + alpha delta + gamma beta

def _affine_coords(e):
    loop = {(p, i, j): v for (i, j), a in e.l.entries.items() for ((p,), _), v in a.terms.items()}
    return loop, e.c[0], e.d[0]


def _formula_bracket(e1, e2):
    (x, _, beta), (y, _, delta) = e1, e2
    loop, c = {}, F(0)

    def add(key, v):
        loop[key] = loop.get(key, F(0)) + v

    for (p, i, k), u in x.items():
        for (q, l, j), v in y.items():
            if k == l:
                add((p + q, i, j), u * v)
                if i == j and p + q == 0:
                    c += p * u * v
            if j == i:
                add((p + q, l, k), -v * u)
    for (q, i, j), v in y.items():
        add((q, i, j), beta * q * v)
    for (p, i, j), u in x.items():
        add((p, i, j), -delta * p * u)
    return {k: v for k, v in loop.items() if v}, c, F(0)


def _formula_form(e1, e2):
    (x, alpha, beta), (y, gamma, delta) = e1, e2
    tr0 = sum((u * v for (p, i, k), u in x.items() for (q, l, j), v in y.items()
               if k == l and i == j and p + q == 0), F(0))
    return tr0 + alpha * delta + gamma * beta


@pytest.mark.parametrize("m", [2, 3])
def test_affine_matches_the_formula(m):
    E = build_affine(m, 2)
    basis = E.windowed_basis(2)
    assert len(basis) == 2 + 5 * (m * m - 1)
    for a in basis:
        ca = _affine_coords(a)
        for b in basis:
            cb = _affine_coords(b)
            assert _affine_coords(E.bracket(a, b)) == _formula_bracket(ca, cb)
            assert E.form(a, b) == _formula_form(ca, cb)


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
                blocks.is_zero_mod_b(w)
            raised += 1
            continue
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
            assert _hc1_dim_blocks(A, deg, w) == _hc1_dim_reference(A, deg, w), (w, deg)


HC1_PROBES = {
    "laurent": (GradedAssocAlgebra.laurent, [(0,), (1,), (-2,), (3,)]),
    "polynomial": (GradedAssocAlgebra.polynomial, [(0,), (1,), (-2,), (3,)]),
    "Q": (lambda: GradedAssocAlgebra.group_algebra(0), [()]),
    "Q[Z^2]": (lambda: GradedAssocAlgebra.group_algebra(2), None),
    "Q[N^2]": (lambda: GradedAssocAlgebra.group_algebra(2, support="nonneg"), None),
    "Q on {0} in Z^2": (lambda: GradedAssocAlgebra.group_algebra(2, support="zero"), None),
    "zeta3-torus": (_zeta3_torus, None),
    "q=2": (lambda: GradedAssocAlgebra.quantum_torus([[F(1), F(2)], [F(1, 2), F(1)]], QQ), None),
    "q=-1": (lambda: GradedAssocAlgebra.quantum_torus([[F(1), F(-1)], [F(-1), F(1)]], QQ), None),
}
RANK_2_PROBE_DEGREES = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 2), (3, 0), (3, -3), (-1, 2)]


@pytest.mark.parametrize("name", list(HC1_PROBES))
def test_hc1_formula_matches_both_oracles(name):
    # On these degrees the block count holds one value from window 2 through
    # window 5, so the oracles are read at window 2 (rank 2) and 3 (rank <= 1).
    make, degrees = HC1_PROBES[name]
    A = make()
    window = 2 if A.n == 2 else 3
    for deg in degrees or RANK_2_PROBE_DEGREES:
        got = hc1_component(A, deg)
        assert isinstance(got, int)
        assert got == _hc1_dim_blocks(A, deg, window) == _hc1_dim_reference(A, deg, window), deg


@pytest.mark.parametrize("name, deg, window", [
    # Two equal windows in a row stopped the windowed count at the wrong
    # value on these: 0 at windows 2-3 for (7, 0) and (9, 0), and 2 at
    # windows 3-4 for (5, 5).  Each window here is one from which the block
    # count holds its value.
    ("Q[Z^2]", (7, 0), 6),
    ("Q[Z^2]", (5, 5), 5),
    ("zeta3-torus", (9, 0), 7),
])
def test_hc1_where_the_window_count_stabilised_early(name, deg, window):
    A = HC1_PROBES[name][0]()
    assert hc1_component(A, deg) == _hc1_dim_blocks(A, deg, window) == 1


def test_hc1_refuses_crossed_products():
    with pytest.raises(ValueError, match="crossed"):
        hc1_component(_algebra("swap-crossed"), (0,))


def test_st3_brackets_every_pair_of_the_window(monkeypatch):
    A = _algebra("Q[Z^2]")
    U = build_uce_sl(3, A)
    assert steinberg_check(U, window=2)["st3"].ok
    # Neither coefficient is among the two first or two last monomials of
    # the window.
    a, b = A.monomial((0, 1)), A.monomial((1, -1))
    plain = UceAlgebra.bracket

    def bracket(self, u, v):
        if u.m.entries == {(0, 1): a} and v.m.entries == {(0, 2): b}:
            return UceElement(self, wedge(a, b), self.sl.zero())
        return plain(self, u, v)

    monkeypatch.setattr(UceAlgebra, "bracket", bracket)
    rep = steinberg_check(U, window=2)
    assert rep["st2"].ok
    assert not rep["st3"].ok and rep["st3"].witness == "st3 fails at (0,1,0,2)"


def test_st1_adds_every_pair_of_the_window(monkeypatch):
    A = _algebra("Q[Z^2]")
    U = build_uce_sl(3, A)
    st1 = steinberg_check(U, window=2)["st1"]
    assert st1.ok and st1.line() == "st1: windowed-pass (window 2)"
    # Neither summand is among the first or last monomials of the window.
    a, b = A.monomial((0, 1)), A.monomial((1, -1))
    plain = UceAlgebra.x

    def x(self, i, j, c):
        if (i, j) == (0, 1) and c == a + b:
            return plain(self, i, j, c + c)
        return plain(self, i, j, c)

    monkeypatch.setattr(UceAlgebra, "x", x)
    rep = steinberg_check(U, window=2)
    assert rep["st2"].ok and rep["st3"].ok
    assert not rep["st1"].ok
    assert rep["st1"].witness == "st1 fails at a = (1)t^(0, 1), b = (1)t^(1, -1)"

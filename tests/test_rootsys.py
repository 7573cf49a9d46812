from fractions import Fraction

import pytest

from lietor.rootsys import (
    RootSpace,
    RootSystem,
    build_classical,
    build_exceptional,
    classify,
    connected_components,
    indivisible_part,
    length_partition,
    normalized,
    root_strings_exhaustive,
    with_form,
)
from roots_reference import coroot_from_form, direct_sum, reflect, root_string
from test_root_rows import SYSTEMS, _base
from test_root_traversals import CRITERION2


def F(*args):
    return Fraction(*args)


def test_classical_counts():
    assert len(build_classical("A", 2).roots) == 7
    assert len(build_classical("B", 2).roots) == 9
    assert len(build_classical("C", 3).roots) == 19
    assert len(build_classical("D", 4).roots) == 25
    assert sorted(build_classical("BC", 1).roots) == [(-2,), (-1,), (0,), (1,), (2,)]


def test_exceptional_counts():
    assert len(build_exceptional("G2").roots) == 13
    assert len(build_exceptional("F4").roots) == 49
    assert len(build_exceptional("E6").roots) == 73
    assert len(build_exceptional("E7").roots) == 127
    assert len(build_exceptional("E8").roots) == 241


def test_reflection_examples():
    a2 = build_classical("A", 2)
    alpha = (F(1), F(-1), F(0))
    assert reflect(a2, alpha, (F(1), F(0), F(0))) == (F(0), F(1), F(0))
    for a in a2.nonzero_roots():
        assert reflect(a2, a, a) == tuple(-x for x in a)
    x = (F(2), F(-1), F(3))
    assert reflect(a2, (F(0),) * 3, x) == x


def test_root_string_examples():
    b2 = build_classical("B", 2)
    interval, p, q = root_string(b2, (F(0), F(1)), (F(1), F(-1)))
    assert interval == [0, 1] and p == 1 and q == 0
    interval, p, q = root_string(b2, (F(1), F(0)), (F(1), F(0)))
    assert interval == [-2, -1, 0]
    g2 = build_exceptional("G2")
    short = (F(1), F(-1), F(0))
    long_adj = (F(-2), F(1), F(1))
    interval, p, q = root_string(g2, long_adj, short)
    assert p - q == -g2.pairing(long_adj, short)


def test_root_strings_exhaustive_small_ranks():
    for fam, rk in [("A", 3), ("B", 4), ("C", 4), ("D", 4), ("BC", 2)]:
        ok, mx, wit = root_strings_exhaustive(build_classical(fam, rk))
        assert ok, wit
        assert mx <= 5


def test_normalized_value_sets():
    cases = [
        (build_classical("A", 4), {2}),
        (build_classical("B", 3), {2, 4}),
        (build_exceptional("G2"), {2, 6}),
        (build_classical("BC", 1), {2, 8}),
        (build_classical("BC", 2), {2, 4, 8}),
    ]
    for rs, expected in cases:
        nrs = normalized(rs)
        values = {nrs.space.pair(a, a) for a in nrs.nonzero_roots()}
        assert values == {Fraction(v) for v in expected}


def test_normalized_form_w_invariant():
    rs = normalized(build_classical("B", 2))
    for a in rs.nonzero_roots():
        for x in rs.roots:
            for y in rs.roots:
                sx, sy = reflect(rs, a, x), reflect(rs, a, y)
                assert rs.space.pair(sx, sy) == rs.space.pair(x, y)


def test_normalized_form_rescaled_input():
    # ambient bigger than the span plus a denormalized input form
    a2 = build_classical("A", 2)
    scaled = with_form(a2, [[6 * x for x in row] for row in a2.space.form])
    n = normalized(scaled)
    assert {n.space.pair(a, a) for a in n.nonzero_roots()} == {Fraction(2)}
    for a in n.nonzero_roots():
        for x in n.roots:
            for y in n.roots:
                assert n.space.pair(reflect(n, a, x), reflect(n, a, y)) == n.space.pair(x, y)


def test_normalized_form_mixed_direct_sum():
    ds = normalized(direct_sum(build_classical("B", 2), build_exceptional("G2")))
    values = sorted({ds.space.pair(a, a) for a in ds.nonzero_roots()})
    assert values == [Fraction(2), Fraction(4), Fraction(6)]


def test_length_partition():
    g2 = normalized(build_exceptional("G2"))
    sh, lg, div, k = length_partition(g2)
    assert k == 3 and len(sh) == 6 and len(lg) == 6
    bc1 = normalized(build_classical("BC", 1))
    sh, lg, div, k = length_partition(bc1)
    assert {a for a in div if any(a)} == {(F(2),), (F(-2),)}
    assert not lg and k is None
    a3 = normalized(build_classical("A", 3))
    sh, lg, div, k = length_partition(a3)
    assert not lg and len(sh) == 12


def test_classify_round_trip():
    cases = []
    cases += [("A", n) for n in range(1, 9)]
    cases += [("B", n) for n in range(2, 9)]
    cases += [("C", n) for n in range(3, 9)]
    cases += [("D", n) for n in range(4, 9)]
    cases += [("BC", n) for n in range(1, 9)]
    for fam, rk in cases:
        assert classify(build_classical(fam, rk)).components == [(fam, rk)]
    for fam in ["G2", "F4", "E6", "E7", "E8"]:
        got = classify(build_exceptional(fam))
        assert got.components[0][0] == fam


def test_classify_aliases():
    assert classify(build_classical("C", 2)).components == [("B", 2)]
    assert classify(build_classical("B", 1)).components == [("A", 1)]
    assert classify(build_classical("C", 1)).components == [("A", 1)]
    assert classify(build_classical("D", 2)).components == [("A", 1), ("A", 1)]
    assert classify(build_classical("D", 3)).components == [("A", 3)]


def test_direct_sum_classification():
    rs = direct_sum(build_classical("A", 1), build_classical("A", 1))
    assert classify(rs).components == [("A", 1), ("A", 1)]
    assert len(connected_components(rs)) == 2


def test_indivisible_part():
    bc2 = build_classical("BC", 2)
    ind = indivisible_part(bc2)
    assert (F(2), F(0)) not in ind and (F(1), F(0)) in ind


def test_degenerate_form_rejected():
    a1 = build_classical("A", 1)
    zero_form = tuple((F(0), F(0)) for _ in range(2))
    with pytest.raises(ValueError):
        RootSystem(type(a1.space)(2, zero_form), a1.roots)


def test_d1_rejected():
    with pytest.raises(ValueError):
        build_classical("D", 1)


def test_integer_roots_reflect_decides_the_image():
    from lietor.rootsys import IntegerRoots, RootSpace, with_form

    # B2 with long roots 3(+-e1 +-e2): <e1, (3, 3)_check> = 1/3, yet
    # s_(3,3)(e1) = (0, -1) is a root
    one, zero = F(1), F(0)
    roots = {(zero, zero), (one, zero), (-one, zero), (zero, one), (zero, -one)}
    roots |= {(3 * s * one, 3 * t * one) for s in (1, -1) for t in (1, -1)}
    m = IntegerRoots(roots, RootSystem(RootSpace(2, ((one, zero), (zero, one))), roots).coroots)
    assert m.pairing((1, 0), (3, 3)) == F(1, 3)
    assert m.reflect((3, 3), (1, 0)) == (0, -1)
    # A2 under diag(1, 2, 3): s_(-1,0,1)((-1,1,0)) = (-1/2, 1, -1/2)
    diag = [[F(i + 1) if i == j else F(0) for j in range(3)] for i in range(3)]
    a2 = with_form(build_classical("A", 2), diag)
    m = IntegerRoots(a2.roots, a2.coroots)
    assert m.pairing((-1, 1, 0), (-1, 0, 1)) == F(1, 2)
    assert m.reflect((-1, 0, 1), (-1, 1, 0)) is None
    assert m.reflect((-1, 0, 1), (0, 0, 0)) == (0, 0, 0)


def _assert_coroots_match_the_oracle(rs):
    assert dict(rs.coroots) == {a: coroot_from_form(rs.space, a) for a in rs.roots}


@pytest.mark.parametrize("fam,rk", CRITERION2, ids=[f"{f}{r or ''}" for f, r in CRITERION2])
def test_form_coroots_match_the_fraction_oracle(fam, rk):
    rs = build_exceptional(fam) if rk is None else build_classical(fam, rk)
    _assert_coroots_match_the_oracle(rs)
    _assert_coroots_match_the_oracle(normalized(rs))


@pytest.mark.parametrize("fam,rk", SYSTEMS, ids=[f"{f}{r or ''}" for f, r in SYSTEMS])
def test_form_coroots_match_the_fraction_oracle_on_perturbed_systems(fam, rk):
    # test_root_rows' diag(1, 2, 3, ...) form and roots divided by 3
    for variant in ("diag", "thirds"):
        _assert_coroots_match_the_oracle(_base(fam, rk, variant))


def test_form_coroots_match_the_fraction_oracle_off_the_identity():
    # the system of the refl_g2_normalized golden, a form that is not
    # symmetric, and a form with a denominator in every entry
    a2, b3 = build_classical("A", 2), build_classical("B", 3)
    skewed = [[x + (F(1, 2) if (i, j) == (0, 1) else 0) for j, x in enumerate(row)]
              for i, row in enumerate(a2.space.form)]
    fractional = [[F(i + j + 2, 3 * (i + 1) * (j + 1)) + (i == j) for j in range(3)]
                  for i in range(3)]
    for rs in (normalized(build_exceptional("G2")), with_form(a2, skewed),
               with_form(b3, fractional)):
        _assert_coroots_match_the_oracle(rs)


def test_isotropic_root_names_the_root():
    # e1 is the one isotropic root under diag(0, 1); the oracle names it alike
    space = RootSpace(2, ((F(0), F(0)), (F(0), F(1))))
    e1 = (F(1), F(0))
    roots = {(F(0), F(0)), e1, (F(0), F(1)), (F(0), F(-1))}
    with pytest.raises(ValueError) as got:
        RootSystem(space, roots)
    with pytest.raises(ValueError) as want:
        coroot_from_form(space, e1)
    assert str(got.value) == str(want.value) == f"isotropic nonzero root {e1} under the given form"

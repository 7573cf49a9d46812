"""The row kernel of IntegerRoots against the per-pair references of
roots_reference.py.

validate_axioms, predicates, check_form, root_strings_exhaustive,
connected_components, the integrality check and the ED1 sums read one row
of pairings per real root and look roots up by packed integer keys; the
references build a tuple for every pair.  Both must give the same verdicts,
witnesses and values on perturbed systems, including systems whose
pairings are fractional and whose reflected images leave the box of the
root coordinates.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as hs

import roots_reference as ref
from lietor.lattices import LatticeSubset
from lietor.refl import (
    PreReflectionSystem,
    _ed1_sums,
    _integral_roots,
    ars_structure,
    build_affine_rs,
    check_form,
    predicates,
    validate_axioms,
)
from lietor.rootsys import (
    IntegerRoots,
    RootSpace,
    RootSystem,
    build_classical,
    build_exceptional,
    connected_components,
    root_strings_exhaustive,
    vec_add,
    with_form,
)
from lietor.scalars import frac_to_str as fs

F = Fraction

# Criterion 2's systems, E7 and E8 left out for time.
SYSTEMS = ([("A", n) for n in range(1, 6)] + [("B", n) for n in range(2, 6)]
           + [("C", n) for n in range(3, 6)] + [("D", n) for n in range(4, 6)]
           + [("BC", n) for n in range(1, 6)] + [(fam, None) for fam in ("G2", "F4", "E6")])


@lru_cache(maxsize=None)
def _base(fam, rk, variant):
    """The system, the same under a diag(1, 2, 3, ...) form (fractional
    pairings), or with its roots divided by 3."""
    rs = build_exceptional(fam) if rk is None else build_classical(fam, rk)
    n = rs.dim
    if variant == "diag":
        return with_form(rs, [[F(i + 1) if i == j else F(0) for j in range(n)] for i in range(n)])
    if variant == "thirds":
        return RootSystem(rs.space, {tuple(x / 3 for x in a) for a in rs.roots})
    return rs


def _rows_and_reference_agree(prs, form):
    got, want = validate_axioms(prs), ref.validate_axioms(prs)
    for check in want.checks:
        assert got[check.name].to_json() == check.to_json(), check.name
    assert [c.name for c in got.checks] == [c.name for c in want.checks]
    assert predicates(prs) == ref.predicates(prs)
    assert root_strings_exhaustive(prs) == ref.root_strings_exhaustive(prs)
    assert check_form(prs, form) == ref.check_form(prs, form)
    assert connected_components(prs) == ref.connected_components(prs)
    m = IntegerRoots(prs.roots, prs.coroots)
    assert max((len(s) for a in m.real for s in m.strings(a)), default=0) == ref.max_string_len(m)


@hs.composite
def perturbed_systems(draw):
    """A criterion-2 system (plain, diag form or thirds) and up to three of:
    drop a root, rescale a coroot (fractional pairings), shear one coroot by
    another, add an imaginary root b + k a."""
    fam, rk = draw(hs.sampled_from(SYSTEMS))
    rs = _base(fam, rk, draw(hs.sampled_from(("plain", "diag", "thirds"))))
    roots, coroots = set(rs.roots), dict(rs.coroots)
    dim = rs.dim
    for kind in draw(hs.lists(hs.sampled_from(("drop", "rescale", "shear", "imaginary")),
                              max_size=3)):
        real = sorted(a for a in roots if any(coroots[a]))
        if kind == "drop":
            roots.discard(draw(hs.sampled_from(sorted(roots))))
        elif kind == "rescale" and real:
            a = draw(hs.sampled_from(real))
            c = draw(hs.sampled_from((F(1, 2), F(1, 3), F(2, 3), F(3), F(-1))))
            coroots[a] = tuple(c * x for x in coroots[a])
        elif kind == "shear" and len(real) >= 2:
            a, b = draw(hs.permutations(real))[:2]
            coroots[a] = vec_add(coroots[a], coroots[b])
        elif kind == "imaginary" and real:
            a, b = draw(hs.sampled_from(real)), draw(hs.sampled_from(sorted(roots)))
            d = tuple(x + draw(hs.sampled_from((1, 2, 3))) * y for x, y in zip(b, a))
            if d not in roots:
                roots.add(d)
                coroots[d] = (F(0),) * dim
    return PreReflectionSystem(dim, roots, coroots), rs.space.form


@settings(max_examples=120, deadline=None, database=None)
@given(perturbed_systems())
def test_rows_match_the_per_pair_reference(case):
    prs, form = case
    _rows_and_reference_agree(prs, form)


def _ambient_affine_form(ars):
    """The form of S on the Y coordinates, zero on the Z coordinates."""
    form = [[F(0)] * ars.dim for _ in range(ars.dim)]
    for i in range(ars.y_dim):
        for j in range(ars.y_dim):
            form[i][j] = ars.S.space.form[i][j]
    return form


@pytest.mark.parametrize("fam,rk,tier,window", [("A", 2, 1, 2), ("B", 2, 2, 2), ("G2", None, 3, 1),
                                                ("BC", 1, 1, 2)])
def test_rows_match_on_affine_windows(fam, rk, tier, window):
    # imaginary roots, a degenerate form, and an affine one on the ambient space
    ars = build_affine_rs(_base(fam, rk, "plain"), tier)[0]
    prs = ars.to_prs(window)
    _rows_and_reference_agree(prs, _ambient_affine_form(ars))
    assert ars_structure(ars, window)["max_string_len"] == ref.max_string_len(
        IntegerRoots(prs.roots, prs.coroots))


def test_images_outside_the_box_of_the_roots():
    # <(0, -1), a_check> = 4 for a = (-1, 0), a_check = (-2, -4): the image
    # s_a((0, -1)) = (4, -1) leaves the box [-1, 1]^2 of the root
    # coordinates.  Keyed with the base 3 = 2 * 1 + 1 sized from the roots
    # alone it would alias to the real root (1, 0), and s_a((0, 1)) = (-4, 1)
    # to (-1, 0), so ReS2 would pass; the base from the pairing bound keeps
    # every image apart.
    a, b = (F(1), F(0)), (F(0), F(1))
    a_check, b_check = (F(2), F(4)), (F(0), F(2))
    zero = (F(0), F(0))
    coroots = {zero: zero}
    for s in (1, -1):
        coroots[tuple(s * x for x in a)] = tuple(s * x for x in a_check)
        coroots[tuple(s * x for x in b)] = tuple(s * x for x in b_check)
    prs = PreReflectionSystem(2, coroots, coroots)
    m = IntegerRoots(prs.roots, prs.coroots)
    image = tuple(x - 4 * y for x, y in zip((0, -1), (-1, 0)))
    assert image == (4, -1) and image not in m.roots

    def small_key(v):
        return v[0] + 3 * v[1]

    assert small_key(image) == small_key((1, 0))
    assert m.base > 2 * 4 + 1
    got, want = validate_axioms(prs)["ReS2"], ref.validate_axioms(prs)["ReS2"]
    assert not got.ok
    assert got.to_json() == want.to_json()
    assert got.witness == "s_(-1, 0)((0, -1)) leaves the real part"


def test_integral_roots_names_the_reference_pair():
    # B2 with long roots 3(+-e1 +-e2): <e1, (3, 3)_check> = 1/3
    one, zero = F(1), F(0)
    roots = {(zero, zero), (one, zero), (-one, zero), (zero, one), (zero, -one)}
    roots |= {(3 * s * one, 3 * t * one) for s in (1, -1) for t in (1, -1)}
    S = RootSystem(RootSpace(2, ((one, zero), (zero, one))), roots)
    m = IntegerRoots(S.roots, S.coroots)
    a, b = ref.fractional_pairing(m)
    with pytest.raises(ValueError) as err:
        _integral_roots(S)
    assert str(err.value) == (f"S is not integral: <{fs(m.orig[b])}, {fs(m.orig[a])}_check> "
                              f"= {fs(m.pairing(b, a))}")


@pytest.mark.parametrize("fam,rk,variant", [("A", 3, "plain"), ("B", 3, "diag"), ("G2", None, "plain"),
                                            ("BC", 2, "thirds"), ("F4", None, "diag")])
def test_ed1_sums_match_the_reference(fam, rk, variant):
    rs = _base(fam, rk, variant)
    m = IntegerRoots(rs.roots, rs.coroots)
    lam = {a: LatticeSubset.scaled_full(1, 1 + i % 3) for i, a in enumerate(sorted(rs.roots))}.get
    assert list(_ed1_sums(m, lam)) == list(ref.ed1_sums(m, lam))


@pytest.mark.parametrize("roots,coroots,reason", [
    # alpha = 1 with <alpha, alpha_check> = -1: the string {1, 2} agrees with
    # p - q = -<beta, alpha_check> at its bottom and not at its top
    ({(F(1),), (F(2),)}, {(F(1),): (F(-1),), (F(2),): (F(0),)}, "p - q mismatch"),
    # 1 and 4 = 1 + 3 * 1 with two points missing between them
    ({(F(1),), (F(4),)}, {(F(1),): (F(0),), (F(4),): (F(0),)}, "broken string"),
])
def test_string_failures_off_the_bottom(roots, coroots, reason):
    prs = PreReflectionSystem(1, roots, coroots)
    got = root_strings_exhaustive(prs)
    assert got == ref.root_strings_exhaustive(prs)
    assert got[0] is False and got[2][2] == reason


@pytest.mark.parametrize("fam,rk", [("A", 2), ("B", 3), ("G2", None)])
def test_check_form_matches_on_skewed_and_degenerate_forms(fam, rk):
    # the radical reads (a | b), invariance (b | a): a form that is not
    # symmetric tells them apart, and a rank-one form has a radical
    rs = _base(fam, rk, "plain")
    prs = PreReflectionSystem.from_root_system(rs)
    n = rs.dim
    skewed = [[x + (F(1, 2) if (i, j) == (0, 1) else 0) for j, x in enumerate(row)]
              for i, row in enumerate(rs.space.form)]
    first = [[F(int(i == j == 0)) for j in range(n)] for i in range(n)]
    column = [[F(int(j == 0)) for j in range(n)] for _ in range(n)]
    for form in (skewed, first, column, [[F(0)] * n for _ in range(n)]):
        assert check_form(prs, form) == ref.check_form(prs, form)


def test_check_form_radical_reads_a_on_the_left():
    # R = {0, +-e1, e2, e3}, e2 and e3 imaginary, and (e1 | e2) = 1 while
    # (e2 | e1) = 0: invariance reads only (x | +-e1), and e2 is in the
    # radical {a : (a | x) = 0 for every root x}, so the form is affine
    z, one = F(0), F(1)
    e1, e2, e3 = (one, z, z), (z, one, z), (z, z, one)
    coroots = {(z, z, z): (z, z, z), e2: (z, z, z), e3: (z, z, z),
               e1: (F(2), z, z), (-one, z, z): (F(-2), z, z)}
    prs = PreReflectionSystem(3, coroots, coroots)
    form = [[F(2), one, z], [z, z, z], [z, z, z]]
    flags = check_form(prs, form)
    assert flags == ref.check_form(prs, form)
    assert flags == {"invariant": True, "strictly_invariant": True, "affine": True}

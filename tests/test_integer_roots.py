"""The root layer on integers.

Every built root, coroot and form entry is an int wherever it is integral,
and never a float.  A root set given with Fraction coordinates, as JSON
gives it, gets the verdicts and witnesses of the int-built one.  The ranks
and kernels of integer matrices, Gram matrices of roots among them, are
taken by HNF and agree with the rational ones.  ars_structure walks one of
each real a and -a, and agrees with the walk over every real root.
"""

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as hs

from lietor.eala import build_E, default_iara_data
from lietor.graded import GradedAssocAlgebra
from lietor.lattices import LatticeSubset
from lietor.linalg import integer_kernel, lattice_rank, rank
from lietor.matlie import DirectSumSl, MatrixLieAlgebra
from lietor.refl import (
    AffineReflectionSystem,
    ExtensionDatum,
    ars_structure,
    build_affine_rs,
    check_form,
    predicates,
    validate_axioms,
)
from lietor.rootsys import (
    FAMILIES,
    PreReflectionSystem,
    RootSpace,
    RootSystem,
    build_classical,
    build_exceptional,
    indivisible_part,
    normalized,
    root_strings_exhaustive,
)
from lietor.scalars import QQ, frac_to_str as fs
from eala_reference import root_reflection_data
from test_refl import bc1_odd7_ars
from test_root_traversals import CRITERION2


def _build(fam, rk):
    return build_exceptional(fam) if rk is None else build_classical(fam, rk)


BUILT = ([(fam, rk) for fam in ("A", "B", "C", "BC") for rk in range(1, 6)]
         + [("D", rk) for rk in range(2, 6)] + [(fam, None) for fam in FAMILIES[5:]])
CASE_IDS = [f"{f}{r or ''}" for f, r in BUILT]


def _exact_types(values):
    """The values that are a float, or not an int although integral."""
    return [x for x in values
            if type(x) not in (int, Fraction) or (x.denominator == 1) != (type(x) is int)]


def _coordinates(rs):
    return ([x for a in rs.roots for x in a] + [x for c in rs.coroots.values() for x in c]
            + [x for row in rs.space.form for x in row])


@pytest.mark.parametrize("fam,rk", BUILT, ids=CASE_IDS)
def test_built_coordinates_are_ints_where_integral(fam, rk):
    rs = _build(fam, rk)
    assert _exact_types(_coordinates(rs)) == []
    assert _exact_types(_coordinates(normalized(rs))) == []
    assert rs.model.root_scale == (2 if fam in ("F4", "E6", "E7", "E8") else 1)


def test_g2_long_roots_are_int_and_coroots_thirds():
    g2 = build_exceptional("G2")
    long = {a for a in g2.roots if sum(x * x for x in a) == 6}
    assert long == {(2, -1, -1), (-1, 2, -1), (-1, -1, 2), (-2, 1, 1), (1, -2, 1), (1, 1, -2)}
    assert all(type(x) is int for a in long for x in a)
    assert g2.coroots[(2, -1, -1)] == (QQ(2, 3), QQ(-1, 3), QQ(-1, 3))
    assert g2.model.coroot_scale == 3


def test_sl_and_e_roots_are_int_tuples():
    L = MatrixLieAlgebra(3, GradedAssocAlgebra.laurent())
    assert L.root_of(0, 2) == (1, 0, -1)
    assert _exact_types([x for a in L.S.roots for x in a]) == []
    assert all(type(x) is int for a in DirectSumSl(2, 2, L.A).S.roots for x in a)
    E = build_E(default_iara_data(L), validate=False)
    roots = E.class_list(1)[0]
    assert ((0, 0, 0), (0,)) in roots
    assert all(type(x) is int for ro, deg in roots for x in ro + deg)
    real, imag = root_reflection_data(E, 1)
    assert all(type(x) is int for v in real | imag for x in v)
    ars = build_affine_rs(build_classical("B", 2), 2)[0]
    prs = ars.to_prs(1)
    assert all(type(x) is int for a in prs.roots for x in a)


def test_a_missing_lambda_names_its_root_as_p_over_q():
    f4 = build_exceptional("F4")
    half = (QQ(1, 2),) * 4
    fam = {a: LatticeSubset.full(1) for a in f4.roots if a != half}
    with pytest.raises(ValueError) as err:
        ExtensionDatum(f4, frozenset(indivisible_part(f4)), 1, fam)
    assert str(err.value) == "Lambda missing for root (1/2, 1/2, 1/2, 1/2)"


# The 24 systems of criterion 2 with Fraction coordinates against the
# int-built ones, also broken: without a root (ReS2 and the strings fail)
# and with one coroot doubled (ReS0, ReS3 and ReS4 fail).

def _frac(v):
    return tuple(map(Fraction, v))


def _as_fractions(prs):
    return PreReflectionSystem(prs.dim, [_frac(a) for a in prs.roots],
                               {_frac(a): _frac(c) for a, c in prs.coroots.items()})


def _variants(rs):
    top = max(rs.roots)
    roots = sorted(rs.roots)
    doubled = {a: tuple(2 * x for x in c) if a == top else c for a, c in rs.coroots.items()}
    return {"built": PreReflectionSystem(rs.dim, roots, rs.coroots),
            "dropped": PreReflectionSystem(rs.dim, roots[:-1], rs.coroots),
            "doubled": PreReflectionSystem(rs.dim, roots, doubled)}


def _verdicts(prs):
    """Each verdict and witness as text, so a Fraction repr would show."""
    ok, longest, witness = root_strings_exhaustive(prs)
    strings = (ok, longest, None if witness is None
               else (fs(witness[0]), fs(witness[1]), witness[2]))
    return ([c.to_json() for c in validate_axioms(prs).checks], predicates(prs), strings)


@pytest.mark.parametrize("fam,rk", CRITERION2, ids=[f"{f}{r or ''}" for f, r in CRITERION2])
def test_fraction_coordinates_give_the_int_verdicts(fam, rk):
    rs = _build(fam, rk)
    for name, prs in _variants(rs).items():
        got = _verdicts(prs)
        assert got == _verdicts(_as_fractions(prs)), name
        assert all(c["status"] == "pass" for c in got[0]) == (name == "built")
    # the same roots and form given in Fractions: the coroots of the form
    # are again ints wherever integral, and every verdict is the same
    again = RootSystem(RootSpace(rs.dim, tuple(map(_frac, rs.space.form))),
                       {_frac(a) for a in rs.roots})
    assert dict(again.coroots) == dict(rs.coroots)
    assert _exact_types([x for c in again.coroots.values() for x in c]) == []
    assert _verdicts(again) == _verdicts(rs)
    assert check_form(again, again.space.form) == check_form(rs, rs.space.form)


# Integer ranks and kernels against the rational ones.

def _assert_integer_rank_and_kernel(m):
    ncols = len(m[0])
    r = rank(m, QQ)
    assert lattice_rank(m) == r
    ker = integer_kernel(m, ncols)
    assert len(ker) == ncols - r
    assert ker == [] or lattice_rank(ker) == len(ker)
    for v in ker:
        assert all(type(x) is int for x in v)
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m)


@hs.composite
def _integer_matrices(draw):
    """An integer matrix of up to 8 x 8, often of low rank: a product of an
    r x k and a k x c matrix of small entries."""
    r, c, k = draw(hs.integers(1, 8)), draw(hs.integers(1, 8)), draw(hs.integers(0, 8))
    small = hs.integers(-4, 4)
    left = [draw(hs.lists(small, min_size=k, max_size=k)) for _ in range(r)]
    right = [draw(hs.lists(small, min_size=c, max_size=c)) for _ in range(k)]
    return [[sum(x * y[j] for x, y in zip(row, right)) for j in range(c)] for row in left]


@seed(31)
@settings(max_examples=300, deadline=None, database=None)
@given(_integer_matrices())
def test_integer_rank_and_kernel_agree_with_the_rational_ones(m):
    _assert_integer_rank_and_kernel(m)


@pytest.mark.parametrize("fam,rk", CRITERION2, ids=[f"{f}{r or ''}" for f, r in CRITERION2])
def test_integer_rank_and_kernel_of_the_gram_matrices(fam, rk):
    m = _build(fam, rk).model
    for gram in (m.root_gram(), m.coroot_gram()):
        _assert_integer_rank_and_kernel(gram)


# ars_structure reads one of each real a and -a.

def _asymmetric_a1_ars():
    """A1 with Lambda_0 = Lambda_a = {0} and Lambda_-a = {9}: up to window
    4, a is the one real root, and -a is not in the window."""
    a1 = build_classical("A", 1)
    top = max(a1.roots)
    fam = {a: LatticeSubset.finite(1, [(9,)]) if any(a) and a != top else LatticeSubset.zero(1)
           for a in a1.roots}
    ed = ExtensionDatum(a1, frozenset(indivisible_part(a1)), 1, fam)
    return AffineReflectionSystem(a1, ed.S_prime, ed)


ARS_DATA = {
    **{f"{f}{r or ''}-t{t}": (lambda f=f, r=r, t=t: build_affine_rs(_build(f, r), t)[0])
       for f, r, t in [("A", 1, 1), ("A", 2, 1), ("B", 2, 2), ("B", 3, 2), ("C", 3, 2),
                       ("BC", 1, 1), ("BC", 2, 1), ("G2", None, 3)]},
    "BC1-odd7": bc1_odd7_ars,
    "A1-asymmetric": _asymmetric_a1_ars,
}


@pytest.mark.parametrize("name", sorted(ARS_DATA))
def test_max_string_len_matches_the_full_scan(name):
    ars = ARS_DATA[name]()
    for window in (1, 2, 3, 4):
        m = ars.to_prs(window).model
        full = max((len(s) for a in m.real for s in m.strings(a)), default=0)
        assert ars_structure(ars, window)["max_string_len"] == full, window

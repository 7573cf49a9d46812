import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as hs

from lietor.linalg import inverse, mat_mul
from lietor.refl import check_form, predicates, validate_axioms
from lietor.rootsys import (
    PreReflectionSystem,
    RootSpace,
    RootSystem,
    TypeLabel,
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
from lietor.scalars import QQ, frac_to_str
from roots_reference import coroot_from_form, direct_sum, integer_model, reflect, root_string
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


def test_root_string_witness_is_a_function_of_the_root_set():
    # A4 without its top root, given in increasing and in decreasing order:
    # the two store their rows in different orders, and the witness and the
    # length read before it are the same.
    rs = build_classical("A", 4)
    top = max(rs.roots)
    rest = sorted(rs.roots - {top})
    built = [PreReflectionSystem(rs.dim, roots, rs.coroots) for roots in (rest, rest[::-1])]
    assert built[0].roots == built[1].roots and list(built[0].roots) != list(built[1].roots)
    got = {root_strings_exhaustive(prs) for prs in built}
    assert got == {(False, 0, ((-1, 0, 0, 0, 1), (-1, 0, 0, 0, 1), "p - q mismatch"))}


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


def test_classify_reads_the_lengths_of_a_negative_form():
    # -F gives the coroots of F; its norms have the other sign
    for fam, rk in [("B", 3), ("C", 3), ("BC", 2)]:
        rs = build_classical(fam, rk)
        negative = with_form(rs, [[-x for x in row] for row in rs.space.form])
        assert classify(negative).components == [(fam, rk)]


def _negated(rs):
    return with_form(rs, [[-x for x in row] for row in rs.space.form])


@pytest.mark.parametrize("fam, rk", [("B", 3), ("C", 3), ("G2", None), ("BC", 2)])
def test_a_negated_form_normalizes_as_the_form_does(fam, rk):
    # each component is scaled by 2 over its norm of least absolute value,
    # and G2's complement (1, 1, 1) of the roots' span turns with it
    rs = build_exceptional(fam) if rk is None else build_classical(fam, rk)
    want, got = normalized(rs), normalized(_negated(rs))
    assert got.space.form == want.space.form
    assert length_partition(got) == length_partition(want)


def test_direct_sum_classification():
    rs = direct_sum(build_classical("A", 1), build_classical("A", 1))
    assert classify(rs).components == [("A", 1), ("A", 1)]
    assert len(connected_components(rs)) == 2


# classify is a check: a root set that is no root system fails with a
# witness, and gets no label.

def _without(rs, a):
    """rs without the roots a and -a."""
    return RootSystem(rs.space, rs.roots - {a, tuple(-x for x in a)})


def _b2_and_twice_its_long_roots():
    """B2 and the W-orbit of 2(e1 - e2), the roots +-2e1 +- 2e2: every
    reflection keeps the set, and <e1, (2e1 + 2e2)_check> = 1/2."""
    b2 = build_classical("B", 2)
    return RootSystem(b2.space, b2.roots | {(2 * s, 2 * t) for s in (1, -1) for t in (1, -1)})


def test_classify_fails_without_a_pair_of_roots():
    # The witness is an image that is no root, or a root that the simple
    # reflections never reach.  Each kind is the witness of some drop.
    kinds = {}
    for fam, rk in [("B", 2), ("G2", None), ("BC", 2), ("C", 3), ("F4", None)]:
        rs = build_exceptional(fam) if rk is None else build_classical(fam, rk)
        for a in sorted(rs.nonzero_roots()):
            if a < tuple(-x for x in a):
                continue
            label = classify(_without(rs, a))
            assert not label.ok and label.components == [], label
            missing = label.witness.endswith(" is not a root")
            assert missing or " is not reached by the simple reflections of " in label.witness
            kinds.setdefault(fam, set()).add("missing" if missing else "unreached")
    both = {"missing", "unreached"}
    assert kinds == {"B": both, "G2": both, "BC": both, "C": both, "F4": {"missing"}}
    # B2 without +-(e1 - e2): its simple roots e1 and e2 are orthogonal
    label = classify(_without(build_classical("B", 2), (1, -1)))
    assert label.witness == "(-1, -1) is not reached by the simple reflections of [(1, 0), (0, 1)]"


def test_classify_fails_on_a_pairing_that_is_not_an_integer():
    rs = _b2_and_twice_its_long_roots()
    assert all(reflect(rs, a, b) in rs.roots for a in rs.roots for b in rs.roots)
    assert classify(rs) == TypeLabel([], "<(1, 0), (2, 2)_check> = 1/2 is not an integer")


# The same root set in other coordinates: x -> M x, with the form
# M^-T F M^-1, keeps every pairing and every norm, so the classify label
# and every refl status are the same.

PRESENTED = {
    **{f"{f}{r or ''}": (lambda f=f, r=r: build_exceptional(f) if r is None
                         else build_classical(f, r))
       for f, r in [("A", 2), ("B", 3), ("C", 3), ("BC", 1), ("BC", 2), ("D", 4), ("G2", None),
                    ("F4", None)]},
    "A1+B2": lambda: direct_sum(build_classical("A", 1), build_classical("B", 2)),
    "B2-without-e1": lambda: _without(build_classical("B", 2), (1, 0)),
    "B2-without-e1-e2": lambda: _without(build_classical("B", 2), (1, -1)),
    "B2+2(e1-e2)": _b2_and_twice_its_long_roots,
}


@hs.composite
def _presentations(draw):
    """A system of PRESENTED and an invertible rational M = D L U: L and U
    unitriangular with small integer entries, D diagonal and nonzero."""
    name = draw(hs.sampled_from(sorted(PRESENTED)))
    rs = PRESENTED[name]()
    n = rs.dim
    small = hs.integers(-2, 2)
    lower = [[1 if i == j else draw(small) if j < i else 0 for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else draw(small) if j > i else 0 for j in range(n)] for i in range(n)]
    diag = [QQ(draw(hs.sampled_from([1, -1, 2, -3])), draw(hs.integers(1, 3))) for _ in range(n)]
    m = mat_mul([[d * x for x in row] for d, row in zip(diag, lower)], upper, QQ)
    return name, rs, m


def _refl_and_classify(rs):
    label = classify(rs)
    return (label.ok, label.components,
            [(c.name, c.status) for c in validate_axioms(rs).checks],
            predicates(rs), check_form(rs, rs.space.form))


@seed(11)
@settings(max_examples=60, deadline=None, database=None)
@given(_presentations())
def test_a_change_of_coordinates_keeps_the_label_and_the_refl_verdicts(data):
    name, rs, m = data
    m_inv = inverse(m, QQ)
    form = mat_mul(mat_mul([list(col) for col in zip(*m_inv)], [list(r) for r in rs.space.form],
                           QQ), m_inv, QQ)
    moved = RootSystem(RootSpace(rs.dim, tuple(map(tuple, form))),
                       {tuple(sum((c * x for c, x in zip(row, a)), QQ.zero) for row in m)
                        for a in rs.roots})
    assert _refl_and_classify(moved) == _refl_and_classify(rs), name


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
    from lietor.rootsys import RootSpace, with_form

    # B2 with long roots 3(+-e1 +-e2): <e1, (3, 3)_check> = 1/3, yet
    # s_(3,3)(e1) = (0, -1) is a root
    one, zero = F(1), F(0)
    roots = {(zero, zero), (one, zero), (-one, zero), (zero, one), (zero, -one)}
    roots |= {(3 * s * one, 3 * t * one) for s in (1, -1) for t in (1, -1)}
    m = RootSystem(RootSpace(2, ((one, zero), (zero, one))), roots).model
    assert m.pairing((1, 0), (3, 3)) == F(1, 3)
    assert m.reflect((3, 3), (1, 0)) == (0, -1)
    # A2 under diag(1, 2, 3): s_(-1,0,1)((-1,1,0)) = (-1/2, 1, -1/2)
    diag = [[F(i + 1) if i == j else F(0) for j in range(3)] for i in range(3)]
    a2 = with_form(build_classical("A", 2), diag)
    m = integer_model(a2)
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
    assert str(got.value) == str(want.value) == "isotropic nonzero root (1, 0) under the given form"


def test_pre_reflection_system_input_paths_agree():
    """Tuples and lists, ints and Fractions, give the same rows and the same
    read-only system."""
    rs = build_classical("B", 2)
    coroots = dict(rs.coroots)
    kept = PreReflectionSystem(rs.dim, rs.roots, coroots)
    rekeyed = PreReflectionSystem(rs.dim, [list(map(F, a)) for a in rs.roots],
                                  {a: list(map(F, c)) for a, c in coroots.items()})
    assert kept.rows == rekeyed.rows == rs.rows and rekeyed.roots == rs.roots
    assert dict(kept.coroots) == dict(rekeyed.coroots) == coroots
    coroots.clear()
    assert dict(kept.coroots) == dict(rs.coroots)
    with pytest.raises(TypeError):
        kept.coroots[(F(0), F(0))] = (F(0), F(0))
    a = max(rs.roots)
    for roots in (rs.roots, [list(b) for b in rs.roots]):
        with pytest.raises(ValueError) as err:
            PreReflectionSystem(rs.dim, roots, {b: c for b, c in rs.coroots.items() if b != a})
        assert str(err.value) == f"coroot missing for {frac_to_str(a)}"


# sha256 of the sorted roots of every system the builders accept up to rank
# 8, one root a line as frac_to_str prints it.
ROOT_SET_SHA256 = {
    ("A", 1): "0727429d68ede9507f4cc3a143b9020b5cd191014d3e46baa02602bfc49188c9",
    ("A", 2): "ae76f9ae7bbd40b3d29e8aceb0b7112809a58f6413ba2f00d4b9c348d837b944",
    ("A", 3): "4177a3b1f3896d00b41100a358c676d4d50d26629676a8aeb6b3a025890dc37e",
    ("A", 4): "77f37b62f150632d972008dc730c7d7b4a13a16995710ec4718b3bc711d61b2d",
    ("A", 5): "f4e5053921c648169dc69c2fd4a2c27a143643c3f81567b6ff96cbf9dc70c14d",
    ("A", 6): "5d3b0146579284ac4a697c98e8c1a80882762008c826e4b2cfbeb064c8d23d62",
    ("A", 7): "500a82d5b3f53ca98f4742b51a1a4c24dc8353ae11b8d99d0f65f71a5ac5fe0f",
    ("A", 8): "88140dd07dd48b871b6686d57e0c2cc8e1e426baec2fb7f822e2ec49df1e9bfc",
    ("B", 1): "c75a4c50f9dba289c76aca1ca8e5b55d5fe9f06282f3d38f2a779ba263181ff2",
    ("B", 2): "1b189fbb1f0720925fcc29fa6b45e7f356d192ea56877762b3c8aa444ac6b4e9",
    ("B", 3): "fb4e56c64b8ef5fbca88aef48f52c3d81993aac77bb5131aa1c90adcd33d18b1",
    ("B", 4): "d39d1d8a82f9b2d46617dd100ddc2d60ea22144c18775d7d01f54f2f03f9855d",
    ("B", 5): "b4161fa1ac9e9d425bd29ee1863513cfc5ed97a149e026c67c9f38cfc6e0efe7",
    ("B", 6): "9401aac410f1f510424297478e5a9bd7fc43b1b7701050a69239f2a02cdc7f3a",
    ("B", 7): "f363ad7687871c336c7de9b3f9751d69be3e5e2ae5e1f652f86cb11fd0f49594",
    ("B", 8): "187f913f602253e6331fddc2ab01cd8699b2d9b3adfe19c5861e15de9228816a",
    ("C", 1): "b9e1cee177148837232bf573edcf90c4811c4128fdeff994310f1226487d336c",
    ("C", 2): "71981d2c6e3ad4cc59080743b4b23256c9e9209706e4b6c08d397736ee2d77e8",
    ("C", 3): "213b021b922bb0da652f8f12921f46601c95105770b7131858f4bf4d9e027b50",
    ("C", 4): "2feca8a6b1ebb0da6a067c7841553ab6abcb0b49a104d374196d2cedcf8c7b4b",
    ("C", 5): "3900b9d20c9d2b64c99a633d7010186e6346a5a3e89b301f53d27495ace5dec6",
    ("C", 6): "2631f34889c853343f8dcb16efe3362b1b6b033dbb4f9c68a5d33d147aa356c8",
    ("C", 7): "1d7e2a544150bcc902763ba809bd51d996d17bd9649c917f3e562d8a764959fc",
    ("C", 8): "f18f5070504d13d48934eacadce5e8585bc2ad2c40f1c808cd916b38c39287ad",
    ("D", 2): "03ee8fe2a02869ab45af83bae865f9be497d7130df3e007f7349f48e375df808",
    ("D", 3): "7c8aac6e25e325847b785b5e06ba1c7a3e72f25bcb3a66beb4c5bfd6a7c3edc6",
    ("D", 4): "5ba7d6697fe06a642360984ecf13b4dea1877d51ba459a7d13a936f3969b0967",
    ("D", 5): "ac1366691af4dba269dce5d7b80bd08e0cd5a5f451737ee6597755bdf25fe12d",
    ("D", 6): "bb1dffc2bc0b2499d16f06061e07b95d7040cb7f2945a02099ed06bd775e4efb",
    ("D", 7): "df704415552942cdf92f8f03efafd076637d6849fc74c18331784794c599fa57",
    ("D", 8): "01c0336e6f2c5e2a059974f6cb5139b1ad941595b25b9e3425dc905ea800c8d0",
    ("BC", 1): "35979da7a439e6345ecdefa700512b438d0c2d3e21556de633547d3b8c9f459c",
    ("BC", 2): "b055cb3e981cc1ccd3fc548eee16d88eaf14e4fc4a9c043497206ea05f4eb441",
    ("BC", 3): "8eb2adebe7f2c8faf11bb1747f3838fb8b143c660badf397cb47ff3e68794440",
    ("BC", 4): "96ee3b7e5ed3da9055dbd7bbf6711866fa75bcd18b42970d4b529c0b484f9a06",
    ("BC", 5): "ac9f13f2ca9b12628baa6854d0ec24b57530b6d3531f686dfc6d67ff5b1557a8",
    ("BC", 6): "e6dfce73a9ec84522937da951be45965c0d66d7673388eaa339df00a58d8e8a6",
    ("BC", 7): "7d57199993c7a2d77160e9074d89c7c669ce5eb665896c8987d55ad052d94d19",
    ("BC", 8): "c5e44a0d524b279212ed3583e2556817c984db98862f858de102ad658971ef58",
    ("E6", None): "058eec61ef32b74de80fdffce82bb518c930e0c0f08c33ec58365f501d4dc866",
    ("E7", None): "3c7351e06a220bfa59a122dfc809520d777b9d9c4d966dc385dc5cb0c115ca3c",
    ("E8", None): "c6ba941e1b25db6cdb971419bebc7c759b61fb7617225a4d2e9b9d659ca61c23",
    ("F4", None): "9454adb7ad973b3de02205b78e1bae5aa78932915657547247c9efad0e14bb51",
    ("G2", None): "30f417e36ce1f841cb9476170382ab8ca655971ad9daec59d5f489e540245401",
}


@pytest.mark.parametrize("fam,rk", list(ROOT_SET_SHA256))
def test_root_sets_are_pinned(fam, rk):
    rs = build_exceptional(fam) if rk is None else build_classical(fam, rk)
    text = "\n".join(map(frac_to_str, sorted(rs.roots)))
    assert hashlib.sha256(text.encode()).hexdigest() == ROOT_SET_SHA256[(fam, rk)]


@pytest.mark.parametrize("fam,rk,message", [
    *((fam, rk, "rank must be at least 1") for fam in ("A", "B", "C", "D", "BC") for rk in (0, -1)),
    ("D", 1, "type D needs rank >= 2 (D_1 cannot span its space)"),
    ("E", 3, "unknown classical family 'E'"),
    ("E9", None, "unknown exceptional family 'E9'"),
])
def test_rejected_ranks_and_families_name_the_reason(fam, rk, message):
    with pytest.raises(ValueError) as err:
        build_exceptional(fam) if rk is None else build_classical(fam, rk)
    assert str(err.value) == message
